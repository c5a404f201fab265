"""Scalar function families applied entrywise, their domains, and the
admissible family attached to each sequence regime.

The built-in variants (monomials alpha z^m conj(z)^k with alpha >= 0, their
nonnegative combinations, scalar multiples, identity, zero) all satisfy
f(conj z) = conj(f(z)); a Custom function may not, so the verifier checks
every function, built-in or Custom, on the domain's probe set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RegimeMismatchError
from .patterns import (
    R1_EMPTY,
    R2_SINGLETONS,
    R3A_PARTITION_ALL,
    R3B_SUBPARTITION_OTHER,
    R4_OVERLAPPING,
    _integer,
    _members,
    _real,
)

# Open boundaries |z| < rho are enforced with this relative slack.
BOUNDARY_SLACK = 1e-15

DISC = "disc"
OPEN_SYM = "open_sym"
HALF_OPEN_NONNEG = "half_open_nonneg"
OPEN_POS = "open_pos"

_KINDS = (DISC, OPEN_SYM, HALF_OPEN_NONNEG, OPEN_POS)


@dataclass(frozen=True)
class Domain:
    """Disc |z| < rho, or a real interval (-rho, rho), [0, rho), (0, rho)."""

    kind: str
    rho: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (self.rho > 0):
            raise ValueError("rho must be positive (math.inf allowed)")

    @classmethod
    def disc(cls, rho: float = math.inf) -> "Domain":
        return cls(DISC, float(rho))

    @classmethod
    def open_sym(cls, rho: float = math.inf) -> "Domain":
        return cls(OPEN_SYM, float(rho))

    @classmethod
    def half_open_nonneg(cls, rho: float = math.inf) -> "Domain":
        return cls(HALF_OPEN_NONNEG, float(rho))

    @classmethod
    def open_pos(cls, rho: float = math.inf) -> "Domain":
        return cls(OPEN_POS, float(rho))

    @property
    def upper(self) -> float:
        """Largest admitted modulus (open end pulled in by the boundary slack)."""
        return math.inf if math.isinf(self.rho) else self.rho * (1.0 - BOUNDARY_SLACK)

    @property
    def has_zero(self) -> bool:
        return self.kind != OPEN_POS

    def contains(self, z) -> bool:
        return bool(self.contains_array(z))

    def contains_array(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=np.complex128)
        if self.kind == DISC:
            return np.abs(Z) <= self.upper
        real = Z.imag == 0.0
        x = Z.real
        if self.kind == OPEN_SYM:
            return real & (np.abs(x) <= self.upper)
        if self.kind == HALF_OPEN_NONNEG:
            return real & (x >= 0.0) & (x <= self.upper)
        return real & (x > 0.0) & (x <= self.upper)

    def reference_radius(self) -> float:
        """A finite positive scale inside the domain (rho for finite domains, 1 otherwise)."""
        return 1.0 if math.isinf(self.rho) else self.rho

    def probe_points(self) -> tuple[complex, ...]:
        """A small conjugation-closed sample of the domain."""
        r = 0.9 * self.reference_radius()
        if self.kind == DISC:
            w = r * complex(0.6, 0.8) * 0.5
            return (0j, complex(0.5 * r), complex(-0.5 * r), w, w.conjugate(), complex(r))
        if self.kind == OPEN_SYM:
            return (0j, complex(0.5 * r), complex(-0.5 * r), complex(r), complex(-r))
        if self.kind == HALF_OPEN_NONNEG:
            return (0j, complex(0.3 * r), complex(0.7 * r), complex(r))
        return (complex(0.1 * r), complex(0.5 * r), complex(r))

    def to_json(self) -> dict:
        return {"kind": self.kind, "rho": "inf" if math.isinf(self.rho) else self.rho}

    @classmethod
    def from_json(cls, data: dict) -> "Domain":
        rho = _members(data, "domain", ("kind", "rho"))["rho"]
        return cls(data["kind"], math.inf if rho in ("inf", None) else _real(rho, "rho"))


def _int_pow(Z: np.ndarray, m: int):
    """Integer power by repeated squaring (conj-symmetric bit for bit, 0**0 = 1).

    The product starts from the scalar 1 + 0j: every product by 1 or 0 is
    exact, so the bits are those of a start from an all-ones array, signed
    zeros, inf and NaN included.  A zero exponent returns that scalar.
    """
    out = 1 + 0j
    base = Z
    e = m
    while e > 0:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _power_term(c: float, Z: np.ndarray, m: int, k: int):
    """c z^m conj(z)^k entrywise, multiplied left to right; conj(Z) is formed
    only for k > 0, and the result is the scalar c (1 + 0j) when m = k = 0."""
    return c * _int_pow(Z, m) * (_int_pow(np.conj(Z), k) if k else 1 + 0j)


class PreserverFunction:
    """A scalar function applied entrywise; immutable and pure."""

    def evaluate(self, z: complex) -> complex:
        Z = np.array([[complex(z)]], dtype=np.complex128)
        return complex(self.evaluate_array(Z)[0, 0])

    def evaluate_array(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, z: complex) -> complex:
        return self.evaluate(z)

    def linear_slope(self) -> float | None:
        """c such that f(z) = c*z identically, or None."""
        return None

    def to_json(self) -> dict:
        raise NotImplementedError


class Identity(PreserverFunction):
    def evaluate_array(self, Z):
        return np.asarray(Z, dtype=np.complex128).copy()

    def linear_slope(self):
        return 1.0

    def to_json(self):
        return {"variant": "identity", "params": {}}

    def __repr__(self):
        return "Identity()"


class Zero(PreserverFunction):
    def evaluate_array(self, Z):
        return np.zeros_like(np.asarray(Z, dtype=np.complex128))

    def linear_slope(self):
        return 0.0

    def to_json(self):
        return {"variant": "zero", "params": {}}

    def __repr__(self):
        return "Zero()"


class HerzMonomial(PreserverFunction):
    """alpha * z^m * conj(z)^k with alpha >= 0 and integer exponents m, k >= 0."""

    def __init__(self, alpha: float, m: int, k: int):
        alpha = float(alpha)
        if not (alpha >= 0.0 and math.isfinite(alpha)):
            raise ValueError("alpha must be a finite nonnegative real")
        self.alpha = alpha
        self.m = _integer(m, "exponent m")
        self.k = _integer(k, "exponent k")

    def evaluate_array(self, Z):
        Z = np.asarray(Z, dtype=np.complex128)
        out = _power_term(self.alpha, Z, self.m, self.k)
        return out if self.m or self.k else np.full(Z.shape, out)

    def linear_slope(self):
        if (self.m, self.k) == (1, 0):
            return self.alpha
        return self.alpha if self.alpha == 0.0 else None

    def to_json(self):
        return {"variant": "herz_monomial", "params": {"alpha": self.alpha, "m": self.m, "k": self.k}}

    def __repr__(self):
        return f"HerzMonomial(alpha={self.alpha}, m={self.m}, k={self.k})"


class HerzSeries(PreserverFunction):
    """Sum of c_{m,k} z^m conj(z)^k, all c_{m,k} >= 0; a term with m + k >
    max_degree is a ValueError.

    Truncations of the full series are themselves valid preservers (finite
    nonnegative combinations), so sufficiency tests run on them directly.
    """

    def __init__(self, coeffs, max_degree: int = 8):
        max_degree = _integer(max_degree, "max_degree")
        terms = {}
        for (m, k), c in dict(coeffs).items():
            m, k, c = _integer(m, "exponent m"), _integer(k, "exponent k"), float(c)
            if not (c >= 0.0 and math.isfinite(c)):
                raise ValueError(f"coefficient c[{m},{k}] = {c} must be finite and >= 0")
            if m + k > max_degree:
                raise ValueError(f"term ({m}, {k}) has degree {m + k} > max_degree {max_degree}")
            if c != 0.0:
                terms[(m, k)] = c
        self.coeffs = dict(sorted(terms.items()))
        self.max_degree = max_degree

    def evaluate_array(self, Z):
        Z = np.asarray(Z, dtype=np.complex128)
        out = np.zeros_like(Z)
        for (m, k), c in self.coeffs.items():
            out = out + _power_term(c, Z, m, k)
        return out

    def linear_slope(self):
        if set(self.coeffs) <= {(1, 0)}:
            return self.coeffs.get((1, 0), 0.0)
        return None

    def to_json(self):
        return {
            "variant": "herz_series",
            "params": {
                "coeffs": [[m, k, c] for (m, k), c in self.coeffs.items()],
                "max_degree": self.max_degree,
            },
        }

    def __repr__(self):
        return f"HerzSeries({self.coeffs}, max_degree={self.max_degree})"


class ScalarMultiple(PreserverFunction):
    """c * inner(z) for a real scalar c of either sign."""

    def __init__(self, c: float, inner: PreserverFunction):
        c = float(c)
        if not math.isfinite(c):
            raise ValueError("c must be finite")
        self.c = c
        self.inner = inner

    def evaluate_array(self, Z):
        return self.c * self.inner.evaluate_array(Z)

    def linear_slope(self):
        s = self.inner.linear_slope()
        return None if s is None else self.c * s

    def to_json(self):
        return {"variant": "scalar_multiple", "params": {"c": self.c, "inner": self.inner.to_json()}}

    def __repr__(self):
        return f"ScalarMultiple({self.c}, {self.inner!r})"


class Custom(PreserverFunction):
    """Wrap an arbitrary scalar evaluator, called once per entry."""

    def __init__(self, fn, name: str = "custom"):
        self.fn = fn
        self.name = name

    def evaluate_array(self, Z):
        Z = np.asarray(Z, dtype=np.complex128)
        flat = np.array([complex(self.fn(complex(z))) for z in Z.ravel()], dtype=np.complex128)
        return flat.reshape(Z.shape)

    def to_json(self):
        raise ValueError("custom functions are not JSON-serializable")

    def __repr__(self):
        return f"Custom({self.name!r})"


def scaled_identity(c: float) -> ScalarMultiple:
    """The linear function z -> c*z."""
    return ScalarMultiple(c, Identity())


_VARIANT_PARAMS = {  # variant: (its required params, its optional ones)
    "identity": ((), ()), "zero": ((), ()), "herz_monomial": (("alpha", "m", "k"), ()),
    "herz_series": (("coeffs",), ("max_degree",)), "scalar_multiple": (("c", "inner"), ()),
}


def function_from_json(data: dict) -> PreserverFunction:
    variant = _members(data, "function", ("variant",), ("params",))["variant"]
    if variant not in _VARIANT_PARAMS:
        raise ValueError(f"unknown function variant {variant!r}")
    params = _members(data.get("params", {}), f"{variant!r} params", *_VARIANT_PARAMS[variant])
    if variant == "identity":
        return Identity()
    if variant == "zero":
        return Zero()
    if variant == "herz_monomial":
        return HerzMonomial(_real(params["alpha"], "alpha"), params["m"], params["k"])
    if variant == "herz_series":
        coeffs = {}
        for m, k, c in params["coeffs"]:
            if (m, k) in coeffs:  # a dict would keep the last coefficient without a word
                raise ValueError(f"herz_series lists the term ({m}, {k}) twice")
            coeffs[(m, k)] = _real(c, "coefficient")
        return HerzSeries(coeffs, max_degree=params.get("max_degree", 8))
    return ScalarMultiple(_real(params["c"], "c"), function_from_json(params["inner"]))


def conjugate_equivariance_check(f: PreserverFunction, samples, tol: float = 1e-10) -> bool:
    """True unless |f(conj z) - conj(f(z))| > tol on some sample; a NaN gap passes.

    The sample set is expected to be closed under conjugation.
    """
    Z = np.array([complex(z) for z in samples], dtype=np.complex128)
    gap = np.abs(f.evaluate_array(np.conj(Z)) - np.conj(f.evaluate_array(Z)))
    return not (gap > tol).any()


# -- admissible families per regime --------------------------------------------


@dataclass(frozen=True)
class FamilyDescriptor:
    """Which (g, f) survive a given sequence regime.

    ``c_interval`` is present exactly for the linear regimes and holds exact
    rational endpoints; ``constraint`` states the side condition otherwise.
    """

    regime: str
    description: str
    c_interval: tuple[Fraction, Fraction] | None = None
    constraint: str | None = None

    def to_json(self) -> dict:
        out = {"regime": self.regime, "family": self.description}
        if self.c_interval is not None:
            out["c_interval"] = [str(self.c_interval[0]), str(self.c_interval[1])]
        if self.constraint is not None:
            out["constraint"] = self.constraint
        return out


def _linear_interval(regime: str, K) -> tuple[Fraction, Fraction]:
    if regime == R3A_PARTITION_ALL:
        if not (isinstance(K, int) or (isinstance(K, float) and K.is_integer() and math.isfinite(K))):
            raise RegimeMismatchError("the partition-of-all regime needs a finite integer max block count")
        K = int(K)
        if K < 2:
            raise RegimeMismatchError("the partition-of-all regime needs max block count >= 2")
        return (Fraction(-1, K - 1), Fraction(1))
    return (Fraction(0), Fraction(1))


def admissible_family(regime: str, K) -> FamilyDescriptor:
    """The family of admissible f for a classified sequence (g = identity)."""
    if regime == R1_EMPTY:
        return FamilyDescriptor(
            regime=regime,
            description="any series sum c_{m,k} z^m conj(z)^k with c_{m,k} >= 0",
        )
    if regime == R2_SINGLETONS:
        return FamilyDescriptor(
            regime=regime,
            description="series with nonnegative coefficients, bounded by the identity on nonnegative reals",
            constraint="f(x) ≤ x on I∩ℝ≥0",
        )
    if regime in (R3A_PARTITION_ALL, R3B_SUBPARTITION_OTHER):
        return FamilyDescriptor(
            regime=regime,
            description="linear: f(z) = c·z",
            c_interval=_linear_interval(regime, K),
        )
    if regime == R4_OVERLAPPING:
        return FamilyDescriptor(regime=regime, description="identity only", constraint="f = g")
    raise ValueError(f"unknown regime {regime!r}")


def admissible_c_interval_pair(regime: str, K, g: PreserverFunction) -> tuple[Fraction, Fraction]:
    """Interval for c in f = c*g when g is a positive monomial, per regime."""
    if regime not in (R3A_PARTITION_ALL, R3B_SUBPARTITION_OTHER):
        raise RegimeMismatchError(f"no scalar interval in regime {regime}")
    if isinstance(g, Identity):
        pass
    elif isinstance(g, HerzMonomial):
        if not g.alpha > 0:
            raise ValueError("g must have a strictly positive coefficient")
    else:
        raise ValueError("g must be a monomial alpha z^m conj(z)^k (or the identity)")
    return _linear_interval(regime, K)
