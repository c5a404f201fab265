"""Explicit PSD witness constructors and the growths that lift them.

Each constructor returns a ``Witness`` (matrix + provenance tag + params).
Its validated parameters make the matrix PSD by construction: it is a
rank-one Gram or a nonnegative multiple of the all-ones matrix, so no
eigen-solve re-checks it; the constructor checks only that the entries are
finite and inside the requested domain.  ``pad_embed`` grows a witness by
zero-padding (domains containing 0); ``corner_extend`` appends a
positively-weighted row-sum border instead, which keeps every entry strictly
positive for the (0, rho) domain.  Both keep the grown matrix as the
leading block bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainLacksZeroError,
    EpsTooLargeError,
    NonFiniteEntryError,
    NonPositiveEntriesError,
    OutOfDomainError,
    ZeroVectorError,
)
from .functions import Domain
from .linalg import exact_hermitian, is_psd, kron, matrix_to_json

WITNESS_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Witness:
    """A constructed PSD input matrix with its provenance tag and parameters."""

    matrix: np.ndarray
    provenance: str
    params: dict

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "matrix": matrix_to_json(self.matrix),
        }


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _witness(rows, provenance: str, params: dict, domain: Domain | None) -> Witness:
    """The settled matrix of rows, tagged; its entries must be finite and inside the domain.
    Either error names the witness, its params and the domain."""
    M = exact_hermitian(rows)
    where = "" if domain is None else f" on {domain.kind}(rho={domain.rho})"
    if not np.isfinite(M).all():
        raise NonFiniteEntryError(f"witness {provenance} {params}{where} has non-finite entries")
    if domain is not None and not domain.contains_array(M).all():
        raise OutOfDomainError(f"witness {provenance} {params}{where} has entries outside the domain")
    return Witness(M, provenance, params)


def _modulus(z: complex) -> float:
    """abs(z), or inf where Python's complex abs overflows (numpy's gives inf)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def rank_one_gram(v, domain: Domain | None = None) -> Witness:
    """The rank-one Gram matrix v v* of a nonzero vector."""
    v = np.asarray(v, dtype=np.complex128).ravel()
    if not np.any(v != 0):
        raise ZeroVectorError("v must be nonzero")
    return _witness(np.outer(v, np.conj(v)), "rank_one_gram", {"v": [complex(x) for x in v]}, domain)


def duplicated_pair_gram(w, z, domain: Domain) -> Witness:
    """Rank-one Gram of (z, w, w)/sqrt(|w|): the last two coordinates coincide.

    Entries are |z|^2/|w|, z1 = z conj(w)/|w|, and |w|; requires 0 < |w|
    inside the domain and |z| <= |w| so every entry stays inside it.
    """
    w = complex(w)
    z = complex(z)
    aw, az = _modulus(w), _modulus(z)
    if aw == 0.0:
        raise ZeroVectorError("w must be nonzero")
    if not domain.contains(w):
        raise OutOfDomainError(f"w={w} is outside the domain")
    if az > aw:
        raise OutOfDomainError(f"|z|={az} exceeds |w|={aw}")
    try:
        corner = az ** 2 / aw
    except OverflowError:  # Python float power raises where numpy would give inf
        corner = math.inf
    z1 = z * w.conjugate() / aw
    return _witness(
        [
            [corner, z1, z1],
            [z1.conjugate(), aw, aw],
            [z1.conjugate(), aw, aw],
        ],
        "duplicated_pair_gram", {"w": w, "z": z}, domain,
    )


def overlap_probe(r, z, domain: Domain) -> Witness:
    """The matrix with rows (r, z, z), (conj z, r, r), (conj z, r, r).

    PSD whenever r > 0 and |z| <= r (two identical rows, 2x2 minor
    r^2 - |z|^2); its image under an operator with two blocks sharing the
    middle index has determinant -g(r) |f(z) - g(z)|^2.
    """
    r = float(r)
    z = complex(z)
    if not (r > 0.0 and domain.contains(r)):
        raise OutOfDomainError(f"r={r} must be a positive real inside the domain")
    if _modulus(z) > r:
        raise OutOfDomainError(f"|z|={_modulus(z)} exceeds r={r}")
    return _witness(
        [
            [r, z, z],
            [z.conjugate(), r, r],
            [z.conjugate(), r, r],
        ],
        "overlap_probe", {"r": r, "z": z}, domain,
    )


def tail_gram(w, t, domain: Domain) -> Witness:
    """Rank-one Gram of (w, |w|, t)/sqrt(t) for 0 < |w| <= t.

    Its image under a single-pair-block operator carries f(w), f(|w|) and
    f(t) in the last column, which propagates positivity of f along [|w|, rho).
    """
    w = complex(w)
    t = float(t)
    aw = _modulus(w)
    if aw == 0.0:
        raise ZeroVectorError("w must be nonzero")
    if not (t >= aw and domain.contains(t) and domain.contains(w)):
        raise OutOfDomainError(f"need |w| <= t with both inside the domain; got w={w}, t={t}")
    return _witness(
        [
            [aw * aw / t, w * aw / t, w],
            [(w * aw / t).conjugate(), aw * aw / t, aw],
            [w.conjugate(), aw, t],
        ],
        "tail_gram", {"w": w, "t": t}, domain,
    )


def all_ones_witness(x, n: int, domain: Domain) -> Witness:
    """x times the all-ones matrix (rank one, spectrum {0, ..., 0, n x})."""
    x = float(x)
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 0.0 or not domain.contains(x):
        raise OutOfDomainError(f"x={x} must be a nonnegative real inside the domain")
    return _witness(np.full((n, n), x), "all_ones", {"x": x, "n": n}, domain)


def tensor_blowup(m: int, A: np.ndarray) -> Witness:
    """Kronecker product of the m x m all-ones matrix with a PSD matrix A.

    The entries of the output are exactly the entries of A, so domain
    membership is preserved; eigenvalues are those of A scaled by m plus zeros.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    A = np.asarray(A, dtype=np.complex128)
    if not is_psd(A, WITNESS_PSD_TOL).is_psd:
        raise ValueError("A must be PSD")
    M = kron(np.ones((m, m), dtype=np.complex128), A)
    return Witness(M, "tensor_blowup", {"m": m, "n": int(A.shape[0])})


def pad_embed(A: np.ndarray, N: int, domain: Domain | None = None) -> np.ndarray:
    """Zero-pad A to N x N, keeping A as the leading block bit for bit.

    Padding introduces zero entries, so the domain (when given) must contain 0
    unless N equals the original dimension.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    if N < n:
        raise ValueError(f"N={N} must be >= the original dimension {n}")
    if N > n and domain is not None and not domain.has_zero:
        raise DomainLacksZeroError("zero-padding is unavailable on (0, rho); use corner_extend")
    M = np.zeros((N, N), dtype=np.complex128)
    M[:n, :n] = A
    return M


def corner_extend(A: np.ndarray, eps: float, domain: Domain | None = None) -> np.ndarray:
    """Border a positive-entried PSD matrix with eps-weighted row sums.

    Output is [[A, eps A 1], [eps (A 1)^T, eps 1^T A 1]], strictly positive
    everywhere.  The border column eps A 1 lies in the range of A, so the
    Schur complement of A is eps 1^T A 1 - eps^2 1^T A 1 = eps (1 - eps) 1^T A 1
    >= 0: the output is PSD for every eps in (0, 1] whenever A is, and only A
    is eigen-checked.  Raises ValueError when A is not PSD and
    EpsTooLargeError when eps > 1 or the border leaves the domain.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    if A.size == 0 or np.any(A.imag != 0.0) or np.any(A.real <= 0.0):
        raise NonPositiveEntriesError("A must be nonempty with strictly positive real entries")
    if domain is not None and not domain.contains_array(A).all():
        raise OutOfDomainError("A has entries outside the domain")
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if eps > 1.0:
        raise EpsTooLargeError(f"eps={eps} > 1 makes the Schur complement negative")
    if not is_psd(A, WITNESS_PSD_TOL).is_psd:
        raise ValueError("A must be PSD")
    row_sums = A.real.sum(axis=1)
    M = np.zeros((n + 1, n + 1), dtype=np.complex128)
    M[:n, :n] = A
    M[:n, n] = eps * row_sums
    M[n, :n] = eps * row_sums
    M[n, n] = eps * A.real.sum()
    M = exact_hermitian(M)
    if domain is not None and not domain.contains_array(M).all():
        raise EpsTooLargeError(f"eps={eps} pushes entries outside the domain")
    return M


def corner_extend_auto(A: np.ndarray, domain: Domain | None = None) -> tuple[np.ndarray, float]:
    """Corner extension with the largest eps = 2^-p, p in 1..30, inside the domain.

    Every eps <= 1 keeps the output PSD (see ``corner_extend``), so the domain
    alone bounds eps.  A has positive entries, so the largest border entry is
    the corner eps 1^T A 1; scaling by 2^-p is exact, so p is the least
    p >= 1 with 2^-p 1^T A 1 <= upper, read off the binary exponents.  When
    even p = 30 leaves the domain, ``corner_extend`` raises EpsTooLargeError.
    """
    A = np.asarray(A, dtype=np.complex128)
    upper = math.inf if domain is None else domain.upper
    total = float(A.real.sum())
    p = 1
    if total > upper:
        (m_total, e_total), (m_upper, e_upper) = math.frexp(total), math.frexp(upper)
        # total = m_total 2^e_total, upper = m_upper 2^e_upper with mantissas in [1/2, 1)
        p = min(30, max(1, e_total - e_upper + (m_total > m_upper)))
    eps = 2.0 ** -p
    return corner_extend(A, eps, domain), eps
