"""Seeded inputs for the benchmark workloads and the oracle that judges them.

Each workload is a fixed list of top-level calls into ``psdmask``; the seed
draws only their numeric parameters (scalars, series coefficients, sample
seeds), so the amount of work per pass does not depend on the seed.

The expected outcome of every call comes from the paper's regime table
(``paper_regime`` and ``paper_interval`` below) together with
``admissible_family``; it is never read back from a verdict.  Refutations are
re-checked with an image computed here in plain numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import psdmask as pm
import psdmask.cli
from psdmask import patterns as P

WORKLOADS = ("preserved_full", "open_pos_battery", "refute_sweep", "suite_cli")

PRESERVED = "PreservedWithinBudget"
REFUTED = "Refuted"

# Calls in one pass of refute_sweep.
REFUTE_CALLS = 300

# Relative PSD tolerances of the independent refutation check.
INPUT_PSD_TOL = 1e-10
IMAGE_NEG_TOL = 1e-9

# The regime table of the paper, keyed by rule constructor.
RULES = {
    "empty": lambda p: pm.empty_rule(),
    "all_singletons": lambda p: pm.all_singletons_rule(),
    "single_block": lambda p: pm.single_block_rule(p["block"]),
    "contiguous_partition": lambda p: pm.contiguous_partition_rule(p["k"]),
    "proper_subpartition": lambda p: pm.proper_subpartition_rule(p["k"]),
    "overlapping_chain": lambda p: pm.overlapping_chain_rule(),
}


def paper_regime(kind: str, params: dict) -> str:
    """Regime of a built-in rule, read off the paper's table (not classified)."""
    if kind == "empty":
        return P.R1_EMPTY
    if kind == "all_singletons":
        return P.R2_SINGLETONS
    if kind == "single_block":
        return P.R2_SINGLETONS if len(params["block"]) == 1 else P.R3B_SUBPARTITION_OTHER
    if kind == "contiguous_partition":
        return P.R3A_PARTITION_ALL
    if kind == "proper_subpartition":
        return P.R3B_SUBPARTITION_OTHER
    if kind == "overlapping_chain":
        return P.R4_OVERLAPPING
    raise ValueError(f"no paper regime for rule kind {kind!r}")


def paper_interval(regime: str, K) -> tuple[Fraction, Fraction] | None:
    """The exact c interval of the linear regimes: [-1/(K-1), 1] or [0, 1]."""
    if regime == P.R3A_PARTITION_ALL:
        return Fraction(-1, int(K) - 1), Fraction(1)
    if regime == P.R3B_SUBPARTITION_OTHER:
        return Fraction(0), Fraction(1)
    return None


# -- functions ------------------------------------------------------------------


@dataclass(frozen=True)
class FnSpec:
    """A scalar function as data: ``linear`` c*z, or a ``series`` of c z^m conj(z)^k."""

    kind: str
    c: Fraction | None = None
    terms: tuple = ()  # ((m, k, coeff), ...) for kind == "series"

    def build(self) -> pm.PreserverFunction:
        if self.kind == "linear":
            return pm.Identity() if self.c == 1 else pm.scaled_identity(float(self.c))
        if self.kind == "series":
            if len(self.terms) == 1:
                m, k, coeff = self.terms[0]
                return pm.HerzMonomial(coeff, m, k)
            return pm.HerzSeries({(m, k): coeff for m, k, coeff in self.terms}, max_degree=8)
        raise ValueError(f"unknown function kind {self.kind!r}")

    def numpy_eval(self, Z: np.ndarray) -> np.ndarray:
        """Entrywise values computed without the library's function classes."""
        if self.kind == "linear":
            return float(self.c) * Z
        out = np.zeros_like(Z)
        for m, k, coeff in self.terms:
            out = out + coeff * Z ** m * np.conj(Z) ** k
        return out


CONJ = FnSpec("series", terms=((0, 1, 1.0),))
IDENTITY = FnSpec("linear", c=Fraction(1))


def admissible(regime: str, K, f: FnSpec, domain: pm.Domain) -> bool:
    """Whether (g = id, f) preserves PSD in every dimension, per the paper."""
    family = pm.admissible_family(regime, K)
    interval = paper_interval(regime, K)
    if family.c_interval != interval:
        raise AssertionError(
            f"admissible_family({regime}, {K}) gives {family.c_interval}, the paper {interval}"
        )
    if interval is not None:
        return f.kind == "linear" and interval[0] <= f.c <= interval[1]
    if regime == P.R4_OVERLAPPING:
        return f == IDENTITY
    # R1 and R2: series with nonnegative coefficients ...
    if f.kind == "linear":
        terms = ((1, 0, float(f.c)),)
    else:
        terms = f.terms
    if any(coeff < 0 for _, _, coeff in terms):
        return False
    if regime == P.R1_EMPTY:
        return True
    # ... and, for R2, f(x) <= x on the nonnegative reals of the domain.  With
    # nonnegative coefficients f(x)/x is nondecreasing, so it suffices that
    # there is no constant term and f(rho) <= rho.
    if any(m + k == 0 for m, k, _ in terms):
        return False
    rho = domain.rho
    if math.isinf(rho):
        return all(m + k <= 1 for m, k, _ in terms) and sum(c for _, _, c in terms) <= 1
    return sum(coeff * rho ** (m + k) for m, k, coeff in terms) <= rho


# -- cases ----------------------------------------------------------------------


@dataclass
class Case:
    """One top-level call and what the paper says it must return."""

    label: str
    call: str  # "verify", "refute_scalar" or "cli"
    expected: str | int
    rule_kind: str = ""
    rule_params: dict = field(default_factory=dict)
    domain: pm.Domain | None = None
    f: FnSpec | None = None
    K: int | None = None
    cfg: pm.VerifyConfig | None = None
    argv: tuple = ()
    rule: object = None
    f_obj: object = None

    def materialize(self) -> "Case":
        if self.rule_kind:
            self.rule = RULES[self.rule_kind](self.rule_params)
        if self.f is not None:
            self.f_obj = self.f.build()
        return self


def _case(label, call, rule_kind, rule_params, domain, f, cfg=None) -> Case:
    """A library call whose expected outcome the paper decides."""
    K = rule_params.get("k")
    ok = admissible(paper_regime(rule_kind, rule_params), K, f, domain)
    return Case(label=label, call=call, expected=PRESERVED if ok else REFUTED,
                rule_kind=rule_kind, rule_params=rule_params, domain=domain, f=f, K=K, cfg=cfg)


def _verify_case(label, rule_kind, rule_params, domain, f, cfg) -> Case:
    return _case(label, "verify", rule_kind, rule_params, domain, f, cfg)


def _frac(rng: np.random.Generator, lo: int, hi: int) -> Fraction:
    """A seeded rational in [lo/1000, hi/1000]."""
    return Fraction(int(rng.integers(lo, hi + 1)), 1000)


def _inside(rng, regime, K) -> Fraction:
    lo, hi = paper_interval(regime, K)
    return lo + (hi - lo) * _frac(rng, 50, 950)


def _series(rng, exponents) -> FnSpec:
    return FnSpec("series", terms=tuple((m, k, float(_frac(rng, 100, 1000))) for m, k in exponents))


def _below_identity(rng) -> FnSpec:
    """a z + b |z|^2 with a + b <= 0.95: f(x) <= x on [0, 1)."""
    a = _frac(rng, 100, 600)
    b = _frac(rng, 0, 950 - int(a * 1000))
    return FnSpec("series", terms=((1, 0, float(a)), (1, 1, float(b))))


def _above_identity(rng) -> FnSpec:
    """a z + b |z|^2 with a >= 1.1: f(x) > x near 0."""
    return FnSpec("series", terms=((1, 0, float(_frac(rng, 1100, 1500))), (1, 1, float(_frac(rng, 0, 500)))))


def _cfg(rng, **kw) -> pm.VerifyConfig:
    return pm.VerifyConfig(seed=int(rng.integers(0, 2 ** 31)), **kw)


def preserved_full(rng) -> list[Case]:
    """Admissible (g, f, rule) cases on three domains containing 0, default budget."""
    doms = (
        ("disc", pm.Domain.disc(1.0), ((1, 0), (1, 1), (0, 2)),
         ("all_singletons", {}), ("contiguous_partition", {"k": 3})),
        ("open_sym", pm.Domain.open_sym(1.0), ((1, 0), (2, 0), (3, 0)),
         ("single_block", {"block": [0]}), ("proper_subpartition", {"k": 3})),
        ("half_open_nonneg", pm.Domain.half_open_nonneg(1.0), ((0, 0), (1, 0), (2, 0)),
         ("all_singletons", {}), ("contiguous_partition", {"k": 4})),
    )
    cases = []
    for name, dom, exponents, r2, r3 in doms:
        r3_regime = paper_regime(*r3)
        cases += [
            _verify_case(f"R1/{name}", "empty", {}, dom, _series(rng, exponents), _cfg(rng)),
            _verify_case(f"R2/{name}", *r2, dom, _below_identity(rng), _cfg(rng)),
            _verify_case(f"R3/{name}", *r3, dom,
                         FnSpec("linear", c=_inside(rng, r3_regime, r3[1].get("k"))), _cfg(rng)),
            _verify_case(f"R4/{name}", "overlapping_chain", {}, dom, IDENTITY, _cfg(rng)),
        ]
    return cases


def open_pos_battery(rng) -> list[Case]:
    """Admissible cases on (0, 1): every embedding grows by corner extension."""
    dom = pm.Domain.open_pos(1.0)
    rules = (
        ("contiguous_partition", {"k": 2}),
        ("contiguous_partition", {"k": 3}),
        ("contiguous_partition", {"k": 4}),
        ("proper_subpartition", {"k": 2}),
        ("single_block", {"block": [0, 1]}),
    )
    cases = []
    for kind, params in rules:
        c = _inside(rng, paper_regime(kind, params), params.get("k"))
        cases.append(_verify_case(f"{kind}{params}", kind, params, dom, FnSpec("linear", c=c),
                                  _cfg(rng, samples_per_n=10)))
    cases.append(_verify_case("overlapping_chain", "overlapping_chain", {}, dom, IDENTITY,
                              _cfg(rng, samples_per_n=10)))
    return cases


def refute_sweep(rng) -> list[Case]:
    """Short inadmissible calls: each verdict must be Refuted after a few checks."""
    disc = pm.Domain.disc(1.0)
    cases = []
    for i in range(REFUTE_CALLS):
        kind = i % 6
        K = 2 + (i // 6) % 3
        part = ("contiguous_partition", {"k": K})
        lo, hi = paper_interval(P.R3A_PARTITION_ALL, K)
        if kind == 0:
            c = lo - _frac(rng, 50, 500)
            cases.append(_verify_case(f"c<lo/K={K}", *part, disc, FnSpec("linear", c=c), _cfg(rng)))
        elif kind == 1:
            c = hi + _frac(rng, 50, 500)
            cases.append(_verify_case(f"c>1/K={K}", *part, disc, FnSpec("linear", c=c), _cfg(rng)))
        elif kind == 2:
            sub = ("proper_subpartition", {"k": 2 + (i // 6) % 2})
            cases.append(_verify_case("conj/R3b", *sub, disc, CONJ, _cfg(rng)))
        elif kind == 3:
            cases.append(_verify_case("conj/R4", "overlapping_chain", {}, disc, CONJ, _cfg(rng)))
        elif kind == 4:
            r2 = ("all_singletons", {}) if (i // 6) % 2 else ("single_block", {"block": [0]})
            cases.append(_verify_case("f>x/R2", *r2, disc, _above_identity(rng), _cfg(rng)))
        else:
            c = lo - _frac(rng, 50, 500) if (i // 6) % 2 else hi + _frac(rng, 50, 500)
            cases.append(_case(f"refute_scalar/K={K}", "refute_scalar", *part, disc,
                               FnSpec("linear", c=c)))
    return cases


def suite_cli(seed: int) -> list[Case]:
    """The acceptance suite through the command-line front end; exit 0 expected."""
    return [Case(label="cli suite", call="cli", expected=0,
                 argv=("suite", "--seed", str(seed), "--json"))]


def build(workload: str, seed: int) -> list[Case]:
    """The workload's call list for this seed, with rules and functions built."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "suite_cli":
        cases = suite_cli(seed)
    else:
        generate = {"preserved_full": preserved_full, "open_pos_battery": open_pos_battery,
                    "refute_sweep": refute_sweep}[workload]
        cases = generate(rng)
    return [c.materialize() for c in cases]


# -- calls and judging ----------------------------------------------------------


def invoke(case: Case):
    """The timed top-level call."""
    if case.call == "verify":
        return pm.verify_preservation(pm.Identity(), case.f_obj, case.rule, case.domain, case.cfg)
    if case.call == "refute_scalar":
        return pm.refute_scalar_outside_interval(case.rule, case.K, case.f.c, case.domain)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pm.cli.main(list(case.argv))
    return code, out.getvalue()


def digest(case: Case, result) -> str:
    """Canonical JSON of the deterministic output (the CLI timestamp dropped)."""
    if case.call == "cli":
        code, text = result
        body = json.loads(text)
        body.pop("timestamp", None)
        return pm.canonical_json({"exit": code, "body": body})
    return pm.canonical_json(result.to_json())


def judge(case: Case, result) -> str | None:
    """None when the output agrees with the paper, else the reason it does not."""
    if case.call == "cli":
        return _judge_suite(case, result)
    if result.outcome != case.expected:
        return f"{case.label}: expected {case.expected}, got {result.outcome}"
    regime = paper_regime(case.rule_kind, case.rule_params)
    got = pm.classify_sequence(case.rule)
    if got != regime:
        return f"{case.label}: classified {got}, the paper's table says {regime}"
    if result.outcome == PRESERVED:
        return None if result.stats["checked"] > 0 else f"{case.label}: nothing checked"
    ce = result.counterexample
    if case.call == "refute_scalar":
        x, c, K = ce.params["x"], float(case.f.c), case.K
        law = (1.0 + (K - 1) * c) * x if c < 0 else (1.0 - c) * x
        if not (law < 0 and abs(ce.min_eig - law) <= 1e-10):
            return f"{case.label}: min_eig {ce.min_eig} differs from the law {law}"
        return None
    return _certify(case, ce)


def _certify(case: Case, ce) -> str | None:
    """A refutation holds when its input is PSD and its image, computed here, is not."""
    W = np.asarray(ce.matrix, dtype=np.complex128)
    w_in = np.linalg.eigvalsh(W)
    if w_in[0] < -INPUT_PSD_TOL * max(1.0, abs(w_in[-1])):
        return f"{case.label}: counterexample input is not PSD ({w_in[0]:.3e})"
    pattern = case.rule.pattern(ce.n)
    mask = np.zeros(W.shape, dtype=bool)
    for block in pattern.blocks:
        idx = sorted(block)
        mask[np.ix_(idx, idx)] = True
    image = np.where(mask, W, case.f.numpy_eval(W))
    w_out = np.linalg.eigvalsh((image + image.conj().T) / 2.0)
    if not w_out[0] < -IMAGE_NEG_TOL * max(1.0, abs(w_out[-1])):
        return f"{case.label}: image min eigenvalue {w_out[0]:.3e} is not negative"
    return None


def _judge_suite(case: Case, result) -> str | None:
    code, text = result
    if code != case.expected:
        return f"suite exited {code}, expected {case.expected}"
    report = json.loads(text)["report"]
    failed = [c["name"] for c in report["criteria"] if not c["passed"]]
    if failed or not report["all_passed"] or len(report["criteria"]) != 13:
        return f"suite criteria failed: {failed}"
    rows = next(c for c in report["criteria"] if c["id"] == 10)["measured"]["rows"]
    table = {
        "empty": ({}, None),
        "all_singletons": ({}, None),
        "single_block": ({"block": [0, 1]}, None),
        "contiguous_partition": ({"k": 3}, 3),
        "proper_subpartition": ({"k": 3}, 3),
        "overlapping_chain": ({}, None),
    }
    for row in rows:
        params, K = table[row["rule"]]
        want = paper_regime(row["rule"], params)
        interval = paper_interval(want, K)
        want_interval = None if interval is None else [str(interval[0]), str(interval[1])]
        if row["regime"] != want or row["family"].get("c_interval") != want_interval:
            return f"regime table row {row['rule']}: {row['regime']} {row['family']}"
    return None


# -- known defects --------------------------------------------------------------


def known_defects() -> dict:
    """Calls the paper decides but the library gets wrong today; reported, not gated."""
    dom = pm.Domain.disc(math.inf)
    f = FnSpec("series", terms=((400, 0, 1.0),))
    expected = PRESERVED if admissible(P.R1_EMPTY, None, f, dom) else REFUTED
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = pm.verify_preservation(pm.Identity(), f.build(), pm.empty_rule(), dom)
    entry = {
        "call": "verify_preservation(Identity(), HerzMonomial(1, 400, 0), empty_rule(), Domain.disc(inf))",
        "expected": expected,
        "got": verdict.outcome,
        "runtime_warnings": len(caught),
        "status": "ok" if verdict.outcome == expected else "FAILS",
    }
    if verdict.counterexample is not None:
        entry["min_eig"] = verdict.counterexample.min_eig
    return {"herz_z400_disc_inf": entry}
