"""The acceptance suite: one table (``_CRITERIA``) numbers and names the
criteria, each check returns whether it passed and the measured quantities,
and one builder makes every record, the determinism cross-run's too.

Every criterion re-derives its random stream from the config seed, so a
rerun with the same seed reproduces the report byte for byte (checked by the
final criterion itself).  Where the process may run on more than one CPU,
that rerun runs in a forked child, concurrently with the first body, and
returns its canonical JSON through a pipe; elsewhere it runs after the
first body.  Criteria 1-7, 9 and 12 draw all their cases in
stream order and evaluate each case's own g and f once on its own matrix;
the settle, the eigen-solve, determinant or Schur complement and the gap
reductions then run once per stack of same-size cases, through the same
kernels as ``apply``, ``decompose``, ``mask_factorization`` and
``schur_complement``.  The suite builds every input inside its domain (the
samples scaled by ``_into_domain``, the witnesses checked by their
constructors), so it checks none of them again.  The correlation bound
(criterion 9) and the peel-one-block recursion (criterion 12) are checked
here, per matrix of such a stack.  Each matrix of a stack comes out bit for
bit as it would alone, and every reported extreme is a running min or max
over the per-case values in draw order.

Criterion 2 forms one n's images for all its slopes c at once.  Criteria 4
and 5 read g and f at the witness entries (r and z of the overlap probe, |w|
of the duplicated pair) off the images they already evaluate.  Criterion 5
still evaluates g and f at its own z1: it builds z1 in numpy scalar
arithmetic, the witness in Python complex arithmetic, and the two can differ
in the last bit.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np

from .functions import (
    Domain,
    HerzMonomial,
    HerzSeries,
    Identity,
    ScalarMultiple,
    Zero,
    admissible_family,
    scaled_identity,
)
from .linalg import (
    all_ones,
    eig_extremes,
    exact_hermitian,
    identity,
    is_psd,
    kron,
    psd_holds,
    schur_complement,
    schur_product,
)
from .operators import (
    OperatorSpec,
    _decomposition,
    _factorization,
    _image,
    apply,
    star_pattern,
)
from .patterns import (
    R1_EMPTY,
    R2_SINGLETONS,
    R3A_PARTITION_ALL,
    R3B_SUBPARTITION_OTHER,
    R4_OVERLAPPING,
    all_singletons_rule,
    classify_sequence,
    contiguous_partition_rule,
    empty_rule,
    normalize,
    overlapping_chain_rule,
    proper_subpartition_rule,
    single_block_rule,
)
from .verify import (
    VerifyConfig,
    _draw,
    _grams,
    _into_domain,
    canonical_json,
    refute_scalar_outside_interval,
    sample_psd,
    verify_preservation,
)
from .witnesses import (
    WITNESS_PSD_TOL,
    all_ones_witness,
    corner_extend_auto,
    duplicated_pair_gram,
    overlap_probe,
)


def _rng(cfg: VerifyConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, tag])


def _random_builtin(rng: np.random.Generator, g):
    """One of the serializable function variants, seeded."""
    pick = int(rng.integers(0, 5))
    if pick == 0:
        return HerzMonomial(2.0 * rng.random(), int(rng.integers(0, 3)), int(rng.integers(0, 3)))
    if pick == 1:
        coeffs = {}
        for _ in range(int(rng.integers(1, 4))):
            coeffs[(int(rng.integers(0, 3)), int(rng.integers(0, 3)))] = rng.random()
        return HerzSeries(coeffs, max_degree=6)
    if pick == 2:
        return ScalarMultiple(-1.0 + 2.0 * rng.random(), g)
    if pick == 3:
        return Identity()
    return Zero()


def _random_pattern(rng: np.random.Generator, n: int):
    blocks = []
    for _ in range(int(rng.integers(0, 4))):
        size = int(rng.integers(1, min(3, n) + 1))
        blocks.append(rng.choice(n, size=size, replace=False).tolist())
    return normalize(blocks, n)


def _partition_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Group labels of a random partition of range(n) into exactly k nonempty groups."""
    perm = rng.permutation(n)
    assign = np.empty(n, dtype=int)
    assign[perm[:k]] = np.arange(k)
    if n > k:
        assign[perm[k:]] = rng.integers(0, k, size=n - k)
    return assign


def _by_n(ns: list[int], *lists: list):
    """For each drawn n: the positions that drew it, in draw order, then the
    stack of each of lists at those positions."""
    ns = np.array(ns)
    for n in np.unique(ns):
        at = np.flatnonzero(ns == n)
        yield (at, *(np.array([d[i] for i in at]) for d in lists))


def _samples(draws: list, at, dom: Domain) -> np.ndarray:
    """The settled samples of the factor draws at positions at, all of one n."""
    return _into_domain(_grams([draws[i] for i in at], dom), dom)


def _criterion_schur_closure(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 101)
    dom = Domain.disc(1.0)
    ns, a_draws, b_draws = [], [], []
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        ns.append(n)
        a_draws.append(_draw(rng, n, dom))
        b_draws.append(_draw(rng, n, dom))
    lows = np.empty(1000)
    for at, in _by_n(ns):
        lows[at] = eig_extremes(schur_product(_samples(a_draws, at, dom), _samples(b_draws, at, dom)))[0]
    # in draw order, as a running min that skips NaN and keeps the first of equal zeros
    worst = reduce(min, lows.tolist(), math.inf)
    return worst >= -1e-8, {"pairs": 1000, "worst_min_eig": float(worst), "bound": -1e-8}


def _criterion_star_all_ones_law(cfg: VerifyConfig) -> tuple[bool, dict]:
    xs = (0.1, 0.5, 0.9)
    devs = []
    mismatches = 0
    for n in range(2, 7):
        star = star_pattern(n)
        boundary = Fraction(-1, n - 1)
        grid = [Fraction(6 * j - 120, 100) for j in range(41)] + [boundary]
        J = np.array([x * all_ones(n) for x in xs])
        # one image per (c, x), c-major: f = c z at every slope at once
        cs = np.array([float(c) for c in grid])
        M = _image(star.mask, J, cs[:, None, None, None] * J).reshape(-1, n, n)
        eigs = np.linalg.eigvalsh(M)
        law = np.sort([[(1.0 - float(c)) * x] * (n - 1) + [(1.0 + (n - 1) * float(c)) * x]
                       for c in grid for x in xs], axis=1)
        devs += np.abs(eigs - law).max(axis=1).tolist()
        expected = np.repeat([boundary <= c <= 1 for c in grid], len(xs))
        mismatches += int(np.count_nonzero(psd_holds(eigs[:, 0], eigs[:, -1], cfg.tol) != expected))
    max_dev = reduce(max, devs, 0.0)
    return max_dev <= 1e-10 and mismatches == 0, {"max_eigenvalue_deviation": max_dev,
                                                   "interval_mismatches": mismatches}


def _criterion_partition_scalar_interval(cfg: VerifyConfig) -> tuple[bool, dict]:
    dom = Domain.disc(1.0)
    lows = []
    for k in (2, 3, 4):
        rng = _rng(cfg, 1030 + k)
        f = scaled_identity(float(Fraction(-1, k - 1)))
        ns, masks, draws = [], [], []
        for _ in range(500):
            n = int(rng.integers(k, 9))
            assign = _partition_labels(rng, n, k)
            ns.append(n)
            masks.append(assign[:, None] == assign[None, :])  # the mask of the partition's pattern
            draws.append(_draw(rng, n, dom))
        low = np.empty(500)
        for at, mask in _by_n(ns, masks):
            A = _samples(draws, at, dom)
            low[at] = eig_extremes(_image(mask, A, f.evaluate_array(A)))[0]
        lows += low.tolist()
    worst = reduce(min, lows, math.inf)
    refuted = True
    max_dev = 0.0
    # necessity dimensions are pinned at the criterion level (the witness for
    # k blocks needs n = k), independent of any reduced budget in cfg
    battery_only = VerifyConfig(max_n=8, samples_per_n=0, seed=cfg.seed, tol=cfg.tol)
    for k in (2, 3, 4):
        c_out = Fraction(-1, k - 1) - Fraction(1, 20)
        rule = contiguous_partition_rule(k)
        verdict = refute_scalar_outside_interval(rule, k, c_out, dom)
        ce = verdict.counterexample
        refuted = refuted and verdict.refuted and ce.family == "all_ones"
        law = (1.0 + (k - 1) * float(c_out)) * ce.params["x"]
        max_dev = max(max_dev, abs(ce.min_eig - law))
        # the deterministic battery alone must find the same witness family
        swept = verify_preservation(Identity(), scaled_identity(float(c_out)), rule, dom, battery_only)
        bce = swept.counterexample
        if not (swept.refuted and bce is not None and bce.family == "all_ones" and bce.n == k):
            refuted = False
            continue
        battery_law = (1.0 + (k - 1) * float(c_out)) * bce.params["x"]
        max_dev = max(max_dev, abs(bce.min_eig - battery_law))
    return worst >= -1e-8 and refuted and max_dev <= 1e-10, {
        "sufficiency_worst_min_eig": float(worst),
        "necessity_refuted": bool(refuted),
        "necessity_eigenvalue_deviation": float(max_dev),
    }


def _criterion_chain_determinant(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 104)
    dom = Domain.disc(1.0)
    mask = normalize([{0, 1}, {1, 2}], 3).mask
    G, F, laws = [], [], []
    for _ in range(200):
        g = HerzMonomial(0.5 + 1.5 * rng.random(), int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        f = _random_builtin(rng, g)
        r = 0.2 + 0.7 * rng.random()
        z = r * rng.random() * np.exp(2j * math.pi * rng.random())
        M = overlap_probe(r, complex(z), dom).matrix
        GM, FM = g.evaluate_array(M), f.evaluate_array(M)
        G.append(GM)
        F.append(FM)
        # g(r), g(z) and f(z) are the images' entries at r = M[0, 0] and z = M[0, 1]
        laws.append(-(complex(GM[0, 0]).real) * abs(complex(FM[0, 1]) - complex(GM[0, 1])) ** 2)
    dets = np.linalg.det(_image(mask, np.array(G), np.array(F))).tolist()
    max_rel = reduce(max, [abs(d.real - law) / max(1.0, abs(law)) for d, law in zip(dets, laws)], 0.0)
    max_imag = reduce(max, [abs(d.imag) for d in dets], 0.0)
    return max_rel <= 1e-10 and max_imag <= 1e-10, {"cases": 200, "max_relative_gap": max_rel,
                                                     "max_imag": max_imag}


def _criterion_split_pair_complement(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 105)
    dom = Domain.disc(1.0)
    mask = normalize([{0, 1}, {2}], 3).mask
    G, F, laws = [], [], []
    for _ in range(200):
        # low exponents and |w| away from 0 keep the 1/g(|w|)^2 factor
        # well-conditioned against the 1e-10 tolerance
        g = HerzMonomial(0.5 + 1.5 * rng.random(), int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        w = (0.4 + 0.5 * rng.random()) * np.exp(2j * math.pi * rng.random())
        z = abs(w) * rng.random() * np.exp(2j * math.pi * rng.random())
        c = -1.0 + 2.0 * rng.random()
        M = duplicated_pair_gram(complex(w), complex(z), dom).matrix
        GM = g.evaluate_array(M)
        # g(|w|) and f(|w|) are the images' entries at |w| = M[1, 1]; z1 may
        # differ from M[0, 1] in the last bit, so g and f are evaluated at it
        z1 = complex(z) * np.conj(w) / abs(w)
        gw = complex(GM[1, 1]).real
        gz1 = g(z1)
        # a random f, then c*g, whose determinant must vanish
        for f in (_random_builtin(rng, g), ScalarMultiple(c, g)):
            FM = f.evaluate_array(M)
            G.append(GM)
            F.append(FM)
            laws.append(-abs(complex(FM[1, 1]) * gz1 - gw * f(z1)) ** 2 / gw ** 2)
    comp = schur_complement(_image(mask, np.array(G), np.array(F)), {2})
    # numpy scalars, as one matrix alone: the vector complex product may round differently
    dets = [complex(C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0]) for C in comp]
    max_rel = reduce(max, [abs(d.real - law) / max(1.0, abs(law)) for d, law in zip(dets, laws)], 0.0)
    max_scaled_zero = reduce(max, [abs(d) for d in dets[1::2]], 0.0)
    return max_rel <= 1e-10 and max_scaled_zero <= 1e-10, {
        "cases": 200, "max_relative_gap": max_rel, "max_abs_det_for_scalar_multiple": max_scaled_zero}


def _values(fns: list, A: np.ndarray) -> np.ndarray:
    """Each case's own function evaluated once on its own matrix, stacked."""
    return np.array([fn.evaluate_array(M) for fn, M in zip(fns, A)])


def _rel_gaps(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per matrix: the largest entrywise |X - Y| relative to max(1, largest |Y|)."""
    return np.abs(X - Y).max(axis=(-2, -1)) / np.fmax(1.0, np.abs(Y).max(axis=(-2, -1)))


def _criterion_decomposition(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 106)
    dom = Domain.disc(1.0)
    ns, masks, gs, fs, draws = [], [], [], [], []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        ns.append(n)
        masks.append(_random_pattern(rng, n).mask)
        gs.append(_random_builtin(rng, Identity()))
        fs.append(_random_builtin(rng, Identity()))
        draws.append(_draw(rng, n, dom))
    gaps = np.empty(200)
    for at, mask in _by_n(ns, masks):
        A = _samples(draws, at, dom)
        out, p1, p2 = _decomposition(mask, _values([gs[i] for i in at], A), _values([fs[i] for i in at], A))
        gaps[at] = _rel_gaps(p1 + p2, out)
    max_gap = reduce(max, gaps.tolist(), 0.0)
    tensor_gaps = []
    for m in (2, 3, 4):
        draws, gs, fs = [], [], []
        for _ in range(10):
            draws.append(_draw(rng, 2, dom))
            gs.append(_random_builtin(rng, Identity()))
            fs.append(_random_builtin(rng, Identity()))
        A0 = _into_domain(_grams(draws, dom), dom)
        big = kron(np.ones((m, m)), A0)
        lhs = _image(star_pattern(2 * m).mask, _values(gs, big), _values(fs, big))
        _, f_img, diag_term = _decomposition(star_pattern(2).mask, _values(gs, A0), _values(fs, A0))
        rhs = kron(np.ones((m, m)), f_img) + kron(np.eye(m), diag_term)
        tensor_gaps += _rel_gaps(rhs, lhs).tolist()
    max_tensor_gap = reduce(max, tensor_gaps, 0.0)
    return max_gap <= 1e-14 and max_tensor_gap <= 1e-14, {"max_split_gap": max_gap,
                                                           "max_tensor_gap": max_tensor_gap}


def _criterion_mask_factorization(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 107)
    dom = Domain.disc(1.0)
    ns, masks, cs, draws = [], [], [], []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        ns.append(n)
        masks.append(_random_pattern(rng, n).mask)
        cs.append(-1.0 + 2.0 * rng.random())
        draws.append(_draw(rng, n, dom))
    fs = [scaled_identity(c) for c in cs]
    gaps = np.empty(200)
    for at, mask, c in _by_n(ns, masks, cs):
        A = _samples(draws, at, dom)
        rhs = _image(mask, A, _values([fs[i] for i in at], A))
        lhs = _factorization(mask, c[:, None, None], A, rhs)
        gaps[at] = _rel_gaps(lhs, rhs)
    max_gap = reduce(max, gaps.tolist(), 0.0)
    return max_gap <= 1e-14, {"cases": 200, "max_entrywise_gap": max_gap}


def _criterion_corner_extension(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 108)
    dom = Domain.open_pos(1.0)
    ok = True
    worst_min_eig = math.inf
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A = sample_psd(rng, n, dom)
        M, _eps = corner_extend_auto(A, dom)
        report = is_psd(M, WITNESS_PSD_TOL)
        worst_min_eig = min(worst_min_eig, report.min_eig)
        ok = ok and report.is_psd
        ok = ok and bool(dom.contains_array(M).all())
        ok = ok and bool(np.array_equal(M[:n, :n], A))
    return ok, {"cases": 100, "worst_min_eig": float(worst_min_eig)}


def _correlations(B: np.ndarray) -> np.ndarray:
    """Real correlation matrices from a stack of factors B (k, n, m): the Grams
    of B's rows scaled to unit norm, with the diagonal set to exactly 1."""
    B = B / np.sqrt((B ** 2).sum(axis=-1))[..., None]
    C = exact_hermitian(B @ np.swapaxes(B, -1, -2))
    n = C.shape[-1]
    C[..., range(n), range(n)] = 1.0
    return C


def _correlation_bound(C: np.ndarray, tol: float = 1e-8):
    """Per matrix of a stack of n x n correlation matrices C: whether n I - C
    is PSD by both proof routes, and the min eigenvalue of n I - C.

    Spectral route: min_eig(n I - C) >= -tol because lambda_max(C) <= tr(C) = n.
    Gershgorin route: n I - C is diagonally dominant row by row.
    """
    n = C.shape[-1]
    D = n * identity(n) - C
    lo, _ = eig_extremes(D)
    _, lam_max = eig_extremes(C)
    trace = np.trace(C, axis1=-2, axis2=-1).real
    diag = np.diagonal(D, axis1=-2, axis2=-1)
    off = np.abs(D).sum(axis=-1) - np.abs(diag)
    fails = ((lo < -tol) | (np.abs(trace - n) > tol * n) | (lam_max > trace + tol)
             | (diag.real - off < -tol).any(axis=-1))
    return ~fails, lo


def _criterion_correlation_bound(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 109)
    ns, factors = [], []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        ns.append(n)
        factors.append(rng.standard_normal((n, n + 2)))
    ok = True
    lows = np.empty(200)
    for at, B in _by_n(ns, factors):
        holds, lows[at] = _correlation_bound(_correlations(B))
        ok = ok and bool(holds.all())
    worst = reduce(min, lows.tolist(), math.inf)
    return ok, {"samples": 200, "worst_min_eig": float(worst)}


def _criterion_builtin_regimes(cfg: VerifyConfig) -> tuple[bool, dict]:
    table = [
        (empty_rule(), R1_EMPTY, None, None),
        (all_singletons_rule(), R2_SINGLETONS, None, "f(x) ≤ x on I∩ℝ≥0"),
        (single_block_rule({0, 1}), R3B_SUBPARTITION_OTHER, ["0", "1"], None),
        (contiguous_partition_rule(3), R3A_PARTITION_ALL, ["-1/2", "1"], None),
        (proper_subpartition_rule(3), R3B_SUBPARTITION_OTHER, ["0", "1"], None),
        (overlapping_chain_rule(), R4_OVERLAPPING, None, "f = g"),
    ]
    ok = True
    rows = []
    for rule, want_regime, want_interval, want_constraint in table:
        regime = classify_sequence(rule)
        family = admissible_family(regime, rule.flags.max_block_count)
        entry = family.to_json()
        rows.append({"rule": rule.name, "regime": regime, "family": entry})
        ok = ok and regime == want_regime
        ok = ok and entry.get("c_interval") == want_interval
        if want_constraint is not None:
            ok = ok and entry.get("constraint") == want_constraint
    return ok, {"rows": rows}


def _criterion_dominance_necessity(cfg: VerifyConfig) -> tuple[bool, dict]:
    dom = Domain.disc(math.inf)
    doubler = scaled_identity(2.0)
    # the witness is 2 x 2, whatever budget cfg sets
    cfg = dataclasses.replace(cfg, max_n=max(cfg.max_n, 2))
    verdict_one = verify_preservation(Identity(), doubler, single_block_rule({0}), dom, cfg)
    verdict_all = verify_preservation(Identity(), doubler, all_singletons_rule(), dom, cfg)
    wit = all_ones_witness(1.0, 2, dom)
    img = apply(OperatorSpec(f=doubler, pattern=single_block_rule({0}).pattern(2), domain=dom), wit.matrix)
    det = complex(img[0, 0] * img[1, 1] - img[0, 1] * img[1, 0])
    shape_ok = bool(np.array_equal(img.real, np.array([[1.0, 2.0], [2.0, 2.0]])))
    ok = (
        verdict_one.refuted
        and verdict_one.counterexample.family == "all_ones"
        and verdict_one.counterexample.n == 2
        and verdict_all.refuted
        and shape_ok
        and abs(det.real + 2.0) <= 1e-12
        and abs(det.imag) <= 1e-12
    )
    return ok, {
        "witness_determinant": det.real,
        "singleton_rule_refuted": bool(verdict_one.refuted),
        "all_singletons_rule_refuted": bool(verdict_all.refuted),
    }


def _reduce_scalar(c):
    """The contraction c -> c/(1+c) used when peeling one block off a partition."""
    return c / (1 + c)


def _induction_step(c: list, A: np.ndarray, sizes: list, tol: float = 1e-12) -> np.ndarray:
    """Per matrix of a stack A: whether the peel-one-block recursion holds for
    the scalar c[i] (a Fraction) and the contiguous blocks of sizes sizes[i].

    With k + 1 blocks, A must be positive definite and c in [-1/k, 0) must map
    onto c' = c/(1+c) in [-1/(k-1), 0).  With A' the leading principal part
    holding the first k blocks, (f_T[A'] - c^2 A') / (1 - c^2) must equal the
    same pattern map with scalar c' entrywise.
    """
    holds = (eig_extremes(A)[0] > 0) & np.array(
        [Fraction(-1, len(s) - 1) <= x < 0 and Fraction(-1, len(s) - 2) <= _reduce_scalar(x) < 0
         for x, s in zip(c, sizes)])
    # each leading index's block, over the first k blocks
    labels = [np.repeat(np.arange(len(s) - 1), s[:-1]) for s in sizes]
    for at, label, cf in _by_n([len(lab) for lab in labels], labels, [float(x) for x in c]):
        m = label.shape[-1]
        mask = label[:, :, None] == label[:, None, :]
        cf = cf[:, None, None]
        A1 = exact_hermitian(A[at, :m, :m])
        lhs = (_image(mask, A1, cf * A1) - cf * cf * A1) / (1.0 - cf * cf)
        rhs = _image(mask, A1, _reduce_scalar(cf) * A1)
        holds[at] &= np.abs(lhs - rhs).max(axis=(-2, -1)) <= tol * np.fmax(1.0, np.abs(A1).max(axis=(-2, -1)))
    return holds


def _criterion_induction_step(cfg: VerifyConfig) -> tuple[bool, dict]:
    rng = _rng(cfg, 112)
    dom = Domain.disc(1.0)
    sizes, draws, cs = [], [], []
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        sizes.append([int(rng.integers(1, 3)) for _ in range(k + 1)])
        draws.append(_draw(rng, sum(sizes[-1]), dom))
        cs.append(Fraction(-1, k) * Fraction(int(rng.integers(1, 11)), 10))
    ok = True
    for at, in _by_n([sum(s) for s in sizes]):
        A = _samples(draws, at, dom)
        A = exact_hermitian(A + 0.05 * identity(A.shape[-1]))
        ok = ok and bool(_induction_step([cs[i] for i in at], A, [sizes[i] for i in at]).all())
    ends = [Fraction(-1, 3), Fraction(-1, 4), Fraction(-1, 2)]
    endpoint_maps = [[str(c), str(_reduce_scalar(c))] for c in ends]
    maps_ok = [_reduce_scalar(c) for c in ends] == [Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 1)]
    return ok and maps_ok, {"cases": 100, "endpoint_maps": endpoint_maps}


# the criteria body, in id order: criterion i is row i - 1, and determinism (13) follows it
_CRITERIA = (
    ("schur-product-closure", _criterion_schur_closure),
    ("star-all-ones-eigenvalue-law", _criterion_star_all_ones_law),
    ("partition-scalar-interval", _criterion_partition_scalar_interval),
    ("chain-determinant-identity", _criterion_chain_determinant),
    ("split-pair-schur-determinant", _criterion_split_pair_complement),
    ("decomposition-identities", _criterion_decomposition),
    ("mask-factorization", _criterion_mask_factorization),
    ("positive-corner-extension", _criterion_corner_extension),
    ("correlation-spectral-bound", _criterion_correlation_bound),
    ("builtin-rule-regimes", _criterion_builtin_regimes),
    ("dominance-necessity", _criterion_dominance_necessity),
    ("induction-step-algebra", _criterion_induction_step),
)


def _record(id: int, name: str, passed, measured: dict) -> dict:
    """One criterion's report record."""
    return {"id": id, "name": name, "passed": bool(passed), "measured": measured}


def _criteria_body(cfg: VerifyConfig) -> list[dict]:
    return [_record(i, name, *check(cfg)) for i, (name, check) in enumerate(_CRITERIA, 1)]


def _body_bytes(cfg: VerifyConfig) -> bytes:
    return canonical_json(_criteria_body(cfg)).encode()


def _fork_rerun(cfg: VerifyConfig) -> tuple[int, int]:
    """Fork a child that runs the criteria body and writes its canonical JSON
    to a pipe; return the child's pid and the pipe's read end.

    The child writes nothing else (its warnings are ignored) and leaves by
    ``os._exit``, so it flushes no inherited buffer and runs no atexit
    handler: status 0 after the bytes, 1 if the body raised, with the
    exception's type and message in place of the bytes.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        warnings.simplefilter("ignore")
        try:
            data, code = _body_bytes(cfg), 0
        except Exception as exc:
            data, code = f"{type(exc).__name__}: {exc}".encode(), 1
        with open(w, "wb") as pipe:
            pipe.write(data)
        status = code
    finally:
        os._exit(status)


def run_theorem_suite(cfg: VerifyConfig | None = None) -> dict:
    """Run every acceptance criterion plus the determinism cross-check.

    Criterion 13 compares the criteria body's canonical JSON with a rerun's.
    Where the process may run on more than one CPU (``os.sched_getaffinity``,
    Linux only) the rerun runs in a forked child while this process runs the
    first body; elsewhere the two run one after the other.  A rerun that
    raises makes this call raise, and no child outlives the call.

    Forked, both bodies start from the same process state, so criterion 13
    does not compare a cold ``verify._section`` battery with a warm one; that
    is left to ``tests/test_verify.py::TestBatteryCache::test_warm_verdicts_match_cold``
    and ``tests/test_acceptance.py::test_rerun_reproduces_report_bytes``.
    """
    cfg = cfg or VerifyConfig()
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        pid, fd = _fork_rerun(cfg)
        try:
            first = _criteria_body(cfg)
            with open(fd, "rb", closefd=False) as pipe:
                rerun = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            raise RuntimeError(f"determinism rerun exited with status {code}: {rerun.decode(errors='replace')}")
    else:
        first = _criteria_body(cfg)
        rerun = _body_bytes(cfg)
    identical = canonical_json(first).encode() == rerun
    determinism = _record(13, "determinism", identical, {"reruns": 2, "identical_canonical_json": identical})
    criteria = first + [determinism]
    return {
        "config": cfg.to_json(),
        "criteria": criteria,
        "all_passed": bool(all(c["passed"] for c in criteria)),
    }


def format_suite_lines(report: dict) -> list[str]:
    lines = []
    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        lines.append(f"[{status}] criterion {crit['id']:2d}: {crit['name']}")
    lines.append("all criteria passed" if report["all_passed"] else "SOME CRITERIA FAILED")
    return lines
