"""The stacked acceptance criteria against copies of their one-matrix-at-a-time form.

Each ``_reference_*`` function below is the criterion as it ran before its
cases were stacked per n, drawing from numpy's own ``Generator`` on the
criterion's stream, not through the suite's raw-word reader: every sample is
drawn by ``sample_psd``, every case (for criterion 2, every slope) goes
through the public ``apply``, ``decompose``, ``mask_factorization`` and
``schur_complement`` on its own matrix, criterion 3 labels its partitions by ``_partition_labels``
on the ``Generator``, criteria 4 and 5 evaluate g and f at the witness's
scalars one call at a time, criterion 8 grows one sample at a time, and
criteria 9 and 12 go through copies of the one-matrix checks they used
(``_correlation_bound_check`` and ``_induction_step_check`` below).  The
record the suite builds from the stacked check, under its ``_CRITERIA`` row's
id and name, must be the same record, compared as ``canonical_json`` bytes,
at more seeds than ``suite_bytes.json`` pins.  Since the records of criteria
9 and 12 carry only pass/fail for those checks, the stacked checks are also
compared verdict by verdict with the one-matrix copies, on the suite's draws
and on inputs that fail.  ``TestStream`` checks the reader itself against
the ``Generator``, value by value and to the stream position.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdmask import suite
from psdmask.functions import Domain, HerzMonomial, Identity, ScalarMultiple, scaled_identity
from psdmask.linalg import (
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
from psdmask.operators import OperatorSpec, apply, decompose, mask_factorization, star_pattern
from psdmask.patterns import contiguous_partition_rule, normalize
from psdmask.suite import _partition_labels, _random_builtin, _random_pattern, _Stream
from psdmask.verify import VerifyConfig, canonical_json, refute_scalar_outside_interval, sample_psd, verify_preservation
from psdmask.witnesses import WITNESS_PSD_TOL, corner_extend_auto, duplicated_pair_gram, overlap_probe

SEEDS = [0, 1, 2, 3, 7919]


def _rng(cfg, tag):
    """The criterion's stream as numpy's own Generator."""
    return np.random.default_rng([cfg.seed, tag])


def _sample_correlation(rng, n):
    """A random real correlation matrix: Gram of unit-norm rows."""
    B = rng.standard_normal((n, n + 2))
    B /= np.sqrt((B ** 2).sum(axis=1))[:, None]
    C = exact_hermitian(B @ B.T)
    np.fill_diagonal(C, 1.0)
    return C


def _correlation_bound_check(n, samples, tol=1e-8):
    """Check n Id - C is PSD for correlation matrices C, via both proof routes."""
    eye = identity(n)
    for C in samples:
        C = np.asarray(C, dtype=np.complex128)
        lo, _ = eig_extremes(n * eye - C)
        if lo < -tol:
            return False
        _, lam_max = eig_extremes(C)
        trace = float(np.trace(C).real)
        if abs(trace - n) > tol * n or lam_max > trace + tol:
            return False
        D = n * eye - C
        for i in range(n):
            off = float(np.abs(D[i]).sum() - abs(D[i, i]))
            if float(D[i, i].real) - off < -tol:
                return False
    return True


def _reduce_scalar(c):
    if isinstance(c, Fraction):
        return c / (1 + c)
    return float(c) / (1.0 + float(c))


def _induction_step_check(c, k, A, block_sizes, tol=1e-12):
    """The peel-one-block recursion on one positive definite sample."""
    if k < 2:
        raise ValueError("k must be >= 2")
    sizes = [int(s) for s in block_sizes]
    if len(sizes) != k + 1 or any(s < 1 for s in sizes):
        raise ValueError(f"block_sizes must be {k + 1} positive integers")
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    if sum(sizes) != n:
        raise ValueError(f"block sizes sum to {sum(sizes)}, matrix is {n} x {n}")
    lo, _ = eig_extremes(A)
    if lo <= 0:
        raise ValueError("A must be positive definite")
    c_frac = c if isinstance(c, Fraction) else Fraction(float(c))
    if not (Fraction(-1, k) <= c_frac < 0):
        raise ValueError(f"c={c_frac} must lie in [-1/{k}, 0)")
    cf = float(c_frac)
    m = n - sizes[-1]
    blocks, start = [], 0
    for s in sizes[:-1]:
        blocks.append(set(range(start, start + s)))
        start += s
    pattern = normalize(blocks, m)
    dom = Domain.disc(math.inf)
    A1 = exact_hermitian(A[:m, :m])
    img = apply(OperatorSpec(f=scaled_identity(cf), pattern=pattern, domain=dom), A1)
    lhs = (img - cf * cf * A1) / (1.0 - cf * cf)
    c_next = _reduce_scalar(cf)
    rhs = apply(OperatorSpec(f=scaled_identity(c_next), pattern=pattern, domain=dom), A1)
    gap = float(np.abs(lhs - rhs).max())
    entrywise_ok = gap <= tol * max(1.0, float(np.abs(A1).max()))
    next_frac = _reduce_scalar(c_frac)
    return bool(entrywise_ok and Fraction(-1, k - 1) <= next_frac < 0)


def _correlation_draws(cfg):
    rng = _rng(cfg, 109)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        yield _sample_correlation(rng, n)


def _induction_draws(cfg):
    """Criterion 12's cases (c, k, A, block sizes), drawn one at a time."""
    rng = _rng(cfg, 112)
    dom = Domain.disc(1.0)
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        sizes = [int(rng.integers(1, 3)) for _ in range(k + 1)]
        n = sum(sizes)
        A = exact_hermitian(sample_psd(rng, n, dom) + 0.05 * identity(n))
        c = Fraction(-1, k) * Fraction(int(rng.integers(1, 11)), 10)
        yield c, k, A, sizes


def _reference_schur_closure(cfg):
    rng = _rng(cfg, 101)
    dom = Domain.disc(1.0)
    worst = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        A = sample_psd(rng, n, dom)
        B = sample_psd(rng, n, dom)
        worst = min(worst, eig_extremes(schur_product(A, B))[0])
    return {
        "id": 1,
        "name": "schur-product-closure",
        "passed": bool(worst >= -1e-8),
        "measured": {"pairs": 1000, "worst_min_eig": float(worst), "bound": -1e-8},
    }


def _reference_star_all_ones_law(cfg):
    dom = Domain.disc(math.inf)
    xs = (0.1, 0.5, 0.9)
    devs = []
    mismatches = 0
    for n in range(2, 7):
        star = star_pattern(n)
        boundary = Fraction(-1, n - 1)
        grid = [Fraction(6 * j - 120, 100) for j in range(41)] + [boundary]
        J = np.array([x * all_ones(n) for x in xs])
        # one image per (c, x), c-major
        M = np.array([apply(OperatorSpec(f=scaled_identity(float(c)), pattern=star, domain=dom), J)
                      for c in grid]).reshape(-1, n, n)
        eigs = np.linalg.eigvalsh(M)
        law = np.sort([[(1.0 - float(c)) * x] * (n - 1) + [(1.0 + (n - 1) * float(c)) * x]
                       for c in grid for x in xs], axis=1)
        devs += np.abs(eigs - law).max(axis=1).tolist()
        expected = np.repeat([boundary <= c <= 1 for c in grid], len(xs))
        mismatches += int(np.count_nonzero(psd_holds(eigs[:, 0], eigs[:, -1], cfg.tol) != expected))
    max_dev = max([0.0, *devs])
    return {
        "id": 2,
        "name": "star-all-ones-eigenvalue-law",
        "passed": bool(max_dev <= 1e-10 and mismatches == 0),
        "measured": {"max_eigenvalue_deviation": max_dev, "interval_mismatches": mismatches},
    }


def _reference_partition_scalar_interval(cfg):
    dom = Domain.disc(1.0)
    worst = math.inf
    for k in (2, 3, 4):
        rng = _rng(cfg, 1030 + k)
        f = scaled_identity(float(Fraction(-1, k - 1)))
        for _ in range(500):
            n = int(rng.integers(k, 9))
            assign = _partition_labels(rng, n, k)
            pattern = normalize([np.flatnonzero(assign == j) for j in range(k)], n)
            A = sample_psd(rng, n, dom)
            worst = min(worst, eig_extremes(apply(OperatorSpec(f=f, pattern=pattern, domain=dom), A))[0])
    refuted = True
    max_dev = 0.0
    battery_only = VerifyConfig(max_n=8, samples_per_n=0, seed=cfg.seed, tol=cfg.tol)
    for k in (2, 3, 4):
        c_out = Fraction(-1, k - 1) - Fraction(1, 20)
        rule = contiguous_partition_rule(k)
        ce = refute_scalar_outside_interval(rule, k, c_out, dom).counterexample
        refuted = refuted and ce.family == "all_ones"
        max_dev = max(max_dev, abs(ce.min_eig - (1.0 + (k - 1) * float(c_out)) * ce.params["x"]))
        bce = verify_preservation(Identity(), scaled_identity(float(c_out)), rule, dom, battery_only).counterexample
        refuted = refuted and bce.family == "all_ones" and bce.n == k
        max_dev = max(max_dev, abs(bce.min_eig - (1.0 + (k - 1) * float(c_out)) * bce.params["x"]))
    return {
        "id": 3,
        "name": "partition-scalar-interval",
        "passed": bool(worst >= -1e-8 and refuted and max_dev <= 1e-10),
        "measured": {
            "sufficiency_worst_min_eig": float(worst),
            "necessity_refuted": bool(refuted),
            "necessity_eigenvalue_deviation": float(max_dev),
        },
    }


def _reference_chain_determinant(cfg):
    rng = _rng(cfg, 104)
    dom = Domain.disc(1.0)
    pattern = normalize([{0, 1}, {1, 2}], 3)
    max_rel = 0.0
    max_imag = 0.0
    for _ in range(200):
        g = HerzMonomial(0.5 + 1.5 * rng.random(), int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        f = _random_builtin(rng, g)
        r = 0.2 + 0.7 * rng.random()
        z = r * rng.random() * np.exp(2j * math.pi * rng.random())
        B = overlap_probe(r, complex(z), dom)
        img = apply(OperatorSpec(f=f, pattern=pattern, domain=dom, g=g), B.matrix)
        det = complex(np.linalg.det(img))
        law = -(g(r).real) * abs(f(complex(z)) - g(complex(z))) ** 2
        max_rel = max(max_rel, abs(det.real - law) / max(1.0, abs(law)))
        max_imag = max(max_imag, abs(det.imag))
    return {
        "id": 4,
        "name": "chain-determinant-identity",
        "passed": bool(max_rel <= 1e-10 and max_imag <= 1e-10),
        "measured": {"cases": 200, "max_relative_gap": max_rel, "max_imag": max_imag},
    }


def _reference_split_pair_complement(cfg):
    rng = _rng(cfg, 105)
    dom = Domain.disc(1.0)
    pattern = normalize([{0, 1}, {2}], 3)
    max_rel = 0.0
    max_scaled_zero = 0.0
    for _ in range(200):
        g = HerzMonomial(0.5 + 1.5 * rng.random(), int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        w = (0.4 + 0.5 * rng.random()) * np.exp(2j * math.pi * rng.random())
        z = abs(w) * rng.random() * np.exp(2j * math.pi * rng.random())
        c = -1.0 + 2.0 * rng.random()
        for f, want_zero in ((_random_builtin(rng, g), False), (ScalarMultiple(c, g), True)):
            wit = duplicated_pair_gram(complex(w), complex(z), dom)
            img = apply(OperatorSpec(f=f, pattern=pattern, domain=dom, g=g), wit.matrix)
            comp = schur_complement(img, {2})
            det = complex(comp[0, 0] * comp[1, 1] - comp[0, 1] * comp[1, 0])
            aw = abs(w)
            z1 = complex(z) * np.conj(w) / aw
            gw = g(aw).real
            law = -abs(f(aw) * g(z1) - gw * f(z1)) ** 2 / gw ** 2
            max_rel = max(max_rel, abs(det.real - law) / max(1.0, abs(law)))
            if want_zero:
                max_scaled_zero = max(max_scaled_zero, abs(det))
    return {
        "id": 5,
        "name": "split-pair-schur-determinant",
        "passed": bool(max_rel <= 1e-10 and max_scaled_zero <= 1e-10),
        "measured": {
            "cases": 200,
            "max_relative_gap": max_rel,
            "max_abs_det_for_scalar_multiple": max_scaled_zero,
        },
    }


def _reference_decomposition(cfg):
    rng = _rng(cfg, 106)
    dom = Domain.disc(1.0)
    max_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pattern = _random_pattern(rng, n)
        g = _random_builtin(rng, Identity())
        f = _random_builtin(rng, Identity())
        A = sample_psd(rng, n, dom)
        spec = OperatorSpec(f=f, pattern=pattern, domain=dom, g=g)
        out = apply(spec, A)
        p1, p2 = decompose(spec, A)
        gap = float(np.abs(p1 + p2 - out).max()) / max(1.0, float(np.abs(out).max()))
        max_gap = max(max_gap, gap)
    max_tensor_gap = 0.0
    for m in (2, 3, 4):
        for _ in range(10):
            A0 = sample_psd(rng, 2, dom)
            g = _random_builtin(rng, Identity())
            f = _random_builtin(rng, Identity())
            big = kron(np.ones((m, m)), A0)
            lhs = apply(OperatorSpec(f=f, pattern=star_pattern(2 * m), domain=dom, g=g), big)
            f_img, diag_term = decompose(OperatorSpec(f=f, pattern=star_pattern(2), domain=dom, g=g), A0)
            rhs = kron(np.ones((m, m)), f_img) + kron(np.eye(m), diag_term)
            gap = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(lhs).max()))
            max_tensor_gap = max(max_tensor_gap, gap)
    return {
        "id": 6,
        "name": "decomposition-identities",
        "passed": bool(max_gap <= 1e-14 and max_tensor_gap <= 1e-14),
        "measured": {"max_split_gap": max_gap, "max_tensor_gap": max_tensor_gap},
    }


def _reference_mask_factorization(cfg):
    rng = _rng(cfg, 107)
    dom = Domain.disc(1.0)
    max_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pattern = _random_pattern(rng, n)
        c = -1.0 + 2.0 * rng.random()
        A = sample_psd(rng, n, dom)
        spec = OperatorSpec(f=scaled_identity(c), pattern=pattern, domain=dom)
        lhs = mask_factorization(spec, A)
        rhs = apply(spec, A)
        gap = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))
        max_gap = max(max_gap, gap)
    return {
        "id": 7,
        "name": "mask-factorization",
        "passed": bool(max_gap <= 1e-14),
        "measured": {"cases": 200, "max_entrywise_gap": max_gap},
    }


def _reference_corner_extension(cfg):
    rng = _rng(cfg, 108)
    dom = Domain.open_pos(1.0)
    ok = True
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A = sample_psd(rng, n, dom)
        M, _eps = corner_extend_auto(A, dom)
        report = is_psd(M, WITNESS_PSD_TOL)
        worst = min(worst, report.min_eig)
        ok = ok and report.is_psd and bool(dom.contains_array(M).all()) and bool(np.array_equal(M[:n, :n], A))
    return {
        "id": 8,
        "name": "positive-corner-extension",
        "passed": bool(ok),
        "measured": {"cases": 100, "worst_min_eig": float(worst)},
    }


def _reference_correlation_bound(cfg):
    ok = True
    worst = math.inf
    for C in _correlation_draws(cfg):
        n = C.shape[0]
        ok = ok and _correlation_bound_check(n, [C], tol=1e-8)
        worst = min(worst, eig_extremes(n * identity(n) - C)[0])
    return {
        "id": 9,
        "name": "correlation-spectral-bound",
        "passed": bool(ok),
        "measured": {"samples": 200, "worst_min_eig": float(worst)},
    }


def _reference_induction_step(cfg):
    ok = True
    for c, k, A, sizes in _induction_draws(cfg):
        ok = ok and _induction_step_check(c, k, A, sizes)
    ends = [Fraction(-1, 3), Fraction(-1, 4), Fraction(-1, 2)]
    maps_ok = [_reduce_scalar(c) for c in ends] == [Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 1)]
    return {
        "id": 12,
        "name": "induction-step-algebra",
        "passed": bool(ok and maps_ok),
        "measured": {"cases": 100, "endpoint_maps": [[str(c), str(_reduce_scalar(c))] for c in ends]},
    }


PAIRS = {
    1: (_reference_schur_closure, suite._criterion_schur_closure),
    2: (_reference_star_all_ones_law, suite._criterion_star_all_ones_law),
    3: (_reference_partition_scalar_interval, suite._criterion_partition_scalar_interval),
    4: (_reference_chain_determinant, suite._criterion_chain_determinant),
    5: (_reference_split_pair_complement, suite._criterion_split_pair_complement),
    6: (_reference_decomposition, suite._criterion_decomposition),
    7: (_reference_mask_factorization, suite._criterion_mask_factorization),
    8: (_reference_corner_extension, suite._criterion_corner_extension),
    9: (_reference_correlation_bound, suite._criterion_correlation_bound),
    12: (_reference_induction_step, suite._criterion_induction_step),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("crit", sorted(PAIRS))
def test_stacked_criterion_matches_one_matrix_at_a_time(crit, seed):
    reference, stacked = PAIRS[crit]
    cfg = VerifyConfig(seed=seed)
    want = reference(cfg)
    assert want["passed"]
    name, check = suite._CRITERIA[crit - 1]
    assert check is stacked
    assert canonical_json(suite._record(crit, name, *stacked(cfg))) == canonical_json(want)


def _verdict(check, *args):
    """The one-matrix check's verdict; a ValueError from it counts as a failure,
    which the stacked check reports per matrix instead of raising."""
    try:
        return check(*args)
    except ValueError:
        return False


def _by_size(items, size):
    groups = {}
    for item in items:
        groups.setdefault(size(item), []).append(item)
    return groups.values()


def test_correlations_match_one_at_a_time():
    for n in range(2, 9):
        rng, ref = np.random.default_rng([n, 109]), np.random.default_rng([n, 109])
        C = suite._correlations(rng.standard_normal((20, n, n + 2)))
        want = np.array([_sample_correlation(ref, n) for _ in range(20)])
        assert C.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_correlation_verdicts_match(seed):
    samples = list(_correlation_draws(VerifyConfig(seed=seed))) + [1.5 * identity(n) for n in (2, 5, 8)]
    verdicts = []
    for group in _by_size(samples, len):
        got, lows = suite._correlation_bound(np.array(group))
        n = len(group[0])
        want = [_verdict(_correlation_bound_check, n, [C]) for C in group]
        assert got.tolist() == want
        assert lows.tolist() == [eig_extremes(n * identity(n) - C)[0] for C in group]
        verdicts += want
    assert verdicts.count(False) == 3


@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_induction_verdicts_match(seed):
    cases = list(_induction_draws(VerifyConfig(seed=seed)))
    failing = []
    for c, k, A, sizes in cases[:2]:  # one case with k = 2 and one with k = 3
        n = len(A)
        failing += [
            (c, k, A - 2.0 * identity(n), sizes),  # indefinite: min eigenvalue <= tr(A)/n - 2 < 0
            (c, k, np.zeros((n, n), dtype=complex), sizes),  # PSD but singular
            (Fraction(1, 4), k, A, sizes),  # c outside [-1/k, 0)
            (Fraction(-1, k) - Fraction(1, 10), k, A, sizes),
        ]
    verdicts = []
    for group in _by_size(cases + failing, lambda case: len(case[2])):
        cs, _, As, sizes = zip(*group)
        got = suite._induction_step(list(cs), np.array(As), list(sizes))
        want = [_verdict(_induction_step_check, *case) for case in group]
        assert got.tolist() == want
        verdicts += want
    assert verdicts.count(False) == len(failing)


# one draw, as the suite's criteria call it: (method, args), each value read as the suite reads it
_DRAWS = st.one_of(
    st.tuples(st.just("integers"), st.integers(-5, 5), st.integers(1, 2**32)),
    st.tuples(st.just("integers_size"), st.integers(-5, 5), st.integers(1, 9), st.integers(0, 5)),
    st.tuples(st.just("random")),
    st.tuples(st.just("permutation"), st.integers(1, 8)),
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just("choice"), st.just(n), st.integers(1, n))),
    st.tuples(st.just("standard_normal"), st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)),
)


def _drawn(rng, draw):
    """One draw's value as the suite reads it: integers through ``int``, a float as it
    comes, a normal fill as its array's type, shape and bytes."""
    name, *args = draw
    if name == "integers":
        lo, span = args
        return int(rng.integers(lo, lo + span))
    if name == "integers_size":
        lo, span, size = args
        return [int(v) for v in rng.integers(lo, lo + span, size=size)]
    if name == "random":
        value = rng.random()
        return type(value), value
    if name == "permutation":
        return [int(v) for v in rng.permutation(*args)]
    if name == "choice":
        n, size = args
        return [int(v) for v in rng.choice(n, size=size, replace=False)]
    value = rng.standard_normal(*args)
    return type(value), value.dtype, value.shape, value.tobytes()


def _same_position(stream, gen):
    """Both read the same half next (a kept one, or the low half of the same next word), then the same word."""
    assert stream.integers(0, 2**32) == int(gen.integers(0, 2**32))
    assert stream._raw() == gen.bit_generator.random_raw()


class TestStream:
    """``suite._Stream`` against numpy's ``Generator`` on the same seed."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(_DRAWS, max_size=30))
    def test_matches_the_generator_draw_by_draw(self, seed, draws):
        stream, gen = _Stream([seed, 7]), np.random.default_rng([seed, 7])
        for draw in draws:
            assert _drawn(stream, draw) == _drawn(gen, draw), draw
        _same_position(stream, gen)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_range_of_one_reads_nothing(self, seed):
        stream, gen = _Stream([seed]), np.random.default_rng([seed])
        assert stream.integers(3, 4) == 3
        stream.integers(0, 10)  # keeps a high half
        assert stream.integers(-2, -1) == -2
        assert stream.integers(0, 1, size=3) == [0, 0, 0]
        gen.integers(0, 10)
        _same_position(stream, gen)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_choice_of_every_element(self, seed, n):
        stream, gen = _Stream([seed]), np.random.default_rng([seed])
        for size in (n, 2) if n >= 2 else (n,):
            assert stream.choice(n, size=size, replace=False) == gen.choice(n, size=size, replace=False).tolist()
        assert stream.choice(2, size=2, replace=False) == gen.choice(2, size=2, replace=False).tolist()
        _same_position(stream, gen)

    def test_lemires_rejection_runs_near_two_to_the_32(self):
        stream, gen = _Stream([0]), np.random.default_rng([0])
        words = []
        raw = stream._raw
        stream._raw = lambda: words.append(None) or raw()
        got = [stream.integers(0, 3 * 2**30) for _ in range(400)]
        assert got == gen.integers(0, 3 * 2**30, size=400).tolist()
        assert len(words) > 200 + 20  # 400 halves fill 200 words; a quarter of tries is rejected
        _same_position(stream, gen)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_normal_fill_leaves_the_kept_half(self, seed):
        stream, gen = _Stream([seed]), np.random.default_rng([seed])
        draws = [("integers", 0, 1000), ("standard_normal", (2, 3)), ("integers", 0, 1000), ("random",)]
        assert [_drawn(stream, d) for d in draws] == [_drawn(gen, d) for d in draws]
        _same_position(stream, gen)
