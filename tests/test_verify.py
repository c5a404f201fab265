import cmath
import dataclasses
import hashlib
import itertools
import json
import math
import traceback
from collections import Counter
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from psdmask import verify
from psdmask.errors import (
    CNotOutsideError,
    EigFailure,
    EpsTooLargeError,
    FlagMismatchError,
    NonFiniteEntryError,
    NonHermitianOutputError,
    OutOfDomainError,
    RegimeMismatchError,
    ZeroVectorError,
)
from psdmask.functions import (
    Custom,
    Domain,
    HerzMonomial,
    HerzSeries,
    Identity,
    ScalarMultiple,
    Zero,
    conjugate_equivariance_check,
    scaled_identity,
)
from psdmask.linalg import (
    EIG_DIM_CAP,
    _cleared,
    all_ones,
    eig_extremes,
    exact_hermitian,
    identity,
    is_psd,
    psd_holds,
)
from psdmask.operators import OperatorSpec, _settle_hermitian, apply
from psdmask.patterns import (
    R1_EMPTY,
    R2_SINGLETONS,
    R3A_PARTITION_ALL,
    R3B_SUBPARTITION_OTHER,
    R4_OVERLAPPING,
    PatternRule,
    RuleFlags,
    all_singletons_rule,
    classify_sequence,
    contiguous_partition_rule,
    empty_rule,
    explicit_rule,
    normalize,
    overlapping_chain_rule,
    proper_subpartition_rule,
    single_block_rule,
)
from psdmask.verify import (
    OUTCOME_PRESERVED,
    _battery_sections,
    _first_failure,
    _stack_rows,
    VerifyConfig,
    canonical_json,
    refute_scalar_outside_interval,
    sample_psd,
    verify_preservation,
)
from psdmask.suite import _correlation_bound, _correlations, _induction_step, _reduce_scalar
from psdmask.witnesses import duplicated_pair_gram, overlap_probe

DISC1 = Domain.disc(1.0)
FAST = VerifyConfig(max_n=6, samples_per_n=40)
BATTERY_ONLY = VerifyConfig(max_n=6, samples_per_n=0)


class TestSampling:
    def test_sample_psd_in_domain(self, rng):
        stacks = np.random.default_rng(8)
        for dom in (Domain.disc(1.0), Domain.open_sym(2.0),
                    Domain.half_open_nonneg(1.0), Domain.open_pos(1.0), Domain.disc()):
            for _ in range(10):
                n = int(rng.integers(1, 7))
                M = sample_psd(rng, n, dom)
                assert dom.contains_array(M).all()
                assert is_psd(M, 1e-10).is_psd
            # stacks of drawn and given ranks, formed as the suite forms its samples
            for n in range(1, 9):
                A = verify._into_domain(verify._grams([verify._draw(stacks, n, dom, rank)
                                                       for rank in (None, 1, n, None, None)], dom), dom)
                assert dom.contains_array(A).all()
                assert all(is_psd(M, 1e-10).is_psd for M in A)

    @pytest.mark.parametrize("kind", ["open_sym", "disc"])
    def test_a_small_peak_at_a_large_radius_scales_to_a_finite_stack(self, kind):
        # the factor 0.95 rho / peak, 9.5e309 here, overflows; dividing by the peak first, then scaling, does not
        dom = Domain(kind, 1e300)
        G = np.array([[[1e-10, 5e-11], [5e-11, 1e-10]]], dtype=complex if kind == "disc" else float)
        M = verify._into_domain(G, dom)
        assert np.isfinite(M).all() and np.array_equal(M, np.conj(np.swapaxes(M, -1, -2)))
        assert dom.contains_array(M).all()
        assert np.array_equal(M[0], 0.95e300 * (G[0] / 1e-10))

    @pytest.mark.parametrize("rho", [1e300, 1e308])
    @pytest.mark.parametrize("kind", ["disc", "open_sym", "half_open_nonneg", "open_pos"])
    def test_samples_at_a_large_radius_are_finite_and_inside(self, kind, rho):
        # at 1e308 every peak below 0.95 overflowed the old factor: a 1 x 1 sample came out inf
        dom = Domain(kind, rho)
        for seed in range(40):
            M = sample_psd(np.random.default_rng(seed), 1 + seed % 4, dom)
            assert np.isfinite(M).all() and np.array_equal(M, M.conj().T)
            assert dom.contains_array(M).all()

    def test_rank_control(self, rng):
        M = sample_psd(rng, 5, DISC1, rank=1)
        assert np.linalg.matrix_rank(M, tol=1e-10) == 1

    def test_correlation_sampler(self, rng):
        for C in _correlations(rng.standard_normal((10, 5, 7))):
            assert np.all(C.diagonal().real == 1.0)
            assert is_psd(C, 1e-9).is_psd

    def test_streams_are_seeded(self):
        a = sample_psd(np.random.default_rng(7), 4, DISC1)
        b = sample_psd(np.random.default_rng(7), 4, DISC1)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, rank, what", [(4, 0, "rank"), (4, -1, "rank"), (4, True, "rank"),
                                               (4, 2.0, "rank"), (0, None, "n"), (True, None, "n"),
                                               (3.0, 1, "n")])
    def test_bad_size_or_rank_is_a_value_error(self, n, rank, what):
        with pytest.raises(ValueError, match=f"^{what} must be an integer >= 1"):
            sample_psd(np.random.default_rng(0), n, DISC1, rank)

    def test_drawn_rank_and_rank_above_n_still_sample(self, rng):
        assert sample_psd(rng, 3, DISC1, None).shape == (3, 3)
        M = sample_psd(rng, 3, Domain.open_sym(1.0), rank=5)
        assert M.shape == (3, 3) and is_psd(M, 1e-10).is_psd
        assert sample_psd(rng, np.int64(2), DISC1, np.int64(1)).shape == (2, 2)


class TestVerifyPreservation:
    def test_series_preserved_on_empty_rule(self):
        f = HerzSeries({(0, 0): 0.4, (1, 0): 0.5, (1, 1): 0.3}, max_degree=6)
        verdict = verify_preservation(f, f, empty_rule(), DISC1, FAST)
        assert verdict.outcome == OUTCOME_PRESERVED
        assert verdict.counterexample is None

    def test_negative_scalar_refuted_on_singletons(self):
        verdict = verify_preservation(
            Identity(), scaled_identity(-0.6), all_singletons_rule(), DISC1, BATTERY_ONLY
        )
        ce = verdict.counterexample
        assert verdict.refuted and ce.family == "all_ones" and ce.n == 3
        # smallest eigenvalue is (1 + 2c) x at the first refuting grid point
        assert ce.min_eig == pytest.approx(-0.2 * ce.params["x"], abs=1e-10)

    def test_custom_bump_refuted_under_chain(self):
        bump = Custom(lambda z: 0.5 * z + 0.1 * z * z, name="bump")
        verdict = verify_preservation(Identity(), bump, overlapping_chain_rule(), DISC1, BATTERY_ONLY)
        assert verdict.refuted
        assert verdict.counterexample.family != "random_gram"

    def test_identity_preserved_everywhere(self):
        for rule in (all_singletons_rule(), contiguous_partition_rule(2),
                     proper_subpartition_rule(2), overlapping_chain_rule()):
            verdict = verify_preservation(Identity(), Identity(), rule, DISC1, FAST)
            assert verdict.outcome == OUTCOME_PRESERVED

    def test_non_equivariant_function_fails_fast(self):
        """As g or as f: a Custom, a ScalarMultiple of one and a subclass of a built-in are all checked."""
        fold = Custom(lambda z: complex(z.real, abs(z.imag)), name="fold")
        for fn in (fold, ScalarMultiple(0.5, fold), _FoldedIdentity()):
            for tag, (g, f) in (("g", (fn, Identity())), ("f", (Identity(), fn))):
                with pytest.raises(NonHermitianOutputError, match=f"^{tag} fails conjugate equivariance"):
                    verify_preservation(g, f, empty_rule(), DISC1, FAST)

    def test_no_check_runs_for_exact_builtins(self, monkeypatch):
        checked = []

        def spy(fn, samples, tol=1e-10):
            checked.append(fn)
            return conjugate_equivariance_check(fn, samples, tol)

        monkeypatch.setattr(verify, "conjugate_equivariance_check", spy)
        nested = ScalarMultiple(-0.5, ScalarMultiple(2.0, HerzSeries({(0, 0): 0.2, (2, 1): 0.1})))
        for g, f in ((Identity(), scaled_identity(0.5)), (HerzMonomial(1.0, 2, 1), nested), (Zero(), Zero())):
            verify_preservation(g, f, all_singletons_rule(), DISC1, BATTERY_ONLY)
        assert checked == []
        custom = Custom(lambda z: z, name="identity")
        verdict = verify_preservation(Identity(), custom, all_singletons_rule(), DISC1, BATTERY_ONLY)
        assert verdict.outcome == OUTCOME_PRESERVED and checked == [custom]

    def test_verdict_deterministic(self):
        f = scaled_identity(-0.75)
        a = verify_preservation(Identity(), f, contiguous_partition_rule(3), DISC1, FAST)
        b = verify_preservation(Identity(), f, contiguous_partition_rule(3), DISC1, FAST)
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())

    def test_refutation_is_sound(self):
        verdict = verify_preservation(
            Identity(), scaled_identity(-0.75), contiguous_partition_rule(3), DISC1, FAST
        )
        ce = verdict.counterexample
        assert is_psd(ce.matrix, 1e-10).is_psd
        assert DISC1.contains_array(ce.matrix).all()
        rule = contiguous_partition_rule(3)
        image = apply(
            OperatorSpec(f=scaled_identity(-0.75), pattern=rule.pattern(ce.n), domain=DISC1),
            ce.matrix,
        )
        report = is_psd(image, FAST.tol)
        assert not report.is_psd
        assert report.min_eig == pytest.approx(ce.min_eig, abs=1e-12)

    def test_stats_count_battery_families(self):
        verdict = verify_preservation(
            Identity(), Identity(), overlapping_chain_rule(), DISC1, BATTERY_ONLY
        )
        fams = verdict.stats["families"]
        for family in ("all_ones", "duplicated_pair_gram", "tail_gram", "overlap_probe",
                       "tensor_blowup"):
            assert family in fams

    def test_real_domain_round(self):
        verdict = verify_preservation(
            Identity(), scaled_identity(0.5), contiguous_partition_rule(2),
            Domain.open_sym(1.0), FAST,
        )
        assert verdict.outcome == OUTCOME_PRESERVED

    def test_positive_domain_battery_runs(self):
        dom = Domain.open_pos(1.0)
        verdict = verify_preservation(
            Identity(), scaled_identity(-0.2), proper_subpartition_rule(2), dom, BATTERY_ONLY
        )
        # a negative scalar hits the free diagonal entry f(x) < 0 immediately
        assert verdict.refuted and verdict.counterexample.family == "all_ones"

    def test_scaled_monomial_pair_preserved(self):
        # f = c g for a monomial g stays admissible down to the interval floor
        from psdmask.functions import HerzMonomial

        g = HerzMonomial(1.2, 1, 1)
        f = ScalarMultiple(-0.5, g)
        verdict = verify_preservation(g, f, contiguous_partition_rule(3), DISC1, FAST)
        assert verdict.outcome == OUTCOME_PRESERVED

    def test_half_open_domain_dominance_refuted(self):
        shifted = HerzSeries({(0, 0): 0.1, (1, 0): 1.0})
        verdict = verify_preservation(
            Identity(), shifted, all_singletons_rule(), Domain.half_open_nonneg(1.0),
            BATTERY_ONLY,
        )
        assert verdict.refuted


class TestPerturbedFamilies:
    """Admissible members pass; members nudged outside are caught by the battery alone."""

    def test_in_family_members_pass_each_regime(self):
        cases = [
            (empty_rule(), HerzSeries({(0, 0): 0.2, (1, 0): 0.5, (2, 1): 0.1})),
            (all_singletons_rule(), scaled_identity(0.5)),
            (single_block_rule({0, 1}), scaled_identity(0.3)),
            (contiguous_partition_rule(2), scaled_identity(-1.0)),
            (proper_subpartition_rule(2), scaled_identity(1.0)),
            (overlapping_chain_rule(), Identity()),
        ]
        for rule, f in cases:
            verdict = verify_preservation(Identity(), f, rule, DISC1, FAST)
            assert verdict.outcome == OUTCOME_PRESERVED, (rule.name, verdict.counterexample)

    def test_partition_boundary_passes_and_outside_fails(self):
        rule = contiguous_partition_rule(3)
        at_boundary = scaled_identity(float(Fraction(-1, 2)))
        assert verify_preservation(Identity(), at_boundary, rule, DISC1, FAST).outcome \
            == OUTCOME_PRESERVED
        nudged = scaled_identity(float(Fraction(-1, 2)) - 0.05)
        verdict = verify_preservation(Identity(), nudged, rule, DISC1, BATTERY_ONLY)
        assert verdict.refuted

    def test_dominance_violation_caught(self):
        shifted = HerzSeries({(0, 0): 0.1, (1, 0): 1.0})  # f(x) = x + 0.1
        verdict = verify_preservation(
            Identity(), shifted, all_singletons_rule(), DISC1, BATTERY_ONLY
        )
        assert verdict.refuted and verdict.counterexample.family == "all_ones"

    def test_scalar_under_overlap_caught(self):
        verdict = verify_preservation(
            Identity(), scaled_identity(0.5), overlapping_chain_rule(), DISC1, BATTERY_ONLY
        )
        assert verdict.refuted

    def test_proper_subpartition_negative_scalar_caught(self):
        verdict = verify_preservation(
            Identity(), scaled_identity(-0.05), proper_subpartition_rule(2), DISC1, BATTERY_ONLY
        )
        assert verdict.refuted


class TestSmallMaxN:
    """max_n < 3 is a ValueError exactly in the regimes whose rules have a
    block of size >= 2 (R3a, R3b, R4): the battery's 3 x 3 witnesses need room."""

    # big block declared only beyond the default probe depth of 12
    LATE_BLOCK = explicit_rule(
        {1: normalize([], 1), 20: normalize([{0, 1}], 20)},
        RuleFlags(eventually_nonempty=True, all_singletons=False, covers_all_n=False,
                  max_block_count=1, has_block_ge2_at=20),
        name="late_block",
    )
    CASES = [
        (empty_rule(), R1_EMPTY),
        (all_singletons_rule(), R2_SINGLETONS),
        (single_block_rule({0, 1}), R3B_SUBPARTITION_OTHER),
        (contiguous_partition_rule(3), R3A_PARTITION_ALL),
        (proper_subpartition_rule(2), R3B_SUBPARTITION_OTHER),
        (overlapping_chain_rule(), R4_OVERLAPPING),
        (LATE_BLOCK, R3B_SUBPARTITION_OTHER),
    ]

    @pytest.mark.parametrize("rule, regime", CASES, ids=lambda c: getattr(c, "name", None))
    @pytest.mark.parametrize("max_n", [1, 2])
    def test_raises_exactly_for_big_block_regimes(self, rule, regime, max_n):
        assert classify_sequence(rule) == regime
        cfg = VerifyConfig(max_n=max_n, samples_per_n=4)
        if regime in (R3A_PARTITION_ALL, R3B_SUBPARTITION_OTHER, R4_OVERLAPPING):
            with pytest.raises(ValueError, match="max_n"):
                verify_preservation(Identity(), Identity(), rule, DISC1, cfg)
        else:
            verdict = verify_preservation(Identity(), Identity(), rule, DISC1, cfg)
            assert verdict.outcome == OUTCOME_PRESERVED
            assert verdict.stats["truncated_at_n"] == max_n

    @pytest.mark.parametrize("rule, regime", CASES, ids=lambda c: getattr(c, "name", None))
    def test_max_n_3_runs_every_regime(self, rule, regime):
        verdict = verify_preservation(Identity(), Identity(), rule, DISC1, VerifyConfig(max_n=3, samples_per_n=4))
        assert verdict.outcome == OUTCOME_PRESERVED


class _FoldedIdentity(Identity):
    """An Identity whose own evaluate_array folds the imaginary part up, so not conjugate-equivariant."""

    def evaluate_array(self, Z):
        Z = np.asarray(Z, dtype=np.complex128)
        return Z.real + 1j * np.abs(Z.imag)


def _folded_unless_marked(z):
    """-0.6 z with its imaginary part folded up, so not conjugate-equivariant; raises at the marked 0.25."""
    if z == 0.25:
        raise ValueError(f"marked entry {z}")
    return -0.6 * complex(z.real, abs(z.imag))


class TestStackOrder:
    """In a stack the first failure wins; an error raised by a later matrix does not."""

    G, F = Identity(), Custom(_folded_unless_marked, name="folded scalar")
    PATTERN = all_singletons_rule().pattern(3)
    SPEC = OperatorSpec(f=F, pattern=PATTERN, domain=DISC1)
    OK = 0.5 * identity(3)
    REFUTES = 0.5 * all_ones(3)  # image: 0.5 on the diagonal, -0.3 off it; eigenvalue -0.1
    NON_HERMITIAN = exact_hermitian(0.2 * identity(3) + 0.1j * (all_ones(3) - identity(3)))
    MARKED = 0.25 * identity(3)

    def first_failure(self, stack):
        return _first_failure(self.G, self.F, self.PATTERN.mask, stack, 1e-8)

    def test_all_pass(self):
        assert self.first_failure(np.array([self.OK, self.OK])) is None

    def test_first_refutation_wins(self):
        j, min_eig = self.first_failure(np.array([self.OK, self.REFUTES, self.REFUTES]))
        assert j == 1 and min_eig == is_psd(apply(self.SPEC, self.REFUTES)).min_eig

    @pytest.mark.parametrize("bad", ["NON_HERMITIAN", "MARKED"])
    def test_error_after_refutation_is_not_raised(self, bad):
        assert self.first_failure(np.array([self.OK, self.REFUTES, getattr(self, bad)]))[0] == 1

    @pytest.mark.parametrize("bad, error", [("NON_HERMITIAN", NonHermitianOutputError),
                                            ("MARKED", ValueError)])
    def test_error_before_refutation_is_raised_as_alone(self, bad, error):
        with pytest.raises(error) as alone:
            apply(self.SPEC, getattr(self, bad))
        with pytest.raises(error) as stacked:
            self.first_failure(np.array([self.OK, getattr(self, bad), self.REFUTES]))
        assert str(stacked.value) == str(alone.value)


ANCHORED = {"duplicated_pair_gram", "tail_gram", "overlap_probe"}


def battery(domain, rule, max_n=8):
    patterns = {n: rule.pattern(n) for n in range(1, max_n + 1)}
    return itertools.chain.from_iterable(_battery_sections(domain, patterns, max_n))


def flat(stacks):
    """(n, family, params, matrix bytes) per matrix of a stack stream."""
    return [(n, family, params, W.tobytes()) for stack, n, families, ps in stacks
            for W, family, params in zip(stack, families, map(ps, range(len(stack))))]


def consume(stacks, out):
    """Append the stream's stacks to out; an error it raises propagates."""
    for item in stacks:
        out.append(item)


BUILTINS = [empty_rule(), all_singletons_rule(), single_block_rule({0, 4}), contiguous_partition_rule(3),
            proper_subpartition_rule(3), overlapping_chain_rule()]


class TestStacksInDomain:
    """verify fires its stacks through the operator kernel unchecked: every stack both
    batteries yield lies inside the domain and is n x n, the size of T_n's mask."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["disc", "open_sym", "half_open_nonneg", "open_pos"]),
           rho=st.sampled_from([1e-300, 0.3, 1.0, 1e300, math.inf]), rule=st.sampled_from(BUILTINS),
           max_n=st.integers(1, 8), samples=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_every_stack_lies_inside_the_domain(self, kind, rho, rule, max_n, samples, seed):
        domain = Domain(kind, rho)
        patterns = {n: rule.pattern(n) for n in range(1, max_n + 1)}
        cfg = VerifyConfig(max_n=max_n, samples_per_n=samples, seed=seed)
        for stage in (*_battery_sections(domain, patterns, max_n), verify._random_battery(domain, cfg)):
            try:
                for W, n, _, _ in stage:
                    assert W.shape[1:] == patterns[n].mask.shape == (n, n)
                    assert domain.contains_array(W).all()
            except (NonFiniteEntryError, OutOfDomainError):  # a witness that cannot be built, raised as verify raises it
                continue


class TestBatteryStacks:
    """The deterministic battery yields stacks in the random battery's format."""

    def test_stack_format(self):
        previous = None
        for stack, n, families, params in battery(Domain.open_pos(1.0), overlapping_chain_rule()):
            params = [params(j) for j in range(len(stack))]
            assert stack.dtype == np.complex128 and stack.shape == (len(params), n, n)
            assert len(families) == len(params) >= 1 and all(isinstance(f, str) for f in families)
            previous = families[-1]
        assert previous == "tensor_blowup"

    @pytest.mark.parametrize("domain", [Domain.open_pos(1.0), DISC1], ids=["open_pos", "disc"])
    def test_anchored_stacks_grow_within_each_n(self, domain):
        sizes = {}
        for stack, n, families, _ in battery(domain, overlapping_chain_rule()):
            if families[0] in ANCHORED:
                assert set(families) <= ANCHORED
                sizes.setdefault(n, []).append(len(stack))
        assert sorted(sizes) == list(range(3, 9))
        for n, ks in sizes.items():  # all but an n's last stack reach 8, 16, ... _stack_rows(n); none passes it
            assert all(k >= min(8 * 2 ** i, _stack_rows(n)) for i, k in enumerate(ks[:-1]))
            assert max(ks) <= _stack_rows(n)

    def test_zero_padding_placement(self):
        seen = 0
        for stack, n, families, params in battery(DISC1, overlapping_chain_rule(), max_n=6):
            for M, family, p in zip(stack, families, map(params, range(len(stack)))):
                if family != "overlap_probe":
                    continue
                W = overlap_probe(p["r"], p["z"], DISC1).matrix
                coords = list(p["coords"])
                rest = [q for q in range(n) if q not in coords]
                assert np.array_equal(M[np.ix_(coords, coords)], W)
                assert not M[rest].any() and not M[:, rest].any()
                assert eig_extremes(M)[0] >= -1e-12
                seen += 1
        assert seen > 0

    def test_positive_domain_growth(self):
        dom = Domain.open_pos(1.0)
        seen = 0
        for stack, n, families, params in battery(dom, proper_subpartition_rule(2), max_n=6):
            for M, family, p in zip(stack, families, map(params, range(len(stack)))):
                if family != "duplicated_pair_gram":
                    continue
                W = duplicated_pair_gram(p["w"], p["z"], dom).matrix
                coords = list(p["coords"])
                assert np.array_equal(M[np.ix_(coords, coords)], W)
                assert dom.contains_array(M).all()
                assert is_psd(M, 1e-10).is_psd
                seen += 1
        assert seen > 0

    def test_each_base_witness_built_once(self, monkeypatch, cold_cache):
        calls = []
        for name in ("duplicated_pair_gram", "tail_gram", "overlap_probe"):
            real = getattr(verify, name)

            def counting(*args, _real=real, _name=name):
                calls.append((_name, args[:2]))
                return _real(*args)

            monkeypatch.setattr(verify, name, counting)
        for _, _, families, _ in battery(Domain.open_pos(1.0), overlapping_chain_rule()):
            if families[0] == "tensor_blowup":
                break
        # the anchored section once, then the blowup section's seed, a pair gram of its own
        assert len(calls[:-1]) == len(set(calls[:-1])) == 6 + 9 + 6
        assert calls[-1] == ("duplicated_pair_gram", (0.6, 0.3))

    def test_all_ones_refutation_builds_no_pair_witness(self, monkeypatch, cold_cache):
        for name in ("duplicated_pair_gram", "tail_gram", "overlap_probe", "corner_extend_auto"):
            monkeypatch.setattr(verify, name, lambda *args: pytest.fail("built past the refutation"))
        v = verify_preservation(Identity(), scaled_identity(-0.75), contiguous_partition_rule(3),
                                Domain.open_pos(1.0), BATTERY_ONLY)
        assert v.refuted and v.counterexample.family == "all_ones"

    def test_build_error_follows_the_run_prefix(self, monkeypatch, cold_cache):
        dom = Domain.open_pos(1.0)
        reference = flat(battery(dom, single_block_rule({0, 1})))
        real = verify.tail_gram
        t_bad = [params["t"] for _, family, params, _ in reference if family == "tail_gram"][4]

        def failing(w, t, domain):
            if t == t_bad:
                raise ZeroVectorError("refused")
            return real(w, t, domain)

        monkeypatch.setattr(verify, "tail_gram", failing)
        got = []
        with pytest.raises(ZeroVectorError, match="refused"):
            consume(battery(dom, single_block_rule({0, 1})), got)
        stop = next(i for i, (_, family, params, _) in enumerate(reference)
                    if family == "tail_gram" and params["t"] == t_bad)
        assert flat(got) == reference[:stop]
        assert got[-1][2][-1] == "tail_gram"  # the prefix of the failing run ends the last stack

    def test_growth_error_surfaces_at_the_size_it_fails(self, monkeypatch, cold_cache):
        dom = Domain.open_pos(1.0)
        reference = flat(battery(dom, single_block_rule({0, 1})))
        real = verify.corner_extend_auto

        def failing(A, domain):
            if A.shape[0] == 6:
                raise EpsTooLargeError("no room")
            return real(A, domain)

        monkeypatch.setattr(verify, "corner_extend_auto", failing)
        got = []
        with pytest.raises(EpsTooLargeError, match="no room"):
            consume(battery(dom, single_block_rule({0, 1})), got)
        stop = next(i for i, (n, family, _, _) in enumerate(reference)
                    if n == 7 and family == "duplicated_pair_gram")
        assert flat(got) == reference[:stop]


@pytest.fixture
def fresh_cache():
    verify._section.cache_clear()
    yield
    verify._section.cache_clear()


@pytest.mark.usefixtures("fresh_cache")
class TestBatteryCache:
    """Each battery section is grown once per (domain, max_n) and process; a warm call is a cold one's twin."""

    DOMAINS = [Domain.open_pos(0.3), Domain.open_pos(1.0), DISC1, Domain.disc()]
    CASES = [  # preserved, refuted by a pair witness (or all ones on disc(inf)), and either
        (Identity(), scaled_identity(0.4), contiguous_partition_rule(3)),
        (Identity(), HerzSeries({(2, 0): 1.0}), single_block_rule({0, 1})),
        (Identity(), HerzSeries({(0, 1): 1.0}), proper_subpartition_rule(2)),
    ]

    @staticmethod
    def verdict(case, domain, max_n):
        g, f, rule = case
        return canonical_json(verify_preservation(g, f, rule, domain,
                                                  VerifyConfig(max_n=max_n, samples_per_n=3)).to_json())

    def test_warm_verdicts_match_cold(self):
        calls = [(case, dom, max_n) for case in self.CASES for max_n in (3, 6, 8) for dom in self.DOMAINS]
        cold = []
        for call in calls:
            verify._section.cache_clear()
            cold.append(self.verdict(*call))
        verify._section.cache_clear()
        # consecutive calls switch (domain, max_n); the second round is all warm
        assert [self.verdict(*call) for call in calls] == cold
        built = verify._section.cache_info().misses
        assert [self.verdict(*call) for call in calls] == cold
        info = verify._section.cache_info()
        # each call asks once for each section it reaches, at most three per (domain, max_n)
        assert info.misses == info.currsize == built <= 3 * len(self.DOMAINS) * 3

    @pytest.mark.parametrize("domain", [Domain.open_pos(1.0), DISC1], ids=["open_pos", "disc"])
    def test_warm_call_builds_no_witness(self, monkeypatch, domain):
        case = (Identity(), Identity(), overlapping_chain_rule())  # preserved: the whole battery runs
        self.verdict(case, domain, 8)
        for name in ("all_ones_witness", "duplicated_pair_gram", "tail_gram", "overlap_probe",
                     "tensor_blowup", "pad_embed", "corner_extend_auto"):
            monkeypatch.setattr(verify, name, lambda *args: pytest.fail("a warm call built a witness"))
        for case in [case, *self.CASES]:
            verify_preservation(*case, domain, VerifyConfig(max_n=8, samples_per_n=0))

    def test_cached_arrays_are_read_only(self):
        for _ in battery(Domain.open_pos(1.0), overlapping_chain_rule()):
            pass
        assert verify._section.cache_info().currsize == 3
        for name in ("all_ones", "anchored", "blowups"):
            A = verify._section(Domain.open_pos(1.0), 8, name).L
            assert len(A) and not A.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                A[0, 0, 0] = 1.0

    def test_cached_build_error_is_raised_with_a_fresh_traceback(self, monkeypatch):
        dom = Domain.open_pos(1.0)
        real = verify.tail_gram
        built = []

        def failing(w, t, domain):
            built.append(t)
            if t == 0.95:
                raise ZeroVectorError("refused")
            return real(w, t, domain)

        monkeypatch.setattr(verify, "tail_gram", failing)
        seen = []
        for _ in range(3):
            with pytest.raises(ZeroVectorError) as info:
                for _ in battery(dom, single_block_rule({0, 1})):
                    pass
            seen.append((info.value, str(info.value), len(traceback.extract_tb(info.value.__traceback__))))
        # built once per tail run (t_top is each w's last t), with its section; the later calls
        # replay the kept plan, which raises the kept error with a traceback of its own
        assert built.count(0.95) == 3
        assert all(exc is seen[0][0] for exc, _, _ in seen)
        assert {(msg, depth) for _, msg, depth in seen} == {("refused", seen[0][2])}


@pytest.mark.usefixtures("fresh_cache")
class TestBatteryPlans:
    """Each section keeps a plan per (n, anchors) it fires: built once, then replayed stack by stack."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """The (first family, n, key) of every plan built by a section grown after this call;
        fresh_cache drops every section before and after the test, so none outlives the count."""
        built = []
        real = verify._plan_of

        def counting(families, reach, errors, runs, n, key):
            built.append((families[0], n, key))
            return real(families, reach, errors, runs, n, key)

        monkeypatch.setattr(verify, "_plan_of", counting)
        return built

    def test_no_plan_outlives_its_section(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        rule = overlapping_chain_rule()
        cold = flat(battery(DISC1, rule))
        first = list(built)
        assert first and len(set(first)) == len(first)  # each (n, key) built once per section
        assert flat(battery(DISC1, rule)) == cold and built == first  # every plan replayed
        verify._section.cache_clear()
        assert flat(battery(DISC1, rule)) == cold and built == first + first

    def test_equal_patterns_share_one_plan_build(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        a, b = proper_subpartition_rule(3), proper_subpartition_rule(3)
        assert a.pattern(6) is not b.pattern(6) and a.pattern(6).anchors == b.pattern(6).anchors
        cold = flat(battery(DISC1, a))
        count = len(built)
        assert count > 0 and flat(battery(DISC1, b)) == cold and len(built) == count

    def test_a_section_keeps_its_latest_anchor_sets(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        section = verify._section(DISC1, 5, "anchored")
        pairs = itertools.combinations(range(5), 2)
        anchor_sets = list(dict.fromkeys(normalize(blocks, 5).anchors for blocks in itertools.combinations(pairs, 2)))
        assert len(anchor_sets) > verify.BATTERY_CACHE_SIZE

        def fire(*keys):
            for anchors in keys:
                for _ in verify._stacks(section, 5, anchors, {}):
                    pass
            return [key for _, _, key in built]

        kept = anchor_sets[-verify.BATTERY_CACHE_SIZE:]
        assert fire(*anchor_sets) == anchor_sets
        assert fire(*kept) == anchor_sets  # the latest sets are all kept
        assert fire(anchor_sets[0]) == anchor_sets + anchor_sets[:1]  # the oldest was dropped
        # it took the place of the least recently used set, kept[0]
        assert fire(*kept[1:], kept[0]) == anchor_sets + anchor_sets[:1] + kept[:1]

    def test_a_refuting_stack_fires_no_later_stack(self, monkeypatch):
        drawn = []
        real = verify._stacks

        def recording(*args):
            for record in real(*args):
                drawn.append(record)
                yield record

        monkeypatch.setattr(verify, "_stacks", recording)
        rule = overlapping_chain_rule()
        v = verify_preservation(Identity(), HerzSeries({(0, 1): 1.0}), rule, DISC1, BATTERY_ONLY)
        W, n, families, params = drawn[-1]
        j = v.stats["checked"] - sum(len(record[0]) for record in drawn[:-1]) - 1
        assert v.refuted and v.counterexample.n == n and params(j) == v.counterexample.params
        assert np.array_equal(W[j], v.counterexample.matrix)
        plan = verify._section(DISC1, BATTERY_ONLY.max_n, "anchored").plans[n](rule.pattern(n).anchors)
        fired = [record for record in drawn if record[1] == n and record[2][0] in ANCHORED]
        assert families[0] in ANCHORED and len(fired) < len(plan.families)  # no later stack of its plan was gathered


@pytest.mark.usefixtures("fresh_cache")
class TestSectionRuns:
    """Each section records its runs' (size, rows) once; the battery reads every order off them."""

    @pytest.mark.parametrize("rho", [1.0, math.inf])
    @pytest.mark.parametrize("kind", ["disc", "open_sym", "half_open_nonneg", "open_pos"])
    def test_runs_are_the_layout_worked_out_from_the_rows(self, kind, rho):
        domain = Domain(kind, rho)
        for max_n in range(1, 9):
            sections = {name: verify._section(domain, max_n, name) for name in ("all_ones", "anchored", "blowups")}
            for section in sections.values():  # the runs tile the rows, one family a run
                assert [row for _, rows in section.runs for row in rows] == list(range(len(section.L)))
                assert all(len({section.families[row] for row in rows}) == 1 for _, rows in section.runs)
            ones, blowups = sections["all_ones"], sections["blowups"]
            assert ones.runs == ((max_n, range(len(ones.L))),)
            anchored = sections["anchored"]
            if max_n >= 3:
                assert {size for size, _ in anchored.runs} == {max_n}
                split = anchored.families.index("overlap_probe")  # the pair span ends at the first overlap row
                assert anchored.runs[-1][1] == range(split, len(anchored.L)) and anchored.runs[-2][1].stop == split
            else:  # its witnesses are 3 x 3: below n = 3 the section is empty, as the blowups are below 4
                assert anchored.runs == () and anchored.L.shape == (0, 0, 0)
            groups = [(key, list(rows)) for key, rows in itertools.groupby(
                range(len(blowups.L)), lambda row: (blowups.params[row]["base_n"], blowups.params[row]["m"]))]
            assert blowups.runs == tuple((m * base_n, range(rows[0], rows[-1] + 1)) for (base_n, m), rows in groups)
            assert bool(blowups.runs) == (max_n >= 4)

    @pytest.mark.parametrize("max_n", [1, 2, 3])
    def test_a_section_with_no_runs_fires_nothing(self, max_n):
        assert verify._section(DISC1, max_n, "blowups").runs == ()
        families = [family for _, family, _, _ in flat(battery(DISC1, overlapping_chain_rule(), max_n))]
        assert families and "tensor_blowup" not in families


class TestWitnessErrors:
    """A witness that cannot be built names itself, its params and the domain, at its place in battery order."""

    @pytest.mark.parametrize("domain, error, message", [
        (Domain.open_sym(1e308), NonFiniteEntryError,
         "witness duplicated_pair_gram {'w': (6e+307+0j), 'z': (3e+307+0j)} on open_sym(rho=1e+308) "
         "has non-finite entries"),
        (Domain.disc(1e308), NonFiniteEntryError,
         "witness duplicated_pair_gram {'w': (6e+307+0j), 'z': (3e+307+0j)} on disc(rho=1e+308) "
         "has non-finite entries"),
        (Domain.open_pos(1e-300), OutOfDomainError,
         "witness duplicated_pair_gram {'w': (6e-301+0j), 'z': (3e-301+0j)} on open_pos(rho=1e-300) "
         "has entries outside the domain"),
    ], ids=["open_sym", "disc", "open_pos"])
    def test_error_names_the_witness_and_the_domain(self, domain, error, message):
        with pytest.raises(error) as info:
            verify_preservation(Identity(), Identity(), empty_rule(), domain)
        assert str(info.value) == message


class TestRefuteScalar:
    def test_three_blocks(self):
        verdict = refute_scalar_outside_interval(
            contiguous_partition_rule(3), 3, -0.55, Domain.disc(), x=1.0
        )
        assert verdict.refuted
        assert verdict.counterexample.min_eig == pytest.approx(1 + 2 * (-0.55), abs=1e-10)

    def test_two_blocks_above_one(self):
        verdict = refute_scalar_outside_interval(
            contiguous_partition_rule(2), 2, 1.1, Domain.disc(), x=1.0
        )
        assert verdict.counterexample.min_eig == pytest.approx(1 - 1.1, abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, -0.5])
    def test_requires_positive_x(self, x):
        # x J with x <= 0 is the zero matrix or negative semidefinite: no counterexample
        with pytest.raises(ValueError, match="x="):
            refute_scalar_outside_interval(contiguous_partition_rule(3), 3, -1, DISC1, x=x)

    def test_boundary_is_admissible(self):
        with pytest.raises(CNotOutsideError):
            refute_scalar_outside_interval(
                contiguous_partition_rule(3), 3, Fraction(-1, 2), DISC1
            )

    def test_regime_mismatch(self):
        with pytest.raises(RegimeMismatchError):
            refute_scalar_outside_interval(proper_subpartition_rule(2), 2, -0.6, DISC1)

    def test_declared_block_count_never_realized(self):
        # a split into three blocks at most that declares four has no T_n to refute at: its flags are refused
        rule = dataclasses.replace(contiguous_partition_rule(3),
                                   flags=dataclasses.replace(contiguous_partition_rule(3).flags, max_block_count=4))
        with pytest.raises(FlagMismatchError, match="max_block_count=4"):
            refute_scalar_outside_interval(rule, 4, -1, DISC1)

    def test_wrong_k(self):
        with pytest.raises(RegimeMismatchError):
            refute_scalar_outside_interval(contiguous_partition_rule(3), 4, -0.6, DISC1)

    @pytest.mark.parametrize("K", [3.9, 3.0, True, "3", 1])
    def test_k_is_checked_not_truncated(self, K):
        # int(3.9) is 3, which would refute and report "K": 3; True would surface as K=1
        with pytest.raises(ValueError, match="K must be an integer >= 2"):
            refute_scalar_outside_interval(contiguous_partition_rule(3), K, -1, DISC1)

    @pytest.mark.parametrize("K", [EIG_DIM_CAP + 1, 300, 100000])
    def test_k_above_the_eigensolver_cap_refused_before_any_search(self, K, monkeypatch):
        def guarded(rule, n):  # T_K is O(K^3) to refute at: a regression that builds it fails here instead of hanging
            pytest.fail(f"T_{n} built for K={K}")

        monkeypatch.setattr(PatternRule, "_build", guarded)
        with pytest.raises(EigFailure, match=f"dimension {K} exceeds the eigensolver cap {EIG_DIM_CAP}"):
            refute_scalar_outside_interval(contiguous_partition_rule(K), K, -1, DISC1)

    def test_k_at_the_eigensolver_cap_refutes(self):
        K = EIG_DIM_CAP
        verdict = refute_scalar_outside_interval(contiguous_partition_rule(K), K, -1, DISC1, x=0.5)
        assert verdict.counterexample.n == K
        assert verdict.counterexample.min_eig == pytest.approx(0.5 * (1 + (K - 1) * -1), abs=1e-8)

    def test_numpy_k_is_accepted(self):
        verdict = refute_scalar_outside_interval(contiguous_partition_rule(3), np.int64(3), -1, DISC1)
        assert verdict.refuted and canonical_json(verdict.to_json()) == canonical_json(
            refute_scalar_outside_interval(contiguous_partition_rule(3), 3, -1, DISC1).to_json())


class TestPatternsBuiltOnce:
    """A rule builds each T_n once: validation and the battery read the rule's own patterns."""

    CFG = VerifyConfig(max_n=6, samples_per_n=2)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The n of each T_n a rule builds."""
        calls, build = Counter(), PatternRule._build

        def counted(rule, n):
            calls[n] += 1
            return build(rule, n)

        monkeypatch.setattr(PatternRule, "_build", counted)
        return calls

    @pytest.mark.parametrize("rule", [contiguous_partition_rule(3), proper_subpartition_rule(3),
                                      overlapping_chain_rule(), single_block_rule({0, 4}),
                                      all_singletons_rule(), empty_rule()],
                             ids=lambda r: r.name)
    def test_verify_preservation(self, rule, calls):
        verify_preservation(Identity(), Identity(), rule, DISC1, self.CFG)
        assert set(calls) >= set(range(1, self.CFG.max_n + 1))
        assert max(calls.values()) == 1, calls

    def test_refute_scalar_outside_interval(self, calls):
        # the split is validated in closed form, so T_K alone is built, once
        assert refute_scalar_outside_interval(contiguous_partition_rule(3), 3, -0.6, DISC1).refuted
        assert calls == {3: 1}

    def test_calls_again_build_nothing(self, calls):
        rule = contiguous_partition_rule(3)
        verify_preservation(Identity(), Identity(), rule, DISC1, self.CFG)
        first = dict(calls)
        verify_preservation(Identity(), Identity(), rule, DISC1, self.CFG)
        refute_scalar_outside_interval(rule, 3, -0.6, DISC1)
        assert calls == first

    def test_refute_at_n_2_reads_the_masks_of_t1_and_t2_only(self):
        rule = contiguous_partition_rule(2)
        verdict = verify_preservation(Identity(), scaled_identity(2.0), rule, DISC1)
        assert verdict.refuted and verdict.counterexample.n == 2
        assert len(rule._patterns) == VerifyConfig().max_n  # every T_n is built, and only fired ones are read
        assert sorted(n for n, p in rule._patterns.items() if "mask" in vars(p)) == [1, 2]

    @pytest.mark.parametrize("c, outcome", [(-0.75, "Refuted"), (0.5, OUTCOME_PRESERVED)])
    def test_kept_patterns_give_the_same_bytes(self, c, outcome):
        rule, cfg = contiguous_partition_rule(3), VerifyConfig(max_n=5, samples_per_n=30)
        runs = [verify_preservation(Identity(), scaled_identity(c), r, DISC1, cfg)
                for r in (rule, rule, dataclasses.replace(rule))]
        assert runs[0].outcome == outcome
        texts = {canonical_json(v.to_json()) for v in runs}
        assert len(texts) == 1


class TestCorrelationBound:
    def test_identity_margin(self):
        assert _correlation_bound(identity(4)[None])[0].all()

    def test_all_ones_boundary(self):
        lo, _ = eig_extremes(4 * identity(4) - all_ones(4))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert _correlation_bound(all_ones(4)[None])[0].all()

    def test_random_samples(self, rng):
        samples = _correlations(rng.standard_normal((200, 6, 8)))
        assert _correlation_bound(samples)[0].all()

    def test_non_correlation_fails(self):
        bad = 1.5 * identity(3)  # diagonal is not 1
        assert not _correlation_bound(bad[None])[0].all()


class TestInductionStep:
    def test_reduce_scalar_rationals(self):
        assert _reduce_scalar(Fraction(-1, 3)) == Fraction(-1, 2)
        assert _reduce_scalar(Fraction(-1, 4)) == Fraction(-1, 3)
        assert _reduce_scalar(-0.25) == pytest.approx(-1.0 / 3.0)

    def test_block_sample(self, rng):
        for k, sizes in ((2, [2, 2, 2]), (3, [1, 2, 1, 2])):
            A = exact_hermitian(random_psd(rng, sum(sizes)) + 0.5 * np.eye(sum(sizes)))
            assert _induction_step([Fraction(-1, k)], A[None], [sizes]).all()
            assert _induction_step([Fraction(-1, 2 * k)], A[None], [sizes]).all()

    def test_requires_positive_definite(self):
        assert not _induction_step([Fraction(-1, 2)], np.zeros((1, 3, 3)), [[1, 1, 1]]).any()

    def test_rejects_scalar_outside_bracket(self, rng):
        A = exact_hermitian(random_psd(rng, 3) + np.eye(3))
        assert not _induction_step([Fraction(1, 4)], A[None], [[1, 1, 1]]).any()


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            VerifyConfig(max_n=0)
        with pytest.raises(ValueError):
            VerifyConfig(seed=-1)
        with pytest.raises(ValueError):
            VerifyConfig(tol=-1e-9)
        with pytest.raises(TypeError):  # the probe depth is gone: every rule is decided from its shape
            VerifyConfig(probe_N=12)

    @pytest.mark.parametrize("member, value", [
        ("tol", float("nan")), ("tol", float("inf")), ("tol", "1e-8"), ("tol", True),
        ("seed", 1.5), ("seed", True), ("seed", "0"),
        ("max_n", True), ("max_n", 8.0),
        ("samples_per_n", 2.5), ("samples_per_n", False),
        ("rank_one_only", 1), ("rank_one_only", "yes"),
    ])
    def test_wrong_type_or_non_finite_is_rejected_not_coerced(self, member, value):
        with pytest.raises(ValueError, match=member):
            VerifyConfig(**{member: value})

    def test_valid_members_are_kept_as_given(self):
        # members are checked, not converted, so a config's report bytes stay what they were
        cfg = VerifyConfig(max_n=5, tol=0)
        assert canonical_json(cfg.to_json()) == (
            '{"max_n":5,"rank_one_only":false,"samples_per_n":500,"seed":0,"tol":0}')

    def test_numpy_members_serialize_as_python_numbers(self):
        cfg = VerifyConfig(max_n=np.int64(3), samples_per_n=np.int32(2), seed=np.int64(3),
                           tol=np.float32(0.25))
        plain = VerifyConfig(max_n=3, samples_per_n=2, seed=3, tol=float(np.float32(0.25)))
        assert all(type(getattr(cfg, k)) is type(getattr(plain, k)) for k in plain.to_json())
        assert canonical_json(cfg.to_json()) == canonical_json(plain.to_json())
        verdicts = [verify_preservation(Identity(), scaled_identity(0.5), contiguous_partition_rule(2), DISC1, c)
                    for c in (cfg, plain)]
        assert canonical_json(verdicts[0].to_json()) == canonical_json(verdicts[1].to_json())
        assert type(verdicts[0].stats["seed"]) is int

    def test_max_n_capped_at_eig_dim_cap(self):
        assert VerifyConfig(max_n=EIG_DIM_CAP).max_n == EIG_DIM_CAP
        with pytest.raises(ValueError, match=str(EIG_DIM_CAP)):
            VerifyConfig(max_n=EIG_DIM_CAP + 1)

    def test_rank_one_only_mode(self):
        cfg = VerifyConfig(max_n=4, samples_per_n=30, rank_one_only=True)
        verdict = verify_preservation(
            Identity(), scaled_identity(0.5), contiguous_partition_rule(2), DISC1, cfg
        )
        assert verdict.outcome == OUTCOME_PRESERVED


SCREEN_RULES = [empty_rule(), all_singletons_rule(), single_block_rule({0, 1}), contiguous_partition_rule(2),
                contiguous_partition_rule(3), proper_subpartition_rule(2), overlapping_chain_rule()]
SCREEN_DOMAINS = [Domain.disc(1.0), Domain.open_sym(1.0), Domain.half_open_nonneg(1.0), Domain.open_pos(1.0)]


def _verdict_bytes(verdict) -> str:
    return json.dumps(verdict.to_json(), sort_keys=True)  # not canonical_json: a NaN min_eig is kept as it is


class TestRandomStageScreen:
    """The random stage's Cholesky screen only skips eigen-solves: every
    verdict is byte for byte the one ``eigvalsh`` gives on its own."""

    @staticmethod
    def _unscreened(monkeypatch, case):
        with monkeypatch.context() as m:
            m.setattr(verify, "_cleared", lambda H, tol: False)
            return _verdict_bytes(case())

    @pytest.mark.parametrize("domain", SCREEN_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("rule", SCREEN_RULES, ids=lambda r: r.name)
    def test_verdict_bytes_unchanged_without_the_screen(self, monkeypatch, rule, domain):
        # c = -1/2 is the K = 3 boundary; just below it only the tolerance decides
        for c in (-0.5, -0.5 - 1e-8, -0.5 - 1e-10, 0.3):
            for tol in (0, 1e-12, 1e-8, 1e-4):
                cfg = VerifyConfig(max_n=4, samples_per_n=70, tol=tol)
                case = partial(verify_preservation, Identity(), scaled_identity(c), rule, domain, cfg)
                assert _verdict_bytes(case()) == self._unscreened(monkeypatch, case), (c, tol)

    @pytest.mark.parametrize("f, domain", [(Custom(lambda z: complex(abs(z))), Domain.disc(1.0)),
                                           (HerzMonomial(1, 400, 0), Domain.disc())],
                             ids=["abs_refuted_at_random_sample", "z400_overflow"])
    def test_random_stage_refutations_unchanged_without_the_screen(self, monkeypatch, f, domain):
        case = partial(verify_preservation, Identity(), f, empty_rule(), domain)
        with np.errstate(over="ignore", invalid="ignore"):
            screened, unscreened = _verdict_bytes(case()), self._unscreened(monkeypatch, case)
        assert '"provenance": "random_gram"' in screened and screened == unscreened

    @pytest.mark.parametrize("rule, c, domain", [
        (contiguous_partition_rule(3), -0.5, Domain.disc(1.0)),
        (proper_subpartition_rule(2), 0.7, Domain.open_sym(1.0)),
        (all_singletons_rule(), 0.5, Domain.half_open_nonneg(1.0)),
    ], ids=["disc_boundary", "open_sym", "half_open_nonneg"])
    def test_default_preserved_run_clears_every_random_stack(self, monkeypatch, rule, c, domain):
        seen, solved = [], []

        def spy(H, tol):
            seen.append((H.copy(), _cleared(H, tol)))
            return seen[-1][1]

        def eig_spy(H):
            solved.append(len(H))
            return eig_extremes(H)

        monkeypatch.setattr(verify, "_cleared", spy)
        monkeypatch.setattr(verify, "eig_extremes", eig_spy)
        cfg = VerifyConfig()
        g, f = Identity(), scaled_identity(c)
        verdict = verify_preservation(g, f, rule, domain, cfg)
        assert verdict.outcome == OUTCOME_PRESERVED
        # each section's 1 x 1 stacks are screened alone and its first stack at an n >= 2, its probe, is solved;
        # every later stack is in exactly one batch of at most STACK_ENTRIES entries padded to max_n x max_n, in
        # order, screened padded (or alone, a batch of one); then every random stack is screened alone; all cleared
        N, patterns = cfg.max_n, {n: rule.pattern(n) for n in range(1, cfg.max_n + 1)}
        screens, probes = [], []
        for section in verify._battery_sections(domain, patterns, N):
            stacks = [(W, n) for W, n, _, _ in section]
            first = next((at for at, (_, n) in enumerate(stacks) if n >= 2), len(stacks))
            screens += [[stack] for stack in stacks[:first]]
            probes += [len(W) for W, _ in stacks[first:first + 1]]
            batches = []
            for W, n in stacks[first + 1:]:
                if not batches or (sum(len(V) for V, _ in batches[-1]) + len(W)) * N * N > verify.STACK_ENTRIES:
                    batches.append([])
                batches[-1].append((W, n))
            screens += batches
        screens += [[(W, n)] for W, n, _, _ in verify._random_battery(domain, cfg)]
        images = [[verify._raw_image(g, f, patterns[n].mask, W) for W, n in batch] for batch in screens]
        want = [H[0] if len(H) == 1 else verify._padded(H, N, sum(map(len, H)), np.result_type(*H))
                for H in images]
        assert any(len(H) > 1 for H in images)
        assert len(seen) == len(want) and all(cleared for _, cleared in seen)
        assert all(np.array_equal(H, W) for (H, _), W in zip(seen, want))
        assert solved == probes

    @pytest.mark.parametrize("samples", [10, 64])
    def test_small_budgets_screen_the_random_stacks_in_padded_batches(self, monkeypatch, samples):
        # the random stage is a section with no probe: at 10 samples per n its eight stacks make one padded batch
        # of 80 rows; at 64 each two n fill a batch of 8192 entries, screened before the next n's factors are
        # drawn, on the disc (each n formed alone) and on a real domain (each batch's n's formed at once)
        rule, cfg = contiguous_partition_rule(3), VerifyConfig(samples_per_n=samples)
        g, f, N = Identity(), scaled_identity(-0.5), cfg.max_n
        patterns = {n: rule.pattern(n) for n in range(1, N + 1)}
        events, solved, real_draws = [], [], verify._random_draws

        def draws_spy(n, domain, cfg):
            events.append(n)
            return real_draws(n, domain, cfg)

        def spy(H, tol):
            events.append((H.copy(), _cleared(H, tol)))
            return events[-1][1]

        def eig_spy(H):
            solved.append(len(H))
            return eig_extremes(H)

        for domain in (Domain.disc(1.0), Domain.open_pos(1.0)):
            stacks = verify._random_battery(domain, cfg)
            images = [verify._raw_image(g, f, patterns[n].mask, W) for W, n, _, _ in stacks]
            probes = []
            for section in verify._battery_sections(domain, patterns, N):
                probes += [len(W) for W, n, _, _ in section if n >= 2][:1]
            per_batch = len(images) if samples == 10 else 2
            want = []
            for at in range(0, N, per_batch):
                batch = images[at:at + per_batch]
                padded = verify._padded(batch, N, sum(map(len, batch)), np.result_type(*batch))
                want += [*range(at + 1, at + per_batch + 1), padded]
            with monkeypatch.context() as spied:
                spied.setattr(verify, "_random_draws", draws_spy)
                spied.setattr(verify, "_cleared", spy)
                spied.setattr(verify, "eig_extremes", eig_spy)
                assert verify_preservation(g, f, rule, domain, cfg).outcome == OUTCOME_PRESERVED
            # every batch, battery or random, clears
            assert all(event[1] for event in events if not isinstance(event, int))
            got = events[events.index(1):]  # the random section, after the battery's
            # n's factors are drawn only once the full batch before them is screened
            assert [e if isinstance(e, int) else "screen" for e in got] == [
                w if isinstance(w, int) else "screen" for w in want], domain
            assert all(np.array_equal(e[0], w) for e, w in zip(got, want) if not isinstance(w, int))
            assert solved == probes  # eigvalsh solves the battery sections' probes alone
            events.clear()
            solved.clear()

    def test_below_the_tol_floor_each_random_stack_is_evaluated_once(self, monkeypatch):
        dtypes = []

        class Counted(Identity):
            def _values(self, Z):
                if Z.ndim == 3:  # a stack; the conjugate-equivariance check evaluates its probe points first
                    dtypes.append(Z.dtype)
                return super()._values(Z)

        def never(H, tol):
            raise AssertionError("a stack below the screen's tol floor was screened")

        monkeypatch.setattr(verify, "_cleared", never)
        domain, rule, cfg = Domain.open_sym(1.0), all_singletons_rule(), VerifyConfig(max_n=4, samples_per_n=70, tol=0)
        verdict = verify_preservation(Counted(), Zero(), rule, domain, cfg)
        assert verdict.outcome == OUTCOME_PRESERVED  # a diagonal image: eigvalsh is exact
        # tol = 0 screens nothing, so each stack, battery or random, has g evaluated once, as its exact complex form
        patterns = {n: rule.pattern(n) for n in range(1, cfg.max_n + 1)}
        battery = sum(1 for section in _battery_sections(domain, patterns, cfg.max_n) for _ in section)
        randoms = sum(-(-cfg.samples_per_n // _stack_rows(n)) for n in range(1, cfg.max_n + 1))
        assert len(dtypes) == battery + randoms
        assert set(dtypes) == {np.dtype(np.complex128)}

    @pytest.mark.parametrize("samples", [500, 10], ids=["default_budget", "samples_10"])
    @pytest.mark.parametrize("domain", [Domain.open_sym(1.0), Domain.open_pos(1.0)], ids=lambda d: d.kind)
    def test_off_the_real_screen_each_random_stack_is_evaluated_once_in_complex(self, monkeypatch, domain, samples):
        # a Custom g and a HerzSeries subclass f are not exact built-ins, so a real domain's float64 random stacks
        # are screened and judged on one image, of their exact complex form: at 500 samples per n each stack is
        # screened alone, at 10 all eight make one padded batch
        randoms, f_calls, g_entries = [], [], []
        random_battery = verify._random_battery

        def recorded(domain, cfg):
            for stack in random_battery(domain, cfg):
                randoms.append(stack[0].shape)
                yield stack

        def identity(z):
            if randoms:  # the battery is judged before the first random stack is drawn
                g_entries.append(z)
            return z

        class Series(HerzSeries):
            def _values(self, Z):
                if randoms and Z.ndim == 3:
                    f_calls.append((Z.dtype.name, Z.shape))
                return super()._values(Z)

        rule, cfg = contiguous_partition_rule(3), VerifyConfig(samples_per_n=samples)
        case = partial(verify_preservation, Custom(identity), Series({(1, 0): 0.5}), rule, domain, cfg)
        with monkeypatch.context() as spied:
            spied.setattr(verify, "_random_battery", recorded)
            screened = _verdict_bytes(case())
        assert json.loads(screened)["outcome"] == OUTCOME_PRESERVED
        assert len(randoms) == (8 if samples == 10 else 16)
        assert f_calls == [("complex128", shape) for shape in randoms]
        assert len(g_entries) == sum(math.prod(shape) for shape in randoms)
        assert screened == self._unscreened(monkeypatch, case)

    @staticmethod
    def _outcome(case):
        """A call's verdict bytes, or the type and message of what it raised."""
        try:
            with np.errstate(all="ignore"):
                return _verdict_bytes(case())
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    @settings(max_examples=60, deadline=None)
    @given(rule=st.sampled_from(BUILTINS), kind=st.sampled_from(["disc", "open_sym", "half_open_nonneg", "open_pos"]),
           rho=st.sampled_from([1.0, 2.0, math.inf]),
           f=st.one_of(st.sampled_from([-1.5, -0.6, -0.5 - 1e-8, -0.5, -0.3, 0.0, 0.5, 1.0, 1.0 + 1e-6, 1.2])
                       .map(scaled_identity),
                       st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                       st.floats(0.05, 1.5), min_size=1, max_size=3).map(HerzSeries)),
           tol=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4]), max_n=st.integers(3, 6), samples=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_verdict_bytes_equal_those_without_the_screen(self, rule, kind, rho, f, tol, max_n, samples, seed):
        # c inside and outside each rule's interval, or a series of up to 3 terms; a screen that clears a stack
        # eigvalsh would refute, or skips one it would pass, moves a verdict or its tally
        cfg = VerifyConfig(max_n=max_n, samples_per_n=samples, seed=seed, tol=tol)
        case = partial(verify_preservation, Identity(), f, rule, Domain(kind, rho), cfg)
        screened = self._outcome(case)
        with mock.patch.object(verify, "_cleared", lambda H, tol: False):
            assert screened == self._outcome(case)

    @pytest.mark.parametrize("domain", SCREEN_DOMAINS[:2], ids=lambda d: d.kind)
    def test_a_refutation_in_a_screened_battery_stack_is_unchanged(self, monkeypatch, domain):
        # (z + z^8)/2 off the blocks of a 3-block partition passes every witness of the pair runs' first stack at
        # n = 4, whose 8 rows on these domains all have w = 0.3, and fails in the second, at w = 0.6: that stack
        # is screened, not cleared, and then solved
        results = []

        def spy(H, tol):
            results.append((H.shape[-1], _cleared(H, tol)))
            return results[-1][1]

        case = partial(verify_preservation, Identity(), HerzSeries({(1, 0): 0.5, (8, 0): 0.5}),
                       contiguous_partition_rule(3), domain, VerifyConfig(max_n=6, samples_per_n=40))
        with monkeypatch.context() as m:
            m.setattr(verify, "_cleared", spy)
            screened = _verdict_bytes(case())
        ce = case().counterexample
        assert (ce.family, ce.n, ce.params["w"]) == ("duplicated_pair_gram", 4, 0.6)
        assert results[-2:] == [(6, False), (4, False)]  # its padded batch is not cleared, then the stack alone
        assert screened == self._unscreened(monkeypatch, case)

    @pytest.mark.parametrize("domain", SCREEN_DOMAINS[:2], ids=lambda d: d.kind)
    def test_an_uncleared_batch_hands_each_stack_its_image(self, monkeypatch, domain):
        # the refutation above, counted: its padded batch is not cleared, and each stack of it is judged on its
        # image in that batch, so f is evaluated once on every stack the call fires
        evaluated, screens = [], []

        class Counted(HerzSeries):
            def _values(self, Z):
                if Z.ndim == 3:  # a stack; the conjugate-equivariance check evaluates its probe points first
                    evaluated.append(Z)
                return super()._values(Z)

        def spy(H, tol):
            screens.append((H.shape, _cleared(H, tol)))
            return screens[-1][1]

        monkeypatch.setattr(verify, "_cleared", spy)
        f, rule = Counted({(1, 0): 0.5, (8, 0): 0.5}), contiguous_partition_rule(3)
        verdict = verify_preservation(Identity(), f, rule, domain, VerifyConfig(max_n=6, samples_per_n=40))
        assert (verdict.counterexample.family, verdict.counterexample.n) == ("duplicated_pair_gram", 4)
        # the padded batch is not cleared, then the refuting stack's view of it is screened alone
        assert [(shape[1:], cleared) for shape, cleared in screens[-2:]] == [((6, 6), False), ((4, 4), False)]
        assert len({id(Z) for Z in evaluated}) == len(evaluated)

    @pytest.mark.parametrize("refute_at", [4, None], ids=["refuted_first", "raised"])
    def test_an_error_inside_a_batch_surfaces_in_battery_order(self, monkeypatch, refute_at):
        # the all-ones stacks at n = 3..8 after the probe make one padded batch; f raises on the one at n = 5,
        # and negates the one at refute_at, so a refutation earlier in the batch wins over the error
        class Marked(Identity):
            def _values(self, Z):
                if Z.ndim == 3 and Z.shape[-1] == 5:
                    raise ValueError("marked n = 5")
                return -Z if Z.ndim == 3 and Z.shape[-1] == refute_at else super()._values(Z)

        case = partial(verify_preservation, Identity(), Marked(), empty_rule(), Domain.disc(1.0))
        screened = self._outcome(case)
        if refute_at is None:
            assert screened == "ValueError: marked n = 5"
        else:
            ce = case().counterexample
            assert (ce.family, ce.n) == ("all_ones", 4)
        with monkeypatch.context() as m:
            m.setattr(verify, "_cleared", lambda H, tol: False)
            assert screened == self._outcome(case)

    def test_a_growth_error_after_a_cleared_batch_raises_as_without_the_screen(self, monkeypatch, cold_cache):
        # anchored witnesses that cannot grow past 6 end the section at n = 7; its stacks after the probe, at
        # n = 3..6, are one padded batch, which is judged before the error is raised
        real, results, solved = verify.corner_extend_auto, [], []

        def failing(A, domain):
            if A.shape[0] == 6:
                raise EpsTooLargeError("no room")
            return real(A, domain)

        def spy(H, tol):
            results.append((H.shape, _cleared(H, tol)))
            return results[-1][1]

        def eig_spy(H):
            solved.append(len(H))
            return eig_extremes(H)

        monkeypatch.setattr(verify, "corner_extend_auto", failing)
        monkeypatch.setattr(verify, "eig_extremes", eig_spy)
        rule, domain, got = single_block_rule({0, 1}), Domain.open_pos(1.0), []
        case = partial(verify_preservation, Identity(), scaled_identity(0.5), rule, domain)
        with pytest.raises(EpsTooLargeError):
            consume(battery(domain, rule), got)
        with monkeypatch.context() as m, pytest.raises(EpsTooLargeError) as unscreened:
            m.setattr(verify, "_cleared", lambda H, tol: False)
            case()
        assert sum(solved) == sum(len(W) for W, *_ in got)  # without the screen each matrix before the error
        solved.clear()
        with monkeypatch.context() as m, pytest.raises(EpsTooLargeError) as screened:
            m.setattr(verify, "_cleared", spy)
            case()
        assert str(screened.value) == str(unscreened.value) == "no room"
        assert results[-1] == ((52, 8, 8), True)  # the anchored stacks after the probe, padded in one batch
        assert all(cleared for _, cleared in results)
        assert sum(shape[0] for shape, _ in results) + sum(solved) == sum(len(W) for W, *_ in got)

    # sha256 of each verdict's bytes, pinned before the random stage screened its stacks in real arithmetic.
    # sqrt is conjugate-equivariant only through signed zeros, sqrt(-x + 0j) = i sqrt(x) but sqrt(-x - 0j) =
    # -i sqrt(x): its image of a real stack is Hermitian only on the stack's exact complex form, whose lower
    # triangle holds -0 imaginary parts.  Both sqrt cases clear n = 1 and 2 and refute at n = 3, sample 2.
    _SQRT = Custom(cmath.sqrt, name="sqrt")
    _CUSTOM_PINS = {
        "sqrt": (_SQRT, "f1ff9bbf9d32f3ee389d0940da46d30f5bd3368091beb2577e74488987e4fda4"),
        "half_sqrt": (ScalarMultiple(0.5, _SQRT), "54aeb3c026337b6132d15828860e1165378739afda8a2bd51e64b7a5244ca139"),
        "half_square": (ScalarMultiple(0.5, Custom(lambda z: z * z, name="square")),
                        "51ef1acb030c435d776da7f6eeb959d41a8aaa571e23c553d5117bdc64375718"),
    }

    @pytest.mark.parametrize("name", sorted(_CUSTOM_PINS))
    def test_custom_functions_on_a_real_domain_keep_their_pinned_bytes(self, monkeypatch, name):
        f, pin = self._CUSTOM_PINS[name]
        case = partial(verify_preservation, Identity(), f, empty_rule(), Domain.open_sym(1.0))
        screened = _verdict_bytes(case())
        assert hashlib.sha256(screened.encode()).hexdigest() == pin
        assert screened == self._unscreened(monkeypatch, case)

    def test_a_built_in_subclass_is_screened_through_its_own_evaluate_array(self, monkeypatch):
        class Abs(Identity):  # Identity's values must not stand in for these on a screened stack
            def evaluate_array(self, Z):
                return np.abs(super().evaluate_array(Z)).astype(np.complex128)

        case = partial(verify_preservation, Identity(), Abs(), empty_rule(), Domain.disc(1.0))
        screened = _verdict_bytes(case())
        assert '"provenance": "random_gram"' in screened and screened == self._unscreened(monkeypatch, case)

    def test_a_non_hermitian_random_image_raises_as_without_the_screen(self, monkeypatch):
        # folded only below |z| = 0.3, off the probe set, so only the random stage's off-diagonal entries show it
        f = Custom(lambda z: complex(z.real, abs(z.imag)) if abs(z) < 0.3 else z, name="folded below 0.3")
        case = partial(verify_preservation, Identity(), f, empty_rule(), Domain.disc(1.0))
        with pytest.raises(NonHermitianOutputError) as screened:
            case()
        with monkeypatch.context() as m, pytest.raises(NonHermitianOutputError) as unscreened:
            m.setattr(verify, "_cleared", lambda H, tol: False)
            case()
        assert str(screened.value) == str(unscreened.value)


# built-ins as test_functions draws them, with powers that overflow or underflow on the real domains at rho = 2 and inf
_POWERS = st.integers(0, 9) | st.sampled_from([40, 300, 400])
_IMAGE_BUILTINS = st.recursive(
    st.sampled_from([Identity(), Zero()])
    | st.builds(HerzMonomial, st.floats(0.0, 4.0) | st.just(1e300), _POWERS, st.integers(0, 9))
    | st.builds(HerzSeries, st.dictionaries(st.tuples(_POWERS, st.integers(0, 9)), st.floats(0.05, 4.0) | st.just(1e300),
                                            min_size=1, max_size=3), st.just(409)),
    lambda inner: st.builds(ScalarMultiple, st.floats(-4.0, 4.0), inner), max_leaves=3)


def _real_stack(kind: str, rho: float, n: int, samples: int, seed: int) -> np.ndarray:
    """A random stage's real stack: its samples at n as verify draws and settles them."""
    domain = Domain(kind, rho)
    flat, ranks = verify._random_draws(n, domain, VerifyConfig(samples_per_n=samples, seed=seed))
    return verify._into_domain(verify._formed(flat, ranks, n, domain), domain)


def _image(g, f, mask, W):
    return np.where(mask, g._stack_values(W), f._stack_values(W))


class TestRealImageSettle:
    """The random stage evaluates a real domain's stack in float64 to screen it, and judges every stack the
    screen does not clear as its exact complex form.  The screen is sound on the float64 image because it settles
    to the complex form's image entry for entry; it is not the complex image byte for byte, since the signs of its
    zeros differ where a product underflows or a factor is zero, and eigvalsh reads them."""

    @settings(max_examples=150, deadline=None)
    @given(g=_IMAGE_BUILTINS, f=_IMAGE_BUILTINS, kind=st.sampled_from(["open_sym", "half_open_nonneg", "open_pos"]),
           rho=st.sampled_from([1.0, 2.0, math.inf]), n=st.integers(1, 8), samples=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([1e-12, 1e-8, 1e-4]))
    def test_a_finite_real_image_settles_to_the_complex_forms_entry_for_entry(self, g, f, kind, rho, n, samples,
                                                                              seed, tol):
        W = _real_stack(kind, rho, n, samples, seed)
        mask = np.random.default_rng(seed).random((n, n)) < 0.5
        mask |= mask.T
        with np.errstate(all="ignore"):
            real, image = _image(g, f, mask, W), _image(g, f, mask, exact_hermitian(W))
            finite = np.isfinite(real).all(axis=(1, 2))
            assert real.dtype == np.float64 and (finite == np.isfinite(image).all(axis=(1, 2))).all()
            settled, judged = _settle_hermitian(real[finite]), _settle_hermitian(image[finite])
            assert settled.dtype == judged.dtype == np.complex128
            assert np.array_equal(settled.real, judged.real) and np.array_equal(settled.imag, judged.imag)
            if _cleared(real, tol):  # and so a cleared real image is one eigvalsh passes on the complex form
                assert psd_holds(*eig_extremes(judged), tol).all()

    @settings(max_examples=60, deadline=None)
    @given(g=_IMAGE_BUILTINS, f=_IMAGE_BUILTINS, kind=st.sampled_from(["open_sym", "half_open_nonneg", "open_pos"]),
           rho=st.sampled_from([1.0, 2.0, math.inf]), rule=st.sampled_from(BUILTINS), max_n=st.integers(3, 8),
           tol=st.sampled_from([1e-12, 1e-8, 1e-4]))
    def test_a_battery_stacks_real_image_settles_to_its_complex_images_entry_for_entry(self, g, f, kind, rho, rule,
                                                                                       max_n, tol):
        # a real domain's battery stacks are stored complex, their imaginary parts zeros of either sign, and
        # screened on their real parts where g and f are exact built-ins; a stack the screen does not clear is
        # judged on its stored complex form, so that is the image the real one must settle to
        domain, patterns = Domain(kind, rho), {n: rule.pattern(n) for n in range(1, max_n + 1)}
        negative_zeros = False
        for W, n, _, _ in itertools.chain.from_iterable(_battery_sections(domain, patterns, max_n)):
            assert W.dtype == np.complex128 and not W.imag.any()
            negative_zeros |= bool(np.signbit(W.imag).any())
            with np.errstate(all="ignore"):
                real, image = _image(g, f, patterns[n].mask, W.real), _image(g, f, patterns[n].mask, W)
                finite = np.isfinite(real).all(axis=(1, 2))
                assert real.dtype == np.float64 and (finite == np.isfinite(image).all(axis=(1, 2))).all()
                settled, judged = _settle_hermitian(real[finite]), _settle_hermitian(image[finite])
                assert np.array_equal(settled.real, judged.real) and np.array_equal(settled.imag, judged.imag)
                if _cleared(real, tol):
                    assert psd_holds(*eig_extremes(judged), tol).all()
        assert negative_zeros

    def test_an_uncleared_real_stack_is_judged_as_its_exact_complex_form(self):
        # -z^300 conj(z) off the diagonal, 8e83 at the largest entry of this sample and an underflow to a signed
        # zero at the smallest: eigvalsh on its settled float64 image gives another min_eig, 3 ulp away
        W = _real_stack("open_sym", 2.0, 3, 8, 0)[3:4]
        g, f, mask = Identity(), ScalarMultiple(-1.0, HerzMonomial(1.0, 300, 1)), all_singletons_rule().pattern(3).mask
        with np.errstate(all="ignore"):
            hit = _first_failure(g, f, mask, W, 1e-8, screened=True, real=True)
            want = _first_failure(g, f, mask, exact_hermitian(W), 1e-8, screened=True)
            lo, _ = eig_extremes(_settle_hermitian(_image(g, f, mask, W)))
        assert hit[0] == want[0] == 0 and np.float64(hit[1]).tobytes() == np.float64(want[1]).tobytes()
        assert lo[0] != want[1]

    def test_a_real_stack_is_evaluated_again_only_where_the_screen_does_not_clear_it(self):
        calls = []

        class Counted(HerzMonomial):
            def _values(self, Z):
                calls.append((self.m, Z.dtype.name))
                return super()._values(Z)

        W, mask = _real_stack("open_sym", 1.0, 3, 8, 0), all_singletons_rule().pattern(3).mask
        cases = [  # (g, f, tol, what is evaluated): z on the diagonal and z/2 off it is PSD, so cleared at 1e-8;
            (Counted(1.0, 1, 0), Counted(0.5, 1, 0), 1e-8, [(1, "float64")] * 2),
            # z^2 on the diagonal and z off it refutes a rank-one sample, so it is solved as its complex form
            (Counted(1.0, 2, 0), Counted(1.0, 1, 0), 1e-8, [(2, "float64"), (1, "float64"),
                                                            (2, "complex128"), (1, "complex128")]),
            # below the screen's floor it is evaluated once, as its complex form
            (Counted(1.0, 2, 0), Counted(1.0, 1, 0), 0.0, [(2, "complex128"), (1, "complex128")]),
        ]
        for g, f, tol, evaluated in cases:
            calls.clear()
            hit = _first_failure(g, f, mask, W, tol, screened=True, real=True)
            assert calls == evaluated and (hit is None) == (evaluated[-1][1] == "float64")
            # without real, as for a Custom or a subclass, the same stack is evaluated once, as its complex form
            calls.clear()
            assert _first_failure(g, f, mask, W, tol, screened=True) == hit
            assert calls == [(g.m, "complex128"), (f.m, "complex128")]


class TestBatteryRealScreen:
    """On a real domain with exact built-ins g and f, each battery stack is screened on its real part: g and f are
    evaluated once on it in float64, and once more, on the stored complex stack, only where the screen does not
    clear it.  On the disc, and where g or f is not an exact built-in, each stack is evaluated once, in complex."""

    # (z + z^8)/2 off the blocks of a 3-block partition refutes in the pair runs' second stack at n = 4, whose padded
    # batch is not cleared (TestRandomStageScreen::test_a_refutation_in_a_screened_battery_stack_is_unchanged)
    REFUTES = HerzSeries({(1, 0): 0.5, (8, 0): 0.5})
    CFG = VerifyConfig(max_n=6, samples_per_n=40)

    class Series(HerzSeries):  # a subclass, so not an exact built-in
        pass

    @staticmethod
    def _run(monkeypatch, f, rule, domain):
        """The verdict, per battery stack the call judged, in battery order, the dtypes g and f were evaluated in
        on it, the dtype of each image ``_cleared`` saw, and how many stacks ``eig_extremes`` solved.  A stack
        drawn after a refuting batch, which does not fit it, is never evaluated and is left out."""
        stacks, evaluated, screened, solved = [], {}, [], []
        sections, raw_image = verify._battery_sections, verify._raw_image

        def recorded(section):
            for stack in section:
                stacks.append(stack[0])
                evaluated[id(stack[0])] = []
                yield stack

        def image(g, f, mask, W):
            owner = W if W.dtype.kind == "c" else W.base  # a battery stack's real part is a view of the stack
            evaluated.get(id(owner), []).append(W.dtype.name)
            return raw_image(g, f, mask, W)

        def spy(H, tol):
            screened.append(H.dtype.name)
            return _cleared(H, tol)

        def eig_spy(H):
            solved.append(len(H))
            return eig_extremes(H)

        monkeypatch.setattr(verify, "_battery_sections", lambda *args: tuple(map(recorded, sections(*args))))
        monkeypatch.setattr(verify, "_raw_image", image)
        monkeypatch.setattr(verify, "_cleared", spy)
        monkeypatch.setattr(verify, "eig_extremes", eig_spy)
        verdict = verify_preservation(Identity(), f, rule, domain, TestBatteryRealScreen.CFG)
        return verdict, [evaluated[id(W)] for W in stacks if evaluated[id(W)]], screened, solved

    def test_a_preserved_call_screens_every_battery_stack_in_float64(self, monkeypatch):
        verdict, evaluated, screened, solved = self._run(monkeypatch, scaled_identity(0.5),
                                                         contiguous_partition_rule(2), Domain.open_pos(1.0))
        assert verdict.outcome == OUTCOME_PRESERVED
        # the section probes are solved unscreened in complex; every other stack is evaluated once, in float64
        probes = [e for e in evaluated if e == ["complex128"]]
        assert len(probes) == len(solved) == 3
        assert all(e == ["float64"] for e in evaluated if e != ["complex128"])
        assert screened and set(screened) == {"float64"}  # the battery's screens and the random stage's

    @pytest.mark.parametrize("f, rule, n", [(REFUTES, overlapping_chain_rule(), 3),
                                            (scaled_identity(-0.51), empty_rule(), 1)],
                             ids=["in_a_padded_batch", "one_by_one"])
    def test_a_stack_the_screen_does_not_clear_is_evaluated_once_more_in_complex(self, monkeypatch, f, rule, n):
        # an all-ones stack refutes: at n = 3 in the padded batch of the section's stacks after its probe, at n = 1
        # screened alone
        verdict, evaluated, screened, solved = self._run(monkeypatch, f, rule, Domain.open_pos(1.0))
        assert (verdict.counterexample.family, verdict.counterexample.n) == ("all_ones", n)
        assert set(screened) == {"float64"}
        assert all(e in (["complex128"], ["float64"], ["float64", "complex128"]) for e in evaluated)
        probes, again = evaluated.count(["complex128"]), evaluated.count(["float64", "complex128"])
        assert again == 1 and evaluated.index(["float64", "complex128"]) == n - 1  # the refuting stack, the n-th
        assert len(solved) == probes + again  # the stack evaluated again is solved, on that complex image

    @pytest.mark.parametrize("f, domain", [(REFUTES, Domain.disc(1.0)), (Series(REFUTES.coeffs), Domain.open_sym(1.0))],
                             ids=["disc", "subclass_on_open_sym"])
    def test_off_the_real_screen_each_stack_is_evaluated_once_in_complex(self, monkeypatch, f, domain):
        verdict, evaluated, screened, solved = self._run(monkeypatch, f, contiguous_partition_rule(3), domain)
        assert (verdict.counterexample.family, verdict.counterexample.n) == ("duplicated_pair_gram", 4)
        assert evaluated and all(e == ["complex128"] for e in evaluated)
        assert set(screened) == {"complex128"}
