import math

import numpy as np
import pytest

from conftest import det2, random_psd
from psdmask import witnesses
from psdmask.errors import (
    DomainLacksZeroError,
    EpsTooLargeError,
    NonFiniteEntryError,
    NonPositiveEntriesError,
    OutOfDomainError,
    ZeroVectorError,
)
from psdmask.functions import BOUNDARY_SLACK, Domain, Identity, scaled_identity
from psdmask.linalg import all_ones, eig_extremes, exact_hermitian, is_psd, symmetrize
from psdmask.operators import OperatorSpec, apply, star_pattern
from psdmask.patterns import normalize, single_block_rule
from psdmask.verify import _deterministic_battery
from psdmask.witnesses import (
    WITNESS_PSD_TOL,
    all_ones_witness,
    corner_extend,
    corner_extend_auto,
    duplicated_pair_gram,
    overlap_probe,
    pad_embed,
    rank_one_gram,
    tail_gram,
    tensor_blowup,
)

DISC1 = Domain.disc(1.0)
DISC = Domain.disc()


def tail_image(w, t, g, f, domain):
    """Image of tail_gram(w, t) under the operator with the single block {0, 1}."""
    spec = OperatorSpec(f=f, pattern=normalize([{0, 1}], 3), domain=domain, g=g)
    return apply(spec, tail_gram(w, t, domain).matrix)


class TestRankOneGram:
    def test_ones_vector(self):
        wit = rank_one_gram([1, 1, 1])
        assert np.array_equal(wit.matrix, all_ones(3))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            rank_one_gram([0, 0])

    def test_always_psd(self, rng):
        for _ in range(10):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert eig_extremes(rank_one_gram(v).matrix)[0] >= -1e-12


class TestDuplicatedPairGram:
    def test_real_collapse_to_all_ones_scale(self):
        x = 0.4
        wit = duplicated_pair_gram(x, x, DISC1)
        assert np.allclose(wit.matrix, x * all_ones(3), atol=1e-15)

    def test_stated_entries(self):
        wit = duplicated_pair_gram(0.8, 0.4j, DISC1)
        assert wit.matrix[0, 0] == pytest.approx(0.2)  # |z|^2 / |w| = 0.16 / 0.8
        assert wit.matrix[0, 1] == pytest.approx(0.4j)  # z conj(w)/|w|
        assert wit.matrix[1, 1] == pytest.approx(0.8)
        assert np.array_equal(wit.matrix[1], wit.matrix[2])

    def test_matches_gram_route(self, rng):
        # independent construction: outer product of (z, w, w)/sqrt(|w|)
        for _ in range(10):
            w = (0.2 + 0.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
            z = abs(w) * rng.random() * np.exp(2j * np.pi * rng.random())
            wit = duplicated_pair_gram(w, z, DISC1)
            v = np.array([z, w, w]) / np.sqrt(abs(w))
            assert np.abs(wit.matrix - np.outer(v, v.conj())).max() <= 1e-14

    def test_zero_w_rejected(self):
        with pytest.raises(ZeroVectorError):
            duplicated_pair_gram(0.0, 0.0, DISC1)

    def test_large_z_rejected(self):
        with pytest.raises(OutOfDomainError):
            duplicated_pair_gram(0.3, 0.5, DISC1)


class TestOverlapProbe:
    def test_unit_values_give_all_ones(self):
        wit = overlap_probe(1.0, 1.0, DISC)
        assert np.array_equal(wit.matrix, all_ones(3))

    def test_complex_z_psd(self):
        wit = overlap_probe(1.0, 0.6 + 0.3j, Domain.disc(2.0))
        assert eig_extremes(wit.matrix)[0] >= -1e-12

    def test_z_larger_than_r_rejected(self):
        with pytest.raises(OutOfDomainError):
            overlap_probe(0.5, 0.7, DISC1)


class TestTailWitnesses:
    def test_tail_gram_is_rank_one(self):
        wit = tail_gram(0.3 + 0.2j, 0.8, DISC1)
        w, t = 0.3 + 0.2j, 0.8
        v = np.array([w, abs(w), t]) / np.sqrt(t)
        assert np.abs(wit.matrix - np.outer(v, v.conj())).max() <= 1e-14
        assert eig_extremes(wit.matrix)[0] >= -1e-12

    def test_image_under_identity_pair_is_psd(self):
        M = tail_image(0.4, 0.7, Identity(), Identity(), DISC1)
        assert is_psd(M, 1e-10).is_psd

    def test_scaled_identity_at_matching_scale(self):
        # g = id, f = c id, w = t = x gives [[x, x, cx], [x, x, cx], [cx, cx, cx]]
        x, c = 0.5, 0.6
        M = tail_image(x, x, Identity(), scaled_identity(c), DISC1)
        expected = np.array(
            [[x, x, c * x], [x, x, c * x], [c * x, c * x, c * x]]
        )
        assert np.allclose(M, expected, atol=1e-15)

    def test_negative_tail_value_breaks_psd(self):
        # f < 0 at the tail entry while f(w) != 0: the image cannot stay PSD
        M = tail_image(0.4, 0.7, Identity(), scaled_identity(-1.0), DISC1)
        assert not is_psd(M, 1e-10).is_psd

    def test_t_below_w_rejected(self):
        with pytest.raises(OutOfDomainError):
            tail_gram(0.6, 0.3, DISC1)


class TestAllOnesWitness:
    def test_zero_scale(self):
        wit = all_ones_witness(0.0, 3, DISC1)
        assert np.array_equal(wit.matrix, np.zeros((3, 3)))

    def test_unit_scale_spectrum(self):
        wit = all_ones_witness(1.0, 3, DISC)
        lo, hi = eig_extremes(wit.matrix)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)

    def test_star_image_psd_interval(self):
        # f = c id star-applied to x J_4 is PSD exactly for c in [-1/3, 1]
        wit = all_ones_witness(0.9, 4, DISC1)
        for c, expect in ((-1.0 / 3.0, True), (1.0, True), (-0.4, False), (1.1, False)):
            out = apply(OperatorSpec(f=scaled_identity(c), pattern=star_pattern(4), domain=DISC1), wit.matrix)
            assert is_psd(out, 1e-9).is_psd == expect

    def test_negative_scale_rejected(self):
        with pytest.raises(OutOfDomainError):
            all_ones_witness(-0.5, 3, DISC1)

    def test_zero_excluded_from_positive_domain(self):
        with pytest.raises(OutOfDomainError):
            all_ones_witness(0.0, 3, Domain.open_pos(1.0))


class TestTensorBlowup:
    def test_single_copy(self, rng):
        A = symmetrize(random_psd(rng, 3))
        assert np.array_equal(tensor_blowup(1, A).matrix, A)

    def test_identity_blowup_spectrum(self):
        wit = tensor_blowup(2, np.eye(2))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(wit.matrix), [0.0, 0.0, 2.0, 2.0], atol=1e-12
        )

    def test_entry_multiset_preserved(self, rng):
        A = symmetrize(random_psd(rng, 2))
        wit = tensor_blowup(3, A)
        assert set(np.round(wit.matrix.ravel(), 12)) == set(np.round(A.ravel(), 12))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            tensor_blowup(2, np.diag([1.0, -1.0]))


class TestPadEmbed:
    def test_no_padding_round_trip(self, rng):
        A = symmetrize(random_psd(rng, 3))
        assert np.array_equal(pad_embed(A, 3), A)

    def test_identity_padded(self):
        M = pad_embed(np.eye(2), 3)
        assert np.array_equal(M, np.diag([1.0, 1.0, 0.0]))

    def test_spectrum_union_with_zeros(self, rng):
        A = symmetrize(random_psd(rng, 3) - np.eye(3))
        lo_a, _ = eig_extremes(A)
        lo_m, _ = eig_extremes(pad_embed(A, 5))
        assert lo_m == pytest.approx(min(0.0, lo_a), abs=1e-12)

    def test_leading_block_recovered(self, rng):
        A = symmetrize(random_psd(rng, 3))
        assert np.array_equal(pad_embed(A, 6)[:3, :3], A)

    def test_positive_domain_rejects_padding(self):
        with pytest.raises(DomainLacksZeroError):
            pad_embed(np.eye(2), 3, domain=Domain.open_pos(1.0))


class TestCornerExtend:
    def test_one_by_one(self):
        M = corner_extend(np.array([[1.0]]), 0.5)
        assert np.allclose(M.real, [[1.0, 0.5], [0.5, 0.5]])
        assert det2(M).real == pytest.approx(0.25)
        assert is_psd(M, 1e-10).is_psd

    def test_all_ones_example(self):
        M = corner_extend(all_ones(2), 0.1)
        expected = np.array([[1, 1, 0.2], [1, 1, 0.2], [0.2, 0.2, 0.4]])
        assert np.allclose(M.real, expected, atol=1e-15)
        assert is_psd(M, 1e-10).is_psd

    def test_leading_block_exact_and_rank_bound(self, rng):
        B = np.abs(rng.standard_normal((4, 2))) + 0.1
        A = symmetrize(B @ B.T)
        A /= 2 * np.abs(A).max()
        M = corner_extend(A, 0.25)
        assert np.array_equal(M[:4, :4], A)
        assert np.linalg.matrix_rank(M, tol=1e-9) <= np.linalg.matrix_rank(A, tol=1e-9) + 1

    def test_eps_leaving_domain(self):
        A = 0.9 * all_ones(2)
        with pytest.raises(EpsTooLargeError):
            corner_extend(A, 0.5, domain=Domain.open_pos(1.0))

    def test_auto_eps_picks_largest_passer(self):
        A = 0.9 * all_ones(2)
        M, eps = corner_extend_auto(A, Domain.open_pos(1.0))
        assert Domain.open_pos(1.0).contains_array(M).all()
        # one step coarser already fails, so eps is maximal on the dyadic ladder
        with pytest.raises(EpsTooLargeError):
            corner_extend(A, 2 * eps, domain=Domain.open_pos(1.0))

    def test_auto_border_that_overflows_leaves_the_unbounded_domain(self):
        # the row sums 2e308 overflow to inf, which no domain holds, so no witness with an inf border is returned
        with np.errstate(over="ignore"), pytest.raises(EpsTooLargeError):
            corner_extend_auto(np.full((2, 2), 1e308), Domain.open_pos())

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(NonPositiveEntriesError):
            corner_extend(np.eye(2), 0.1)

    def test_tiny_eps_approaches_zero_padding(self):
        A = 0.5 * all_ones(2)
        padded = pad_embed(A, 3)
        M = corner_extend(A, 2.0 ** -30)
        assert np.abs(M - padded).max() <= 1e-8
        assert np.array_equal(M[:2, :2], padded[:2, :2])


class TestWitnessFiniteness:
    def test_infinite_all_ones_scale(self):
        # no domain holds inf, so the scale is refused before any entry is formed
        with pytest.raises(OutOfDomainError, match="x=inf must be a nonnegative real inside the domain"):
            all_ones_witness(math.inf, 3, DISC)

    def test_overflowing_gram(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEntryError):
            rank_one_gram([1e200, 1])

    def test_overflowing_pair_gram(self):
        # |z|^2 overflows in Python float arithmetic; |z| <= |w| keeps the other entries finite
        with pytest.raises(NonFiniteEntryError):
            duplicated_pair_gram(3e299, 1.5e299, Domain.disc(1e300))

    def test_overflowing_pair_gram_modulus(self):
        # both parts of w are finite, but |w| exceeds the float range, so w lies outside every domain
        with pytest.raises(OutOfDomainError, match=r"w=\(1\.5e\+308\+1\.5e\+308j\) is outside the domain"):
            duplicated_pair_gram(complex(1.5e308, 1.5e308), 0, DISC)

    def test_overflowing_tail_gram_modulus(self):
        with pytest.raises(OutOfDomainError, match="need \\|w\\| <= t with both inside the domain"):
            tail_gram(complex(1.5e308, 1.5e308), math.inf, DISC)

    def test_overflowing_overlap_modulus(self):
        with pytest.raises(OutOfDomainError):
            overlap_probe(1.0, complex(1.5e308, 1.5e308), DISC)


def old_corner_extend_auto(A, domain):
    """The eig-checked dyadic search that the closed-form eps replaced, kept as a reference."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    row_sums = A.real.sum(axis=1)
    for p in range(1, 31):
        eps = 2.0 ** -p
        M = np.zeros((n + 1, n + 1), dtype=np.complex128)
        M[:n, :n] = A
        M[:n, n] = eps * row_sums
        M[n, :n] = eps * row_sums
        M[n, n] = eps * A.real.sum()
        M = exact_hermitian(M)
        if is_psd(M, WITNESS_PSD_TOL).is_psd and (domain is None or domain.contains_array(M).all()):
            return M, eps
    raise EpsTooLargeError("no eps in 2^-1..2^-30 works")


def positive_psd(rng, n, top):
    """A positive-entried real PSD matrix whose largest entry is top."""
    B = np.abs(rng.standard_normal((n, int(rng.integers(1, n + 1))))) + 0.05
    A = B @ B.T
    return symmetrize(A * (top / A.max()))


class TestCornerExtendClosedForm:
    @pytest.mark.parametrize("rho", [1e-2, 0.3, 1.0, 7.5, 1e2, 1e4, math.inf])
    def test_same_eps_and_bytes_as_search(self, rng, rho):
        dom = Domain.open_pos(rho)
        top = 1.0 if math.isinf(rho) else 0.999 * dom.upper
        for n in range(1, 8):
            for frac in (1.0, 0.5, 0.13, 1e-3):
                A = positive_psd(rng, n, frac * top)
                for domain in (dom, None):
                    M, eps = corner_extend_auto(A, domain)
                    M_ref, eps_ref = old_corner_extend_auto(A, domain)
                    assert eps == eps_ref
                    assert M.tobytes() == M_ref.tobytes()

    def test_corner_on_the_boundary(self):
        dom = Domain.open_pos(0.5 / (1.0 - BOUNDARY_SLACK))
        assert dom.upper == 0.5
        A = 0.5 * all_ones(2)  # 1^T A 1 = 2 = upper * 2^2
        M, eps = corner_extend_auto(A, dom)
        M_ref, eps_ref = old_corner_extend_auto(A, dom)
        assert eps == eps_ref == 0.25
        assert M[2, 2] == 0.5
        assert M.tobytes() == M_ref.tobytes()

    def test_one_corner_extend_per_auto_call(self, monkeypatch, cold_cache):
        calls = []
        real = witnesses.corner_extend

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(witnesses, "corner_extend", counting)
        corner_extend_auto(0.9 * all_ones(3), Domain.open_pos(1.0))
        assert len(calls) == 1
        # the battery grows each of its 21 pair, tail and overlap witnesses from 3 x 3 to 8 x 8 once
        patterns = {n: single_block_rule({0, 1}).pattern(n) for n in range(1, 9)}
        for _ in _deterministic_battery(Domain.open_pos(1.0), patterns, 8):
            pass
        assert len(calls) == 1 + 21 * 5

    def test_non_psd_input_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1, positive entries
        with pytest.raises(ValueError, match="PSD"):
            corner_extend(A, 0.5)
        with pytest.raises(ValueError, match="PSD"):
            corner_extend_auto(A, Domain.open_pos())

    def test_empty_input_rejected(self):
        with pytest.raises(NonPositiveEntriesError):
            corner_extend_auto(np.zeros((0, 0)))

    def test_eps_above_one_rejected(self):
        with pytest.raises(EpsTooLargeError):
            corner_extend(all_ones(2), 1.5)

    def test_eps_one_allowed(self):
        M = corner_extend(all_ones(2), 1.0)
        assert is_psd(M, 1e-10).is_psd
        assert M[2, 2] == 4.0


def grown(A, k, domain):
    """A grown to k x k by zero-padding where the domain has 0, else by corner extensions."""
    if domain.has_zero:
        return pad_embed(A, k, domain=domain)
    while A.shape[0] < k:
        A, _ = corner_extend_auto(A, domain)
    return A


class TestLeadingBlocks:
    """Growing once to the largest size carries every smaller growth as its leading block."""

    @pytest.mark.parametrize("rho", [0.3, 1.0, 1e4, math.inf])
    @pytest.mark.parametrize("make", [Domain.open_pos, Domain.disc])
    def test_grow_once_then_take_leading_block(self, rng, rho, make):
        dom = make(rho)
        top = 1.0 if math.isinf(rho) else 0.9 * dom.upper
        for n in range(1, 8):
            A = positive_psd(rng, n, top)
            big = grown(A, 8, dom)
            assert big.shape == (8, 8)
            for k in range(n, 9):
                assert big[:k, :k].tobytes() == grown(A, k, dom).tobytes()
