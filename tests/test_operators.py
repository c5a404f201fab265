from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det2, permute_conjugate, random_psd
from psdmask.errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    NonHermitianOutputError,
    NonLinearFunctionError,
    OutOfDomainError,
)
from psdmask.functions import Custom, Domain, HerzMonomial, Identity, Zero, scaled_identity
from psdmask.linalg import all_ones, eig_extremes, identity, symmetrize
from psdmask.operators import (
    OperatorSpec,
    apply,
    decompose,
    mask_factorization,
    star_pattern,
)
from psdmask.patterns import contiguous_partition_rule, normalize
from psdmask.suite import _reduce_scalar
from psdmask.witnesses import tensor_blowup

DISC1 = Domain.disc(1.0)
DISC = Domain.disc()

_herz_or_linear = st.one_of(
    st.builds(HerzMonomial, st.floats(0, 2), st.integers(0, 3), st.integers(0, 3)),
    st.builds(scaled_identity, st.floats(-2, 2)),
)


def spec_of(f, blocks, n, g=None, domain=DISC):
    return OperatorSpec(
        f=f, pattern=normalize(blocks, n), domain=domain, g=g or Identity()
    )


class TestApply:
    def test_identity_pair_is_noop(self, rng):
        A = symmetrize(random_psd(rng, 4))
        out = apply(spec_of(Identity(), [{0, 1}, {2}], 4, g=Identity()), A)
        assert np.array_equal(out, A)

    def test_zero_function_empty_pattern(self, rng):
        A = symmetrize(random_psd(rng, 3))
        out = apply(spec_of(Zero(), [], 3), A)
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_doubling_off_one_masked_diagonal(self):
        # g on (0,0) only: x J_2 maps to [[x, 2x], [2x, 2x]], which is indefinite
        out = apply(spec_of(scaled_identity(2.0), [{0}], 2), all_ones(2))
        assert np.array_equal(out.real, np.array([[1.0, 2.0], [2.0, 2.0]]))
        assert det2(out).real == pytest.approx(-2.0)
        assert eig_extremes(out)[0] < 0

    def test_out_of_domain_reports_position(self):
        A = symmetrize([[0.5, 0.2], [0.2, 2.0]])
        with pytest.raises(OutOfDomainError, match=r"\(1,1\)"):
            apply(spec_of(Identity(), [], 2, domain=DISC1), A)

    def test_infinite_entry_lies_outside_the_unbounded_disc(self):
        A = np.array([[np.inf, 1.0], [1.0, 1.0]])
        for domain in (DISC1, Domain.disc()):
            with pytest.raises(OutOfDomainError, match=r"entry \(0,0\) = \(inf\+0j\) lies outside"):
                apply(OperatorSpec(HerzMonomial(1.0, 1, 0), star_pattern(2), domain), A)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(spec_of(Identity(), [], 3), np.eye(2))

    def test_non_equivariant_custom_rejected(self):
        f = Custom(lambda z: 1j, name="const_i")
        with pytest.raises(NonHermitianOutputError):
            apply(spec_of(f, [], 2), all_ones(2) * 0.5)

    def test_masked_entries_use_g(self, rng):
        A = symmetrize(random_psd(rng, 4))
        A /= 2 * np.abs(A).max()
        g = HerzMonomial(1.0, 2, 0)
        f = Zero()
        spec = spec_of(f, [{0, 1}], 4, g=g, domain=DISC1)
        out = apply(spec, A)
        mask = spec.pattern.mask
        assert np.allclose(out[mask], g.evaluate_array(A)[mask], atol=1e-15)
        assert np.all(out[~mask] == 0)


def star_spec(f, n):
    return OperatorSpec(f=f, pattern=star_pattern(n), domain=DISC)


class TestApplyStar:
    """``apply`` with the all-singletons pattern: the identity on the diagonal, f off it."""

    def test_zero_keeps_diagonal(self, rng):
        A = symmetrize(random_psd(rng, 4))
        out = apply(star_spec(Zero(), 4), A)
        assert np.array_equal(out, np.diag(A.diagonal()))

    def test_scaled_identity_on_all_ones(self):
        # f = c id on x J_n gives c x J_n + (1-c) x Id_n
        n, c, x = 4, -0.25, 0.8
        out = apply(star_spec(scaled_identity(c), n), x * all_ones(n))
        expected = c * x * all_ones(n) + (1 - c) * x * identity(n)
        assert np.allclose(out, expected, atol=1e-15)

    def test_identity_is_noop(self, rng):
        A = symmetrize(random_psd(rng, 3))
        assert np.array_equal(apply(star_spec(Identity(), 3), A), A)


class TestDecompose:
    def test_equal_functions_make_zero_part(self, rng):
        A = symmetrize(random_psd(rng, 3))
        f = HerzMonomial(1.0, 1, 0)
        spec = OperatorSpec(f=f, pattern=normalize([{0, 1}], 3), domain=DISC, g=f)
        _, part2 = decompose(spec, A)
        assert np.abs(part2).max() <= 1e-15 * max(1.0, np.abs(A).max())

    def test_zero_f_all_singletons(self, rng):
        A = symmetrize(random_psd(rng, 3))
        spec = OperatorSpec(f=Zero(), pattern=star_pattern(3), domain=DISC)
        part1, part2 = decompose(spec, A)
        assert np.array_equal(part1, np.zeros((3, 3)))
        assert np.array_equal(part2, np.diag(A.diagonal()))

    def test_parts_reassemble(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = symmetrize(random_psd(rng, n))
            A /= 2 * max(1.0, np.abs(A).max())
            blocks = [set(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
                      for _ in range(int(rng.integers(0, 3)))]
            spec = OperatorSpec(
                f=HerzMonomial(0.8, 1, 1),
                pattern=normalize(blocks, n),
                domain=DISC1,
                g=HerzMonomial(1.2, 2, 0),
            )
            out = apply(spec, A)
            p1, p2 = decompose(spec, A)
            assert np.abs(p1 + p2 - out).max() <= 1e-14 * max(1.0, np.abs(out).max())

    def test_part2_vanishes_off_mask_exactly(self, rng):
        A = symmetrize(random_psd(rng, 4))
        A /= 2 * np.abs(A).max()
        spec = OperatorSpec(
            f=HerzMonomial(0.5, 2, 1), pattern=normalize([{1, 2}], 4), domain=DISC1,
            g=Identity(),
        )
        _, p2 = decompose(spec, A)
        mask = spec.pattern.mask
        assert np.all(p2[~mask] == 0)


class TestMaskFactorization:
    def test_identity_scalar(self, rng):
        A = symmetrize(random_psd(rng, 3))
        spec = OperatorSpec(f=scaled_identity(1.0), pattern=normalize([{0, 1}], 3), domain=DISC)
        assert np.array_equal(mask_factorization(spec, A), A)

    def test_zero_scalar_empty_pattern(self, rng):
        A = symmetrize(random_psd(rng, 3))
        spec = OperatorSpec(f=Zero(), pattern=normalize([], 3), domain=DISC)
        assert np.array_equal(mask_factorization(spec, A), np.zeros((3, 3)))

    def test_negative_scalar_partition(self, rng):
        A = symmetrize(random_psd(rng, 6))
        A /= 2 * np.abs(A).max()
        spec = OperatorSpec(
            f=scaled_identity(-0.5),
            pattern=normalize([{0, 1}, {2, 3}, {4, 5}], 6),
            domain=DISC1,
        )
        lhs = mask_factorization(spec, A)
        rhs = apply(spec, A)
        assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, np.abs(rhs).max())

    def test_nonlinear_rejected(self):
        spec = OperatorSpec(f=HerzMonomial(1.0, 2, 0), pattern=normalize([], 2), domain=DISC)
        with pytest.raises(NonLinearFunctionError):
            mask_factorization(spec, np.eye(2))

    def test_non_identity_g_rejected(self):
        spec = OperatorSpec(
            f=scaled_identity(0.5), pattern=normalize([{0}], 2), domain=DISC,
            g=HerzMonomial(1.0, 2, 0),
        )
        with pytest.raises(NonLinearFunctionError):
            mask_factorization(spec, np.eye(2))


class TestOperatorInvariants:
    def test_commutes_with_permutation(self, rng):
        n = 5
        A = symmetrize(random_psd(rng, n))
        A /= 2 * np.abs(A).max()
        sigma = rng.permutation(n).tolist()
        blocks = [{0, 1}, {3, 4}]
        f, g = HerzMonomial(0.7, 1, 1), HerzMonomial(1.0, 2, 0)
        spec = OperatorSpec(f=f, pattern=normalize(blocks, n), domain=DISC1, g=g)
        lhs = permute_conjugate(apply(spec, A), sigma)
        moved_blocks = [{p for p in range(n) if sigma[p] in b} for b in blocks]
        moved = OperatorSpec(f=f, pattern=normalize(moved_blocks, n), domain=DISC1, g=g)
        rhs = apply(moved, permute_conjugate(A, sigma))
        assert np.abs(lhs - rhs).max() <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_relabeling_commutes_with_apply(self, data):
        # moving the pattern by sigma and conjugating the input by sigma gives the
        # sigma-conjugate of the image, bit for bit: apply is entrywise
        n = data.draw(st.integers(1, 8))
        blocks = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))
        sigma = data.draw(st.permutations(range(n)))
        g, f = data.draw(_herz_or_linear), data.draw(_herz_or_linear)
        A = symmetrize(random_psd(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n))
        A /= 2 * np.abs(A).max()
        image = apply(OperatorSpec(f=f, pattern=normalize(blocks, n), domain=DISC1, g=g), A)
        moved_blocks = [{p for p in range(n) if sigma[p] in b} for b in blocks]
        moved = OperatorSpec(f=f, pattern=normalize(moved_blocks, n), domain=DISC1, g=g)
        assert np.array_equal(apply(moved, permute_conjugate(A, sigma)), permute_conjugate(image, sigma))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_heredity_on_leading_blocks(self, data):
        # where T_n's leading k x k block is T_k, the image of each A[:k, :k] is the
        # leading block of A's image, bit for bit: apply is entrywise
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, n))
        blocks = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))
        g, f = data.draw(_herz_or_linear), data.draw(_herz_or_linear)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A = np.array([symmetrize(random_psd(rng, n)) for _ in range(data.draw(st.integers(1, 4)))])
        A /= 2 * np.abs(A).max(axis=(1, 2), keepdims=True)
        T_n, T_k = normalize(blocks, n), normalize([b & set(range(k)) for b in blocks], k)
        assert np.array_equal(T_k.mask, T_n.mask[:k, :k])
        image = apply(OperatorSpec(f=f, pattern=T_n, domain=DISC1, g=g), A)
        assert np.array_equal(apply(OperatorSpec(f=f, pattern=T_k, domain=DISC1, g=g), A[:, :k, :k]),
                              image[:, :k, :k])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tensor_blowup_scales_the_spectrum(self, data):
        # under the blown-up pattern (each block B of T_n becomes the indices a n + i, i in B, of every copy a),
        # the image of J_m (x) A is J_m (x) the image of A entry for entry: apply is entrywise.  So its spectrum
        # is the image's times m, plus n (m - 1) zeros: each eigenvalue within 4 (n m)^2 eps m ||image||_2 of
        # that, the eigensolver's backward error on both sides, plus m 2^-1074 for their rounding to subnormals.
        # Both spectra come from eigh, whose QL iteration carries that bound; eigvalsh's root-free QR
        # (LAPACK's sterf) squares the off-diagonals, and where those squares underflow its error is far
        # larger: on n = 4, m = 2, T = [{0, 1}], g = 3.8e-157 z, f = 1, seed 0 its lowest eigenvalue is off by 1e-9
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(2, 8 // n))
        blocks = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4))
        g, f = data.draw(_herz_or_linear), data.draw(_herz_or_linear)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A = np.array([symmetrize(random_psd(rng, n)) for _ in range(data.draw(st.integers(1, 4)))])
        A /= 2 * np.abs(A).max(axis=(1, 2), keepdims=True)
        big = np.tile(A, (1, m, m))
        assert np.array_equal(big[0], tensor_blowup(m, A[0]).matrix)
        T_nm = normalize([{a * n + i for a in range(m) for i in b} for b in blocks], n * m)
        image = apply(OperatorSpec(f=f, pattern=normalize(blocks, n), domain=DISC1, g=g), A)
        blown = apply(OperatorSpec(f=f, pattern=T_nm, domain=DISC1, g=g), big)
        assert np.array_equal(blown, np.tile(image, (1, m, m)))
        w = np.linalg.eigh(image)[0]
        want = np.sort(np.concatenate([m * w, np.zeros((len(A), n * (m - 1)))], axis=1), axis=1)
        bound = 4 * (n * m) ** 2 * np.finfo(float).eps * m * np.abs(w).max(axis=1, keepdims=True) + m * 2.0 ** -1074
        assert (np.abs(np.linalg.eigh(blown)[0] - want) <= bound).all()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_partition_induction_step(self, data):
        # R3a's induction step (criterion 12), exactly: peeling the last of T_n's K blocks maps c in
        # [-1/(K-1), 0) to c' = c/(1+c) in [-1/(K-2), 0), and on the leading part A' that holds the other
        # K-1 blocks, (f_T[A'] - c^2 A') / (1 - c^2) is the same map with c' entry for entry.  A' is an
        # integer Gram and c a dyadic rational, so each image apply returns is exact and both sides are
        # compared as rationals
        K = data.draw(st.integers(3, 6))
        j = data.draw(st.integers(3, 12))
        c = Fraction(-data.draw(st.integers(1, 2**j // (K - 1))), 2**j)
        reduced = _reduce_scalar(c)
        assert Fraction(-1, K - 1) <= c < 0 and Fraction(-1, K - 2) <= reduced < 0
        n = data.draw(st.integers(K, 8))
        *blocks, last = sorted(contiguous_partition_rule(K).pattern(n).blocks, key=min)
        m = n - len(last)
        B = np.array(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1,
                                        max_size=3))).T
        A = (B @ B.T).astype(np.complex128)
        T = normalize(blocks, m)
        image = apply(OperatorSpec(f=scaled_identity(float(c)), pattern=T, domain=DISC), A)
        on_blocks = apply(OperatorSpec(f=Zero(), pattern=T, domain=DISC), A)  # A' on T's blocks, 0 elsewhere
        assert not image.imag.any() and not on_blocks.imag.any()
        exact = np.vectorize(lambda x: Fraction(float(x)), otypes=[object])
        image, on_blocks, A = exact(image.real), exact(on_blocks.real), exact(A.real)
        assert ((image - c * c * A) / (1 - c * c) == on_blocks + reduced * (A - on_blocks)).all()

    def test_output_hermitian(self, rng):
        A = symmetrize(random_psd(rng, 4))
        A /= 2 * np.abs(A).max()
        out = apply(
            OperatorSpec(
                f=HerzMonomial(0.9, 2, 1), pattern=normalize([{0, 2}], 4), domain=DISC1,
                g=HerzMonomial(0.4, 0, 1),
            ),
            A,
        )
        assert np.array_equal(out, out.conj().T)


class TestSettleThreshold:
    """``symmetrize`` (input) and ``apply`` (image) settle on one rule: an
    asymmetry above 1e-8 times max(1, largest entry modulus) is an error, one
    below it is averaged away, to the same bytes."""

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    @pytest.mark.parametrize("factor", [1.01, 0.99], ids=["above", "below"])
    def test_input_and_image_share_the_threshold(self, scale, factor):
        raw = np.array([[scale, 0.5 + factor * 1e-8 * scale], [0.5, 0.25]], dtype=np.complex128)
        spec = spec_of(Identity(), [], 2)
        if factor > 1.0:
            with pytest.raises(AsymmetricInputError):
                symmetrize(raw)
            with pytest.raises(NonHermitianOutputError):
                apply(spec, raw)
            with pytest.raises(NonHermitianOutputError):
                apply(spec, np.stack([np.eye(2), raw]))
        else:
            settled = symmetrize(raw)
            assert np.array_equal(apply(spec, raw), settled)
            assert np.array_equal(apply(spec, np.stack([np.eye(2), raw]))[1], settled)
            assert settled[0, 1] == np.conj(settled[1, 0])
