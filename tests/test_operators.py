import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det2, random_psd
from psdmask.errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    NonHermitianOutputError,
    NonLinearFunctionError,
    OutOfDomainError,
)
from psdmask.functions import Custom, Domain, HerzMonomial, Identity, Zero, scaled_identity
from psdmask.linalg import all_ones, eig_extremes, identity, permute_conjugate, symmetrize
from psdmask.operators import (
    OperatorSpec,
    apply,
    decompose,
    mask_factorization,
    star_pattern,
)
from psdmask.patterns import normalize

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

    def test_tensor_identity(self, rng):
        # (g,f) star-applied to J_m (x) A splits into the two Kronecker terms
        from psdmask.linalg import kron

        A = symmetrize(random_psd(rng, 2))
        A /= 2 * np.abs(A).max()
        g, f = HerzMonomial(1.1, 1, 0), HerzMonomial(0.6, 1, 1)
        for m in (2, 3, 4):
            big = kron(np.ones((m, m)), A)
            lhs = apply(OperatorSpec(f=f, pattern=star_pattern(2 * m), domain=DISC1, g=g), big)
            f_img = apply(OperatorSpec(f=f, pattern=normalize([], 2), domain=DISC1), A)
            G, F = g.evaluate_array(A), f.evaluate_array(A)
            diag_term = np.where(np.eye(2, dtype=bool), G - F, 0)
            rhs = kron(np.ones((m, m)), f_img) + kron(np.eye(m), diag_term)
            assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, np.abs(lhs).max())

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
