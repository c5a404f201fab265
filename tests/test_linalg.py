import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chol_psd, eig2, permute_conjugate, random_psd
from psdmask.errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    EigFailure,
    NonFiniteEntryError,
    NonHermitianOutputError,
    NonSquareError,
    SingularBlockError,
)
from psdmask.functions import Custom, Domain, HerzMonomial, HerzSeries, Identity, ScalarMultiple, Zero
from psdmask.linalg import (
    ASYM_TOL,
    _cleared,
    _settle,
    all_ones,
    eig_extremes,
    exact_hermitian,
    identity,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    psd_holds,
    schur_complement,
    schur_product,
    symmetrize,
)
from psdmask.operators import OperatorSpec, apply
from psdmask.patterns import empty_rule, normalize
from psdmask.verify import _padded, sample_psd, verify_preservation


class TestSymmetrize:
    def test_identity_unchanged(self):
        M = symmetrize([[1, 0], [0, 1]])
        assert np.array_equal(M, np.eye(2))

    def test_imaginary_offdiagonal_kept(self):
        raw = np.array([[0, 1j], [-1j, 0]])
        M = symmetrize(raw)
        assert np.array_equal(M, raw)

    def test_asymmetric_rejected(self):
        # |2 - 0| far above the 1e-8 relative tolerance
        with pytest.raises(AsymmetricInputError):
            symmetrize([[1, 2], [0, 1]])

    def test_small_noise_accepted_and_averaged(self):
        M = symmetrize([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        assert M[0, 1] == pytest.approx(0.5, abs=1e-11)
        assert M[0, 1] == np.conj(M[1, 0])

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            symmetrize([[1, 2, 3], [4, 5, 6]])

    def test_non_finite(self):
        with pytest.raises(NonFiniteEntryError):
            symmetrize([[np.nan, 0], [0, 1]])

    def test_storage_exactness(self, rng):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        M = symmetrize((A + A.conj().T) / 2)
        assert np.array_equal(M, M.conj().T)
        assert np.all(M.diagonal().imag == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        g = np.random.default_rng(seed)
        A = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
        once = symmetrize((A + A.conj().T) / 2)
        assert np.array_equal(symmetrize(once), once)


def _old_settle(raw, error, what):
    """The settle as it was: the asymmetry weighed on every stack, then (raw + raw*)/2."""
    raw_h = np.swapaxes(raw, -1, -2).conj()
    scale = np.fmax(1.0, np.abs(raw).max(axis=(-2, -1)))
    gap = np.abs(raw - raw_h).max(axis=(-2, -1))
    asym = gap > ASYM_TOL * scale
    if asym.any():
        raise error(f"{what}: asymmetry {gap[asym][0]:.3e} exceeds {ASYM_TOL:.1e} * {scale[asym][0]:.3e}")
    return exact_hermitian((raw + raw_h) / 2.0)


def _settled_or_error(settle, raw):
    try:
        return settle(raw, AsymmetricInputError, "stack")
    except AsymmetricInputError as exc:
        return exc


def _stack(g, k, n, kind, exponent, specials, nans):
    """A (k, n, n) stack of entries about 10**exponent: exactly conjugate-symmetric
    with zero signs drawn anew on both sides ("exact"), or with half its entries
    moved by up to about 1e-9 ("within") or 1e-5 ("beyond") of max(1, its
    largest finite entry modulus).  Before the mirror, ``specials`` parts are set
    to +-0 or +-inf; after it, ``nans`` parts to NaN."""
    H = (g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))) * 10.0 ** exponent
    parts = H.view(np.float64).reshape(k, n, n, 2)
    for _ in range(specials):
        parts[tuple(g.integers(0, (k, n, n, 2)))] = g.choice([0.0, -0.0, np.inf, -np.inf])
    rows, cols = np.triu_indices(n, 1)
    H[:, cols, rows] = np.conj(H[:, rows, cols])
    d = np.arange(n)
    H.imag[:, d, d] = 0.0
    parts[...] = np.where(parts == 0.0, np.copysign(0.0, g.standard_normal(parts.shape)), parts)
    if kind != "exact":
        finite = np.where(np.isfinite(H), np.abs(H), 0.0).max(axis=(1, 2))
        step = (1e-10 if kind == "within" else 1e-6) * np.fmax(1.0, finite)[:, None, None]
        moved = g.random((k, n, n)) < 0.5
        H = np.where(moved, H + step * (g.standard_normal((k, n, n)) + 1j * g.standard_normal((k, n, n))), H)
        parts = H.view(np.float64).reshape(k, n, n, 2)
    for _ in range(nans):
        parts[tuple(g.integers(0, (k, n, n, 2)))] = np.nan
    return H


LIBRARY_FUNCTIONS = [
    Identity(), Zero(), ScalarMultiple(-0.7, Identity()), HerzMonomial(0.5, 2, 1), HerzMonomial(1.5, 0, 0),
    HerzMonomial(2.0, 3, 0), HerzSeries({(0, 0): 0.1, (1, 0): 0.5, (1, 1): 0.3, (2, 3): 2.0}),
    ScalarMultiple(0.25, HerzSeries({(1, 0): 1.0, (0, 2): 0.5})),
]


class TestSettle:
    """The settle halves before it adds, and weighs the asymmetry only when some
    entry differs from its mirror; otherwise it is the old add-then-halve settle."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), n=st.integers(1, 8),
           kind=st.sampled_from(["exact", "within", "beyond"]), exponent=st.sampled_from([-300, -8, 0, 8, 300]),
           specials=st.integers(0, 6), nans=st.sampled_from([0, 0, 1]), real=st.booleans())
    def test_agrees_with_the_old_settle(self, seed, k, n, kind, exponent, specials, nans, real):
        # entries stay below 1e301, so no sum overflows, and (but for a normal draw within 1e-8 of 0)
        # above 1e-307, so no half is subnormal
        g = np.random.default_rng(seed)
        raw = _stack(g, k, n, kind, exponent, specials, nans)
        raw = raw.real.copy() if real else raw
        before = raw.copy()
        with np.errstate(invalid="ignore"):
            old, new = _settled_or_error(_old_settle, raw), _settled_or_error(_settle, raw)
        assert np.array_equal(raw, before, equal_nan=True) and raw.dtype == before.dtype
        if isinstance(old, Exception):
            assert type(new) is type(old) and str(new) == str(old)
            return
        assert not isinstance(new, Exception), new
        assert new.dtype == np.complex128 and new.shape == old.shape
        # bit for bit, but for NaN payloads and the sign of a zero: the old division by 2
        # took a zero's sign from the entry's other part as well
        assert np.array_equal(new.view(np.float64), old.view(np.float64), equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           domain=st.sampled_from([Domain.disc(1.0), Domain.open_sym(1.0), Domain.half_open_nonneg(1.0),
                                   Domain.open_pos(1.0)]),
           f=st.sampled_from(LIBRARY_FUNCTIONS), g_fn=st.sampled_from(LIBRARY_FUNCTIONS))
    def test_library_images_equal_their_mirrors(self, seed, n, domain, f, g_fn):
        # the image apply settles (g on the mask, f elsewhere) of an exactly Hermitian stack
        # skips the asymmetry check: every entry equals its mirror
        g = np.random.default_rng(seed)
        W = np.array([sample_psd(g, n, domain) for _ in range(4)])
        pattern = normalize([np.flatnonzero(g.random(n) < 0.5) for _ in range(g.integers(0, 4))], n)
        raw = np.where(pattern.mask, g_fn.evaluate_array(W), f.evaluate_array(W))
        assert (raw == np.conj(np.swapaxes(raw, -1, -2))).all()
        out = apply(OperatorSpec(f=f, pattern=pattern, domain=domain, g=g_fn), W)
        assert np.array_equal(out, _old_settle(raw, NonHermitianOutputError, "image"))

    def test_non_equivariant_custom_keeps_its_error(self):
        spec = OperatorSpec(f=Custom(lambda z: 1j * z, name="times_i"), pattern=normalize([], 2),
                            domain=Domain.disc(1.0))
        with pytest.raises(NonHermitianOutputError) as info:
            apply(spec, np.array([[0.5, 0.25], [0.25, 0.5]]))
        assert str(info.value) == ("entrywise image is non-Hermitian (check the conjugate equivariance of g and f): "
                                   "asymmetry 1.000e+00 exceeds 1.0e-08 * 1.000e+00")

    def test_a_sum_past_the_float_range_does_not_overflow(self):
        M = symmetrize([[9e307, 9e307], [9e307, 9e307]])
        assert np.array_equal(M, np.full((2, 2), 9e307))

    def test_identity_near_the_float_range_is_not_refuted(self):
        # the add-then-halve settle overflowed at x = 9e307 and read the NaN eigenvalues as Refuted;
        # now the first witness past the float range raises
        with pytest.raises(NonFiniteEntryError):
            verify_preservation(Identity(), Identity(), empty_rule(), Domain.open_sym(1e308))


class TestEigExtremes:
    def test_scaled_all_ones(self):
        lo, hi = eig_extremes(2.0 * all_ones(3))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(6.0, abs=1e-12)

    def test_convex_identity_mix(self):
        # c x J + (1-c) x I has eigenvalues (1-c)x and (1 + (n-1)c)x
        n, c, x = 5, 0.3, 0.7
        M = c * x * all_ones(n) + (1 - c) * x * identity(n)
        lo, hi = eig_extremes(M)
        assert lo == pytest.approx((1 - c) * x, abs=1e-10)
        assert hi == pytest.approx((1 + (n - 1) * c) * x, abs=1e-10)

    def test_complex_two_by_two(self):
        M = symmetrize([[1, 1j], [-1j, 1]])
        lo, hi = eig_extremes(M)
        ref_lo, ref_hi = eig2(1.0, 1j, 1.0)
        assert lo == pytest.approx(ref_lo.real, abs=1e-12)
        assert hi == pytest.approx(ref_hi.real, abs=1e-12)
        assert (lo, hi) == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))

    def test_dimension_cap(self):
        with pytest.raises(EigFailure):
            eig_extremes(np.eye(65))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (2, 3), (4, 2, 3), (3,)])
    def test_empty_or_non_square_rejected(self, shape):
        with pytest.raises(NonSquareError):
            eig_extremes(np.zeros(shape))
        with pytest.raises(NonSquareError):
            is_psd(np.zeros(shape))

    def test_empty_stack_of_matrices_allowed(self):
        lo, hi = eig_extremes(np.zeros((0, 3, 3)))
        assert lo.shape == hi.shape == (0,)


class TestIsPsd:
    def test_zero_matrix(self):
        rep = is_psd(np.zeros((3, 3)))
        assert rep.is_psd and rep.min_eig == pytest.approx(0.0, abs=1e-15)

    def test_indefinite(self):
        rep = is_psd(symmetrize([[1, 2], [2, 1]]))
        lo, hi = eig2(1.0, 2.0, 1.0)
        assert not rep.is_psd
        assert rep.min_eig == pytest.approx(lo, abs=1e-12) == pytest.approx(-1.0)
        assert rep.max_eig == pytest.approx(hi, abs=1e-12) == pytest.approx(3.0)

    def test_gram_is_psd(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rep = is_psd(np.outer(v, v.conj()))
        assert rep.is_psd

    def test_report_invariant(self, rng):
        for _ in range(20):
            M = symmetrize(random_psd(rng, 4) - 2.0 * np.eye(4))
            rep = is_psd(M, tol=1e-9)
            assert rep.is_psd == (rep.min_eig >= -1e-9 * max(1.0, abs(rep.max_eig)))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2), tol=-1.0)


def _tol_floor(n):
    return 16 * n ** 3 * np.finfo(np.float64).eps


# Smallest eigenvalues planted around the screen's edges, as multiples of
# m = max(1, largest diagonal entry): +-tol m (1 +- 1e-6), the shift
# -(tol/2) m (1 +- 1e-6), and 0.
PLANTS = [(k, 1.0 + d) for k in (1.0, -1.0, -0.5) for d in (1e-6, -1e-6)] + [(0.0, 1.0)]


def _planted(g, n, complex_entries, scale, aligned, plant, tol):
    """A settled Hermitian matrix with largest eigenvalue scale, the others
    but the smallest in [0, scale], and the smallest plant[0] tol m plant[1].
    An aligned matrix has e_0 as its top eigenvector, so its largest
    eigenvalue is its largest diagonal entry."""
    Z = g.standard_normal((n, n)) + (1j * g.standard_normal((n, n)) if complex_entries else 0)
    Q = np.linalg.qr(Z)[0]
    if aligned and n > 1:
        Q[0, :] = Q[:, 0] = 0
        Q[0, 0] = 1
        Q[1:, 1:] = np.linalg.qr(Z[1:, 1:])[0]
    lam = np.concatenate([[scale], g.uniform(0, scale, max(n - 2, 0)), [0.0]])[-n:]
    H0 = (Q * lam) @ Q.conj().T
    m = max(1.0, float(H0.real.diagonal().max()))
    q = Q[:, -1:]
    H = H0 + plant[0] * tol * m * plant[1] * (q @ q.conj().T)
    return exact_hermitian((H + H.conj().T) / 2.0)


class TestClearedScreen:
    """``_cleared`` passes a stack only where ``eigvalsh`` would pass it."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]),
           complex_entries=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 1e6]),
           aligned=st.booleans(), plants=st.lists(st.sampled_from(PLANTS), min_size=1, max_size=3),
           tol=st.sampled_from([("floor", 1.0), ("floor", 1.01), ("floor", 4.0), ("floor", 1e3),
                                1e-12, 1e-8, 1e-4]))
    def test_cleared_implies_eigvalsh_passes(self, seed, n, complex_entries, scale, aligned, plants, tol):
        tol = tol[1] * _tol_floor(n) if isinstance(tol, tuple) else tol
        g = np.random.default_rng(seed)
        H = np.array([_planted(g, n, complex_entries, scale, aligned, p, tol) for p in plants])
        cleared = _cleared(H, tol)
        if cleared:
            lo, hi = eig_extremes(H)
            assert psd_holds(lo, hi, tol).all()
        if tol >= _tol_floor(n) and all(p[0] >= 0 for p in plants):
            assert cleared  # the shift clears every PSD stack above the floor, so the screen is not vacuous

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([2, 3, 5, 8]),
           members=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 2), st.booleans(),
                                      st.sampled_from([1e-3, 1.0, 1e6]), st.booleans(), st.sampled_from(PLANTS)),
                            min_size=2, max_size=4),
           tol=st.sampled_from([("floor", 1.0), ("floor", 4.0), 1e-8, 1e-4]))
    def test_a_cleared_padded_batch_passes_every_member(self, seed, size, members, tol):
        # verify screens a battery section's stacks of every n <= max_n at once, each in the leading block of a
        # max_n x max_n slot whose rest is the identity; members are real (float64) or complex stacks
        tol = tol[1] * _tol_floor(size) if isinstance(tol, tuple) else tol
        g = np.random.default_rng(seed)
        stacks = []
        for n, k, complex_entries, scale, aligned, plant in members:
            H = np.array([_planted(g, min(n, size), complex_entries, scale, aligned, plant, tol) for _ in range(k)])
            stacks.append(H if complex_entries else H.real.copy())
        padded, at = _padded(stacks, size), 0
        for H in stacks:  # each member leads its slots, whose rest is the identity
            want = np.array([np.eye(size)] * len(H), dtype=padded.dtype)
            want[:, :H.shape[-1], :H.shape[-1]] = H
            assert np.array_equal(padded[at:at + len(H)], want)
            at += len(H)
        assert at == len(padded)
        cleared = _cleared(padded, tol)
        if cleared:
            for H in stacks:
                assert psd_holds(*eig_extremes(H), tol).all()
        if tol >= _tol_floor(size) and all(p[0] >= 0 for *_, p in members):
            assert cleared  # a batch of PSD members clears above the floor at the padded size: not vacuous

    def test_never_cleared_below_the_tol_floor(self):
        for n in (1, 8, 64):
            assert _cleared(np.eye(n)[None], _tol_floor(n))
            assert not _cleared(np.eye(n)[None], np.nextafter(_tol_floor(n), 0))
            assert not _cleared(np.eye(n)[None], 0.0)

    def test_non_finite_entry_never_cleared(self):
        for bad in (np.nan, np.inf, complex(0, np.inf)):
            H = np.array([np.eye(3), np.eye(3)], dtype=np.complex128)
            H[1, 2, 2] = bad
            assert not _cleared(H, 1e-8)

    @pytest.mark.parametrize("upper, lower", [(0.25, 0.0), (0.25, -0.25), (0.25j, 0.25j), (0.25 + 1e-9j, 0.25),
                                              (0.25 + 5e-324j, 0.25 + 5e-324j)],
                             ids=["one_sided", "antisymmetric", "imaginary_not_conjugated", "imaginary_part_off",
                                  "subnormal_imaginary_not_conjugated"])
    def test_a_stack_that_differs_from_its_conjugate_transpose_is_never_cleared(self, upper, lower):
        # positive definite on either triangle, which is all a Cholesky reads: only the symmetry check stops it
        H = np.array([np.eye(3), np.eye(3)], dtype=np.complex128)
        H[1, 0, 1], H[1, 1, 0] = upper, lower
        assert _cleared(H[:1], 1e-8) and not _cleared(H, 1e-8)
        if isinstance(upper, float) and isinstance(lower, float):
            assert not _cleared(H.real.copy(), 1e-8)

    def test_a_1_by_1_stack_with_an_imaginary_part_is_never_cleared(self):
        H = np.array([[[1.0]], [[1.0 + 5e-324j]]])
        assert _cleared(H[:1], 1e-8) and not _cleared(H, 1e-8)

    def test_one_failing_matrix_keeps_the_stack_uncleared(self):
        H = np.array([np.eye(2), [[1.0, 0.0], [0.0, -1e-3]]], dtype=np.complex128)
        assert _cleared(H[:1], 1e-8) and not _cleared(H, 1e-8)


class TestSchurProduct:
    def test_ones_is_neutral(self, rng):
        A = symmetrize(random_psd(rng, 4))
        assert np.array_equal(schur_product(A, all_ones(4)), A)

    def test_identity_extracts_diagonal(self, rng):
        A = symmetrize(random_psd(rng, 4))
        D = schur_product(A, identity(4))
        assert np.array_equal(D, np.diag(A.diagonal()))

    def test_psd_closure_sampled(self, rng):
        for _ in range(25):
            A = symmetrize(random_psd(rng, 4))
            B = symmetrize(random_psd(rng, 4))
            lo, _ = eig_extremes(schur_product(A, B))
            assert lo >= -1e-10 * max(1.0, np.abs(A).max() * np.abs(B).max())

    def test_hadamard_powers_stay_psd(self, rng):
        A = symmetrize(random_psd(rng, 5))
        A /= np.abs(A).max()
        P = all_ones(5)
        for _ in range(5):
            P = schur_product(P, A)
            assert is_psd(P, 1e-8).is_psd

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            schur_product(np.eye(2), np.eye(3))


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(identity(2), identity(3)), identity(6))

    def test_all_ones_doubles_spectrum(self, rng):
        A = symmetrize(random_psd(rng, 3))
        big = kron(all_ones(2), A)
        expected = np.sort(np.concatenate([np.zeros(3), 2.0 * np.linalg.eigvalsh(A)]))
        np.testing.assert_allclose(np.linalg.eigvalsh(big), expected, atol=1e-10)

    def test_psd_closure(self, rng):
        A = symmetrize(random_psd(rng, 2))
        B = symmetrize(random_psd(rng, 3))
        assert is_psd(kron(A, B), 1e-9).is_psd


class TestSchurComplement:
    def test_identity_block(self):
        C = schur_complement(identity(3), {2})
        assert np.array_equal(C, identity(2))

    def test_psd_complement(self, rng):
        for _ in range(10):
            A = symmetrize(random_psd(rng, 4) + 0.5 * np.eye(4))
            C = schur_complement(A, {3})
            assert is_psd(C, 1e-9).is_psd
            assert chol_psd(C)

    def test_singular_block(self):
        M = symmetrize(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(SingularBlockError):
            schur_complement(M, {2})

    def test_two_by_two_closed_form(self):
        M = symmetrize([[2.0, 1.0], [1.0, 4.0]])
        C = schur_complement(M, {1})
        assert C[0, 0] == pytest.approx(2.0 - 1.0 / 4.0)

    def test_finite_complement_near_the_float_range_does_not_overflow(self):
        # (C + C*)/2 overflowed to inf here; C/2 + C*/2 is C
        C = schur_complement([[1.7e308, 0], [0, 1.7e308]], {0})
        assert np.array_equal(C, [[1.7e308]])

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), n=st.integers(2, 8),
           exponent=st.sampled_from([-100, -8, 0, 8, 100]), real=st.booleans(), data=st.data())
    def test_agrees_with_the_old_complement(self, seed, k, n, exponent, real, data):
        # entries about 10**exponent: no sum overflows and no half is subnormal, so halving
        # before adding is the old add-then-halve, bit for bit
        g = np.random.default_rng(seed)
        B = g.standard_normal((k, n, n)) + (0.0 if real else 1j * g.standard_normal((k, n, n)))
        M = exact_hermitian((B @ np.swapaxes(B.conj(), -1, -2) + np.eye(n)) * 10.0 ** exponent)
        block = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        blk = np.array(sorted(block))
        rest = np.array([i for i in range(n) if i not in block])
        solved = np.linalg.solve(M[:, blk[:, None], blk], M[:, blk[:, None], rest])
        C = M[:, rest[:, None], rest] - M[:, rest[:, None], blk] @ solved
        old = exact_hermitian((C + np.swapaxes(C, -1, -2).conj()) / 2.0)
        new = schur_complement(M, block)
        # bit for bit up to the sign of a zero, compared as TestSettle compares the settles
        assert np.array_equal(new.view(np.float64), old.view(np.float64))


class TestPermuteConjugate:
    def test_identity_permutation(self, rng):
        A = symmetrize(random_psd(rng, 4))
        assert np.array_equal(permute_conjugate(A, range(4)), A)

    def test_swap_on_diagonal(self):
        M = np.diag([1.0, 2.0, 3.0]).astype(complex)
        P = permute_conjugate(M, [2, 1, 0])
        assert np.array_equal(P, np.diag([3.0, 2.0, 1.0]))

    def test_spectrum_invariant(self, rng):
        A = symmetrize(random_psd(rng, 5))
        sigma = rng.permutation(5)
        before = eig_extremes(A)
        after = eig_extremes(permute_conjugate(A, sigma))
        assert before == (pytest.approx(after[0], abs=1e-12), pytest.approx(after[1], abs=1e-12))


class TestMatrixJson:
    def test_round_trip_bit_identical(self, rng):
        A = symmetrize(random_psd(rng, 3))
        back = matrix_from_json(matrix_to_json(A))
        assert np.array_equal(back, A)

    def test_bare_reals_accepted(self):
        M = matrix_from_json({"n": 2, "entries": [[1, 0.5], [0.5, 2]]})
        assert np.array_equal(M, symmetrize([[1, 0.5], [0.5, 2]]))

    def test_bad_grid(self):
        with pytest.raises(NonSquareError):
            matrix_from_json({"n": 2, "entries": [[1, 0]]})

    def test_pair_cells_read_as_before(self):
        M = matrix_from_json({"n": 2, "entries": [[[1, 0], [0.5, -0.25]], [[0.5, 0.25], 2]]})
        assert np.array_equal(M, np.array([[1, 0.5 - 0.25j], [0.5 + 0.25j, 2]]))

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", True, None])
    def test_n_of_the_wrong_type_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            matrix_from_json({"n": n, "entries": [[1, 0], [0, 1]]})

    @pytest.mark.parametrize("cell", [True, "1", None, [1, "0"], [False, 0]],
                             ids=["bool", "string", "null", "pair_string", "pair_bool"])
    def test_cells_of_the_wrong_type_rejected(self, cell):
        with pytest.raises(ValueError, match="must be a number"):
            matrix_from_json({"n": 2, "entries": [[cell, 0], [0, 1]]})
