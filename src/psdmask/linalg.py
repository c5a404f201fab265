"""Dense complex Hermitian matrix machinery.

Matrices are plain ``numpy.ndarray`` values of dtype complex128 whose
storage is made *exactly* conjugate-symmetric by ``symmetrize`` (the lower
triangle mirrors the upper one bit-for-bit and diagonals carry a zero
imaginary part).  Every function here is pure; index sets in the Python API
are 0-based, only the JSON wire format uses human-friendly conventions.

``_settle``, behind ``symmetrize`` and ``operators.apply``, halves before it
adds, and weighs the asymmetry only where some entry differs from its mirror.

``psd_holds`` owns the tolerance semantics of the PSD test, on the extreme
eigenvalues ``eig_extremes`` computes.  Its private screen ``_cleared`` may
pass a whole stack on one shifted Cholesky instead, only where that implies
``psd_holds`` on ``eigvalsh``'s output (it checks tol >= 16 n^3 eps, finite
entries and exact conjugate symmetry itself); ``eigvalsh`` decides the rest.
Smaller images padded with the identity to N x N, as verify batches its
stacks, clear only where each would, at tol >= 16 N^3 eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AsymmetricInputError,
    DimensionMismatchError,
    EigFailure,
    NonFiniteEntryError,
    NonSquareError,
    SingularBlockError,
)
from .patterns import _integer, _list, _members, _real

# Full eigendecompositions are only contracted up to this dimension.
EIG_DIM_CAP = 64

# Relative asymmetry above which an input or an entrywise image is not Hermitian.
ASYM_TOL = 1e-8

# Default relative tolerance of the PSD test.
DEFAULT_PSD_TOL = 1e-9


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a positive-semidefiniteness test.

    ``is_psd`` holds iff ``min_eig >= -tol_used * max(1, |max_eig|)``.
    """

    min_eig: float
    max_eig: float
    is_psd: bool
    tol_used: float

    def to_json(self) -> dict:
        return {
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "is_psd": self.is_psd,
            "tol_used": self.tol_used,
        }


def _as_square_grid(raw) -> np.ndarray:
    A = np.asarray(raw, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise NonSquareError(f"expected a nonempty square grid, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise NonFiniteEntryError("matrix entries must be finite")
    return A


@lru_cache(maxsize=None)
def _hermitian_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, diagonal) index arrays of exact_hermitian at n, read-only, built on first use."""
    index = (*np.tril_indices(n, -1), np.arange(n))
    for a in index:
        a.flags.writeable = False
    return index


def _mirror(H: np.ndarray) -> np.ndarray:
    """``exact_hermitian`` in place, on a complex128 or float64 matrix or stack H
    (a real one is made symmetric and keeps its dtype); returns H."""
    rows, cols, diag = _hermitian_index(H.shape[-1])
    H[..., rows, cols] = np.conj(H[..., cols, rows])
    if H.dtype.kind == "c":
        H.imag[..., diag, diag] = 0.0
    return H


def exact_hermitian(H: np.ndarray) -> np.ndarray:
    """Force exactly conjugate-symmetric storage (mirror upper triangle, real diagonal).

    Accepts one matrix or a stack ``(k, n, n)``; each matrix of a stack comes
    out bit for bit as it would alone.
    """
    return _mirror(np.array(H, dtype=np.complex128))


def _settle(raw: np.ndarray, error: type[Exception], what: str) -> np.ndarray:
    """raw/2 + raw*/2, complex128 with exactly conjugate-symmetric storage, per
    matrix of a stack.  Halved before it is added, so a sum past the float
    range does not overflow.

    Raises ``error``, led by ``what``, when a matrix's asymmetry exceeds
    ASYM_TOL relative to max(1, its largest entry modulus); fmax and ``>``
    let NaN through, as Python's max(1.0, nan) and nan > x do.  The
    asymmetry is weighed only when some entry differs from its mirror: where
    none does, it is 0 (or NaN at an infinite entry) and can never raise.
    """
    raw_h = np.conj(np.swapaxes(raw, -1, -2))  # a new array, also for a real raw
    if not (raw == raw_h).all():
        scale = np.fmax(1.0, np.abs(raw).max(axis=(-2, -1)))
        gap = np.abs(raw - raw_h).max(axis=(-2, -1))
        asym = gap > ASYM_TOL * scale
        if asym.any():
            raise error(f"{what}: asymmetry {gap[asym][0]:.3e} exceeds {ASYM_TOL:.1e} * {scale[asym][0]:.3e}")
    avg = np.multiply(raw, 0.5).astype(np.complex128, copy=False)  # a real raw halves as reals
    avg += np.multiply(raw_h, 0.5, out=raw_h)
    return _mirror(avg)


def symmetrize(raw) -> np.ndarray:
    """Return raw/2 + raw*/2 with exactly conjugate-symmetric storage.

    Rejects input whose asymmetry exceeds ASYM_TOL relative to
    ``max(1, largest entry modulus)``.
    """
    return _settle(_as_square_grid(raw), AsymmetricInputError, "input is not conjugate-symmetric")


def _within_cap(n: int) -> int:
    """n, if an n x n matrix is within the eigensolver cap; EigFailure otherwise."""
    if n > EIG_DIM_CAP:
        raise EigFailure(f"dimension {n} exceeds the eigensolver cap {EIG_DIM_CAP}")
    return n


def eig_extremes(M: np.ndarray):
    """Smallest and largest eigenvalue of a Hermitian matrix.

    For one matrix the pair is two floats; for a stack ``(k, n, n)`` it is
    two arrays of length k, each entry bit for bit the single-matrix value.
    Empty (0 x 0) or non-square matrices raise NonSquareError.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise NonSquareError(f"expected nonempty square matrices, got shape {M.shape}")
    _within_cap(M.shape[-1])
    try:
        w = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    if M.ndim == 2:
        return float(w[0]), float(w[-1])
    return w[..., 0], w[..., -1]


def psd_holds(min_eig, max_eig, tol: float):
    """The relative-tolerance PSD test min_eig >= -tol * max(1, |max_eig|).

    Works on floats and on arrays alike.  A NaN ``min_eig`` fails the test,
    and a NaN ``max_eig`` counts as scale 1, as Python's ``max(1.0, nan)``
    does.
    """
    return min_eig >= -tol * np.fmax(1.0, np.abs(max_eig))


def _screen_floor(n: int) -> float:
    """The least tol at which ``_cleared`` may clear an n x n stack: 16 n^3 eps."""
    return 16 * n ** 3 * np.finfo(np.float64).eps


def _cleared(H: np.ndarray, tol: float) -> bool:
    """True when a shifted Cholesky certifies that every matrix of the settled
    stack H ``(k, n, n)`` passes ``psd_holds`` at tol on ``eig_extremes``'
    output; False decides nothing, and the stack goes to ``eig_extremes``.

    Matrix j is shifted by s = (tol/2) m, m = max(1, d) and d its largest
    diagonal entry, and the stack is cleared when ``cholesky(H + s I)``
    completes.  Sound: a Cholesky of A = H + s I that completes in floating
    point is the exact factor of A + E with |E| <= gamma_{n+1} |R*| |R|, so
    ||E||_2 <= n^2 gamma_{n+1} (d + s) (Demmel; Higham, Accuracy and
    Stability of Numerical Algorithms, section 10.1; Rump, BIT 2006), and
    lambda_min(H) >= -s - n^2 gamma_{n+1} (d + s).  Above the floor
    tol >= 16 n^3 eps, n^2 gamma_{n+1} < 2.1 n^3 eps is below tol/7 and 1/7,
    so that error is below 3s/7.  ``eigvalsh`` is backward stable: its lo
    and hi move from the exact extremes by at most n^2 eps ||H||_2 <=
    (tol/16) ||H||_2, and the exact largest eigenvalue is at least d.  So the
    computed lo >= -tol max(1, |hi|), the test ``psd_holds`` makes, for every
    matrix cleared here.  That last step rests on ``eigvalsh`` meeting its
    bound, which its values-only path does not where squared off-diagonals
    underflow: on an 8 x 8 tensor blowup with entries near 1e-158 beside
    entries of 1 its lo has relative error 1.5e-10, where the bound allows
    64 eps = 1.4e-14.  There a matrix cleared here may have a computed lo
    that fails the test by that much; this is not mended here.

    Verify pads: a matrix of a padded stack is diag(H, I), H an n x n image
    in the leading block of an N x N slot.  Its spectrum is H's and 1, its
    largest diagonal entry max(d, 1), so its shift is H's own (tol/2) m, and
    the bounds above hold with N's constants, at tol >= 16 N^3 eps: if the
    N x N Cholesky completes, lambda_min(H) >= -s - N^2 gamma_{N+1} (m + s),
    and ``eigvalsh`` on H alone meets its n x n bound.  So a padded stack
    cleared here clears every H in it, for ``psd_holds`` on H's own extremes.

    The bound and the argument hold as well in real arithmetic, so a float64
    stack, or one whose imaginary parts are all zero, is factored as its real
    part, the same matrices.  H need not be settled: one that equals its
    conjugate transpose exactly settles, as its exact complex form if real,
    to the same entries up to signs of zero, except where halving a
    subnormal rounds.  That moves an entry by less than 2^-1074 and an
    eigenvalue by less than n 2^-1074, far inside the slack the bounds above
    leave.  A 1 x 1 stack is decided by d + s > 0 with no copy and no
    LAPACK: that sum is the one pivot ``potrf`` would test, so this is
    exactly when its Cholesky completes.  A larger one is copied once, as its
    conjugate transpose (its real part's transpose where H has no imaginary
    part), which is compared with H and then shifted and factored: so the
    only arrays made are that copy, the comparison and the factor.

    Never cleared: a tol below that floor (so tol = 0 always goes to
    ``eig_extremes``), a stack with a non-finite entry or one that differs
    from its conjugate transpose, or a Cholesky that fails.
    """
    n, T = H.shape[-1], np.swapaxes(H, -1, -2)
    if tol < _screen_floor(n) or not np.isfinite(H).all():
        return False
    imaginary = H.dtype.kind == "c" and H.imag.any()
    if n == 1:
        d = H.real[..., 0, 0]
        return not imaginary and bool((d + 0.5 * tol * np.fmax(1.0, d) > 0).all())
    A = np.conj(T) if imaginary else T.real.copy()
    if ((H if imaginary else H.real) != A).any():
        return False
    diag = _hermitian_index(n)[2]
    A[..., diag, diag] += 0.5 * tol * np.fmax(1.0, A.real[..., diag, diag].max(axis=-1))[..., None]
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def is_psd(M: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Relative-tolerance PSD test: min_eig >= -tol * max(1, |max_eig|)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lo, hi = eig_extremes(M)
    return PsdReport(min_eig=lo, max_eig=hi, is_psd=bool(psd_holds(lo, hi, tol)), tol_used=tol)


def schur_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard) product of two same-sized Hermitian matrices."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shapes {A.shape} and {B.shape} differ")
    return exact_hermitian(A * B)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product; Hermitian when both factors are."""
    return exact_hermitian(np.kron(np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128)))


def schur_complement(M: np.ndarray, block) -> np.ndarray:
    """Complement M[rest,rest] - M[rest,block] M[block,block]^{-1} M[block,rest].

    ``M`` is one matrix or a stack ``(k, n, n)``; each matrix of a stack comes
    out bit for bit as it would alone.  ``block`` is a set of 0-based
    indices; its principal submatrix must be invertible (smallest singular
    value above 1e-12 times the spectral scale of M), otherwise
    ``SingularBlockError`` is raised, naming the first such matrix of a stack.
    The complement C is returned as C/2 + C*/2, halved before it is added as
    in ``_settle``, so a finite complement near the float range stays finite;
    its asymmetry, which an ill-conditioned pivot can grow, is not weighed.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise NonSquareError(f"expected a nonempty square grid, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise NonFiniteEntryError("matrix entries must be finite")
    n = M.shape[-1]
    blk = sorted(set(int(i) for i in block))
    if not blk or any(i < 0 or i >= n for i in blk):
        raise ValueError(f"block must be a nonempty subset of range({n})")
    rest = [i for i in range(n) if i not in set(blk)]
    if not rest:
        raise ValueError("block must be a proper subset (nonempty complement)")
    blk, rest = np.array(blk), np.array(rest)
    lo, hi = eig_extremes(M)
    scale = np.fmax(np.abs(lo), np.abs(hi))
    P = M[..., blk[:, None], blk]
    smin = np.linalg.svd(P, compute_uv=False)[..., -1]
    singular = np.flatnonzero((smin <= 1e-12 * scale) | (smin == 0.0))
    if singular.size:
        j = int(singular[0])
        where = f"matrix {j}: " if M.ndim == 3 else ""
        raise SingularBlockError(
            f"{where}pivot block min singular value {smin.flat[j]:.3e} <= 1e-12 * {scale.flat[j]:.3e}"
        )
    solved = np.linalg.solve(P, M[..., blk[:, None], rest])
    C = M[..., rest[:, None], rest] - M[..., rest[:, None], blk] @ solved
    return _mirror(np.multiply(C, 0.5) + np.multiply(np.swapaxes(C, -1, -2).conj(), 0.5))


def all_ones(n: int) -> np.ndarray:
    """The n x n matrix of ones (rank one, spectrum {0,...,0,n})."""
    return np.ones((n, n), dtype=np.complex128)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


# -- JSON wire format ----------------------------------------------------------
#
# {"n": int, "entries": [[[re, im], ...], ...]} row-major; cells of real
# matrices may be bare numbers, parsed as [re, 0].

def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    return {
        "n": int(M.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in M],
    }


def _cell_to_complex(cell) -> complex:
    if isinstance(cell, (list, tuple)) and len(cell) == 2:
        return complex(_real(cell[0], "a cell's real part"), _real(cell[1], "a cell's imaginary part"))
    return complex(_real(cell, "a matrix cell that is not [re, im]"), 0.0)


def matrix_from_json(data: dict) -> np.ndarray:
    n = _integer(_members(data, "matrix", ("n", "entries"))["n"], "n", 1)
    rows = _list(data, "entries", "matrix")
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"matrix member 'entries' must list rows of cells, got the row {row!r}")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise NonSquareError(f"entries do not form an {n} x {n} grid")
    raw = np.array([[_cell_to_complex(c) for c in row] for row in rows], dtype=np.complex128)
    return symmetrize(raw)
