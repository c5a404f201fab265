"""Block-masked entrywise operators.

``apply`` computes the matrix whose masked entries (both indices inside a
common block) are g(a_ij) and whose remaining entries are f(a_ij).  The full
output is computed and then symmetrized, so a conjugate-equivariance
violation of a Custom function surfaces as an explicit error instead of
being silently averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonHermitianOutputError,
    NonLinearFunctionError,
    OutOfDomainError,
)
from .functions import Domain, Identity, PreserverFunction
from .linalg import _settle, exact_hermitian, schur_product
from .patterns import BlockPattern, normalize


@dataclass(frozen=True)
class OperatorSpec:
    """An entrywise operator: g on the pattern's blocks, f everywhere else."""

    f: PreserverFunction
    pattern: BlockPattern
    domain: Domain
    g: PreserverFunction = field(default_factory=Identity)


def star_pattern(n: int) -> BlockPattern:
    """The all-singletons pattern {{0}, ..., {n-1}} (g acts on the diagonal only)."""
    return normalize([{j} for j in range(n)], n)


def _check_input(spec: OperatorSpec, A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[-1]
    if spec.pattern.n != n:
        raise DimensionMismatchError(
            f"pattern is on range({spec.pattern.n}) but the matrix is {n} x {n}"
        )
    inside = spec.domain.contains_array(A)
    if not inside.all():  # name the first entry outside the domain, in stack order
        where = tuple(int(k) for k in np.argwhere(~inside)[0])
        i, j = where[-2:]
        raise OutOfDomainError(
            f"entry ({i},{j}) = {A[where]} lies outside {spec.domain.kind}(rho={spec.domain.rho})"
        )
    return A


def _settle_hermitian(raw: np.ndarray) -> np.ndarray:
    return _settle(raw, NonHermitianOutputError,
                   "entrywise image is non-Hermitian (check the conjugate equivariance of g and f)")


def _image(mask: np.ndarray, G: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The kernel of ``apply``: the values G of g where the mask holds and the
    values F of f elsewhere, settled Hermitian.

    G and F are the functions evaluated on an input inside the domain (checked
    by ``apply``; verify and the suite build theirs inside it); a stack
    ``(k, n, n)`` of masks broadcasts against stacks of values.
    """
    return _settle_hermitian(np.where(mask, G, F))


def _decomposition(mask: np.ndarray, G: np.ndarray, F: np.ndarray):
    """The kernel of ``decompose``: the image, f's image everywhere, and the
    second part (image minus f's image on the mask, exact zeros elsewhere)."""
    out = _image(mask, G, F)
    part1 = _settle_hermitian(F)
    return out, part1, exact_hermitian(np.where(mask, out - part1, 0.0 + 0.0j))


def _factorization(mask: np.ndarray, c, A: np.ndarray, image: np.ndarray) -> np.ndarray:
    """The kernel of ``mask_factorization``: A entrywise-times the mask image
    (ones on the mask, c elsewhere), checked entrywise against ``image``.

    For a stack, c may hold one slope per matrix, shaped ``(k, 1, 1)``; a
    mismatch above 1e-14 relative raises ArithmeticError naming the first
    matrix that has it.
    """
    lhs = schur_product(A, exact_hermitian(np.where(mask, 1.0 + 0.0j, c)))
    gap = np.abs(lhs - image).max(axis=(-2, -1))
    bad = np.flatnonzero(gap > 1e-14 * np.fmax(1.0, np.abs(image).max(axis=(-2, -1))))
    if bad.size:
        j = int(bad[0])
        where = f"matrix {j}: " if lhs.ndim == 3 else ""
        raise ArithmeticError(f"{where}mask factorization mismatch: entrywise gap {gap.flat[j]:.3e}")
    return lhs


def apply(spec: OperatorSpec, A: np.ndarray) -> np.ndarray:
    """Apply the operator entrywise and return the symmetrized image.

    ``A`` is one matrix or a stack ``(k, n, n)``; each matrix of a stack is
    mapped bit for bit as it would be alone.  An input or output error
    describes the first offending matrix of the stack.
    """
    A = _check_input(spec, A)
    return _image(spec.pattern.mask, spec.g.evaluate_array(A), spec.f.evaluate_array(A))


def decompose(spec: OperatorSpec, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the image as (f applied everywhere) + (g - f on the mask, 0 elsewhere).

    The unmasked entries of the second part are exact zeros; the parts
    reassemble the ``apply`` image entrywise to working precision.
    """
    A = _check_input(spec, A)
    _, part1, part2 = _decomposition(spec.pattern.mask, spec.g.evaluate_array(A),
                                     spec.f.evaluate_array(A))
    return part1, part2


def mask_factorization(spec: OperatorSpec, A: np.ndarray) -> np.ndarray:
    """For linear f = c*id and g = id: the image as A entrywise-times the mask image.

    The factor is the operator applied to the all-ones matrix (ones on the
    mask, c elsewhere); the result is checked entrywise against ``apply``,
    per matrix of a stack.
    """
    c = spec.f.linear_slope()
    if c is None:
        raise NonLinearFunctionError("f must be linear (f(z) = c*z) for the mask factorization")
    if spec.g.linear_slope() != 1.0:
        raise NonLinearFunctionError("g must be the identity for the mask factorization")
    image = apply(spec, A)
    return _factorization(spec.pattern.mask, complex(c), np.asarray(A, dtype=np.complex128), image)
