"""Exception types shared across the package."""


class PsdMaskError(Exception):
    """Base class for every error raised by this package."""


# -- matrix construction and linear algebra ---------------------------------

class NonSquareError(PsdMaskError):
    """Input grid is not a square matrix."""


class NonFiniteEntryError(PsdMaskError):
    """Input contains NaN or infinite entries."""


class AsymmetricInputError(PsdMaskError):
    """Input is not conjugate-symmetric within the ingestion tolerance."""


class EigFailure(PsdMaskError):
    """The symmetric eigensolver failed or the dimension cap was exceeded."""


class DimensionMismatchError(PsdMaskError):
    """Operands have incompatible dimensions."""


class SingularBlockError(PsdMaskError):
    """The pivot block of a Schur complement is numerically singular."""


# -- block patterns and rule sequences ---------------------------------------

class BlockOutOfRangeError(PsdMaskError):
    """A block contains an index outside range(n)."""


class FlagMismatchError(PsdMaskError):
    """Declared rule flags contradict the materialized patterns."""


class RejectedFullBlockError(PsdMaskError):
    """A rule materialized T_n == {full index set} for some n >= 2."""


# -- scalar functions and domains --------------------------------------------

class OutOfDomainError(PsdMaskError):
    """A value (or matrix entry) lies outside the declared domain."""


class RegimeMismatchError(PsdMaskError):
    """The requested operation does not apply to this sequence regime."""


# -- entrywise operators -------------------------------------------------------

class NonHermitianOutputError(PsdMaskError):
    """Entrywise application produced a non-Hermitian matrix beyond tolerance."""


class NonLinearFunctionError(PsdMaskError):
    """The operation requires a linear function f(z) = c*z."""


# -- witness constructors -------------------------------------------------------

class ZeroVectorError(PsdMaskError):
    """A witness parameter that must be nonzero was zero."""


class EpsTooLargeError(PsdMaskError):
    """The corner-extension weight exceeds 1 or pushes the border outside the domain."""


class NonPositiveEntriesError(PsdMaskError):
    """The corner extension requires strictly positive real entries."""


class DomainLacksZeroError(PsdMaskError):
    """Zero-padding is not available because 0 is outside the domain."""


# -- verifier ---------------------------------------------------------------------

class CNotOutsideError(PsdMaskError):
    """The scalar lies inside the admissible interval; nothing to refute."""
