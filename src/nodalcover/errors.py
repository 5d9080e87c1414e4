"""Exception hierarchy shared by all nodalcover modules."""


class NodalCoverError(Exception):
    """Base class for every error raised by this package."""


# exact arithmetic
class DivisionByZero(NodalCoverError):
    pass


class DimensionMismatch(NodalCoverError):
    pass


class SingularBasis(NodalCoverError):
    pass


class FrobeniusUnavailable(NodalCoverError):
    """Frobenius is only defined in prime characteristic."""


# free products
class BadFactorIndex(NodalCoverError):
    pass


class BadElementIndex(NodalCoverError):
    pass


class SignatureMismatch(NodalCoverError):
    pass


# curves
class DisconnectedCurve(NodalCoverError):
    pass


class InvalidCurve(NodalCoverError):
    pass


# representations
class PresentationMismatch(NodalCoverError):
    pass


# coverings
class FreenessViolation(NodalCoverError):
    pass


class NoComplement(NodalCoverError):
    pass


class TrivialW(NodalCoverError):
    pass


# descent
class ScopeMismatch(NodalCoverError):
    pass


class TransportConflict(NodalCoverError):
    pass


class KernelNotTrivial(NodalCoverError):
    pass


# stratified
class ModeMismatch(NodalCoverError):
    pass


# hulls
class AxiomViolation(NodalCoverError):
    pass


class RoundtripFailure(NodalCoverError):
    pass


class NonInjectiveDual(NodalCoverError):
    pass


# specialization
class SquareViolation(NodalCoverError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# cli / io
class SpecParseError(NodalCoverError):
    pass

