"""Exception types shared across the package."""


class LogGasError(Exception):
    """Base class for all loggas errors."""


class MissingBetaPrime(LogGasError):
    """The potential declares no growth witness beta_prime."""


class InadmissibleModel(LogGasError):
    """The model fails the weak-growth admissibility flag."""


class PoleNotInvertible(LogGasError):
    """The north pole has no finite preimage under the projection."""


class CoincidentPoints(LogGasError):
    """Two particles occupy the same position (energy would be infinite)."""


class MismatchedSupports(LogGasError):
    """Signed-energy operands are not aligned on common atom positions."""


class NoClosedForm(LogGasError):
    """The model has no built-in closed-form limiting law."""


class QuadratureFailure(LogGasError):
    """Adaptive quadrature exceeded its error budget."""


class EmptySample(LogGasError):
    """A statistic was requested for an empty sample."""


class NoReference(LogGasError):
    """No reference energy is available for the requested gap."""


class ParseError(LogGasError):
    """Run configuration text could not be parsed."""


class ValidationError(LogGasError):
    """Run configuration parsed but violates a field constraint."""
