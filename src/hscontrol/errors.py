"""Exception hierarchy for the control library."""


class ControlError(Exception):
    """Base class for every library-specific failure."""


class DimensionError(ControlError):
    """Operands live on incompatible spaces or have mismatched shapes."""


class NotSelfAdjointError(ControlError):
    """Symmetrization residual of an operator exceeds tolerance."""


class SteppedError(ControlError):
    """Failure tied to a specific step of a backward recursion."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"{type(self).__name__} at step {step}")


class DomainError(SteppedError):
    """Effective control weight is singular or ill conditioned at one step."""


class GameDomainError(SteppedError):
    """A per-player effective weight fails positivity at one step."""


class CouplingSingularError(SteppedError):
    """The stacked gain-coupling system is singular or leaves a residual above tolerance."""


class DesignInfeasibleError(SteppedError):
    """A synthesis recursion lost a positivity side condition at one step."""


class BracketError(ControlError):
    """Bisection was started on a bracket whose upper end is not feasible."""


class OracleScopeError(ControlError):
    """The deterministic norm oracle was called on a system with noise terms."""


class EnumerationLimitError(ControlError):
    """Exhaustive noise enumeration was requested beyond the supported horizon."""


class ResolutionError(ControlError):
    """A truncation, grid resolution or floating-point range is outside supported limits."""


class ParseError(ControlError):
    """Malformed JSON input for a space, operator, system, or vector."""


class AssumptionError(ControlError):
    """A structural assumption on output operators fails at construction."""
