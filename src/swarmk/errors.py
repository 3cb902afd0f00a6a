"""Exception hierarchy shared across the package."""


class SwarmkError(Exception):
    """Base class for all package errors."""


class ModelError(SwarmkError):
    """Error in a model source or diagram, with an optional source location."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class LexError(ModelError):
    pass


class ParseError(ModelError):
    pass


class SemanticError(ModelError):
    pass


class EvalError(ModelError):
    """Expression evaluation failure (unbound name, division by zero, ...)."""


class IntegrationError(SwarmkError):
    pass


class StepGridError(ValueError):
    """A step or run length no run can take (dt <= 0, t_end off the grid)."""


class NonFinite(IntegrationError):
    def __init__(self, t):
        self.t = t
        super().__init__(f"non-finite value at t={t!r}")


class ConservationDrift(IntegrationError):
    def __init__(self, t, drift, budget):
        self.t = t
        self.drift = drift
        super().__init__(
            f"conservation drift {drift:.3e} exceeds {budget:.3e} at t={t!r}"
        )


class DelayMisaligned(IntegrationError):
    def __init__(self, delay, dt):
        super().__init__(f"step dt={dt!r} does not divide delay {delay!r}")


class NegativePopulation(IntegrationError):
    def __init__(self, t, name, value):
        self.t = t
        super().__init__(f"state {name} went negative ({value!r}) at t={t!r}")


class NotReached(SwarmkError):
    def __init__(self, final_value):
        self.final_value = final_value
        super().__init__(f"threshold never crossed; final counter value {final_value!r}")


class StateSpaceTooLarge(SwarmkError):
    def __init__(self, size, cap):
        super().__init__(f"configuration space exceeds cap ({size} > {cap})")
