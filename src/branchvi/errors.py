"""Exception types shared across the package."""


class MalformedParamsError(ValueError):
    """Parameter container violates a shape or length contract."""


class InvalidDataError(ValueError):
    """Observed data violates a model precondition (e.g. non-binary labels)."""


class EstimatorError(RuntimeError):
    """A log-density evaluated non-finite inside an estimator.

    Carries enough context to locate the offending term: the branch index
    and the MC copy, when the term has them.
    """

    def __init__(self, message: str, branch: int | None = None, copy: int | None = None):
        super().__init__(message)
        self.branch = branch
        self.copy = copy


class NonFiniteGradientError(RuntimeError):
    """Optimizer step rejected because the gradient contained NaN/Inf."""
