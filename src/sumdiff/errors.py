"""Error types shared across the package."""


class ResourceBudgetError(RuntimeError):
    """A call would cost more than its budget: a pair-sum kernel call (any
    image or histogram) over the pair or memory budget of ``sumdiff.sets``, or
    exhaustive enumeration above its N cap."""


class BracketingError(RuntimeError):
    """A root finder could not bracket a sign change."""


class ExperimentAborted(RuntimeError):
    """A trial failed mid-experiment; carries the records completed so far."""

    def __init__(self, message: str, completed: tuple = ()):
        super().__init__(message)
        self.completed = completed
