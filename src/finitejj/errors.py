"""Shared exception and warning types."""


class CapacityError(RuntimeError):
    """Storage past a limit: ARRAY_LIMIT states of an operator, or DENSE_LIMIT of a dense solve."""


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class WindowConvergenceError(ConvergenceError):
    """Adaptive charge window hit its cap before the observable settled."""


class TermBudgetError(RuntimeError):
    """Ladder-operator expansion exceeded the configured term cap."""


class RegimeWarning(UserWarning):
    """Closed-form expression evaluated outside its trusted parameter regime."""


class NearDegenerateWarning(UserWarning):
    """A neighboring level lies within 40 eps ||H||; the eigenvector may be ill-conditioned."""

