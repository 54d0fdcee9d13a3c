"""Shared exception and warning types."""


class CapacityError(RuntimeError):
    """Storage past a limit: ARRAY_LIMIT states of an operator, or DENSE_LIMIT of a dense solve."""


class ConvergenceError(RuntimeError):
    """A solve that did not converge or a result that was not proven; its message says which."""


class WindowConvergenceError(ConvergenceError):
    """Adaptive charge window hit its cap before the observable settled."""


class TermBudgetError(RuntimeError):
    """Ladder-operator expansion exceeded the configured term cap."""


class RegimeWarning(UserWarning):
    """Closed-form expression evaluated outside its trusted parameter regime."""


class NearDegenerateWarning(UserWarning):
    """A neighboring level lies within 40 eps ||H||; the eigenvector may be ill-conditioned."""

