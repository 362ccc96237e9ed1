"""Exception hierarchy for the toolkit."""


class SymconeError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(SymconeError, ValueError):
    """Malformed input: non-finite entries, indices out of range, bad shapes."""


class DomainError(SymconeError, ValueError):
    """Mathematically out of domain: e.g. sigma_k <= 0 where positivity is required."""


class SamplingExhaustedError(SymconeError, RuntimeError):
    """Rejection sampling hit its attempt budget.

    Carries a report of which constraint rejected the most candidates, to
    point at the constraint believed infeasible.
    """

    def __init__(self, message, rejection_counts=None):
        super().__init__(message)
        self.rejection_counts = dict(rejection_counts or {})
