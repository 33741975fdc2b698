"""Semantic exception hierarchy shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class BracketError(RuntimeError):
    """A root bracket does not enclose a sign change."""


class NumericalError(RuntimeError):
    """A numerical result cannot be trusted (not finite, rounded away, or a sign within rounding of zero)."""


class DegenerateSectionError(RuntimeError):
    """A hyperplane touches the simplex in a measure-zero set."""


class CrossingPatternError(RuntimeError):
    """A sign-change certificate does not match the expected pattern.

    Carries the offending report(s) in ``reports``.
    """

    def __init__(self, message, reports=()):
        super().__init__(message)
        self.reports = tuple(reports)
