"""Shared exception types."""


class GasplabError(Exception):
    """Base class for all package errors."""


class InvalidInstanceError(GasplabError):
    """An instance violates a structural invariant."""


class InvalidAssignmentError(GasplabError):
    """An assignment does not fit the instance it is checked against."""


class InvalidSettingError(GasplabError):
    """A budget flag or environment variable holds a value it does not allow."""


class BudgetError(GasplabError):
    """An enumeration would exceed the configured budget.

    Deliberately distinct from a NO answer: the caller asked a question the
    configured limits refuse to answer.
    """


class DeadlineError(BudgetError):
    """The wall clock deadline of `budget.deadline` passed during a run."""


class NoCycleError(GasplabError):
    """compress_once was handed an assignment whose incidence graph is acyclic."""


class InternalSolverError(GasplabError):
    """A solver produced a witness that failed re-verification; implementation bug."""
