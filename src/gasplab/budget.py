"""Work budgets for the exhaustive checkers.

The brute-force oracles refuse to enumerate past a step limit instead of
hanging.  The limit comes from the explicit argument if given, then the
GASPLAB_BUDGET environment variable, then the per-caller fallback.  Both
given forms must be an integer >= 1; anything else raises
`InvalidSettingError`.
"""

import os

from .errors import BudgetError, InvalidSettingError
from .model import _is_int

DEFAULT_BUDGET = 10 ** 7


def parse_budget(text, source):
    """The one rule for a budget given as text: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise InvalidSettingError(f"{source} must be an integer >= 1, got {text!r}")
    return int(text)


def resolve_budget(budget=None, fallback=DEFAULT_BUDGET):
    if budget is not None:
        # the same >= 1 rule for an explicit value; floats, bools and strings
        # are refused rather than coerced
        if not _is_int(budget) or budget < 1:
            raise InvalidSettingError(f"budget must be an integer >= 1, got {budget!r}")
        return budget
    env = os.environ.get("GASPLAB_BUDGET", "").strip()
    if env:
        return parse_budget(env, "GASPLAB_BUDGET")
    return fallback


class WorkMeter:
    """Counts enumeration steps and refuses to go past the limit."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit):
        self.limit = limit
        self.spent = 0

    def tick(self, n=1):
        self.spent += n
        if self.spent > self.limit:
            raise BudgetError(
                f"work budget exceeded: {self.spent} > {self.limit} steps")
