"""Work budgets and deadlines, the one way a run stops early.

Every algorithm counts its work on a `WorkMeter` and refuses to go past one
step limit instead of hanging; where the count of a full sweep is known up
front (`metered`: Q masks, guesses, matrices, clique combinations, table
positions) it refuses before it starts.  The limit comes from the explicit
argument if given, then the GASPLAB_BUDGET environment variable, then the
caller's fallback: DEFAULT_SOLVER_BUDGET for the exact solvers,
DEFAULT_BUDGET for the subset-sum and clique checkers, DEFAULT_ORACLE_BUDGET
for the oracles.  Both given forms must be an integer >= 1; anything else
raises `InvalidSettingError`.  Each tick, and `check` inside long steps,
also read the deadline, so a run under `deadline(seconds)` stops with
`DeadlineError`; a `ContextVar` keeps each thread's deadline its own.
`walk` is the one depth-first sweep of a product of pools, the oracles'
count matrices and per-agent picks and xp-gasp's guesses: a subtree it cuts
ticks the meter once with its leaf count, so `spent` stays the product's
count.
"""

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BudgetError, DeadlineError, InvalidSettingError
from .model import _is_int

DEFAULT_BUDGET = 10 ** 7
# Bell(11) = 678,570 branches decide fpt-n on 10 agents; Bell(12) is refused
DEFAULT_SOLVER_BUDGET = 10 ** 6
DEFAULT_ORACLE_BUDGET = 2_000_000

_clock = time.monotonic
# (end on _clock, seconds given) of the innermost deadline, None without one
_deadline = ContextVar("gasplab_deadline", default=None)


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


def metered(budget, total, what, fallback=DEFAULT_SOLVER_BUDGET):
    """A `WorkMeter` capped at `resolve_budget(budget, fallback)`, once a
    sweep known to take `total` steps fits under that cap."""
    meter = WorkMeter(resolve_budget(budget, fallback))
    if total > meter.limit:
        raise BudgetError(f"would enumerate {total} {what}, cap is {meter.limit}")
    return meter


@contextmanager
def deadline(seconds):
    """Stop runs in this context `seconds` of wall clock from now (0 or
    None: no cap).  A deadline inside another one can only come earlier."""
    if seconds is not None and not 0 <= seconds <= 1e9:  # refuses nan and inf too
        raise InvalidSettingError(f"deadline must be seconds in [0, 1e9], got {seconds!r}")
    cap = _deadline.get()
    if seconds:
        end = _clock() + seconds
        if cap is None or end < cap[0]:
            cap = (end, seconds)
    token = _deadline.set(cap)
    try:
        yield
    finally:
        _deadline.reset(token)


def check():
    """Raise `DeadlineError` once the deadline of this context has passed."""
    cap = _deadline.get()
    if cap is not None and _clock() >= cap[0]:
        raise DeadlineError(f"exceeded {cap[1]}s")


class WorkMeter:
    """Counts enumeration steps, refuses to go past the limit (None: no
    limit) and checks the deadline at every step."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit=None):
        self.limit = limit
        self.spent = 0

    def tick(self, n=1):
        self.spent += n
        if self.limit is not None and self.spent > self.limit:
            raise BudgetError(
                f"work budget exceeded: {self.spent} > {self.limit} steps")
        # check()'s body, inlined: this runs once per enumeration step
        cap = _deadline.get()
        if cap is not None and _clock() >= cap[0]:
            raise DeadlineError(f"exceeded {cap[1]}s")


def walk(pools, root, step, meter):
    """The leaves of `itertools.product(*pools)` (no item None), in that
    order, that no prefix cuts, as (items, state), depth-first.

    `step(state, item, depth)` gives a child's state from its parent's
    (`root` above depth 0), or None to cut the child's subtree, which ticks
    the meter once with its leaf count.  Every other leaf ticks once before
    it is yielded, so `meter.spent` counts the leaves in product order up
    to the current one.  The yielded items list is reused."""
    k = len(pools)
    if not k:
        meter.tick()
        yield [], root
        return
    below = [1] * k  # the leaves under one item at each depth
    for d in range(k - 2, -1, -1):
        below[d] = below[d + 1] * len(pools[d + 1])
    items = [None] * k
    states = [root]  # the state above each open depth
    pending = [iter(pools[0])]
    while pending:
        d = len(pending) - 1
        item = next(pending[-1], None)
        if item is None:
            pending.pop()
            states.pop()
            continue
        state = step(states[-1], item, d)
        if state is None:
            meter.tick(below[d])
            continue
        items[d] = item
        if d + 1 < k:
            pending.append(iter(pools[d + 1]))
            states.append(state)
            continue
        meter.tick()
        yield items, state
