"""Shared builders for the test suite: compact constructors for typed and
network instances, small seeded random instance generators, and the
size-approval-to-rank lift used for cross-variant checks."""

import itertools
import random

from gasplab.model import (
    EMPTY_ACTIVITY,
    HOME,
    AgentAssignment,
    AgentType,
    NetworkInstance,
    RankMap,
    SizeSetPrefs,
    TypeCountAssignment,
    TypedInstance,
    verify_ggasp,
)
from gasplab.subsetsum import VectorFamily, solve_mpss


def sgasp_instance(activities, types):
    """types: iterable of (id, count, {activity: sizes})."""
    return TypedInstance(
        tuple(activities),
        tuple(AgentType(tid, c, SizeSetPrefs(appr)) for tid, c, appr in types))


def gasp_instance(activities, types):
    """types: iterable of (id, count, {(activity, size): rank}); a missing
    home entry defaults to rank 0."""
    built = []
    for tid, c, ranks in types:
        r = dict(ranks)
        r.setdefault(HOME, 0)
        built.append(AgentType(tid, c, RankMap(r)))
    return TypedInstance(tuple(activities), tuple(built))


def lift_sgasp(inst):
    """Embed a size-approval instance into ranks: approved alternatives at
    rank 1, home at 0, everything else implicitly below home.  Stability is
    preserved in both directions."""
    lifted = []
    for t in inst.types:
        ranks = {HOME: 0}
        for aid, sizes in t.prefs.approvals.items():
            for s in sizes:
                ranks[(aid, s)] = 1
        lifted.append(AgentType(t.id, t.count, RankMap(ranks)))
    return TypedInstance(inst.activities, tuple(lifted))


def all_assignments(inst):
    """Every type-count matrix of an instance, row sums capped by counts."""
    acts = len(inst.activities)

    def rows_for(count):
        out = []
        for cells in itertools.product(range(count + 1), repeat=acts):
            if sum(cells) <= count:
                out.append(cells)
        return out

    for rows in itertools.product(*(rows_for(t.count) for t in inst.types)):
        yield TypeCountAssignment(tuple(rows))


def no_family(activities, seekers):
    """The singleton-seeker NO family: one type per count in `seekers`
    approving {1} everywhere, plus one pair seeker approving {2}
    everywhere; NO whenever the seekers outnumber the activities."""
    acts = [f"a{i + 1}" for i in range(activities)]
    types = [(f"s{i + 1}", c, {a: {1} for a in acts}) for i, c in enumerate(seekers)]
    return sgasp_instance(acts, types + [("p", 1, {a: {2} for a in acts})])


def random_sgasp(rng, max_types=3, max_acts=2, max_count=2):
    acts = [f"a{i}" for i in range(rng.randint(1, max_acts))]
    counts = [rng.randint(1, max_count) for _ in range(rng.randint(1, max_types))]
    n = sum(counts)
    types = []
    for i, count in enumerate(counts):
        appr = {}
        for a in acts:
            sizes = {s for s in range(1, min(count + rng.randint(0, 2), n) + 1)
                     if rng.random() < 0.5}
            if sizes:
                appr[a] = sizes
        types.append((f"t{i}", count, appr))
    return sgasp_instance(acts, types)


def random_sgasp_laddered(rng, max_types=4, max_acts=2, max_count=2):
    """Approval sets biased toward small singletons on shared activities,
    which is where unstable cascades (join pressure) come from."""
    acts = [f"a{i}" for i in range(rng.randint(1, max_acts))]
    counts = [rng.randint(1, max_count) for _ in range(rng.randint(2, max_types))]
    n = sum(counts)
    types = []
    for i, count in enumerate(counts):
        appr = {}
        for a in acts:
            r = rng.random()
            if r < 0.45:
                appr[a] = {rng.randint(1, min(3, n))}
            elif r < 0.6:
                lo = rng.randint(1, min(2, n))
                hi = min(lo + rng.randint(0, 2), n)
                appr[a] = set(range(lo, hi + 1))
        types.append((f"t{i}", count, appr))
    return sgasp_instance(acts, types)


def random_gasp(rng, max_types=2, max_acts=2, max_count=3):
    acts = [f"a{i}" for i in range(rng.randint(1, max_acts))]
    types = []
    n_guess = 0
    counts = [rng.randint(1, max_count) for _ in range(rng.randint(1, max_types))]
    n_guess = sum(counts)
    for i, count in enumerate(counts):
        ranks = {}
        for a in acts:
            for s in range(1, n_guess + 1):
                if rng.random() < 0.5:
                    ranks[(a, s)] = rng.randint(-3, 3)
        ranks[HOME] = rng.randint(-3, 3)
        types.append((f"t{i}", count, ranks))
    return gasp_instance(acts, types)


def random_gasp_windowed(rng, max_types=2, max_acts=2, max_count=2):
    """Ranks with a narrow above-home size window per (type, activity) and
    everything else strictly below home; join cascades between windows are
    what unstable rank instances are made of."""
    acts = [f"a{i}" for i in range(rng.randint(1, max_acts))]
    counts = [rng.randint(1, max_count) for _ in range(rng.randint(1, max_types))]
    n = sum(counts)
    types = []
    for i, count in enumerate(counts):
        ranks = {}
        for a in acts:
            if rng.random() < 0.25:
                continue
            lo = rng.randint(1, n)
            hi = min(n, lo + rng.randint(0, 1))
            for s in range(1, n + 1):
                ranks[(a, s)] = rng.randint(1, 3) if lo <= s <= hi else rng.randint(-3, -1)
        types.append((f"t{i}", count, ranks))
    return gasp_instance(acts, types)


def random_network(rng, max_acts=2, max_agents=4, complete=False):
    acts = [f"a{i}" for i in range(rng.randint(1, max_acts))]
    n = rng.randint(1, max_agents)
    counts = []
    left = n
    while left:
        c = rng.randint(1, left)
        counts.append(c)
        left -= c
    types = []
    for i, count in enumerate(counts):
        ranks = {HOME: rng.randint(-2, 2)}
        for a in acts:
            for s in range(1, n + 1):
                if rng.random() < 0.5:
                    ranks[(a, s)] = rng.randint(-3, 3)
        types.append(AgentType(f"t{i}", count, RankMap(ranks)))
    return network_on(TypedInstance(tuple(acts), tuple(types)), rng, 1 if complete else 0.6)


def network_on(base, rng, density):
    """One agent per head of `base`, each pair linked with probability
    `density` (1: every pair, drawing nothing from rng)."""
    agents = []
    k = 0
    for t in base.types:
        for _ in range(t.count):
            agents.append((f"n{k}", t.id))
            k += 1
    ids = [a for a, _ in agents]
    links = set()
    for u, v in itertools.combinations(ids, 2):
        if density >= 1 or rng.random() < density:
            links.add((u, v))
    return NetworkInstance(base, tuple(agents), frozenset(links))


def ggasp_product_reference(net, collect_all=False):
    """`oracle_ggasp` as a plain loop: every per-agent assignment in
    `itertools.product` order over home then each activity, each one
    counted and tested with `verify_ggasp`.  Returns (exists, witnesses,
    explored)."""
    agents = net.agent_ids()
    choices = (EMPTY_ACTIVITY,) + tuple(net.base.activities)
    explored = 0
    survivors = []
    for picks in itertools.product(choices, repeat=len(agents)):
        explored += 1
        pi = AgentAssignment(dict(zip(agents, picks)))
        if verify_ggasp(net, pi).stable:
            survivors.append(pi)
            if not collect_all:
                break
    return bool(survivors), tuple(survivors), explored


def ir_reference(inst, q, a_ne):
    """Set-form perfect-IR decider, kept as the reference for the mask
    kernel: one `VectorFamily` per call, `solve_mpss`, every target decoded
    and the smallest one in tuple order whose full types are exactly q
    taken.  Returns the type-count rows, or None."""
    k = len(inst.types)
    if k == 0:
        return None if a_ne else ()
    caps = [t.count for t in inst.types]
    sets = []
    for a in inst.activities:
        vecs = []
        sizes = set().union(*(t.prefs.sizes(a) for t in inst.types))
        for p in sorted(sizes):
            # every split of p over the types approving it, by its own filter
            box = [range(t.count + 1) if t.prefs.approves(a, p) else [0] for t in inst.types]
            vecs.extend(v for v in itertools.product(*box) if sum(v) == p)
        if a not in a_ne:
            vecs.append((0,) * k)
        sets.append(vecs)
    res = solve_mpss(VectorFamily(k, caps, sets))
    for target in sorted(res.targets):
        if all((t.id in q) == (target[i] == t.count) for i, t in enumerate(inst.types)):
            picks = res.witness(target)
            return tuple(tuple(vec[i] for vec in picks) for i in range(k))
    return None


# One line per acceptance criterion, echoed after the test summary so the
# verdicts survive output capturing.  test_acceptance.py appends to this.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
