"""Instances, assignments and stability checking for group activity selection.

Two preference flavours share one instance type.  In a size-approval
instance every agent type approves, per activity, a set of group sizes it
is willing to be part of.  In a rank instance every agent type ranks
(activity, size) alternatives by an integer score, larger is better; the
alternative ``(EMPTY_ACTIVITY, 1)`` stands for staying home and must be
ranked explicitly, while alternatives absent from the map sit strictly
below everything listed and are mutually tied.

Agents with identical preferences are interchangeable, so instances store
*types* with a multiplicity and assignments are per-type attendance
counts.  Network instances add concrete agents and an undirected link
graph; there assignments name individual agents because links
distinguish them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import InvalidAssignmentError, InvalidInstanceError, NoCycleError

# Reserved activity id for "stays home"; never a real activity.
EMPTY_ACTIVITY = "@empty"

HOME = (EMPTY_ACTIVITY, 1)


def _is_int(v) -> bool:
    """Whether v is a plain int: floats are refused instead of truncated, and
    bools (JSON true/false), which Python counts as ints, are refused too."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class SizeSetPrefs:
    """Approved group sizes per activity.  Activities without an entry are
    never approved at any size."""

    approvals: Mapping[str, frozenset[int]]

    def __post_init__(self):
        clean = {}
        for aid, sizes in dict(self.approvals).items():
            sizes = tuple(sizes)
            for s in sizes:
                if not _is_int(s):
                    raise InvalidInstanceError(f"approved size {s!r} for {aid!r} is not an int")
                if s < 1:
                    raise InvalidInstanceError(f"approved size {s} for {aid!r} is not positive")
            sizes = frozenset(sizes)
            if sizes:
                clean[aid] = sizes
        object.__setattr__(self, "approvals", clean)

    def sizes(self, activity: str) -> frozenset[int]:
        return self.approvals.get(activity, frozenset())

    def approves(self, activity: str, size: int) -> bool:
        return size in self.approvals.get(activity, frozenset())

    def __eq__(self, other):
        return isinstance(other, SizeSetPrefs) and self.approvals == other.approvals


@dataclass(frozen=True)
class RankMap:
    """Sparse weak order over (activity, size) alternatives.

    ``ranks`` maps alternatives to integers, larger is better.  The home
    alternative must be present.  Unlisted alternatives share an implicit
    rank one below the smallest listed rank, which keeps them strictly
    below home and mutually tied.
    """

    ranks: Mapping[tuple[str, int], int]

    def __post_init__(self):
        clean = {}
        for alt, r in dict(self.ranks).items():
            aid, size = alt
            if not _is_int(size) or not _is_int(r):
                raise InvalidInstanceError(f"alternative {alt!r} has rank {r!r}; size and rank must be ints")
            if size < 1:
                raise InvalidInstanceError(f"alternative {alt!r} has non-positive size")
            if aid == EMPTY_ACTIVITY and size != 1:
                raise InvalidInstanceError("the home alternative only exists at size 1")
            clean[(aid, size)] = r
        if HOME not in clean:
            raise InvalidInstanceError("rank map must rank the home alternative explicitly")
        object.__setattr__(self, "ranks", clean)
        object.__setattr__(self, "_default", min(clean.values()) - 1)

    def rank(self, alternative: tuple[str, int]) -> int:
        return self.ranks.get(alternative, self._default)

    @property
    def home_rank(self) -> int:
        return self.ranks[HOME]

    def __eq__(self, other):
        return isinstance(other, RankMap) and self.ranks == other.ranks


Prefs = Union[SizeSetPrefs, RankMap]


@dataclass(frozen=True)
class AgentType:
    """A maximal class of agents with identical preferences."""

    id: str
    count: int
    prefs: Prefs

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidInstanceError("type id must be a nonempty string")
        if not _is_int(self.count) or self.count < 1:
            raise InvalidInstanceError(f"type {self.id!r} has count {self.count!r}, need an int >= 1")


@dataclass(frozen=True)
class TypedInstance:
    """Activities plus agent types; the agent set is implied by the counts."""

    activities: tuple[str, ...]
    types: tuple[AgentType, ...]
    meta: Mapping | None = None

    def __post_init__(self):
        object.__setattr__(self, "activities", tuple(self.activities))
        object.__setattr__(self, "types", tuple(self.types))
        seen = set()
        for aid in self.activities:
            if not isinstance(aid, str) or not aid:
                raise InvalidInstanceError("activity id must be a nonempty string")
            if aid == EMPTY_ACTIVITY:
                raise InvalidInstanceError(f"{EMPTY_ACTIVITY!r} is reserved for staying home")
            if aid in seen:
                raise InvalidInstanceError(f"duplicate activity id {aid!r}")
            seen.add(aid)
        tids = set()
        kinds = set()
        for t in self.types:
            if t.id in tids:
                raise InvalidInstanceError(f"duplicate type id {t.id!r}")
            tids.add(t.id)
            kinds.add("sgasp" if isinstance(t.prefs, SizeSetPrefs) else "gasp")
        if len(kinds) > 1:
            raise InvalidInstanceError("instance mixes size-approval and rank preferences")
        n = self.n
        known = set(self.activities)
        for t in self.types:
            if isinstance(t.prefs, SizeSetPrefs):
                for aid, sizes in t.prefs.approvals.items():
                    if aid not in known:
                        raise InvalidInstanceError(f"type {t.id!r} approves unknown activity {aid!r}")
                    if sizes and max(sizes) > n:
                        raise InvalidInstanceError(
                            f"type {t.id!r} approves size {max(sizes)} at {aid!r} but only {n} agents exist")
            else:
                for (aid, size) in t.prefs.ranks:
                    if aid == EMPTY_ACTIVITY:
                        continue
                    if aid not in known:
                        raise InvalidInstanceError(f"type {t.id!r} ranks unknown activity {aid!r}")
                    if size > n:
                        raise InvalidInstanceError(
                            f"type {t.id!r} ranks size {size} at {aid!r} but only {n} agents exist")

    @property
    def n(self) -> int:
        return sum(t.count for t in self.types)

    @property
    def kind(self) -> str:
        for t in self.types:
            return "sgasp" if isinstance(t.prefs, SizeSetPrefs) else "gasp"
        return "sgasp"  # empty instances behave like size-approval ones

    def type_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.types)

    def type_index(self) -> dict[str, int]:
        return {t.id: i for i, t in enumerate(self.types)}

    def activity_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.activities)}


@dataclass(frozen=True)
class TypeCountAssignment:
    """counts[t][a] agents of type t attend activity a; the rest stay home."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        counts = tuple(tuple(row) for row in self.counts)
        for row in counts:
            for c in row:
                if not _is_int(c):
                    raise InvalidAssignmentError(f"count {c!r} is not an int")
        object.__setattr__(self, "counts", counts)

    def row_sum(self, t: int) -> int:
        return sum(self.counts[t])

    def column_sums(self) -> tuple[int, ...]:
        if not self.counts:
            return ()
        return tuple(sum(col) for col in zip(*self.counts))


@dataclass(frozen=True)
class NetworkInstance:
    """A rank instance plus concrete agents and an undirected link graph."""

    base: TypedInstance
    agents: tuple[tuple[str, str], ...]  # (agent id, type id)
    links: frozenset[tuple[str, str]]
    meta: Mapping | None = None

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple((str(a), str(t)) for a, t in self.agents))
        if self.base.types and self.base.kind != "gasp":
            raise InvalidInstanceError("network instances need rank preferences")
        counts: dict[str, int] = {}
        ids = set()
        for aid, tid in self.agents:
            if aid in ids:
                raise InvalidInstanceError(f"duplicate agent id {aid!r}")
            ids.add(aid)
            counts[tid] = counts.get(tid, 0) + 1
        declared = {t.id: t.count for t in self.base.types}
        if counts != declared:
            raise InvalidInstanceError("agent list does not match declared type counts")
        norm = set()
        for pair in self.links:
            u, v = pair
            if u == v:
                raise InvalidInstanceError(f"self link on {u!r}")
            if u not in ids or v not in ids:
                raise InvalidInstanceError(f"link {pair!r} references unknown agent")
            norm.add((u, v) if u <= v else (v, u))
        object.__setattr__(self, "links", frozenset(norm))

    def agent_ids(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.agents)

    def type_of(self) -> dict[str, str]:
        return {a: t for a, t in self.agents}

    def neighbors(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {a: set() for a, _ in self.agents}
        for u, v in self.links:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class AgentAssignment:
    """Maps every agent id to an activity id or EMPTY_ACTIVITY."""

    mapping: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))


@dataclass(frozen=True)
class Violation:
    kind: str  # "ir" | "deviation" | "disconnected"
    subject: str  # type id or agent id
    activity: str  # offending / target activity (EMPTY_ACTIVITY for home)
    detail: str = ""


@dataclass(frozen=True)
class StabilityReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def stable(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.stable


def _require_kind(inst: TypedInstance, kind: str) -> None:
    if inst.types and inst.kind != kind:
        raise InvalidInstanceError(f"expected a {kind} instance, got {inst.kind}")


def check_assignment(inst: TypedInstance, x: TypeCountAssignment) -> None:
    """Raise InvalidAssignmentError unless x fits inst dimension- and count-wise."""
    if len(x.counts) != len(inst.types):
        raise InvalidAssignmentError(
            f"assignment has {len(x.counts)} rows for {len(inst.types)} types")
    for ti, row in enumerate(x.counts):
        if len(row) != len(inst.activities):
            raise InvalidAssignmentError(
                f"row {ti} has {len(row)} columns for {len(inst.activities)} activities")
        if any(c < 0 for c in row):
            raise InvalidAssignmentError(f"negative count in row {ti}")
        if sum(row) > inst.types[ti].count:
            raise InvalidAssignmentError(
                f"type {inst.types[ti].id!r} assigns {sum(row)} of {inst.types[ti].count} agents")


def perfect_types(inst: TypedInstance, x: TypeCountAssignment) -> frozenset[str]:
    """Ids of types with no agent staying home under x."""
    check_assignment(inst, x)
    return frozenset(t.id for ti, t in enumerate(inst.types) if x.row_sum(ti) == t.count)


def verify_sgasp(inst: TypedInstance, x: TypeCountAssignment) -> StabilityReport:
    """Check a size-approval assignment: individual rationality plus absence of
    deviations by home agents to an activity whose grown size they approve."""
    _require_kind(inst, "sgasp")
    check_assignment(inst, x)
    sizes = x.column_sums()
    violations = []
    for ti, t in enumerate(inst.types):
        prefs = t.prefs
        for ai, aid in enumerate(inst.activities):
            if x.counts[ti][ai] > 0 and not prefs.approves(aid, sizes[ai]):
                violations.append(Violation(
                    "ir", t.id, aid, f"attends at size {sizes[ai]} not approved"))
        if x.row_sum(ti) < t.count:
            for ai, aid in enumerate(inst.activities):
                if prefs.approves(aid, sizes[ai] + 1):
                    violations.append(Violation(
                        "deviation", t.id, aid, f"home agent approves joining at size {sizes[ai] + 1}"))
    return StabilityReport(tuple(violations))


def _occupied_alternatives(inst, x, ti, sizes):
    """Alternatives occupied by type ti: one per attended activity, plus home
    when not perfectly assigned."""
    occ = [(inst.activities[ai], sizes[ai])
           for ai in range(len(inst.activities)) if x.counts[ti][ai] > 0]
    if x.row_sum(ti) < inst.types[ti].count:
        occ.append(HOME)
    return occ


def verify_gasp(inst: TypedInstance, x: TypeCountAssignment) -> StabilityReport:
    """Check a rank assignment via unified deviations: from every occupied
    alternative of a type, moving to any other activity at its grown size (or
    home) must not be a strict improvement.  Deviations to home are exactly
    the individual-rationality failures."""
    _require_kind(inst, "gasp")
    check_assignment(inst, x)
    sizes = x.column_sums()
    violations = []
    for ti, t in enumerate(inst.types):
        rm = t.prefs
        for cur in _occupied_alternatives(inst, x, ti, sizes):
            cur_rank = rm.rank(cur)
            for ai, aid in enumerate(inst.activities):
                if aid == cur[0]:
                    continue
                if rm.rank((aid, sizes[ai] + 1)) > cur_rank:
                    violations.append(Violation(
                        "deviation", t.id, aid,
                        f"from {cur} to ({aid}, {sizes[ai] + 1})"))
            if cur != HOME and rm.home_rank > cur_rank:
                violations.append(Violation(
                    "ir", t.id, cur[0], f"prefers home over {cur}"))
    return StabilityReport(tuple(violations))


def minimal_alternatives(inst: TypedInstance, x: TypeCountAssignment) -> dict[str, tuple[tuple[str, int], ...]]:
    """Per type: its occupied alternatives of minimal rank (ties kept)."""
    _require_kind(inst, "gasp")
    check_assignment(inst, x)
    sizes = x.column_sums()
    out = {}
    for ti, t in enumerate(inst.types):
        occ = _occupied_alternatives(inst, x, ti, sizes)
        lo = min(t.prefs.rank(alt) for alt in occ)
        out[t.id] = tuple(alt for alt in occ if t.prefs.rank(alt) == lo)
    return out


def verify_gasp_minimal(inst: TypedInstance, x: TypeCountAssignment) -> StabilityReport:
    """Same verdict as verify_gasp, but only minimal occupied alternatives are
    used as deviation sources: a move that improves on any occupied
    alternative also improves on a worst one.  The source minimum is taken
    over the other activities, so moves into a minimal activity itself (its
    size grows by one) are still caught; keeping the two smallest occupied
    ranks per type is enough for that."""
    _require_kind(inst, "gasp")
    check_assignment(inst, x)
    sizes = x.column_sums()
    violations = []
    for ti, t in enumerate(inst.types):
        rm = t.prefs
        occ = _occupied_alternatives(inst, x, ti, sizes)
        ranked = sorted(((rm.rank(alt), alt) for alt in occ), key=lambda p: p[0])
        lo = ranked[0]
        lo2 = ranked[1] if len(ranked) > 1 else None

        def worst_outside(aid):
            # worst occupied alternative whose activity is not aid
            if lo[1][0] != aid:
                return lo
            return lo2

        for ai, aid in enumerate(inst.activities):
            src = worst_outside(aid)
            if src is None:
                continue
            if rm.rank((aid, sizes[ai] + 1)) > src[0]:
                violations.append(Violation(
                    "deviation", t.id, aid,
                    f"from {src[1]} to ({aid}, {sizes[ai] + 1})"))
        src = worst_outside(EMPTY_ACTIVITY)
        if src is not None and rm.home_rank > src[0]:
            violations.append(Violation("ir", t.id, src[1][0], f"prefers home over {src[1]}"))
    return StabilityReport(tuple(violations))


def induced_type_counts(net: NetworkInstance, pi: AgentAssignment) -> TypeCountAssignment:
    """Collapse a per-agent assignment to per-type attendance counts."""
    aidx = net.base.activity_index()
    tidx = net.base.type_index()
    type_of = net.type_of()
    counts = [[0] * len(net.base.activities) for _ in net.base.types]
    for agent, aid in pi.mapping.items():
        if aid != EMPTY_ACTIVITY:
            counts[tidx[type_of[agent]]][aidx[aid]] += 1
    return TypeCountAssignment(tuple(tuple(row) for row in counts))


def verify_ggasp(net: NetworkInstance, pi: AgentAssignment) -> StabilityReport:
    """Check a per-agent assignment on a network instance: every attended
    group induces a connected subgraph, every agent is individually rational,
    and no agent can strictly improve by joining another activity it is
    linked into (an empty target needs no link)."""
    ids = set(net.agent_ids())
    if set(pi.mapping) != ids:
        missing = ids - set(pi.mapping)
        extra = set(pi.mapping) - ids
        raise InvalidAssignmentError(f"agent set mismatch (missing {missing}, unknown {extra})")
    known = set(net.base.activities)
    for agent, aid in pi.mapping.items():
        if aid != EMPTY_ACTIVITY and aid not in known:
            raise InvalidAssignmentError(f"agent {agent!r} assigned to unknown activity {aid!r}")

    groups: dict[str, list[str]] = {a: [] for a in net.base.activities}
    for agent, _ in net.agents:  # declaration order keeps reports deterministic
        aid = pi.mapping[agent]
        if aid != EMPTY_ACTIVITY:
            groups[aid].append(agent)
    sizes = {a: len(g) for a, g in groups.items()}
    adj = net.neighbors()
    type_of = net.type_of()
    prefs = {t.id: t.prefs for t in net.base.types}
    violations = []

    for aid, group in groups.items():
        if len(group) > 1:
            seen = {group[0]}
            stack = [group[0]]
            members = set(group)
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v in members and v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) < len(group):
                violations.append(Violation(
                    "disconnected", ",".join(sorted(members - seen)), aid,
                    "attended group does not induce a connected subgraph"))

    for agent, tid in net.agents:
        rm = prefs[tid]
        cur_aid = pi.mapping[agent]
        cur = HOME if cur_aid == EMPTY_ACTIVITY else (cur_aid, sizes[cur_aid])
        cur_rank = rm.rank(cur)
        if cur != HOME and rm.home_rank > cur_rank:
            violations.append(Violation("ir", agent, cur_aid, f"prefers home over {cur}"))
        for aid in net.base.activities:
            if aid == cur_aid:
                continue
            if rm.rank((aid, sizes[aid] + 1)) <= cur_rank:
                continue
            if sizes[aid] == 0 or any(v in adj[agent] for v in groups[aid]):
                violations.append(Violation(
                    "deviation", agent, aid, f"from {cur} to ({aid}, {sizes[aid] + 1})"))
    return StabilityReport(tuple(violations))


def gamma_preprocess(inst: TypedInstance, q: Iterable[str]) -> tuple[TypedInstance, tuple[str, ...]]:
    """Prune approvals against deviations by types outside q.

    Removes size s from any approval set for activity a whenever some type
    outside q approves s+1 there (such a size would invite a join), and
    returns the activities some outside type would join when empty.  For
    assignments whose perfectly-assigned types are exactly q, stability of
    the original instance is equivalent to individual rationality in the
    pruned instance plus non-emptiness of the returned activities.
    """
    _require_kind(inst, "sgasp")
    qset = set(q)
    known = set(t.id for t in inst.types)
    unknown = qset - known
    if unknown:
        raise InvalidInstanceError(f"unknown type ids in q: {sorted(unknown)}")
    outside = [t for t in inst.types if t.id not in qset]
    forbidden: dict[str, set[int]] = {a: set() for a in inst.activities}
    nonempty = []
    for a in inst.activities:
        for t in outside:
            for s in t.prefs.sizes(a):
                if s > 1:
                    forbidden[a].add(s - 1)
        if any(1 in t.prefs.sizes(a) for t in outside):
            nonempty.append(a)
    new_types = []
    for t in inst.types:
        approvals = {a: t.prefs.sizes(a) - forbidden[a] for a in inst.activities}
        new_types.append(AgentType(t.id, t.count, SizeSetPrefs(approvals)))
    pruned = TypedInstance(inst.activities, tuple(new_types), meta=inst.meta)
    return pruned, tuple(nonempty)


def approval_masks(inst: TypedInstance) -> list[list[int]]:
    """Per type and activity, the approved sizes as a bitmask (bit s: size s)."""
    return [[sum(1 << s for s in t.prefs.sizes(a)) for a in inst.activities]
            for t in inst.types]


def gamma_masks(masks: list[list[int]], home: Iterable[int]) -> tuple[list[list[int]], list[int]]:
    """`gamma_preprocess` on `approval_masks` output, for q the types not in
    `home` (indices): the pruned masks and the indices of must-use activities."""
    drop = [0] * (len(masks[0]) if masks else 0)
    for t in home:
        for a, mask in enumerate(masks[t]):
            drop[a] |= mask >> 1
    pruned = [[mask & ~d for mask, d in zip(row, drop)] for row in masks]
    # sizes are >= 1: bit 0 of drop[a] means a home type would start a alone
    return pruned, [a for a, d in enumerate(drop) if d & 1]


def incidence_graph(x: TypeCountAssignment) -> frozenset[tuple[int, int]]:
    """Edges (type index, activity index) with positive attendance."""
    return frozenset((ti, ai)
                     for ti, row in enumerate(x.counts)
                     for ai, c in enumerate(row) if c > 0)


def is_forest(vertex_count: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether an edge list over vertices 0..vertex_count-1 has no cycle."""
    parent = list(range(vertex_count))
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            return False
        parent[u] = v
    return True


def is_acyclic(edges: Iterable[tuple[int, int]]) -> bool:
    """Whether a set of (type, activity) edges forms a forest."""
    edges = list(edges)
    t_count = 1 + max((ti for ti, _ in edges), default=-1)
    a_count = 1 + max((ai for _, ai in edges), default=-1)
    return is_forest(t_count + a_count, [(ti, t_count + ai) for ti, ai in edges])


def _find_cycle(edges: frozenset[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """One alternating cycle (t_1..t_l, a_1..a_l) in the incidence graph.

    Cycle edges are (t_i, a_i) plus (t_{i+1}, a_i) with t_{l+1} = t_1, so the
    closing edge pairs t_1 with a_l.
    """
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for ti, ai in sorted(edges):
        adj.setdefault(("t", ti), []).append(("a", ai))
        adj.setdefault(("a", ai), []).append(("t", ti))
    color: dict[tuple[str, int], str] = {}
    parents: dict[tuple[str, int], tuple[str, int] | None] = {}

    def dfs(u, par):
        color[u] = "open"
        parents[u] = par
        for v in adj[u]:
            if v == par:
                continue
            if color.get(v) == "open":
                return u, v  # back edge to an ancestor on the current path
            if v not in color:
                hit = dfs(v, u)
                if hit:
                    return hit
        color[u] = "done"
        return None

    for start in sorted(adj):
        if start in color:
            continue
        hit = dfs(start, None)
        if hit is None:
            continue
        u, v = hit
        path = [u]
        while path[-1] != v:
            path.append(parents[path[-1]])
        if path[0][0] == "a":  # rotate the loop so a type opens it
            path = path[-1:] + path[:-1]
        types = [node[1] for node in path[0::2]]
        acts = [node[1] for node in path[1::2]]
        return types, acts
    raise NoCycleError("incidence graph is acyclic")


def compress_once(x: TypeCountAssignment) -> TypeCountAssignment:
    """Shift attendance around one incidence cycle until an edge empties.

    Row and column sums are preserved, the support never grows, and at
    least one cycle edge drops to zero, so iterating terminates in an
    acyclic assignment.  Raises NoCycleError when already acyclic.
    """
    edges = incidence_graph(x)
    types, acts = _find_cycle(edges)
    l = len(types)
    m = min(x.counts[types[i]][acts[i]] for i in range(l))
    rows = [list(row) for row in x.counts]
    for i in range(l):
        rows[types[i]][acts[i]] -= m
        rows[types[i]][acts[i - 1]] += m  # i=0 wraps to the closing activity
    return TypeCountAssignment(tuple(tuple(r) for r in rows))
