"""Subset-sum machinery behind the exact solvers.

Three variants, all solved by pseudo-polynomial dynamic programming over
bitmasks (Python integers, one bit per reachable value):

* PSS: given a target set R and source sets S_1..S_l, compute every slack
  s >= 0 such that s plus one element from each source lands in R.
* TSS: given a vertex-labeled tree (or forest), decide whether edges can be
  valued with nonnegative integers so that every vertex's incident sum lies
  in its label, and produce such a valuation.
* MPSS: the k-dimensional analogue of PSS with one vector picked from each
  set and per-component caps; returns all reachable capped sums.

Each solver has a brute-force twin used as a test oracle; the twins refuse
instances past a work budget instead of hanging.

The instance classes (`LabeledTree` among them) are the validating
boundary; past them everything works on plain bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .budget import WorkMeter, resolve_budget
from .errors import InvalidInstanceError
from .model import _is_int, is_forest


def _mask(values: Iterable[int], top: int) -> int:
    m = 0
    for v in values:
        if 0 <= v <= top:
            m |= 1 << v
    return m


def _bits(mask: int) -> FrozenSet[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def _check_nonneg(values, what):
    for v in values:
        if not _is_int(v) or v < 0:
            raise InvalidInstanceError(f"{what} must be nonnegative integers, got {v!r}")


# ---------------------------------------------------------------------------
# PSS


@dataclass(frozen=True)
class PSSInstance:
    """Target set R plus source sets S_1..S_l, all nonnegative integers."""

    targets: FrozenSet[int]
    sources: Tuple[FrozenSet[int], ...]

    def __init__(self, targets, sources=()):
        _check_nonneg(targets, "targets")
        for s in sources:
            _check_nonneg(s, "source values")
        object.__setattr__(self, "targets", frozenset(targets))
        object.__setattr__(self, "sources", tuple(frozenset(s) for s in sources))

    @property
    def max_value(self) -> int:
        return max(self.targets, default=0)


def _fold_values(d: int, values: Iterable[int]) -> int:
    out = 0
    for v in values:
        out |= d >> v
    return out


def _fold_mask(d: int, value_mask: int) -> int:
    out = 0
    m = value_mask
    while m:
        low = m & -m
        out |= d >> (low.bit_length() - 1)
        m &= m - 1
    return out


def solve_pss(inst: PSSInstance) -> FrozenSet[int]:
    """All s >= 0 with s + (one element per source) in the target set.

    Bit v of the running mask means: v plus one element from each source
    processed so far hits a target.  Zero sources leaves the targets as is;
    an empty source kills every bit, which is the right answer.
    """
    d = _mask(inst.targets, inst.max_value)
    for s in inst.sources:
        d = _fold_values(d, s)
    return _bits(d)


def brute_pss(inst: PSSInstance, budget: Optional[int] = None) -> FrozenSet[int]:
    """Exhaustive PSS over all source choices. One step per choice tuple."""
    meter = WorkMeter(resolve_budget(budget))
    sums = {0}
    for s in inst.sources:
        nxt = set()
        for partial in sums:
            for v in s:
                meter.tick()
                nxt.add(partial + v)
        sums = nxt
    out = set()
    for r in inst.targets:
        for total in sums:
            if total <= r:
                out.add(r - total)
    return frozenset(out)


# ---------------------------------------------------------------------------
# TSS


@dataclass(frozen=True)
class LabeledTree:
    """Vertices 0..n-1 with integer-set labels and an acyclic edge list."""

    labels: Tuple[FrozenSet[int], ...]
    edges: Tuple[Tuple[int, int], ...]

    def __init__(self, labels, edges=()):
        labels = tuple(frozenset(l) for l in labels)
        for l in labels:
            _check_nonneg(l, "labels")
        n = len(labels)
        norm = []
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidInstanceError(f"bad edge {e!r}")
            norm.append((u, v))
        if not is_forest(n, norm):
            raise InvalidInstanceError("edge set contains a cycle")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def max_value(self) -> int:
        return max((max(l) for l in self.labels if l), default=0)


@dataclass(frozen=True)
class TSSResult:
    feasible: bool
    # edge values aligned with the instance's edge list, None on NO
    alpha: Optional[Tuple[int, ...]] = None


def _tss(masks: Sequence[int], edges: Sequence[Tuple[int, int]]) -> Optional[Tuple[int, ...]]:
    """TSS on bitmask labels (bit s of masks[v]: s is allowed at v): edge
    values aligned with `edges`, or None.  Unchecked precondition: `edges`
    is a forest over 0..len(masks)-1 without self loops.

    Edge values live in N_0; label {0} is the neutral "no constraint beyond
    empty incidence" for isolated vertices.  At each reconstruction step the
    smallest workable edge value is taken, so the witness is deterministic.
    """
    # roots (smallest index per component) and sorted children lists
    n = len(masks)
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    roots = []
    children: List[List[int]] = [[] for _ in range(n)]
    order = []  # every vertex, parents before children
    for r in range(n):
        if seen[r]:
            continue
        roots.append(r)
        seen[r] = True
        stack = [r]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    children[v].append(w)
                    stack.append(w)

    # bottom-up R(v): slacks s such that s + sums from the subtrees below v
    # land in lambda(v); leaves reduce to lambda(v) itself
    rmasks = [0] * n
    for v in reversed(order):
        d = masks[v]
        for c in children[v]:
            d = _fold_mask(d, rmasks[c])
        rmasks[v] = d
    if any(rmasks[r] & 1 == 0 for r in roots):
        return None

    values: Dict[Tuple[int, int], int] = {}
    stack = [(r, 0) for r in roots]
    while stack:
        v, up = stack.pop()
        # remaining targets for the sum over edges into v's children
        t = masks[v] >> up
        cs = children[v]
        for i, c in enumerate(cs):
            rest = [rmasks[w] for w in cs[i + 1:]]
            m = rmasks[c]
            while m:
                low = m & -m
                val = low.bit_length() - 1
                after = t >> val
                for rm in rest:
                    after = _fold_mask(after, rm)
                if after & 1:
                    break
                m &= m - 1
            else:
                raise AssertionError("witness extraction lost feasibility")
            values[(min(v, c), max(v, c))] = val
            t >>= val
            stack.append((c, val))
    return tuple(values[(min(u, v), max(u, v))] for u, v in edges)


def solve_tss(tree: LabeledTree) -> TSSResult:
    """Feasibility plus one witness valuation (see `_tss`)."""
    top = tree.max_value
    alpha = _tss([_mask(l, top) for l in tree.labels], tree.edges)
    return TSSResult(alpha is not None, alpha)


def check_tss_witness(tree: LabeledTree, alpha: Sequence[int]) -> bool:
    """Independent re-check: every vertex's incident sum lies in its label."""
    if len(alpha) != len(tree.edges):
        return False
    inc = [0] * len(tree.labels)
    for (u, v), val in zip(tree.edges, alpha):
        if val < 0:
            return False
        inc[u] += val
        inc[v] += val
    return all(inc[v] in tree.labels[v] for v in range(len(tree.labels)))


def brute_tss(tree: LabeledTree, budget: Optional[int] = None) -> TSSResult:
    """Exhaustive TSS over all valuations with each edge in
    [0, min(max label(u), max label(v))], lexicographic.
    One step per valuation tried."""
    meter = WorkMeter(resolve_budget(budget))
    # an edge value never exceeds either endpoint's incident sum, so this box
    # holds every feasible valuation; an empty label makes the range empty
    hi = [max(l) if l else -1 for l in tree.labels]
    tops = [min(hi[u], hi[v]) for u, v in tree.edges]
    m = len(tree.edges)
    alpha = [0] * m

    def rec(i):
        if i == m:
            meter.tick()
            return check_tss_witness(tree, alpha)
        for val in range(tops[i] + 1):
            alpha[i] = val
            if rec(i + 1):
                return True
        return False

    if m == 0:
        meter.tick()
        ok = all(0 in l for l in tree.labels)
        return TSSResult(ok, () if ok else None)
    if rec(0):
        return TSSResult(True, tuple(alpha))
    return TSSResult(False)


# ---------------------------------------------------------------------------
# MPSS


@dataclass(frozen=True)
class VectorFamily:
    """Sets P_1..P_l of k-vectors over N_0 with per-component caps."""

    k: int
    caps: Tuple[int, ...]
    sets: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __init__(self, k, caps, sets=()):
        if k < 1:
            raise InvalidInstanceError("dimension must be >= 1")
        if isinstance(caps, int):
            caps = (caps,) * k
        caps = tuple(int(c) for c in caps)
        if len(caps) != k or any(c < 0 for c in caps):
            raise InvalidInstanceError(f"need {k} nonnegative caps, got {caps!r}")
        norm = []
        for p_i in sets:
            vecs = []
            for vec in p_i:
                vec = tuple(vec)
                if len(vec) != k:
                    raise InvalidInstanceError(f"vector {vec!r} is not {k}-dimensional")
                _check_nonneg(vec, "vector components")
                vecs.append(vec)
            norm.append(tuple(sorted(set(vecs))))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "sets", tuple(norm))


class MPSSResult:
    """Reachable capped sums plus witness reconstruction."""

    def __init__(self, targets: FrozenSet[Tuple[int, ...]], empty_source: bool,
                 resolver):
        self.targets = targets
        self.empty_source = empty_source
        self._resolver = resolver

    def witness(self, target: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
        """One vector per set summing to target; lexicographically smallest
        choice at each set, walking last set to first."""
        target = tuple(target)
        if target not in self.targets:
            raise KeyError(f"{target!r} is not reachable")
        return self._resolver(target)


class _MixedRadix:
    """Positions of [0,caps]^k vectors inside one big-int bitmask."""

    def __init__(self, caps: Tuple[int, ...]):
        self.caps = caps
        self.strides = []
        total = 1
        for c in caps:
            self.strides.append(total)
            total *= c + 1
        self.total = total
        self._geq: Dict[Tuple[int, int], int] = {}

    def position(self, vec) -> int:
        return sum(v * s for v, s in zip(vec, self.strides))

    def vector(self, pos) -> Tuple[int, ...]:
        out = []
        for c in self.caps:
            out.append(pos % (c + 1))
            pos //= c + 1
        return tuple(out)

    def _component_geq(self, i: int, v: int) -> int:
        # bitmask of all positions whose i-th digit is >= v
        key = (i, v)
        got = self._geq.get(key)
        if got is not None:
            return got
        stride = self.strides[i]
        period = stride * (self.caps[i] + 1)
        block = ((1 << ((self.caps[i] + 1 - v) * stride)) - 1) << (v * stride)
        m, span = block, period
        while span < self.total:
            m |= m << span
            span *= 2
        m &= (1 << self.total) - 1
        self._geq[key] = m
        return m

    def geq_mask(self, vec) -> int:
        # positions reachable by adding vec without any component overflow;
        # a radix carry always drags some digit below the added amount
        m = self._component_geq(0, vec[0])
        for i in range(1, len(vec)):
            m &= self._component_geq(i, vec[i])
        return m


def _mpss_fold(d: int, p_set, radix: _MixedRadix) -> int:
    out = 0
    for vec in p_set:
        if any(v > c for v, c in zip(vec, radix.caps)):
            continue
        out |= (d << radix.position(vec)) & radix.geq_mask(vec)
    return out


def solve_mpss(fam: VectorFamily) -> MPSSResult:
    """All t in [0,caps]^k writable as a sum with exactly one vector per set."""
    radix = _MixedRadix(fam.caps)
    prefixes = [1]  # prefixes[i]: the table after sets 0..i-1; 1 is the zero vector
    for p_set in fam.sets:
        prefixes.append(_mpss_fold(prefixes[-1], p_set, radix))
    targets = set()
    m = prefixes[-1]
    while m:
        low = m & -m
        targets.add(radix.vector(low.bit_length() - 1))
        m &= m - 1

    def resolver(target):
        chosen: List[Tuple[int, ...]] = [None] * len(fam.sets)  # type: ignore
        rest = target
        for i in reversed(range(len(fam.sets))):
            for vec in fam.sets[i]:
                if any(r < v for r, v in zip(rest, vec)):
                    continue
                before = tuple(r - v for r, v in zip(rest, vec))
                if (prefixes[i] >> radix.position(before)) & 1:
                    chosen[i] = vec
                    rest = before
                    break
            else:
                raise AssertionError("witness extraction lost feasibility")
        return tuple(chosen)

    return MPSSResult(frozenset(targets), any(not s for s in fam.sets), resolver)


def brute_mpss(fam: VectorFamily, budget: Optional[int] = None) -> MPSSResult:
    """Exhaustive MPSS by depth-first search over one-vector-per-set choices,
    pruned as soon as a partial sum leaves the cap box. One step per node."""
    meter = WorkMeter(resolve_budget(budget))
    l = len(fam.sets)
    found: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = {}
    path: List[Tuple[int, ...]] = []

    def rec(i, acc):
        meter.tick()
        if i == l:
            found.setdefault(acc, tuple(path))
            return
        for vec in fam.sets[i]:
            nxt = tuple(a + v for a, v in zip(acc, vec))
            if any(x > c for x, c in zip(nxt, fam.caps)):
                continue
            path.append(vec)
            rec(i + 1, nxt)
            path.pop()

    rec(0, (0,) * fam.k)

    def resolver(target):
        return found[tuple(target)]

    return MPSSResult(frozenset(found), any(not s for s in fam.sets), resolver)
