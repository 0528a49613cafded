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
from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .budget import WorkMeter, check, resolve_budget
from .errors import InvalidInstanceError
from .model import _is_int, is_forest


def _mask(values: Iterable[int], top: int) -> int:
    m = 0
    for v in values:
        if 0 <= v <= top:
            m |= 1 << v
    return m


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _splits(total: int, caps: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Every tuple whose entries sum to `total`, entry i at most caps[i], in
    tuple order; a position capped at 0 stays 0.

    The smallest tuple fills from the right.  Each next one raises the last
    position that can take one more from the positions after it, and those
    refill from the right.  No recursion, so any number of positions works.
    """
    n = len(caps)
    vec = [0] * n
    i, left = -1, total  # refill the positions after i with left
    while True:
        r = i  # the last nonzero position (-1: none)
        for j in range(n - 1, i, -1):
            if not left:
                break
            v = vec[j] = min(caps[j], left)
            left -= v
            if v and r == i:
                r = j
        if left:
            return  # the caps hold less than total
        yield tuple(vec)
        # positions after r are 0: raise the last position before r that is
        # below its cap, and refill all after it with one unit less
        i = r - 1
        while i >= 0 and vec[i] == caps[i]:
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        left = sum(vec[i + 1:r + 1]) - 1
        vec[i + 1:r + 1] = [0] * (r - i)


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


def _fold_mask(d: int, value_mask: int) -> int:
    out = 0
    m = value_mask
    # the TSS/PSS inner fold: inline rather than `_bits`, to skip a generator
    while m:
        low = m & -m
        out |= d >> (low.bit_length() - 1)
        m &= m - 1
    return out


def solve_pss(inst: PSSInstance) -> FrozenSet[int]:
    """All s >= 0 with s + (one element per source) in the target set.

    Bit v of the running mask means: v plus one element from each source
    processed so far hits a target.  Zero sources leaves the targets as is;
    an empty source kills every bit, which is the right answer.  Values
    above the largest target are dropped: they shift every bit out.
    """
    d = _mask(inst.targets, inst.max_value)
    for s in inst.sources:
        d = _fold_mask(d, _mask(s, inst.max_value))
    return frozenset(_bits(d))


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
            for val in _bits(rmasks[c]):
                after = t >> val
                for rm in rest:
                    after = _fold_mask(after, rm)
                if after & 1:
                    break
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
    # holds every feasible valuation; an empty label makes the range empty.
    # With no edges the one valuation is (), feasible iff every label has 0
    hi = [max(l) if l else -1 for l in tree.labels]
    for alpha in product(*(range(min(hi[u], hi[v]) + 1) for u, v in tree.edges)):
        meter.tick()
        if check_tss_witness(tree, alpha):
            return TSSResult(True, alpha)
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
        if not _is_int(k) or k < 1:
            raise InvalidInstanceError(f"dimension must be an int >= 1, got {k!r}")
        # a scalar cap applies to every component; non-ints fail the check below
        caps = tuple(caps) if isinstance(caps, (list, tuple)) else (caps,) * k
        _check_nonneg(caps, "caps")
        if len(caps) != k:
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

    def __init__(self, targets: FrozenSet[Tuple[int, ...]], resolver):
        self.targets = targets
        self._resolver = resolver

    def witness(self, target: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
        """One vector per set summing to target.  From `solve_mpss`: the
        smallest workable vector at each set, walking last set to first.
        From `brute_mpss`: the first path in DFS order, sets first to last,
        each set's vectors in sorted order."""
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


def _mpss(sets: Sequence[Sequence[Tuple[int, int]]]) -> List[int]:
    """MPSS kernel on one `_MixedRadix`: each set is given as the
    (position, geq_mask) pairs of its vectors.  Returns the prefix tables:
    bit p of prefixes[i] means the vector at position p is a sum of one
    vector from each of sets 0..i-1 (prefixes[0] = 1, the zero vector).
    Stops after the first empty table, since every later one is empty too.
    Unchecked precondition: every vector lies inside the caps.
    """
    prefixes = [1]
    for pairs in sets:
        check()
        d = prefixes[-1]
        out = 0
        for pos, geq in pairs:
            out |= (d << pos) & geq
        prefixes.append(out)
        if not out:
            break
    return prefixes


def _mpss_witness(sets: Sequence[Sequence[Tuple[int, int]]], prefixes: Sequence[int],
                  pos: int) -> List[int]:
    """Per set, the index of the vector picked for a sum at position `pos`
    of the last table: the first workable one at each set, walking last set
    to first.  A vector is workable if it fits under the rest (its geq mask
    holds `pos`) and the rest minus it is reachable before its set."""
    picks = [0] * len(sets)
    for i in reversed(range(len(sets))):
        for j, (p, geq) in enumerate(sets[i]):
            if geq >> pos & 1 and prefixes[i] >> (pos - p) & 1:
                picks[i] = j
                pos -= p
                break
        else:
            raise AssertionError("witness extraction lost feasibility")
    return picks


def _kept(fam: VectorFamily) -> List[List[Tuple[int, ...]]]:
    """Each set's vectors with every component within its cap, in order;
    the others can never be used, since sums only grow."""
    return [[vec for vec in p_set if all(v <= c for v, c in zip(vec, fam.caps))]
            for p_set in fam.sets]


def solve_mpss(fam: VectorFamily) -> MPSSResult:
    """All t in [0,caps]^k writable as a sum with exactly one vector per set."""
    radix = _MixedRadix(fam.caps)
    kept = _kept(fam)
    sets = [[(radix.position(vec), radix.geq_mask(vec)) for vec in vecs] for vecs in kept]
    prefixes = _mpss(sets)
    targets = frozenset(radix.vector(p) for p in _bits(prefixes[-1]))

    def resolver(target):
        picks = _mpss_witness(sets, prefixes, radix.position(target))
        return tuple(vecs[j] for vecs, j in zip(kept, picks))

    return MPSSResult(targets, resolver)


def _mpss_walk(sets, acc, guard, target, found, meter) -> None:
    """Depth-first walk behind `brute_mpss` on packed sums: one tick per
    node, children in set order, a child dropped when its sum sets a guard
    bit.  Leaves go into `found` (the first path per sum) when `target` is
    None; otherwise the walk records the first leaf equal to `target` and
    stops there.

    The walk keeps one iterator over each depth's set on an explicit
    stack, so its depth is not bounded by Python's recursion limit; the
    children of the last set are leaves and are handled in one loop."""
    tick = meter.tick
    tick()
    last = len(sets) - 1
    if last < 0:
        if target is None or acc == target:
            found[acc] = ()
        return
    path = [None] * (last + 1)
    sums = [acc] * (last + 1)  # sums[d]: the partial sum above depth d
    its = [iter(sets[0])] + [None] * last  # its[d]: depth d's children left
    d = 0
    while d >= 0:
        base = sums[d]
        if d == last:
            for vec, add in its[d]:
                s = base + add
                if s & guard:
                    continue
                tick()
                if target is None:
                    if s not in found:
                        path[d] = vec
                        found[s] = tuple(path)
                elif s == target:
                    path[d] = vec
                    found[s] = tuple(path)
                    return
            d -= 1
            continue
        for vec, add in its[d]:
            s = base + add
            if not s & guard:
                break
        else:
            d -= 1
            continue
        path[d] = vec
        tick()
        d += 1
        sums[d] = s
        its[d] = iter(sets[d])


def brute_mpss(fam: VectorFamily, budget: Optional[int] = None,
               target: Optional[Sequence[int]] = None) -> MPSSResult:
    """Exhaustive MPSS by depth-first search over one-vector-per-set choices,
    pruned as soon as a partial sum leaves the cap box. One step per node.

    Each partial sum is one int.  Component i owns a field of b_i + 1 bits,
    b_i = caps[i].bit_length(), and starts at 2^b_i - 1 - caps[i], so it is
    over its cap exactly when its guard bit 2^b_i is set.  Vectors with a
    component over its cap are dropped first; every kept entry is at most
    its cap, so a child costs one add and one AND, and no carry crosses a
    field.

    Without `target` every reachable sum is returned, each with the first
    path in DFS order as its witness.  With `target` (a k-vector) the walk
    stops at the first path that reaches it; `.targets` is then {target},
    or empty when it is unreachable or outside the cap box.
    """
    meter = WorkMeter(resolve_budget(budget))
    offs: List[int] = []
    bias = guard = off = 0
    for c in fam.caps:
        b = c.bit_length()
        offs.append(off)
        bias |= ((1 << b) - 1 - c) << off
        guard |= 1 << (off + b)
        off += b + 1

    def pack(vec):
        return sum(v << o for v, o in zip(vec, offs))

    sets = [[(vec, pack(vec)) for vec in vecs] for vecs in _kept(fam)]
    goal = None
    if target is not None:
        target = tuple(target)
        _check_nonneg(target, "target components")
        if len(target) != fam.k:
            raise InvalidInstanceError(f"target {target!r} is not {fam.k}-dimensional")
        # a target outside the box is unreachable, and packing it could carry
        # into the next field; -1 equals no leaf
        inside = all(t <= c for t, c in zip(target, fam.caps))
        goal = bias + pack(target) if inside else -1
    found: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    _mpss_walk(sets, bias, guard, goal, found, meter)
    if target is not None:
        paths = {target: found[goal]} if found else {}
    else:
        # less the bias, each field holds just its component (at most its cap)
        fields = [(o, (1 << c.bit_length()) - 1) for o, c in zip(offs, fam.caps)]
        paths = {tuple((acc - bias) >> o & m for o, m in fields): path
                 for acc, path in found.items()}

    def resolver(t):
        return paths[tuple(t)]

    return MPSSResult(frozenset(paths), resolver)
