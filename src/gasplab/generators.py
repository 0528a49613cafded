"""Instance factories.

Two families live here.  Random factories produce seeded fuzz instances of
every kind the solvers accept.  Constructive factories encode clique search
in an equally-partitioned graph into progressively richer problems:

    PartitionedCliqueInstance --pc_to_smpss--->  SMPSSInstance
    SMPSSInstance             --smpss_to_sgasp-> TypedInstance (size approvals)
    PartitionedCliqueInstance --pc_to_gasp---->  TypedInstance (ranks)
    PartitionedCliqueInstance --pc_to_ggasp--->  NetworkInstance

Each constructive factory self-checks its structural invariants (set
simplicity, count formulas, the vertex cover bound) and attaches provenance
metadata to the emitted instance, including a ready-made witness whenever
the source graph carries a planted clique.
"""

from dataclasses import dataclass
from itertools import combinations, product
from random import Random
from typing import Mapping, Optional, Tuple

from .budget import DEFAULT_BUDGET, metered
from .errors import InvalidInstanceError
from .model import (
    EMPTY_ACTIVITY,
    HOME,
    AgentType,
    NetworkInstance,
    RankMap,
    SizeSetPrefs,
    TypedInstance,
)
from .subsetsum import VectorFamily, _check_nonneg, brute_mpss

__all__ = [
    "PartitionedCliqueInstance",
    "SMPSSInstance",
    "find_clique",
    "pc_to_gasp",
    "pc_to_ggasp",
    "pc_to_smpss",
    "random_instance",
    "random_partitioned_clique",
    "sidon",
    "smpss_solvable",
    "smpss_to_sgasp",
]


def sidon(length: int) -> list:
    """Greedy Sidon sequence starting at 1.

    Each candidate is admitted iff none of its pairwise sums with the
    numbers already chosen (its double included) repeats an earlier sum.
    Deterministic, and the values stay polynomially small in the length.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    seq: list = []
    sums = set()
    cand = 1
    while len(seq) < length:
        fresh = [cand + x for x in seq]
        fresh.append(cand + cand)
        if all(s not in sums for s in fresh):
            seq.append(cand)
            sums.update(fresh)
        cand += 1
    return seq


# ---------------------------------------------------------------------------
# source and intermediate problem shapes


@dataclass(frozen=True)
class PartitionedCliqueInstance:
    """A graph whose vertices are split into equal-size parts and whose
    edges all cross parts.  The question it carries: one vertex per part,
    pairwise adjacent."""

    parts: Tuple[Tuple[str, ...], ...]
    edges: frozenset
    meta: Optional[Mapping] = None

    def __post_init__(self):
        parts = tuple(tuple(part) for part in self.parts)
        if not parts:
            raise InvalidInstanceError("need at least one part")
        n = len(parts[0])
        if n < 1 or any(len(p) != n for p in parts):
            raise InvalidInstanceError("parts must be nonempty and of equal size")
        where = {}
        for i, part in enumerate(parts):
            for pos, v in enumerate(part):
                if not isinstance(v, str) or not v:
                    raise InvalidInstanceError("vertex id must be a nonempty string")
                if v in where:
                    raise InvalidInstanceError(f"duplicate vertex id {v!r}")
                where[v] = (i, pos)
        norm = set()
        for pair in self.edges:
            u, v = pair
            if u not in where or v not in where:
                raise InvalidInstanceError(f"edge {pair!r} references unknown vertex")
            if where[u][0] == where[v][0]:
                raise InvalidInstanceError(f"edge {pair!r} stays inside one part")
            if where[u][0] > where[v][0]:
                u, v = v, u
            norm.add((u, v))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_where", where)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return len(self.parts[0])

    def part_of(self, v: str) -> int:
        return self._where[v][0]

    def adjacent(self, u: str, v: str) -> bool:
        if self._where[u][0] > self._where[v][0]:
            u, v = v, u
        return (u, v) in self.edges

    def pair_edges(self, i: int, j: int) -> tuple:
        """Edges between parts i < j, ordered by endpoint positions so that
        downstream numberings are reproducible."""
        if not 0 <= i < j < self.k:
            raise InvalidInstanceError(f"no part pair ({i}, {j})")
        picked = [(u, v) for (u, v) in self.edges
                  if self._where[u][0] == i and self._where[v][0] == j]
        picked.sort(key=lambda e: (self._where[e[0]][1], self._where[e[1]][1]))
        return tuple(picked)

    def pair_counts(self) -> dict:
        return {(i, j): len(self.pair_edges(i, j))
                for i, j in combinations(range(self.k), 2)}


def find_clique(pc: PartitionedCliqueInstance, budget=None):
    """Exhaustive search for one pairwise-adjacent vertex per part; None if
    there is none.  n^k combinations, meant for desk-size instances: more
    than the budget (`budget.resolve_budget`) are refused up front."""
    meter = metered(budget, pc.n ** pc.k, "clique combinations", DEFAULT_BUDGET)
    for combo in product(*pc.parts):
        meter.tick()
        if all(pc.adjacent(combo[i], combo[j])
               for i, j in combinations(range(pc.k), 2)):
            return combo
    return None


def _uniform_m(pc: PartitionedCliqueInstance, least: int = 1) -> int:
    counts = set(pc.pair_counts().values())
    if len(counts) > 1:
        raise InvalidInstanceError(
            f"per-pair edge counts differ ({sorted(counts)}); the constructions "
            "need the same count between every two parts")
    m = counts.pop() if counts else 0
    if m < least:
        raise InvalidInstanceError(f"need at least {least} edge(s) per part pair")
    return m


def _planted(pc: PartitionedCliqueInstance):
    """The planted clique recorded on the graph, validated, or None."""
    clique = (pc.meta or {}).get("planted")
    if clique is None:
        return None
    clique = tuple(clique)
    if len(clique) != pc.k or any(pc.part_of(v) != i for i, v in enumerate(clique)):
        raise InvalidInstanceError("planted witness must list one vertex per part, in order")
    for i, j in combinations(range(pc.k), 2):
        if not pc.adjacent(clique[i], clique[j]):
            raise InvalidInstanceError(
                f"planted witness is not a clique: {clique[i]!r} and {clique[j]!r} "
                "are not adjacent")
    return clique


@dataclass(frozen=True)
class SMPSSInstance:
    """One-vector-per-set subset sum over nonnegative integer vectors where
    every set is simple: each vector has exactly one non-zero component and
    no two vectors in a set share their non-zero value."""

    target: Tuple[int, ...]
    sets: Tuple[Tuple[Tuple[int, ...], ...], ...]
    meta: Optional[Mapping] = None

    def __post_init__(self):
        target = tuple(self.target)
        if not target:
            raise InvalidInstanceError("dimension must be >= 1")
        _check_nonneg(target, "target components")
        d = len(target)
        norm = []
        for si, p_set in enumerate(self.sets):
            vecs = []
            values = set()
            for vec in p_set:
                vec = tuple(vec)
                if len(vec) != d:
                    raise InvalidInstanceError(
                        f"set {si}: vector {vec!r} is not {d}-dimensional")
                _check_nonneg(vec, f"set {si}: vector components")
                nz = [x for x in vec if x != 0]
                if len(nz) != 1:
                    raise InvalidInstanceError(
                        f"set {si}: vector {vec!r} needs exactly one positive component")
                if nz[0] in values:
                    raise InvalidInstanceError(
                        f"set {si} is not simple: value {nz[0]} appears twice")
                values.add(nz[0])
                vecs.append(vec)
            norm.append(tuple(vecs))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def d(self) -> int:
        return len(self.target)

    def family(self) -> VectorFamily:
        # capping partial sums at the target is sound: components never shrink
        return VectorFamily(self.d, self.target, self.sets)


def smpss_solvable(s: SMPSSInstance, budget=None) -> bool:
    """Exhaustively decide whether one vector per set can sum to the target."""
    return s.target in brute_mpss(s.family(), budget=budget, target=s.target).targets


# ---------------------------------------------------------------------------
# partitioned clique -> SMPSS

# Component roles: the k-1 vertex components of part i hold the choice of a
# vertex in part i and hand it from one component to the next; each edge
# component receives the Sidon values of the two chosen endpoints and its
# target only balances when those endpoints really share an edge.


def _others(i: int, k: int) -> list:
    return [j for j in range(k) if j != i]


def pc_to_smpss(pc: PartitionedCliqueInstance) -> SMPSSInstance:
    k, n = pc.k, pc.n
    if k < 3:
        raise InvalidInstanceError(f"need k >= 3 parts, got {k}")
    if n < 2:
        raise InvalidInstanceError(f"need parts of size >= 2, got {n}")
    m = _uniform_m(pc, least=0)
    n2, n4, n6, n8 = n ** 2, n ** 4, n ** 6, n ** 8
    sum_l = n * (n + 1) // 2

    svals = sidon(k * n)
    s_of = {v: svals[i * n + pos]
            for i, part in enumerate(pc.parts) for pos, v in enumerate(part)}

    comp = {}
    comp_names = []
    for i in range(k):
        for j in _others(i, k):
            comp[("V", i, j)] = len(comp_names)
            comp_names.append(f"cV{i + 1}({j + 1})")
    for i, j in combinations(range(k), 2):
        comp[("E", i, j)] = len(comp_names)
        comp_names.append(f"cE({i + 1},{j + 1})")
    d = len(comp_names)
    assert d == k * (k - 1) + k * (k - 1) // 2

    target = [0] * d
    for i in range(k):
        others = _others(i, k)
        for j in others:
            if j == others[0]:
                t = n6 + n4
            elif j == others[-1]:
                t = (n - 1) * n8 + n6 + sum_l
            else:
                t = (n - 1) * n8 + n6 + n4 + sum_l + sum_l * n2
            target[comp[("V", i, j)]] = t
    for i, j in combinations(range(k), 2):
        target[comp[("E", i, j)]] = sum(s_of[v] for v in pc.parts[i] + pc.parts[j])

    def vec(idx, value):
        out = [0] * d
        out[idx] = value
        return tuple(out)

    clique = _planted(pc)
    sets = []
    set_names = []
    choice = []  # index of the forward-witness vector per set, planted only

    # vertex sets: the plus vector marks "position l is the chosen vertex",
    # the minus vector copies "position l is not chosen" onto the next
    # vertex component of the same part
    for i in range(k):
        others = _others(i, k)
        for jp in range(1, k - 1):
            j, nxt = others[jp - 1], others[jp]
            for l in range(1, n + 1):
                # at k=3 the first and last case coincide; the target sums
                # force the plus value of the first case and the minus value
                # of the last, so each rule keys on its own side
                plus = n4 - l if jp == 1 else n4 + l * n2
                minus = n8 + l if jp == k - 2 else n8 + l + l * n2
                sets.append((vec(comp[("V", i, j)], plus),
                             vec(comp[("V", i, nxt)], minus)))
                set_names.append(f"PV{i + 1}({j + 1},{l})")
                if clique is not None:
                    choice.append(0 if pc.parts[i][l - 1] == clique[i] else 1)

    # vertex incidence sets: chosen position raises the vertex component by
    # n^6+l, every other position sends its Sidon value to the edge component
    for i in range(k):
        for j in _others(i, k):
            e = ("E", min(i, j), max(i, j))
            for l in range(1, n + 1):
                sets.append((vec(comp[("V", i, j)], n6 + l),
                             vec(comp[e], s_of[pc.parts[i][l - 1]])))
                set_names.append(f"PEV{i + 1}({j + 1},{l})")
                if clique is not None:
                    choice.append(0 if pc.parts[i][l - 1] == clique[i] else 1)

    # edge sets: one vector per edge; Sidon sums identify the endpoint pair
    for i, j in combinations(range(k), 2):
        pair = pc.pair_edges(i, j)
        sets.append(tuple(vec(comp[("E", i, j)], s_of[u] + s_of[v])
                          for (u, v) in pair))
        set_names.append(f"PE({i + 1},{j + 1})")
        if clique is not None:
            choice.append(pair.index((clique[i], clique[j])))

    assert len(sets) == k * (k - 1) // 2 + n * k * (2 * k - 3)

    meta = {
        "source": "pc_to_smpss",
        "k": k,
        "n": n,
        "m": m,
        "k3_case_overlap": k == 3,
        "component_names": tuple(comp_names),
        "set_names": tuple(set_names),
        "sidon_values": tuple(sorted(s_of.items())),
        "planted": clique,
    }
    if clique is not None:
        picked = [sets[si][ci] for si, ci in enumerate(choice)]
        total = [sum(col) for col in zip(*picked)]
        assert total == target, "forward witness does not meet the target"
        meta["planted_choice"] = tuple(choice)
    return SMPSSInstance(tuple(target), tuple(sets), meta=meta)


# ---------------------------------------------------------------------------
# SMPSS -> size-approval stability

# Scaling everything by 3 frees the group sizes 1, 2, and 3 for the three
# gadget types: tP pins one agent to aP so that nobody of the main types may
# idle (an idler would join aP at size 2), and the two tne types threaten to
# join any other activity at size 1 or 2, so every activity must run at one
# of its (scaled, hence >= 3) approved sizes.


def smpss_to_sgasp(s: SMPSSInstance) -> TypedInstance:
    scale = 3
    target = tuple(t * scale for t in s.target)
    acts = tuple(f"a{l + 1}" for l in range(len(s.sets))) + ("aP",)
    total = sum(target) + 3

    types = []
    kept = []
    for i, count in enumerate(target):
        if count == 0:
            # a count-zero type cannot exist; any set vector living on this
            # component is unusable on both sides, so dropping the type
            # keeps the answers aligned
            continue
        kept.append(i)
        approvals = {}
        for l, p_set in enumerate(s.sets):
            sizes = {vec[i] * scale for vec in p_set
                     if vec[i] != 0 and vec[i] * scale <= total}
            if sizes:
                approvals[f"a{l + 1}"] = frozenset(sizes)
        approvals["aP"] = frozenset({2})
        types.append(AgentType(f"t{i + 1}", count, SizeSetPrefs(approvals)))
    types.append(AgentType("tP", 1, SizeSetPrefs({"aP": frozenset({1, 3})})))
    types.append(AgentType("tne1", 1, SizeSetPrefs(
        {a: frozenset({1}) for a in acts if a != "aP"})))
    types.append(AgentType("tne2", 1, SizeSetPrefs(
        {a: frozenset({2}) for a in acts if a != "aP"})))

    meta = {
        "source": "smpss_to_sgasp",
        "scale": scale,
        "d": s.d,
        "kept_components": tuple(kept),
        "upstream": dict(s.meta) if s.meta else None,
    }
    return TypedInstance(acts, tuple(types), meta=meta)


# ---------------------------------------------------------------------------
# partitioned clique -> rank stability

# Activity a_i runs at size alpha_i(v) to name the chosen vertex v of part i,
# activity a_{i,j} runs at size alpha_{i,j}(e) to name the chosen edge.  The
# validity agents pin those sizes to the images of the alphas; the forward
# and backward agents sit at a_i and would defect to any edge activity whose
# named edge misses their part's chosen vertex in one direction each.


def _vertex_alpha(pc: PartitionedCliqueInstance) -> dict:
    # part positions map to 3, 5, ..., 2n+1
    return {v: 2 * (pos + 1) + 1
            for part in pc.parts for pos, v in enumerate(part)}


def _edge_alpha(pc: PartitionedCliqueInstance, base: int) -> dict:
    # pair positions map to base, base+2, ...
    out = {}
    for i, j in combinations(range(pc.k), 2):
        for pos, e in enumerate(pc.pair_edges(i, j)):
            out[e] = base + 2 * pos
    return out


def _act_v(i: int) -> str:
    return f"a{i + 1}"


def _act_e(i: int, j: int) -> str:
    return f"a{i + 1}.{j + 1}"


def _incident(pc: PartitionedCliqueInstance, i: int) -> dict:
    """vertex of part i -> tuples (edge activity, edge) over incident edges."""
    out = {v: [] for v in pc.parts[i]}
    for j in _others(i, pc.k):
        lo, hi = min(i, j), max(i, j)
        for e in pc.pair_edges(lo, hi):
            mine = e[0] if lo == i else e[1]
            out[mine].append((_act_e(lo, hi), e))
    return out


def _walker_ranks(pc, i, alpha_v, alpha_e, forward, top_extra):
    """Rank map for one forward or backward agent of part i: the +1 sizes of
    a_i on top, then one class per vertex of part i holding its named size
    and the successor sizes of all its incident edges."""
    n = pc.n
    ranks = {(_act_v(i), alpha_v[v] + 1): n + 1 for v in pc.parts[i]}
    for alt in top_extra:
        ranks[alt] = n + 1
    incident = _incident(pc, i)
    for pos, v in enumerate(pc.parts[i]):  # positions follow alpha_v ascending
        r = pos + 1 if forward else n - pos
        ranks[(_act_v(i), alpha_v[v])] = r
        for act, e in incident[v]:
            ranks[(act, alpha_e[e] + 1)] = r
    ranks[HOME] = 0
    return RankMap(ranks)


def pc_to_gasp(pc: PartitionedCliqueInstance) -> TypedInstance:
    k, n = pc.k, pc.n
    if k < 3:
        raise InvalidInstanceError(f"need k >= 3 parts, got {k}")
    m = _uniform_m(pc)
    alpha_v = _vertex_alpha(pc)
    alpha_e = _edge_alpha(pc, base=1)
    acts = tuple(_act_v(i) for i in range(k)) + tuple(
        _act_e(i, j) for i, j in combinations(range(k), 2))

    val = {}
    for i in range(k):
        for v in pc.parts[i]:
            val[(_act_v(i), alpha_v[v])] = 3
    for i, j in combinations(range(k), 2):
        for e in pc.pair_edges(i, j):
            val[(_act_e(i, j), alpha_e[e])] = 3
    for i in range(k):
        val[(_act_v(i), 2)] = 2
        val[(_act_v(i), 1)] = 1
    val[HOME] = 0

    n_val = (k * (k - 1) // 2) * (2 * m - 1) + k * (2 * n + 1) + 1
    types = [AgentType("val", n_val, RankMap(val))]
    for i in range(k):
        types.append(AgentType(
            f"fwd{i + 1}", 1, _walker_ranks(pc, i, alpha_v, alpha_e, True, ())))
        types.append(AgentType(
            f"bwd{i + 1}", 1, _walker_ranks(pc, i, alpha_v, alpha_e, False, ())))

    assert len(acts) == k * (k - 1) // 2 + k and len(types) == 2 * k + 1
    assert sum(t.count for t in types) == n_val + 2 * k

    meta = {
        "source": "pc_to_gasp",
        "k": k,
        "n": n,
        "m": m,
        "alpha_v": tuple(sorted(alpha_v.items())),
        "alpha_e": tuple(sorted(alpha_e.items())),
        "planted": None,
    }
    clique = _planted(pc)
    if clique is not None:
        meta["planted"] = clique
        aidx = {a: c for c, a in enumerate(acts)}
        rows = [[0] * len(acts) for _ in types]
        for i in range(k):
            rows[0][aidx[_act_v(i)]] = alpha_v[clique[i]] - 2
            rows[1 + 2 * i][aidx[_act_v(i)]] = 1
            rows[2 + 2 * i][aidx[_act_v(i)]] = 1
        for i, j in combinations(range(k), 2):
            rows[0][aidx[_act_e(i, j)]] = alpha_e[(clique[i], clique[j])]
        meta["witness_counts"] = tuple(tuple(r) for r in rows)
    return TypedInstance(acts, tuple(types), meta=meta)


# ---------------------------------------------------------------------------
# partitioned clique -> rank stability on a sparse network

# Same scheme, but the validity agents split into one group per activity so
# that a few hub agents cover every link: each group is a star, the forward
# agents carry the stars of their own part and reach into the edge hubs.


def pc_to_ggasp(pc: PartitionedCliqueInstance) -> NetworkInstance:
    k, n = pc.k, pc.n
    if k < 3:
        raise InvalidInstanceError(f"need k >= 3 parts, got {k}")
    m = _uniform_m(pc)
    alpha_v = _vertex_alpha(pc)
    alpha_e = _edge_alpha(pc, base=3)  # sizes 1 and 2 stay free for the guards
    acts = tuple(_act_v(i) for i in range(k)) + tuple(
        _act_e(i, j) for i, j in combinations(range(k), 2))

    types = []
    for i in range(k):
        top2 = ((_act_v(i), 2),)
        types.append(AgentType(
            f"fwd{i + 1}", 1, _walker_ranks(pc, i, alpha_v, alpha_e, True, top2)))
        types.append(AgentType(
            f"bwd{i + 1}", 1, _walker_ranks(pc, i, alpha_v, alpha_e, False, top2)))
        ranks = {(_act_v(i), alpha_v[v]): 3 for v in pc.parts[i]}
        ranks[(_act_v(i), 2)] = 2
        ranks[(_act_v(i), 1)] = 1
        ranks[HOME] = 0
        types.append(AgentType(f"val{i + 1}", 2 * n + 3, RankMap(ranks)))
    for i, j in combinations(range(k), 2):
        ranks = {(_act_e(i, j), alpha_e[e]): 3 for e in pc.pair_edges(i, j)}
        ranks[(_act_e(i, j), 2)] = 2
        ranks[(_act_e(i, j), 1)] = 1
        ranks[HOME] = 0
        types.append(AgentType(f"val{i + 1}.{j + 1}", 2 * m + 3, RankMap(ranks)))

    assert len(acts) == k * (k - 1) // 2 + k
    assert len(types) == k * (k - 1) // 2 + 3 * k

    agents = []
    links = set()
    group_v = {}
    group_e = {}
    for i in range(k):
        fwd, bwd = f"n{i + 1}>", f"n{i + 1}<"
        agents.append((fwd, f"fwd{i + 1}"))
        agents.append((bwd, f"bwd{i + 1}"))
        links.add((fwd, bwd))
        group_v[i] = [f"N{i + 1}.{l}" for l in range(1, 2 * n + 4)]
        for u in group_v[i]:
            agents.append((u, f"val{i + 1}"))
            links.add((fwd, u))
    for i, j in combinations(range(k), 2):
        group_e[(i, j)] = [f"M{i + 1}.{j + 1}.{l}" for l in range(2 * m + 3)]
        hub = group_e[(i, j)][0]
        for u in group_e[(i, j)]:
            agents.append((u, f"val{i + 1}.{j + 1}"))
            if u != hub:
                links.add((hub, u))
        links.add((f"n{i + 1}>", hub))
        links.add((f"n{j + 1}>", hub))

    cover = {f"n{i + 1}>" for i in range(k)} | {f"n{i + 1}<" for i in range(k)}
    cover |= {group_e[p][0] for p in group_e}
    assert len(cover) <= k * (k - 1) // 2 + 2 * k
    assert all(u in cover or v in cover for (u, v) in links)

    meta = {
        "source": "pc_to_ggasp",
        "k": k,
        "n": n,
        "m": m,
        "alpha_v": tuple(sorted(alpha_v.items())),
        "alpha_e": tuple(sorted(alpha_e.items())),
        "cover": tuple(sorted(cover)),
        "planted": None,
    }

    clique = _planted(pc)
    if clique is not None:
        meta["planted"] = clique
        pi = {a: EMPTY_ACTIVITY for a, _ in agents}
        for i in range(k):
            pi[f"n{i + 1}>"] = pi[f"n{i + 1}<"] = _act_v(i)
            for u in group_v[i][:alpha_v[clique[i]] - 2]:
                pi[u] = _act_v(i)
        for i, j in combinations(range(k), 2):
            # the hub must attend: the rest of the group hangs off it
            size = alpha_e[(clique[i], clique[j])]
            for u in group_e[(i, j)][:size]:
                pi[u] = _act_e(i, j)
        meta["witness_assignment"] = tuple(pi.items())

    base = TypedInstance(acts, tuple(types))
    return NetworkInstance(base, tuple(agents), frozenset(links), meta=meta)


# ---------------------------------------------------------------------------
# random factories


def random_partitioned_clique(k: int, n: int, m: int, *, seed: int = 0,
                              planted: bool = False) -> PartitionedCliqueInstance:
    """Seeded graph with k parts of n vertices and exactly m edges per part
    pair; with planted=True one clique is wired in and recorded in meta."""
    if k < 1 or n < 1:
        raise InvalidInstanceError("need k >= 1 and n >= 1")
    if not 0 <= m <= n * n:
        raise InvalidInstanceError(f"need 0 <= m <= {n * n} edges per pair")
    if planted and m < 1:
        raise InvalidInstanceError("a planted clique needs m >= 1")
    rng = Random(seed)
    parts = tuple(tuple(f"p{i + 1}v{l + 1}" for l in range(n)) for i in range(k))
    clique = tuple(rng.choice(part) for part in parts) if planted else None
    edges = set()
    for i, j in combinations(range(k), 2):
        cand = [(u, v) for u in parts[i] for v in parts[j]]
        want = []
        if clique is not None:
            want.append((clique[i], clique[j]))
            cand.remove(want[0])
        want.extend(rng.sample(cand, m - len(want)))
        edges.update(want)
    meta = {"source": "random_partitioned_clique", "seed": seed, "planted": clique}
    return PartitionedCliqueInstance(parts, frozenset(edges), meta=meta)


def _random_rank_map(rng: Random, acts, n: int, density: float) -> RankMap:
    """List each alternative with probability density, shuffle, cut into tie
    blocks, and drop the home alternative into a random slot."""
    listed = [(a, s) for a in acts for s in range(1, n + 1)
              if rng.random() < density]
    rng.shuffle(listed)
    blocks = []
    cur = []
    for alt in listed:
        cur.append(alt)
        if rng.random() < 0.4:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    blocks.insert(rng.randint(0, len(blocks)), [HOME])
    ranks = {}
    for depth, block in enumerate(blocks):
        for alt in block:
            ranks[alt] = len(blocks) - depth
    return RankMap(ranks)


def random_instance(kind: str, *, types: int, activities: int, agents: int,
                    density: float = 0.5, seed: int = 0):
    """Seeded random instance of the given kind.

    Approval sets draw every (activity, size) pair independently; rank
    preferences use shuffled tie blocks around home; ggasp adds agent links
    with the same density.
    """
    if kind not in ("sgasp", "gasp", "ggasp"):
        raise InvalidInstanceError(f"unknown kind {kind!r}")
    if types < 1 or activities < 0 or agents < types:
        raise InvalidInstanceError("need types >= 1 and agents >= types")
    if not 0 <= density <= 1:
        raise InvalidInstanceError("density must be within [0, 1]")
    rng = Random(seed)
    acts = tuple(f"a{i + 1}" for i in range(activities))
    counts = [1] * types
    for _ in range(agents - types):
        counts[rng.randrange(types)] += 1

    made = []
    for t in range(types):
        if kind == "sgasp":
            approvals = {a: frozenset(s for s in range(1, agents + 1)
                                      if rng.random() < density)
                         for a in acts}
            prefs = SizeSetPrefs(approvals)
        else:
            prefs = _random_rank_map(rng, acts, agents, density)
        made.append(AgentType(f"t{t + 1}", counts[t], prefs))
    meta = {"source": "random_instance", "kind": kind, "seed": seed,
            "density": density}
    if kind != "ggasp":
        return TypedInstance(acts, tuple(made), meta=meta)

    inst = TypedInstance(acts, tuple(made))
    ids = []
    for t in made:
        for _ in range(t.count):
            ids.append((f"x{len(ids) + 1}", t.id))
    links = frozenset((u, v)
                      for (u, _), (v, _) in combinations(ids, 2)
                      if rng.random() < density)
    return NetworkInstance(inst, tuple(ids), links, meta=meta)
