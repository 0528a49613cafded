"""Seeded instance sets for the benchmark workloads.

Each builder draws every instance from one `random.Random` seeded by the
workload name and the run seed, writes the files with
`formats.save_instance`, and returns the operations the timed loop runs.
An operation is one argument list for `gasplab.cli.main`; the program sees
only the files.

Expected answers are fixed here, outside the timed region:

* True when a witness found here re-verifies with a `model.verify_*` check,
  or when the instance carries a planted witness;
* False when the instance is NO by construction, when the source graph of
  a clique reduction has no clique (`find_clique`), or when the fast exact
  solver (`xp-t`, `xp-gasp`) says NO, which the oracle ops then cross-check;
* None for network instances, which have no second solver; their verdicts
  only have to agree across repetitions.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional

from gasplab import formats
from gasplab.generators import (
    find_clique,
    pc_to_gasp,
    pc_to_ggasp,
    pc_to_smpss,
    random_instance,
    random_partitioned_clique,
)
from gasplab.model import (
    HOME,
    AgentAssignment,
    AgentType,
    NetworkInstance,
    RankMap,
    SizeSetPrefs,
    TypeCountAssignment,
    TypedInstance,
    verify_gasp,
    verify_sgasp,
)
from gasplab.solver_gasp import solve_xp_gasp
from gasplab.solvers_sgasp import solve_xp_t

# Per-op caps handed to the CLI.  No op of any workload comes near them; a
# hit is counted as a failure, never as an answer.
OP_TIMEOUT_S = 30
BRUTE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Op:
    """One call of `gasplab.cli.main` on one instance file."""

    alg: str                 # solver name, or "verify"
    path: str                # instance file
    argv: tuple
    expect: Optional[bool]   # see the module docstring


@dataclass
class Workload:
    ops: List[Op]
    instances: Dict[str, object]   # path -> instance, for the verdict checks


class _Builder:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: List[Op] = []
        self.instances: Dict[str, object] = {}

    def save(self, name: str, inst) -> str:
        path = os.path.join(self.workdir, name + ".json")
        formats.save_instance(inst, path)
        self.instances[path] = inst
        return path

    def solve(self, path: str, alg: str, expect: Optional[bool]) -> None:
        argv = ["solve", "--alg", alg, "--in", path, "--timeout", str(OP_TIMEOUT_S)]
        if alg == "brute":
            argv += ["--budget", str(BRUTE_BUDGET)]
        self.ops.append(Op(alg, path, tuple(argv), expect))

    def verify(self, name: str, inst, witness) -> None:
        path = self.save(name, inst)
        wpath = os.path.join(self.workdir, name + ".witness.json")
        formats.save_witness(inst, witness, wpath, solver={"algorithm": "planted"})
        self.ops.append(Op("verify", path, ("verify", "--in", path, "--assignment", wpath), True))

    def done(self) -> Workload:
        return Workload(self.ops, self.instances)


# ------------------------------------------------------------------ families

def no_family(activities: int, seekers) -> TypedInstance:
    """Singleton seekers approve {1} everywhere, one pair seeker approves {2}
    everywhere; `seekers` holds the count of each singleton-seeker type.
    With more singleton seekers than activities some seeker stays home, so
    every activity must run at size 1, and then the home pair seeker joins
    one: no stable assignment exists."""
    if sum(seekers) <= activities:
        raise ValueError("the family is NO only with more singleton seekers than activities")
    acts = tuple(f"a{i + 1}" for i in range(activities))
    made = [AgentType(f"s{i + 1}", c, SizeSetPrefs({a: {1} for a in acts}))
            for i, c in enumerate(seekers)]
    made.append(AgentType("p", 1, SizeSetPrefs({a: {2} for a in acts})))
    return TypedInstance(acts, tuple(made))


def _split(total: int, parts: int, rng: random.Random):
    """A random split of `total` into `parts` positive counts."""
    counts = [1] * parts
    for _ in range(total - parts):
        counts[rng.randrange(parts)] += 1
    return counts


def complete_network(inst: TypedInstance) -> NetworkInstance:
    """`inst` with one agent per head and a link between every two agents.
    Every group is connected and every join has a link, so the network
    instance has a stable assignment iff `inst` has."""
    agents = tuple((f"x{i + 1}", t.id) for i, t in enumerate(
        t for t in inst.types for _ in range(t.count)))
    links = frozenset(combinations([a for a, _ in agents], 2))
    return NetworkInstance(inst, agents, links)


def lift(inst: TypedInstance) -> TypedInstance:
    """Rank embedding of a size-approval instance: approved alternatives at
    rank 1, home at 0, the rest implicitly below home.  Keeps the answer."""
    lifted = []
    for t in inst.types:
        ranks = {HOME: 0}
        for aid, sizes in t.prefs.approvals.items():
            for s in sizes:
                ranks[(aid, s)] = 1
        lifted.append(AgentType(t.id, t.count, RankMap(ranks)))
    return TypedInstance(inst.activities, tuple(lifted))


def _answer(inst) -> bool:
    """Answer of a typed instance from its fast exact solver; a YES counts
    only with a witness that re-verifies."""
    if inst.kind == "sgasp":
        res, verify = solve_xp_t(inst), verify_sgasp
    else:
        res, verify = solve_xp_gasp(inst), verify_gasp
    if res.exists and not verify(inst, res.witness).stable:
        raise RuntimeError("set-up solver returned a witness that does not re-verify")
    return res.exists


# ----------------------------------------------------------------- workloads

def build_sweep_no(b: _Builder, rng: random.Random) -> None:
    # fpt-ta sweeps 1.4k / 7.5k / 16k patterns at |T|x|A| = 3x3 / 3x4 / 4x3
    # whatever N is; 4x4 (138k patterns, seconds per op) is left out.
    fpt_ta_cells = {(3, 3): 2, (3, 4): 2, (4, 3): 1}
    # xp-gasp sweeps (|A|+1)^|T| = 64..256 guesses on these lifts
    lift_cells = ((3, 3), (3, 4), (3, 5), (4, 3))
    for t in (3, 4):
        for a in (3, 4, 5):
            for j in range(4):
                # N in [|A|+2, |A|+5]: more singleton seekers than activities
                inst = no_family(a, _split(rng.randint(a + 1, a + 4), t - 1, rng))
                path = b.save(f"no-t{t}a{a}-{j}", inst)
                b.solve(path, "xp-t", False)
                if j < fpt_ta_cells.get((t, a), 0):
                    b.solve(path, "fpt-ta", False)
                if j == 0 and (t, a) in lift_cells:
                    b.solve(b.save(f"no-t{t}a{a}-lift", lift(inst)), "xp-gasp", False)


def _yes_instances(rng: random.Random, count: int, draw) -> List[TypedInstance]:
    """`count` YES instances out of `draw(rng)`, rejecting the NO ones.
    About one draw in ten is NO; after 5 draws per wanted instance the
    solver answering for set-up is taken to be broken."""
    out = []
    for _ in range(5 * count):
        inst = draw(rng)
        if _answer(inst):
            out.append(inst)
            if len(out) == count:
                return out
    raise RuntimeError(f"only {len(out)} of {5 * count} random instances were YES")


def _random_sgasp(rng: random.Random) -> TypedInstance:
    t = rng.randint(2, 4)
    return random_instance("sgasp", types=t, activities=rng.randint(2, 4),
                           agents=rng.randint(t, 8), density=rng.uniform(0.1, 0.3),
                           seed=rng.randrange(1 << 30))


def _random_gasp(rng: random.Random) -> TypedInstance:
    t = rng.randint(2, 4)
    return random_instance("gasp", types=t, activities=rng.randint(2, 3),
                           agents=rng.randint(t, 5), density=rng.uniform(0.1, 0.3),
                           seed=rng.randrange(1 << 30))


def build_random_yes(b: _Builder, rng: random.Random) -> None:
    # Only YES instances: each solver stops at its first feasible branch, so
    # per-call work (parsing, witness rebuild, re-verification) dominates.
    # fpt-ta stays at |T|+|A| <= 5, fpt-n at N <= 6 and the gasp inputs at
    # N <= 5: beyond that a late YES costs tens of ms to seconds, and those
    # few ops would set the 95th percentile differently for every seed.
    for j, inst in enumerate(_yes_instances(rng, 160, _random_sgasp)):
        path = b.save(f"yes-sgasp-{j}", inst)
        b.solve(path, "xp-t", True)
        if len(inst.types) + len(inst.activities) <= 5:
            b.solve(path, "fpt-ta", True)
        if inst.n <= 6:
            b.solve(path, "fpt-n", True)
    for j, inst in enumerate(_yes_instances(rng, 120, _random_gasp)):
        b.solve(b.save(f"yes-gasp-{j}", inst), "xp-gasp", True)


def build_oracle_check(b: _Builder, rng: random.Random) -> None:
    # Full oracle sweeps on NO-family members whose size is fixed, so their
    # matrix count (and cost) varies by under 10% between seeds:
    # 35*35*4 = 4900 matrices at |A|=3 with 4+4 seekers, 2800 for the lift
    # with 3+4, and 3^7 = 2187 per-agent assignments on the network.
    for j in range(2):
        c = rng.randint(3, 5)
        b.solve(b.save(f"no-sgasp-{j}", no_family(3, [c, 8 - c])), "brute", False)
        c = rng.randint(3, 4)
        b.solve(b.save(f"no-gasp-{j}", lift(no_family(3, [c, 7 - c]))), "brute", False)
        c = rng.randint(2, 4)
        b.solve(b.save(f"no-ggasp-{j}", complete_network(lift(no_family(2, [c, 6 - c])))),
                "brute", False)
    # 2 edges per part pair: brute_mpss takes 55-70 ms on each such graph
    # (2-core x86-64 VM), and graphs without a planted clique are sometimes NO
    for j in range(2):
        pc = random_partitioned_clique(3, 2, 2, seed=rng.randrange(1 << 30),
                                       planted=rng.random() < 0.5)
        b.solve(b.save(f"pc-smpss-{j}", pc_to_smpss(pc)), "brute", find_clique(pc) is not None)
    # The sweeps above are 8 of the 58 ops of a pass, so the 95th percentile
    # falls inside them; the cheap ops below, where the per-call work of the
    # CLI and the first few verifier calls dominate, set the median.
    for kind in ("sgasp", "gasp", "ggasp"):
        for j in range(10):
            t = rng.randint(2, 3)
            inst = random_instance(kind, types=t, activities=rng.randint(1, 2),
                                   agents=rng.randint(t, 6), density=rng.uniform(0.2, 0.5),
                                   seed=rng.randrange(1 << 30))
            expect = None if kind == "ggasp" else _answer(inst)
            b.solve(b.save(f"small-{kind}-{j}", inst), "brute", expect)
    for j in range(12):
        k, n = rng.randint(3, 4), rng.randint(3, 4)
        pc = random_partitioned_clique(k, n, rng.randint(n, n * n // 2),
                                       seed=rng.randrange(1 << 30), planted=rng.random() < 0.5)
        b.solve(b.save(f"pclique-{j}", pc), "brute", find_clique(pc) is not None)
    for j in range(4):
        pc = random_partitioned_clique(3, 2, 2, seed=rng.randrange(1 << 30), planted=True)
        gasp = pc_to_gasp(pc)  # 31 agents
        b.verify(f"pc-gasp-{j}", gasp, TypeCountAssignment(gasp.meta["witness_counts"]))
        ggasp = pc_to_ggasp(pc)
        b.verify(f"pc-ggasp-{j}", ggasp,
                 AgentAssignment(dict(ggasp.meta["witness_assignment"])))


BUILDERS: Dict[str, Callable[[_Builder, random.Random], None]] = {
    "sweep-no": build_sweep_no,
    "random-yes": build_random_yes,
    "oracle-check": build_oracle_check,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate workload `name` for `seed` into `workdir` (which must exist)."""
    b = _Builder(workdir)
    BUILDERS[name](b, random.Random(f"{name}:{seed}"))
    return b.done()
