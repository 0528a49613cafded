"""Checks on what the operations printed, made outside the timed region.

The first output of every operation is checked in full; each later
repetition must print the same report, apart from its wall time.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from typing import Dict, List, Optional

from gasplab import formats
from gasplab.model import verify_gasp, verify_ggasp, verify_sgasp

_VERIFY = {"sgasp": verify_sgasp, "gasp": verify_gasp, "ggasp": verify_ggasp}
_WALL = re.compile(r'"wall_ms": [^,\n}]*')


def normalize(stdout: str) -> str:
    """The report without its wall time, which differs on every call."""
    return _WALL.sub("", stdout)


def _witness_holds(inst, witness) -> bool:
    """Independent re-check of a YES witness as the report renders it."""
    kind = formats.instance_kind(inst)
    if kind in _VERIFY:
        field = "assignment" if kind == "ggasp" else "counts"
        doc = {"format": formats.WITNESS_FORMAT, "version": formats.VERSION,
               "kind": kind, field: witness}
        return _VERIFY[kind](inst, formats.doc_to_witness(doc, inst)).stable
    if kind == "smpss":
        picks = [tuple(v) for v in witness]
        return (len(picks) == len(inst.sets)
                and all(v in s for v, s in zip(picks, inst.sets))
                and tuple(map(sum, zip(*picks))) == inst.target)
    # pclique: one vertex per part, in part order, pairwise adjacent
    return (len(witness) == inst.k
            and all(inst.part_of(v) == i for i, v in enumerate(witness))
            and all(inst.adjacent(u, v) for u, v in combinations(witness, 2)))


def check_first(op, inst, code: Optional[int], stdout: str) -> Optional[bool]:
    """Verdict of one successful op; raises ValueError when it is wrong."""
    doc = json.loads(stdout)
    if op.alg == "verify":
        if code != 0 or not doc["stable"]:
            raise ValueError("planted witness reported unstable")
        return True
    exists = doc["exists"]
    if exists and not _witness_holds(inst, doc["witness"]):
        raise ValueError("YES witness does not re-verify")
    if op.expect is not None and exists != op.expect:
        raise ValueError(f"answered {'YES' if exists else 'NO'}, "
                         f"expected {'YES' if op.expect else 'NO'}")
    return exists


def disagreements(verdicts: Dict[str, Dict[str, bool]]) -> List[str]:
    """Instance files on which the algorithms run gave different answers."""
    return [f"{path}: {dict(sorted(by_alg.items()))}"
            for path, by_alg in sorted(verdicts.items())
            if len(set(by_alg.values())) > 1]
