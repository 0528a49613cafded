"""JSON file formats for instances and witnesses.

One UTF-8 document per file.  Instance documents look like

    {"format": "gasplab-instance", "version": 1, "kind": "sgasp", ...}

with per-kind payloads:

    sgasp    activities, types [{"id", "count", "approvals": {act: [sizes]}}]
    gasp     activities, types [{"id", "count", "ranks": [[[act, size], rank], ...]}]
    ggasp    the gasp fields plus agents [{"id", "type"}] and links [[u, v]]
    smpss    d, target, sets (nested lists of vectors)
    pclique  k, parts (lists of vertex ids), edges [[u, v]]

Rank entries use the literal activity id "@empty" (size 1) for the home
alternative; larger rank means more preferred.  An optional "meta" field
carries provenance as plain JSON.

Witness documents ({"format": "gasplab-witness", ...}) hold a type-count
matrix as nested {type: {activity: count}} dicts with zero cells omitted
(sgasp/gasp), or an agent-to-activity map (ggasp), plus optional solver
metadata.

Serialization is canonical: fixed key order, two-space indent, trailing
newline.  serialize(parse(text)) == text for every valid file, and
parse(serialize(obj)) == obj whenever obj.meta is JSON-shaped (tuples in
generator metadata come back as lists).
"""

from __future__ import annotations

import json
from typing import Mapping, Optional, Union

from .errors import InvalidAssignmentError, InvalidInstanceError
from .generators import PartitionedCliqueInstance, SMPSSInstance
from .model import (
    EMPTY_ACTIVITY,
    AgentAssignment,
    AgentType,
    NetworkInstance,
    RankMap,
    SizeSetPrefs,
    TypeCountAssignment,
    TypedInstance,
    _is_int,
)

INSTANCE_FORMAT = "gasplab-instance"
WITNESS_FORMAT = "gasplab-witness"
VERSION = 1

Instance = Union[TypedInstance, NetworkInstance, SMPSSInstance, PartitionedCliqueInstance]
Witness = Union[TypeCountAssignment, AgentAssignment]


def jsonable(value):
    """Recursively coerce generator metadata into plain JSON values."""
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise InvalidInstanceError(f"metadata key {k!r} is not a string")
            out[k] = jsonable(v)
        return out
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise InvalidInstanceError(f"metadata value {value!r} is not JSON-encodable")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def instance_kind(obj: Instance) -> str:
    if isinstance(obj, NetworkInstance):
        return "ggasp"
    if isinstance(obj, TypedInstance):
        return obj.kind
    if isinstance(obj, SMPSSInstance):
        return "smpss"
    if isinstance(obj, PartitionedCliqueInstance):
        return "pclique"
    raise InvalidInstanceError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------- to documents

def _type_record(inst: TypedInstance, t: AgentType) -> dict:
    rec = {"id": t.id, "count": t.count}
    if isinstance(t.prefs, SizeSetPrefs):
        # activities in instance order, sizes ascending; empty sets never stored
        rec["approvals"] = {a: sorted(t.prefs.sizes(a))
                            for a in inst.activities if t.prefs.sizes(a)}
    else:
        rec["ranks"] = [[[aid, size], r]
                        for (aid, size), r in sorted(t.prefs.ranks.items())]
    return rec


def instance_to_doc(obj: Instance) -> dict:
    kind = instance_kind(obj)
    doc = {"format": INSTANCE_FORMAT, "version": VERSION, "kind": kind}
    if kind in ("sgasp", "gasp"):
        doc["activities"] = list(obj.activities)
        doc["types"] = [_type_record(obj, t) for t in obj.types]
    elif kind == "ggasp":
        doc["activities"] = list(obj.base.activities)
        doc["types"] = [_type_record(obj.base, t) for t in obj.base.types]
        doc["agents"] = [{"id": a, "type": t} for a, t in obj.agents]
        doc["links"] = [list(e) for e in sorted(obj.links)]
    elif kind == "smpss":
        doc["d"] = obj.d
        doc["target"] = list(obj.target)
        doc["sets"] = [[list(vec) for vec in p] for p in obj.sets]
    else:
        doc["k"] = obj.k
        doc["parts"] = [list(p) for p in obj.parts]
        doc["edges"] = [list(e) for e in sorted(obj.edges)]
    if obj.meta is not None:
        doc["meta"] = jsonable(obj.meta)
    return doc


def serialize_instance(obj: Instance) -> str:
    return dumps(instance_to_doc(obj))


# -------------------------------------------------------------- from documents

def _fail(msg: str):
    raise InvalidInstanceError(msg)


def _require(doc, key, types, what="document"):
    if key not in doc:
        _fail(f"{what} is missing {key!r}")
    v = doc[key]
    if not isinstance(v, types) or isinstance(v, bool):
        _fail(f"{what} field {key!r} has the wrong shape")
    return v


def _lists(items, what):
    """`items` (a list), checked to hold only lists."""
    if not all(isinstance(x, list) for x in items):
        _fail(f"{what} must be lists")
    return items


def _id_pairs(doc, key, what) -> frozenset:
    pairs = set()
    for e in _require(doc, key, list):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            _fail(f"{what} {e!r} is not a pair of ids")
        pairs.add((e[0], e[1]))
    return frozenset(pairs)


def _parse_types(doc, kind) -> tuple:
    built = []
    for rec in _require(doc, "types", list):
        if not isinstance(rec, dict):
            _fail("type record is not an object")
        tid = _require(rec, "id", str, "type record")
        count = _require(rec, "count", int, "type record")
        if kind == "sgasp":
            approvals = _require(rec, "approvals", dict, f"type {tid!r}")
            for a, sizes in approvals.items():
                if not isinstance(sizes, list) or not all(_is_int(s) for s in sizes):
                    _fail(f"type {tid!r} approvals for {a!r} must be a list of ints")
            prefs = SizeSetPrefs({a: frozenset(sizes) for a, sizes in approvals.items()})
        else:
            ranks = {}
            for entry in _require(rec, "ranks", list, f"type {tid!r}"):
                ok = (isinstance(entry, list) and len(entry) == 2
                      and isinstance(entry[0], list) and len(entry[0]) == 2
                      and isinstance(entry[0][0], str) and _is_int(entry[0][1])
                      and _is_int(entry[1]))
                if not ok:
                    _fail(f"type {tid!r} rank entry {entry!r} is not [[activity, size], rank]")
                alt = (entry[0][0], entry[0][1])
                if alt in ranks:
                    _fail(f"type {tid!r} ranks {alt!r} twice")
                ranks[alt] = entry[1]
            prefs = RankMap(ranks)
        built.append(AgentType(tid, count, prefs))
    return tuple(built)


def doc_to_instance(doc) -> Instance:
    if not isinstance(doc, dict):
        _fail("instance document is not an object")
    if doc.get("format") != INSTANCE_FORMAT:
        _fail(f"not an instance document (format={doc.get('format')!r})")
    if doc.get("version") != VERSION:
        _fail(f"unsupported version {doc.get('version')!r}")
    kind = doc.get("kind")
    meta = doc.get("meta")
    if kind in ("sgasp", "gasp"):
        acts = tuple(_require(doc, "activities", list))
        return TypedInstance(acts, _parse_types(doc, kind), meta=meta)
    if kind == "ggasp":
        acts = tuple(_require(doc, "activities", list))
        base = TypedInstance(acts, _parse_types(doc, "gasp"))
        agents = []
        for rec in _require(doc, "agents", list):
            if not isinstance(rec, dict):
                _fail("agent record is not an object")
            agents.append((_require(rec, "id", str, "agent record"),
                           _require(rec, "type", str, "agent record")))
        return NetworkInstance(base, tuple(agents), _id_pairs(doc, "links", "link"), meta=meta)
    if kind == "smpss":
        d = _require(doc, "d", int)
        target = _require(doc, "target", list)
        if d != len(target):
            _fail(f"d={d} but target has {len(target)} components")
        sets = _lists(_require(doc, "sets", list), "sets")
        return SMPSSInstance(tuple(target),
                             tuple(tuple(tuple(vec) for vec in _lists(p, "vectors"))
                                   for p in sets),
                             meta=meta)
    if kind == "pclique":
        k = _require(doc, "k", int)
        parts = _lists(_require(doc, "parts", list), "parts")
        if k != len(parts):
            _fail(f"k={k} but {len(parts)} parts given")
        return PartitionedCliqueInstance(tuple(tuple(p) for p in parts),
                                         _id_pairs(doc, "edges", "edge"), meta=meta)
    _fail(f"unknown instance kind {kind!r}")


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"invalid JSON: {exc}") from exc
    return doc_to_instance(doc)


def load_instance(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(obj: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(obj))


# -------------------------------------------------------------------- witnesses

def witness_to_doc(instance: Instance, witness: Witness,
                   solver: Optional[Mapping] = None) -> dict:
    kind = instance_kind(instance)
    doc = {"format": WITNESS_FORMAT, "version": VERSION, "kind": kind}
    if kind in ("sgasp", "gasp"):
        if not isinstance(witness, TypeCountAssignment):
            raise InvalidAssignmentError(f"{kind} witnesses are type-count matrices")
        counts = {}
        for t, row in zip(instance.types, witness.counts):
            cells = {a: c for a, c in zip(instance.activities, row) if c}
            if cells:
                counts[t.id] = cells
        doc["counts"] = counts
    elif kind == "ggasp":
        if not isinstance(witness, AgentAssignment):
            raise InvalidAssignmentError("ggasp witnesses map agents to activities")
        doc["assignment"] = {a: witness.mapping[a] for a in instance.agent_ids()}
    else:
        raise InvalidAssignmentError(f"no witness format for kind {kind!r}")
    if solver is not None:
        doc["solver"] = jsonable(solver)
    return doc


def doc_to_witness(doc, instance: Instance) -> Witness:
    if not isinstance(doc, dict):
        raise InvalidAssignmentError("witness document is not an object")
    if doc.get("format") != WITNESS_FORMAT:
        raise InvalidAssignmentError(f"not a witness document (format={doc.get('format')!r})")
    if doc.get("version") != VERSION:
        raise InvalidAssignmentError(f"unsupported version {doc.get('version')!r}")
    kind = instance_kind(instance)
    if doc.get("kind") != kind:
        raise InvalidAssignmentError(
            f"witness kind {doc.get('kind')!r} does not match instance kind {kind!r}")
    if kind in ("sgasp", "gasp"):
        counts = doc.get("counts")
        if not isinstance(counts, dict):
            raise InvalidAssignmentError("witness is missing the counts matrix")
        tix = instance.type_index()
        aix = instance.activity_index()
        rows = [[0] * len(instance.activities) for _ in instance.types]
        for tid, cells in counts.items():
            if tid not in tix:
                raise InvalidAssignmentError(f"witness names unknown type {tid!r}")
            if not isinstance(cells, dict):
                raise InvalidAssignmentError(f"counts for type {tid!r} are not an object")
            for aid, c in cells.items():
                if aid not in aix:
                    raise InvalidAssignmentError(f"witness names unknown activity {aid!r}")
                if not _is_int(c) or c < 0:
                    raise InvalidAssignmentError(f"bad count {c!r} at ({tid!r}, {aid!r})")
                rows[tix[tid]][aix[aid]] = c
        return TypeCountAssignment(tuple(tuple(r) for r in rows))
    mapping = doc.get("assignment")
    if not isinstance(mapping, dict):
        raise InvalidAssignmentError("witness is missing the assignment map")
    ids = set(instance.agent_ids())
    known = set(instance.base.activities) | {EMPTY_ACTIVITY}
    for agent, aid in mapping.items():
        if agent not in ids:
            raise InvalidAssignmentError(f"witness names unknown agent {agent!r}")
        if not isinstance(aid, str) or aid not in known:
            raise InvalidAssignmentError(f"witness sends {agent!r} to unknown activity {aid!r}")
    missing = ids - set(mapping)
    if missing:
        raise InvalidAssignmentError(f"witness misses agents {sorted(missing)}")
    return AgentAssignment(mapping)


def parse_witness(text: str, instance: Instance) -> Witness:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidAssignmentError(f"invalid JSON: {exc}") from exc
    return doc_to_witness(doc, instance)


def load_witness(path, instance: Instance) -> Witness:
    with open(path, encoding="utf-8") as fh:
        return parse_witness(fh.read(), instance)


def save_witness(instance: Instance, witness: Witness, path,
                 solver: Optional[Mapping] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(witness_to_doc(instance, witness, solver)))
