"""File-level and object-level round trips for the JSON instance and
witness formats, plus rejection of malformed documents."""

import json

import pytest

from conftest import gasp_instance, sgasp_instance
from gasplab import formats
from gasplab.errors import InvalidAssignmentError, InvalidInstanceError
from gasplab.generators import (
    PartitionedCliqueInstance,
    SMPSSInstance,
    pc_to_ggasp,
    pc_to_smpss,
    random_instance,
    random_partitioned_clique,
)
from gasplab.model import AgentAssignment, NetworkInstance, TypeCountAssignment


def tiny_pc():
    parts = (("u1", "u2"), ("w1", "w2"), ("z1", "z2"))
    edges = frozenset({("u1", "w1"), ("u1", "z1"), ("w1", "z1")})
    return PartitionedCliqueInstance(parts, edges)


SGASP = sgasp_instance(["a1", "a2"], [("t1", 2, {"a1": {1, 2}}),
                                      ("t2", 1, {"a2": {1}, "a1": {3}})])
GASP = gasp_instance(["a1"], [("t1", 2, {("a1", 2): 5, ("a1", 1): -1})])


def roundtrip(obj):
    text = formats.serialize_instance(obj)
    back = formats.parse_instance(text)
    assert formats.serialize_instance(back) == text
    return back


def test_sgasp_roundtrip_exact():
    assert roundtrip(SGASP) == SGASP


def test_gasp_roundtrip_exact():
    back = roundtrip(GASP)
    assert back == GASP
    # home entry survives as the reserved id at size 1
    doc = formats.instance_to_doc(GASP)
    assert [["@empty", 1], 0] in doc["types"][0]["ranks"]


def test_ggasp_roundtrip_exact():
    base = gasp_instance(["a1"], [("t1", 2, {("a1", 2): 3})])
    net = NetworkInstance(base, (("x1", "t1"), ("x2", "t1")),
                          frozenset({("x2", "x1")}))
    back = roundtrip(net)
    assert back == net
    assert back.links == frozenset({("x1", "x2")})


def test_smpss_roundtrip_exact():
    s = SMPSSInstance((3, 1), (((3, 0), (0, 1)), ((2, 0),)))
    assert roundtrip(s) == s


def test_pclique_roundtrip_exact():
    assert roundtrip(tiny_pc()) == tiny_pc()


def test_generated_meta_survives_as_json():
    # pc_to_smpss metadata is tuple-heavy; files must still be fixpoints
    s = pc_to_smpss(random_partitioned_clique(3, 2, 1, seed=4, planted=True))
    back = roundtrip(s)
    assert back.target == s.target and back.sets == s.sets
    assert back.meta["source"] == "pc_to_smpss"
    assert tuple(back.meta["planted"]) == tuple(s.meta["planted"])
    # parsing the same text twice gives equal objects
    text = formats.serialize_instance(s)
    assert formats.parse_instance(text) == formats.parse_instance(text)


def test_ggasp_generated_roundtrip():
    net = pc_to_ggasp(random_partitioned_clique(3, 2, 2, seed=9, planted=True))
    back = roundtrip(net)
    assert back.base == net.base
    assert back.agents == net.agents and back.links == net.links


def test_random_instance_files_deterministic():
    a = formats.serialize_instance(random_instance("gasp", types=2, activities=2,
                                                   agents=4, seed=11))
    b = formats.serialize_instance(random_instance("gasp", types=2, activities=2,
                                                   agents=4, seed=11))
    assert a == b


def test_serialization_is_canonical():
    text = formats.serialize_instance(SGASP)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc)[:3] == ["format", "version", "kind"]
    # approvals listed in activity order with ascending sizes
    assert doc["types"][0]["approvals"] == {"a1": [1, 2]}
    assert doc["types"][1]["approvals"] == {"a1": [3], "a2": [1]}


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("format"),
    lambda d: d.update(format="elsewhere"),
    lambda d: d.update(version=2),
    lambda d: d.update(kind="tsp"),
    lambda d: d.pop("activities"),
    lambda d: d.update(types=[{"id": "t1", "count": 1}]),
    # JSON booleans where the format needs integers; with 1 / 0 in place of
    # true each of these documents loads
    lambda d: d["types"][1].update(count=True),
    lambda d: d["types"][0].update(approvals={"a1": [True]}),
    lambda d: d.update(kind="gasp", types=[
        {"id": "t1", "count": 1, "ranks": [[["a1", True], 2], [["@empty", 1], 0]]}]),
    lambda d: d.update(kind="gasp", types=[
        {"id": "t1", "count": 1, "ranks": [[["@empty", 1], True]]}]),
    lambda d: d.update(kind="smpss", d=True, target=[1], sets=[[[1]]]),
    lambda d: d.update(kind="pclique", k=True, parts=[["u"]], edges=[]),
    # wrong scalar types that would load coerced and be written back changed
    lambda d: d.update(kind="smpss", d=1, target=[True], sets=[[[1]]]),
    lambda d: d.update(kind="smpss", d=1, target=["2"], sets=[[[2]]]),
    lambda d: d.update(kind="smpss", d=1, target=[1], sets=[[[1.0]]]),
    lambda d: d.update(kind="pclique", k=1, parts=[[1, 2]], edges=[]),
    # wrong nesting, which crashed with a TypeError or loaded a dict's keys
    lambda d: d.update(kind="smpss", d=1, target=[1], sets=[5]),
    lambda d: d.update(kind="pclique", k=1, parts=[5], edges=[]),
    lambda d: d.update(kind="smpss", d=1, target=[1], sets=[[5]]),
    lambda d: d.update(kind="pclique", k=1, parts=[{"u": 1}], edges=[]),
    lambda d: d.update(kind="pclique", k=2, parts=[["u"], ["v"]], edges=[[["u"], ["v"]]]),
    lambda d: d.update(kind="ggasp", types=[
        {"id": "t1", "count": 2, "ranks": [[["a1", 2], 1], [["@empty", 1], 0]]}],
        agents=[{"id": "x1", "type": "t1"}, {"id": "x2", "type": "t1"}],
        links=[[["x1"], ["x2"]]]),
])
def test_malformed_instance_docs(mangle):
    doc = formats.instance_to_doc(SGASP)
    mangle(doc)
    with pytest.raises(InvalidInstanceError):
        formats.doc_to_instance(doc)


def test_bad_rank_entry_shapes():
    doc = formats.instance_to_doc(GASP)
    doc["types"][0]["ranks"] = [["a1", 2, 5]]
    with pytest.raises(InvalidInstanceError):
        formats.doc_to_instance(doc)
    doc["types"][0]["ranks"] = [[["a1", 2], 5], [["a1", 2], 4], [["@empty", 1], 0]]
    with pytest.raises(InvalidInstanceError, match="twice"):
        formats.doc_to_instance(doc)


def test_dimension_mismatches():
    doc = formats.instance_to_doc(SMPSSInstance((1,), (((1,),),)))
    doc["d"] = 2
    with pytest.raises(InvalidInstanceError, match="target has"):
        formats.doc_to_instance(doc)
    doc = formats.instance_to_doc(tiny_pc())
    doc["k"] = 4
    with pytest.raises(InvalidInstanceError, match="parts"):
        formats.doc_to_instance(doc)


def test_invalid_json_text():
    with pytest.raises(InvalidInstanceError, match="invalid JSON"):
        formats.parse_instance("{nope")


def test_deeply_nested_json_is_invalid():
    # json.loads raises RecursionError on nesting this deep
    deep = "[" * 100_000 + "]" * 100_000
    text = formats.dumps(formats.instance_to_doc(SGASP))
    with pytest.raises(InvalidInstanceError, match="invalid JSON"):
        formats.parse_instance(text.rstrip()[:-1] + f', "meta": {deep}}}')
    with pytest.raises(InvalidAssignmentError, match="invalid JSON"):
        formats.parse_witness(deep, SGASP)


def test_reserved_activity_rejected_via_model():
    doc = formats.instance_to_doc(SGASP)
    doc["activities"] = ["a1", "@empty"]
    with pytest.raises(InvalidInstanceError):
        formats.doc_to_instance(doc)


# -------------------------------------------------------------------- witnesses

def test_counts_witness_roundtrip():
    w = TypeCountAssignment(((2, 0), (0, 1)))
    doc = formats.witness_to_doc(SGASP, w, solver={"algorithm": "fpt-ta"})
    assert doc["counts"] == {"t1": {"a1": 2}, "t2": {"a2": 1}}
    assert doc["solver"] == {"algorithm": "fpt-ta"}
    assert formats.doc_to_witness(doc, SGASP) == w


def test_counts_witness_zero_rows_omitted():
    w = TypeCountAssignment(((0, 0), (1, 0)))
    doc = formats.witness_to_doc(SGASP, w)
    assert doc["counts"] == {"t2": {"a1": 1}}
    assert formats.doc_to_witness(doc, SGASP) == w


def test_assignment_witness_roundtrip():
    base = gasp_instance(["a1"], [("t1", 2, {("a1", 2): 3})])
    net = NetworkInstance(base, (("x1", "t1"), ("x2", "t1")),
                          frozenset({("x1", "x2")}))
    pi = AgentAssignment({"x1": "a1", "x2": "@empty"})
    doc = formats.witness_to_doc(net, pi)
    assert doc["assignment"] == {"x1": "a1", "x2": "@empty"}
    back = formats.doc_to_witness(doc, net)
    assert back.mapping == pi.mapping


def test_witness_unresolved_ids():
    doc = formats.witness_to_doc(SGASP, TypeCountAssignment(((1, 0), (0, 0))))
    doc["counts"]["ghost"] = {"a1": 1}
    with pytest.raises(InvalidAssignmentError, match="unknown type"):
        formats.doc_to_witness(doc, SGASP)
    doc = {"format": "gasplab-witness", "version": 1, "kind": "sgasp",
           "counts": {"t1": {"zz": 1}}}
    with pytest.raises(InvalidAssignmentError, match="unknown activity"):
        formats.doc_to_witness(doc, SGASP)


def test_witness_counts_must_be_nonnegative_ints():
    for bad in (True, -1, "1", 1.0):
        doc = {"format": "gasplab-witness", "version": 1, "kind": "sgasp",
               "counts": {"t1": {"a1": bad}}}
        with pytest.raises(InvalidAssignmentError, match="bad count"):
            formats.doc_to_witness(doc, SGASP)


def test_witness_kind_mismatch():
    doc = formats.witness_to_doc(SGASP, TypeCountAssignment(((1, 0), (0, 0))))
    with pytest.raises(InvalidAssignmentError, match="does not match"):
        formats.doc_to_witness(doc, GASP)


def test_assignment_witness_must_cover_agents():
    base = gasp_instance(["a1"], [("t1", 2, {("a1", 2): 3})])
    net = NetworkInstance(base, (("x1", "t1"), ("x2", "t1")), frozenset())
    doc = formats.witness_to_doc(net, AgentAssignment({"x1": "a1", "x2": "a1"}))
    del doc["assignment"]["x2"]
    with pytest.raises(InvalidAssignmentError, match="misses"):
        formats.doc_to_witness(doc, net)
    doc["assignment"] = {"x1": "a1", "x2": "a1", "x3": "a1"}
    with pytest.raises(InvalidAssignmentError, match="unknown agent"):
        formats.doc_to_witness(doc, net)


def test_no_witness_format_for_smpss():
    with pytest.raises(InvalidAssignmentError, match="no witness format"):
        formats.witness_to_doc(SMPSSInstance((1,), (((1,),),)),
                               TypeCountAssignment(((1,),)))
