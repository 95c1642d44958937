"""Record IO and validation tests, including the parse/serialize fuzz
round-trip harness, the check that both refuse a graph alike, the check
of `serialize_mrp` against the dict-based serializer it replaced, and the
typed error that each transform gives a graph built in code with an edge
that `validate_graph` calls dangling."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import sentence

from mrparse import mrp
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode
from mrparse.prep.amr import AmrTables, amr_preprocess
from mrparse.prep.eds import EdsError, eds_reduce
from mrparse.prep.ucca import ucca_mark_implicit
from mrparse.treeify import TreeError, graph_to_tree

FRAMEWORKS = ("dm", "psd", "eds", "ucca", "amr")


def reference_serialize(g: MrpGraph) -> str:
    """The dict-based serializer that `serialize_mrp` replaced, kept as the
    reference for its bytes."""
    obj = {"id": g.id}
    if g.extras:
        obj.update(g.extras)
    obj["framework"] = g.framework
    obj["input"] = g.input
    obj["tops"] = list(g.tops)
    obj["nodes"] = [_node_obj(n) for n in g.nodes]
    obj["edges"] = [_edge_obj(e) for e in g.edges]
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _node_obj(n: MrpNode):
    obj = {"id": n.id}
    if n.label is not None:
        obj["label"] = n.label
    if n.properties:
        obj["properties"] = [p for p, _ in n.properties]
        obj["values"] = [v for _, v in n.properties]
    if n.anchors is not None:
        obj["anchors"] = [{"from": f, "to": t} for f, t in n.anchors]
    if n.extras:
        obj.update(n.extras)
    return obj


def _edge_obj(e: MrpEdge):
    obj = {"source": e.source, "target": e.target}
    if e.label is not None:
        obj["label"] = e.label
    if e.attributes:
        obj["attributes"] = [a for a, _ in e.attributes]
        obj["values"] = [v for _, v in e.attributes]
    if e.extras:
        obj.update(e.extras)
    return obj


def test_parse_empty_graph():
    g = mrp.parse_mrp('{"id": "1", "framework": "dm", "input": "", "tops": [], "nodes": [], "edges": []}')
    assert g.nodes == [] and g.edges == [] and g.tops == []


def test_parse_minimal_graph():
    g = mrp.parse_mrp(
        '{"id": "2", "framework": "dm", "input": "a b", "tops": [0],'
        ' "nodes": [{"id": 0}, {"id": 1}],'
        ' "edges": [{"source": 0, "target": 1, "label": "ARG1"}]}')
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.edges[0].label == "ARG1"


def test_parse_preserves_unknown_keys():
    line = ('{"id": "3", "flavor": 0, "framework": "eds", "version": 1.0, "time": "2019-06-01",'
            ' "input": "x", "tops": [0], "nodes": [{"id": 0, "label": "a", "zzz": [1, 2]}], "edges": []}')
    g = mrp.parse_mrp(line)
    assert g.extras["flavor"] == 0 and g.extras["time"] == "2019-06-01"
    assert g.nodes[0].extras == {"zzz": [1, 2]}
    assert mrp.parse_mrp(mrp.serialize_mrp(g)) == g


def test_parse_error_carries_byte_offset():
    with pytest.raises(mrp.MrpParseError) as ei:
        mrp.parse_mrp('{"id": "1", "nodes": [}')
    assert ei.value.offset == 22


@pytest.mark.parametrize("nodes,edges", [
    ('{"label": "x"}', ''),
    ('{"id": 0, "anchors": [{"from": 0}]}', ''),
    ('{"id": 0, "anchors": [{"to": 1}]}', ''),
    ('{"id": 0}', '{"source": 0}'),
], ids=["no node id", "no anchor to", "no anchor from", "no edge target"])
def test_parse_missing_field_is_parse_error(nodes, edges):
    with pytest.raises(mrp.MrpParseError, match="graph 7"):
        mrp.parse_mrp(f'{{"id": "7", "input": "ab", "nodes": [{nodes}], "edges": [{edges}]}}')


@pytest.mark.parametrize("line", ["[]", '"g1"', "1", "null"])
def test_a_record_that_is_not_an_object_is_refused(line):
    with pytest.raises(mrp.MrpParseError, match="^record is not an object$"):
        mrp.parse_mrp(line)


@pytest.mark.parametrize("edge", ["1", '"0 1"', "[0, 1]", "null"])
def test_an_edge_that_is_not_an_object_is_refused(edge):
    with pytest.raises(mrp.MrpParseError, match=r"^graph 7: edge .* is not an object$"):
        mrp.parse_mrp(f'{{"id": "7", "input": "a", "nodes": [{{"id": 0}}], "edges": [{edge}]}}')


@pytest.mark.parametrize("record", [
    '{"id": "7", "nodes": [1]}',
    '{"id": "7", "tops": 5}',
    '{"id": "7", "nodes": [{"id": 0, "properties": ["a"], "values": 5}]}',
    '{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": 0, "target": 0, "attributes": 5}]}',
    '{"id": "7", "nodes": [{"id": [1]}]}',
    '{"id": "7", "nodes": [{"id": "0"}]}',
    '{"id": "7", "nodes": [{"id": true}]}',
    '{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": 0, "target": "0"}]}',
    '{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": [0], "target": 0}]}',
    '{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": false, "target": 0}]}',
    '{"id": "7", "tops": [0.0], "nodes": [{"id": 0}]}',
    '{"id": "7", "tops": [true], "nodes": [{"id": 0}]}',
    '{"id": "7", "input": 5, "nodes": [{"id": 0, "anchors": [{"from": 0, "to": 1}]}]}',
    '{"id": "7", "input": ["ab"]}',
    '{"id": "7", "input": "ab", "nodes": [{"id": 0, "anchors": [{"from": "0", "to": 1}]}]}',
    '{"id": "7", "input": "ab", "nodes": [{"id": 0, "anchors": [{"from": 0, "to": true}]}]}',
    '{"id": "7", "input": "ab", "nodes": [{"id": 0, "anchors": [{"from": 0, "to": 1.0}]}]}',
    '{"id": "7", "nodes": [{"id": 0, "label": 5}]}',
    '{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": 0, "target": 0, "label": ["A"]}]}',
], ids=["node not an object", "tops not a list", "node values not a list", "edge attributes not a list",
        "node id a list", "node id a string", "node id a bool", "edge target a string",
        "edge source a list", "edge source a bool", "top a float", "top a bool",
        "input a number", "input a list", "anchor from a string", "anchor to a bool",
        "anchor to a float", "node label a number", "edge label a list"])
def test_mistyped_record_is_parse_error(record):
    with pytest.raises(mrp.MrpParseError, match="graph 7"):
        mrp.parse_mrp(record)


@pytest.mark.parametrize("record, names", [
    ('{"id": "7", "nodes": [{"id": 0, "values": ["x"]}]}', "properties"),
    ('{"id": "7", "nodes": [{"id": 0, "properties": ["x"]}]}', "properties"),
    ('{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": 0, "target": 0, "values": ["x"]}]}', "attributes"),
    ('{"id": "7", "nodes": [{"id": 0}], "edges": [{"source": 0, "target": 0, "attributes": ["x"]}]}',
     "attributes"),
], ids=["node values alone", "node properties alone", "edge values alone", "edge attributes alone"])
def test_unpaired_values_are_length_mismatch(record, names):
    with pytest.raises(mrp.MrpParseError, match=f"graph 7: {names}/values length mismatch: [01] vs [01]"):
        mrp.parse_mrp(record)


def test_unknown_keys_survive_at_every_level_byte_for_byte():
    line = ('{"id":"3","flavor":0,"time":"2019-06-01","framework":"eds","input":"x y","tops":[0],'
            '"nodes":[{"id":0,"label":"a","anchors":[{"from":0,"to":1}],"zzz":[1,2]},{"id":1}],'
            '"edges":[{"source":0,"target":1,"label":"L","normal":"ARG1","é":null}]}')
    g = mrp.parse_mrp(line)
    assert g.extras == {"flavor": 0, "time": "2019-06-01"}
    assert [n.extras for n in g.nodes] == [{"zzz": [1, 2]}, {}]
    assert g.edges[0].extras == {"normal": "ARG1", "é": None}
    assert mrp.serialize_mrp(g) == line


def test_parse_rejects_a_repeated_node_id():
    line = ('{"id": "d", "framework": "amr", "input": "a b", "tops": [0],'
            ' "nodes": [{"id": 0, "label": "a"}, {"id": 0, "label": "b"}], "edges": []}')
    with pytest.raises(mrp.MrpValidationError, match="graph d: node id 0 repeated"):
        mrp.parse_mrp(line)


def test_parse_rejects_dangling_edge():
    with pytest.raises(mrp.MrpValidationError):
        mrp.parse_mrp('{"id": "1", "framework": "dm", "input": "", "tops": [],'
                      ' "nodes": [{"id": 0}], "edges": [{"source": 0, "target": 99}]}')


def test_serialize_empty_and_anchor_passthrough():
    g = MrpGraph(id="e", framework="dm")
    line = mrp.serialize_mrp(g)
    assert '"nodes":[]' in line and '"edges":[]' in line
    g2 = MrpGraph(id="a", framework="eds", input="Pierre",
                  nodes=[MrpNode(0, label="named", anchors=[(0, 6)])])
    line2 = mrp.serialize_mrp(g2)
    assert '"from":0' in line2 and '"to":6' in line2


def random_graph(rng, graph_id):
    labels = ["want", "_dog_n_1", "αβ", 'quo"te', "x2", "x10", None]
    n = int(rng.integers(0, 7))
    nodes = []
    text = "word " * max(n, 1)
    for i in range(n):
        anchors = None
        if rng.random() < 0.6:
            a = int(rng.integers(0, len(text)))
            b = int(rng.integers(a, len(text)))
            anchors = [(a, b)]
        props = []
        if rng.random() < 0.4:
            props = [("carg", "Pierre"), ("pos", "NNP")][: int(rng.integers(1, 3))]
        nodes.append(MrpNode(
            id=i, label=labels[int(rng.integers(0, len(labels)))],
            properties=props, anchors=anchors,
            extras={"rank": int(rng.integers(0, 5))} if rng.random() < 0.3 else {},
        ))
    edges = []
    if n >= 2:
        for _ in range(int(rng.integers(0, 2 * n))):
            s, t = rng.integers(0, n, size=2)
            attrs = [("remote", True)] if rng.random() < 0.3 else []
            edges.append(MrpEdge(int(s), int(t), label="ARG" + str(int(rng.integers(1, 4))),
                                 attributes=attrs))
    tops = sorted(set(int(t) for t in rng.integers(0, n, size=int(rng.integers(0, 3))))) if n else []
    fw = ["dm", "psd", "eds", "ucca", "amr"][int(rng.integers(0, 5))]
    return MrpGraph(id=str(graph_id), framework=fw, input=text.rstrip(),
                    tops=tops, nodes=nodes, edges=edges,
                    extras={"version": 1.0} if rng.random() < 0.5 else {})


def test_roundtrip_100_random_graphs():
    rng = np.random.default_rng(42)
    for i in range(100):
        g = random_graph(rng, i)
        line = mrp.serialize_mrp(g)
        assert line == reference_serialize(g)
        g2 = mrp.parse_mrp(line)
        assert g2 == g, f"round trip failed for graph {i}"
        assert mrp.serialize_mrp(g2) == line


def test_serialize_matches_the_reference_on_the_benchmark_chain(monkeypatch, prep_roundtrip):
    """Every graph that the benchmark's prep_roundtrip chain writes on seed
    1 is written byte for byte as the reference writes it."""
    serialize, written = mrp.serialize_mrp, []
    monkeypatch.setattr(mrp, "serialize_mrp", lambda g: written.append(g) or serialize(g))
    w, state = prep_roundtrip
    lines = [w.roundtrip(it, *state)[0] for it in w.items]
    assert len(written) == len(w.items) == 360
    assert lines == [reference_serialize(g) for g in written]


def refused(**changes):
    """A graph that serializes, with its one node, edge, top or anchor
    changed as `changes` name: `node_id`, `label`, `source`, `target`,
    `top`, `anchor_from`, `anchor_to`, `properties`, `attributes`, or
    `graph_extras`, `node_extras`, `edge_extras`."""
    f = {"node_id": 0, "label": "a", "source": 0, "target": 0, "top": 0, "anchor_from": 0, "anchor_to": 1,
         "properties": [], "attributes": [], "graph_extras": {}, "node_extras": {}, "edge_extras": {}} | changes
    node = MrpNode(f["node_id"], f["label"], f["properties"], [(f["anchor_from"], f["anchor_to"])], f["node_extras"])
    edge = MrpEdge(f["source"], f["target"], "L", f["attributes"], f["edge_extras"])
    return MrpGraph("g7", "amr", "ab", [f["top"]], [node], [edge], f["graph_extras"])


def test_the_refusal_cases_serialize_when_unchanged():
    assert mrp.serialize_mrp(refused()) == reference_serialize(refused())


@pytest.mark.parametrize("level, key", [
    ("graph_extras", "framework"), ("graph_extras", "id"), ("graph_extras", "nodes"),
    ("node_extras", "label"), ("node_extras", "values"), ("node_extras", "anchors"),
    ("edge_extras", "target"), ("edge_extras", "label"), ("edge_extras", "attributes"),
])
def test_serialize_refuses_extras_that_name_a_record_field(level, key):
    with pytest.raises(mrp.MrpError, match=f"graph g7: .*extras \\['{key}'\\] name record fields"):
        mrp.serialize_mrp(refused(**{level: {"rank": 1, key: 5}}))


@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("field", ["node_id", "source", "target", "top", "anchor_from", "anchor_to"])
def test_serialize_refuses_an_integer_field_that_is_not_an_int(field, value):
    with pytest.raises(mrp.MrpError, match="graph g7: .*not .*integer"):
        mrp.serialize_mrp(refused(**{field: value}))


def test_serialize_refuses_a_value_json_cannot_hold():
    g = MrpGraph("g7", "amr", nodes=[MrpNode(0, "a", [("p", {1, 2})])])
    with pytest.raises(mrp.MrpError, match="graph g7: cannot be written"):
        mrp.serialize_mrp(g)


def refusal(call, arg):
    """The class and message of the MrpError that call(arg) raises."""
    with pytest.raises(mrp.MrpError) as ei:
        call(arg)
    return type(ei.value), str(ei.value)


def assert_refused_alike(g, line):
    """serialize_mrp(g) raises what parse_mrp(line) raises, naming the graph."""
    read = refusal(mrp.parse_mrp, line)
    assert refusal(mrp.serialize_mrp, g) == read
    assert read[1].startswith(f"graph {g.id}: ")


@pytest.mark.parametrize("line, g, error, message", [
    ('{"id":"g7","framework":"amr","input":"ab","tops":[0],"nodes":[{"id":true,"label":"a","anchors":[{"from":0,"to":1}]}],'
     '"edges":[{"source":0,"target":0,"label":"L"}]}',
     refused(node_id=True), mrp.MrpParseError, "node id True is not an integer"),
    ('{"id":"g7","framework":"amr","input":"ab","tops":[0],"nodes":[{"id":0,"label":5,"anchors":[{"from":0,"to":1}]}],'
     '"edges":[{"source":0,"target":0,"label":"L"}]}',
     refused(label=5), mrp.MrpParseError, "node 0: label 5 is not a string"),
    ('{"id":"g7","framework":"amr","input":"ab","tops":[0],"nodes":[{"id":0,"label":"a","properties":[5],'
     '"values":["x"],"anchors":[{"from":0,"to":1}]}],"edges":[{"source":0,"target":0,"label":"L"}]}',
     refused(properties=[(5, "x")]), mrp.MrpParseError, "node 0: property name 5 is not a string"),
    ('{"id":"g7","input":"ab","nodes":[{"id":0,"label":"a"},{"id":0,"label":"b"}]}',
     MrpGraph("g7", "", "ab", nodes=[MrpNode(0, "a"), MrpNode(0, "b")]),
     mrp.MrpValidationError, "node id 0 repeated"),
    ('{"id":"g7","framework":"amr","input":"ab","tops":[0],"nodes":[{"id":0,"label":"a","anchors":[{"from":0,"to":1}]}],'
     '"edges":[{"source":0,"target":9,"label":"L"}]}',
     refused(target=9), mrp.MrpValidationError, "edge 0->9 references a missing node"),
    ('{"id":"g7","framework":"amr","input":"ab","tops":[4],"nodes":[{"id":0,"label":"a","anchors":[{"from":0,"to":1}]}],'
     '"edges":[{"source":0,"target":0,"label":"L"}]}',
     refused(top=4), mrp.MrpValidationError, "top 4 is not a node"),
    ('{"id":"g7","framework":"amr","input":"ab","tops":[0],"nodes":[{"id":0,"label":"a","anchors":[{"from":2,"to":1}]}],'
     '"edges":[{"source":0,"target":0,"label":"L"}]}',
     refused(anchor_from=2), mrp.MrpValidationError, "node 0: anchor (2, 1) is inverted"),
    ('{"id":"g7","framework":"amr","input":"ab","tops":[0],"nodes":[{"id":0,"label":"a","anchors":[{"from":0,"to":50}]}],'
     '"edges":[{"source":0,"target":0,"label":"L"}]}',
     refused(anchor_to=50), mrp.MrpValidationError, "node 0: anchor (0, 50) is outside input of length 2"),
], ids=["NotAnInteger", "NotAString", "NotAString-name", "DuplicateNodeId", "DanglingEdge", "DanglingTop",
        "InvertedAnchor", "AnchorOutOfBounds"])
def test_parse_and_serialize_refuse_each_rule_alike(line, g, error, message):
    assert refusal(mrp.parse_mrp, line) == (error, f"graph g7: {message}")
    assert_refused_alike(g, line)


@pytest.mark.parametrize("framework", ["DM", "Amr"])
def test_the_header_round_trips_as_written(framework):
    line = f'{{"id":"g7","framework":"{framework}","input":"","tops":[],"nodes":[],"edges":[]}}'
    assert mrp.serialize_mrp(mrp.parse_mrp(line)) == line


@pytest.mark.parametrize("line, message", [
    ("{}", "record without 'id', 'framework', 'input'"),
    ('{"framework":"dm","input":"","tops":[],"nodes":[],"edges":[]}', "record without 'id'"),
    ('{"id":"g7","input":"","tops":[],"nodes":[],"edges":[]}', "graph g7: record without 'framework'"),
    ('{"id":"g7","framework":"dm","tops":[],"nodes":[],"edges":[]}', "graph g7: record without 'input'"),
], ids=["empty", "no id", "no framework", "no input"])
def test_a_record_without_id_framework_or_input_is_refused(line, message):
    assert refusal(mrp.parse_mrp, line) == (mrp.MrpParseError, message)


@pytest.mark.parametrize("line, error, message", [
    ('{"nodes":[{"id":0},{"id":0}]}', mrp.MrpValidationError, "record without 'id': node id 0 repeated"),
    ('{"nodes":[1]}', mrp.MrpParseError, "record without 'id': node 1 is not an object"),
    ('{"framework":"dm","input":"","nodes":5}', mrp.MrpParseError, "record without 'id': 'nodes' is int, not a list"),
], ids=["repeated node id", "node not an object", "nodes not a list"])
def test_a_refusal_before_the_header_check_says_the_record_has_no_id(line, error, message):
    assert refusal(mrp.parse_mrp, line) == (error, message)


@pytest.mark.parametrize("key, value", [("id", None), ("id", 5), ("framework", None), ("framework", 5)])
def test_an_id_or_framework_that_is_not_a_string_is_refused(key, value):
    header = {"id": "g7", "framework": "dm", key: value}
    line = json.dumps({**header, "input": "", "tops": [], "nodes": [], "edges": []})
    message = f"graph {header['id']}: {key} {value!r} is not a string"
    assert refusal(mrp.parse_mrp, line) == (mrp.MrpParseError, message)
    assert refusal(mrp.serialize_mrp, MrpGraph(header["id"], header["framework"])) == (mrp.MrpParseError, message)


@pytest.mark.parametrize("line, g, message", [
    ('{"id":"g7","framework":"ucca","input":"ab","tops":[0],"nodes":[{"id":0,"label":"a","anchors":[{"from":0,"to":1}]}],'
     '"edges":[{"source":0,"target":0,"label":"L","attributes":[5],"values":[true]}]}',
     refused(attributes=[(5, True)]), "edge 0->0: attribute name 5 is not a string"),
    ('{"id":"g7","framework":"ucca","input":"ab","tops":[0],"nodes":[{"id":0,"label":"a","anchors":[{"from":0,"to":1}]}],'
     '"edges":[{"source":0,"target":0,"label":"L","attributes":["remote",null],"values":[true,true]}]}',
     refused(attributes=[("remote", True), (None, True)]), "edge 0->0: attribute name None is not a string"),
], ids=["first", "second"])
def test_an_attribute_name_that_is_not_a_string_is_refused(line, g, message):
    """Else encode_graph_attrs fails on it untyped, far from the record."""
    assert refusal(mrp.parse_mrp, line) == (mrp.MrpParseError, f"graph g7: {message}")
    assert_refused_alike(g, line)
    assert sorted(code for code, _ in mrp.validate_graph(g)) == ["NotAString", "SelfLoop"]


def test_validate_clean_graph():
    g = MrpGraph(id="v", framework="dm", input="a b", tops=[0],
                 nodes=[MrpNode(0, label="a", anchors=[(0, 1)]), MrpNode(1, label="b")],
                 edges=[MrpEdge(0, 1, "ARG1")])
    assert mrp.validate_graph(g) == []


def test_validate_flags_dangling_and_inverted():
    g = MrpGraph(id="v", framework="dm", input="ab",
                 nodes=[MrpNode(0, anchors=[(2, 1)])],
                 edges=[MrpEdge(0, 99, "x")])
    codes = {code for code, _ in mrp.validate_graph(g)}
    assert "DanglingEdge" in codes
    assert "InvertedAnchor" in codes


def test_validate_flags_selfloop_topless_and_dup():
    g = MrpGraph(id="v", framework="ucca", input="ab", tops=[7],
                 nodes=[MrpNode(0), MrpNode(0)],
                 edges=[MrpEdge(0, 0, "x")])
    codes = [code for code, _ in mrp.validate_graph(g)]
    assert "SelfLoop" in codes and "DanglingTop" in codes and "DuplicateNodeId" in codes


def test_validate_is_pure():
    g = MrpGraph(id="v", framework="dm", input="ab", nodes=[MrpNode(0, anchors=[(5, 9)])])
    assert mrp.validate_graph(g) == mrp.validate_graph(g)


def test_repeated_property_and_self_loop_are_data():
    line = ('{"id":"v","framework":"dm","input":"ab","tops":[0],'
            '"nodes":[{"id":0,"properties":["p","p"],"values":["x","y"]}],"edges":[{"source":0,"target":0}]}')
    g = mrp.parse_mrp(line)
    assert mrp.serialize_mrp(g) == line
    assert [code for code, _ in mrp.validate_graph(g)] == ["DuplicateProperty", "SelfLoop"]


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    graphs = [random_graph(rng, i) for i in range(20)]
    path = tmp_path / "graphs.mrp"
    mrp.write_mrp_file(path, graphs)
    assert mrp.read_mrp_file(path) == graphs


def test_write_mrp_file_refuses_text_utf8_cannot_encode_and_writes_nothing(tmp_path):
    rng = np.random.default_rng(9)
    ok, bad = random_graph(rng, 0), MrpGraph("b", "amr", "x", [0], [MrpNode(0, "x\ud800")])
    path = tmp_path / "graphs.mrp"
    with pytest.raises(mrp.MrpError, match=r"^graph b: cannot be written: 'utf-8' codec can't encode"):
        mrp.write_mrp_file(path, [ok, bad])
    assert not path.exists()


def test_read_mrp_file_keeps_the_line_and_the_byte_offset(tmp_path):
    path = tmp_path / "bad.mrp"
    path.write_text('{"id": "1", "nodes": [}\n', encoding="utf-8")
    with pytest.raises(mrp.MrpParseError, match=r"^line 1: malformed record: .*\(byte offset 22\)$") as ei:
        mrp.read_mrp_file(path)
    assert ei.value.offset == 22


def test_read_mrp_file_skips_blank_lines_and_counts_them(tmp_path):
    rng = np.random.default_rng(8)
    graphs = [random_graph(rng, i) for i in range(2)]
    lines = [mrp.serialize_mrp(graphs[0]), "", "  \t", mrp.serialize_mrp(graphs[1]), "", "[]"]
    path = tmp_path / "gaps.mrp"
    path.write_text("\n".join(lines[:4]) + "\n", encoding="utf-8")
    assert mrp.read_mrp_file(path) == graphs
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(mrp.MrpParseError, match=r"^line 6: record is not an object$"):
        mrp.read_mrp_file(path)


TEXT = st.text("aé\"\\ x0", max_size=4)
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-9, 10**12)
               | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
JSON_VALUES = JSON_LEAVES | st.lists(JSON_LEAVES, max_size=2) | st.dictionaries(TEXT, JSON_LEAVES, max_size=2)


# extras keys: none of them is a key the record format maps at any level
EXTRAS = st.dictionaries(st.sampled_from(["rank", "flavor", "time", "é", ""]), JSON_VALUES, max_size=2)
PAIRS = st.lists(st.tuples(TEXT, JSON_LEAVES), max_size=2)
LABELS = st.none() | TEXT


@st.composite
def mrp_graphs(draw):
    """Graphs that keep the record contract, with extras keys at every
    level, properties, edge attributes, None and empty anchors, None labels
    and node ids out of order: every top is a node, and every anchor piece
    (from, to) has 0 <= from <= to <= len(input)."""
    text = draw(TEXT)
    n = draw(st.integers(0, 4))
    offsets = st.integers(0, len(text))
    pieces = st.tuples(offsets, offsets).map(lambda p: (min(p), max(p)))
    anchors = st.none() | st.just([]) | st.lists(pieces, max_size=2)
    nodes = [MrpNode(i, draw(LABELS), draw(PAIRS), draw(anchors), draw(EXTRAS))
             for i in draw(st.permutations(range(n)))]
    ends = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [MrpEdge(s, t, draw(LABELS), draw(PAIRS), draw(EXTRAS))
             for s, t in draw(st.lists(ends, max_size=4 if n else 0))]
    return MrpGraph(id=draw(TEXT), framework=draw(st.sampled_from(FRAMEWORKS)), input=text,
                    tops=draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else [], nodes=nodes, edges=edges,
                    extras=draw(EXTRAS))


@st.composite
def unchecked_graphs(draw):
    """The graphs of `mrp_graphs`, but with tops from 0..4 whether or not
    they are nodes, and anchor offsets from 0..50 in either order."""
    n = draw(st.integers(0, 4))
    anchors = st.none() | st.just([]) | st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=2)
    nodes = [MrpNode(i, draw(LABELS), draw(PAIRS), draw(anchors), draw(EXTRAS))
             for i in draw(st.permutations(range(n)))]
    ends = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = [MrpEdge(s, t, draw(LABELS), draw(PAIRS), draw(EXTRAS))
             for s, t in draw(st.lists(ends, max_size=4 if n else 0))]
    return MrpGraph(id=draw(TEXT), framework=draw(st.sampled_from(FRAMEWORKS)), input=draw(TEXT),
                    tops=draw(st.lists(st.integers(0, 4), max_size=2)), nodes=nodes, edges=edges,
                    extras=draw(EXTRAS))


@given(mrp_graphs())
def test_parse_inverts_serialize(g):
    line = mrp.serialize_mrp(g)
    assert line == reference_serialize(g)
    back = mrp.parse_mrp(line)
    assert back == g
    assert mrp.serialize_mrp(back) == line


@given(unchecked_graphs())
def test_serialize_refuses_what_parse_refuses(g):
    """A graph whose tops are nodes and whose anchors lie in order within
    input round-trips exactly; serialize_mrp refuses any other with the
    error that parse_mrp raises on the reference serializer's line."""
    ids = {n.id for n in g.nodes}
    pieces = [p for n in g.nodes for p in n.anchors or ()]
    line = reference_serialize(g)
    if all(t in ids for t in g.tops) and all(0 <= f <= t <= len(g.input) for f, t in pieces):
        assert mrp.serialize_mrp(g) == line
        assert mrp.parse_mrp(line) == g
    else:
        assert_refused_alike(g, line)
        assert refusal(mrp.parse_mrp, line)[0] is mrp.MrpValidationError


@pytest.mark.parametrize("edge", [MrpEdge(0, 9, "A"), MrpEdge(9, 0, "A")], ids=["to 9", "from 9"])
@pytest.mark.parametrize("transform, error", [
    (graph_to_tree, TreeError),
    (ucca_mark_implicit, TreeError),
    (eds_reduce, EdsError),
    (lambda g: amr_preprocess(g, sentence("a b"), AmrTables()), mrp.MrpValidationError),
], ids=["graph_to_tree", "ucca_mark_implicit", "eds_reduce", "amr_preprocess"])
def test_a_dangling_edge_is_a_typed_error_naming_the_graph_and_the_edge(transform, error, edge):
    g = MrpGraph("d", "eds", "a b", [0], [MrpNode(0, "a"), MrpNode(1, "b")], [MrpEdge(0, 1, "A"), edge])
    assert [code for code, _ in mrp.validate_graph(g)] == ["DanglingEdge"]
    with pytest.raises(error, match=f"^graph d: edge {edge.source}->{edge.target} references a missing node$"):
        transform(g)
