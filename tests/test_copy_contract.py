"""The copy contract: `MrpGraph.copy()` shares no mutable part with its
source, and every transform leaves the graph it is given unchanged, as do
`graph_to_tree` and `tree_to_graph` with what they are given, and every
function of a companion sentence with the sentence it is given.

The record rule behind it: a node or edge record, or a companion `Token`,
is never edited after the function that built it returns. A transform
shares every record it leaves unchanged with its input and builds new
records only for what it changes, so `copy()` is the one way to get a
graph that may be edited in place. Treeify hands each node's property and
anchor lists on as they are, so those lists, in a record or in a
`SeqNode`, are never edited either; nor is a sentence's token or NER tag
list. The record without properties, attributes or extras shares one
empty list or dict, `EMPTY_LIST` or `EMPTY_DICT`, which refuses every edit
with TypeError."""

import dataclasses
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import sentence

from mrparse.companion import align_companion, replace_spans
from mrparse.mrp import EMPTY_DICT, EMPTY_LIST, MrpEdge, MrpGraph, MrpNode, parse_mrp, serialize_mrp
from mrparse.prep.amr import AmrTables, amr_postprocess, amr_preprocess
from mrparse.prep.anchors import anchors_to_spans, spans_to_anchors
from mrparse.prep.eds import MultiwordTable, apply_multiword, eds_exchange_properties, eds_reduce, eds_restore
from mrparse.prep.ucca import decode_graph_attrs, encode_graph_attrs, ucca_mark_implicit, ucca_strip_implicit
from mrparse.treeify import SeqNode, TreeError, graph_to_tree, tree_to_graph


def full_graph():
    return MrpGraph(id="c", framework="ucca", input="Pierre naps", tops=[0],
                    nodes=[MrpNode(0, "root", [("p", "v")], [(0, 11)], {"x": 1}),
                           MrpNode(1, None, [], [(0, 6)])],
                    edges=[MrpEdge(0, 1, "A", [("remote", True)], {"y": 2})],
                    extras={"flavor": 1})


MUTATIONS = {
    "tops": lambda g: g.tops.append(1),
    "extras": lambda g: g.extras.update(flavor=2),
    "node list": lambda g: g.nodes.pop(),
    "node label": lambda g: setattr(g.nodes[0], "label", "other"),
    "node properties": lambda g: g.nodes[0].properties.append(("q", "w")),
    "node anchors": lambda g: g.nodes[0].anchors.append((7, 11)),
    "node extras": lambda g: g.nodes[0].extras.update(x=3),
    "edge list": lambda g: g.edges.append(MrpEdge(1, 0, "B")),
    "edge label": lambda g: setattr(g.edges[0], "label", "C"),
    "edge attributes": lambda g: g.edges[0].attributes.append(("implicit", True)),
    "edge extras": lambda g: g.edges[0].extras.update(y=4),
}


@pytest.mark.parametrize("part", sorted(MUTATIONS))
def test_mutating_a_copy_leaves_the_original(part):
    g = full_graph()
    before = serialize_mrp(g)
    c = g.copy()
    assert c == g
    MUTATIONS[part](c)
    assert c != g
    assert serialize_mrp(g) == before


def eds_graph():
    return MrpGraph(id="e", framework="eds", input="Pierre Vinken naps", tops=[3],
                    nodes=[MrpNode(0, "compound", anchors=[(0, 13)]),
                           MrpNode(1, "Pierre", [("carg", "named")], [(0, 6)]),
                           MrpNode(2, "Vinken", [("carg", "named")], [(7, 13)]),
                           MrpNode(3, "_nap_v_1", anchors=[(14, 18)]),
                           MrpNode(4, "proper_q", anchors=[(14, 18)])],
                    edges=[MrpEdge(0, 1, "ARG1"), MrpEdge(0, 2, "ARG2"),
                           MrpEdge(3, 2, "ARG1"), MrpEdge(4, 3, "BV")])


def ucca_graph():
    return MrpGraph(id="u", framework="ucca", input="Pierre naps", tops=[0],
                    nodes=[MrpNode(0, None), MrpNode(1, "n_1", anchors=[(0, 6)]),
                           MrpNode(2, None, anchors=[(7, 11)])],
                    edges=[MrpEdge(0, 1, "A", [("remote", True)]), MrpEdge(0, 2, "P")])


def amr_graph():
    return MrpGraph(id="a", framework="amr", input="Pierre visited", tops=[0],
                    nodes=[MrpNode(0, "visit-01", [("polarity", "-")]), MrpNode(1, "person"),
                           MrpNode(2, "name"), MrpNode(3, "Pierre")],
                    edges=[MrpEdge(0, 1, "ARG0"), MrpEdge(1, 2, "name"), MrpEdge(2, 3, "op1")])


UCCA_SENT = sentence("Pierre naps")
AMR_SENT = sentence("Pierre visited", tags="PER O")
AMR_TABLES = AmrTables()
_, _, AMR_ENTRY = amr_preprocess(amr_graph(), AMR_SENT, AMR_TABLES, update=True)

# (transform applied to the input, input graph)
TRANSFORMS = {
    "eds_reduce": (eds_reduce, eds_graph),
    "eds_restore": (eds_restore, lambda: eds_reduce(eds_graph())),
    "eds_exchange_properties": (eds_exchange_properties, eds_graph),
    "ucca_mark_implicit": (ucca_mark_implicit, ucca_graph),
    "ucca_strip_implicit": (ucca_strip_implicit, lambda: ucca_mark_implicit(ucca_graph())),
    "encode_graph_attrs": (encode_graph_attrs, ucca_graph),
    "decode_graph_attrs": (decode_graph_attrs, lambda: encode_graph_attrs(ucca_graph())),
    "anchors_to_spans": (lambda g: anchors_to_spans(g, UCCA_SENT), ucca_graph),
    "spans_to_anchors": (lambda g: spans_to_anchors(g, UCCA_SENT),
                         lambda: anchors_to_spans(ucca_graph(), UCCA_SENT)[0]),
    "amr_preprocess": (lambda g: amr_preprocess(g, AMR_SENT, AmrTables(), update=True), amr_graph),
    "amr_postprocess": (lambda g: amr_postprocess(g, AMR_ENTRY, AMR_TABLES),
                        lambda: amr_preprocess(amr_graph(), AMR_SENT, AMR_TABLES)[0]),
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_transform_leaves_its_input_unchanged(name):
    transform, make_input = TRANSFORMS[name]
    g = make_input()
    before = serialize_mrp(g)
    out = transform(g)
    out = out[0] if isinstance(out, tuple) else out
    assert serialize_mrp(out) != before  # the transform did change something
    assert serialize_mrp(g) == before


def snapshot(g):
    """g's own fields, its node and edge lists by identity, and every record
    it holds, by identity, with the repr of each of the record's fields,
    which any edit inside a field's lists, dicts or tuples changes; for a
    tree, a list of SeqNodes, each SeqNode the same way."""
    def fields(obj, skip=()):
        return {f.name: repr(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.name not in skip}
    if isinstance(g, list):
        return [id(n) for n in g], [(n, fields(n)) for n in g]
    return (fields(g, skip=("nodes", "edges")), id(g.nodes), id(g.edges), [id(n) for n in g.nodes],
            [id(e) for e in g.edges], [(r, fields(r)) for r in (*g.nodes, *g.edges)])


WORDS = ["Pierre", "naps", "dog", "barks", "the"]
NODE_LABELS = st.sampled_from([None, "_nap_v_1", "_the_q", "compound", "proper_q", "visit-01", "person",
                               "n_1", "n__2", "Pierre", "dog", "name"])
PROPERTIES = st.lists(st.sampled_from([("carg", "Pierre"), ("polarity", "-"), ("wiki", "-"), ("p", "v")]),
                      max_size=2, unique_by=lambda p: p[0])
EDGE_LABELS = st.sampled_from([None, "ARG1", "ARG2", "BV", "A", "n⊕x"])
ATTRIBUTES = st.lists(st.sampled_from([("remote", True), ("implicit", 2)]), max_size=2, unique_by=lambda a: a[0])


@st.composite
def full_graphs(draw):
    """(graph, sentence): a sentence of two to five words whose first is
    tagged PER, and a graph whose nodes are all reachable from top 0, with up
    to two extra edges (reentrancies, cycles or self-loops). Every record carries extras and every node token-aligned
    anchors; properties and attributes are drawn, possibly empty. Some graphs
    hold an entity, `person -name-> name -op1->` the first word, which
    amr_preprocess anonymizes, and some a quantifier that eds_reduce folds
    and a compound that it turns into an edge."""
    words = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=5))
    s = sentence(words, tags=["PER"] + ["O"] * (len(words) - 1))
    token = st.integers(0, len(words) - 1)

    def node(i, label, properties, lo=None, hi=None):
        if lo is None:
            lo, hi = sorted((draw(token), draw(token)))
        return MrpNode(i, label, properties, [(s.tokens[lo].start, s.tokens[hi].end)], {"x": i})

    def edge(source, target, label, attributes):
        return MrpEdge(source, target, label, attributes if label is not None else [], {"y": target})

    n = draw(st.integers(1, 6))
    nodes = [node(i, draw(NODE_LABELS), draw(PROPERTIES)) for i in range(n)]
    edges = [edge(draw(st.integers(0, t - 1)), t, draw(EDGE_LABELS), draw(ATTRIBUTES)) for t in range(1, n)]
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), EDGE_LABELS, ATTRIBUTES)
    edges += [edge(*drawn) for drawn in draw(st.lists(extra, max_size=2))]
    if draw(st.booleans()):
        nodes += [node(n, "person", draw(PROPERTIES)), node(n + 1, "name", []), node(n + 2, words[0], [])]
        edges += [edge(0, n, "ARG0", []), edge(n, n + 1, "name", []), edge(n + 1, n + 2, "op1", [])]
    if draw(st.booleans()):
        k = len(nodes)
        nodes += [node(k, "_a_n_1", [], 0, 0), node(k + 1, "udef_q", [], 0, 0),
                  node(k + 2, "_b_n_1", [], 1, 1), node(k + 3, "compound", [], 0, 1)]
        edges += [edge(0, k, "ARG1", []), edge(k, k + 1, "BV", []),
                  edge(k, k + 3, "ARG1", []), edge(k + 3, k + 2, "ARG2", [])]
    return MrpGraph("p", "ucca", " ".join(words), [0], nodes, edges, {"flavor": 1}), s


@given(full_graphs())
def test_no_transform_edits_its_input(drawn):
    g, s = drawn

    def fresh():  # each input from its own records, lists and dicts, so no transform sees another's edits
        return g.copy()

    def cleared(h):  # h without what graph_to_tree refuses: node extras, edge attributes and extras
        return h.derive([dataclasses.replace(n, extras={}) for n in h.nodes],
                        [dataclasses.replace(e, attributes=[], extras={}) for e in h.edges])

    tables = AmrTables()
    anonymized, _, entry = amr_preprocess(fresh(), s, tables, update=True)
    # name -> (transform, its input); an inverse's input is its forward transform's output
    cases = {
        "eds_reduce": (eds_reduce, fresh()),
        "eds_restore": (eds_restore, eds_reduce(fresh())),
        "eds_exchange_properties": (eds_exchange_properties, fresh()),
        "ucca_mark_implicit": (ucca_mark_implicit, fresh()),
        "ucca_strip_implicit": (ucca_strip_implicit, ucca_mark_implicit(fresh())),
        "encode_graph_attrs": (encode_graph_attrs, fresh()),
        "decode_graph_attrs": (decode_graph_attrs, encode_graph_attrs(fresh())),
        "anchors_to_spans": (lambda h: anchors_to_spans(h, s), fresh()),
        "spans_to_anchors": (lambda h: spans_to_anchors(h, s), anchors_to_spans(fresh(), s)[0]),
        "amr_preprocess": (lambda h: amr_preprocess(h, s, AmrTables(), update=True), fresh()),
        "amr_postprocess": (lambda h: amr_postprocess(h, entry, tables), anonymized),
        "graph_to_tree": (graph_to_tree, fresh()),
        "tree_to_graph": (lambda seq: tree_to_graph(seq, "ucca", g.id, g.input), graph_to_tree(cleared(fresh()))),
    }
    assert sorted(cases) == sorted([*TRANSFORMS, "graph_to_tree", "tree_to_graph"])
    for name, (transform, h) in cases.items():
        before = snapshot(h)
        try:
            transform(h)
        except TreeError:  # a transform that refuses its input leaves it unchanged too
            pass
        assert snapshot(h) == before, name
    h = cleared(fresh())
    before = snapshot(h)
    graph_to_tree(h)
    assert snapshot(h) == before


def shares_every_record(out, g):
    return (out is not g and out.nodes is not g.nodes and out.edges is not g.edges
            and out.tops is not g.tops and out.extras is not g.extras
            and len(out.nodes) == len(g.nodes) and all(a is b for a, b in zip(out.nodes, g.nodes))
            and len(out.edges) == len(g.edges) and all(a is b for a, b in zip(out.edges, g.edges)))


UNCHANGING = {  # name -> (transform, a graph it finds nothing to change in)
    "eds_reduce": (eds_reduce, full_graph),  # its one candidate has an attributed link
    "eds_restore": (eds_restore, eds_graph),
    "eds_exchange_properties": (eds_exchange_properties, full_graph),  # no carg
    "ucca_mark_implicit": (ucca_mark_implicit, amr_graph),  # every label set, none n_k
    "ucca_strip_implicit": (ucca_strip_implicit, eds_graph),  # no n_k label
    "encode_graph_attrs": (encode_graph_attrs, eds_graph),  # no attributes, no ⊕
    "decode_graph_attrs": (decode_graph_attrs, eds_graph),  # no ⊕
    "anchors_to_spans": (lambda g: anchors_to_spans(g, AMR_SENT)[0], amr_graph),  # no anchors
    "spans_to_anchors": (lambda g: spans_to_anchors(g, AMR_SENT), amr_graph),
    "amr_preprocess": (lambda g: amr_preprocess(g, UCCA_SENT, AmrTables())[0], full_graph),  # no sense, no name
    "amr_postprocess": (lambda g: amr_postprocess(g, {}, AmrTables()), full_graph),  # no table entry
}


@pytest.mark.parametrize("name", sorted(UNCHANGING))
def test_a_transform_that_changes_nothing_returns_the_input_records(name):
    transform, make_input = UNCHANGING[name]
    g = make_input()
    before = serialize_mrp(g)
    out = transform(g)
    assert shares_every_record(out, g)
    assert serialize_mrp(out) == before


def test_a_transform_rebuilds_only_the_records_it_changes():
    g = ucca_graph()
    out, _ = anchors_to_spans(g, UCCA_SENT)
    assert [a is b for a, b in zip(out.nodes, g.nodes)] == [True, False, False]  # node 0 has no anchors
    assert all(a is b for a, b in zip(out.edges, g.edges))
    g = eds_graph()
    out = eds_exchange_properties(g)
    assert [a is b for a, b in zip(out.nodes, g.nodes)] == [True, False, False, True, True]  # carg on 1 and 2


def sentence_snapshot(s):
    """s's token and NER tag lists by identity, each token by identity with
    a copy of its fields, and a copy of the tags."""
    return id(s.tokens), id(s.ner_tags), [(id(t), dataclasses.astuple(t)) for t in s.tokens], list(s.ner_tags)


# name -> (function of the sentence, a sentence it builds moved or new tokens from)
SENTENCE_TRANSFORMS = {
    "align_companion": (lambda s: align_companion(MrpGraph("d", "dm", "Pierre  Vinken naps"), s),
                        lambda: sentence("Pierre Vinken naps", tags="PER PER O")),  # drifted: two tokens move
    "replace_spans": (lambda s: replace_spans(s, [(0, 1, "PER_0", "PER_0", "NNP", "PER")]),
                      lambda: sentence("Pierre Vinken naps", tags="PER PER O")),  # "naps" moves left
    "apply_multiword": (lambda s: apply_multiword(s, MultiwordTable({"new york": (1.0, 2)})),
                        lambda: sentence("New York naps", tags="LOC LOC O")),
    "amr_preprocess": (lambda s: amr_preprocess(amr_graph(), s, AmrTables())[1], lambda: AMR_SENT),
}


@pytest.mark.parametrize("name", sorted(SENTENCE_TRANSFORMS))
def test_a_sentence_transform_leaves_its_input_sentence_unchanged(name):
    transform, make_input = SENTENCE_TRANSFORMS[name]
    s = make_input()
    before = sentence_snapshot(s)
    out = transform(s)
    assert out.tokens != s.tokens  # the transform did change something
    assert sentence_snapshot(s) == before


@pytest.mark.parametrize("part", sorted(MUTATIONS))
def test_a_copy_of_a_transform_output_may_be_edited(part):
    g = full_graph()
    before = serialize_mrp(g)
    out = eds_exchange_properties(g)
    assert shares_every_record(out, g)
    c = out.copy()
    MUTATIONS[part](c)
    assert serialize_mrp(out) == before
    assert serialize_mrp(g) == before


LIST_EDITS = {
    "append": lambda x: x.append(1),
    "extend": lambda x: x.extend([1]),
    "insert": lambda x: x.insert(0, 1),
    "remove": lambda x: x.remove(1),
    "pop": lambda x: x.pop(),
    "clear": lambda x: x.clear(),
    "sort": lambda x: x.sort(),
    "reverse": lambda x: x.reverse(),
    "item assignment": lambda x: operator.setitem(x, 0, 1),
    "slice assignment": lambda x: operator.setitem(x, slice(0, 0), [1]),
    "item deletion": lambda x: operator.delitem(x, 0),
    "slice deletion": lambda x: operator.delitem(x, slice(None)),
    "+=": lambda x: operator.iadd(x, [1]),
    "*=": lambda x: operator.imul(x, 2),
}
DICT_EDITS = {
    "item assignment": lambda d: operator.setitem(d, "k", 1),
    "item deletion": lambda d: operator.delitem(d, "k"),
    "pop": lambda d: d.pop("k", None),
    "popitem": lambda d: d.popitem(),
    "clear": lambda d: d.clear(),
    "update": lambda d: d.update(k=1),
    "setdefault": lambda d: d.setdefault("k", 1),
    "|=": lambda d: operator.ior(d, {"k": 1}),
}


@pytest.mark.parametrize("empty, edit", [(EMPTY_LIST, e) for e in LIST_EDITS.values()]
                         + [(EMPTY_DICT, e) for e in DICT_EDITS.values()],
                         ids=[f"list {e}" for e in LIST_EDITS] + [f"dict {e}" for e in DICT_EDITS])
def test_a_shared_empty_refuses_every_edit(empty, edit):
    kind = type(empty).__base__
    with pytest.raises(TypeError, match=f"^a shared empty {kind.__name__} is never edited: build a new one$"):
        edit(empty)
    assert empty == kind()


def test_a_shared_empty_reads_as_an_empty_list_or_dict():
    assert EMPTY_LIST == [] and isinstance(EMPTY_LIST, list) and not EMPTY_LIST
    assert EMPTY_DICT == {} and isinstance(EMPTY_DICT, dict) and not EMPTY_DICT
    editable, table = list(EMPTY_LIST), dict(EMPTY_DICT)
    editable.append(1)
    table["k"] = 1
    assert (editable, table, EMPTY_LIST, EMPTY_DICT) == ([1], {"k": 1}, [], {})


def test_no_field_default_is_a_list_or_dict_instance():
    """Before Python 3.11 a dataclass refuses such a default when the class
    is made, so the package would not import there: the records take the
    shared empties through a default_factory."""
    for record in (MrpNode, MrpEdge, MrpGraph, SeqNode):
        assert not [f.name for f in dataclasses.fields(record) if isinstance(f.default, (list, dict, set))]
    node, edge, seq = MrpNode(0), MrpEdge(0, 1), SeqNode("a", 0)
    assert node.properties is EMPTY_LIST and node.extras is EMPTY_DICT and seq.properties is EMPTY_LIST
    assert edge.attributes is EMPTY_LIST and edge.extras is EMPTY_DICT


def test_parse_and_the_inverse_chain_share_the_empties():
    line = ('{"id":"s","framework":"amr","input":"","tops":[0],"nodes":[{"id":0,"label":"a"},'
            '{"id":1,"label":"b","properties":["p"],"values":["v"]},{"id":2,"label":"c","x":1}],'
            '"edges":[{"source":0,"target":1,"label":"A"},{"source":0,"target":2,"label":"B"},'
            '{"source":1,"target":2,"label":"C","attributes":["r"],"values":[true],"y":2}]}')
    g = parse_mrp(line)
    assert [(n.properties is EMPTY_LIST, n.extras is EMPTY_DICT) for n in g.nodes] == [
        (True, True), (False, True), (True, False)]
    assert [(e.attributes is EMPTY_LIST, e.extras is EMPTY_DICT) for e in g.edges] == [
        (True, True), (True, True), (False, False)]
    seq = graph_to_tree(parse_mrp(line.replace(',"x":1', "").replace(',"attributes":["r"],"values":[true],"y":2', "")))
    assert [(n.node_id, n.idx, n.properties is EMPTY_LIST) for n in seq] == [
        (0, 0, True), (1, 1, False), (2, 2, True), (2, 2, True)]  # the copy of node 2 at position 3
    out = tree_to_graph(seq)
    assert [(n.properties is EMPTY_LIST, n.extras is EMPTY_DICT) for n in out.nodes] == [
        (True, True), (False, True), (True, True)]
    assert all(e.attributes is EMPTY_LIST and e.extras is EMPTY_DICT for e in out.edges)


def bare_graph():
    """A graph whose records hold only shared empties."""
    return MrpGraph("b", "amr", "ab", [0], [MrpNode(0, "a", anchors=[(0, 1)]), MrpNode(1, "b")], [MrpEdge(0, 1, "A")])


@pytest.mark.parametrize("part", sorted(MUTATIONS))
def test_a_copy_of_records_that_share_the_empties_may_be_edited(part):
    g = bare_graph()
    before = serialize_mrp(g)
    c = g.copy()
    MUTATIONS[part](c)
    assert c != g
    assert serialize_mrp(g) == before
    assert EMPTY_LIST == [] and EMPTY_DICT == {}
