"""The copy contract: `MrpGraph.copy()` shares no mutable part with its
source, and every transform leaves the graph it is given unchanged."""

import pytest

from mrparse.companion import CompanionSentence, Token
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode, serialize_mrp
from mrparse.prep import (AmrTables, amr_postprocess, amr_preprocess, anchors_to_spans,
                          decode_graph_attrs, eds_exchange_properties, eds_reduce,
                          eds_restore, encode_graph_attrs, spans_to_anchors,
                          ucca_mark_implicit, ucca_strip_implicit)


def sent(text, tags=None):
    toks = []
    pos = 0
    for f in text.split(" "):
        toks.append(Token(f, f.lower(), "XX", pos, pos + len(f)))
        pos += len(f) + 1
    return CompanionSentence(tokens=toks, ner_tags=tags or [])


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


UCCA_SENT = sent("Pierre naps")
AMR_SENT = sent("Pierre visited", ["PER", "O"])
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
