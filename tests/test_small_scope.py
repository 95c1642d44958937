"""Every graph up to a small scope, run through an inverse pair: each one
round-trips exactly or raises a named, typed error (the small-scope
hypothesis: most defects show on some small input).

The record pair `parse_mrp`/`serialize_mrp` is enumerated over input "ab":
at most two nodes with ids from NODE_IDS, each with an anchor from
ANCHORS; at most one edge with endpoints from ENDPOINTS; and tops from
every subset of ENDPOINTS.

The UCCA pair `ucca_mark_implicit`/`ucca_strip_implicit` is enumerated over
node labels: None and every string of up to MAX_LABEL characters from
LABEL_CHARS, each alone and under an unlabeled top. The edge-label pair
`encode_edge_label`/`decode_edge_label` is enumerated over the labels
EDGE_LABELS and up to MAX_ATTRIBUTES attributes, each a name from
ATTRIBUTE_NAMES with a value from ATTRIBUTE_VALUES."""

import itertools
from collections import Counter

from test_mrp import reference_serialize

from mrparse import mrp
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode
from mrparse.prep.ucca import (UccaError, decode_edge_label, encode_edge_label, ucca_mark_implicit,
                               ucca_strip_implicit)

INPUT = "ab"
NODE_IDS = (0, 1)
MAX_NODES = 2
ENDPOINTS = (0, 1, 2)
ANCHORS = (None, (0, 1), (1, 0), (0, 3), (-1, 1))
REPORTED_ONLY = ("DuplicateProperty", "SelfLoop")

LABEL_CHARS = "n_1a"
MAX_LABEL = 5
EDGE_LABELS = (None, "", "A", "⊕", "=")
ATTRIBUTE_NAMES = ("", "⊕", "=", "a")
ATTRIBUTE_VALUES = (True, False, 1, "x")
MAX_ATTRIBUTES = 2


def record_graphs():
    node_lists = [[MrpNode(i, "a", [], None if a is None else [a]) for i, a in zip(ids, anchors)]
                  for k in range(MAX_NODES + 1)
                  for ids in itertools.product(NODE_IDS, repeat=k)
                  for anchors in itertools.product(ANCHORS, repeat=k)]
    edge_lists = [[]] + [[MrpEdge(s, t, "L")] for s, t in itertools.product(ENDPOINTS, repeat=2)]
    top_sets = [list(c) for k in range(len(ENDPOINTS) + 1) for c in itertools.combinations(ENDPOINTS, k)]
    for nodes, edges, tops in itertools.product(node_lists, edge_lists, top_sets):
        yield MrpGraph("s", "amr", INPUT, tops, nodes, edges)


def keeps_contract(g):
    """The contract's structural rules, checked here without `mrp`."""
    ids = [n.id for n in g.nodes]
    ends = [x for e in g.edges for x in (e.source, e.target)]
    pieces = [p for n in g.nodes for p in n.anchors or ()]
    return (len(set(ids)) == len(ids) and set(ends + g.tops) <= set(ids)
            and all(0 <= f <= t <= len(g.input) for f, t in pieces))


def outcome(call, arg):
    """call(arg)'s value, or the class and message of the MrpError it raises."""
    try:
        return call(arg)
    except mrp.MrpError as e:
        return type(e), str(e)


def test_record_pair_round_trips_or_refuses_alike():
    """Tallied by the first refused rule that `validate_graph` reports,
    whose message the error carries."""
    tally = Counter()
    for g in record_graphs():
        line = reference_serialize(g)
        read, written = outcome(mrp.parse_mrp, line), outcome(mrp.serialize_mrp, g)
        if keeps_contract(g):
            assert (written, read) == (line, g)
            tally["exact"] += 1
        else:
            first = next(v for v in mrp.validate_graph(g) if v.code not in REPORTED_ONLY)
            assert written == read == (mrp.MrpValidationError, f"graph s: {first.message}"), g
            tally[first.code] += 1
    assert tally == {"exact": 177, "AnchorOutOfBounds": 4160, "InvertedAnchor": 2080, "DuplicateNodeId": 1600,
                     "DanglingEdge": 648, "DanglingTop": 215}


def ucca_graphs():
    labels = [None] + ["".join(p) for k in range(MAX_LABEL + 1) for p in itertools.product(LABEL_CHARS, repeat=k)]
    for label in labels:
        yield MrpGraph("u", "ucca", "", [0], [MrpNode(0, label)])
        yield MrpGraph("u", "ucca", "", [0], [MrpNode(0), MrpNode(1, label)], [MrpEdge(0, 1, "A")])


def test_ucca_implicit_pair_round_trips():
    """Neither direction refuses a label, so every case is exact."""
    count = 0
    for g in ucca_graphs():
        marked = ucca_mark_implicit(g)
        assert all(n.label is not None for n in marked.nodes), g
        assert ucca_strip_implicit(marked) == g, g
        count += 1
    assert count == 2732


def strict(pairs):
    """Attributes compared with their values' types: True == 1 in Python."""
    return [(name, type(value), value) for name, value in pairs]


def test_edge_label_pair_round_trips_or_refuses():
    """Exact means the label back and the attributes back in the order
    encode_edge_label writes them, sorted by name."""
    attributes = list(itertools.product(ATTRIBUTE_NAMES, ATTRIBUTE_VALUES))
    tally = Counter()
    for label in EDGE_LABELS:
        for k in range(MAX_ATTRIBUTES + 1):
            for attrs in itertools.product(attributes, repeat=k):
                try:
                    text = encode_edge_label(label, list(attrs))
                except UccaError:
                    tally["UccaError"] += 1
                    continue
                back_label, back = decode_edge_label(text)
                assert (back_label, strict(back)) == (label, strict(sorted(attrs, key=lambda p: p[0]))), \
                    (label, attrs, text)
                tally["exact"] += 1
    assert tally == {"exact": 293, "UccaError": 1072}
