import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import covering, sentence

from mrparse.companion import CompanionSentence, Token
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode, serialize_mrp
from mrparse.prep.anchors import AnchorError, anchors_to_spans, covering_run, spans_to_anchors
from mrparse.prep.eds import _range
from mrparse.prep.ucca import (UccaError, decode_edge_label, decode_graph_attrs, encode_edge_label,
                               encode_graph_attrs, ucca_mark_implicit, ucca_strip_implicit)
from mrparse.treeify import graph_to_tree


class TestAnchors:
    def test_single_token_anchor(self):
        g = MrpGraph(id="1", framework="eds", input="Pierre naps",
                     nodes=[MrpNode(0, "named", anchors=[(0, 6)])])
        out, flagged = anchors_to_spans(g, sentence("Pierre naps"))
        assert out.nodes[0].anchors == [(0, 0)]
        assert flagged == []

    def test_multi_token_anchor_roundtrip(self):
        s = sentence("a bb ccc dddd e")
        g = MrpGraph(id="1", framework="eds", input=s.text(),
                     nodes=[MrpNode(0, "x", anchors=[(s.tokens[2].start, s.tokens[4].end)])])
        out, flagged = anchors_to_spans(g, s)
        assert out.nodes[0].anchors == [(2, 4)]
        assert flagged == []
        back = spans_to_anchors(out, s)
        assert back.nodes[0].anchors == [(s.tokens[2].start, s.tokens[4].end)]

    def test_mid_token_anchor_snaps_and_flags(self):
        g = MrpGraph(id="1", framework="eds", input="Pierre naps",
                     nodes=[MrpNode(7, "x", anchors=[(0, 3)])])
        out, flagged = anchors_to_spans(g, sentence("Pierre naps"))
        assert out.nodes[0].anchors == [(0, 0)]
        assert flagged == [7]

    def test_unanchored_nodes_pass_through(self):
        g = MrpGraph(id="1", framework="ucca", input="hi",
                     nodes=[MrpNode(0, None)])
        out, flagged = anchors_to_spans(g, sentence("hi"))
        assert out.nodes[0].anchors is None and flagged == []

    def test_uncovered_range_is_error(self):
        g = MrpGraph(id="1", framework="eds", input="ab",
                     nodes=[MrpNode(0, "x", anchors=[(10, 12)])])
        with pytest.raises(AnchorError):
            anchors_to_spans(g, sentence("ab"))

    def test_span_out_of_range_is_error(self):
        g = MrpGraph(id="1", framework="eds", input="ab",
                     nodes=[MrpNode(0, "x", anchors=[(0, 5)])])
        with pytest.raises(AnchorError):
            spans_to_anchors(g, sentence("ab"))

    def test_anchor_errors_name_graph_and_node(self):
        g = MrpGraph(id="9", framework="eds", input="ab  ",
                     nodes=[MrpNode(0, "x", anchors=[(0, 2)]), MrpNode(4, "y", anchors=[(3, 4)])])
        with pytest.raises(AnchorError, match=r"^graph 9: node 4: character range \(3,4\) covers no token$"):
            anchors_to_spans(g, sentence("ab"))
        g.nodes[0].anchors, g.nodes[1].anchors = [(0, 0)], [(0, 1)]
        with pytest.raises(AnchorError, match=r"^graph 9: node 4: token span \(0,1\) outside sentence of 1 tokens$"):
            spans_to_anchors(g, sentence("ab"))

    @pytest.mark.parametrize("pieces, spans", [
        ([(0, 2), (6, 8)], [(0, 0), (2, 2)]),
        ([(0, 2), (3, 5)], [(0, 0), (1, 1)]),
        ([(6, 8), (0, 2)], [(2, 2), (0, 0)]),
    ])
    def test_each_anchor_piece_maps_to_its_own_span_and_back(self, pieces, spans):
        s = sentence("ab cd ef")
        g = MrpGraph(id="1", framework="ucca", input=s.text(), nodes=[MrpNode(0, None, anchors=pieces)])
        out, flagged = anchors_to_spans(g, s)
        assert out.nodes[0].anchors == spans and flagged == []
        assert spans_to_anchors(out, s).nodes[0].anchors == pieces

    def test_empty_anchor_list_passes_through(self):
        g = MrpGraph(id="1", framework="eds", input="hi",
                     nodes=[MrpNode(0, "x", anchors=[]), MrpNode(1, "y", anchors=[(0, 2)])])
        out, flagged = anchors_to_spans(g, sentence("hi"))
        assert [n.anchors for n in out.nodes] == [[], [(0, 0)]] and flagged == []
        assert spans_to_anchors(out, sentence("hi")) == g


@st.composite
def token_layouts(draw, min_width=0):
    """A sentence whose tokens have gaps of 0-3 characters between them and
    widths from min_width to 4 (zero-width tokens when min_width is 0)."""
    toks, pos = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 10))):
        width = draw(st.integers(min_width, 4))
        toks.append(Token("x" * width, "x", "XX", pos, pos + width))
        pos += width + draw(st.integers(0, 3))
    return CompanionSentence(tokens=toks), pos + 3


@st.composite
def anchored(draw):
    """(sentence, graph): nodes anchored nowhere, on an empty list, or on
    1-3 arbitrary pieces that may cut through tokens, fall in gaps, lie
    outside the text or be inverted."""
    s, length = draw(token_layouts())
    piece = st.tuples(st.integers(0, length), st.integers(0, length))
    anchors = st.none() | st.just([]) | st.lists(piece, min_size=1, max_size=3)
    nodes = [MrpNode(i, "n", anchors=a) for i, a in enumerate(draw(st.lists(anchors, max_size=5)))]
    return s, MrpGraph(id="p", framework="eds", input=s.text(), nodes=nodes)


@given(anchored())
def test_anchors_to_spans_matches_linear_scan(case):
    s, g = case
    extents = [(t.start, t.end) for t in s.tokens]
    want, want_flagged = [], []
    for n in g.nodes:
        if not n.anchors:
            want.append(n.anchors)
            continue
        runs = [covering(piece, extents) for piece in n.anchors]
        if None in runs:
            lo, hi = n.anchors[runs.index(None)]
            with pytest.raises(AnchorError, match=re.escape(f"character range ({lo},{hi}) covers no token")):
                anchors_to_spans(g, s)
            return
        want.append([span for span, _ in runs])
        if not all(exact for _, exact in runs):
            want_flagged.append(n.id)
    out, flagged = anchors_to_spans(g, s)
    assert [n.anchors for n in out.nodes] == want
    assert flagged == want_flagged


@pytest.mark.parametrize("piece", [(0, 0), (3, 5), [3, 5]])
def test_range_of_one_piece_is_its_min_max_form(piece):
    assert _range([piece]) == (min(f for f, _ in [piece]), max(t for _, t in [piece]))


def _node_token_span(node, tokens):
    """Reference: the scan build_multiword_table used before covering_run.
    The tokens lying inside the node's range, as (first, last), when they
    start and end exactly on it; None otherwise."""
    if not node.anchors:
        return None
    lo, hi = _range(node.anchors)
    covered = [i for i, t in enumerate(tokens) if t.start >= lo and t.end <= hi]
    if not covered:
        return None
    if tokens[covered[0]].start != lo or tokens[covered[-1]].end != hi:
        return None
    return covered[0], covered[-1]


@st.composite
def near_token_boundaries(draw):
    """(sentence, nodes): tokens of width >= 1, and nodes anchored on 1-2
    pieces that start on a token start or anywhere and end on a token end
    or anywhere, so that many ranges fit a token run exactly."""
    s, length = draw(token_layouts(min_width=1))
    anywhere = st.integers(0, length)
    lo = anywhere | st.sampled_from([t.start for t in s.tokens]) if s.tokens else anywhere
    hi = anywhere | st.sampled_from([t.end for t in s.tokens]) if s.tokens else anywhere
    pieces = st.lists(st.tuples(lo, hi), min_size=1, max_size=2)
    return s, [MrpNode(i, "n", anchors=a) for i, a in enumerate(draw(st.lists(pieces, max_size=8)))]


@given(near_token_boundaries())
def test_exact_covering_run_matches_inside_scan(case):
    s, nodes = case
    starts, ends = [t.start for t in s.tokens], [t.end for t in s.tokens]
    for n in nodes:
        first, last, exact = covering_run(starts, ends, *_range(n.anchors))
        assert ((first, last) if exact else None) == _node_token_span(n, s.tokens)


@st.composite
def on_token_boundaries(draw):
    """(sentence, graph): every anchor is one piece from the start of a
    token to the end of the same or a later one. Tokens have width >= 1:
    a zero-width token overlaps no character range, so no anchor maps to
    it."""
    s, _ = draw(token_layouts(min_width=1))
    n_tok = len(s.tokens)
    index = st.integers(0, n_tok - 1) if n_tok else st.nothing()
    runs = st.tuples(index, index).map(sorted)
    anchors = [None if run is None else [(s.tokens[run[0]].start, s.tokens[run[1]].end)]
               for run in draw(st.lists(st.none() | runs, max_size=6))]
    return s, MrpGraph(id="b", framework="eds", input=s.text(),
                       nodes=[MrpNode(i, "n", anchors=a) for i, a in enumerate(anchors)])


@given(on_token_boundaries())
def test_spans_to_anchors_inverts_anchors_to_spans_on_token_boundaries(case):
    s, g = case
    spans, flagged = anchors_to_spans(g, s)
    assert flagged == []
    assert serialize_mrp(spans_to_anchors(spans, s)) == serialize_mrp(g)


def ucca_graph(labels, edges=(), tops=(0,)):
    return MrpGraph(id="u", framework="ucca", input="",
                    tops=list(tops),
                    nodes=[MrpNode(i, lab) for i, lab in enumerate(labels)],
                    edges=[MrpEdge(s, t, lab) for s, t, lab in edges])


class TestImplicitLabels:
    def test_two_unlabeled_nodes_numbered_in_sequence_order(self):
        # root(0, labeled) -> 1 (unlabeled), 1 -> 2 (labeled), root -> 3 (unlabeled)
        g = ucca_graph(["root", None, "zz", None],
                       edges=[(0, 1, "A"), (1, 2, "C"), (0, 3, "P")])
        out = ucca_mark_implicit(g)
        by_id = out.node_by_id()
        assert by_id[1].label == "n_0"
        assert by_id[3].label == "n_1"

    def test_no_unlabeled_nodes_unchanged(self):
        g = ucca_graph(["a", "b"], edges=[(0, 1, "A")])
        assert ucca_mark_implicit(g) == g

    def test_strip_mark_roundtrip(self):
        g = ucca_graph([None, "n_3", None, "ok"],
                       edges=[(0, 1, "A"), (0, 2, "B"), (2, 3, "C")])
        out = ucca_strip_implicit(ucca_mark_implicit(g))
        assert out == g

    def test_collision_with_genuine_label_escaped(self):
        g = ucca_graph(["n_3", None], edges=[(0, 1, "A")])
        marked = ucca_mark_implicit(g)
        labels = {n.id: n.label for n in marked.nodes}
        assert labels[0] == "n__3"
        assert labels[1] == "n_0"
        assert ucca_strip_implicit(marked) == g


def test_numbers_follow_the_walk_of_the_unmarked_graph():
    # x -> {1, a -> 3}: unmarked, 1 (None) sorts before a, so 1 is n_0 and 3 is n_1;
    # marked, a sorts before n_0, so the sequence meets n_1 first
    g = ucca_graph(["x", None, "a", None], edges=[(0, 1, "A"), (0, 2, "A"), (2, 3, "A")])
    assert [n.label for n in graph_to_tree(ucca_mark_implicit(g))] == ["x", "a", "n_1", "n_0"]


def test_unlabeled_nodes_are_numbered_in_node_sequence_order():
    """With every node unlabeled, as in UCCA, n_i is the i-th node the
    marked graph's sequence meets. Random rooted graphs with ids out of
    order, reentrancies and cycles."""
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 8)
        ids = rng.sample(range(2 * n), n)
        edges = [(ids[rng.randrange(k)], ids[k], "A") for k in range(1, n)]  # every node reachable
        edges += [(rng.choice(ids), rng.choice(ids), "B") for _ in range(rng.randint(0, n))]
        rng.shuffle(edges)
        g = MrpGraph(id="u", framework="ucca", input="", tops=[ids[0]] + rng.sample(ids[1:], rng.randint(0, n - 1)),
                     nodes=[MrpNode(i, None) for i in ids], edges=[MrpEdge(s, t, lab) for s, t, lab in edges])
        labels = [sn.label for sn in graph_to_tree(ucca_mark_implicit(g))]
        assert list(dict.fromkeys(labels)) == [f"n_{i}" for i in range(n)], g


@st.composite
def ucca_trees(draw, labels):
    """Trees rooted at node 0 with node labels drawn from `labels`."""
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, t - 1)), t, "A") for t in range(1, n)]
    return ucca_graph([draw(labels) for _ in range(n)], edges)


RESERVED_SHAPED = st.none() | st.builds(lambda u, k: f"n{u}{k}", st.sampled_from(["_", "__", "___"]),
                                        st.integers(0, 12)) | st.sampled_from(["n", "n3", "n_x", "m_1", "word"])


@given(ucca_trees(RESERVED_SHAPED))
def test_strip_implicit_inverts_mark_implicit(g):
    assert ucca_strip_implicit(ucca_mark_implicit(g)) == g


ATTR_NAMES = st.text(max_size=4).filter(lambda name: "=" not in name and not name.startswith("⊕"))
ATTR_VALUES = st.booleans() | st.none() | st.integers() | st.text(max_size=4)


@given(ucca_trees(st.just("x")), st.data())
def test_decode_graph_attrs_inverts_encode_graph_attrs(g, data):
    for e in g.edges:
        e.label = data.draw(st.none() | st.text(max_size=4))
        if e.label is not None:  # attributes need a label to carry them
            attrs = data.draw(st.lists(st.tuples(ATTR_NAMES, ATTR_VALUES), max_size=3))
            e.attributes = sorted(attrs, key=lambda p: p[0])  # the order encode_edge_label writes
    assert decode_graph_attrs(encode_graph_attrs(g)) == g


class TestEdgeAttrCodec:
    def test_remote_roundtrip(self):
        s = encode_edge_label("A", [("remote", True)])
        assert s == "A⊕remote"
        assert decode_edge_label(s) == ("A", [("remote", True)])

    def test_plain_label(self):
        assert encode_edge_label("A", []) == "A"
        assert decode_edge_label("A") == ("A", [])

    def test_separator_in_label_escaped(self):
        label = "A⊕B"
        s = encode_edge_label(label, [("remote", True)])
        assert decode_edge_label(s) == (label, [("remote", True)])

    def test_value_attributes(self):
        s = encode_edge_label("E", [("kind", "x")])
        assert decode_edge_label(s) == ("E", [("kind", "x")])

    def test_bijection_over_alphabet(self):
        labels = ["A", "P", "A⊕", "⊕⊕", "E=F", ""]
        attr_sets = [[], [("remote", True)], [("remote", True), ("kind", "q")],
                     [("remote", False)], [("kind", "True")], [("n", 2), ("x", None)],
                     [("kind", "⊕=q⊕")], [("x⊕", True)], [("", True)], [("", True), ("b", 1)]]
        seen = {}
        for lab in labels:
            for attrs in attr_sets:
                enc = encode_edge_label(lab, attrs)
                key = (lab, tuple(sorted(attrs)))
                dec_lab, dec_attrs = decode_edge_label(enc)
                assert (dec_lab, tuple(sorted(dec_attrs))) == key
                assert enc not in seen or seen[enc] == key
                seen[enc] = key
            for name in ("⊕x", "a=b"):
                with pytest.raises(ValueError):
                    encode_edge_label(lab, [(name, True)])

    def test_empty_and_missing_label_roundtrip_apart(self):
        g = ucca_graph(["a", "b", "c"], edges=[(0, 1, ""), (0, 2, None)])
        enc = encode_graph_attrs(g)
        assert [e.label for e in enc.edges] == ["", None]
        assert decode_graph_attrs(enc) == g

    def test_attributes_without_label_name_graph_and_edge(self):
        g = ucca_graph(["a", "b"], edges=[(0, 1, None)])
        g.edges[0].attributes = [("remote", True)]
        with pytest.raises(UccaError, match="^graph u: edge 0 -> 1: attributes on an edge without a label$"):
            encode_graph_attrs(g)

    def test_undecodable_value_names_graph_and_edge(self):
        g = ucca_graph(["a", "b"], edges=[(0, 1, "A⊕x=notjson")])
        with pytest.raises(UccaError, match="^graph u: edge 0 -> 1: attribute 'x': value 'notjson' is not JSON$"):
            decode_graph_attrs(g)

    def test_graph_level_roundtrip(self):
        g = ucca_graph(["a", "b", "c"],
                       edges=[(0, 1, "A"), (0, 2, "F")])
        g.edges[0].attributes = [("remote", True)]
        enc = encode_graph_attrs(g)
        assert enc.edges[0].label == "A⊕remote"
        assert enc.edges[0].attributes == []
        assert decode_graph_attrs(enc) == g
