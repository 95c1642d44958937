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
ATTRIBUTE_NAMES with a value from ATTRIBUTE_VALUES.

The treeify pair `graph_to_tree`/`tree_to_graph` is enumerated over every
graph of 1 to MAX_TREE_NODES nodes with labels from TREE_LABELS, any set of
TREE_EDGE_LABEL edges (self-loops included) and every non-empty top set,
with node ids kept and with them cleared.

The anchor pair `anchors_to_spans`/`spans_to_anchors` is enumerated over
every sentence of up to MAX_TOKENS tokens of width >= 1 laid out over
TEXT_LENGTH characters, and every anchor on it of one piece (lo, hi) with
0 <= lo < hi <= TEXT_LENGTH, or of two such pieces in order that do not
overlap. On the same layouts, and on those with zero-width tokens too,
`exact_runs` gives the runs that `covering_run` gives as exact, and None
for every other range (lo, hi) over the text.

The AMR entity pair `amr_preprocess`/`amr_postprocess` is enumerated over
every entity pattern: a `person` top with a `name` node and one or two op
leaves, edge labels from AMR_OPS, or a `date-entity` top with one or two
fields from AMR_FIELDS. Each takes at most one decoration: a leaf anchored
`[]` or on its word, leaf extras, an attribute or extras on one collapsed
edge, a property on the `name` node, a collapsed node as a second top, or
a bystander parent labelled PERSON_0 or DATE_0. The sentence is the leaves' words, all tagged with the
entity's tag or all `O`, and the tables are fit on the graph itself."""

import itertools
from collections import Counter

from helpers import covering, same_up_to_ids, sentence
from test_mrp import reference_serialize
from test_treeify import clear_node_ids

from mrparse import mrp
from mrparse.companion import CompanionSentence, Token
from mrparse.mrp import MrpEdge, MrpGraph, MrpNode
from mrparse.prep.amr import AmrTables, amr_postprocess, amr_preprocess
from mrparse.prep.anchors import AnchorError, anchors_to_spans, covering_run, exact_runs, spans_to_anchors
from mrparse.prep.ucca import (UccaError, decode_edge_label, encode_edge_label, ucca_mark_implicit,
                               ucca_strip_implicit)
from mrparse.treeify import TreeError, graph_to_tree, natural_key, tree_to_graph

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

MAX_TREE_NODES = 3
TREE_LABELS = ("a", "b")
TREE_EDGE_LABEL = "L"

MAX_TOKENS = 3
TEXT_LENGTH = 7

AMR_OPS = ("op1", "op2", "op3", "op01")
AMR_NAMES = ("Ann", "Bo")
AMR_FIELDS = {"day": "3", "month": "5", "year": "1999"}


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
            code, message = next(v for v in mrp.validate_graph(g) if v[0] not in REPORTED_ONLY)
            assert written == read == (mrp.MrpValidationError, f"graph s: {message}"), g
            tally[code] += 1
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


def tree_graphs():
    for k in range(1, MAX_TREE_NODES + 1):
        pairs = list(itertools.product(range(k), repeat=2))
        top_sets = [list(c) for r in range(1, k + 1) for c in itertools.combinations(range(k), r)]
        for labels in itertools.product(TREE_LABELS, repeat=k):
            nodes = [MrpNode(i, label) for i, label in enumerate(labels)]
            for edge_set in itertools.product((False, True), repeat=len(pairs)):
                edges = [MrpEdge(s, t, TREE_EDGE_LABEL) for (s, t), on in zip(pairs, edge_set) if on]
                for tops in top_sets:
                    yield MrpGraph("t", "amr", "", tops, nodes, edges)


def shape(g, rename=None):
    """Nodes, edges and tops of g as sorted lists, with ids renamed."""
    r = rename or {n.id: n.id for n in g.nodes}
    return (sorted((r[n.id], n.label) for n in g.nodes), sorted((r[e.source], r[e.target], e.label) for e in g.edges),
            sorted(r[t] for t in g.tops))


def test_treeify_pair_round_trips_or_refuses():
    """Exact with node ids kept; with them cleared, exact up to the ids."""
    tally = Counter()
    for g in tree_graphs():
        try:
            seq = graph_to_tree(g)
        except TreeError as e:
            assert str(e).startswith("graph t: "), (g, e)
            tally["TreeError"] += 1
            continue
        want = shape(g)
        assert shape(tree_to_graph(seq)) == want, g
        # cleared, tree_to_graph numbers the nodes in the order of their first positions
        first = [n.node_id for t, n in enumerate(seq) if n.idx == t]
        assert shape(tree_to_graph(clear_node_ids(seq)), dict(enumerate(first))) == want, g
        tally["exact"] += 1
    assert tally == {"exact": 19588, "TreeError": 9280}


def token_layouts(start=0, k=MAX_TOKENS, min_width=1):
    """Every list of up to k (start, end) token extents of width >=
    min_width in [start, TEXT_LENGTH], in order, apart or touching."""
    yield []
    if k:
        for s in range(start, TEXT_LENGTH + 1 - min_width):
            for e in range(s + min_width, TEXT_LENGTH + 1):
                for rest in token_layouts(e, k - 1, min_width):
                    yield [(s, e)] + rest


def test_anchor_pair_round_trips_snaps_or_refuses():
    """Each piece maps to the token run it overlaps: exact when every piece
    is a run's extent; else the runs' extents back, with the node flagged;
    AnchorError naming the first piece that overlaps no token. The
    mappable anchors of a layout run as the nodes of one graph."""
    pieces = [(lo, hi) for lo in range(TEXT_LENGTH) for hi in range(lo + 1, TEXT_LENGTH + 1)]
    anchors = [[p] for p in pieces] + [[p, q] for p, q in itertools.product(pieces, repeat=2) if p[1] <= q[0]]
    tally = Counter()
    for extents in token_layouts():
        sent = CompanionSentence([Token("x" * (e - s), "x", "X", s, e) for s, e in extents])
        runs = {p: covering(p, extents) for p in pieces}
        mapped = []
        for a in anchors:
            missing = [p for p in a if runs[p] is None]
            if not missing:
                mapped.append(a)
                continue
            try:
                anchors_to_spans(MrpGraph("c", "ucca", "x" * TEXT_LENGTH, [], [MrpNode(0, None, [], a)]), sent)
            except AnchorError as e:
                assert str(e) == "graph c: node 0: character range ({},{}) covers no token".format(*missing[0])
            else:
                raise AssertionError(f"{a} on {extents}: no AnchorError")
            tally["AnchorError"] += 1
        g = MrpGraph("c", "ucca", "x" * TEXT_LENGTH, [], [MrpNode(i, None, [], a) for i, a in enumerate(mapped)])
        spans, flagged = anchors_to_spans(g, sent)
        assert [n.anchors for n in spans.nodes] == [[runs[p][0] for p in a] for a in mapped], extents
        snapped = [i for i, a in enumerate(mapped) if not all(runs[p][1] for p in a)]
        assert flagged == snapped, extents
        extent = {p: (extents[run[0][0]][0], extents[run[0][1]][1]) for p, run in runs.items() if run}
        back = spans_to_anchors(spans, sent)
        assert [n.anchors for n in back.nodes] == [[extent[p] for p in a] for a in mapped], extents
        tally["snapped"] += len(snapped)
        tally["exact"] += len(mapped) - len(snapped)
    assert tally == {"exact": 2842, "snapped": 31920, "AnchorError": 21448}


def test_exact_runs_is_the_exact_case_of_covering_run():
    """On every layout of the anchor enumerator, and on every layout with
    zero-width tokens too, for every range (lo, hi) over the text, empty
    and inverted ones included."""
    ranges = list(itertools.product(range(TEXT_LENGTH + 1), repeat=2))
    tally = Counter()
    for min_width in (1, 0):
        for extents in token_layouts(min_width=min_width):
            run = exact_runs([Token("x", "x", "X", s, e) for s, e in extents])
            starts, ends = [s for s, _ in extents], [e for _, e in extents]
            for lo, hi in ranges:
                s, e, exact = covering_run(starts, ends, lo, hi)
                assert run(lo, hi) == ((s, e) if exact else None), (extents, lo, hi)
                tally[min_width, exact] += 1
    assert tally == {(1, True): 1666, (1, False): 21694, (0, True): 4732, (0, False): 128580}


def amr_patterns():
    """(entity graph over its words, its tag, its words) per pattern;
    leaves come last, in natural_key order of their edge labels."""
    for k in (1, 2):
        for ops in itertools.combinations(AMR_OPS, k):
            words = list(AMR_NAMES[:k])
            nodes = [MrpNode(0, "person"), MrpNode(1, "name")] + [MrpNode(2 + i, w) for i, w in enumerate(words)]
            edges = [MrpEdge(0, 1, "name")] + [MrpEdge(1, 2 + i, op)
                                               for i, op in enumerate(sorted(ops, key=natural_key))]
            yield MrpGraph("m", "amr", " ".join(words), [0], nodes, edges), "PER", words
        for fields in itertools.combinations(AMR_FIELDS, k):
            words = [AMR_FIELDS[f] for f in fields]
            nodes = [MrpNode(0, "date-entity")] + [MrpNode(1 + i, w) for i, w in enumerate(words)]
            edges = [MrpEdge(0, 1 + i, f) for i, f in enumerate(fields)]
            yield MrpGraph("m", "amr", " ".join(words), [0], nodes, edges), "DATE", words


def _with(g, records, pos, field, value):
    """A copy of g whose node or edge (`records`) at pos has field set to value."""
    h = g.copy()
    setattr(getattr(h, records)[pos], field, value)
    return h


def decorated(g, sent):
    """g, then a copy of it per decoration, each carrying one."""
    yield g
    leaves = len(g.nodes) - len(sent.tokens)
    for pos, tok in enumerate(sent.tokens, start=leaves):
        for field, value in (("anchors", []), ("anchors", [(tok.start, tok.end)]), ("extras", {"x": 1})):
            yield _with(g, "nodes", pos, field, value)
    for pos in range(len(g.edges)):
        for field, value in (("attributes", [("remote", True)]), ("extras", {"x": 1})):
            yield _with(g, "edges", pos, field, value)
    if g.nodes[1].label == "name":
        yield _with(g, "nodes", 1, "properties", [("x", "1")])
    for pos in range(1, len(g.nodes)):  # each collapsed node
        h = g.derive()
        h.tops.append(g.nodes[pos].id)
        yield h
    for placeholder in ("PERSON_0", "DATE_0"):
        yield g.derive(g.nodes + [MrpNode(9, placeholder)], g.edges + [MrpEdge(9, 0, "ARG0")])


def test_amr_entity_pair_round_trips_up_to_ids():
    """Collapsed when the entry rebuilds the pattern; else left as it is."""
    tally = Counter()
    for pattern, tag, words in amr_patterns():
        for tags in ([tag] * len(words), ["O"] * len(words)):
            sent = sentence(words, tags=tags)
            for g in decorated(pattern, sent):
                tables = AmrTables()
                pre, _, entry = amr_preprocess(g, sent, tables, update=True)
                assert entry or pre == g, g
                assert same_up_to_ids(amr_postprocess(pre, entry, tables), g), g
                tally["collapsed" if entry else "left as it is"] += 1
    assert tally == {"collapsed": 32, "left as it is": 444}
