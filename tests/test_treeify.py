"""Graph/tree conversion tests. Isomorphism checks use networkx as an
independent oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import same_up_to_ids

from mrparse.mrp import MrpEdge, MrpGraph, MrpNode, validate_graph
from mrparse.treeify import SeqNode, TreeError, graph_to_tree, natural_key, tree_to_graph, visit_order


def build(nodes, edges, tops, framework="amr"):
    return MrpGraph(
        id="t", framework=framework, input="",
        tops=tops,
        nodes=[MrpNode(i, label=lab) for i, lab in nodes],
        edges=[MrpEdge(s, t, lab) for s, t, lab in edges],
    )


def test_natural_key_ordering():
    assert natural_key("x2") < natural_key("x10")
    assert natural_key("a") < natural_key("b")
    assert natural_key(None) < natural_key("a")
    assert natural_key("n_2") < natural_key("n_11")


def test_natural_key_reads_only_decimal_digits_as_a_number():
    # "²" is a digit to str.isdigit but not to int(), so it sorts as text
    assert natural_key("x2²") == ((1, 0, "x"), (0, 2, ""), (1, 0, "²"))
    assert natural_key("٣") == ((0, 3, ""),)
    g = build([(0, "r"), (1, "²"), (2, "1")], [(0, 1, "e"), (0, 2, "e")], tops=[0])
    assert [n.label for n in graph_to_tree(g)] == ["r", "1", "²"]


def test_plain_tree_is_identity():
    g = build([(0, "a"), (1, "b"), (2, "c")], [(0, 1, "L"), (0, 2, "R")], tops=[0])
    seq = graph_to_tree(g)
    assert [n.label for n in seq] == ["a", "b", "c"]
    assert [n.idx for n in seq] == [0, 1, 2]


def test_diamond_duplicates_join_node():
    # a->b, a->c, b->d, c->d: d has two entrances, appears twice
    g = build([(0, "a"), (1, "b"), (2, "c"), (3, "d")],
              [(0, 1, "x"), (0, 2, "y"), (1, 3, "z"), (2, 3, "w")], tops=[0])
    seq = graph_to_tree(g)
    assert [n.label for n in seq] == ["a", "b", "d", "c", "d"]
    assert [n.idx for n in seq] == [0, 1, 2, 3, 2]


def test_two_parent_node_appears_twice():
    # want -> believe -> boy, want -> boy (control-verb style reentrancy)
    g = build([(0, "want"), (1, "believe"), (2, "boy")],
              [(0, 1, "ARG1"), (0, 2, "ARG0"), (1, 2, "ARG0")], tops=[0])
    seq = graph_to_tree(g)
    assert [n.label for n in seq].count("boy") == 2
    idxs = [n.idx for n in seq if n.label == "boy"]
    assert idxs[0] == idxs[1]


def test_children_sorted_alphanumerically():
    g = build([(0, "r"), (1, "x10"), (2, "x2")], [(0, 1, "e"), (0, 2, "e")], tops=[0])
    assert [n.label for n in graph_to_tree(g)] == ["r", "x2", "x10"]


def test_label_tie_broken_by_node_id():
    g = build([(0, "r"), (2, "same"), (1, "same")], [(0, 2, "b"), (0, 1, "a")], tops=[0])
    seq = graph_to_tree(g)
    assert [n.node_id for n in seq] == [0, 1, 2]


def test_cycle_becomes_copy_not_error():
    g = build([(0, "a"), (1, "b")], [(0, 1, "f"), (1, 0, "g")], tops=[0])
    seq = graph_to_tree(g)
    assert [n.label for n in seq] == ["a", "b", "a"]
    assert [n.idx for n in seq] == [0, 1, 0]


def test_disconnected_graph_lists_unreachable():
    g = build([(0, "a"), (1, "b"), (2, "c")], [], tops=[0])
    with pytest.raises(TreeError) as ei:
        graph_to_tree(g)
    assert "[1, 2]" in str(ei.value)


def clear_node_ids(seq):
    """A decoder's output: positions that name no graph node."""
    for n in seq:
        n.node_id = None
    return seq


def test_multiple_tops_are_parentless_positions():
    g = build([(0, "b"), (1, "a"), (2, "c")], [(0, 2, "L")], tops=[0, 1])
    seq = graph_to_tree(g)
    assert [(n.label, n.parent) for n in seq] == [("a", None), ("b", None), ("c", 1)]
    assert "<ROOT>" not in [n.label for n in seq]
    restored = tree_to_graph(seq)
    assert sorted(restored.tops) == [0, 1]
    assert same_up_to_ids(restored, g)


ROOT_LABELLED = [
    ([(0, "<ROOT>"), (1, "a")], [(0, 1, "L")], [0]),
    ([(0, "<ROOT>"), (1, "a"), (2, "b")], [(0, 1, "L"), (2, 1, "R")], [0, 2]),
]


@pytest.mark.parametrize("nodes, edges, tops", ROOT_LABELLED)
def test_real_node_labelled_root_survives_roundtrip(nodes, edges, tops):
    g = build(nodes, edges, tops)
    restored = tree_to_graph(graph_to_tree(g))
    assert sorted(restored.tops) == tops
    assert same_up_to_ids(restored, g)


@pytest.mark.parametrize("nodes, edges, tops", ROOT_LABELLED)
def test_real_node_labelled_root_survives_id_less_roundtrip(nodes, edges, tops):
    g = build(nodes, edges, tops)
    restored = tree_to_graph(clear_node_ids(graph_to_tree(g)))
    assert len(restored.tops) == len(tops)
    assert same_up_to_ids(restored, g)


def test_no_top_errors():
    g = build([(0, "a")], [], tops=[])
    with pytest.raises(TreeError):
        graph_to_tree(g)


def test_top_that_is_not_a_node_errors():
    g = build([(0, "a")], [], [5])
    with pytest.raises(TreeError, match=r"graph t: tops \[5\]"):
        graph_to_tree(g)


def test_repeated_node_id_errors_instead_of_dropping_a_node():
    g = build([(0, "a"), (0, "b")], [], [0])
    with pytest.raises(TreeError, match=r"graph t: node ids \[0\] repeated"):
        graph_to_tree(g)
    with pytest.raises(TreeError, match=r"graph t: node ids \[0\] repeated"):
        visit_order(g)


@pytest.mark.parametrize("node, edge, message", [
    ({"extras": {"note": 1}}, {}, "node 1 has extras"),
    ({}, {"attributes": [("remote", True)]}, "edge 0->1 has attributes"),
    ({}, {"extras": {"rank": 2}}, "edge 0->1 has extras"),
    ({"extras": {"note": 1}}, {"extras": {"rank": 2}}, "node 1 has extras"),
], ids=["node extras", "edge attributes", "edge extras", "node first"])
def test_graph_to_tree_refuses_what_a_tree_cannot_carry(node, edge, message):
    """Else tree_to_graph gives the graph back without them, and nothing
    says so. The graph's own extras stay the caller's, as its id does."""
    def graph(node, edge):
        g = MrpGraph("t", "amr", "", [0], [MrpNode(0, "a"), MrpNode(1, "b", **node)], [MrpEdge(0, 1, "A", **edge)])
        g.extras["flavor"] = 1
        return g

    graph_to_tree(graph({}, {}))
    with pytest.raises(TreeError, match=f"^graph t: {message}, which a tree does not carry$"):
        graph_to_tree(graph(node, edge))


def test_roundtrip_hands_on_the_lists_it_was_given():
    """Anchor pieces given as lists come back as lists, in the very lists
    that were given; a copy position carries no properties."""
    g = MrpGraph("t", "eds", "ab cd", [0],
                 [MrpNode(0, "a", [("p", "v")], [[0, 2], [3, 5]]), MrpNode(1, "b", [], None),
                  MrpNode(2, "c", [("q", 1)], [[3, 5]])],
                 [MrpEdge(0, 1, "L"), MrpEdge(1, 2, "S"), MrpEdge(0, 2, "R")])  # in tree order
    seq = graph_to_tree(g)
    assert [(n.node_id, n.idx) for n in seq] == [(0, 0), (1, 1), (2, 2), (2, 2)]
    assert [n.properties for n in seq[2:]] == [[("q", 1)], []]
    back = tree_to_graph(seq, "eds", "t", "ab cd")
    assert back == MrpGraph("t", "eds", "ab cd", [0], g.nodes, g.edges)
    assert back.nodes[0].anchors == [[0, 2], [3, 5]]
    assert all(b.anchors is n.anchors and b.properties is n.properties for b, n in zip(back.nodes, g.nodes))


def test_tree_to_graph_identity_sequence():
    seq = [
        SeqNode("a", 0),
        SeqNode("b", 1, parent=0, edge_label="L"),
        SeqNode("c", 2, parent=0, edge_label="R"),
    ]
    g = tree_to_graph(seq)
    assert len(g.nodes) == 3 and len(g.edges) == 2
    assert g.tops == [0]


def test_tree_to_graph_diamond_inverse():
    seq = [
        SeqNode("a", 0),
        SeqNode("b", 1, parent=0, edge_label="x"),
        SeqNode("d", 2, parent=1, edge_label="z"),
        SeqNode("c", 3, parent=0, edge_label="y"),
        SeqNode("d", 2, parent=3, edge_label="w"),
    ]
    g = tree_to_graph(seq)
    assert len(g.nodes) == 4
    assert len(g.edges) == 4
    diamond = build([(0, "a"), (1, "b"), (2, "c"), (3, "d")],
                    [(0, 1, "x"), (0, 2, "y"), (1, 3, "z"), (2, 3, "w")], tops=[0])
    assert same_up_to_ids(g, diamond)


def test_empty_sequence_is_error():
    with pytest.raises(TreeError, match="^graph g: empty sequence"):
        tree_to_graph([], graph_id="g")


def test_idx_forward_reference_is_error():
    seq = [SeqNode("a", 0), SeqNode("b", 2, parent=0)]
    with pytest.raises(TreeError, match="^graph g: position 1: idx 2"):
        tree_to_graph(seq, graph_id="g")


def test_idx_of_a_copy_is_error():
    # position 2 points at position 1, which is itself a copy of position 0
    seq = [SeqNode("a", 0), SeqNode("a", 0, parent=0), SeqNode("b", 1, parent=0)]
    with pytest.raises(TreeError, match="^graph g: position 2: idx 1 does not point at an original node$"):
        tree_to_graph(seq, graph_id="g")


@pytest.mark.parametrize("idx, parent", [(1, -1), (1, -2), (-1, 0)],
                         ids=["parent -1", "parent -2", "idx -1"])
def test_negative_position_is_error(idx, parent):
    # read as Python indices from the end, parent -1 would be the node
    # itself (a self-loop) and parent -2 position 0 (a plausible edge)
    seq = [SeqNode("a", 0), SeqNode("b", idx, parent=parent)]
    with pytest.raises(TreeError, match="^graph g: position 1"):
        tree_to_graph(seq, graph_id="g")


def test_parentless_positions_are_tops():
    seq = [SeqNode("a", 0), SeqNode("b", 1)]
    g = tree_to_graph(seq)
    assert g.tops == [0, 1] and g.edges == []
    back = graph_to_tree(g)
    assert [(n.label, n.idx, n.parent) for n in back] == [("a", 0, None), ("b", 1, None)]


def random_rooted_dag(rng, max_nodes=12):
    n = int(rng.integers(1, max_nodes + 1))
    labels = [rng.choice(["p", "q", "r", "s"]) + str(int(rng.integers(0, 3))) for _ in range(n)]
    nodes = [(i, labels[i]) for i in range(n)]
    edges = []
    for j in range(1, n):
        parents = rng.choice(j, size=min(j, 1 + int(rng.random() * 2.2)), replace=False)
        for p in parents:
            edges.append((int(p), j, "e" + str(int(rng.integers(0, 3)))))
    if n > 2 and rng.random() < 0.2:  # occasional parallel edge
        s, t, lab = edges[int(rng.integers(0, len(edges)))]
        edges.append((s, t, lab))
    return build(nodes, edges, tops=[0])


def test_roundtrip_500_random_dags():
    rng = np.random.default_rng(20240601)
    for i in range(500):
        g = random_rooted_dag(rng)
        back = tree_to_graph(graph_to_tree(g))  # refuses a position that breaks a rule
        assert same_up_to_ids(back, g), f"round trip failed on DAG {i}"


def test_sequence_length_formula():
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = random_rooted_dag(rng)
        seq = graph_to_tree(g)
        indeg = {n.id: 0 for n in g.nodes}
        for e in g.edges:
            indeg[e.target] += 1
        expected = len(g.nodes) + sum(max(d - 1, 0) for d in indeg.values())
        assert len(seq) == expected


def test_dfs_order_deterministic_under_edge_permutation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_rooted_dag(rng)
        seq1 = graph_to_tree(g)
        shuffled = MrpGraph(id=g.id, framework=g.framework, input=g.input, tops=list(g.tops),
                            nodes=list(reversed(g.nodes)),
                            edges=[g.edges[i] for i in rng.permutation(len(g.edges))])
        seq2 = graph_to_tree(shuffled)
        assert [n.label for n in seq1] == [n.label for n in seq2]
        assert [n.idx for n in seq1] == [n.idx for n in seq2]
        assert [n.node_id for n in seq1] == [n.node_id for n in seq2]


@st.composite
def rooted_graphs(draw, unreachable=False):
    """Graphs with reentrancy, cycles, self-loops, parallel edges, one to
    three tops (each may also be reached through an edge), nodes labelled
    "<ROOT>" and node ids out of order. Every node is reachable from the
    tops, or with `unreachable`, at least one node is not."""
    n = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(2 * n)))[:n]
    labels = st.sampled_from(["x2", "x10", "a", "b", "<ROOT>", None])
    nodes = [MrpNode(i, draw(labels)) for i in ids]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(["A", "B", None]))
    edges = draw(st.lists(pairs, max_size=2 * n))
    tops = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    if unreachable:
        cut = draw(st.sampled_from([i for i in ids if i not in tops] or [max(ids) + 1]))
        if cut not in ids:
            nodes.append(MrpNode(cut, draw(labels)))
        edges = [(s, t, lab) for s, t, lab in edges if t != cut]
    else:
        # a spanning edge into every node that is not a top
        for k, i in enumerate(ids):
            if i not in tops:
                edges.append((draw(st.sampled_from(tops + ids[:k])), i, draw(st.sampled_from(["A", "B"]))))
    edges = draw(st.permutations(edges))
    return MrpGraph(id="h", framework="ucca", tops=tops, nodes=nodes,
                    edges=[MrpEdge(s, t, lab) for s, t, lab in edges])


def recursive_order(g):
    """Independent reference: recursive pre-order over children in natural
    label order (ties by node id, then edge label), tops likewise, each
    node walked at its first visit only."""
    by_id = {n.id: n for n in g.nodes}

    def key(n):
        return natural_key(n.label), n.id

    order = []

    def walk(nid):
        if nid in order:
            return
        order.append(nid)
        out = [e for e in g.edges if e.source == nid]
        for e in sorted(out, key=lambda e: (*key(by_id[e.target]), e.label or "")):
            walk(e.target)

    for top in sorted((by_id[t] for t in g.tops), key=key):
        walk(top.id)
    return order


@given(rooted_graphs())
def test_visit_order_matches_tree_order(g):
    tree_order = dict.fromkeys(sn.node_id for sn in graph_to_tree(g) if sn.node_id is not None)
    first, steps = visit_order(g)
    assert list(first) == list(tree_order) == recursive_order(g)
    assert [steps[pos][0].id for pos in first.values()] == list(first)


@given(rooted_graphs())
def test_id_less_roundtrip_is_isomorphic_with_the_same_tops(g):
    restored = tree_to_graph(clear_node_ids(graph_to_tree(g)))
    assert len(restored.tops) == len(g.tops)
    assert same_up_to_ids(restored, g)


@given(rooted_graphs(unreachable=True))
def test_visit_order_raises_what_graph_to_tree_raises(g):
    reached = set(recursive_order(g))
    want = f"graph h: nodes unreachable from top: {sorted(n.id for n in g.nodes if n.id not in reached)}"
    with pytest.raises(TreeError) as tree_error:
        graph_to_tree(g)
    with pytest.raises(TreeError) as order_error:
        visit_order(g)
    assert str(order_error.value) == str(tree_error.value) == want


@st.composite
def node_sequences(draw):
    """Sequences that keep tree_to_graph's position rules: position 0 has
    no parent, and every later position has an earlier parent or none (a
    top) and is an original or a copy of an earlier original. Node ids are
    unset, repeated or distinct."""
    labels = st.sampled_from(["<ROOT>", "a", "b", None])
    node_ids = st.none() | st.integers(0, 5)
    nodes = [SeqNode(draw(labels), 0, node_id=draw(node_ids))]
    for t in range(1, draw(st.integers(1, 8))):
        originals = [k for k, n in enumerate(nodes) if n.idx == k]
        idx = draw(st.sampled_from(originals + [t]))
        parent = draw(st.none() | st.integers(0, t - 1))
        nodes.append(SeqNode(draw(labels), idx, parent, draw(st.sampled_from(["A", None])),
                             node_id=draw(node_ids)))
    return nodes


@given(node_sequences())
def test_tree_to_graph_leaves_no_dangling_edge_top_or_duplicate_id(seq):
    g = tree_to_graph(seq, graph_id="h")  # the strategy draws no sequence it refuses
    codes = {code for code, _ in validate_graph(g)}
    assert not codes & {"DanglingEdge", "DanglingTop", "DuplicateNodeId"}
