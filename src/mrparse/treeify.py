"""Reentrant-graph/tree conversion.

A tree is a list of `SeqNode`s. A node with k incoming edges appears k
times in it; every occurrence after the first is a copy carrying the idx
of the first. A position with no parent is a top: the tops start the walk
in natural label order, and a top also reached through an edge appears
once more as a parent-less copy. Node order is depth-first with children
sorted alphanumerically by label ("x2" before "x10"), ties broken by node
id. The inverse merges positions sharing an idx back into single nodes.

Both directions follow the record rule of `mrp`: a node's properties and
anchors lists are handed on as they are, to its `SeqNode` and back to the
`MrpNode` built from it, so neither side may edit them in place.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .mrp import EMPTY_LIST, MrpEdge, MrpGraph, MrpNode

_SEGMENTS = re.compile(r"\d+|\D+")
_NATURAL_KEYS_KEPT = 4096  # labels repeat across graphs; this bounds the memo


class TreeError(Exception):
    pass


@functools.lru_cache(maxsize=_NATURAL_KEYS_KEPT)
def natural_key(label):
    """Lexicographic key with numeric-aware segments; memoised, as keys are tuples."""
    return tuple((0, int(seg), "") if seg.isdecimal() else (1, 0, seg)
                 for seg in _SEGMENTS.findall(label or ""))


@dataclass(slots=True)
class SeqNode:
    label: str | None
    idx: int
    parent: int | None = None
    edge_label: str | None = None
    anchors: list | None = None
    properties: list = field(default_factory=lambda: EMPTY_LIST)
    node_id: int | None = None  # originating graph node, when known


def visit_order(g: MrpGraph):
    """The depth-first walk that graph_to_tree emits in, without building
    the sequence.

    Children are taken in natural label order, ties broken by node id and
    then edge label; an edge into an already-visited node (reentrancy or
    cycle) is emitted as a copy and not walked again. The walk starts from
    each top in turn, tops too in natural label order and then by node id,
    with no parent; a top already reached through an edge is emitted as a
    parent-less copy. Returns (first, steps): `first` maps each node id to
    the position of its first emission and is keyed in first-emission
    order; `steps` lists every emission as (node, parent position, edge
    label), copies included, with parent None for each top. A graph with
    a repeated node id, without tops, with a top or an edge end that is not
    a node, or with a node unreachable from the tops raises TreeError.
    """
    by_id = g.node_by_id()
    if len(by_id) != len(g.nodes):
        repeated = sorted({n.id for n in g.nodes if by_id[n.id] is not n})
        raise TreeError(f"graph {g.id}: node ids {repeated} repeated")
    if not g.tops:
        raise TreeError(f"graph {g.id}: no top node")
    missing = [t for t in g.tops if t not in by_id]
    if missing:
        raise TreeError(f"graph {g.id}: tops {missing} are not nodes")
    children = {n.id: [] for n in g.nodes}  # node id -> [(target node, edge)]
    try:
        for e in g.edges:
            children[e.source].append((by_id[e.target], e))
    except KeyError:
        raise TreeError(f"graph {g.id}: edge {e.source}->{e.target} references a missing node") from None
    for out in children.values():
        if len(out) > 1:
            out.sort(key=lambda c: (natural_key(c[0].label), c[0].id, c[1].label or ""))

    steps = []
    first = {}
    tops = sorted((by_id[t] for t in g.tops), key=lambda n: (natural_key(n.label), n.id))
    stack = [(n, None, None) for n in reversed(tops)]

    while stack:
        step = stack.pop()
        pos = len(steps)
        steps.append(step)
        nid = step[0].id
        if nid in first:
            continue
        first[nid] = pos
        for node, e in reversed(children[nid]):
            stack.append((node, pos, e.label))

    if len(first) < len(by_id):
        unreachable = sorted(n.id for n in g.nodes if n.id not in first)
        raise TreeError(f"graph {g.id}: nodes unreachable from top: {unreachable}")
    return first, steps


def graph_to_tree(g: MrpGraph) -> list:
    """Linearize a rooted graph into a tree, duplicating every extra edge
    entrance.

    Edges into already-visited nodes (reentrancies and cycles alike)
    become copies. Each top is a position without a parent, so a top also
    reached through an edge appears once more, as a copy. Disconnected
    nodes are an error. Positions follow visit_order. A sequence has no
    place for a node's extras or an edge's attributes and extras, so a
    graph with any raises TreeError naming the first such node or edge;
    the graph's id, framework, input and extras are the caller's to keep.
    """
    for n in g.nodes:
        if n.extras:
            raise TreeError(f"graph {g.id}: node {n.id} has extras, which a tree does not carry")
    for e in g.edges:
        if e.attributes or e.extras:
            what = "attributes" if e.attributes else "extras"
            raise TreeError(f"graph {g.id}: edge {e.source}->{e.target} has {what}, which a tree does not carry")
    first, steps = visit_order(g)
    seq = []
    for pos, (node, parent, edge_label) in enumerate(steps):
        idx = first[node.id]
        properties = node.properties if idx == pos else EMPTY_LIST  # a copy carries none
        seq.append(SeqNode(node.label, idx, parent, edge_label, node.anchors, properties, node.id))
    return seq


def tree_to_graph(nodes: list, framework="amr", graph_id="", input_text="") -> MrpGraph:
    """Merge the positions of a tree that share an idx into nodes and turn
    parent links into edges; the node of each parent-less position is a
    top, in position order. Exact inverse of graph_to_tree up to node ids."""
    if not nodes:
        raise TreeError(f"graph {graph_id}: empty sequence has no top")
    for t, n in enumerate(nodes):
        if not 0 <= n.idx <= t:
            raise TreeError(f"graph {graph_id}: position {t}: idx {n.idx} is not a position up to {t}")
        if n.idx != t and nodes[n.idx].idx != n.idx:
            raise TreeError(f"graph {graph_id}: position {t}: idx {n.idx} does not point at an original node")
        if n.parent is not None and not 0 <= n.parent < t:
            raise TreeError(f"graph {graph_id}: position {t}: parent {n.parent} is not an earlier position")

    originals = [t for t, n in enumerate(nodes) if n.idx == t]
    ids = [nodes[t].node_id for t in originals]
    if None in ids or len(set(ids)) < len(ids):
        ids = range(len(originals))  # numbered in position order
    new_id = dict(zip(originals, ids))
    graph_nodes = [MrpNode(new_id[t], nodes[t].label, nodes[t].properties, nodes[t].anchors)
                   for t in originals]
    edges, tops = [], []
    for n in nodes:
        if n.parent is None:
            tops.append(new_id[n.idx])
        else:
            edges.append(MrpEdge(new_id[nodes[n.parent].idx], new_id[n.idx], n.edge_label))
    return MrpGraph(id=graph_id, framework=framework, input=input_text,
                    tops=tops, nodes=graph_nodes, edges=edges)
