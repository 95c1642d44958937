"""Reentrant-graph/tree conversion.

A node with k incoming edges appears k times in the linearized tree; every
occurrence after the first is a copy carrying the idx of the first. Node
order is depth-first from the root with children sorted alphanumerically
by label ("x2" before "x10"), ties broken by node id. The inverse merges
positions sharing an idx back into single nodes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .mrp import MrpEdge, MrpGraph, MrpNode

ROOT_LABEL = "<ROOT>"

_SEGMENTS = re.compile(r"\d+|\D+")
_NATURAL_KEYS_KEPT = 4096  # labels repeat across graphs; this bounds the memo


class TreeError(Exception):
    pass


@functools.lru_cache(maxsize=_NATURAL_KEYS_KEPT)
def natural_key(label):
    """Lexicographic key with numeric-aware segments; memoised, as keys are tuples."""
    if label is None:
        label = ""
    key = []
    for seg in _SEGMENTS.findall(label):
        if seg.isdigit():
            key.append((0, int(seg), ""))
        else:
            key.append((1, 0, seg))
    return tuple(key)


@dataclass(slots=True)
class SeqNode:
    label: str | None
    idx: int
    parent: int | None = None
    edge_label: str | None = None
    anchors: list | None = None
    properties: list = field(default_factory=list)
    node_id: int | None = None  # originating graph node, when known


@dataclass
class NodeSequence:
    nodes: list

    def __len__(self):
        return len(self.nodes)

    def validate(self):
        for t, n in enumerate(self.nodes):
            if not 0 <= n.idx <= t:
                raise TreeError(f"position {t}: idx {n.idx} is not a position up to {t}")
            if n.idx != t and self.nodes[n.idx].idx != n.idx:
                raise TreeError(f"position {t}: idx {n.idx} does not point at an original node")
            if n.parent is None:
                if t > 0:
                    raise TreeError(f"position {t}: no parent, but only position 0 may be the root")
            elif not 0 <= n.parent < t:
                raise TreeError(f"position {t}: parent {n.parent} is not an earlier position")


def visit_order(g: MrpGraph):
    """The depth-first walk that graph_to_tree emits in, without building
    the sequence.

    Children are taken in natural label order, ties broken by node id and
    then edge label; an edge into an already-visited node (reentrancy or
    cycle) is emitted as a copy and not walked again. With several tops a
    synthetic root takes position 0 and the tops, in natural label order,
    hang off it. Returns (first, steps): `first` maps each node id to the
    position of its first emission and is keyed in first-emission order;
    `steps` lists every emission as (node, parent position, edge label),
    copies included, with (None, None, None) for the synthetic root. A
    graph without tops, with a top that is not a node, or with a node
    unreachable from the tops raises TreeError.
    """
    by_id = g.node_by_id()
    if not g.tops:
        raise TreeError(f"graph {g.id}: no top node")
    missing = [t for t in g.tops if t not in by_id]
    if missing:
        raise TreeError(f"graph {g.id}: tops {missing} are not nodes")
    children = {n.id: [] for n in g.nodes}
    for e in g.edges:
        children[e.source].append(e)
    for out in children.values():
        if len(out) > 1:
            out.sort(key=lambda e: (natural_key(by_id[e.target].label), e.target, e.label or ""))

    steps = []
    first = {}
    if len(g.tops) == 1:
        stack = [(by_id[g.tops[0]], None, None)]
    else:
        steps.append((None, None, None))
        tops = sorted((by_id[t] for t in g.tops), key=lambda n: (natural_key(n.label), n.id))
        stack = [(n, 0, None) for n in reversed(tops)]

    while stack:
        step = stack.pop()
        pos = len(steps)
        steps.append(step)
        nid = step[0].id
        if nid in first:
            continue
        first[nid] = pos
        for e in reversed(children[nid]):
            stack.append((by_id[e.target], pos, e.label))

    if len(first) < len(by_id):
        unreachable = sorted(n.id for n in g.nodes if n.id not in first)
        raise TreeError(f"graph {g.id}: nodes unreachable from top: {unreachable}")
    return first, steps


def graph_to_tree(g: MrpGraph) -> NodeSequence:
    """Linearize a rooted graph, duplicating every extra edge entrance.

    Edges into already-visited nodes (reentrancies and cycles alike)
    become copies. Disconnected nodes are an error; with several tops a
    synthetic root is prepended and linked to each of them. Positions
    follow visit_order.
    """
    first, steps = visit_order(g)
    seq = []
    for pos, (node, parent, edge_label) in enumerate(steps):
        if node is None:
            seq.append(SeqNode(ROOT_LABEL, 0))
            continue
        idx = first[node.id]
        if idx == pos:
            seq.append(SeqNode(node.label, pos, parent, edge_label, _copy_anchors(node),
                               list(node.properties), node.id))
        else:
            seq.append(SeqNode(node.label, idx, parent, edge_label, _copy_anchors(node),
                               [], node.id))
    return NodeSequence(seq)


def _copy_anchors(node):
    return [tuple(a) for a in node.anchors] if node.anchors is not None else None


def tree_to_graph(seq: NodeSequence, framework="amr", graph_id="", input_text="") -> MrpGraph:
    """Merge positions sharing an idx into nodes and turn parent links into
    edges. Exact inverse of graph_to_tree up to node ids. A synthetic root
    makes no node: its children are the tops, and a copy of it is an error."""
    if not seq.nodes:
        raise TreeError("empty sequence has no root")
    seq.validate()
    nodes = seq.nodes
    # position 0 makes a node unless it is the synthetic root
    first = 1 if nodes[0].label == ROOT_LABEL and nodes[0].node_id is None else 0

    originals = [t for t in range(first, len(nodes)) if nodes[t].idx == t]
    ids = [nodes[t].node_id for t in originals]
    if None in ids or len(set(ids)) < len(ids):
        ids = range(first, first + len(originals))  # numbered in position order
    new_id = dict(zip(originals, ids))
    graph_nodes = [MrpNode(id=new_id[t], label=nodes[t].label,
                           properties=list(nodes[t].properties),
                           anchors=list(nodes[t].anchors) if nodes[t].anchors is not None else None)
                   for t in originals]
    edges, tops = [], []
    for t in range(1, len(nodes)):
        n = nodes[t]
        if first and n.idx == 0:
            raise TreeError(f"graph {graph_id}: position {t} is a copy of the synthetic root")
        if first and n.parent == 0:
            tops.append(new_id[n.idx])
        else:
            edges.append(MrpEdge(source=new_id[nodes[n.parent].idx], target=new_id[n.idx],
                                 label=n.edge_label))
    tops = list(dict.fromkeys(tops)) if first else [new_id[0]]
    return MrpGraph(id=graph_id, framework=framework, input=input_text,
                    tops=tops, nodes=graph_nodes, edges=edges)
