"""UCCA-specific transforms: naming unlabeled nodes and folding edge
attributes into composite edge labels."""

from __future__ import annotations

import json
import re

from ..mrp import EMPTY_LIST, MrpEdge, MrpGraph, MrpNode
from ..treeify import visit_order

RESERVED_RE = re.compile(r"^n(_+)\d+$")  # n_3 names an unlabeled node; n__3 escapes a genuine n_3

SEP = "⊕"  # ⊕
_SEP_RE = re.compile(f"({SEP}{SEP}|{SEP})")  # an escaped separator, else a separator


class UccaError(ValueError):
    pass


def ucca_mark_implicit(g: MrpGraph) -> MrpGraph:
    """Give every unlabeled node a positional name n_i, i counted in the
    order visit_order first reaches it in `g`, unnamed. When every node is
    unlabeled, as in UCCA, that is also the marked graph's node sequence
    order; otherwise the new names sort among the labels and may not be.
    Genuine labels already shaped like n_3 get an extra underscore so the
    namespace stays reserved."""
    first, steps = visit_order(g)
    number = {}
    for pos in first.values():
        node = steps[pos][0]
        if node.label is None:
            number[node.id] = len(number)
    nodes = []
    for n in g.nodes:
        if n.label is None:
            n = MrpNode(n.id, f"n_{number[n.id]}", n.properties, n.anchors, n.extras)
        elif RESERVED_RE.match(n.label):
            n = MrpNode(n.id, "n_" + n.label[1:], n.properties, n.anchors, n.extras)
        nodes.append(n)
    return g.derive(nodes)


def ucca_strip_implicit(g: MrpGraph) -> MrpGraph:
    """Inverse of ucca_mark_implicit: positional names drop to None,
    escaped genuine labels lose one underscore."""
    nodes = []
    for n in g.nodes:
        m = RESERVED_RE.match(n.label) if n.label is not None else None
        if m:
            n = MrpNode(n.id, None if m.group(1) == "_" else "n" + n.label[2:], n.properties, n.anchors, n.extras)
        nodes.append(n)
    return g.derive(nodes)


# -- composite edge labels --------------------------------------------------


def _escape(s):
    return s.replace(SEP, SEP + SEP)


def _split_composite(s):
    parts = []
    buf = []
    for piece in _SEP_RE.split(s):
        if piece == SEP:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(SEP if piece == SEP + SEP else piece)
    parts.append("".join(buf))
    return parts


def encode_edge_label(label, attributes) -> str | None:
    """("A", [("remote", True)]) -> "A⊕remote". Boolean-true attributes
    encode as bare names, anything else (and an unnamed one, whose empty
    segment would read as an escaped separator) as name=JSON value. An edge
    without a label stays None and may carry no attributes."""
    if label is None:
        if attributes:
            raise UccaError("attributes on an edge without a label")
        return None
    if not attributes:
        return _escape(label)
    out = [_escape(label)]
    for name, value in sorted(attributes, key=lambda p: p[0]):
        if "=" in name:
            raise UccaError(f"attribute name {name!r} may not contain '='")
        if name.startswith(SEP):
            raise UccaError(f"attribute name {name!r} may not start with {SEP!r}")
        if value is True and name:
            out.append(_escape(name))
        else:
            out.append(_escape(name) + "=" + _escape(json.dumps(value, ensure_ascii=False)))
    return SEP.join(out)


def decode_edge_label(s: str | None) -> tuple:
    if s is None or SEP not in s:
        return s, []
    parts = _split_composite(s)
    attrs = []
    for part in parts[1:]:
        if "=" in part:
            name, value = part.split("=", 1)
            try:
                attrs.append((name, json.loads(value)))
            except json.JSONDecodeError:
                raise UccaError(f"attribute {name!r}: value {value!r} is not JSON") from None
        else:
            attrs.append((part, True))
    return parts[0], attrs


def encode_graph_attrs(g: MrpGraph) -> MrpGraph:
    return _relabel(g, lambda e: (encode_edge_label(e.label, e.attributes), EMPTY_LIST))


def decode_graph_attrs(g: MrpGraph) -> MrpGraph:
    return _relabel(g, lambda e: decode_edge_label(e.label))


def _relabel(g, codec):
    """g with each edge's (label, attributes) as codec(edge) gives them, an
    edge rebuilt only if they change; a UccaError names the graph and edge."""
    edges = []
    for e in g.edges:
        try:
            label, attributes = codec(e)
        except UccaError as err:
            raise UccaError(f"graph {g.id}: edge {e.source} -> {e.target}: {err}") from None
        if label != e.label or attributes != e.attributes:
            e = MrpEdge(e.source, e.target, label, attributes, e.extras)
        edges.append(e)
    return g.derive(edges=edges)
