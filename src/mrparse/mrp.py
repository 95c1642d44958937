"""Semantic-graph data model and line-delimited MRP record IO.

One JSON object per line. Known keys are mapped onto the dataclasses
below; everything else is kept verbatim in an `extras` dict so a
parse/serialize cycle is structurally lossless.

Parse contract: node ids, edge endpoints, tops and anchor offsets are
integers (not booleans), labels are strings or null, `input` is a string,
and the keyed lists are lists; a record that breaks any of these raises
`MrpParseError` naming the graph, and an edge to a missing node raises
`MrpValidationError`. Unknown keys at every level land in `extras` as
they were read, and `serialize_mrp` writes them back unchanged.

Record rule: a node or edge record is never edited after the function
that built it returns. A transform builds its output with
`MrpGraph.derive`, which shares every record it leaves unchanged with its
input, and builds new records only for what it changes. `MrpGraph.copy`
is the one way to get a graph whose records may be edited in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

FRAMEWORKS = ("dm", "psd", "eds", "ucca", "amr")

_GRAPH_KEYS = frozenset(("id", "framework", "input", "tops", "nodes", "edges"))
_NODE_KEYS = frozenset(("id", "label", "properties", "values", "anchors"))
_EDGE_KEYS = frozenset(("source", "target", "label", "attributes", "values"))


class MrpError(Exception):
    pass


class MrpParseError(MrpError):
    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class MrpValidationError(MrpError):
    pass


@dataclass(slots=True)
class MrpNode:
    id: int
    label: str | None = None
    properties: list = field(default_factory=list)  # (name, value) pairs
    anchors: list | None = None  # (from, to) character offsets
    extras: dict = field(default_factory=dict)


@dataclass(slots=True)
class MrpEdge:
    source: int
    target: int
    label: str | None = None
    attributes: list = field(default_factory=list)  # (name, value) pairs
    extras: dict = field(default_factory=dict)


@dataclass(slots=True)
class MrpGraph:
    id: str
    framework: str
    input: str = ""
    tops: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.id = str(self.id)
        self.framework = self.framework.lower()

    def node_by_id(self):
        return {n.id: n for n in self.nodes}

    def derive(self, nodes=None, edges=None):
        """A graph with this graph's id, framework and input, its own `tops`
        and `extras` containers, and the given node and edge lists (new
        lists of this graph's records by default). The records are shared,
        so neither graph may edit them in place."""
        return MrpGraph(self.id, self.framework, self.input, list(self.tops),
                        list(self.nodes) if nodes is None else nodes,
                        list(self.edges) if edges is None else edges, dict(self.extras))

    def copy(self):
        """Structural copy: new node, edge, list and dict objects; labels
        and property, attribute and extras values are shared. The one way
        to get a graph that may be edited in place: transforms share
        records with their input (see `derive`), so editing a transform's
        output in place edits its input too."""
        nodes = [MrpNode(n.id, n.label, list(n.properties),
                         list(n.anchors) if n.anchors is not None else None, dict(n.extras))
                 for n in self.nodes]
        edges = [MrpEdge(e.source, e.target, e.label, list(e.attributes), dict(e.extras))
                 for e in self.edges]
        return MrpGraph(id=self.id, framework=self.framework, input=self.input,
                        tops=list(self.tops), nodes=nodes, edges=edges, extras=dict(self.extras))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def _list(raw, key, gid):
    """raw[key] as a list; [] when it is absent, null or empty."""
    value = raw.get(key) or []
    if not isinstance(value, list):
        raise MrpParseError(f"graph {gid}: '{key}' is {type(value).__name__}, not a list")
    return value


def _pairs(raw, names_key, gid):
    names, values = _list(raw, names_key, gid), _list(raw, "values", gid)
    if len(names) != len(values):
        raise MrpParseError(f"graph {gid}: {names_key}/values length mismatch: {len(names)} vs {len(values)}")
    return list(zip(names, values))


def _anchor(a, gid, nid):
    """An anchor object's (from, to); both must be integers."""
    f, t = a["from"], a["to"]
    if type(f) is not int or type(t) is not int:
        raise MrpParseError(f"graph {gid}: node {nid}: anchor ({f!r}, {t!r}) is not a pair of integers")
    return f, t


def parse_mrp(line: str) -> MrpGraph:
    """Parse one MRP record. Raises MrpParseError on malformed JSON (with
    the byte offset) or a mistyped record, and MrpValidationError on
    dangling edge endpoints."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise MrpParseError(f"malformed record: {e.msg}", offset=e.pos) from None
    if not isinstance(obj, dict):
        raise MrpParseError("record is not an object")

    gid = str(obj.get("id", ""))
    nodes = []
    ids = set()
    for raw in _list(obj, "nodes", gid):
        if not isinstance(raw, dict):
            raise MrpParseError(f"graph {gid}: node {raw!r} is not an object")
        if "id" not in raw:
            raise MrpParseError(f"graph {gid}: node without 'id'")
        nid = raw["id"]
        if type(nid) is not int:
            raise MrpParseError(f"graph {gid}: node id {nid!r} is not an integer")
        anchors = raw.get("anchors")
        if anchors is not None:
            try:
                anchors = [_anchor(a, gid, nid) for a in anchors]
            except (KeyError, TypeError):
                raise MrpParseError(f"graph {gid}: node {nid}: anchor without 'from'/'to'") from None
        label = raw.get("label")
        if label is not None and type(label) is not str:
            raise MrpParseError(f"graph {gid}: node {nid}: label {label!r} is not a string")
        properties = _pairs(raw, "properties", gid) if "properties" in raw or "values" in raw else []
        extras = {} if raw.keys() <= _NODE_KEYS else {k: v for k, v in raw.items() if k not in _NODE_KEYS}
        nodes.append(MrpNode(nid, label, properties, anchors, extras))
        ids.add(nid)
    edges = []
    for raw in _list(obj, "edges", gid):
        if not isinstance(raw, dict):
            raise MrpParseError(f"graph {gid}: edge {raw!r} is not an object")
        if "source" not in raw or "target" not in raw:
            raise MrpParseError(f"graph {gid}: edge without 'source'/'target'")
        source, target = raw["source"], raw["target"]
        if type(source) is not int or type(target) is not int:
            raise MrpParseError(f"graph {gid}: edge {source!r}->{target!r}: endpoints are not integers")
        label = raw.get("label")
        if label is not None and type(label) is not str:
            raise MrpParseError(f"graph {gid}: edge {source}->{target}: label {label!r} is not a string")
        attributes = _pairs(raw, "attributes", gid) if "attributes" in raw or "values" in raw else []
        extras = {} if raw.keys() <= _EDGE_KEYS else {k: v for k, v in raw.items() if k not in _EDGE_KEYS}
        edges.append(MrpEdge(source, target, label, attributes, extras))
    tops = _list(obj, "tops", gid)
    for t in tops:
        if type(t) is not int:
            raise MrpParseError(f"graph {gid}: top {t!r} is not an integer")
    text = obj.get("input", "")
    if type(text) is not str:
        raise MrpParseError(f"graph {gid}: 'input' is {type(text).__name__}, not a string")
    for e in edges:
        if e.source not in ids or e.target not in ids:
            raise MrpValidationError(
                f"graph {gid}: edge {e.source}->{e.target} references a missing node")
    extras = {} if obj.keys() <= _GRAPH_KEYS else {k: v for k, v in obj.items() if k not in _GRAPH_KEYS}
    return MrpGraph(gid, str(obj.get("framework", "")), text, tops, nodes, edges, extras)


def serialize_mrp(g: MrpGraph) -> str:
    """One-line JSON record; parse_mrp(serialize_mrp(g)) == g."""
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


def read_mrp_file(path) -> list:
    graphs = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                graphs.append(parse_mrp(line))
            except MrpError as e:
                raise type(e)(f"line {lineno}: {e}") from None
    return graphs


def write_mrp_file(path, graphs):
    with open(path, "w", encoding="utf-8") as f:
        for g in graphs:
            f.write(serialize_mrp(g))
            f.write("\n")


def validate_graph(g: MrpGraph) -> list:
    """Pure structural check; violations are data, not exceptions."""
    out = []
    seen = set()
    for n in g.nodes:
        if n.id in seen:
            out.append(Violation("DuplicateNodeId", f"node id {n.id} repeated"))
        seen.add(n.id)
    for n in g.nodes:
        if n.anchors is not None:
            for f, t in n.anchors:
                if f > t:
                    out.append(Violation("InvertedAnchor", f"node {n.id} anchor ({f},{t})"))
                elif f < 0 or t > len(g.input):
                    out.append(Violation("AnchorOutOfBounds",
                                         f"node {n.id} anchor ({f},{t}) outside input of length {len(g.input)}"))
        names = [p for p, _ in n.properties]
        if len(names) != len(set(names)):
            out.append(Violation("DuplicateProperty", f"node {n.id} repeats a property name"))
    for e in g.edges:
        if e.source not in seen:
            out.append(Violation("DanglingEdge", f"edge source {e.source} missing"))
        if e.target not in seen:
            out.append(Violation("DanglingEdge", f"edge target {e.target} missing"))
        if e.source == e.target:
            out.append(Violation("SelfLoop", f"edge {e.source}->{e.target}"))
    for t in g.tops:
        if t not in seen:
            out.append(Violation("DanglingTop", f"top {t} missing"))
    return out
