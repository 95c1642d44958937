"""Semantic-graph data model and line-delimited MRP record IO.

One JSON object per line. Known keys are mapped onto the dataclasses
below; everything else is kept verbatim in an `extras` dict so a
parse/serialize cycle is structurally lossless.

Parse contract: node ids, edge endpoints, tops and anchor offsets are
integers (not booleans), labels are strings or null, `input` is a string,
and the keyed lists are lists; a record that breaks any of these raises
`MrpParseError` naming the graph. A repeated node id, or an edge to a
missing node, raises `MrpValidationError` naming the graph and the id.
Unknown keys at every level land in `extras` as they were read, and
`serialize_mrp` writes them back unchanged.

Serialize contract: `serialize_mrp` writes the text itself, as
`json.dumps(ensure_ascii=False)` with no spaces would. Keys come in the
order id, the graph's extras, framework, input, tops, nodes, edges; node
keys id, label, properties, values, anchors, extras; edge keys source,
target, label, attributes, values, extras. It leaves out a null label,
empty properties or attributes and None anchors. It refuses, with
`MrpError` naming the graph, what parse_mrp would reject: an id,
endpoint, top or anchor offset that is not an int, extras that name a
field of their record, and a value that JSON cannot hold.

Record rule: a node or edge record is never edited after the function
that built it returns. A transform builds its output with
`MrpGraph.derive`, which shares every record it leaves unchanged with its
input, and builds new records only for what it changes. Lists are shared
the same way: a record's properties, attributes and anchors, and the
`treeify.SeqNode` lists built from them, are never edited either.
`MrpGraph.copy` is the one way to get a graph whose records may be edited
in place."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def _node_ids(nodes):
    """The node ids, as a set-like view, and the id of every node that a
    later node repeats."""
    last = {n.id: n for n in nodes}
    return last.keys(), [] if len(last) == len(nodes) else [n.id for n in nodes if last[n.id] is not n]


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
    the byte offset) or a mistyped record, and MrpValidationError on a
    repeated node id or a dangling edge endpoint."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise MrpParseError(f"malformed record: {e.msg}", offset=e.pos) from None
    if not isinstance(obj, dict):
        raise MrpParseError("record is not an object")

    gid = str(obj.get("id", ""))
    nodes = []
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
    ids, repeated = _node_ids(nodes)
    if repeated:
        raise MrpValidationError(f"graph {gid}: node id {repeated[0]} repeated")
    for e in edges:
        if e.source not in ids or e.target not in ids:
            raise MrpValidationError(
                f"graph {gid}: edge {e.source}->{e.target} references a missing node")
    extras = {} if obj.keys() <= _GRAPH_KEYS else {k: v for k, v in obj.items() if k not in _GRAPH_KEYS}
    return MrpGraph(gid, str(obj.get("framework", "")), text, tops, nodes, edges, extras)


_string = json.encoder.encode_basestring  # a str as json.dumps(ensure_ascii=False) writes it
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def serialize_mrp(g: MrpGraph) -> str:
    """One-line JSON record, written directly in the order of the module
    docstring; parse_mrp(serialize_mrp(g)) == g. Raises MrpError naming the
    graph for a record that parse_mrp would reject."""
    gid = g.id
    try:
        for t in g.tops:
            if type(t) is not int:
                raise MrpError(f"graph {gid}: top {t!r} is not an integer")
        nodes = []
        for n in g.nodes:
            nid = n.id
            if type(nid) is not int:
                raise MrpError(f"graph {gid}: node id {nid!r} is not an integer")
            text = f'{{"id":{nid}'
            if n.label is not None:
                text += ',"label":' + _string(n.label)
            if n.properties:
                text += _columns("properties", n.properties)
            if n.anchors is not None:
                text += ',"anchors":[' + ",".join([_piece(a, gid, nid) for a in n.anchors]) + "]"
            nodes.append(text + _extras(n.extras, _NODE_KEYS, gid) + "}" if n.extras else text + "}")
        edges = []
        for e in g.edges:
            s, t = e.source, e.target
            if type(s) is not int or type(t) is not int:
                raise MrpError(f"graph {gid}: edge {s!r}->{t!r}: endpoints are not integers")
            text = f'{{"source":{s},"target":{t}'
            if e.label is not None:
                text += ',"label":' + _string(e.label)
            if e.attributes:
                text += _columns("attributes", e.attributes)
            edges.append(text + _extras(e.extras, _EDGE_KEYS, gid) + "}" if e.extras else text + "}")
        extras = _extras(g.extras, _GRAPH_KEYS, gid) if g.extras else ""
        return (f'{{"id":{_string(gid)}{extras},"framework":{_string(g.framework)},"input":{_string(g.input)},'
                f'"tops":[{",".join(map(str, g.tops))}],'
                f'"nodes":[{",".join(nodes)}],"edges":[{",".join(edges)}]}}')
    except (TypeError, ValueError) as err:  # a value JSON cannot hold, or an anchor that is not a pair
        raise MrpError(f"graph {gid}: cannot be written: {err}") from None


def _piece(anchor, gid, nid):
    f, t = anchor
    if type(f) is not int or type(t) is not int:
        raise MrpError(f"graph {gid}: node {nid}: anchor ({f!r}, {t!r}) is not a pair of integers")
    return f'{{"from":{f},"to":{t}}}'


def _columns(names_key, pairs):
    """(name, value) pairs as the list of names and the list of values."""
    return f',"{names_key}":{_encode([p for p, _ in pairs])},"values":{_encode([v for _, v in pairs])}'


def _extras(extras, fields, gid):
    """extras as members to splice into a record; none may name one of its fields."""
    clash = fields.intersection(extras)
    if clash:
        raise MrpError(f"graph {gid}: extras {sorted(clash)} name record fields")
    return "," + _encode(extras)[1:-1]


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
    seen, repeated = _node_ids(g.nodes)
    out = [Violation("DuplicateNodeId", f"node id {nid} repeated") for nid in repeated]
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
