"""Semantic-graph data model and line-delimited MRP record IO.

One JSON object per line. Known keys are mapped onto the dataclasses
below; everything else is kept verbatim in an `extras` dict so a
parse/serialize cycle is structurally lossless.

Record contract: one function, `validate_graph`, holds every rule a
record keeps and reports each broken one as a (code, message) pair;
`parse_mrp` and `serialize_mrp` both read it. Node ids, edge endpoints,
tops and anchor offsets are integers, not booleans (`NotAnInteger`); the
graph's id and framework are strings, labels are strings or null, and
property and attribute names are strings (`NotAString`); no node id
repeats (`DuplicateNodeId`); every edge endpoint and every top is a node
(`DanglingEdge`, `DanglingTop`); and every anchor (from, to) has from <=
to (`InvertedAnchor`) and lies within `input` (`AnchorOutOfBounds`).
`parse_mrp` and `serialize_mrp` both refuse a graph that breaks one of
these seven, with the first broken rule's message naming the graph:
`MrpParseError` for the two type rules, `MrpValidationError` for the five
structural ones. A repeated property name (`DuplicateProperty`) and a
self-loop (`SelfLoop`) round-trip, so they are data: `validate_graph`
reports them, and no reader or writer refuses them. Besides, `parse_mrp`
refuses with `MrpParseError` a record of the wrong JSON shape: not an
object, a node without id, an edge without endpoints, an anchor without
from/to or with any other key (an anchor has no `extras` to keep it in),
a keyed list that is not a list, an `input` that is not a string, and
names and values of different lengths. `serialize_mrp` refuses with
`MrpError` extras that name a field of their record and a value that JSON
cannot hold.

The header is kept as written: an id or framework is neither converted nor
case-folded, and `parse_mrp` refuses with `MrpParseError` a record without
"id", "framework" or "input", naming the missing keys, once every other
check has passed. An earlier refusal of a record without "id" says so
where it would name the graph. Unknown keys of a graph, node or edge
land in `extras` as they were read, and `serialize_mrp` writes them back
unchanged; an anchor with one is refused, as above. It writes the text
itself, as `json.dumps(ensure_ascii=False)` with no spaces would. Keys
come in the order id, the graph's extras, framework, input, tops, nodes,
edges; node keys id, label, properties, values, anchors, extras; edge
keys source, target, label, attributes, values, extras. It leaves out a null label, empty properties or attributes
and None anchors.

Record rule: a node or edge record, or a companion `Token`, is never
edited after the function that built it returns, and neither is a
sentence's token or NER tag list. A transform builds its output with
`MrpGraph.derive`, which shares every record it leaves unchanged with its
input, and builds new records only for what it changes. Lists are shared
the same way: a record's properties, attributes and anchors, the
`treeify.SeqNode` lists built from them and the anchor list that
`eds_restore` shares between an unfolded node and its neighbour are never
edited either. A record without properties, attributes or extras holds
the one shared `EMPTY_LIST` or `EMPTY_DICT`: `parse_mrp`, the `MrpNode`
and `MrpEdge` defaults and `treeify` give every such record the same
object, which reads as `[]` or `{}` and raises TypeError at any edit, so
a broken rule fails at the line that breaks it. Strings are shared
freely: a token's form, lemma and xpos may be the same objects as another
sentence's (`read_companion` interns them). `MrpGraph.copy` is the one
way to get a graph whose records may be edited in place: it gives every
record new lists and dicts, empty or not."""

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


def _refuse_edit(self, *args, **kwargs):
    raise TypeError(f"a shared empty {type(self).__base__.__name__} is never edited: build a new one")


class _FrozenList(list):
    """An empty list that refuses every edit; see EMPTY_LIST."""
    __slots__ = ()
    append = extend = insert = remove = pop = clear = sort = reverse = _refuse_edit
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse_edit


class _FrozenDict(dict):
    """An empty dict that refuses every edit; see EMPTY_DICT."""
    __slots__ = ()
    pop = popitem = clear = update = setdefault = _refuse_edit
    __setitem__ = __delitem__ = __ior__ = _refuse_edit


# The properties, attributes and extras of every record that has none. A
# dataclass field takes them through a default_factory: before Python 3.11 a
# dataclass refuses any list or dict instance as a plain default.
EMPTY_LIST = _FrozenList()
EMPTY_DICT = _FrozenDict()


@dataclass(slots=True)
class MrpNode:
    id: int
    label: str | None = None
    properties: list = field(default_factory=lambda: EMPTY_LIST)  # (name, value) pairs; if none, EMPTY_LIST
    anchors: list | None = None  # (from, to) character offsets
    extras: dict = field(default_factory=lambda: EMPTY_DICT)  # if none, EMPTY_DICT; copy() gives editable ones


@dataclass(slots=True)
class MrpEdge:
    source: int
    target: int
    label: str | None = None
    attributes: list = field(default_factory=lambda: EMPTY_LIST)  # (name, value) pairs; if none, EMPTY_LIST
    extras: dict = field(default_factory=lambda: EMPTY_DICT)  # if none, EMPTY_DICT; copy() gives editable ones


@dataclass(slots=True)
class MrpGraph:
    id: str
    framework: str
    input: str = ""
    tops: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

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


def validate_graph(g: MrpGraph) -> list:
    """(code, message) for every contract rule that g breaks, refused or
    reported only, in one pass over its nodes, edges and tops."""
    out, ids, size = [], set(), len(g.input)
    for key, value in (("id", g.id), ("framework", g.framework)):
        if type(value) is not str:
            out.append(("NotAString", f"{key} {value!r} is not a string"))
    for n in g.nodes:
        nid = n.id
        if type(nid) is not int:
            out.append(("NotAnInteger", f"node id {nid!r} is not an integer"))
        elif nid in ids:
            out.append(("DuplicateNodeId", f"node id {nid} repeated"))
        else:
            ids.add(nid)
        if n.label is not None and type(n.label) is not str:
            out.append(("NotAString", f"node {nid!r}: label {n.label!r} is not a string"))
        for f, t in n.anchors or ():
            if type(f) is not int or type(t) is not int:
                out.append(("NotAnInteger", f"node {nid!r}: anchor ({f!r}, {t!r}) is not a pair of integers"))
            elif f > t:
                out.append(("InvertedAnchor", f"node {nid!r}: anchor ({f}, {t}) is inverted"))
            elif f < 0 or t > size:
                out.append(("AnchorOutOfBounds", f"node {nid!r}: anchor ({f}, {t}) is outside input of length {size}"))
        if n.properties:
            names = [p for p, _ in n.properties]
            out += [("NotAString", f"node {nid!r}: property name {p!r} is not a string")
                    for p in names if type(p) is not str]
            if any(p in names[:i] for i, p in enumerate(names)):
                out.append(("DuplicateProperty", f"node {nid!r} repeats a property name"))
    for e in g.edges:
        s, t = e.source, e.target
        if type(s) is not int or type(t) is not int:
            out.append(("NotAnInteger", f"edge {s!r}->{t!r}: endpoints are not integers"))
        elif s not in ids or t not in ids:
            out.append(("DanglingEdge", f"edge {s}->{t} references a missing node"))
        elif s == t:
            out.append(("SelfLoop", f"edge {s}->{t} is a self-loop"))
        if e.label is not None and type(e.label) is not str:
            out.append(("NotAString", f"edge {s!r}->{t!r}: label {e.label!r} is not a string"))
        for a, _ in e.attributes:
            if type(a) is not str:
                out.append(("NotAString", f"edge {s!r}->{t!r}: attribute name {a!r} is not a string"))
    for t in g.tops:
        if type(t) is not int:
            out.append(("NotAnInteger", f"top {t!r} is not an integer"))
        elif t not in ids:
            out.append(("DanglingTop", f"top {t} is not a node"))
    return out


_REFUSED = {"NotAnInteger": MrpParseError, "NotAString": MrpParseError, "DuplicateNodeId": MrpValidationError,
            "DanglingEdge": MrpValidationError, "DanglingTop": MrpValidationError,
            "InvertedAnchor": MrpValidationError, "AnchorOutOfBounds": MrpValidationError}


def _refuse(g, where):
    """Raise the error of the first violation that the record contract
    refuses, its message prefixed by `where`."""
    for code, message in validate_graph(g):
        if code in _REFUSED:
            raise _REFUSED[code](f"{where}: {message}")


def _list(raw, key, where):
    """raw[key] as a list; [] when it is absent, null or empty."""
    value = raw.get(key) or []
    if not isinstance(value, list):
        raise MrpParseError(f"{where}: '{key}' is {type(value).__name__}, not a list")
    return value


def _pairs(raw, names_key, where):
    names, values = _list(raw, names_key, where), _list(raw, "values", where)
    if len(names) != len(values):
        raise MrpParseError(f"{where}: {names_key}/values length mismatch: {len(names)} vs {len(values)}")
    return list(zip(names, values))


def parse_mrp(line: str) -> MrpGraph:
    """Parse one MRP record. Raises MrpParseError on malformed JSON (with
    the byte offset) or a record of the wrong shape, then the error of the
    first rule of the record contract that it breaks, then MrpParseError
    for a record without id, framework or input."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise MrpParseError(f"malformed record: {e.msg}", offset=e.pos) from None
    if not isinstance(obj, dict):
        raise MrpParseError("record is not an object")

    gid = obj.get("id", "")
    where = f"graph {gid}" if "id" in obj else "record without 'id'"
    nodes = []
    for raw in _list(obj, "nodes", where):
        if not isinstance(raw, dict):
            raise MrpParseError(f"{where}: node {raw!r} is not an object")
        if "id" not in raw:
            raise MrpParseError(f"{where}: node without 'id'")
        anchors = raw.get("anchors")
        if anchors is not None:
            pieces = []
            try:
                for a in anchors:
                    pieces.append((a["from"], a["to"]))
                    if len(a) != 2:  # it has from and to, so other keys, which no record field keeps
                        raise MrpParseError(f"{where}: node {raw['id']!r}: anchor keys "
                                            f"{sorted(a.keys() - {'from', 'to'})} besides 'from'/'to'")
            except (KeyError, TypeError):
                raise MrpParseError(f"{where}: node {raw['id']!r}: anchor without 'from'/'to'") from None
            anchors = pieces
        properties = _pairs(raw, "properties", where) if "properties" in raw or "values" in raw else EMPTY_LIST
        extras = EMPTY_DICT if raw.keys() <= _NODE_KEYS else {k: v for k, v in raw.items() if k not in _NODE_KEYS}
        nodes.append(MrpNode(raw["id"], raw.get("label"), properties, anchors, extras))
    edges = []
    for raw in _list(obj, "edges", where):
        if not isinstance(raw, dict):
            raise MrpParseError(f"{where}: edge {raw!r} is not an object")
        if "source" not in raw or "target" not in raw:
            raise MrpParseError(f"{where}: edge without 'source'/'target'")
        attributes = _pairs(raw, "attributes", where) if "attributes" in raw or "values" in raw else EMPTY_LIST
        extras = EMPTY_DICT if raw.keys() <= _EDGE_KEYS else {k: v for k, v in raw.items() if k not in _EDGE_KEYS}
        edges.append(MrpEdge(raw["source"], raw["target"], raw.get("label"), attributes, extras))
    text = obj.get("input", "")
    if type(text) is not str:
        raise MrpParseError(f"{where}: 'input' is {type(text).__name__}, not a string")
    extras = {} if obj.keys() <= _GRAPH_KEYS else {k: v for k, v in obj.items() if k not in _GRAPH_KEYS}
    g = MrpGraph(gid, obj.get("framework", ""), text, _list(obj, "tops", where), nodes, edges, extras)
    _refuse(g, where)
    missing = ", ".join(repr(k) for k in ("id", "framework", "input") if k not in obj)
    if missing:
        raise MrpParseError(f"{where}: record without {missing}" if "id" in obj else f"record without {missing}")
    return g


_string = json.encoder.encode_basestring  # a str as json.dumps(ensure_ascii=False) writes it
_encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def serialize_mrp(g: MrpGraph) -> str:
    """One-line JSON record, written directly in the order of the module
    docstring; parse_mrp(serialize_mrp(g)) == g. Raises what parse_mrp of
    the line would raise for a graph that breaks the record contract, and
    MrpError naming the graph for one that cannot be written."""
    gid = g.id
    try:
        _refuse(g, f"graph {gid}")
        nodes = []
        for n in g.nodes:
            text = f'{{"id":{n.id}'
            if n.label is not None:
                text += ',"label":' + _string(n.label)
            if n.properties:
                text += _columns("properties", n.properties)
            if n.anchors is not None:
                text += ',"anchors":[' + ",".join([f'{{"from":{f},"to":{t}}}' for f, t in n.anchors]) + "]"
            nodes.append(text + _extras(n.extras, _NODE_KEYS, gid) + "}" if n.extras else text + "}")
        edges = []
        for e in g.edges:
            text = f'{{"source":{e.source},"target":{e.target}'
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
                e.args = (f"line {lineno}: {e}",)  # keeps the class and a parse error's offset
                raise
    return graphs


def write_mrp_file(path, graphs):
    """One serialize_mrp line per graph, in UTF-8. Every graph is written
    to bytes before the file is opened, so the whole output is held in
    memory, and a graph that cannot be written leaves the file untouched:
    it raises serialize_mrp's error, or MrpError naming the graph for text
    that UTF-8 cannot encode (a lone surrogate)."""
    lines = []
    for g in graphs:
        line = f"{serialize_mrp(g)}\n"
        try:
            lines.append(line.encode("utf-8"))
        except UnicodeEncodeError as err:
            raise MrpError(f"graph {g.id}: cannot be written: {err}") from None
    with open(path, "wb") as f:
        f.writelines(lines)

