"""EDS-specific transforms.

Nodes without a direct surface-token mapping (type 1) get reduced into
their surface-mapped neighbours (type 2), either as a node property
`reduced:k` (single neighbour, same anchors) or as an edge label `reduced:`
plus a JSON payload (exactly two neighbours whose anchors tile the node's
range). Both moves write the one reserved prefix `reduced:` (REDUCED), and
eds_restore reverses both exactly. One pass reaches the fixpoint, since no
reduction changes whether another node is reducible. Separately,
multi-token phrases that usually surface as one node get merged into one
companion token.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field

from ..companion import find_phrase, replace_spans
from ..mrp import MrpEdge, MrpGraph, MrpNode
from .anchors import exact_runs

REDUCED = "reduced:"
_WHITESPACE = re.compile(r"\s")


class EdsError(Exception):
    pass


def _as_written(anchors):
    """The pieces in their order, list and tuple pieces alike; None (no
    anchors) stays apart from []."""
    return None if anchors is None else [tuple(p) for p in anchors]


def _range(anchors):
    """The character range (lo, hi) that a node's anchor pieces span."""
    if len(anchors) == 1:
        lo, hi = anchors[0]
        return lo, hi
    return (min(f for f, _ in anchors), max(t for _, t in anchors))


def _is_surface_mapped(node, text):
    """Type-2 test: surface predicates start with '_'; otherwise the label
    must match the anchored text (lowercased, spaces as '+', optional
    plural 's' forgiven)."""
    if node.label is None:
        return False
    if node.label.startswith("_"):
        return True
    if not node.anchors:
        return False
    lo, hi = _range(node.anchors)
    surface = text[lo:hi].lower().replace(" ", "+")
    label = node.label.lower()
    return label in (surface, surface.rstrip("s"), surface + "s")


def eds_reduce(g: MrpGraph) -> MrpGraph:
    """Apply both reduction rules; one pass in id order reaches the
    fixpoint. A type-1 node is reduced when it is anchored, not a top, has
    no properties or extras, its links have no attributes or extras and its
    neighbours are all surface-mapped: with one link when its anchors are
    identical to the neighbour's as written (`_as_written`), with two when
    they are the one piece the neighbours' pieces span. That changes only
    the neighbours: a `reduced:k` property, or a reserved edge that
    adjacency ignores. Being surface-mapped depends on label and anchors
    alone, so no reduction makes or unmakes another; node count never
    increases."""
    by_id = g.node_by_id()
    surface = {n.id: _is_surface_mapped(n, g.input) for n in g.nodes}
    adj = _adjacency(g)
    dead = set()  # identities of the removed nodes and edges
    folded = {}  # node id -> its new property list, with the folds it received
    reduced_edges = []
    for a in sorted(g.nodes, key=lambda n: n.id):
        links = adj[a.id]
        if (len(links) not in (1, 2) or surface[a.id] or a.anchors is None
                or a.id in g.tops or folded.get(a.id, a.properties) or a.extras
                or any(e.attributes or e.extras for e in links)):
            continue
        ends = [(by_id[e.target if e.source == a.id else e.source], e) for e in links]
        if not all(surface[b.id] for b, _ in ends):
            continue
        if len(ends) == 1:
            [(b, e)] = ends
            if _as_written(a.anchors) != _as_written(b.anchors):
                continue
            properties = folded.setdefault(b.id, list(b.properties))
            k = sum(1 for p, _ in properties if p.startswith(REDUCED))
            properties.append((f"{REDUCED}{k}", json.dumps([a.label, e.label, _side(e, a)])))
        else:
            (b, eb), (c, ec) = ends
            if b.id == c.id or b.anchors is None or c.anchors is None:
                continue
            pieces = list(b.anchors) + list(c.anchors)
            if not pieces or _as_written(a.anchors) != [_range(pieces)]:
                continue
            # the end with the smaller (edge label, node id) is the source: ARG1 before ARG2
            (src, esrc), (tgt, etgt) = sorted(ends, key=lambda end: (end[1].label or "", end[0].id))
            payload = json.dumps([a.label, esrc.label, _side(esrc, a), etgt.label, _side(etgt, a)])
            reduced_edges.append(MrpEdge(src.id, tgt.id, REDUCED + payload))
        dead.add(id(a))
        dead.update(id(e) for e in links)
    nodes = [n if n.id not in folded else MrpNode(n.id, n.label, folded[n.id], n.anchors, n.extras)
             for n in g.nodes if id(n) not in dead]
    return g.derive(nodes, [e for e in g.edges if id(e) not in dead] + reduced_edges)


def _side(e, a):
    """How edge e meets the reduced node a: "out" when a is its source."""
    return "out" if e.source == a.id else "in"


_SIDES = ("out", "in")  # the values _side writes, the only ones _attach reads


def _attach(a, b, label, side):
    """The edge between restored node a and neighbour b that _side read."""
    return MrpEdge(a.id, b.id, label) if side == "out" else MrpEdge(b.id, a.id, label)


def _adjacency(g):
    adj = {n.id: [] for n in g.nodes}
    try:
        for e in g.edges:
            if e.label and e.label.startswith(REDUCED):
                continue  # already-reduced edges don't count as connections
            adj[e.source].append(e)
            adj[e.target].append(e)
    except KeyError:
        raise EdsError(f"graph {g.id}: edge {e.source}->{e.target} references a missing node") from None
    return adj


def eds_restore(g: MrpGraph) -> MrpGraph:
    """Reverse eds_reduce: reserved edge labels become nodes spanning both
    endpoints, reserved properties unfold into single-link nodes that share
    their neighbour's anchor list."""
    new_ids = itertools.count(max((n.id for n in g.nodes), default=-1) + 1)
    by_id = g.node_by_id()

    nodes, kept_edges, new_edges = list(g.nodes), [], []
    for e in g.edges:
        if not (e.label and e.label.startswith(REDUCED)):
            kept_edges.append(e)
            continue
        try:
            label, lab_src, side_src, lab_tgt, side_tgt = json.loads(e.label[len(REDUCED):])
            known = side_src in _SIDES and side_tgt in _SIDES
        except (ValueError, TypeError):
            known = False
        if not known:
            raise EdsError(f"graph {g.id}: unrecognized reduced edge label {e.label!r}")
        b, c = by_id.get(e.source), by_id.get(e.target)
        if b is None or c is None:
            raise EdsError(f"graph {g.id}: reduced edge {e.source} -> {e.target} names a missing node")
        pieces = list(b.anchors or []) + list(c.anchors or [])
        if not pieces:
            raise EdsError(f"graph {g.id}: reduced edge {e.source} -> {e.target} joins unanchored nodes")
        a = MrpNode(next(new_ids), label=label, anchors=[_range(pieces)])
        nodes.append(a)
        new_edges += [_attach(a, b, lab_src, side_src), _attach(a, c, lab_tgt, side_tgt)]
    edges = kept_edges + new_edges

    for i in range(len(nodes)):
        b = nodes[i]
        if not b.properties:
            continue
        folded = [(name, value) for name, value in b.properties if name.startswith(REDUCED)]
        if not folded:
            continue
        kept = [(name, value) for name, value in b.properties if not name.startswith(REDUCED)]
        nodes[i] = MrpNode(b.id, b.label, kept, b.anchors, b.extras)
        for name, value in folded:
            try:
                label, edge_label, side = json.loads(value)
                known = side in _SIDES
            except (ValueError, TypeError):
                known = False
            if not known:
                raise EdsError(f"graph {g.id}: unrecognized reduced property {name}={value!r} on node {b.id}")
            a = MrpNode(next(new_ids), label=label, anchors=b.anchors)
            nodes.append(a)
            edges.append(_attach(a, b, edge_label, side))
    return g.derive(nodes, edges)


def eds_exchange_properties(g: MrpGraph) -> MrpGraph:
    """Swap label and carg value on property-bearing nodes; a second
    application undoes the first. The swap makes the surface string the
    generated label (copyable from the sentence) and the original label a
    categorical target. A carg value that is neither a string nor null
    would make a label no later step reads, so it raises EdsError naming
    the graph, the node and the value."""
    nodes = []
    for n in g.nodes:
        for i, (name, value) in enumerate(n.properties):
            if name == "carg":
                if value is not None and type(value) is not str:
                    raise EdsError(f"graph {g.id}: node {n.id}: carg {value!r} is not a string")
                properties = list(n.properties)
                properties[i] = (name, n.label)
                n = MrpNode(n.id, value, properties, n.anchors, n.extras)
                break
        nodes.append(n)
    return g.derive(nodes)


@dataclass
class MultiwordTable:
    """phrase -> (probability the phrase surfaces as one node, count of
    such single-node occurrences)."""
    entries: dict = field(default_factory=dict)

    def should_merge(self, phrase) -> bool:
        p, count = self.entries.get(phrase, (0.0, 0))
        return p > 0.5 and count >= 2

    def to_lines(self):
        return [json.dumps({"phrase": k, "prob": v[0], "count": v[1]}, sort_keys=True)
                for k, v in sorted(self.entries.items())]

    @classmethod
    def from_lines(cls, lines):
        """Inverse of to_lines, skipping blank lines. A malformed line, or
        one whose phrase is not a string, raises ValueError naming it,
        counted from 1."""
        entries = {}
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                prob, count = float(obj["prob"]), int(obj["count"])
                phrase = obj["phrase"]
                if type(phrase) is not str:
                    raise TypeError(f"phrase {phrase!r} is not a string")
                entries[phrase] = (prob, count)
            except (ValueError, KeyError, TypeError) as err:
                raise ValueError(f"MultiwordTable: line {lineno}: {type(err).__name__}: {err}") from None
        return cls(entries)


def build_multiword_table(corpus) -> MultiwordTable:
    """corpus: (graph, companion) pairs. A phrase occurrence counts as
    single-node when some node's anchor range covers exactly that token
    window (its covering run, unsnapped) and no other node's window lies
    strictly inside it (a compound over two names is not a phrase). A
    window with a form that holds whitespace is not counted: its key,
    the forms joined by spaces, would not split back into them.

    Two passes over the corpus. The first finds each anchored node's
    window with `exact_runs`, two dict lookups per node, and tests each
    window of two or more tokens only against the windows that start
    inside it, which follow it in the sorted window list. The second
    counts the phrases of the first: for each first word a sentence
    holds, one slice comparison per phrase at each position of that
    word."""
    single = {}
    for g, sent in corpus:
        run = exact_runs(sent.tokens)
        windows = sorted({w for n in g.nodes if n.anchors and (w := run(*_range(n.anchors)))})
        for p, (lo, hi) in enumerate(windows):
            if hi == lo or p and windows[p - 1][0] == lo:
                continue  # one token, or a shorter window from lo: it sorts just before
            later = itertools.takewhile(lambda w: w[0] <= hi, windows[p + 1:])
            if any(j <= hi for _, j in later):
                continue  # a window that starts inside ends inside; one from lo ends after hi
            words = [t.form.lower() for t in sent.tokens[lo:hi + 1]]
            if not any(map(_WHITESPACE.search, words)):
                phrase = " ".join(words)
                single[phrase] = single.get(phrase, 0) + 1
    by_first = {}  # first word -> [(words, phrase)] of the phrases it starts
    for phrase in single:
        words = phrase.split(" ")
        by_first.setdefault(words[0], []).append((words, phrase))
    totals = {k: 0 for k in single}
    for g, sent in corpus:
        forms = [t.form.lower() for t in sent.tokens]
        for first in by_first.keys() & forms:
            starts = [i for i, form in enumerate(forms) if form == first]
            for words, phrase in by_first[first]:
                totals[phrase] += sum(forms[i:i + len(words)] == words for i in starts)
    entries = {k: (single[k] / totals[k] if totals[k] else 0.0, single[k]) for k in single}
    return MultiwordTable(entries)


def apply_multiword(sent, table: MultiwordTable):
    """Merge mergeable phrase occurrences into single tokens, greedy
    left-to-right with longer phrases first. A merged token spells the
    sentence text its run spans, joins the run's lemmas with '+' and takes
    the first token's xpos and NER tag."""
    mergeable = [p.split(" ") for p in table.entries if table.should_merge(p)]
    mergeable.sort(key=lambda w: (-len(w), w))
    forms = [t.form.lower() for t in sent.tokens]
    present = set(forms)
    taken = set()
    text = sent.text()
    runs = []
    for words in mergeable:
        if words[0] not in present:
            continue
        while (i := find_phrase(forms, words, taken)) is not None:
            run = sent.tokens[i:i + len(words)]
            runs.append((i, i + len(words) - 1, text[run[0].start:run[-1].end],
                         "+".join(t.lemma for t in run), run[0].xpos, sent.ner_tags[i]))
            taken.update(range(i, i + len(words)))
    return replace_spans(sent, sorted(runs))
