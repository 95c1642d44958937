"""AMR-specific transforms: sense stripping and restoration, wiki/polarity
handling, and named-entity anonymization.

Entity sub-graphs (an entity-type node pointing at a `name` node with op
children, or a date-entity with field children) collapse to a single
placeholder node such as PERSON_0, and the matching sentence tokens
collapse to the same placeholder. Its entry is `{"kind", "type", "parts"}`:
"named" or "date", the entity node's label, and `[edge label, word]` per
leaf, as written; `amr_postprocess` hangs the parts under a new `name`
node ("named") or under the entity node ("date"). A pattern collapses only
when its entry rebuilds it exactly: its collapsed nodes and edges are bare
labels (`_entity_subgraphs`) and its placeholder is no label of the graph;
any other stays in the graph as it is. The tables learned during training
— sense frequencies, polarity attachment rates, NER-tag/entity-type
statistics — drive the inverse at parse time.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from dataclasses import dataclass, field

from ..companion import CompanionSentence, find_phrase, replace_spans
from ..mrp import MrpEdge, MrpGraph, MrpNode, MrpValidationError
from ..treeify import natural_key

log = logging.getLogger(__name__)

SENSE_RE = re.compile(r"^(.+?)-(\d{2,})$")
OP_RE = re.compile(r"^op\d+$")
DATE_FIELDS = ("year", "month", "day", "weekday")

TEMPLATES = {  # NER tag -> placeholder template; any other tag mints ENTITY
    "PER": "PERSON",
    "LOC": "LOCATION",
    "ORG": "ORGANIZATION",
    "GPE": "LOCATION",
    "DATE": "DATE",
    "MISC": "ENTITY",
}
_MINTED = set(TEMPLATES.values())  # every template _mint uses, its fallback ENTITY among them


@dataclass
class AmrTables:
    """Corpus statistics for the inverse transforms."""
    senses: dict = field(default_factory=dict)        # stem -> {full label: count}
    bare: dict = field(default_factory=dict)          # labels seen without a sense
    polarity: dict = field(default_factory=dict)      # stem -> [with polarity, total]
    entity_types: dict = field(default_factory=dict)  # NER tag -> {type label: count}

    def best_sense(self, stem):
        """The stem's most frequent sensed label, unless the stem was seen
        bare strictly more often; a stem never seen with a sense comes back
        bare."""
        counts = self.senses.get(stem)
        if not counts:
            return stem
        best = max(sorted(counts), key=lambda k: counts[k])
        return stem if self.bare.get(stem, 0) > counts[best] else best

    def wants_polarity(self, stem):
        with_pol, total = self.polarity.get(stem, (0, 0))
        return total > 0 and with_pol / total > 0.5

    def best_entity_type(self, tag, fallback):
        counts = self.entity_types.get(tag)
        if counts:
            return max(sorted(counts), key=lambda k: counts[k])
        return fallback

    def to_lines(self):
        """One JSON record per line, tables in field order, keys sorted."""
        records = [{"kind": "sense", "stem": k, "counts": v} for k, v in sorted(self.senses.items())]
        records += [{"kind": "bare", "label": k, "count": v} for k, v in sorted(self.bare.items())]
        records += [{"kind": "polarity", "stem": k, "with": w, "total": t}
                    for k, (w, t) in sorted(self.polarity.items())]
        records += [{"kind": "entity", "tag": k, "counts": v} for k, v in sorted(self.entity_types.items())]
        return [json.dumps(r, sort_keys=True) for r in records]

    @classmethod
    def from_lines(cls, lines):
        """Inverse of to_lines, skipping blank lines. A malformed line, or
        one whose stem, label or tag is not a string, raises ValueError
        naming it, counted from 1."""
        t = cls()
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                kind = obj["kind"]
                if kind == "sense":
                    t.senses[_string(obj, "stem")] = {k: int(v) for k, v in obj["counts"].items()}
                elif kind == "bare":
                    t.bare[_string(obj, "label")] = int(obj["count"])
                elif kind == "polarity":
                    t.polarity[_string(obj, "stem")] = [int(obj["with"]), int(obj["total"])]
                elif kind == "entity":
                    t.entity_types[_string(obj, "tag")] = {k: int(v) for k, v in obj["counts"].items()}
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            except (ValueError, KeyError, TypeError, AttributeError) as err:
                raise ValueError(f"AmrTables: line {lineno}: {type(err).__name__}: {err}") from None
        return t


def _string(obj, key):
    """obj[key], which must be a string."""
    value = obj[key]
    if type(value) is not str:
        raise TypeError(f"{key} {value!r} is not a string")
    return value


def _strip_sense(label):
    m = SENSE_RE.match(label or "")
    if m:
        return m.group(1), label
    return label, None


def amr_preprocess(g: MrpGraph, sent: CompanionSentence, tables: AmrTables, update=False):
    """Strip senses/wiki/polarity and anonymize entity sub-graphs.

    Returns (graph, sentence, entry) where entry maps each placeholder to
    its `{"kind", "type", "parts"}` record (module docstring).
    With update=True, corpus statistics accumulate into `tables`.
    """
    nodes = []
    for n in g.nodes:
        stem, full = _strip_sense(n.label)
        properties = n.properties
        has_polarity = False
        if properties:  # a node without properties has no polarity or wiki to strip
            has_polarity = any(p == "polarity" for p, _ in properties)
            properties = [(p, v) for p, v in properties if p not in ("wiki", "polarity")]
        if update and n.label is not None:
            if full is not None:
                counts = tables.senses.setdefault(stem, {})
                counts[full] = counts.get(full, 0) + 1
            else:
                tables.bare[n.label] = tables.bare.get(n.label, 0) + 1
            w, t = tables.polarity.get(stem, (0, 0))
            tables.polarity[stem] = [w + has_polarity, t + 1]
        if full is not None or len(properties) != len(n.properties):
            n = MrpNode(n.id, stem, properties, n.anchors, n.extras)
        nodes.append(n)

    return _anonymize(g.derive(nodes), sent, tables, update)


def _entity_subgraphs(g):
    """(kind, entity node, [(edge, leaf)], collapsed nodes) per pattern: a
    `name` node with op leaves under an entity node ("named"; none for an
    entity node with two such names), or a date-entity with field leaves
    ("date"). Parts come in `natural_key` order of their edge labels. Only
    what an entry rebuilds is a pattern: each collapsed node is a bare
    label (no properties, anchors or extras, not a top) with one in-edge,
    and each collapsed edge a label alone (no attributes or extras). No two
    patterns collapse one node or rename one entity node."""
    by_id = g.node_by_id()
    out_edges = {n.id: [] for n in g.nodes}
    in_deg = {n.id: 0 for n in g.nodes}
    try:
        for e in g.edges:
            out_edges[e.source].append(e)
            in_deg[e.target] += 1
    except KeyError:  # worded as validate_graph's DanglingEdge, which parse_mrp refuses
        raise MrpValidationError(f"graph {g.id}: edge {e.source}->{e.target} references a missing node") from None
    tops = set(g.tops)

    def bare(e):
        """Whether edge e is a label alone into a bare node, not a top, that has no other in-edge."""
        m = by_id[e.target]
        return (not (e.attributes or e.extras or m.properties or m.extras)
                and m.anchors is None and m.id not in tops and in_deg[m.id] == 1)

    def leaves(v, is_part):
        """v's children as (edge, leaf) in edge label order; None unless each is a bare leaf."""
        parts = [(e, by_id[e.target]) for e in out_edges[v.id]]
        if not all(is_part(e.label) and bare(e) and not out_edges[e.target] for e, _ in parts):
            return None
        return sorted(parts, key=lambda p: natural_key(p[0].label))

    found = []
    for v in sorted(g.nodes, key=lambda n: n.id):
        named = []
        for e in out_edges[v.id]:
            m = by_id[e.target]
            if e.label == "name" and m.label == "name" and bare(e):
                ops = leaves(m, lambda label: OP_RE.match(label or ""))
                if ops:
                    named.append(("named", v, ops, [m] + [leaf for _, leaf in ops]))
        if len(named) == 1:  # a placeholder stands for one name
            found += named
        if v.label == "date-entity":
            fields = leaves(v, DATE_FIELDS.__contains__)
            if fields:
                found.append(("date", v, fields, [leaf for _, leaf in fields]))
    return found


def _anonymize(g, sent, tables, update):
    entry = {}
    counters = {}
    used_tokens = set()
    removed_nodes = set()
    renamed = {}  # entity node id -> its placeholder
    replacements = []  # replace_spans runs
    forms = sent.forms
    labels = {n.label for n in g.nodes}  # a placeholder must not be one of them

    for kind, v, parts, collapsed in _entity_subgraphs(g):
        words = [leaf.label for _, leaf in parts]
        pos = find_phrase(forms, words, used_tokens)
        if pos is None:
            continue
        tag = sent.ner_tags[pos]
        if tag == "O":
            continue
        placeholder = _mint(counters, tag)
        if placeholder in labels:
            continue
        if update:
            tables.entity_types.setdefault(tag, {})
            tables.entity_types[tag][v.label] = tables.entity_types[tag].get(v.label, 0) + 1
        entry[placeholder] = {"kind": kind, "type": v.label, "parts": [[e.label, leaf.label] for e, leaf in parts]}
        removed_nodes.update(n.id for n in collapsed)
        renamed[v.id] = placeholder
        used_tokens.update(range(pos, pos + len(words)))
        replacements.append((pos, pos + len(words) - 1, placeholder, placeholder, "NNP", tag))

    # entity nodes are renamed only here, which is safe as no pattern reads a renamed label
    nodes = [n if n.id not in renamed else MrpNode(n.id, renamed[n.id], n.properties, n.anchors, n.extras)
             for n in g.nodes if n.id not in removed_nodes]
    edges = [e for e in g.edges if e.target not in removed_nodes]  # each one's only in-edge
    return g.derive(nodes, edges), replace_spans(sent, sorted(replacements)), entry


def sentence_entry(sent: CompanionSentence, tables: AmrTables):
    """Test-time preprocessing: anonymize the sentence from NER tags alone
    and build the restoration entry from corpus statistics: a DATE run's
    words as `day` fields, any other run's as `op1`, `op2`, ..."""
    entry = {}
    counters = {}
    runs = []
    i = 0
    for tag, run in itertools.groupby(sent.ner_tags):
        j = i + len(list(run))
        if tag != "O":
            placeholder = _mint(counters, tag)
            kind, fallback = ("date", "date-entity") if tag == "DATE" else ("named", "thing")
            entry[placeholder] = {"kind": kind, "type": tables.best_entity_type(tag, fallback),
                                  "parts": [["day" if kind == "date" else f"op{k}", t.form]
                                            for k, t in enumerate(sent.tokens[i:j], start=1)]}
            runs.append((i, j - 1, placeholder, placeholder, "NNP", tag))
        i = j
    return replace_spans(sent, runs), entry


def _mint(counters, tag):
    """The next placeholder for an entity tagged `tag`, as in PERSON_0."""
    template = TEMPLATES.get(tag, "ENTITY")
    k = counters.get(template, 0)
    counters[template] = k + 1
    return f"{template}_{k}"


def amr_postprocess(g: MrpGraph, entry: dict, tables: AmrTables) -> MrpGraph:
    """Assign senses and polarity, then expand each placeholder node back
    into the entity sub-graph its entry records."""
    nodes, edges = list(g.nodes), list(g.edges)
    placeholders = []  # positions in nodes
    for i, n in enumerate(g.nodes):
        if n.label is None:
            continue
        template, _, k = n.label.rpartition("_")  # the inverse of _mint
        if template in _MINTED and k.isdecimal():
            placeholders.append(i)
            continue
        stem = n.label
        label = tables.best_sense(stem)
        polarity = tables.wants_polarity(stem) and "polarity" not in dict(n.properties)
        if label != stem or polarity:
            properties = [*n.properties, ("polarity", "-")] if polarity else n.properties
            nodes[i] = MrpNode(n.id, label, properties, n.anchors, n.extras)

    new_ids = itertools.count(max((n.id for n in nodes), default=-1) + 1)

    def add(label, parent, edge_label):
        node = MrpNode(next(new_ids), label=label)
        nodes.append(node)
        edges.append(MrpEdge(parent.id, node.id, edge_label))
        return node

    for pos in placeholders:
        v = nodes[pos]
        info = entry.get(v.label)
        if info is None:
            log.warning("no anonymization entry for %s; leaving placeholder", v.label)
            continue
        nodes[pos] = v = MrpNode(v.id, info["type"], v.properties, v.anchors, v.extras)
        parent = add("name", v, "name") if info["kind"] == "named" else v
        for edge_label, word in info["parts"]:
            add(word, parent, edge_label)
    return g.derive(nodes, edges)
