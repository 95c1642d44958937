"""AMR-specific transforms: sense stripping and restoration, wiki/polarity
handling, and named-entity anonymization.

Entity sub-graphs (an entity-type node pointing at a `name` node with op
children, or a date-entity with field children) collapse to a single
placeholder node such as PERSON_0, and the matching sentence tokens
collapse to the same placeholder. The tables learned during training —
sense frequencies, polarity attachment rates, NER-tag/entity-type
statistics — drive the inverse at parse time.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from ..companion import CompanionSentence, replace_spans
from ..mrp import MrpEdge, MrpGraph, MrpNode

log = logging.getLogger(__name__)

SENSE_RE = re.compile(r"^(.+?)-(\d{2,})$")
OP_RE = re.compile(r"^op(\d+)$")
DATE_FIELDS = ("year", "month", "day", "weekday")

DEFAULT_TEMPLATES = {
    "PER": "PERSON",
    "LOC": "LOCATION",
    "ORG": "ORGANIZATION",
    "GPE": "LOCATION",
    "DATE": "DATE",
    "MISC": "ENTITY",
}

@dataclass
class AmrTables:
    """Corpus statistics for the inverse transforms."""
    senses: dict = field(default_factory=dict)        # stem -> {full label: count}
    bare: dict = field(default_factory=dict)          # labels seen without a sense
    polarity: dict = field(default_factory=dict)      # stem -> [with polarity, total]
    entity_types: dict = field(default_factory=dict)  # NER tag -> {type label: count}
    templates: dict = field(default_factory=lambda: dict(DEFAULT_TEMPLATES))

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
        out = []
        for stem in sorted(self.senses):
            out.append(json.dumps({"kind": "sense", "stem": stem, "counts": self.senses[stem]},
                                  sort_keys=True))
        for label in sorted(self.bare):
            out.append(json.dumps({"kind": "bare", "label": label, "count": self.bare[label]},
                                  sort_keys=True))
        for stem in sorted(self.polarity):
            w, t = self.polarity[stem]
            out.append(json.dumps({"kind": "polarity", "stem": stem, "with": w, "total": t},
                                  sort_keys=True))
        for tag in sorted(self.entity_types):
            out.append(json.dumps({"kind": "entity", "tag": tag, "counts": self.entity_types[tag]},
                                  sort_keys=True))
        for tag in sorted(self.templates):
            out.append(json.dumps({"kind": "template", "tag": tag, "template": self.templates[tag]},
                                  sort_keys=True))
        return out

    @classmethod
    def from_lines(cls, lines):
        t = cls(templates={})
        for line in lines:
            if not line.strip():
                continue
            obj = json.loads(line)
            if obj["kind"] == "sense":
                t.senses[obj["stem"]] = {k: int(v) for k, v in obj["counts"].items()}
            elif obj["kind"] == "bare":
                t.bare[obj["label"]] = int(obj["count"])
            elif obj["kind"] == "polarity":
                t.polarity[obj["stem"]] = [int(obj["with"]), int(obj["total"])]
            elif obj["kind"] == "entity":
                t.entity_types[obj["tag"]] = {k: int(v) for k, v in obj["counts"].items()}
            elif obj["kind"] == "template":
                t.templates[obj["tag"]] = obj["template"]
        return t


def _strip_sense(label):
    m = SENSE_RE.match(label or "")
    if m:
        return m.group(1), label
    return label, None


def amr_preprocess(g: MrpGraph, sent: CompanionSentence, tables: AmrTables | None = None,
                   update=False):
    """Strip senses/wiki/polarity and anonymize entity sub-graphs.

    Returns (graph, sentence, entry) where entry maps each placeholder to
    the information needed to rebuild its sub-graph and surface phrase.
    With update=True, corpus statistics accumulate into `tables`.
    """
    if tables is None:
        tables = AmrTables()
    g = g.copy()
    for n in g.nodes:
        stem, full = _strip_sense(n.label)
        if update:
            if full is not None:
                tables.senses.setdefault(stem, {})
                tables.senses[stem][full] = tables.senses[stem].get(full, 0) + 1
            elif n.label is not None:
                tables.bare[n.label] = tables.bare.get(n.label, 0) + 1
        has_polarity = any(p == "polarity" for p, _ in n.properties)
        if update and n.label is not None:
            w, t = tables.polarity.get(stem, (0, 0))
            tables.polarity[stem] = [w + (1 if has_polarity else 0), t + 1]
        n.label = stem
        n.properties = [(p, v) for p, v in n.properties if p not in ("wiki", "polarity")]

    g, sent, entry = _anonymize(g, sent, tables, update)
    return g, sent, entry


def _entity_subgraphs(g):
    """(entity node, name node, [(op index, leaf node)]) triples plus
    date-entity patterns (entity node, None, [(field, leaf)])."""
    by_id = g.node_by_id()
    out_edges = {n.id: [] for n in g.nodes}
    in_deg = {n.id: 0 for n in g.nodes}
    for e in g.edges:
        out_edges[e.source].append(e)
        in_deg[e.target] += 1
    found = []
    for v in sorted(g.nodes, key=lambda n: n.id):
        for e in out_edges[v.id]:
            m = by_id[e.target]
            if e.label == "name" and m.label == "name":
                ops = []
                ok = in_deg[m.id] == 1
                for oe in out_edges[m.id]:
                    om = OP_RE.match(oe.label or "")
                    leaf = by_id[oe.target]
                    if not om or out_edges[leaf.id] or in_deg[leaf.id] != 1:
                        ok = False
                        break
                    ops.append((int(om.group(1)), leaf, oe))
                if ok and ops:
                    found.append(("named", v, m, e, sorted(ops, key=lambda p: p[0])))
        if v.label == "date-entity":
            fields = []
            ok = True
            for oe in out_edges[v.id]:
                if oe.label not in DATE_FIELDS:
                    ok = False
                    break
                leaf = by_id[oe.target]
                if out_edges[leaf.id] or in_deg[leaf.id] != 1:
                    ok = False
                    break
                fields.append((oe.label, leaf, oe))
            if ok and fields:
                found.append(("date", v, None, None, sorted(fields, key=lambda p: p[0])))
    return found


def _find_phrase(sent, words, used):
    forms = sent.forms
    for i in range(len(forms) - len(words) + 1):
        if forms[i:i + len(words)] == words and not any(k in used for k in range(i, i + len(words))):
            return i
    return None


def _anonymize(g, sent, tables, update):
    entry = {}
    counters = {}
    used_tokens = set()
    removed_nodes = set()
    removed_edges = []
    replacements = []  # (token lo, hi, placeholder, tag)

    for kind, v, m, name_edge, parts in _entity_subgraphs(g):
        if v.id in removed_nodes or (m is not None and m.id in removed_nodes):
            continue
        words = [leaf.label for _, leaf, _ in parts]
        if any(w is None for w in words):
            continue
        pos = _find_phrase(sent, words, used_tokens)
        if pos is None:
            continue
        tag = sent.ner_tags[pos]
        if tag == "O":
            continue
        template = tables.templates.get(tag, "ENTITY")
        k = counters.get(template, 0)
        counters[template] = k + 1
        placeholder = f"{template}_{k}"
        if update:
            tables.entity_types.setdefault(tag, {})
            tables.entity_types[tag][v.label] = tables.entity_types[tag].get(v.label, 0) + 1
        if kind == "named":
            entry[placeholder] = {"kind": "named", "type": v.label,
                                  "phrase": words}
            removed_nodes.update([m.id] + [leaf.id for _, leaf, _ in parts])
            removed_edges.extend([name_edge] + [oe for _, _, oe in parts])
        else:
            entry[placeholder] = {"kind": "date", "type": v.label,
                                  "parts": [[lab, leaf.label] for lab, leaf, _ in parts]}
            removed_nodes.update(leaf.id for _, leaf, _ in parts)
            removed_edges.extend(oe for _, _, oe in parts)
        v.label = placeholder
        for i in range(pos, pos + len(words)):
            used_tokens.add(i)
        replacements.append((pos, pos + len(words) - 1, placeholder, tag))

    dead = {id(e) for e in removed_edges}
    g.nodes = [n for n in g.nodes if n.id not in removed_nodes]
    g.edges = [e for e in g.edges if id(e) not in dead]
    return g, replace_spans(sent, sorted(replacements)), entry


def sentence_entry(sent: CompanionSentence, tables: AmrTables):
    """Test-time preprocessing: anonymize the sentence from NER tags alone
    and build the restoration entry from corpus statistics."""
    entry = {}
    counters = {}
    runs = []
    i = 0
    while i < len(sent.tokens):
        tag = sent.ner_tags[i]
        if tag == "O":
            i += 1
            continue
        j = i
        while j + 1 < len(sent.tokens) and sent.ner_tags[j + 1] == tag:
            j += 1
        words = [t.form for t in sent.tokens[i:j + 1]]
        template = tables.templates.get(tag, "ENTITY")
        k = counters.get(template, 0)
        counters[template] = k + 1
        placeholder = f"{template}_{k}"
        if tag == "DATE":
            entry[placeholder] = {"kind": "date",
                                  "type": tables.best_entity_type(tag, "date-entity"),
                                  "parts": [["day", w] for w in words]}
        else:
            entry[placeholder] = {"kind": "named",
                                  "type": tables.best_entity_type(tag, "thing"),
                                  "phrase": words}
        runs.append((i, j, placeholder, tag))
        i = j + 1
    return replace_spans(sent, runs), entry


def amr_postprocess(g: MrpGraph, entry: dict, tables: AmrTables) -> MrpGraph:
    """Assign senses and polarity, then expand placeholder nodes back into
    entity sub-graphs."""
    g = g.copy()
    templates = {*tables.templates.values(), "ENTITY"}  # what _anonymize and sentence_entry use
    placeholders = []
    for n in g.nodes:
        if n.label is None:
            continue
        template, _, k = n.label.rpartition("_")
        if template in templates and k.isdecimal():
            placeholders.append(n)
            continue
        stem = n.label
        n.label = tables.best_sense(stem)
        if tables.wants_polarity(stem) and "polarity" not in dict(n.properties):
            n.properties.append(("polarity", "-"))

    next_id = max((n.id for n in g.nodes), default=-1) + 1
    for v in placeholders:
        info = entry.get(v.label)
        if info is None:
            log.warning("no anonymization entry for %s; leaving placeholder", v.label)
            continue
        v.label = info["type"]
        if info["kind"] == "named":
            m = MrpNode(next_id, label="name")
            next_id += 1
            g.nodes.append(m)
            g.edges.append(MrpEdge(v.id, m.id, "name"))
            for i, word in enumerate(info["phrase"], start=1):
                leaf = MrpNode(next_id, label=word)
                next_id += 1
                g.nodes.append(leaf)
                g.edges.append(MrpEdge(m.id, leaf.id, f"op{i}"))
        else:
            for lab, value in info["parts"]:
                leaf = MrpNode(next_id, label=value)
                next_id += 1
                g.nodes.append(leaf)
                g.edges.append(MrpEdge(v.id, leaf.id, lab))
    return g
