"""Independent checks of the program's outputs.

None of these use `mrparse` code to decide what is right: graphs are
compared as JSON objects from the generator, alignment against the input
string, and the encoder against a separate numpy forward pass. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np


# -- graphs up to node ids --------------------------------------------------


def _node_key(n):
    props = sorted(zip(n.get("properties") or [], map(json.dumps, n.get("values") or [])))
    anchors = sorted((a["from"], a["to"]) for a in n.get("anchors") or [])
    return json.dumps([n.get("label"), anchors, props, "anchors" in n and n["anchors"] is not None])


def _edge_key(e):
    return json.dumps([e.get("label"),
                       sorted(zip(e.get("attributes") or [], map(json.dumps, e.get("values") or [])))])


def _refine(graphs):
    """Colour refinement (1-dimensional Weisfeiler-Leman) run jointly over
    several graphs, so colours are comparable between them. Starts from the
    node's own content and repeats until the partition stops splitting."""
    colours = [{n["id"]: _node_key(n) for n in g["nodes"]} for g in graphs]
    table = {}
    for c in colours:
        for nid, key in c.items():
            c[nid] = table.setdefault(("init", key), len(table))
    classes = -1
    while True:
        nxt = []
        for g, c in zip(graphs, colours):
            out = {nid: [] for nid in c}
            inc = {nid: [] for nid in c}
            for e in g["edges"]:
                k = _edge_key(e)
                out[e["source"]].append((k, c[e["target"]]))
                inc[e["target"]].append((k, c[e["source"]]))
            sig = {nid: (c[nid], tuple(sorted(out[nid])), tuple(sorted(inc[nid]))) for nid in c}
            nxt.append(sig)
        table = {}
        for sig in nxt:
            for s in sorted(sig.values()):
                table.setdefault(s, len(table))
        colours = [{nid: table[s] for nid, s in sig.items()} for sig in nxt]
        if len(table) == classes:
            return colours
        classes = len(table)


def _signature(g, c):
    nodes = sorted(c.values())
    edges = sorted((c[e["source"]], c[e["target"]], _edge_key(e)) for e in g["edges"])
    tops = sorted(c[t] for t in g.get("tops") or [])
    return nodes, edges, tops


def same_graph(expected, got):
    """Problems with `got` as a copy of `expected` up to node ids: graph
    id, framework, input, node labels, anchors and properties, edge labels
    and attributes, and tops. Both are MRP records as JSON objects."""
    problems = []
    for key in ("id", "framework", "input"):
        if expected.get(key) != got.get(key):
            problems.append(f"{key} differs")
    ids = [n["id"] for n in got["nodes"]]
    if len(set(ids)) != len(ids):
        return problems + ["repeated node id"]
    known = set(ids)
    if any(e["source"] not in known or e["target"] not in known for e in got["edges"]) or \
            any(t not in known for t in got.get("tops") or []):
        return problems + ["dangling edge or top"]
    ce, cg = _refine([expected, got])
    se, sg = _signature(expected, ce), _signature(got, cg)
    for name, a, b in zip(("nodes", "edges", "tops"), se, sg):
        if a != b:
            problems.append(f"{name} differ")
    return problems


# -- alignment --------------------------------------------------------------


def alignment(text, tokens, offsets, lemmas):
    """`tokens` are the aligned tokens as (form, start, end, lemma). Every
    form must be text[start:end] and tokens may not overlap. On drifted
    sentences too, the repair re-splits the input at its own spaces, so the
    offsets must equal the generator's `offsets`, and each lemma must be
    the one in `lemmas`: that of the companion token over the word."""
    problems = []
    prev_end = 0
    for form, start, end, _ in tokens:
        if text[start:end] != form:
            problems.append(f"token {form!r} is not input[{start}:{end}]")
        if start < prev_end:
            problems.append(f"token {form!r} overlaps its predecessor")
        prev_end = end
    if [(s, e) for _, s, e, _ in tokens] != [tuple(o) for o in offsets]:
        problems.append("offsets differ from the generated tokens")
    elif [lemma for *_, lemma in tokens] != list(lemmas):
        problems.append("lemmas differ from the companion's")
    return problems


# -- encoder ----------------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm(xs, w, b):
    """Rows of xs through one LSTM; gates = [x; h] @ w + b in the order
    input, forget, candidate, output."""
    nh = w.shape[1] // 4
    h = np.zeros(nh)
    c = np.zeros(nh)
    out = []
    for x in xs:
        z = np.concatenate([x, h]) @ w + b
        i, f = _sigmoid(z[:nh]), _sigmoid(z[nh:2 * nh])
        g, o = np.tanh(z[2 * nh:3 * nh]), _sigmoid(z[3 * nh:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out)


def reference_forward(state, index, tokens, tags, layers):
    """Encoder forward pass from the parameter arrays alone: word, POS,
    lemma, character-LSTM and NER features per token, then `layers`
    bidirectional LSTM layers. `index(vocab, item)` maps to a row;
    `tokens` are (form, lemma, xpos)."""
    words = state["word.table"][[index("word", f.lower()) for f, _, _ in tokens]]
    pos = state["pos.table"][[index("xpos", x) for _, _, x in tokens]]
    lemmas = state["lemma.table"][[index("lemma", lm.lower()) for _, lm, _ in tokens]]
    ner = state["ner.table"][[index("ner", t) for t in tags]]
    chars = np.array([
        _lstm(state["char.emb.table"][[index("char", ch) for ch in f]],
              state["char.cell.w"], state["char.cell.b"])[-1]
        for f, _, _ in tokens])
    h = np.concatenate([words, pos, lemmas, chars, ner], axis=1)
    for layer in range(layers):
        fwd = _lstm(h, state[f"bilstm.l{layer}f.w"], state[f"bilstm.l{layer}f.b"])
        bwd = _lstm(h[::-1], state[f"bilstm.l{layer}b.w"], state[f"bilstm.l{layer}b.b"])[::-1]
        h = np.concatenate([fwd, bwd], axis=1)
    return h


def close(expected, got, tol):
    if expected.shape != got.shape:
        return [f"shape {got.shape} instead of {expected.shape}"]
    err = float(np.max(np.abs(expected - got))) if expected.size else 0.0
    return [] if err <= tol else [f"differs by {err:.3g} (tolerance {tol:g})"]


def directional_derivative(analytic, loss_at, eps):
    """Central difference of loss_at(t) at t=0 against the analytic
    directional derivative (the gradient dotted with the direction)."""
    numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
    return [] if err <= 1e-6 else [f"directional derivative {analytic:.9g} vs central "
                                   f"difference {numeric:.9g} (relative error {err:.3g})"]
