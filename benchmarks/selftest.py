"""Shows that every independent check accepts the program's real output and
rejects a deliberately corrupted copy of it.

    python3 benchmarks/selftest.py

Exits 0 when every check behaves, 1 otherwise, listing each case.
"""

from __future__ import annotations

import copy
import json
import sys

import checks
import run  # puts ./src on the path

FAILURES = []


def expect(name, problems, should_pass):
    ok = (not problems) == should_pass
    print(f"{'ok  ' if ok else 'FAIL'} {'accepts' if should_pass else 'rejects'} {name}"
          + ("" if should_pass or not problems else f": {problems[0]}"))
    if not ok:
        FAILURES.append(name)


def graph_cases():
    w = run.PrepRoundtrip(seed=1)
    state = w.setup()
    for fw in ("amr", "eds", "ucca"):
        it = next(i for i in w.items if i.framework == fw and i.drifted
                  and (fw != "ucca" or any(e.get("attributes") for e in i.graph["edges"])))
        line, tokens = w.roundtrip(it, *state)
        out = json.loads(line)
        expect(f"{fw} round trip", checks.same_graph(it.graph, out), True)
        expect(f"{fw} alignment (drifted)",
               checks.alignment(it.graph["input"], tokens, it.offsets, it.lemmas), True)

        def corrupt(name, edit):
            bad = copy.deepcopy(out)
            edit(bad)
            expect(f"{fw} {name}", checks.same_graph(it.graph, bad), False)

        labelled = next(n for n in out["nodes"] if "label" in n) if fw != "ucca" else None
        if labelled:
            corrupt("node label changed", lambda g: g["nodes"][out["nodes"].index(labelled)]
                    .update(label=labelled["label"] + "x"))
        anchored = next(i for i, n in enumerate(out["nodes"]) if n.get("anchors")) \
            if fw != "amr" else None
        if anchored is not None:
            corrupt("anchor moved", lambda g: g["nodes"][anchored]["anchors"][0].update(
                to=g["nodes"][anchored]["anchors"][0]["to"] - 1))
        with_props = next((i for i, n in enumerate(out["nodes"]) if n.get("properties")), None)
        if with_props is not None:
            corrupt("property value changed", lambda g: g["nodes"][with_props]["values"].__setitem__(0, "zz"))
        corrupt("edge dropped", lambda g: g["edges"].pop())
        corrupt("edge label changed", lambda g: g["edges"][0].update(label="XX"))
        corrupt("edge reversed", lambda g: g["edges"][0].update(
            source=g["edges"][0]["target"], target=g["edges"][0]["source"]))
        corrupt("extra node", lambda g: g["nodes"].append({"id": 10_000, "label": "extra"}))
        corrupt("top moved", lambda g: g.update(tops=[g["edges"][0]["target"]]))
        corrupt("input changed", lambda g: g.update(input=g["input"] + " "))
        if fw == "ucca":
            remote = next(i for i, e in enumerate(out["edges"]) if e.get("attributes"))
            corrupt("remote attribute dropped", lambda g: [g["edges"][remote].pop(k) for k in ("attributes", "values")])

    for drifted in (False, True):
        it = next(i for i in w.items if i.drifted == drifted)
        _, tokens = w.roundtrip(it, *state)
        text, kind = it.graph["input"], "drifted" if drifted else "undrifted"

        def bad(name, edited):
            expect(f"alignment ({kind}): {name}", checks.alignment(text, edited, it.offsets, it.lemmas),
                   False)

        expect(f"alignment ({kind}) as computed", checks.alignment(text, tokens, it.offsets, it.lemmas),
               True)
        form, s, e, lemma = tokens[1]
        bad("form not the input slice", [tokens[0], (form + "x", s, e, lemma)] + tokens[2:])
        bad("overlapping tokens", [tokens[0], (text[s - 2:e], s - 2, e, lemma)] + tokens[2:])
        bad("a token dropped", tokens[:1] + tokens[2:])
        bad("a token split mid-word", tokens[:1] + [(text[s:s + 1], s, s + 1, lemma),
                                                    (text[s + 1:e], s + 1, e, lemma)] + tokens[2:])
        bad("offsets shifted", [(text[s:e + 1], s, e + 1, lemma) if k == 1 else t
                                for k, t in enumerate(tokens)])
        bad("a lemma from another token", [(f, a, b, tokens[2][3]) if k == 1 else (f, a, b, lm)
                                           for k, (f, a, b, lm) in enumerate(tokens)])


def encoder_cases():
    w = run.EncodeTrain(seed=1)
    ag = w.ag
    w.sents = w.sents[:run.CHECKED_SENTENCES]
    ops = w.ops(w.setup())
    _, results = run.reference_round(w, ops)
    expect("encoder: all checks on real output", sum(w.check(results), []), True)

    r, loss, grads = results[0]
    bad = r.copy()
    bad[0, 0] += 1e-6
    expect("encoder forward perturbed by 1e-6", w.check([(bad, loss, grads)])[0], False)

    sent = w.sents[0]
    with ag.no_grad():
        plain = w.enc.encode(sent)[0].data
    expect("no_grad forward equals the taped one", checks.close(r, plain, 1e-12), True)
    expect("no_grad forward perturbed by 1e-9", checks.close(r, plain + 1e-9, 1e-12), False)

    skewed = [None if g is None else g * 1.001 for g in grads]
    expect("gradient scaled by 1.001", w._grad_check(sent, skewed, 0), False)
    expect("gradient as computed", w._grad_check(sent, grads, 0), True)


if __name__ == "__main__":
    graph_cases()
    encoder_cases()
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "every check behaves")
    sys.exit(1 if FAILURES else 0)
