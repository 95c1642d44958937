"""Fixed reference kernels that measure the machine's current speed.

The machine this benchmark was written on drifts: a 1-second window can run
twice as slow as the next, with CPU time within a few percent of wall time
(so it is not steal time that could be subtracted), and there are no
hardware counters. Each kernel here is timed right beside the work, and
every timing is scaled by nominal / measured kernel time. The correction
must resemble the workload, so each workload weighs the two kernels below
(see `kernels` in run.py): the graph chain takes the geometric mean of
both; encoder inference, which spends its time in the interpreter and in
per-call numpy overhead, takes the python kernel; encoder training, whose
backward is dominated by memory traffic, takes the numpy kernel.

These kernels import nothing from `mrparse` and must never change: their
nominal times are constants, and a changed kernel would rescale every
corrected figure. A change that slows the whole interpreter (a global trace
hook, say) slows the kernel too and is partly hidden by the correction; the
raw figures every run prints show it.
"""

from __future__ import annotations

import difflib
import json
import random
import re
from dataclasses import dataclass, field

# Median seconds per call, measured on the 2-core KVM guest the benchmark
# was written on (Python 3.11, numpy 2.4).
NOMINAL_S = {"python": 0.00165, "numpy": 0.00675}

_SEGMENTS = re.compile(r"\d+|\D+")


@dataclass
class _Node:
    id: int
    label: str | None = None
    properties: list = field(default_factory=list)
    anchors: list | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class _Edge:
    source: int
    target: int
    label: str | None = None
    attributes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _natural(label):
    return tuple((0, int(s), "") if s.isdigit() else (1, 0, s) for s in _SEGMENTS.findall(label))


def python_kernel():
    """A miniature of the graph chain on a fixed 40-node graph: a JSON
    record into dataclasses, a copy by serializing and parsing again,
    children sorted in natural label order, a depth-first walk, a difflib
    match of a drifted stretch and serializing the result."""
    rnd = random.Random(11)
    words = ["".join(rnd.choice("kmprvz") + rnd.choice("aeiou") for _ in range(3)) for _ in range(40)]
    nodes = []
    pos = 0
    for i, w in enumerate(words):
        nodes.append({"id": i, "label": f"_{w}_n_1", "anchors": [{"from": pos, "to": pos + len(w)}],
                      "properties": ["carg"], "values": [w]})
        pos += len(w) + 1
    edges = [{"source": i, "target": i + 1 + rnd.randrange(3), "label": f"ARG{rnd.randrange(3)}"}
             for i in range(36)]
    line = json.dumps({"id": "k", "input": " ".join(words), "tops": [0], "nodes": nodes, "edges": edges})
    region, drifted = " ".join(words[8:14]), " ".join(words[8:10] + [words[10] + words[11]] + words[12:14])

    def parse(text):
        obj = json.loads(text)
        ns = [_Node(n["id"], n["label"], list(zip(n["properties"], n["values"])),
                    [(a["from"], a["to"]) for a in n["anchors"]]) for n in obj["nodes"]]
        es = [_Edge(e["source"], e["target"], e["label"]) for e in obj["edges"]]
        return obj, ns, es

    def serialize(obj, ns, es):
        return json.dumps({
            "id": obj["id"], "input": obj["input"], "tops": obj["tops"],
            "nodes": [{"id": n.id, "label": n.label, "anchors": [{"from": a, "to": b} for a, b in n.anchors],
                       "properties": [p for p, _ in n.properties], "values": [v for _, v in n.properties]}
                      for n in ns],
            "edges": [{"source": e.source, "target": e.target, "label": e.label} for e in es],
        }, ensure_ascii=False, separators=(",", ":"))

    def run():
        obj, ns, es = parse(line)
        obj, ns, es = parse(serialize(obj, ns, es))
        by_id = {n.id: n for n in ns}
        children = {n.id: [] for n in ns}
        for e in es:
            children[e.source].append(e)
        for k in children:
            children[k].sort(key=lambda e: (_natural(by_id[e.target].label), e.target))
        seen, order, stack = set(), [], [0]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            order.append(nid)
            stack.extend(e.target for e in reversed(children[nid]))
        match = difflib.SequenceMatcher(None, region, drifted, autojunk=False)
        same = sum(b.size for b in match.get_matching_blocks())
        ns = [_Node(n.id, n.label.upper(), list(n.properties), list(n.anchors), dict(n.extras)) for n in ns]
        return len(serialize(obj, ns, es)) + same + len(order)

    return run


def numpy_kernel():
    """The Python kernel, then a 5-step LSTM-like recurrence of small numpy
    ops with a closure per step and an outer-product weight gradient per
    step into a (304, 512) buffer: interpreter work, per-call numpy
    overhead and memory traffic, as in the encoder's forward and backward."""
    import numpy as np

    python_part = python_kernel()

    rng = np.random.default_rng(7)
    w = rng.normal(scale=0.05, size=(304, 512))
    b = np.zeros(512)
    xs = rng.normal(size=(5, 1, 176))

    def run():
        h = np.zeros((1, 128))
        c = np.zeros((1, 128))
        tape = []
        for x in xs:
            xh = np.concatenate([x, h], axis=1)
            z = xh @ w + b
            i = 1.0 / (1.0 + np.exp(-z[:, :128]))
            f = 1.0 / (1.0 + np.exp(-z[:, 128:256]))
            g = np.tanh(z[:, 256:384])
            o = 1.0 / (1.0 + np.exp(-z[:, 384:]))
            c = f * c + i * g
            h = o * np.tanh(c)
            tape.append((xh, lambda d, z=z: d * (1.0 - np.tanh(z) ** 2)))
        grad = np.zeros_like(w)
        d = np.ones((1, 512))
        for xh, back in reversed(tape):
            grad += np.outer(xh, back(d))
        return float(grad[0, 0]) + python_part()

    return run


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
