"""Spans around the public functions of each `mrparse` module, installed
from outside the program for the traced run.

A wrapper replaces the function wherever a loaded `mrparse` module holds a
reference to it, so calls bound under another name are caught too:
`graph_to_tree` as imported into `prep.ucca`, `MrpGraph.copy` inside the AMR
transforms, and the autograd ops that Tensor operators reach through module
globals. Self time is a
span's duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module under mrparse, attribute path, span name)
GRAPH_SPANS = [
    ("mrp", "parse_mrp", "mrp.parse_mrp"),
    ("mrp", "serialize_mrp", "mrp.serialize_mrp"),
    ("mrp", "MrpGraph.copy", "mrp.MrpGraph.copy"),
    ("companion", "read_companion", "companion.read_companion"),
    ("companion", "align_companion", "companion.align_companion"),
    ("prep.amr", "amr_preprocess", "prep.amr.amr_preprocess"),
    ("prep.amr", "amr_postprocess", "prep.amr.amr_postprocess"),
    ("prep.eds", "eds_exchange_properties", "prep.eds.eds_exchange_properties"),
    ("prep.eds", "apply_multiword", "prep.eds.apply_multiword"),
    ("prep.eds", "eds_reduce", "prep.eds.eds_reduce"),
    ("prep.eds", "eds_restore", "prep.eds.eds_restore"),
    ("prep.ucca", "ucca_mark_implicit", "prep.ucca.ucca_mark_implicit"),
    ("prep.ucca", "ucca_strip_implicit", "prep.ucca.ucca_strip_implicit"),
    ("prep.ucca", "encode_graph_attrs", "prep.ucca.encode_graph_attrs"),
    ("prep.ucca", "decode_graph_attrs", "prep.ucca.decode_graph_attrs"),
    ("prep.anchors", "anchors_to_spans", "prep.anchors.anchors_to_spans"),
    ("prep.anchors", "spans_to_anchors", "prep.anchors.spans_to_anchors"),
    ("treeify", "graph_to_tree", "treeify.graph_to_tree"),
    ("treeify", "tree_to_graph", "treeify.tree_to_graph"),
]
AUTOGRAD_OPS = ("matmul", "add", "mul", "sigmoid", "tanh", "concat", "take")
ENCODER_SPANS = [("autograd", "backward", "autograd.backward")] + [
    ("autograd", op, f"autograd.{op}") for op in AUTOGRAD_OPS] + [
    ("nn.core", "LSTMCell.run", "nn.core.LSTMCell.run"),
    ("nn.core", "LSTMCell.step", "nn.core.LSTMCell.step"),
    ("nn.core", "BiLSTM.__call__", "nn.core.BiLSTM"),
    ("nn.core", "CharEncoder.__call__", "nn.core.CharEncoder"),
    ("nn.core", "Embedding.__call__", "nn.core.Embedding"),
    ("nn.encoder", "SentenceEncoder.embed_sentence", "nn.encoder.embed_sentence"),
]

# per-layer metrics: (name, span, statistic); every one is per sentence
METRICS = (
    [("autograd.backward.ms", "autograd.backward", "ms")]
    + [(f"autograd.{op}.{stat}", f"autograd.{op}", stat)
       for op in AUTOGRAD_OPS for stat in ("calls", "ms")]
    + [("nn.core.LSTMCell.run.ms", "nn.core.LSTMCell.run", "ms"),
       ("nn.core.LSTMCell.step.calls", "nn.core.LSTMCell.step", "calls"),
       ("nn.core.BiLSTM.self_ms", "nn.core.BiLSTM", "self_ms"),
       ("nn.core.CharEncoder.ms", "nn.core.CharEncoder", "ms"),
       ("nn.core.CharEncoder.calls", "nn.core.CharEncoder", "calls"),
       ("nn.core.Embedding.ms", "nn.core.Embedding", "ms"),
       ("nn.core.Embedding.calls", "nn.core.Embedding", "calls"),
       ("nn.encoder.embed_sentence.self_ms", "nn.encoder.embed_sentence", "self_ms"),
       ("mrp.parse_mrp.ms", "mrp.parse_mrp", "ms"),
       ("mrp.serialize_mrp.ms", "mrp.serialize_mrp", "ms"),
       ("mrp.MrpGraph.copy.ms", "mrp.MrpGraph.copy", "ms"),
       ("mrp.MrpGraph.copy.calls", "mrp.MrpGraph.copy", "calls"),
       ("companion.read_companion.ms", "companion.read_companion", "ms"),
       ("companion.align_companion.ms", "companion.align_companion", "ms"),
       ("prep.amr.amr_preprocess.self_ms", "prep.amr.amr_preprocess", "self_ms"),
       ("prep.amr.amr_postprocess.self_ms", "prep.amr.amr_postprocess", "self_ms"),
       ("prep.eds.eds_exchange_properties.ms", "prep.eds.eds_exchange_properties", "ms"),
       ("prep.eds.apply_multiword.ms", "prep.eds.apply_multiword", "ms"),
       ("prep.eds.eds_reduce.ms", "prep.eds.eds_reduce", "ms"),
       ("prep.eds.eds_restore.ms", "prep.eds.eds_restore", "ms"),
       ("prep.ucca.ucca_mark_implicit.self_ms", "prep.ucca.ucca_mark_implicit", "self_ms"),
       ("prep.ucca.ucca_strip_implicit.ms", "prep.ucca.ucca_strip_implicit", "ms"),
       ("prep.ucca.encode_graph_attrs.ms", "prep.ucca.encode_graph_attrs", "ms"),
       ("prep.ucca.decode_graph_attrs.ms", "prep.ucca.decode_graph_attrs", "ms"),
       ("prep.anchors.anchors_to_spans.ms", "prep.anchors.anchors_to_spans", "ms"),
       ("prep.anchors.spans_to_anchors.ms", "prep.anchors.spans_to_anchors", "ms"),
       ("treeify.graph_to_tree.ms", "treeify.graph_to_tree", "ms"),
       ("treeify.tree_to_graph.ms", "treeify.tree_to_graph", "ms")]
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self._open = []  # time covered by the children of each open span
        self._undo = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        opened = self._open

        def span(*args, **kwargs):
            opened.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = opened.pop()
                if opened:
                    opened[-1] += dt
                self.total[name] += dt
                self.child[name] += inner
                self.calls[name] += 1

        return span

    def install(self, spans):
        """Wrap each span's target wherever an `mrparse` module holds a
        reference to it."""
        holders = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mrparse"]
        for module, path, name in spans:
            owner = sys.modules[f"mrparse.{module}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if classes:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def metrics(self, n_sentences):
        out = {}
        for name, span, stat in METRICS:
            if stat == "calls":
                value, unit = self.calls[span] / n_sentences, "count"
            elif stat == "ms":
                value, unit = 1e3 * self.total[span] / n_sentences, "ms"
            else:
                value, unit = 1e3 * (self.total[span] - self.child[span]) / n_sentences, "ms"
            out[name] = {"value": value, "unit": unit}
        return out
