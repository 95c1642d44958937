"""Benchmark of mrparse: the graph prep chain and the sentence encoder.

    python3 benchmarks/run.py --workload prep_roundtrip --seed 1 --seconds 25 --trace 0

Workloads: prep_roundtrip, encode_train, encode_infer (see README.md).
Run from the repository root; the program is imported from ./src. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it holds the raw
(uncorrected) figures and the reference kernel's own times.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import kernels  # noqa: E402
import tracing  # noqa: E402

KERNEL_EVERY_S = 0.05  # kernel samples at least this often during timing
KERNEL_NEIGHBOURS = 5  # samples on each side of a timing that correct it
SETUP_REPEATS = 15
CHECKED_SENTENCES = 3  # encoder sentences checked against the reference


def digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.digest()


# -- workloads ----------------------------------------------------------------


class PrepRoundtrip:
    """The graph side of one sentence: MRP line and companion block through
    parse, alignment, framework prep, anchors to spans and treeify, then
    the inverse chain back to an MRP line."""

    kernels = {"python": 0.5, "numpy": 0.5}
    spans = tracing.GRAPH_SPANS
    keep_first = None  # the reference round keeps every output

    def __init__(self, seed):
        from mrparse import companion, mrp, treeify
        from mrparse.prep import amr, anchors, eds, ucca
        self.m = dict(mrp=mrp, companion=companion, treeify=treeify,
                      amr=amr, anchors=anchors, eds=eds, ucca=ucca)
        train, self.items = gen.prep_inputs(seed)
        # reading the training split is input preparation, not set-up
        self.train = {fw: [self._read(it) for it in train if it.framework == fw]
                      for fw in ("amr", "eds")}

    def _read(self, it):
        mrp, companion = self.m["mrp"], self.m["companion"]
        g = mrp.parse_mrp(it.mrp)
        [sent] = companion.read_companion(it.companion)
        sent = companion.CompanionSentence(tokens=sent.tokens, id=sent.id,
                                           ner_tags=companion.read_ner_sidecar(it.ner)[0])
        return g, companion.align_companion(g, sent)

    def setup(self):
        amr, eds = self.m["amr"], self.m["eds"]
        tables = amr.AmrTables()
        for g, sent in self.train["amr"]:
            amr.amr_preprocess(g, sent, tables, update=True)
        return tables, eds.build_multiword_table(self.train["eds"])

    def ops(self, state):
        return [lambda it=it: self.roundtrip(it, *state) for it in self.items]

    def roundtrip(self, it, tables, multiword):
        m = self.m
        g, aligned = self._read(it)
        fw = g.framework
        if fw == "amr":
            h, sent, entry = m["amr"].amr_preprocess(g, aligned, tables)
        elif fw == "eds":
            h = m["eds"].eds_reduce(m["eds"].eds_exchange_properties(g))
            sent = m["eds"].apply_multiword(aligned, multiword)
        else:
            h = m["ucca"].encode_graph_attrs(m["ucca"].ucca_mark_implicit(g))
            sent = aligned
        h, _ = m["anchors"].anchors_to_spans(h, sent)
        tree = m["treeify"].graph_to_tree(h)
        back = m["treeify"].tree_to_graph(tree, framework=fw, graph_id=g.id, input_text=g.input)
        back = m["anchors"].spans_to_anchors(back, sent)
        if fw == "amr":
            back = m["amr"].amr_postprocess(back, entry, tables)
        elif fw == "eds":
            back = m["eds"].eds_exchange_properties(m["eds"].eds_restore(back))
        else:
            back = m["ucca"].ucca_strip_implicit(m["ucca"].decode_graph_attrs(back))
        return m["mrp"].serialize_mrp(back), [(t.form, t.start, t.end, t.lemma) for t in aligned.tokens]

    def summarise(self, result, keep):
        return digest(*result), result if keep else None

    def check(self, results):
        """Problems per sentence, from the reference round's outputs."""
        out = []
        for it, result in zip(self.items, results):
            if result is None:
                out.append([])
                continue
            line, tokens = result
            problems = checks.alignment(it.graph["input"], tokens, it.offsets, it.lemmas)
            try:
                problems += checks.same_graph(it.graph, json.loads(line))
            except (ValueError, KeyError, TypeError) as e:
                problems.append(f"unreadable output: {e!r}")
            out.append(problems)
        return out


class Encode:
    """SentenceEncoder over companion sentences, one sentence at a time."""

    kernels = {"python": 1.0}  # inference is interpreter-bound
    spans = tracing.ENCODER_SPANS
    train = False
    keep_first = CHECKED_SENTENCES  # gradients are large; keep only what is checked

    def __init__(self, seed):
        import numpy as np
        from mrparse import autograd, companion
        from mrparse.nn import encoder
        self.np, self.ag, self.enc_mod = np, autograd, encoder
        train, timed = gen.encode_inputs(seed, self.name)
        self.train_sents = [self._read(companion, s) for s in train]
        self.sents = [self._read(companion, s) for s in timed]
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.loss_w = rng.normal(size=(gen.ENC_TOKENS[1], encoder.EncoderConfig().output_width))

    @staticmethod
    def _read(companion, s):
        [sent] = companion.read_companion(s.companion)
        return companion.CompanionSentence(tokens=sent.tokens, id=sent.id,
                                           ner_tags=companion.read_ner_sidecar(s.ner)[0])

    def setup(self):
        vocabs = self.enc_mod.build_token_vocabs(self.train_sents)
        return self.enc_mod.SentenceEncoder(self.enc_mod.EncoderConfig(), vocabs,
                                            self.np.random.default_rng(self.seed))

    def ops(self, enc):
        self.enc = enc
        self.params = enc.parameters()
        return [lambda s=s: self.step(s) for s in self.sents]

    def loss(self, r):
        ag = self.ag
        return ag.tsum(ag.mul(r, ag.Tensor(self.loss_w[:r.shape[0]])))

    def step(self, sent):
        if not self.train:
            with self.ag.no_grad():
                r, _ = self.enc.encode(sent)
            return r.data, None
        r, _ = self.enc.encode(sent)
        loss = self.loss(r)
        self.ag.backward(loss)
        return r.data, loss.item()

    def summarise(self, result, keep):
        """Outside the timed region: the digest of the op's output and
        gradients, and, for the reference round, the output itself."""
        r, loss = result
        grads = [p.grad for p in self.params] if self.train else []
        d = digest(r.tobytes(), loss, [None if g is None else float(g.sum()) for g in grads])
        if not keep:
            return d, None
        return d, (r.copy(), loss, [None if g is None else g.copy() for g in grads])

    def check(self, results):
        ag = self.ag
        state = self.enc.state_arrays()
        vocabs = self.enc.vocabs
        out = []
        for k, (sent, result) in enumerate(zip(self.sents, results)):
            if k >= CHECKED_SENTENCES or result is None:
                out.append([])
                continue
            r, loss, grads = result
            tokens = [(t.form, t.lemma, t.xpos) for t in sent.tokens]
            ref = checks.reference_forward(state, lambda v, x: vocabs[v].index(x), tokens,
                                           sent.ner_tags, self.enc.cfg.layers)
            problems = ["forward: " + p for p in checks.close(ref, r, 1e-9)]
            if self.train:
                with ag.no_grad():
                    other = self.enc.encode(sent)[0].data
            else:
                other = self.enc.encode(sent)[0].data
            problems += ["no_grad: " + p for p in checks.close(other, r, 1e-12)]
            if self.train:
                problems += ["gradient: " + p for p in self._grad_check(sent, grads, k)]
            out.append(problems)
        return out

    def _grad_check(self, sent, grads, k):
        np, ag = self.np, self.ag
        rng = np.random.default_rng([self.seed, k])
        dirs = [rng.normal(size=p.data.shape) for p in self.params]
        norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
        dirs = [d / norm for d in dirs]
        analytic = sum(float((g * d).sum()) for g, d in zip(grads, dirs) if g is not None)
        originals = [p.data for p in self.params]

        def loss_at(t):
            for p, o, d in zip(self.params, originals, dirs):
                p.data = o + t * d
            try:
                with ag.no_grad():
                    return self.loss(self.enc.encode(sent)[0]).item()
            finally:
                for p, o in zip(self.params, originals):
                    p.data = o

        return checks.directional_derivative(analytic, loss_at, 1e-5)


class EncodeTrain(Encode):
    """Encoder forward plus backward of a scalar loss."""
    name = "encode_train"
    train = True
    kernels = {"numpy": 1.0}  # backward's memory traffic tracks the numpy kernel

    def before(self):
        for p in self.params:
            p.zero_grad()


class EncodeInfer(Encode):
    """Encoder forward only, under no_grad."""
    name = "encode_infer"


WORKLOADS = {"prep_roundtrip": PrepRoundtrip, "encode_train": EncodeTrain,
             "encode_infer": EncodeInfer}


# -- timing -------------------------------------------------------------------


class Clock:
    """Reference kernel samples taken beside the work, and the correction
    they give: the product over kernels of (nominal / measured) ** weight,
    where measured is the median of the samples nearest the timing."""

    def __init__(self, weights):
        self.weights = weights
        self.kernels = {k: kernels.KERNELS[k]() for k in weights}
        self.t = []
        self.dt = {k: [] for k in weights}
        for run in self.kernels.values():
            for _ in range(5):
                run()

    def sample(self):
        t0 = time.perf_counter()
        for k, run in self.kernels.items():
            k0 = time.perf_counter()
            run()
            self.dt[k].append(time.perf_counter() - k0)
        self.t.append((t0 + time.perf_counter()) / 2)

    def scale(self, at):
        i = bisect.bisect(self.t, at)
        lo, hi = max(0, i - KERNEL_NEIGHBOURS), i + KERNEL_NEIGHBOURS
        out = 1.0
        for k, weight in self.weights.items():
            out *= (kernels.NOMINAL_S[k] / statistics.median(self.dt[k][lo:hi])) ** weight
        return out


def timed_setup(w, clock):
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        state = None  # one set-up's state alive at a time, as for a user
        gc.collect()
        for _ in range(KERNEL_NEIGHBOURS):
            clock.sample()
        t0 = time.perf_counter()
        state = w.setup()
        t1 = time.perf_counter()
        for _ in range(KERNEL_NEIGHBOURS):
            clock.sample()
        raw.append(t1 - t0)
        corrected.append((t1 - t0) * clock.scale((t0 + t1) / 2))
    return state, statistics.median(raw), statistics.median(corrected)


class OpError:
    """An exception an op raised, kept as its output."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def call(op):
    try:
        return op()
    except Exception as e:  # a failed operation is counted, not fatal
        return OpError(e)


def summarise(w, result, keep):
    if isinstance(result, OpError):
        return digest(result.text), result
    return w.summarise(result, keep)


def run_rounds(w, ops, seconds, ref_digests, clock=None):
    """Whole rounds over `ops` until `seconds` have passed. Returns the op
    timings as (index, midpoint, seconds), for each whether its output
    differs from the reference round, and the wall and CPU time."""
    before = getattr(w, "before", None)
    times, differ = [], []
    gc.collect()
    start, cpu_start = time.perf_counter(), time.process_time()
    next_sample = start
    while True:
        for i, op in enumerate(ops):
            if clock is not None and time.perf_counter() >= next_sample:
                clock.sample()
                next_sample = time.perf_counter() + KERNEL_EVERY_S
            if before:
                before()
            t0 = time.perf_counter()
            result = call(op)
            t1 = time.perf_counter()
            times.append((i, (t0 + t1) / 2, t1 - t0))
            differ.append(summarise(w, result, keep=False)[0] != ref_digests[i])
        if time.perf_counter() - start >= seconds:
            break
    if clock is not None:
        clock.sample()
    return times, differ, time.perf_counter() - start, time.process_time() - cpu_start


def reference_round(w, ops):
    """One untimed round; its outputs are what the checks look at and
    what every timed op is compared with."""
    digests, results = [], []
    before = getattr(w, "before", None)
    for i, op in enumerate(ops):
        if before:
            before()
        d, kept = summarise(w, call(op), keep=w.keep_first is None or i < w.keep_first)
        digests.append(d)
        results.append(kept)
    return digests, results


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed)
    clock = Clock(w.kernels)
    if args.trace:
        t0 = time.perf_counter()
        state = w.setup()
        setup_raw = setup_corrected = time.perf_counter() - t0
    else:
        state, setup_raw, setup_corrected = timed_setup(w, clock)
    ops = w.ops(state)
    ref_digests, ref_results = reference_round(w, ops)

    # The kernels call nothing that is traced, so a traced run's timings can
    # be drift-corrected too, and compared with untraced runs.
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(w.spans)
    times, differ, elapsed, cpu = run_rounds(w, ops, args.seconds, ref_digests, clock)
    if args.trace:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the checks run after timing, so their memory is not the program's
    problems = w.check([None if isinstance(r, OpError) else r for r in ref_results])
    for i, r in enumerate(ref_results):
        if isinstance(r, OpError):
            problems[i].append(r.text)
    bad_items = {i for i, p in enumerate(problems) if p}
    for i in sorted(bad_items)[:5]:
        print(f"check failed on sentence {i}: {problems[i]}", file=sys.stderr)

    attempted = len(times)
    failed = sum(1 for (i, _, _), d in zip(times, differ) if d or i in bad_items)
    raw_ms = [1e3 * dt for _, _, dt in times]
    ms = [1e3 * dt * clock.scale(t) for _, t, dt in times]
    end_to_end = {
        "sent_per_s": {"value": attempted / (sum(ms) / 1e3), "unit": "1/s"},
        "sent_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "sent_ms_p90": {"value": quantile(ms, 90), "unit": "ms"},
        "setup_s": {"value": setup_corrected, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    extra = {
        "raw": {"sent_per_s": attempted / (sum(raw_ms) / 1e3), "sent_ms_p50": statistics.median(raw_ms),
                "sent_ms_p90": quantile(raw_ms, 90), "setup_s": setup_raw,
                "wall_s": elapsed, "cpu_s": cpu, "rounds": attempted // len(ops)},
        "kernel_ms": {k: {"nominal": 1e3 * kernels.NOMINAL_S[k], "median": 1e3 * statistics.median(v),
                          "p10": 1e3 * quantile(v, 10), "p90": 1e3 * quantile(v, 90), "samples": len(v)}
                      for k, v in clock.dt.items()},
    }
    if args.trace:
        extra["traced"] = {k: v["value"] for k, v in end_to_end.items() if k.startswith("sent_")}
    print(json.dumps(extra))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": tracer.metrics(attempted) if args.trace else end_to_end}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
