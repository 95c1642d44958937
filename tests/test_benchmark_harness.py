"""The benchmark's traced encoder run still finds every name it wraps:
a short `--trace 1` run of `encode_train` passes its checks and reports
every per-layer metric that BENCHMARK.json declares. And the benchmark's
self-test still finds that each output check behaves."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_encode_train_reports_every_per_layer_metric():
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "encode_train", "--seed", "1",
         "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in declared if name not in result["metrics"]] == []


def test_selftest_finds_every_check_behaving():
    """`benchmarks/selftest.py` feeds each output check a good and a spoiled
    output, and exits 0 only when every check accepts and rejects them."""
    out = subprocess.run([sys.executable, "benchmarks/selftest.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "every check behaves" in out.stdout


def test_graph_spans_trace_one_sentence_per_framework(monkeypatch):
    """The graph spans of `benchmarks/tracing.py`, installed in this process,
    each record a call over one generated sentence per framework, and
    uninstalling restores every wrapped original. The chain itself makes no
    `MrpGraph.copy` call, since transforms share records with their input;
    one direct `copy()` shows that the slotted method is wrapped."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import run
    import tracing
    from mrparse.mrp import MrpGraph

    monkeypatch.setattr(run.gen, "PREP_TRAIN", 4)
    monkeypatch.setattr(run.gen, "PREP_TIMED", 3)
    w = run.PrepRoundtrip(1)
    state = w.setup()
    copy = MrpGraph.copy
    tracer = tracing.Tracer()
    tracer.install(tracing.GRAPH_SPANS)
    wrapped = list(tracer._undo)
    try:
        assert MrpGraph.copy is not copy
        results = [w.roundtrip(it, *state) for it in w.items]
        assert tracer.calls["mrp.MrpGraph.copy"] == 0
        MrpGraph("g", "amr").copy()
        assert tracer.calls["mrp.MrpGraph.copy"] == 1
    finally:
        tracer.uninstall()
    assert sorted(it.framework for it in w.items) == ["amr", "eds", "ucca"]
    assert [name for _, _, name in tracing.GRAPH_SPANS if tracer.calls[name] == 0] == []
    assert MrpGraph.copy is copy
    assert [(owner, attr) for owner, attr, original in wrapped if getattr(owner, attr) is not original] == []
    assert w.check(results) == [[], [], []]
