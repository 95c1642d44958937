"""The benchmark's traced encoder run still finds every name it wraps:
a short `--trace 1` run of `encode_train` passes its checks and reports
every per-layer metric that BENCHMARK.json declares. And the benchmark's
self-test still finds that each output check behaves. Both run in this
process, on the session's shared seed-1 workloads (see conftest.py)."""

import copy
import json


def test_traced_encode_train_reports_every_per_layer_metric(bench, encode_train, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "encode_train", lambda seed: copy.copy(encode_train))
    assert bench.main(["--workload", "encode_train", "--seed", "1", "--seconds", "0.3", "--trace", "1"]) == 0
    out = capsys.readouterr()
    result = json.loads(out.out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.err
    declared = [m["name"] for m in json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in declared if name not in result["metrics"]] == []


def test_selftest_finds_every_check_behaving(bench, prep_roundtrip, encode_train, monkeypatch, capsys):
    """`benchmarks/selftest.py` feeds each output check a good and a spoiled
    output, and every check accepts and rejects them."""
    import selftest
    monkeypatch.setattr(selftest, "FAILURES", [])
    monkeypatch.setattr(bench, "PrepRoundtrip", lambda seed: prep_roundtrip[0])
    monkeypatch.setattr(bench, "EncodeTrain", lambda seed: copy.copy(encode_train))
    selftest.graph_cases()
    selftest.encoder_cases()
    assert selftest.FAILURES == [], capsys.readouterr().out


def test_graph_spans_trace_one_sentence_per_framework(bench, prep_roundtrip):
    """The graph spans of `benchmarks/tracing.py`, installed in this process,
    each record a call over one generated sentence per framework, and
    uninstalling restores every wrapped original. The chain itself makes no
    `MrpGraph.copy` call, since transforms share records with their input;
    one direct `copy()` shows that the slotted method is wrapped."""
    import tracing
    from mrparse.mrp import MrpGraph

    shared, state = prep_roundtrip
    w = copy.copy(shared)
    w.items = [next(it for it in shared.items if it.framework == fw) for fw in ("amr", "eds", "ucca")]
    unwrapped = MrpGraph.copy
    tracer = tracing.Tracer()
    tracer.install(tracing.GRAPH_SPANS)
    wrapped = list(tracer._undo)
    try:
        assert MrpGraph.copy is not unwrapped
        results = [w.roundtrip(it, *state) for it in w.items]
        assert tracer.calls["mrp.MrpGraph.copy"] == 0
        MrpGraph("g", "amr").copy()
        assert tracer.calls["mrp.MrpGraph.copy"] == 1
    finally:
        tracer.uninstall()
    assert sorted(it.framework for it in w.items) == ["amr", "eds", "ucca"]
    assert [name for _, _, name in tracing.GRAPH_SPANS if tracer.calls[name] == 0] == []
    assert MrpGraph.copy is unwrapped
    assert [(owner, attr) for owner, attr, original in wrapped if getattr(owner, attr) is not original] == []
    assert w.check(results) == [[], [], []]
