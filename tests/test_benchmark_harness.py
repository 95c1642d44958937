"""The benchmark's traced encoder run still finds every name it wraps:
a short `--trace 1` run of `encode_train` passes its checks and reports
every per-layer metric that BENCHMARK.json declares."""

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
