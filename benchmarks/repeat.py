"""Run the benchmark on several seeds and report each metric's median and
spread (distance between the first and third quartile, as a share of the
median), raw and drift-corrected.

    python3 benchmarks/repeat.py --label setA --seeds 1-10 [--workloads ...] [--trace 1]

Runs are one after another, never in parallel. Every run's two JSON lines
go to benchmarks/out/<label>.jsonl (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else 0.0


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = HERE / "out" / f"{args.label}.jsonl"
    out.parent.mkdir(exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with out.open("a") as log:
        for workload in args.workloads:
            rows, walls = [], []
            for seed in args.seeds:
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                elapsed = time.perf_counter() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or len(lines) < 2:
                    sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
                extra, result = json.loads(lines[-2]), json.loads(lines[-1])
                log.write(json.dumps({"workload": workload, "seed": seed, "elapsed_s": elapsed,
                                      "extra": extra, "result": result}) + "\n")
                log.flush()
                rows.append((extra, result))
                walls.append(elapsed)
            failed = sum(r["failed"] for _, r in rows)
            attempted = sum(r["attempted"] for _, r in rows)
            print(f"{workload}: {len(rows)} runs, {failed}/{attempted} failed, "
                  f"correct={all(r['correct'] for _, r in rows)}, "
                  f"seconds per run {min(walls):.1f}-{max(walls):.1f}")
            for name in rows[0][1]["metrics"]:
                values = [r["metrics"][name]["value"] for _, r in rows]
                line = f"  {name:40s} median {statistics.median(values):12.5g}"
                if len(values) >= 2:
                    line += f"  spread {spread(values):7.2%}"
                if name in bounds:
                    line += f"  (bound {bounds[name]:.0%})"
                print(line)
            for name in rows[0][0].get("traced", {}):
                values = [e["traced"][name] for e, _ in rows]
                print(f"  traced {name:33s} median {statistics.median(values):12.5g}"
                      f"  spread {spread(values):7.2%}")
            for name in rows[0][0].get("raw", {}):
                values = [e["raw"][name] for e, _ in rows]
                if len(values) >= 2:
                    print(f"  raw {name:36s} median {statistics.median(values):12.5g}"
                          f"  spread {spread(values):7.2%}")
            for kernel in rows[0][0].get("kernel_ms", {}):
                values = [e["kernel_ms"][kernel]["median"] for e, _ in rows]
                print(f"  {kernel} kernel ms, median of each run: median {statistics.median(values):.4g}"
                      f", range {min(values):.4g}-{max(values):.4g}")


if __name__ == "__main__":
    main()
