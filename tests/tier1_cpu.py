"""Tier-1's CPU cost in this tree against another tree, in alternating runs.

    python tests/tier1_cpu.py OTHER_TREE [--pairs N]

Run from anywhere; OTHER_TREE is another checkout or `git archive` export
of the repository. It runs tier-1 (`python -m pytest -q`, with the tree's
`src` on `PYTHONPATH`) N times in each tree (default 10), one process at
a time, alternating which tree runs first in a pair. For each run it
prints the user+sys CPU seconds of the pytest process, as
`resource.getrusage(RUSAGE_CHILDREN)` reads it around that one child, and
its exit status; then the median of each tree and the median, least and
greatest ratio of this tree's run to the other's over the pairs. This is
the measure of the tier-1 budget in `tests/conftest.py`. Pytest does not
collect this file: its name does not start with `test_`."""

import argparse
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def tier1_cpu(tree):
    """The user+sys CPU seconds of one tier-1 run in `tree`, and its exit status."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "--continue-on-collection-errors"], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime, status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the tree to compare this one with")
    parser.add_argument("--pairs", type=int, default=10, help="runs of each tree (default 10)")
    args = parser.parse_args()
    trees = {"this": HERE, "other": args.other.resolve()}
    cpu = {"this": [], "other": []}
    for k in range(args.pairs):
        order = ("this", "other") if k % 2 == 0 else ("other", "this")
        for name in order:
            seconds, status = tier1_cpu(trees[name])
            cpu[name].append(seconds)
            print(f"pair {k + 1}: {name:<5} {seconds:7.2f} s  exit {status}", flush=True)
    ratios = [a / b for a, b in zip(cpu["this"], cpu["other"])]
    print(f"median CPU: this {statistics.median(cpu['this']):.2f} s, other {statistics.median(cpu['other']):.2f} s")
    print(f"ratio this/other per pair: median {statistics.median(ratios):.3f} "
          f"({min(ratios):.3f}-{max(ratios):.3f}) over {len(ratios)} pairs")


if __name__ == "__main__":
    main()
