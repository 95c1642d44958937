"""What each property test costs, and how much of it is drawing data.

    python tests/draw_probe.py [pytest arguments]

Run from the repository root. It runs pytest in this process (by default
`-q -p no:cacheprovider`, the tier-1 suite) and, for every test that
hypothesis runs, keeps hypothesis's run statistics. It then prints one line
per property test, the costliest first: the CPU ms of the whole call, the
ms hypothesis spent drawing the test's arguments (summed over its examples)
and their share of the call, and the examples that ran and that were
discarded as invalid (by `assume`, `filter` or an overrun). A last line
sums the columns. Pytest does not collect this file: its name does not
start with `test_`."""

import sys
import time
from pathlib import Path

import pytest
from hypothesis.statistics import collector


class DrawProbe:
    def __init__(self):
        self.rows = []

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        stats = []
        start = time.process_time()
        with collector.with_value(stats.append):
            yield
        if stats:
            cases = [c for s in stats for phase in s.values() if isinstance(phase, dict)
                     for c in phase.get("test-cases", ())]
            self.rows.append((1e3 * (time.process_time() - start), 1e3 * sum(c["drawtime"] for c in cases),
                              sum(c["status"] == "valid" for c in cases),
                              sum(c["status"] in ("invalid", "overrun") for c in cases), item.nodeid))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    probe = DrawProbe()
    status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"], plugins=[probe])
    print(f"{'cpu ms':>8}{'draw ms':>9}{'draw':>6}{'valid':>7}{'invalid':>8}  property")
    rows = sorted(probe.rows, reverse=True)
    for cpu, draw, valid, invalid, nodeid in rows:
        print(f"{cpu:>8.0f}{draw:>9.0f}{draw / cpu:>6.0%}{valid:>7}{invalid:>8}  {nodeid}")
    cpu, draw, valid, invalid = (sum(r[i] for r in rows) for i in range(4))
    print(f"{cpu:>8.0f}{draw:>9.0f}{draw / max(cpu, 1e-9):>6.0%}{valid:>7}{invalid:>8}  "
          f"total of {len(rows)} property tests (pytest exit {int(status)})")
