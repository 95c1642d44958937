"""Minor page faults and time per sentence of a plain training loop.

    python tests/fault_probe.py

Run from the repository root. It builds the benchmark's seed-1
`encode_train` inputs and encoder (`benchmarks/run.py`) and runs
`zero_grad → encode → backward` over the timed sentences: one round to
warm up, then ROUNDS measured rounds. Unlike the benchmark, it keeps no
outputs, so nothing else holds the heap. It prints, per sentence, the
minor page faults (`getrusage`) and the wall and CPU ms of each phase:
embed (`SentenceEncoder.embed_sentence`), BiLSTM, loss and backward, and
their total. `zero_grad` runs outside the phases. CPU time counts every
thread of the process, BLAS's too. Pytest does not collect this file: its
name does not start with `test_`."""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import run  # noqa: E402  (puts src/ on the path)

ROUNDS = 10
PHASES = ("embed", "BiLSTM", "loss", "backward")


def usage():
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter(), time.process_time())


def main():
    w = run.EncodeTrain(1)
    enc = w.setup()
    params = enc.parameters()
    totals = {phase: [0, 0.0, 0.0] for phase in PHASES}
    for k in range(1 + ROUNDS):
        for sent in w.sents:
            for p in params:
                p.zero_grad()
            marks = [usage()]
            o = enc.embed_sentence(sent)
            marks.append(usage())
            r = enc.bilstm(o)
            marks.append(usage())
            loss = w.loss(r)
            marks.append(usage())
            w.ag.backward(loss)
            marks.append(usage())
            if k == 0:
                continue  # the warm-up round
            for phase, before, after in zip(PHASES, marks, marks[1:]):
                totals[phase] = [t + b - a for t, a, b in zip(totals[phase], before, after)]
    n = ROUNDS * len(w.sents)
    print(f"encode_train seed 1: {len(w.sents)} sentences, {ROUNDS} rounds after one warm-up round")
    print(f"{'phase':<10}{'faults/sent':>12}{'wall ms/sent':>14}{'cpu ms/sent':>13}")
    rows = [(phase, *totals[phase]) for phase in PHASES]
    rows.append(("total", *(sum(t[i] for t in totals.values()) for i in range(3))))
    for phase, faults, wall, cpu in rows:
        print(f"{phase:<10}{faults / n:>12.1f}{1e3 * wall / n:>14.3f}{1e3 * cpu / n:>13.3f}")


if __name__ == "__main__":
    main()
