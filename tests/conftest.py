"""Shared test settings, and the benchmark inputs that tests share.

Every property test draws 100 examples in a fixed order, with no deadline
and no example database, so a run is repeatable.

Budget: tier-1 (`python -m pytest -q` from the repository root) runs in at
most 15 s on a two-core container. What costs the most to build is built
once per session: `bench`, the benchmark's `run` module; `prep_roundtrip`,
the seed-1 `run.PrepRoundtrip` with its set-up state (AMR and multiword
tables); and `encode_train`, the seed-1 `run.EncodeTrain`. Sharing them is
safe by the record rule in `mrparse.mrp`'s docstring: a record is never
edited after the function that built it returns, so no test can change a
shared workload's inputs, and `roundtrip` only reads the set-up state.
For empties the rule is enforced: a record without properties, attributes
or extras holds the shared `EMPTY_LIST` or `EMPTY_DICT`, and an edit of
either raises TypeError. A test that narrows or rebinds a workload's
attributes gets its own instance, a `copy.copy` of the shared one: the
self-test sets `w.sents = w.sents[:3]`, and `ops` sets `w.enc` and
`w.params`."""

from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("mrparse", max_examples=100, deadline=None, derandomize=True, database=None)
settings.load_profile("mrparse")


@pytest.fixture(scope="session")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import run
        yield run


@pytest.fixture(scope="session")
def prep_roundtrip(bench):
    w = bench.PrepRoundtrip(1)
    return w, w.setup()


@pytest.fixture(scope="session")
def encode_train(bench):
    return bench.EncodeTrain(1)
