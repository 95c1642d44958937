"""Shared test settings: every property test draws 100 examples in a fixed
order, with no deadline and no example database, so a run is repeatable."""

from hypothesis import settings

settings.register_profile("mrparse", max_examples=100, deadline=None, derandomize=True, database=None)
settings.load_profile("mrparse")
