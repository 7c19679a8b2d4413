"""Shared test configuration: hypothesis draws the same examples on every run.

``derandomize=True`` derives each property's random seed from the test
itself, so the suite passes or fails the same way on every run; tests that
set ``@settings`` keep their own ``max_examples`` and inherit these defaults.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
