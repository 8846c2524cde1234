"""Fixtures shared across test modules."""

import pytest

from mmminfer.casestudy import analyze, load_averroes


@pytest.fixture(scope="session")
def report():
    """The AVERROES analysis at the default settings, computed once."""
    return analyze(load_averroes())
