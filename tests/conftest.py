"""Fixtures shared by every test module."""

import pytest

from epdyn import propagation


@pytest.fixture(autouse=True)
def fresh_loop_caches():
    # both routes keep the state-independent part of their last loops; a test
    # that patches the code behind it, or counts its calls, must see it built
    propagation._LOOP_ROWS.entries.clear()
    propagation._DIRECT_RUNS.entries.clear()
    yield
