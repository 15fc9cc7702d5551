"""Fixtures shared by every test module."""

import pytest

from epdyn import propagation


@pytest.fixture(autouse=True)
def fresh_loop_rows():
    # the adiabatic route keeps the rows of its last loops; a test that
    # patches the code behind them, or counts its calls, must see them built
    propagation._LOOP_ROWS.clear()
    yield
