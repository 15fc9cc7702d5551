"""File format round trips and determinism; the trajectory writers against ``row_reference``."""

import json
import math

import numpy as np
import pytest

from epdyn import (
    DEFAULT_PARAMS,
    Direction,
    FieldPoint,
    IntegratorConfig,
    StateVector,
    StaticDrive,
    SystemParams,
    diode_loop,
    encircling_loop,
    hermitian_loop,
    propagate_adiabatic,
    propagate_direct,
)
from epdyn.analysis import SweepSpec, sweep, table1
from epdyn.propagation import TrajectoryRecord
from epdyn.serialize import (
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    sweep_to_csv,
    sweep_to_json,
    table_from_json,
    table_to_json,
    table_to_text,
    trajectory_to_csv,
    trajectory_to_json,
)
import row_reference

FAST = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-12)


def sample_trajectory():
    return propagate_direct(DEFAULT_PARAMS, hermitian_loop(5.0), StateVector.basis(1), FAST, n_output=16)


class TestTrajectoryFormats:
    def test_csv_schema_and_shape(self):
        traj = sample_trajectory()
        text = trajectory_to_csv(traj)
        lines = text.splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == len(traj.times) + 1
        assert text.endswith("\n") and "\r" not in text

    def test_csv_roundtrip_values(self):
        traj = sample_trajectory()
        lines = trajectory_to_csv(traj).splitlines()
        row = [float(x) for x in lines[5].split(",")]
        k = 4
        assert row[0] == traj.times[k]
        assert row[1] == traj.states[k, 0].real
        assert row[4] == traj.states[k, 1].imag
        assert row[7] + row[8] == 1.0  # W1 + W2

    def test_json_contains_meta(self):
        traj = sample_trajectory()
        doc = json.loads(trajectory_to_json(traj))
        assert doc["columns"] == list(TRAJECTORY_COLUMNS)
        assert doc["meta"]["method"] == "direct"
        assert doc["meta"]["system"]["gamma2"] == DEFAULT_PARAMS.gamma2
        assert doc["meta"]["loop"]["duration_T"] == 5.0
        assert len(doc["rows"]) == len(traj.times)

    def test_deterministic_bytes(self):
        a = trajectory_to_csv(sample_trajectory())
        b = trajectory_to_csv(sample_trajectory())
        assert a == b
        ja = trajectory_to_json(sample_trajectory())
        jb = trajectory_to_json(sample_trajectory())
        assert ja == jb


ACCEPT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
DECAYING = SystemParams(e1=0.0, e2=1.0, gamma1=3.0, gamma2=5.0, d12=1.0)

WRITER_CASES = {
    "direct-diode": lambda: propagate_direct(DEFAULT_PARAMS, diode_loop(Direction.CCW), StateVector.basis(2), ACCEPT),
    "direct-static": lambda: propagate_direct(
        DEFAULT_PARAMS, StaticDrive(FieldPoint(1.07, 0.31), 7.0), StateVector.basis(1), ACCEPT, n_output=64
    ),
    "direct-renormalizing": lambda: propagate_direct(
        DECAYING, StaticDrive(FieldPoint(0.5, 0.3), 400.0), StateVector.basis(1), ACCEPT
    ),
    # the loop settles at 512 steps, so every step end is a row
    "adiabatic-encircling": lambda: propagate_adiabatic(
        DEFAULT_PARAMS, encircling_loop(50.0, Direction.CCW), StateVector.basis(2), ACCEPT, n_output=512
    ),
}

BIG = 1.7976931348623157e308  # the largest float
TINY = 5e-324  # the smallest subnormal
NAN, INF = math.nan, math.inf

#: (t, c1, c2, norm_sq, log_scale) rows; W1 = |c1|^2 / norm_sq, W2 = 1 - W1
EDGE_ROWS = [
    (0.0, complex(-0.0, 0.0), complex(1.0, -0.0), 1.0, -0.0),  # W1 0, W2 1
    (TINY, complex(1.0, -TINY), complex(TINY, 0.1), TINY, TINY),  # W1 inf, W2 -inf
    (1e-300, 0j, 0j, 0.0, -BIG),  # W1 nan
    (0.1, complex(BIG, -BIG), complex(-0.0, BIG), BIG, BIG),  # |c1|^2 overflows: W1 inf
    (1 / 3, complex(1.0, 0.0), complex(0.0, 1.0), -0.0, 1e-300),  # W1 -inf, W2 inf
    (1.0, complex(0.5, -0.5), complex(-TINY, TINY), INF, -TINY),  # W1 0
    (2.0, complex(1 / 3, 0.1), complex(1e-300, -1e300), NAN, 0.0),  # W1 nan
    (BIG, complex(-1e-300, 1 / 3), complex(0.1, -0.0), 1.0, 345.5),
]


def edge_record() -> TrajectoryRecord:
    """A record built by hand from signed zeros, subnormals, the largest float, nan and +-inf."""
    t, c1, c2, norms, logs = (np.array(column) for column in zip(*EDGE_ROWS))
    states = np.empty((len(t), 2), dtype=complex)
    states[:, 0], states[:, 1] = c1, c2
    return TrajectoryRecord(t, states, norms, logs, None, None, {"method": "direct"})


class TestWritersAgainstReference:
    """The column writers give the bytes of the writers that format one value at a time."""

    @pytest.mark.parametrize("make", WRITER_CASES.values(), ids=WRITER_CASES.keys())
    def test_runs(self, make):
        traj = make()
        assert trajectory_to_csv(traj) == row_reference.trajectory_to_csv(traj)
        assert trajectory_to_json(traj) == row_reference.trajectory_to_json(traj)

    def test_edge_values(self):
        traj = edge_record()
        with np.errstate(all="ignore"):  # W1 = |c1|^2 / norm_sq overflows and divides 0 by 0
            csv, reference_csv = trajectory_to_csv(traj), row_reference.trajectory_to_csv(traj)
            text, reference_json = trajectory_to_json(traj), row_reference.trajectory_to_json(traj)
        assert csv == reference_csv
        assert text == reference_json
        values = {v for line in csv.splitlines()[1:] for v in line.split(",")}
        assert {"-0", "4.9406564584124654e-324", "1.7976931348623157e+308", "nan", "inf", "-inf"} <= values
        values = {line.strip().rstrip(",") for line in text.splitlines()}
        assert {"NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1.7976931348623157e+308"} <= values
        assert json.loads(text)["columns"] == list(TRAJECTORY_COLUMNS)

    def test_integer_columns(self):
        # fmt and the json writer made every value a float: 1 is written 1 and 1.0
        states = np.array([[1, 0], [0, 1j], [1, 1]])
        traj = TrajectoryRecord(np.arange(3), states, np.array([1, 1, 2]), np.zeros(3, int), None, None, {})
        assert trajectory_to_csv(traj) == row_reference.trajectory_to_csv(traj)
        assert trajectory_to_json(traj) == row_reference.trajectory_to_json(traj)


class TestSweepFormats:
    def make_result(self):
        spec = SweepSpec(
            template=hermitian_loop(4.0, Direction.CW),
            durations=(4.0, 8.0),
            amp_scales=(1.0,),
            direction=Direction.CW,
            dominant_target=None,
        )
        return sweep(spec, DEFAULT_PARAMS, FAST)

    def test_csv_schema(self):
        text = sweep_to_csv(self.make_result())
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[8] in ("true", "false")

    def test_json_cells(self):
        doc = json.loads(sweep_to_json(self.make_result()))
        assert len(doc["cells"]) == 2
        assert doc["spec"]["direction"] == "cw"
        assert doc["cells"][0]["error"] is None


class TestTableFormats:
    def make_table(self):
        return table1(DEFAULT_PARAMS, encircling_loop(12.0), FAST, n_track=1024)

    def test_text_rendering(self):
        text = table_to_text(self.make_table())
        lines = text.splitlines()
        assert lines[0].split()[0] == "direction"
        assert len(lines) == 6  # header, rule, 4 rows
        assert lines[2].startswith("cw")
        assert lines[4].startswith("ccw")

    def test_json_roundtrip(self):
        table = self.make_table()
        doc = table_to_json(table)
        rebuilt = table_from_json(doc)
        assert table_to_text(rebuilt) == table_to_text(table)
        assert rebuilt.swapped == table.swapped
        assert [r.exact_final for r in rebuilt.rows] == [r.exact_final for r in table.rows]
