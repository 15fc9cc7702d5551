"""File format round trips and determinism; the trajectory writers against ``row_reference``."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from epdyn.analysis import SweepCell, SweepResult, SweepSpec, sweep, table1
from epdyn.propagation import TrajectoryRecord
from epdyn.serialize import (
    SECTIONS,
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    read_section,
    section_to_dict,
    sweep_row_csv,
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

    def test_csv_row_of_each_value_kind(self):
        # empty for None, lower-case booleans, text as is, fmt for numbers (integers without a point)
        common = dict(i=3, j=10, duration_T=348.75, amp_scale=1.0, rho=0.1)
        done = SweepCell(**common, ratio=1e3 / 3, dominant_state=2, survival=5e-324, pass_ratio=True, pass_survival=False)
        failed = SweepCell(**common, ratio=None, dominant_state=None, survival=None, pass_ratio=None,
                           pass_survival=None, error="StepBudgetError: no map")
        assert sweep_row_csv(done) == "3,10,348.75,1,0.10000000000000001,333.33333333333331,2,4.9406564584124654e-324,true,false,"
        assert sweep_row_csv(failed) == "3,10,348.75,1,0.10000000000000001,,,,,,StepBudgetError: no map"

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


# -- the config schema: each section's writer inverts its reader ----------------

#: every finite float: -0.0, subnormals and the largest magnitudes included
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def optional_fields(draw, section, required, **optional):
    """A section with its required fields and a drawn subset of its optional ones."""
    data = {key: draw(strategy) for key, strategy in required.items()}
    data.update({key: draw(strategy) for key, strategy in optional.items() if draw(st.booleans())})
    return section, data


@st.composite
def loop_sections(draw):
    semi_axis_eps, center_eps0 = sorted([draw(POSITIVE), draw(POSITIVE)])
    required = dict(direction=st.sampled_from(["cw", "ccw"]), center_omega=FINITE, center_eps0=st.just(center_eps0),
                    semi_axis_omega=POSITIVE, semi_axis_eps=st.just(semi_axis_eps),
                    duration_T=st.floats(min_value=1e-300, allow_infinity=False))  # 2*pi/T must be finite
    return draw(optional_fields("loop", required, start_phase=FINITE))


SECTION_DOCS = st.one_of(
    optional_fields("system", dict(e1=FINITE, e2=FINITE, gamma1=NON_NEGATIVE, gamma2=NON_NEGATIVE, d12_re=FINITE),
                    d12_im=FINITE),
    loop_sections(),
    optional_fields("integrator", {}, rel_tol=st.floats(min_value=1e-13, allow_infinity=False), abs_tol=POSITIVE,
                    max_step=POSITIVE, initial_step=POSITIVE),
    optional_fields("initial", {}, c1_re=FINITE, c1_im=FINITE, c2_re=FINITE, c2_im=FINITE).filter(
        lambda doc: any(doc[1].values())),  # not identically zero
    optional_fields("output", {}, path=st.none() | st.text(max_size=8), format=st.sampled_from(["csv", "json"])),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(section_doc=SECTION_DOCS)
@example(section_doc=("system", dict(e1=-0.0, e2=1e300, gamma1=5e-324, gamma2=-0.0, d12_re=-1e300, d12_im=-0.0)))
@example(section_doc=("loop", dict(direction="ccw", center_omega=-1e300, center_eps0=1e300, semi_axis_omega=5e-324,
                                   semi_axis_eps=5e-324, duration_T=1e300, start_phase=-0.0)))
@example(section_doc=("integrator", dict(rel_tol=1e300, abs_tol=5e-324, max_step=1e300, initial_step=5e-324)))
@example(section_doc=("initial", dict(c1_re=-0.0, c1_im=5e-324, c2_re=-1e300, c2_im=1e300)))
@example(section_doc=("output", dict(path="")))
def test_each_writer_inverts_the_reader(section_doc):
    # a valid section, read and written, gives the document back with its
    # defaults filled in (to the bit: json writes -0.0 and each float's repr),
    # and that reads once more as an equal object
    section, data = section_doc
    built = read_section({section: data}, section)
    written = section_to_dict(section, built)
    defaults = SECTIONS[section][1]
    # a field that is not a number holds its default beside its reader
    filled = {key: data.get(key, getattr(default, "default", default)) for key, default in defaults.items()}
    assert json.dumps(written, sort_keys=True) == json.dumps(filled, sort_keys=True)
    assert read_section({section: written}, section) == built


def test_library_dipole_is_written_as_a_float():
    # SystemParams(d12=1) holds an int; its meta writes complex(1).real, as a config would give it
    params = SystemParams(e1=0.0, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1)
    traj = propagate_direct(params, hermitian_loop(5.0), StateVector.basis(1), FAST, n_output=4)
    text = trajectory_to_json(traj)
    assert '"d12_re": 1.0,' in text and '"d12_im": 0.0,' in text
    assert read_section(json.loads(text)["meta"], "system") == params


def test_sweep_spec_template_reads_back_as_the_template():
    spec = SweepSpec(template=diode_loop(Direction.CW), durations=(300.0, 375.0), amp_scales=(0.5, 1.0),
                     direction=Direction.CCW, initial_phase=1.5)
    doc = json.loads(sweep_to_json(SweepResult(spec)))["spec"]
    assert read_section({"loop": doc["template"]}, "loop") == spec.template
    assert sorted(doc) == ["amp_scales", "direction", "dominant_target", "durations", "initial_phase", "ratio_min",
                           "survival_levels", "template"]
    assert (doc["initial_phase"], doc["direction"], doc["durations"]) == (1.5, "ccw", [300.0, 375.0])
