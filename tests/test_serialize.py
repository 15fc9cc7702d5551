"""File format round trips and determinism; the trajectory writers against ``row_reference``."""

import csv
import dataclasses
import io
import itertools
import json
import math
from decimal import Decimal

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
from epdyn import propagation as prop
from epdyn import serialize
from epdyn.analysis import SweepCell, SweepResult, SweepSpec, _dominance, final_state_report, sweep, table1
from epdyn.propagation import TrajectoryRecord
from epdyn.serialize import (
    SECTIONS,
    _rows_text,
    _trajectory_columns,
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    read_section,
    section_to_dict,
    sweep_header_csv,
    sweep_row_csv,
    sweep_to_json,
    table_to_json,
    table_to_text,
    trajectory_to_csv,
    trajectory_to_json,
)
import row_reference

FAST = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-12)


def sample_trajectory():
    return propagate_direct(DEFAULT_PARAMS, hermitian_loop(5.0), StateVector.basis(1), FAST, n_output=16)


class TestPopulations:
    """W1 = |c1|^2 / norm_sq and W2 = 1 - W1 on the rows ``_finalize`` makes: |c1|^2 is a term of norm_sq."""

    def finished(self, scale: float, zero: int = None) -> TrajectoryRecord:
        # random rows at |c| near scale, each rescaled by up to e^+-300, so the stored rows span the window
        rng = np.random.default_rng(int(abs(math.log10(scale))) + (zero or 0))
        m = 4096
        raw = (rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))) * scale
        if zero is not None:
            raw[:, zero] = 0.0
        times = np.linspace(0.0, 1.0, m)
        drive = StaticDrive(FieldPoint(1.07, 0.31), 1.0)
        states, norms, logs = prop._finalize(raw, rng.uniform(-300.0, 300.0, m),
                                             prop._trace_factor(DEFAULT_PARAMS, drive, times),
                                             prop._decay(DEFAULT_PARAMS, times))
        return TrajectoryRecord(times, states, norms, logs, {})

    @pytest.mark.parametrize("zero", [0, 1], ids=["c1", "c2"])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_a_zero_component_gives_exact_populations(self, scale, zero):
        w1, w2 = _trajectory_columns(self.finished(scale, zero))[-2:]
        assert (w1 == (1.0 if zero == 1 else 0.0)).all() and (w2 == 1.0 - w1).all()

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_populations_lie_in_0_1(self, scale):
        traj = self.finished(scale)
        w1, w2 = _trajectory_columns(traj)[-2:]
        assert ((0.0 <= w1) & (w1 <= 1.0) & (w2 >= 0.0)).all()
        # the report reads the last row's populations bit for bit
        report = final_state_report(traj, Direction.CW)
        assert (report.dominant_state, report.ratio) == _dominance(*traj.populations[-1])


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
    return TrajectoryRecord(t, states, norms, logs, {"method": "direct"})


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
        traj = TrajectoryRecord(np.arange(3), states, np.array([1, 1, 2]), np.zeros(3, int), {})
        assert trajectory_to_csv(traj) == row_reference.trajectory_to_csv(traj)
        assert trajectory_to_json(traj) == row_reference.trajectory_to_json(traj)


def cpython_lines(values: np.ndarray, shortest: bool) -> str:
    """One value a line as CPython formats it: ``repr`` (JSON's NaN and Infinity) if ``shortest``, else ``%.17g``."""
    if shortest:
        return "".join((repr(x) if math.isfinite(x) else json.dumps(x)) + "\n" for x in values.tolist())
    return "".join(format(x, ".17g") + "\n" for x in values.tolist())


def array_lines(values: np.ndarray, shortest: bool, columns: int = 1) -> str:
    """One value a line from the writers' array formatter, in rows of ``columns`` values."""
    return _rows_text("", values.reshape(-1, columns).T, shortest, ("\n",) * columns, "\n")


def python_path(monkeypatch) -> list:
    """The values the writers hand to CPython's formatting, recorded at the one fallback as they go."""
    seen = []
    python_text = serialize._python_text

    def counted(x, shortest):
        seen.append(x)
        return python_text(x, shortest)

    monkeypatch.setattr(serialize, "_python_text", counted)
    return seen


def signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -math.inf), values, np.nextafter(values, math.inf)])


STRUCTURED = {
    "zeros-extremes": signed([0.0, TINY, BIG, 2.0 ** -1022, 2.0 ** -1021]),
    "powers-of-two": signed([math.ldexp(1.0, k) for k in range(-1074, 1024)]),
    "powers-of-ten": signed(with_neighbours([float(f"1e{k}") for k in range(-300, 301)])),
    # where %.17g and repr switch between fixed and exponent notation
    "layout-switches": signed(with_neighbours([1e-5, 1e-4, 9.999999999999999e15, 1e16, 1e17])),
}


class TestRowDigits:
    """The array formatter writes CPython's digits (notes/decisions.md, "The rows' digits in numpy")."""

    @pytest.mark.parametrize("shortest", [False, True], ids=["csv", "json"])
    def test_random_bit_patterns(self, shortest):
        # every exponent and both signs, subnormals, NaN and the infinities among them
        values = np.random.default_rng(40).integers(0, 2**64, size=2**20, dtype=np.uint64).view(float)
        assert array_lines(values, shortest, 16) == cpython_lines(values, shortest)

    @pytest.mark.parametrize("shortest", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("values", STRUCTURED.values(), ids=STRUCTURED.keys())
    def test_structured_values(self, values, shortest):
        assert array_lines(values, shortest) == cpython_lines(values, shortest)

    @pytest.mark.parametrize("shortest", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("n", [512, 4096])
    def test_time_grids(self, n, shortest, monkeypatch):
        # k T/n for README's T = 348.75 = 1395/4, on past 1000: at n = 4096 an odd k there is an exact
        # decimal of 18 significant digits ending in 5, a tie for %.17g that CPython's path rounds
        times = np.arange(3 * n + 1) * (348.75 / n)
        seen = python_path(monkeypatch)
        assert array_lines(times, shortest) == cpython_lines(times, shortest)
        ties = [t for t in times.tolist() if len(Decimal(t).as_tuple().digits) == 18]
        assert bool(ties) == (n == 4096) and all(t > 1000.0 for t in ties)
        if not shortest:
            assert seen == ties


class TestRowChunks:
    """A record is formatted in chunks of rows and gathered in sub-blocks of them; the seams, the fallback and the
    reused workspace keep the per-value writers' bytes (``edge_record`` alone is
    ``TestWritersAgainstReference.test_edge_values``)."""

    @staticmethod
    def same_as_reference(traj: TrajectoryRecord) -> None:
        with np.errstate(all="ignore"):  # W1 = |c1|^2 / norm_sq overflows and divides 0 by 0
            assert trajectory_to_csv(traj) == row_reference.trajectory_to_csv(traj)
            assert trajectory_to_json(traj) == row_reference.trajectory_to_json(traj)

    @staticmethod
    def random_record(rows: int, seed: int, edges: list = ()) -> TrajectoryRecord:
        """Amplitudes from 1e-30 to 1e30, log scales within +-300, and ``EDGE_ROWS`` in turn at the rows ``edges``."""
        rng = np.random.default_rng(seed)
        states = (rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))) * 10.0 ** rng.integers(-30, 30, (rows, 2))
        norms = (np.abs(states) ** 2).sum(axis=1)
        logs = rng.uniform(-300.0, 300.0, rows)
        for k, (_, c1, c2, norm, log) in zip(edges, itertools.cycle(EDGE_ROWS)):
            states[k], norms[k], logs[k] = (c1, c2), norm, log
        return TrajectoryRecord(np.linspace(0.0, 348.75, rows), states, norms, logs, {"method": "direct"})

    def test_chunk_seams(self, monkeypatch):
        # three full chunks and a partial one, with the edge rows on both sides of every chunk seam and every
        # sub-block seam within a chunk, and in the last row
        chunk, gather = serialize._CHUNK_ROWS, serialize._GATHER_ROWS
        rows = 3 * chunk + 77
        starts = [c + g for c in range(0, rows, chunk) for g in range(0, min(chunk, rows - c), gather)]
        seams = sorted({k + j for k in starts[1:] for j in (-1, 0)} | {rows - 1})
        assert len(seams) > 2 * 3 + 1  # the sub-block seams too
        seen = python_path(monkeypatch)
        self.same_as_reference(self.random_record(rows, 41, seams))
        assert len(seen) > 0  # NaN, the infinities and the subnormals of the edge rows

    @pytest.mark.parametrize("gather", [1, 3, serialize._GATHER_ROWS])
    @pytest.mark.parametrize("chunk", [1, 7, serialize._CHUNK_ROWS, 51])
    def test_chunk_sizes(self, monkeypatch, chunk, gather):
        # chunking only splits the rows: one chunk a row, seven, the default and more than the record's 50
        # rows, each gathered a row, three rows or the default at a time, give the same bytes
        monkeypatch.setattr(serialize, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(serialize, "_GATHER_ROWS", gather)
        self.same_as_reference(self.random_record(50, 43, range(0, 50, 6)))

    @pytest.mark.parametrize("stale", [False, True], ids=["reused", "stale-filled"])
    def test_a_file_after_others_keeps_its_bytes(self, monkeypatch, stale):
        # a long record, a short one, then the edge rows in one process: each file's workspace is carved from
        # memory the one before used, and a byte of an earlier file must not reach a later one. The stale-filled
        # workspace starts as digits and separators, whatever the allocator gives back
        if stale:
            class Stale(serialize._Work):
                def __init__(self, size: int = 0) -> None:
                    super().__init__(size)
                    self.buffer[:] = np.resize(np.frombuffer(b"9.87654321e+123,\n  ],[-", np.uint8), self.buffer.size)

            monkeypatch.setattr(serialize, "_Work", Stale)
        for traj in (self.random_record(4097, 44), self.random_record(3, 45), edge_record()):
            self.same_as_reference(traj)

    def test_readme_records_need_no_fallback(self, monkeypatch):
        # README's diode config (DEFAULT_PARAMS, the diode loop, ACCEPT, bare state 2) at 4096 rows, both
        # directions, both formats: every value is the kernel's
        seen = python_path(monkeypatch)
        for direction in Direction:
            traj = propagate_direct(DEFAULT_PARAMS, diode_loop(direction), StateVector.basis(2), ACCEPT, n_output=4096)
            assert trajectory_to_csv(traj) == row_reference.trajectory_to_csv(traj)
            assert trajectory_to_json(traj) == row_reference.trajectory_to_json(traj)
        assert seen == []


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
        lines = [sweep_header_csv(), *map(sweep_row_csv, self.make_result().cells)]
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[8] in ("true", "false")

    def test_csv_row_of_each_value_kind(self):
        # empty for None, lower-case booleans, fmt for numbers (integers without a point), text as is
        # unless it holds a comma, a double quote or a line break: then quoted, its quotes doubled (RFC 4180)
        common = dict(i=3, j=10, duration_T=348.75, amp_scale=1.0, rho=0.1)
        done = SweepCell(**common, ratio=1e3 / 3, dominant_state=2, survival=5e-324, pass_ratio=True, pass_survival=False)
        failed = SweepCell(**common, ratio=None, dominant_state=None, survival=None, pass_ratio=None,
                           pass_survival=None, error="StepBudgetError: no map")
        assert sweep_row_csv(done) == "3,10,348.75,1,0.10000000000000001,333.33333333333331,2,4.9406564584124654e-324,true,false,"
        assert sweep_row_csv(failed) == "3,10,348.75,1,0.10000000000000001,,,,,,StepBudgetError: no map"
        for error, field in [("ValueError: T, n", '"ValueError: T, n"'), ('a "b"', '"a ""b"""'),
                             ("a\rb", '"a\rb"'), ("a\nb", '"a\nb"')]:
            row = sweep_row_csv(dataclasses.replace(failed, error=error))
            assert row == "3,10,348.75,1,0.10000000000000001,,,,,," + field
            assert next(csv.reader(io.StringIO(row, newline=""))) == [*row.split(",")[:10], error]

    def test_json_cells(self):
        doc = json.loads(sweep_to_json(self.make_result()))
        assert len(doc["cells"]) == 2
        assert doc["spec"]["direction"] == "cw"
        assert doc["cells"][0]["error"] is None


class TestTableFormats:
    def make_table(self):
        return table1(DEFAULT_PARAMS, encircling_loop(12.0), FAST)

    def test_text_rendering(self):
        text = table_to_text(self.make_table())
        lines = text.splitlines()
        assert lines[0].split()[0] == "direction"
        assert len(lines) == 6  # header, rule, 4 rows
        assert lines[2].startswith("cw")
        assert lines[4].startswith("ccw")

    def test_json_roundtrip(self):
        # every field of every row reads back from the JSON as the table holds it
        table = self.make_table()
        doc = json.loads(table_to_json(table))
        assert doc["swapped"] == table.swapped
        assert [
            (Direction(r["direction"]), r["initial"], r["adiabatic_final"], r["exact_final"], r["ratio"], r["survival"])
            for r in doc["rows"]
        ] == [
            (r.direction, r.initial_state, r.adiabatic_final, r.exact_final, r.report.ratio, r.report.survival)
            for r in table.rows
        ]


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
