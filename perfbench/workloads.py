"""The four workloads, each as a timed pass plus untimed correctness checks.

A pass returns one ``Op`` per operation: one traversal, one sweep cell, one
adiabatic-workload call or one CLI call. Checks run after the pass, outside the timed region, and mark an
op failed by setting its ``error``. Run-level checks (identical bytes across
passes, agreement with the single-process sweep, the direct-route cross
check) return messages instead.

Why these workloads (also recorded in BENCHMARK.json):

* selectivity: the paper's headline claim; many initial states share each
  loop and direction, so a one-propagator-per-loop change shows here.
* adiabatic: eigen-solves, branch alignment and finite-difference
  couplings in ``model``/``propagation``; the direct stepper does nothing.
* trajectory: dense output through ``Recorder.finalize``, ``serialize`` and
  ``cli``; a change that speeds up final-state-only runs must not slow it.
* sweep: one loop per cell, the process pool and the incremental CSV flush.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import epdyn.analysis
import epdyn.cli
import epdyn.propagation
from epdyn import DEFAULT_PARAMS, DIODE_DURATION, Direction, StateVector
from epdyn.presets import diode_loop, encircling_loop
from epdyn.propagation import IntegratorConfig

from inputs import ACCEPT_TOLS, Inputs

ACCEPT = IntegratorConfig(**ACCEPT_TOLS)

#: Bare state each direction of the diode loop selects (presets.diode_loop).
SELECTED = {Direction.CW: 1, Direction.CCW: 2}
RATIO_MIN = 1e3
PHASE_PRODUCT_TOL = 1e-8
#: Criterion 08's agreement bound between the direct and adiabatic routes.
CROSS_FIDELITY = 1.0 - 1e-6

SWEEP_JOBS = 2
SWEEP_NT = SWEEP_NAMP = 4
SWEEP_T = (300.0, 375.0)
SWEEP_AMP = (0.05, 1.3)
TRAJECTORY_N_OUTPUT = 4096


@dataclass
class Op:
    name: str
    error: Optional[str] = None
    data: dict = field(default_factory=dict)
    seconds: float = 0.0  # wall time of the call; 0 for ops that share another's call
    ref: float = 0.0  # reference-loop seconds around the call, when calibrating


def _fail(op: Op, message: str) -> None:
    if op.error is None:
        op.error = message


def _grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    # the CLI's linear grid formula, so the baseline spec equals the CLI's
    step = (hi - lo) / (n - 1)
    return tuple(lo + step * k for k in range(n))


class Workload:
    name = ""
    procs = 1  # cores a pass keeps busy

    def __init__(self, inputs: Inputs, workdir: str, config_path: str) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.config_path = config_path
        #: called with each timed op right after it, outside its timing
        self.after_op: Optional[Callable[[Op], None]] = None

    def attempt(self, ops: list, name: str, fn, *args, **kwargs) -> Op:
        """Run and time one operation; a raised error marks the op failed."""
        op = Op(name)
        ops.append(op)
        t0 = time.perf_counter()
        try:
            op.data["result"] = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none may stop the run
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        if self.after_op is not None:
            self.after_op(op)
        return op

    def prepare(self) -> None:
        """Once per run, before any pass; not timed."""

    def run_pass(self, index: int) -> list[Op]:
        """One pass; ``index`` numbers the passes of a run (0 is the warm pass)."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Mark ops whose outputs are wrong."""

    def check_run(self, passes: list[list[Op]]) -> list[str]:
        """Checks across all passes of one run and once-per-run cross checks."""
        return []

    def notes(self, passes: list[list[Op]]) -> list[str]:
        """Observations printed with the result but not gated."""
        return []


class Selectivity(Workload):
    """table1 on the diode loop, then seeded superpositions x {CW, CCW}."""

    name = "selectivity"

    def run_pass(self, index: int) -> list[Op]:
        ops: list[Op] = []
        table_op = self.attempt(
            ops, "table1", epdyn.analysis.table1, DEFAULT_PARAMS, diode_loop(Direction.CW), ACCEPT
        )
        # table1 is four traversals; its three siblings share its outcome
        ops.extend(Op("table1") for _ in range(3))
        if table_op.error is not None:
            for op in ops[1:]:
                op.error = table_op.error
        for c1, c2 in self.inputs.superpositions:
            for direction in (Direction.CW, Direction.CCW):
                self.attempt(ops, f"superposition-{direction.value}", self._traverse, direction, c1, c2)
        return ops

    @staticmethod
    def _traverse(direction: Direction, c1: complex, c2: complex):
        traj = epdyn.propagation.propagate_direct(
            DEFAULT_PARAMS, diode_loop(direction), StateVector(c1, c2), ACCEPT, n_output=8
        )
        return epdyn.analysis.final_state_report(traj, direction)

    def check(self, ops: list[Op]) -> None:
        table_ops, rest = ops[:4], ops[4:]
        table = table_ops[0].data.get("result")
        if table is not None:
            problems = []
            if not table.swapped:
                problems.append("table1 branches not swapped")
            if table.disagreements() != 2:
                problems.append(f"table1 disagreements {table.disagreements()} != 2")
            for row in table.rows:
                if row.exact_final != SELECTED[row.direction]:
                    problems.append(
                        f"table1 {row.direction.value} from state{row.initial_state} "
                        f"selects {row.exact_final}"
                    )
                if row.report.ratio < RATIO_MIN:
                    problems.append(
                        f"table1 {row.direction.value} from state{row.initial_state} "
                        f"ratio {row.report.ratio:.3g} < {RATIO_MIN:g}"
                    )
            for op in table_ops:
                if problems:
                    _fail(op, "; ".join(problems))
        for op in rest:
            report = op.data.get("result")
            if report is None:
                continue
            op.data["ratio"] = report.ratio
            if report.dominant_state != SELECTED[report.direction]:
                _fail(
                    op,
                    f"{report.direction.value} superposition selects "
                    f"{report.dominant_state}, expected {SELECTED[report.direction]}",
                )

    def notes(self, passes: list[list[Op]]) -> list[str]:
        # a traversal is an invertible linear map, so some superpositions
        # always end with a low ratio: reported, not gated (see README)
        ratios = [op.data["ratio"] for ops in passes for op in ops[4:] if "ratio" in op.data]
        if not ratios:
            return []
        below = sum(r < RATIO_MIN for r in ratios)
        return [
            f"superposition ratios (reported, not gated): min {min(ratios):.6g}, "
            f"{below} of {len(ratios)} below {RATIO_MIN:g}"
        ]


class Adiabatic(Workload):
    """Adiabatic-frame runs, loop phase integrals and branch tracking."""

    name = "adiabatic"

    def run_pass(self, index: int) -> list[Op]:
        ops: list[Op] = []
        for c1, c2 in self.inputs.adiabatic_states:
            for direction in (Direction.CW, Direction.CCW):
                op = self.attempt(
                    ops,
                    f"adiabatic-{direction.value}",
                    epdyn.propagation.propagate_adiabatic,
                    DEFAULT_PARAMS,
                    encircling_loop(50.0, direction),
                    StateVector(c1, c2),
                    ACCEPT,
                )
                op.data["state"] = (c1, c2)
        for direction in (Direction.CW, Direction.CCW):
            self.attempt(
                ops,
                "phase",
                epdyn.propagation.accumulated_phase,
                DEFAULT_PARAMS,
                diode_loop(direction),
                DIODE_DURATION,
                n_samples=8192,
            )
        self.attempt(
            ops,
            "track_branches",
            epdyn.propagation.track_branches,
            DEFAULT_PARAMS,
            encircling_loop(10.0),
            4096,
        )
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.name.startswith("adiabatic") and "result" in op.data:
                traj = op.data["result"]
                survival = epdyn.analysis.survival_fraction(traj)
                if not (np.all(np.isfinite(traj.states.view(float))) and 0.0 < survival <= 1.0):
                    _fail(op, f"adiabatic run not finite or survival {survival!r} outside (0, 1]")
        phase_ops = [op for op in ops if op.name == "phase"]
        if all("result" in op.data for op in phase_ops):
            phi_cw, phi_ccw = (op.data["result"] for op in phase_ops)
            product = cmath.exp(1j * phi_cw) * cmath.exp(1j * phi_ccw)
            if not abs(product - 1.0) < PHASE_PRODUCT_TOL:
                for op in phase_ops:
                    _fail(op, f"|exp(i phi_cw) exp(i phi_ccw) - 1| = {abs(product - 1.0):.3g}")
        (frame_op,) = (op for op in ops if op.name == "track_branches")
        if "result" in frame_op.data and not frame_op.data["result"].swapped:
            _fail(frame_op, "track_branches did not swap on the encircling loop")

    def check_run(self, passes: list[list[Op]]) -> list[str]:
        # live cross check against the direct route, on the first pass only
        problems = []
        for op in passes[0]:
            if not op.name.startswith("adiabatic") or "result" not in op.data:
                continue
            adiab = op.data["result"]
            state = StateVector(*op.data["state"])
            direct = epdyn.propagation.propagate_direct(
                DEFAULT_PARAMS, adiab.meta["drive"], state, ACCEPT
            )
            fidelity = _fidelity(direct.final_state, adiab.final_state)
            if not fidelity > CROSS_FIDELITY:
                problems.append(f"{op.name} from {op.data['state']}: fidelity {fidelity!r}")
        return problems


def _fidelity(u: np.ndarray, v: np.ndarray) -> float:
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(abs(np.vdot(u, v)) ** 2)


def _cli(argv: list[str]) -> tuple[int, str]:
    """epdyn.cli.main with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = epdyn.cli.main(argv)
    return code, out.getvalue()


class Trajectory(Workload):
    """Dense-output `epdyn simulate` runs, one per direction and format."""

    name = "trajectory"
    RUNS = (("cw", "json"), ("ccw", "csv"))

    def path(self, direction: str, fmt: str) -> str:
        return os.path.join(self.workdir, f"trajectory-{direction}.{fmt}")

    def run_pass(self, index: int) -> list[Op]:
        ops: list[Op] = []
        for direction, fmt in self.RUNS:
            argv = [
                "--config", self.config_path,
                "--output", self.path(direction, fmt),
                "--format", fmt,
                "simulate",
                "--direction", direction,
                "--method", "direct",
                "--n-output", str(TRAJECTORY_N_OUTPUT),
            ]
            self.attempt(ops, f"simulate-{direction}-{fmt}", _cli, argv)
        return ops

    def check(self, ops: list[Op]) -> None:
        for op, (direction, fmt) in zip(ops, self.RUNS):
            if op.error is not None:
                continue
            code, stdout = op.data["result"]
            expected = f"dominant=state{SELECTED[Direction(direction)]}"
            if code != 0:
                _fail(op, f"exit code {code}")
                continue
            if expected not in stdout:
                _fail(op, f"report line {stdout.strip()!r} lacks {expected}")
            with open(self.path(direction, fmt), "rb") as fh:
                blob = fh.read()
            op.data["digest"] = hashlib.sha256(blob).hexdigest()
            if fmt == "json":
                rows = len(json.loads(blob)["rows"])
            else:
                rows = blob.count(b"\n") - 1
            if rows != TRAJECTORY_N_OUTPUT + 1:
                _fail(op, f"{rows} rows written, expected {TRAJECTORY_N_OUTPUT + 1}")

    def check_run(self, passes: list[list[Op]]) -> list[str]:
        problems = []
        for k, (direction, fmt) in enumerate(self.RUNS):
            digests = {p[k].data.get("digest") for p in passes}
            if len(digests) != 1:
                problems.append(f"simulate {direction} {fmt}: output bytes differ between passes")
        return problems


class Sweep(Workload):
    """`epdyn --jobs 2 sweep` on a 4x4 grid with CSV output."""

    name = "sweep"
    procs = SWEEP_JOBS

    def __init__(self, inputs: Inputs, workdir: str, config_path: str) -> None:
        super().__init__(inputs, workdir, config_path)
        self.csv_path = os.path.join(workdir, "sweep.csv")
        self.baseline = None
        self.serial_s = math.nan

    def spec(self):
        return epdyn.analysis.SweepSpec(
            template=diode_loop(Direction.CW),
            durations=_grid(*SWEEP_T, SWEEP_NT),
            amp_scales=_grid(*SWEEP_AMP, SWEEP_NAMP),
            direction=Direction.CCW,
            initial_phase=self.inputs.sweep_phase,
        )

    def prepare(self) -> None:
        """The same grid at jobs=1 through the library: the checks' reference
        and the single-process baseline ``serial_s``."""
        t0 = time.perf_counter()
        self.baseline = epdyn.analysis.sweep(self.spec(), DEFAULT_PARAMS, ACCEPT, jobs=1)
        self.serial_s = time.perf_counter() - t0

    def run_pass(self, index: int) -> list[Op]:
        ops: list[Op] = []
        argv = [
            "--config", self.config_path,
            "--output", self.csv_path,
            "--jobs", str(SWEEP_JOBS),
            "sweep",
            "--t-min", repr(SWEEP_T[0]), "--t-max", repr(SWEEP_T[1]),
            "--nt", str(SWEEP_NT), "--t-spacing", "linear",
            "--amp-min", repr(SWEEP_AMP[0]), "--amp-max", repr(SWEEP_AMP[1]),
            "--namp", str(SWEEP_NAMP),
            "--initial-phase", repr(self.inputs.sweep_phase),
            "--direction", "ccw",
        ]
        cli_op = self.attempt(ops, "sweep-cli", _cli, argv)
        ops.extend(Op(f"cell-{i}-{j}") for i in range(SWEEP_NT) for j in range(SWEEP_NAMP))
        if cli_op.error is not None:
            for op in ops[1:]:
                op.error = cli_op.error
        return ops

    def check(self, ops: list[Op]) -> None:
        cli_op, cells = ops[0], ops[1:]
        if cli_op.error is not None:
            return
        code, _ = cli_op.data["result"]
        if code != 0:
            _fail(cli_op, f"exit code {code}")
        with open(self.csv_path, "rb") as fh:
            blob = fh.read()
        cli_op.data["digest"] = hashlib.sha256(blob).hexdigest()
        rows = {(int(r["i"]), int(r["j"])): r for r in csv.DictReader(io.StringIO(blob.decode()))}
        for op in cells:
            _, i, j = op.name.split("-")
            row = rows.get((int(i), int(j)))
            if row is None:
                _fail(op, "row missing from the CSV")
                continue
            if row["error"]:
                _fail(op, f"cell error: {row['error']}")
                continue
            base = self.baseline.cell(int(i), int(j))
            got = (row["dominant"], row["pass_ratio"], row["pass_survival"])
            want = (
                str(base.dominant_state),
                str(base.pass_ratio).lower(),
                str(base.pass_survival).lower(),
            )
            if got != want:
                _fail(op, f"dominant/pass flags {got} differ from the jobs=1 baseline {want}")

    def check_run(self, passes: list[list[Op]]) -> list[str]:
        digests = {p[0].data.get("digest") for p in passes}
        return [] if len(digests) == 1 else ["sweep CSV bytes differ between passes"]


WORKLOAD_CLASSES = {cls.name: cls for cls in (Selectivity, Adiabatic, Trajectory, Sweep)}
