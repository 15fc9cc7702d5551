"""Observables of propagated trajectories: projections, dominance, sweeps.

Everything here is a pure function of trajectory records (plus fresh
propagations for the table and sweep drivers). Projections are computed on
the normalized state so the rescaling factors cancel; survival fractions use
the true (un-renormalized) squared norms.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import EpdynError, ZeroNormError
from .loops import Direction, LoopSpec, contains_ep, rho
from .model import FieldPoint, SystemParams, locate_ep
from .propagation import (
    IntegratorConfig,
    StateVector,
    TrajectoryRecord,
    propagate_direct,
    track_branches,
)

__all__ = [
    "ProjectionSeries",
    "AsymmetryReport",
    "Table1Row",
    "Table1Result",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "RATIO_CAP",
    "project_normalized",
    "final_state_report",
    "table1",
    "asymmetry_criterion",
    "survival_fraction",
    "sweep",
]

#: Ratios beyond this are reported as the cap (quotients near total purity
#: carry no information).
RATIO_CAP = 1e12

#: The output grid of runs that read only their first and last rows
#: (``table1``, sweep cells). The stepper runs free of the grid, and the last
#: row is the last step's dense output at T on any grid, so both rows are the
#: bits a denser grid records, unless one of its rows in between renormalizes
#: the record (true squared norm outside [1e-150, 1e+150] of the last one);
#: then they agree to rounding.
_FINAL_ONLY = 2


@dataclass(frozen=True)
class ProjectionSeries:
    """Normalized bare-state populations W1(t), W2(t) with W1 + W2 = 1."""

    times: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class AsymmetryReport:
    """Final-state dominance summary for one propagation."""

    dominant_state: Optional[int]  # 1, 2, or None on an exact tie
    ratio: float  # max(W1,W2)/min(W1,W2), capped at RATIO_CAP
    survival: float  # true norm^2(T) / norm^2(0)
    direction: Direction
    initial_label: str

    @property
    def w_dominant(self) -> float:
        return self.ratio / (1.0 + self.ratio)


@dataclass(frozen=True)
class Table1Row:
    direction: Direction
    initial_state: int
    adiabatic_final: int
    exact_final: Optional[int]
    report: AsymmetryReport


@dataclass(frozen=True)
class Table1Result:
    """Four (direction x initial basis state) runs with adiabatic predictions."""

    rows: tuple[Table1Row, ...]
    swapped: bool

    def disagreements(self) -> int:
        return sum(1 for r in self.rows if r.exact_final != r.adiabatic_final)


def project_normalized(traj: TrajectoryRecord) -> ProjectionSeries:
    """W1(t) = |c1|^2 / (|c1|^2 + |c2|^2) and W2 = 1 - W1 exactly.

    Scale factors cancel in the quotient; W2 is defined as the complement so
    the closure W1 + W2 = 1 holds bit-for-bit.
    """
    pop1 = np.abs(traj.states[:, 0]) ** 2
    total = traj.norms_sq
    if np.any(total == 0.0):
        raise ZeroNormError("both amplitudes are exactly zero at some recorded time")
    w1 = pop1 / total
    return ProjectionSeries(times=traj.times.copy(), w1=w1, w2=1.0 - w1)


def _dominance(w1: float) -> tuple[Optional[int], float]:
    w2 = 1.0 - w1
    if w1 == w2:
        return None, 1.0
    hi, lo = (w1, w2) if w1 > w2 else (w2, w1)
    ratio = RATIO_CAP if lo <= 0.0 or hi / lo > RATIO_CAP else hi / lo
    return (1 if w1 > w2 else 2), ratio


def final_state_report(
    traj: TrajectoryRecord,
    direction: Direction,
    initial_label: str = "",
) -> AsymmetryReport:
    """Dominance, capped ratio, and survival fraction of the final state."""
    series = project_normalized(traj)
    dominant, ratio = _dominance(float(series.w1[-1]))
    return AsymmetryReport(
        dominant_state=dominant,
        ratio=ratio,
        survival=survival_fraction(traj),
        direction=direction,
        initial_label=initial_label,
    )


def asymmetry_criterion(report: AsymmetryReport, threshold: float = 1000.0) -> bool:
    """True when the dominant population is at least ``threshold`` times the other."""
    return report.ratio >= threshold


def survival_fraction(traj: TrajectoryRecord) -> float:
    """True squared-norm ratio between the final and initial records."""
    return traj.true_norm_sq(-1) / traj.true_norm_sq(0)


def _bare_label(vector: np.ndarray) -> int:
    return 1 if abs(vector[0]) >= abs(vector[1]) else 2


def table1(
    params: SystemParams,
    loop: LoopSpec,
    config: IntegratorConfig = IntegratorConfig(),
    n_track: int = 2048,
) -> Table1Result:
    """State-exchange table: {CW, CCW} x {bare 1, bare 2} initial states.

    The adiabatic column follows the initial state's dominant eigenbranch
    through the tracked (possibly swapped) frame and reads off the bare
    label of that branch's final eigenvector; the exact column comes from
    full propagation. The loop must encircle the EP for the table to carry
    its meaning.
    """
    if not contains_ep(loop, params):
        raise ValueError("table requires an EP-encircling loop (rho > 0)")
    frame = track_branches(params, loop, n_samples=n_track)
    rows = []
    for direction in (Direction.CW, Direction.CCW):
        oriented = replace(loop, direction=direction)
        # branch tracking is traversal-symmetric in what it pairs at t=0/T,
        # so the flip prediction is shared by both directions
        for initial_state in (1, 2):
            init = StateVector.basis(initial_state)
            slot = 0 if abs(frame.vectors[0, 0, initial_state - 1]) >= abs(
                frame.vectors[0, 1, initial_state - 1]
            ) else 1
            adiabatic_final = _bare_label(frame.vectors[-1, slot])
            traj = propagate_direct(params, oriented, init, config, n_output=_FINAL_ONLY)
            report = final_state_report(traj, direction, initial_label=f"state{initial_state}")
            rows.append(
                Table1Row(
                    direction=direction,
                    initial_state=initial_state,
                    adiabatic_final=adiabatic_final,
                    exact_final=report.dominant_state,
                    report=report,
                )
            )
    return Table1Result(rows=tuple(rows), swapped=frame.swapped)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid over (duration, amplitude scale) applied to a template loop.

    Each cell scales the template's eps0 profile (center and semi-axis) by
    the cell's amplitude factor and sets the cell's duration. ``dominant_target``
    selects which bare state's dominance counts as a ratio pass (the
    state-selective region maps); None accepts either dominant state.
    """

    template: LoopSpec
    durations: tuple[float, ...]
    amp_scales: tuple[float, ...]
    direction: Direction = Direction.CW
    initial_phase: float = 0.0  # relative phase of the equal superposition
    initial: Optional[StateVector] = None  # overrides the equal superposition
    ratio_min: float = 1000.0
    survival_levels: tuple[float, ...] = (0.1, 0.01, 0.001)
    dominant_target: Optional[int] = 2

    def __post_init__(self) -> None:
        if len(self.durations) < 1 or len(self.amp_scales) < 1:
            raise ValueError("grid must have at least one duration and one amplitude")
        if self.ratio_min <= 0 or any(s <= 0 for s in self.survival_levels):
            raise ValueError("thresholds must be positive")
        # a grid point that makes no valid loop fails here, not in the sweep's set-up
        for i in range(len(self.durations)):
            for j in range(len(self.amp_scales)):
                self.cell_loop(i, j)

    def initial_state(self) -> StateVector:
        if self.initial is not None:
            return self.initial
        return StateVector.equal_superposition(self.initial_phase)

    def cell_loop(self, i: int, j: int) -> LoopSpec:
        t = self.template
        s = self.amp_scales[j]
        return LoopSpec(
            center=FieldPoint(t.center.omega, t.center.eps0 * s),
            semi_axis_omega=t.semi_axis_omega,
            semi_axis_eps=t.semi_axis_eps * s,
            direction=self.direction,
            duration_T=self.durations[i],
            start_phase=t.start_phase,
        )


@dataclass(frozen=True)
class SweepCell:
    i: int
    j: int
    duration_T: float
    amp_scale: float
    rho: float
    ratio: Optional[float]
    dominant_state: Optional[int]
    survival: Optional[float]
    pass_ratio: Optional[bool]
    pass_survival: Optional[bool]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[SweepCell, ...] = field(default_factory=tuple)

    def cell(self, i: int, j: int) -> SweepCell:
        return self.cells[i * len(self.spec.amp_scales) + j]

    @property
    def all_failed(self) -> bool:
        return all(c.error is not None for c in self.cells)


def _run_cell(args) -> SweepCell:
    spec, params, config, i, j, rho_value = args
    try:
        loop = spec.cell_loop(i, j)
        traj = propagate_direct(params, loop, spec.initial_state(), config, n_output=_FINAL_ONLY)
        report = final_state_report(traj, spec.direction, initial_label="sweep")
        ok_ratio = report.ratio >= spec.ratio_min and (
            spec.dominant_target is None or report.dominant_state == spec.dominant_target
        )
        ok_survival = report.survival >= min(spec.survival_levels)
        return SweepCell(
            i=i,
            j=j,
            duration_T=spec.durations[i],
            amp_scale=spec.amp_scales[j],
            rho=rho_value,
            ratio=report.ratio,
            dominant_state=report.dominant_state,
            survival=report.survival,
            pass_ratio=ok_ratio,
            pass_survival=ok_survival,
        )
    except (EpdynError, ValueError) as exc:
        return SweepCell(
            i=i,
            j=j,
            duration_T=spec.durations[i],
            amp_scale=spec.amp_scales[j],
            rho=rho_value,
            ratio=None,
            dominant_state=None,
            survival=None,
            pass_ratio=None,
            pass_survival=None,
            error=f"{type(exc).__name__}: {exc}",
        )


def sweep(
    spec: SweepSpec,
    params: SystemParams,
    config: IntegratorConfig = IntegratorConfig(),
    jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Run the grid; cells are independent and may run in parallel.

    Per-cell errors are recorded in the cell (the sweep always completes).
    ``progress`` is an optional callable invoked with each finished cell, in
    grid order (row-major over durations, then amplitudes) for any ``jobs``.
    """
    ep = locate_ep(params)
    tasks = [
        (spec, params, config, i, j, rho(spec.cell_loop(i, j), ep))
        for i in range(len(spec.durations))
        for j in range(len(spec.amp_scales))
    ]
    cells = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for cell in (map if pool is None else pool.map)(_run_cell, tasks):
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return SweepResult(spec=spec, cells=tuple(cells))
