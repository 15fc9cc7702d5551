"""Observables of propagated trajectories and traversal maps: projections, dominance, sweeps.

Projections of a trajectory record are computed on the normalized state so
the rescaling factors cancel; survival fractions use the true
(un-renormalized) squared norms. The table and the sweep read their final
states off one traversal map per loop (``traversal``): U c0 from any initial
state c0, so a loop serves every initial state, and the sweep evaluates its
cells in batches of up to ``traversal._BATCH_LOOPS`` loops, in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import EpdynError, ZeroNormError
from .loops import Direction, LoopSpec, contains_ep, rho
from .model import FieldPoint, SystemParams, locate_ep
# propagate_direct is not called here; perfbench's tracer wraps analysis.propagate_direct
from .propagation import (
    IntegratorConfig,
    StateVector,
    TrajectoryRecord,
    propagate_direct,
    track_branches,
)
from .traversal import _BATCH_LOOPS, TraversalMap, _maps, traversal_maps

__all__ = [
    "ProjectionSeries",
    "AsymmetryReport",
    "Table1Row",
    "Table1Result",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "RATIO_CAP",
    "state_name",
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


def state_name(index: Optional[int]) -> str:
    """A bare state's label, "state1" or "state2"; "-" for none (a tie)."""
    return "-" if index is None else f"state{index}"


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
    """True squared-norm ratio between the final and initial records.

    When the initial record carries a scale factor (its true squared norm
    lies outside [1e-150, 1e+150], and may under- or overflow float64), the
    ratio is taken on the stored norms and the difference of the logs.
    """
    if traj.log_scale[0] == 0.0:
        return traj.true_norm_sq(-1) / traj.true_norm_sq(0)
    return float(traj.norms_sq[-1] / traj.norms_sq[0] * math.exp(traj.log_scale[-1] - traj.log_scale[0]))


def _map_report(
    params: SystemParams,
    loop: LoopSpec,
    tmap: TraversalMap,
    initial,
    initial_label: str = "",
) -> AsymmetryReport:
    """Dominance, capped ratio and survival of the state U c0 that a traversal map gives.

    The survival restores the trace factor the map leaves out:
    |U c0|^2 e^(2 log_scale) e^(-(gamma1 + gamma2) T) / |c0|^2.
    """
    c0 = StateVector.coerce(initial).as_array()
    # scaled by a power of two to a largest amplitude in [0.5, 1), so that
    # |U c0|^2 of a tiny state cannot underflow
    _, shift = np.frexp(np.max(np.abs(c0)))
    c0 = np.ldexp(c0.real, -shift) + 1j * np.ldexp(c0.imag, -shift)
    final = tmap.U[:, 0] * c0[0] + tmap.U[:, 1] * c0[1]
    pops = np.abs(final) ** 2
    dominant, ratio = _dominance(float(pops[0] / (pops[0] + pops[1])))
    gamma = params.gamma1 + params.gamma2
    log_survival = (
        math.log(float(pops.sum())) + 2.0 * tmap.log_scale - gamma * loop.duration_T
        - math.log(float(np.sum(np.abs(c0) ** 2)))
    )
    return AsymmetryReport(
        dominant_state=dominant,
        ratio=ratio,
        survival=math.exp(log_survival),
        direction=loop.direction,
        initial_label=initial_label,
    )


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
    label of that branch's final eigenvector. The exact column reads the
    final states off the traversal map of each direction, each computed
    from its own loop (``traversal_maps`` with ``config.rel_tol``; no other
    field of ``config`` is read): the map's two columns are the two basis
    rows. The loop must encircle the EP for the table to carry its meaning.
    """
    if not contains_ep(loop, params):
        raise ValueError("table requires an EP-encircling loop (rho > 0)")
    frame = track_branches(params, loop, n_samples=n_track)
    oriented = [replace(loop, direction=d) for d in (Direction.CW, Direction.CCW)]
    rows = []
    for direction_loop, tmap in zip(oriented, traversal_maps(params, oriented, config.rel_tol)):
        # branch tracking is traversal-symmetric in what it pairs at t=0/T,
        # so the flip prediction is shared by both directions
        for initial_state in (1, 2):
            slot = 0 if abs(frame.vectors[0, 0, initial_state - 1]) >= abs(
                frame.vectors[0, 1, initial_state - 1]
            ) else 1
            report = _map_report(
                params, direction_loop, tmap, StateVector.basis(initial_state), state_name(initial_state)
            )
            rows.append(
                Table1Row(
                    direction=direction_loop.direction,
                    initial_state=initial_state,
                    adiabatic_final=_bare_label(frame.vectors[-1, slot]),
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
        if not 0 < self.ratio_min < math.inf:
            raise ValueError(f"ratio_min must be finite and > 0, got {self.ratio_min!r}")
        if not (self.survival_levels and all(0 < s < math.inf for s in self.survival_levels)):
            raise ValueError(
                f"survival_levels must be finite and > 0 (at least one level), got {self.survival_levels!r}"
            )
        # an initial state or grid point that is not valid fails here, not in the sweep
        try:
            self.initial_state()
        except ValueError as exc:
            raise ValueError(f"initial_phase {self.initial_phase!r} gives no initial state: {exc}") from exc
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
    steps: Optional[int] = None  # the step count of the cell's map (None for a failed cell)
    frame: Optional[str] = None  # the frame of the cell's map, "eigen" or "bare"


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[SweepCell, ...] = field(default_factory=tuple)

    def cell(self, i: int, j: int) -> SweepCell:
        return self.cells[i * len(self.spec.amp_scales) + j]

    @property
    def all_failed(self) -> bool:
        return all(c.error is not None for c in self.cells)


def _run_batch(
    spec: SweepSpec, params: SystemParams, rel_tol: float, grid: list, ep, initial: StateVector
) -> list:
    """The cells at the grid positions (i, j) of ``grid``, from one batch of traversal maps.

    A cell whose map fails records the error.
    """
    loops = [spec.cell_loop(i, j) for i, j in grid]
    cells = []
    for (i, j), loop, tmap in zip(grid, loops, _maps(params, loops, rel_tol)):
        common = dict(i=i, j=j, duration_T=spec.durations[i], amp_scale=spec.amp_scales[j], rho=rho(loop, ep))
        try:
            if isinstance(tmap, Exception):
                raise tmap
            report = _map_report(params, loop, tmap, initial, "sweep")
        except (EpdynError, ValueError) as exc:
            cells.append(SweepCell(
                **common, ratio=None, dominant_state=None, survival=None,
                pass_ratio=None, pass_survival=None, error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        ok_ratio = report.ratio >= spec.ratio_min and (
            spec.dominant_target is None or report.dominant_state == spec.dominant_target
        )
        cells.append(SweepCell(
            **common, ratio=report.ratio, dominant_state=report.dominant_state, survival=report.survival,
            pass_ratio=ok_ratio, pass_survival=report.survival >= min(spec.survival_levels),
            steps=tmap.steps, frame=tmap.frame,
        ))
    return cells


def sweep(
    spec: SweepSpec,
    params: SystemParams,
    config: IntegratorConfig = IntegratorConfig(),
    jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Run the grid in batches of traversal maps, each of up to ``_BATCH_LOOPS`` cells.

    The cells are taken in grid order (row-major over durations, then
    amplitudes), so a batch may hold part of a row or span several. Each
    cell's final state is U c0 on its loop's map (``traversal_maps`` with
    ``config.rel_tol``; no other field of ``config`` is read), and a loop's
    map is the same bits in any batch. Per-cell errors are recorded in the
    cell (the sweep always completes). ``progress`` is an optional callable
    invoked with each finished cell, batch by batch in grid order.
    ``jobs`` is accepted for compatibility and has no effect.
    """
    ep = locate_ep(params)
    initial = spec.initial_state()
    grid = [(i, j) for i in range(len(spec.durations)) for j in range(len(spec.amp_scales))]
    cells = []
    for start in range(0, len(grid), _BATCH_LOOPS):
        for cell in _run_batch(spec, params, config.rel_tol, grid[start:start + _BATCH_LOOPS], ep, initial):
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return SweepResult(spec=spec, cells=tuple(cells))
