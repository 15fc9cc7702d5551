"""Observables of propagated trajectories and traversal maps: dominance reports, the exchange table, sweeps.

A report compares a record's two final populations, where the rescaling
factors cancel, and takes the survival from the true (un-renormalized)
squared norms. The table and the sweep read their final states off one
traversal map per loop (``traversal``), each as the record of U c0 on it
(``propagation._map_record``), so a loop serves every initial state; the
sweep evaluates its cells in batches of up to ``traversal._BATCH_LOOPS``
loops, in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .errors import EpdynError, NotEncirclingError, ZeroNormError
from .loops import Direction, LoopSpec, contains_ep, rho
from .model import FieldPoint, SystemParams, locate_ep
# propagate_direct is not called here; perfbench's tracer wraps analysis.propagate_direct
from .propagation import (
    IntegratorConfig,
    StateVector,
    TrajectoryRecord,
    _map_loop,
    _map_record,
    propagate_direct,
    track_branches,
)
from .traversal import _BATCH_LOOPS, _maps, traversal_maps

__all__ = [
    "AsymmetryReport",
    "Table1Row",
    "Table1Result",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "RATIO_CAP",
    "state_name",
    "final_state_report",
    "table1",
    "survival_fraction",
    "sweep",
]

#: Ratios beyond this are reported as the cap (quotients near total purity
#: carry no information).
RATIO_CAP = 1e12
#: The uniform samples of ``table1``'s branch tracking.
_TRACK_SAMPLES = 2048

@dataclass(frozen=True)
class AsymmetryReport:
    """Final-state dominance summary for one propagation."""

    dominant_state: Optional[int]  # 1, 2, or None on an exact tie
    ratio: float  # max(|c1|^2, |c2|^2) / min(|c1|^2, |c2|^2) at the end, capped at RATIO_CAP
    survival: float  # true norm^2(T) / norm^2(0)
    direction: Direction


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


def _dominance(p1: float, p2: float) -> tuple[Optional[int], float]:
    """The dominant state of the populations |c1|^2 and |c2|^2 (None on a tie) and their capped ratio max/min."""
    if p1 == p2:
        return None, 1.0
    hi, lo = (p1, p2) if p1 > p2 else (p2, p1)
    ratio = RATIO_CAP if lo <= 0.0 or hi / lo > RATIO_CAP else hi / lo
    return (1 if p1 > p2 else 2), ratio


def final_state_report(traj: TrajectoryRecord, direction: Direction) -> AsymmetryReport:
    """Dominance, capped ratio, and survival fraction of the final state.

    Dominance and ratio compare the record's two ``populations`` at its
    last row, where the scale factors cancel; the quotient keeps their
    digits however large it is, where one taken through W2 = 1 - W1 would not.
    """
    if traj.norms_sq[-1] == 0.0:
        raise ZeroNormError("both amplitudes are exactly zero at the final record")
    dominant, ratio = _dominance(*traj.populations[-1].tolist())
    return AsymmetryReport(
        dominant_state=dominant,
        ratio=ratio,
        survival=survival_fraction(traj),
        direction=direction,
    )


def survival_fraction(traj: TrajectoryRecord) -> float:
    """True squared-norm ratio between the final and initial records, from the stored norms and the logs' difference."""
    return float(traj.norms_sq[-1] / traj.norms_sq[0] * math.exp(traj.log_scale[-1] - traj.log_scale[0]))


def table1(
    params: SystemParams,
    loop: LoopSpec,
    config: IntegratorConfig = IntegratorConfig(),
) -> Table1Result:
    """State-exchange table: {CW, CCW} x {bare 1, bare 2} initial states.

    The adiabatic column is the exchange rule of branch tracking: the
    initial state where one traversal leaves the tracked branches in place,
    the other state where it swaps them (``track_branches(...).swapped``,
    the same for both directions). On a closed loop a tracked slot ends on
    +/- its own first vector, or the other slot's when the branches swap,
    so this is the bare label that following the initial state's dominant
    branch to T reads. The exact column reads the final states off the
    traversal map of each direction, each computed from its own loop
    (``traversal_maps`` with ``config.rel_tol``; no other field of
    ``config`` is read): each basis state's report is that of its record
    on the map (``propagation._map_record``). The loop must encircle the EP
    for the table to carry its meaning; one that does not raises
    ``NotEncirclingError``.
    """
    if not contains_ep(loop, params):
        raise NotEncirclingError("table requires an EP-encircling loop (rho > 0)")
    swapped = track_branches(params, loop, n_samples=_TRACK_SAMPLES).swapped
    oriented = [replace(loop, direction=d) for d in (Direction.CW, Direction.CCW)]
    rows = []
    for direction_loop, tmap in zip(oriented, traversal_maps(params, oriented, config.rel_tol)):
        kept = _map_loop(params, direction_loop, tmap)
        for initial_state in (1, 2):
            record = _map_record(params, direction_loop, config, kept, StateVector.basis(initial_state))
            report = final_state_report(record, direction_loop.direction)
            rows.append(
                Table1Row(
                    direction=direction_loop.direction,
                    initial_state=initial_state,
                    adiabatic_final=3 - initial_state if swapped else initial_state,
                    exact_final=report.dominant_state,
                    report=report,
                )
            )
    return Table1Result(rows=tuple(rows), swapped=swapped)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Grid over (duration, amplitude scale) applied to a template loop.

    Each cell scales the template's eps0 profile (center and semi-axis) by
    the cell's amplitude factor and sets the cell's duration. ``dominant_target``
    selects which bare state's dominance counts as a ratio pass (the
    state-selective region maps); None accepts either dominant state. Its
    default, "direction", is the state the direction selects, CW -> 1 and
    CCW -> 2, and the field holds that number once the spec is built.
    """

    template: LoopSpec
    durations: tuple[float, ...]
    amp_scales: tuple[float, ...]
    direction: Direction = Direction.CW
    initial_phase: float = 0.0  # relative phase of the equal superposition
    ratio_min: float = 1000.0
    survival_levels: tuple[float, ...] = (0.1, 0.01, 0.001)
    dominant_target: Union[int, str, None] = "direction"

    def __post_init__(self) -> None:
        if self.dominant_target == "direction":
            object.__setattr__(self, "dominant_target", 1 if self.direction is Direction.CW else 2)
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
    spec: SweepSpec, params: SystemParams, config: IntegratorConfig, grid: list, ep, initial: StateVector
) -> list:
    """The cells at the grid positions (i, j) of ``grid``, from one batch of traversal maps.

    A cell whose map or record fails records the error.
    """
    loops = [spec.cell_loop(i, j) for i, j in grid]
    cells = []
    for (i, j), loop, tmap in zip(grid, loops, _maps(params, loops, config.rel_tol)):
        common = dict(i=i, j=j, duration_T=spec.durations[i], amp_scale=spec.amp_scales[j], rho=rho(loop, ep))
        try:
            if isinstance(tmap, Exception):
                raise tmap
            report = final_state_report(_map_record(params, loop, config, _map_loop(params, loop, tmap), initial),
                                        loop.direction)
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
        for cell in _run_batch(spec, params, config, grid[start:start + _BATCH_LOOPS], ep, initial):
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return SweepResult(spec=spec, cells=tuple(cells))
