"""One workload's passes in a process of its own (started by run.py).

The process holds nothing but the workload, so its peak resident set (plus
that of its pool workers, the only children it has) belongs to the
workload. It prints one JSON object on its last stdout line.

Untraced run: one warm pass, then timed passes until ``--seconds`` have
passed (at least MIN_PASSES), with every timed op bracketed by the
reference loop (calibrate.py). Traced run: after the warm pass, traced and
untraced passes of the same inputs alternate until ``--seconds`` have
passed (at least two of each); per-layer times are medians over the traced
passes, counts come from one traced pass and must repeat exactly in every
other.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import epdyn.analysis  # noqa: E402
import epdyn.cli  # noqa: E402
import epdyn.loops  # noqa: E402
import epdyn.propagation  # noqa: E402
import epdyn.serialize  # noqa: E402

from calibrate import Calibrator, time_reference  # noqa: E402
from inputs import make_inputs  # noqa: E402
from tracer import Target, Tracer, self_times, write_spans  # noqa: E402
from workloads import SWEEP_JOBS, WORKLOAD_CLASSES  # noqa: E402

MIN_PASSES = 2
#: Share of a pass's time given to the reference loop between its ops.
REF_SHARE = 0.2


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def _count_records(tracer: Tracer, traj) -> None:
    tracer.count("propagation.records", len(traj.times))


def _count_bytes(tracer: Tracer, text: str) -> None:
    tracer.count("serialize.bytes", len(text.encode("utf-8")))


def targets() -> list[Target]:
    """Every wrapped public name, on the modules its callers look it up in."""
    L, P, A, S, C = epdyn.loops, epdyn.propagation, epdyn.analysis, epdyn.serialize, epdyn.cli
    return [
        Target(L, "field_at", "loops.field_at", leaf=True),
        # LoopSpec.velocity_at delegates to loops.field_velocity
        Target(L, "field_velocity", "loops.velocity_at", leaf=True),
        # counted on calls from propagation only
        Target(P, "build_hamiltonian", "model.build_hamiltonian", leaf=True),
        *(
            Target(m, "propagate_direct", "propagation.propagate_direct", on_result=_count_records)
            for m in (P, A, C)
        ),
        *(
            Target(m, "propagate_adiabatic", "propagation.propagate_adiabatic", on_result=_count_records)
            for m in (P, C)
        ),
        *(Target(m, "track_branches", "propagation.track_branches") for m in (P, A)),
        Target(P, "accumulated_phase", "propagation.accumulated_phase"),
        Target(A, "table1", "analysis.table1"),
        Target(A, "final_state_report", "analysis.final_state_report"),
        Target(A, "sweep", "analysis.sweep"),
        *(
            Target(S, name, f"serialize.{name}", on_result=_count_bytes)
            for name in ("trajectory_to_json", "trajectory_to_csv", "sweep_header_csv", "sweep_row_csv")
        ),
        Target(C, "load_config", "cli.load_config"),
        Target(C, "main", "cli.main"),
    ]


#: name -> unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "loops.field_at.calls": "count",
    "loops.field_at.self_s": "s",
    "loops.velocity_at.calls": "count",
    "model.build_hamiltonian.calls": "count",
    "model.build_hamiltonian.self_s": "s",
    "propagation.propagate_direct.calls": "count",
    "propagation.propagate_direct.self_s": "s",
    "propagation.direct.rhs_calls": "count",
    "propagation.direct.us_per_rhs": "us",
    "propagation.propagate_adiabatic.calls": "count",
    "propagation.propagate_adiabatic.self_s": "s",
    "propagation.adiabatic.rhs_calls": "count",
    "propagation.adiabatic.us_per_rhs": "us",
    "propagation.track_branches.self_s": "s",
    "propagation.accumulated_phase.self_s": "s",
    "propagation.records": "count",
    "analysis.table1.self_s": "s",
    "analysis.final_state_report.self_s": "s",
    "analysis.sweep.self_s": "s",
    "analysis.sweep.serial_s": "s",
    "analysis.sweep.pool_eff": "ratio",
    "analysis.sweep.first_row_s": "s",
    "serialize.trajectory_to_json.self_s": "s",
    "serialize.trajectory_to_csv.self_s": "s",
    "serialize.bytes": "count",
    "cli.load_config.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.untraced_iqr_s": "s",
}


def pass_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times inclusive of pool workers)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    leaf_calls: dict[str, int] = {}
    leaf_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        for name, (n, secs) in s.leaf.items():
            leaf_calls[name] = leaf_calls.get(name, 0) + n
            leaf_s[name] = leaf_s.get(name, 0.0) + secs

    def route(span_name: str, base: str) -> tuple[int, float]:
        """RHS calls (the base leaf's count) and microseconds per call."""
        inside = [s for s in spans if s.name == span_name]
        n = sum(s.leaf.get(base, (0, 0.0))[0] for s in inside)
        total = sum(s.duration for s in inside)
        return n, (1e6 * total / n if n else 0.0)

    direct_n, direct_us = route("propagation.propagate_direct", "loops.field_at")
    adiab_n, adiab_us = route("propagation.propagate_adiabatic", "loops.velocity_at")
    first_row = 0.0
    for sweep_span in (s for s in spans if s.name == "analysis.sweep"):
        rows = [s.start for s in spans if s.name == "serialize.sweep_row_csv" and s.parent == sweep_span.id]
        if rows:
            first_row = min(rows) - sweep_span.start
    return {
        "loops.field_at.calls": leaf_calls.get("loops.field_at", 0),
        "loops.field_at.self_s": leaf_s.get("loops.field_at", 0.0),
        "loops.velocity_at.calls": leaf_calls.get("loops.velocity_at", 0),
        "model.build_hamiltonian.calls": leaf_calls.get("model.build_hamiltonian", 0),
        "model.build_hamiltonian.self_s": leaf_s.get("model.build_hamiltonian", 0.0),
        "propagation.propagate_direct.calls": calls.get("propagation.propagate_direct", 0),
        "propagation.propagate_direct.self_s": self_s.get("propagation.propagate_direct", 0.0),
        "propagation.direct.rhs_calls": direct_n,
        "propagation.direct.us_per_rhs": direct_us,
        "propagation.propagate_adiabatic.calls": calls.get("propagation.propagate_adiabatic", 0),
        "propagation.propagate_adiabatic.self_s": self_s.get("propagation.propagate_adiabatic", 0.0),
        "propagation.adiabatic.rhs_calls": adiab_n,
        "propagation.adiabatic.us_per_rhs": adiab_us,
        "propagation.track_branches.self_s": self_s.get("propagation.track_branches", 0.0),
        "propagation.accumulated_phase.self_s": self_s.get("propagation.accumulated_phase", 0.0),
        "propagation.records": tracer.counters.get("propagation.records", 0),
        "analysis.table1.self_s": self_s.get("analysis.table1", 0.0),
        "analysis.final_state_report.self_s": self_s.get("analysis.final_state_report", 0.0),
        "analysis.sweep.self_s": self_s.get("analysis.sweep", 0.0),
        "analysis.sweep.first_row_s": first_row,
        "serialize.trajectory_to_json.self_s": self_s.get("serialize.trajectory_to_json", 0.0),
        "serialize.trajectory_to_csv.self_s": self_s.get("serialize.trajectory_to_csv", 0.0),
        "serialize.bytes": tracer.counters.get("serialize.bytes", 0),
        "cli.load_config.self_s": self_s.get("cli.load_config", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }


def trace_report(tracers, traced, untraced, workload, problems) -> tuple[dict, str]:
    """Per-layer metrics of the traced run, and the line that gives their bases.

    Times are medians over the traced passes; a count that differs between
    traced passes is appended to ``problems``.
    """
    per_pass = [pass_layers(t) for t in tracers]
    layers = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if LAYER_UNITS[name] == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    wall = statistics.median(untraced)
    serial = getattr(workload, "serial_s", 0.0)
    layers["analysis.sweep.serial_s"] = serial
    layers["analysis.sweep.pool_eff"] = serial / (SWEEP_JOBS * wall) if serial else 0.0
    layers["trace.overhead_s"] = statistics.median(traced) - wall
    layers["trace.untraced_iqr_s"] = iqr(untraced)
    bases = (
        f"bases: direct us_per_rhs over {layers['propagation.direct.rhs_calls']} RHS calls, "
        f"adiabatic over {layers['propagation.adiabatic.rhs_calls']}; pool_eff = serial_s "
        f"{serial:.6g} s / ({SWEEP_JOBS} jobs x untraced wall_s {wall:.6g} s); "
        f"{len(traced)} traced and {len(untraced)} untraced passes"
    )
    return {name: {"value": layers[name], "unit": u} for name, u in LAYER_UNITS.items()}, bases


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest waited-for child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


class Runner:
    def __init__(self, workload, trace_dir: str, run_id: str) -> None:
        self.workload = workload
        self.trace_dir = trace_dir
        self.run_id = run_id
        self.passes: list[list] = []
        self.tracers: list[Tracer] = []

    def one_pass(self, index: int, traced: bool = False) -> list:
        tracer = None
        if traced:
            tracer = Tracer(self.run_id, self.trace_dir)
            tracer.install(targets())
            root = tracer.begin("bench.pass")
        try:
            ops = self.workload.run_pass(index)
        finally:
            if tracer is not None:
                tracer.end(root)
                tracer.uninstall()
        if tracer is not None:
            tracer.merge_workers()
            self.tracers.append(tracer)
        self.workload.check(ops)
        if self.passes:
            # keep only what the checks recorded, so memory does not grow with
            # the pass count; the first pass keeps its results for cross checks
            for op in ops:
                op.data.pop("result", None)
        self.passes.append(ops)
        return ops


def pass_seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def pass_refs(ops) -> float:
    """The pass's time in reference-loop units, each op against its own bracket."""
    return sum(op.seconds / op.ref for op in ops if op.seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory of this run")
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--trace-out", required=True, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    workload = WORKLOAD_CLASSES[args.workload](make_inputs(args.seed), args.work, args.config)
    workload.prepare()
    runner = Runner(workload, args.work, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    warm = runner.one_pass(0)  # warm: caches, lazy imports, first fork

    untraced: list[float] = []
    traced: list[float] = []
    wall_ref: list[float] = []
    calibrator = None
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # every traced and untraced pass runs the same inputs (index 1), so
        # counts must repeat and the overhead compares like with like
        while len(traced) < 2 or len(untraced) < 2 or time.perf_counter() < deadline:
            if len(traced) <= len(untraced):
                traced.append(pass_seconds(runner.one_pass(1, traced=True)))
            else:
                untraced.append(pass_seconds(runner.one_pass(1)))
    else:
        slots = sum(1 for op in warm if op.seconds) + 1
        reps = max(1, round(REF_SHARE * pass_seconds(warm) / slots / time_reference(1)))
        calibrator = workload.after_op = Calibrator(reps, workload.procs)
        while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
            ops = runner.one_pass(len(untraced) + 1)
            untraced.append(pass_seconds(ops))
            wall_ref.append(pass_refs(ops))
        workload.after_op = None
    peak_rss = peak_rss_mib()  # before the calibration helpers are reaped
    if calibrator is not None:
        calibrator.close()

    problems = workload.check_run(runner.passes)
    result = {}
    if args.trace:
        result["layers"], result["bases"] = trace_report(runner.tracers, traced, untraced, workload, problems)
        write_spans([s for t in runner.tracers for s in t.spans], args.trace_out)
    ops = [op for p in runner.passes for op in p]
    errors = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
    result.update(
        attempted=len(ops),
        failed=len(errors),
        errors=errors[:10],
        problems=problems,
        notes=workload.notes(runner.passes),
        wall_s=untraced,
        wall_ref=wall_ref,
        ref_s=calibrator.samples if calibrator else [],
        peak_rss_mib=peak_rss,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
