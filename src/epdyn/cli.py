"""Command-line front end.

Subcommands: locate-ep, simulate, table1, sweep, winding. Configuration is
a single JSON document with sections {system, loop, integrator, initial,
output}; unknown keys are rejected with the offending key named. All file
output is deterministic (fixed formatting, LF line endings).

Exit codes: 0 ok, 1 config error, 2 no finite EP, 3 propagation error,
4 precondition violation, 5 every sweep cell failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

from . import analysis, serialize
from .errors import (
    ConfigError,
    EpdynError,
    EPOnContourError,
    NegativeAmplitudeError,
    NoFiniteEPError,
    NonFiniteError,
    StepBudgetError,
    StepSizeUnderflowError,
    ZeroNormError,
)
from .loops import Direction, LoopSpec, rho, winding_number
from .model import SystemParams, locate_ep
from .propagation import (
    IntegratorConfig,
    StateVector,
    propagate_adiabatic,
    propagate_direct,
)

# progress lines; ``main`` prints them to stderr for the duration of a call
log = logging.getLogger("epdyn.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_EP = 2
EXIT_PROPAGATION = 3
EXIT_PRECONDITION = 4
EXIT_SWEEP_FAILED = 5


@dataclass
class RunConfig:
    """Validated run configuration assembled from the JSON document."""

    params: SystemParams
    loop: Optional[LoopSpec]
    integrator: IntegratorConfig
    initial: StateVector
    out_path: Optional[str]
    out_format: str


def load_config(path: str, require_loop: bool = True) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in config '{path}': {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key in doc:
        if key not in serialize.SECTIONS:
            raise ConfigError(f"unknown config key '{key}'")
    read = serialize.read_section
    return RunConfig(
        read(doc, "system"),
        read(doc, "loop", serialize.REQUIRED if require_loop else None),
        read(doc, "integrator", IntegratorConfig()),
        read(doc, "initial", StateVector.basis(1)),
        *read(doc, "output", (None, "csv")),
    )


def _open_output(path: str):
    """The output file, opened for writing; a path that cannot be opened is a config error."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"field 'output.path' (or --output) cannot be opened for writing: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with _open_output(path) as fh:
        fh.write(text)


def _exit_code_for(exc: EpdynError) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (NoFiniteEPError, NegativeAmplitudeError)):
        return EXIT_NO_EP
    propagation = (EPOnContourError, StepSizeUnderflowError, StepBudgetError, NonFiniteError)
    if isinstance(exc, (*propagation, ZeroNormError)):
        return EXIT_PROPAGATION
    return EXIT_PRECONDITION


def _report_line(report: analysis.AsymmetryReport, method: str) -> str:
    return (
        f"direction={report.direction.value} method={method} dominant={analysis.state_name(report.dominant_state)} "
        f"ratio={serialize.fmt(report.ratio)} survival={serialize.fmt(report.survival)}"
    )


def cmd_locate_ep(config: RunConfig) -> int:
    ep = locate_ep(config.params)
    print(
        f"omega_ep={serialize.fmt(ep.field.omega)} "
        f"eps0_ep={serialize.fmt(ep.field.eps0)} "
        f"residual={serialize.fmt(ep.residual)}"
    )
    return EXIT_OK


def cmd_simulate(config: RunConfig, method: str, n_output: int) -> int:
    if config.out_path is None:
        raise ConfigError("missing required field 'output.path' (or --output)")
    if n_output < 2:
        raise ConfigError(f"--n-output must be >= 2, got {n_output}")
    propagate = propagate_direct if method == "direct" else propagate_adiabatic
    try:
        traj = propagate(config.params, config.loop, config.initial, config.integrator, n_output=n_output)
    except ValueError as exc:  # a loop the route cannot step (duration_T too small for the adiabatic route)
        raise ConfigError(f"invalid 'loop' section: {exc}") from exc
    write = serialize.trajectory_to_csv if config.out_format == "csv" else serialize.trajectory_to_json
    _write_text(config.out_path, write(traj))
    report = analysis.final_state_report(traj, config.loop.direction)
    print(_report_line(report, method))
    return EXIT_OK


def cmd_table1(config: RunConfig) -> int:
    try:
        table = analysis.table1(config.params, config.loop, config.integrator)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    rendered = (serialize.table_to_json if config.out_format == "json" else serialize.table_to_text)(table)
    if config.out_path is not None:
        _write_text(config.out_path, rendered)
    sys.stdout.write(rendered)
    return EXIT_OK


def cmd_winding(config: RunConfig, n_samples: int) -> int:
    if n_samples < 64:
        raise ConfigError(f"--n-samples must be >= 64, got {n_samples}")
    w = winding_number(config.loop, config.params, n_samples=n_samples)
    r = rho(config.loop, locate_ep(config.params))
    print(f"winding={w} rho={serialize.fmt(r)}")
    return EXIT_OK


def cmd_sweep(config: RunConfig, args) -> int:
    if config.out_path is None:
        raise ConfigError("missing required field 'output.path' (or --output)")
    durations = _parse_grid(args.t_min, args.t_max, args.nt, args.t_spacing, "duration")
    amp_scales = _parse_grid(args.amp_min, args.amp_max, args.namp, "linear", "amplitude")
    target = None if args.dominant_target == "any" else int(args.dominant_target)
    try:
        levels = tuple(float(x) for x in args.survival_levels.split(","))
    except ValueError as exc:
        raise ConfigError(f"--survival-levels must be comma-separated numbers, got {args.survival_levels!r}") from exc
    try:
        spec = analysis.SweepSpec(
            template=config.loop,
            durations=durations,
            amp_scales=amp_scales,
            direction=Direction(args.direction) if args.direction else config.loop.direction,
            initial_phase=args.initial_phase,
            ratio_min=args.ratio_min,
            survival_levels=levels,
            dominant_target=target,
        )
    except ValueError as exc:
        # the spec names the field at fault; name the flag that sets it
        message = str(exc)
        for name in ("ratio_min", "survival_levels", "initial_phase"):
            message = message.replace(name, "--" + name.replace("_", "-"))
        raise ConfigError(message) from exc

    def report(cell: analysis.SweepCell) -> None:
        log.info("cell (%d,%d) done steps=%s frame=%s", cell.i, cell.j, cell.steps, cell.frame)

    if config.out_format == "json":
        result = analysis.sweep(spec, config.params, config.integrator, args.jobs, report)
        _write_text(config.out_path, serialize.sweep_to_json(result))
        return EXIT_SWEEP_FAILED if result.all_failed else EXIT_OK

    # CSV: write each row as its cell arrives (cells arrive in grid order, one
    # batch of up to 32 at a time, so a batch may end mid-row), so an
    # interrupted run leaves valid output
    with _open_output(config.out_path) as fh:
        fh.write(serialize.sweep_header_csv() + "\n")
        fh.flush()

        def write_row(cell: analysis.SweepCell) -> None:
            report(cell)
            fh.write(serialize.sweep_row_csv(cell) + "\n")
            fh.flush()

        result = analysis.sweep(spec, config.params, config.integrator, args.jobs, write_row)
    return EXIT_SWEEP_FAILED if result.all_failed else EXIT_OK


def _parse_grid(lo: float, hi: float, n: int, spacing: str, what: str):
    if n < 1:
        raise ConfigError(f"{what} grid size must be >= 1")
    if not 0 < lo < math.inf:
        raise ConfigError(f"{what} grid minimum must be finite and > 0, got {lo}")
    if n == 1:
        return (float(lo),)
    if not lo < hi < math.inf:
        raise ConfigError(f"{what} grid bounds must satisfy 0 < min < max < inf")
    if spacing == "geometric":
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return tuple(lo * ratio**k for k in range(n))
    step = (hi - lo) / (n - 1)
    return tuple(lo + step * k for k in range(n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epdyn",
        description="Driven two-resonance model: EP location, loop protocols, state exchange",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--output", help="output file path (overrides output.path)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format override")
    parser.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("locate-ep", help="print the closed-form exceptional point")

    sim = sub.add_parser("simulate", help="propagate along the configured loop")
    sim.add_argument("--direction", choices=("cw", "ccw"), help="override loop direction")
    sim.add_argument("--method", choices=("direct", "adiabatic"), default="direct")
    sim.add_argument("--n-output", type=int, default=512, help="number of uniform output intervals")

    sub.add_parser("table1", help="state-exchange table for both directions and basis initials")

    sw = sub.add_parser("sweep", help="grid over duration and amplitude scale")
    sw.add_argument("--t-min", type=float, required=True)
    sw.add_argument("--t-max", type=float, default=0.0)
    sw.add_argument("--nt", type=int, default=1)
    sw.add_argument("--t-spacing", choices=("linear", "geometric"), default="geometric")
    sw.add_argument("--amp-min", type=float, default=1.0)
    sw.add_argument("--amp-max", type=float, default=0.0)
    sw.add_argument("--namp", type=int, default=1)
    sw.add_argument("--ratio-min", type=float, default=1000.0)
    sw.add_argument("--survival-levels", default="0.1,0.01,0.001")
    sw.add_argument("--dominant-target", choices=("1", "2", "any"), default="2")
    sw.add_argument("--initial-phase", type=float, default=0.0)
    sw.add_argument("--direction", choices=("cw", "ccw"))

    wind = sub.add_parser("winding", help="winding number of the discriminant along the loop")
    wind.add_argument("--n-samples", type=int, default=1024)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # progress goes through logging; a handler of this call's own prints it,
    # so a second call in the same process prints each line once
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args) -> int:
    try:
        config = load_config(args.config, require_loop=args.command != "locate-ep")
        if args.output:
            config.out_path = args.output
        if args.format:
            config.out_format = args.format
        if args.command == "simulate" and args.direction:
            config.loop = replace(config.loop, direction=Direction(args.direction))

        if args.command == "locate-ep":
            return cmd_locate_ep(config)
        if args.command == "simulate":
            return cmd_simulate(config, args.method, args.n_output)
        if args.command == "table1":
            return cmd_table1(config)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        if args.command == "winding":
            return cmd_winding(config, args.n_samples)
        raise ConfigError(f"unknown command {args.command!r}")
    except EpdynError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
