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
import contextlib
import io
import json
import logging
import math
import os
import shutil
import stat
import sys
import tempfile
import time
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

# progress lines, which ``main`` prints to stderr for the duration of a call, and the
# writer's time at DEBUG
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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8 (ValueErrors), an int past Python's digit limit
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


@contextlib.contextmanager
def _open_output(path: Optional[str], required: bool = True, keep_interrupted: bool = False):
    """The output for ``path``, checked before any work and written into ``path`` when the block succeeds.

    A missing required path is a config error, and so is a path that names
    no file, cannot be written or lies in a directory that cannot take a new
    file; no optional path gives ``None``. An existing file that is not a
    regular one (a pipe, a device) is opened and written as the block
    writes. Otherwise the block writes an unnamed file, beside ``path``
    where its directory takes one, whose bytes are copied into ``path`` when
    the block succeeds, or, with ``keep_interrupted``, when it ends by
    ``KeyboardInterrupt``. So a failed run leaves what was at ``path`` as it
    was and leaves no file behind, and a file that is written keeps its
    owner, links and mode.
    """
    if path is None:
        if required:
            raise ConfigError("missing required field 'output.path' (or --output)")
        yield None
        return
    try:
        if not os.path.basename(path) or os.path.isdir(path):
            raise OSError(f"{path!r} names no file")
        existing = os.path.exists(path)
        staged = not existing or stat.S_ISREG(os.stat(path).st_mode)
        if not staged:
            fh = open(path, "w", encoding="utf-8", newline="\n")
        elif existing and not os.access(path, os.W_OK):
            raise OSError(f"{path!r} is not writable")
        else:
            fh = _staging_file(path, existing)
    except OSError as exc:
        raise ConfigError(f"field 'output.path' (or --output) cannot be opened for writing: {exc}") from exc
    with fh:
        try:
            yield fh
        except KeyboardInterrupt:
            if staged and keep_interrupted:
                _copy_out(fh, path)
            raise
        if staged:
            _copy_out(fh, path)


def _staging_file(path: str, existing: bool):
    """An unnamed file beside ``path``; an existing file whose directory takes no new file is staged in the temporary directory."""
    try:
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=os.path.dirname(os.path.realpath(path)))
    except OSError:
        if not existing:
            raise
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def _copy_out(staged, path: str) -> None:
    staged.seek(0)  # flushes the text layer, so its bytes are copied as they are
    try:
        with open(path, "wb") as fh:
            shutil.copyfileobj(staged.buffer, fh)
    except OSError as exc:
        raise ConfigError(f"field 'output.path' (or --output) cannot be written: {exc}") from exc


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
    if n_output < 2:
        raise ConfigError(f"--n-output must be >= 2, got {n_output}")
    propagate = propagate_direct if method == "direct" else propagate_adiabatic
    write = serialize.trajectory_to_csv if config.out_format == "csv" else serialize.trajectory_to_json
    with _open_output(config.out_path) as fh:
        try:
            traj = propagate(config.params, config.loop, config.initial, config.integrator, n_output=n_output)
        except ValueError as exc:  # a loop the route cannot step or record (duration_T too small)
            raise ConfigError(f"invalid 'loop' section: {exc}") from exc
        except MemoryError as exc:  # numpy refused the count's arrays, or could not allocate them
            raise ConfigError(f"--n-output {n_output} is too large: {exc}") from exc
        report = analysis.final_state_report(traj, config.loop.direction)
        started = time.perf_counter()
        text = write(traj)
        seconds = time.perf_counter() - started
        values = traj.times.size * len(serialize.TRAJECTORY_COLUMNS)
        log.debug("%s: %d values in %.3f ms, %.3f us a value", write.__name__, values, seconds * 1e3,
                  seconds / values * 1e6)
        fh.write(text)
    print(_report_line(report, method))
    return EXIT_OK


def cmd_table1(config: RunConfig, out_path: Optional[str]) -> int:
    """Print the table, and write it to ``out_path``, the --output path only: the config's output.path is simulate's."""
    with _open_output(out_path, required=False) as fh:
        try:
            table = analysis.table1(config.params, config.loop, config.integrator)
        except ValueError as exc:  # a loop the maps cannot step; a loop off the EP is NotEncirclingError
            raise ConfigError(f"invalid 'loop' section: {exc}") from exc
        rendered = (serialize.table_to_json if config.out_format == "json" else serialize.table_to_text)(table)
        if fh is not None:
            fh.write(rendered)
    sys.stdout.write(rendered)
    return EXIT_OK


def cmd_winding(config: RunConfig, n_samples: int) -> int:
    if n_samples < 64:
        raise ConfigError(f"--n-samples must be >= 64, got {n_samples}")
    try:
        w = winding_number(config.loop, config.params, n_samples=n_samples)
    except MemoryError as exc:
        raise ConfigError(f"--n-samples {n_samples} is too large: {exc}") from exc
    r = rho(config.loop, locate_ep(config.params))
    print(f"winding={w} rho={serialize.fmt(r)}")
    return EXIT_OK


def cmd_sweep(config: RunConfig, args) -> int:
    durations = _parse_grid(args.t_min, args.t_max, args.nt, args.t_spacing, "duration")
    amp_scales = _parse_grid(args.amp_min, args.amp_max, args.namp, "linear", "amplitude")
    direction = Direction(args.direction) if args.direction else config.loop.direction
    # without the flag the spec's own default, the state the direction selects
    target = {"any": None, "1": 1, "2": 2, None: "direction"}[args.dominant_target]
    try:
        levels = tuple(float(x) for x in args.survival_levels.split(","))
    except ValueError as exc:
        raise ConfigError(f"--survival-levels must be comma-separated numbers, got {args.survival_levels!r}") from exc
    try:
        spec = analysis.SweepSpec(
            template=config.loop,
            durations=durations,
            amp_scales=amp_scales,
            direction=direction,
            initial_phase=args.initial_phase,
            ratio_min=args.ratio_min,
            survival_levels=levels,
            dominant_target=target,
        )
    except ValueError as exc:
        # the spec's message starts with the field at fault; name the flag that
        # sets it instead (the shortest duration, --t-min, is the one a loop
        # refuses as too small), and leave the rest of the message as it is
        message = str(exc)
        for name, flag in (("ratio_min", "--ratio-min"), ("survival_levels", "--survival-levels"),
                           ("initial_phase", "--initial-phase"), ("duration_T", "--t-min")):
            if message.startswith(name):
                message = flag + message[len(name):]
        raise ConfigError(message) from exc

    # CSV writes each row as its cell arrives (cells arrive in grid order, one
    # batch of up to 32 at a time, so a batch may end mid-row), so an
    # interrupted run leaves valid output; JSON writes the whole result
    csv = config.out_format == "csv"
    with _open_output(config.out_path, keep_interrupted=csv) as fh:
        def report(cell: analysis.SweepCell) -> None:
            log.info("cell (%d,%d) done steps=%s frame=%s", cell.i, cell.j, cell.steps, cell.frame)
            if csv:
                fh.write(serialize.sweep_row_csv(cell) + "\n")
                fh.flush()

        if csv:
            fh.write(serialize.sweep_header_csv() + "\n")
            fh.flush()
        result = analysis.sweep(spec, config.params, config.integrator, args.jobs, report)
        if not csv:
            fh.write(serialize.sweep_to_json(result))
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
    if spacing == "geometric":  # the last point is hi itself, not lo ratio^(n - 1)
        ratio = (hi / lo) ** (1.0 / (n - 1))
        grid = tuple(lo * ratio**k for k in range(n - 1)) + (float(hi),)
    else:
        step = (hi - lo) / (n - 1)
        grid = tuple(lo + step * k for k in range(n))
    if not all(map(math.isfinite, grid)):  # a geometric ratio max / min past float64
        raise ConfigError(f"{what} grid overflows float64 between {lo} and {hi}")
    return grid


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are config errors: one ``error:`` line and exit 1, as for every other error."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    sw.add_argument("--dominant-target", choices=("1", "2", "any"), help="default: 1 for cw, 2 for ccw")
    sw.add_argument("--initial-phase", type=float, default=0.0)
    sw.add_argument("--direction", choices=("cw", "ccw"))

    wind = sub.add_parser("winding", help="winding number of the discriminant along the loop")
    wind.add_argument("--n-samples", type=int, default=1024)

    return parser


def main(argv=None) -> int:
    # progress goes through logging; a handler of this call's own prints it,
    # so a second call in the same process prints each line once. The
    # DEBUG lines (the writer's time) reach only a caller's own handlers
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    handler.setLevel(logging.INFO)
    level = log.level
    log.addHandler(handler)
    log.setLevel(min(log.getEffectiveLevel(), logging.INFO))
    code = EXIT_OK
    try:
        code = _run(argv)
        sys.stdout.flush()  # a pipe closed by its reader shows here, not in the interpreter's last flush
    except BrokenPipeError:
        # the reader has all it asked for: the rest of the output goes to os.devnull
        # (a stdout with no descriptor has none to redirect), and the code is the
        # command's, or 0 where the pipe closed during the command
        with contextlib.suppress(io.UnsupportedOperation):
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    return code


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config, require_loop=args.command != "locate-ep")
        if args.output is not None:
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
            return cmd_table1(config, args.output)
        if args.command == "sweep":
            return cmd_sweep(config, args)
        return cmd_winding(config, args.n_samples)
    except EpdynError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
