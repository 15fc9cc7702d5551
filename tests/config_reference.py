"""The config loader as one function per section, kept as the oracle of the table reader.

This is ``cli.load_config`` before the five sections were read by one
function from one table: a field list per section, one ``_require_number``
call per number and one ``try``/``except ValueError`` per constructor. The
tests check that the package's reader gives the same ``RunConfig`` or the
same ``ConfigError`` message on every config they generate, but for the one
order the reader changed: it reads all of a section's fields before it
builds the section (``notes/decisions.md``, "One reader for the config
sections").
"""

import json
import math

from epdyn.cli import RunConfig
from epdyn.errors import ConfigError
from epdyn.loops import Direction, LoopSpec
from epdyn.model import FieldPoint, SystemParams
from epdyn.propagation import IntegratorConfig, StateVector


_SECTION_FIELDS = {
    "system": ("e1", "e2", "gamma1", "gamma2", "d12_re", "d12_im"),
    "loop": (
        "center_omega",
        "center_eps0",
        "semi_axis_omega",
        "semi_axis_eps",
        "direction",
        "duration_T",
        "start_phase",
    ),
    "integrator": ("rel_tol", "abs_tol", "max_step", "initial_step"),
    "initial": ("c1_re", "c1_im", "c2_re", "c2_im"),
    "output": ("path", "format"),
}


def _require_number(section: str, data: dict, key: str, default=None) -> float:
    if key not in data:
        if default is not None:
            return default
        raise ConfigError(f"missing required field '{section}.{key}'")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{section}.{key}' must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field '{section}.{key}' must be finite")
    return number


def _check_keys(section: str, data) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{section}' must be a JSON object")
    allowed = _SECTION_FIELDS[section]
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{section}.{key}'")


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
        if key not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config key '{key}'")

    if "system" not in doc:
        raise ConfigError("missing required section 'system'")
    sys_sec = doc["system"]
    _check_keys("system", sys_sec)
    try:
        params = SystemParams(
            e1=_require_number("system", sys_sec, "e1"),
            e2=_require_number("system", sys_sec, "e2"),
            gamma1=_require_number("system", sys_sec, "gamma1"),
            gamma2=_require_number("system", sys_sec, "gamma2"),
            d12=complex(
                _require_number("system", sys_sec, "d12_re"),
                _require_number("system", sys_sec, "d12_im", default=0.0),
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid 'system' section: {exc}") from exc

    loop = None
    if "loop" in doc:
        loop_sec = doc["loop"]
        _check_keys("loop", loop_sec)
        direction_raw = loop_sec.get("direction")
        if direction_raw not in ("cw", "ccw"):
            raise ConfigError("field 'loop.direction' must be 'cw' or 'ccw'")
        try:
            loop = LoopSpec(
                center=FieldPoint(
                    omega=_require_number("loop", loop_sec, "center_omega"),
                    eps0=_require_number("loop", loop_sec, "center_eps0"),
                ),
                semi_axis_omega=_require_number("loop", loop_sec, "semi_axis_omega"),
                semi_axis_eps=_require_number("loop", loop_sec, "semi_axis_eps"),
                direction=Direction(direction_raw),
                duration_T=_require_number("loop", loop_sec, "duration_T"),
                start_phase=_require_number("loop", loop_sec, "start_phase", default=0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid 'loop' section: {exc}") from exc
    elif require_loop:
        raise ConfigError("missing required section 'loop'")

    integrator = IntegratorConfig()
    if "integrator" in doc:
        int_sec = doc["integrator"]
        _check_keys("integrator", int_sec)
        defaults = IntegratorConfig()
        try:
            integrator = IntegratorConfig(
                rel_tol=_require_number("integrator", int_sec, "rel_tol", defaults.rel_tol),
                abs_tol=_require_number("integrator", int_sec, "abs_tol", defaults.abs_tol),
                max_step=_require_number("integrator", int_sec, "max_step", defaults.max_step),
                initial_step=_require_number(
                    "integrator", int_sec, "initial_step", defaults.initial_step
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid 'integrator' section: {exc}") from exc

    initial = StateVector.basis(1)
    if "initial" in doc:
        init_sec = doc["initial"]
        _check_keys("initial", init_sec)
        try:
            initial = StateVector(
                complex(
                    _require_number("initial", init_sec, "c1_re", default=0.0),
                    _require_number("initial", init_sec, "c1_im", default=0.0),
                ),
                complex(
                    _require_number("initial", init_sec, "c2_re", default=0.0),
                    _require_number("initial", init_sec, "c2_im", default=0.0),
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid 'initial' section: {exc}") from exc

    out_path = None
    out_format = "csv"
    if "output" in doc:
        out_sec = doc["output"]
        _check_keys("output", out_sec)
        out_path = out_sec.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("field 'output.path' must be a string")
        out_format = out_sec.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ConfigError("field 'output.format' must be 'csv' or 'json'")

    return RunConfig(params, loop, integrator, initial, out_path, out_format)
