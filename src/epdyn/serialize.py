"""File formats: the config sections, trajectory/sweep CSV and JSON, table renderings.

``SECTIONS`` is the one schema of the config sections: each section's
constructor, its fields with their defaults, and its inverse. ``read_section``
reads a config section through it, and ``section_to_dict`` writes the same
fields, which the trajectory meta and the sweep JSON's ``spec.template`` hold.

CSV uses comma separators, '.' decimals, a header row, LF line endings, and
17 significant digits for reals, so identical inputs always serialize to
byte-identical files. JSON output is emitted with sorted keys for the same
reason.

The trajectory writers format whole rows: each column becomes a list of
Python floats once, and one template per row formats its nine values
(``"%.17g"`` for CSV, ``"%r"`` in the ``indent=1`` layout for JSON, whose
head ``json.dumps`` still writes). The bytes are those of formatting one
value at a time with ``fmt`` and ``json.dumps``; ``tests/row_reference.py``
keeps those writers as the oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analysis import AsymmetryReport, SweepResult, Table1Result, Table1Row, state_name
from .errors import ConfigError
from .loops import Direction, LoopSpec, StaticDrive
from .model import FieldPoint, SystemParams
from .propagation import IntegratorConfig, StateVector, TrajectoryRecord

__all__ = [
    "TRAJECTORY_COLUMNS",
    "SWEEP_COLUMNS",
    "SECTIONS",
    "REQUIRED",
    "fmt",
    "read_section",
    "section_to_dict",
    "trajectory_to_csv",
    "trajectory_to_json",
    "sweep_to_csv",
    "sweep_to_json",
    "table_to_text",
    "table_to_json",
]

TRAJECTORY_COLUMNS = ("t", "re_c1", "im_c1", "re_c2", "im_c2", "norm_sq", "log_scale", "W1", "W2")
#: the sweep's columns, each with the ``SweepCell`` field it holds
_SWEEP_FIELDS = {"i": "i", "j": "j", "T": "duration_T", "amp_scale": "amp_scale", "rho": "rho", "ratio": "ratio",
                 "dominant": "dominant_state", "survival": "survival", "pass_ratio": "pass_ratio",
                 "pass_survival": "pass_survival", "error": "error"}
SWEEP_COLUMNS = tuple(_SWEEP_FIELDS)
#: the sweep JSON's spec keys, each a ``SweepSpec`` field; the ``initial``
#: override, which the command line never sets, is not written
_SPEC_FIELDS = ("template", "durations", "amp_scales", "direction", "initial_phase", "ratio_min", "survival_levels",
                "dominant_target")
#: the table1 JSON's row keys, each with the ``Table1Row`` attribute it holds
_TABLE1_FIELDS = {"direction": "direction", "initial": "initial_state", "adiabatic_final": "adiabatic_final",
                  "exact_final": "exact_final", "ratio": "report.ratio", "survival": "report.survival"}
#: the trajectory meta's sections, each with the ``TrajectoryRecord.meta`` key of the object it writes
_META_SECTIONS = {"system": "params", "loop": "drive", "integrator": "config"}

REQUIRED = object()  # the default of a field the config must give


def fmt(x: float) -> str:
    """17-significant-digit decimal representation (round-trip exact)."""
    return format(float(x), ".17g")


def _number(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{section}.{key}' must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field '{section}.{key}' must be finite")
    return number


def _one_of(*choices: str):
    def read(section: str, key: str, value) -> str:
        if value not in choices:
            raise ConfigError(f"field '{section}.{key}' must be {' or '.join(map(repr, choices))}")
        return value

    return read


def _text_or_none(section: str, key: str, value) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"field '{section}.{key}' must be a string")
    return value


class _Field(NamedTuple):
    """A config field that is not a number: its default and its reader."""

    default: object
    read: Callable


#: each config section's constructor, which takes the fields as keywords; its
#: fields in check order with their defaults; and its inverse, the fields'
#: values read off the object the constructor builds, in that order. Every
#: field is a number but the three given as a ``_Field``; the loop's direction
#: comes first, so a bad direction is named before the numbers
SECTIONS = {
    "system": (
        lambda d12_re, d12_im, **kw: SystemParams(d12=complex(d12_re, d12_im), **kw),
        {"e1": REQUIRED, "e2": REQUIRED, "gamma1": REQUIRED, "gamma2": REQUIRED, "d12_re": REQUIRED, "d12_im": 0.0},
        lambda p: (p.e1, p.e2, p.gamma1, p.gamma2, complex(p.d12).real, complex(p.d12).imag),
    ),
    "loop": (
        lambda center_omega, center_eps0, direction, **kw: LoopSpec(
            FieldPoint(center_omega, center_eps0), direction=Direction(direction), **kw
        ),
        {"direction": _Field(None, _one_of("cw", "ccw")), "center_omega": REQUIRED, "center_eps0": REQUIRED,
         "semi_axis_omega": REQUIRED, "semi_axis_eps": REQUIRED, "duration_T": REQUIRED, "start_phase": 0.0},
        lambda loop: (loop.direction.value, loop.center.omega, loop.center.eps0, loop.semi_axis_omega,
                      loop.semi_axis_eps, loop.duration_T, loop.start_phase),
    ),
    "integrator": (IntegratorConfig, {f.name: f.default for f in fields(IntegratorConfig)}, astuple),
    "initial": (
        lambda c1_re, c1_im, c2_re, c2_im: StateVector(complex(c1_re, c1_im), complex(c2_re, c2_im)),
        dict.fromkeys(("c1_re", "c1_im", "c2_re", "c2_im"), 0.0),
        lambda state: (state.c1.real, state.c1.imag, state.c2.real, state.c2.imag),
    ),
    "output": (
        lambda path, format: (path, format),
        {"path": _Field(None, _text_or_none), "format": _Field("csv", _one_of("csv", "json"))},
        tuple,
    ),
}


def read_section(doc: dict, section: str, absent=REQUIRED):
    """The object a config section builds, or ``absent`` where the document has no such section."""
    if section not in doc:
        if absent is REQUIRED:
            raise ConfigError(f"missing required section '{section}'")
        return absent
    data = doc[section]
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{section}' must be a JSON object")
    build, defaults, _ = SECTIONS[section]
    for key in data:
        if key not in defaults:
            raise ConfigError(f"unknown config key '{section}.{key}'")
    values = {}
    for key, default in defaults.items():
        default, read = default if isinstance(default, _Field) else (default, _number)
        value = data.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required field '{section}.{key}'")
        values[key] = read(section, key, value)
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid '{section}' section: {exc}") from exc


def section_to_dict(section: str, obj) -> dict:
    """``obj`` as its config section: each of the section's fields with its value read off ``obj``."""
    _, defaults, inverse = SECTIONS[section]
    return dict(zip(defaults, inverse(obj)))


def _json_value(x):
    """A value as the JSON files hold it: a direction by its name, a loop as its config section."""
    if isinstance(x, Direction):
        return x.value
    if isinstance(x, LoopSpec):
        return section_to_dict("loop", x)
    return x


def _values(obj, names: dict) -> dict:
    """``obj``'s attributes by file key, as ``names`` maps each key to its (dotted) attribute."""
    return {key: _json_value(attrgetter(name)(obj)) for key, name in names.items()}


def _trajectory_columns(traj: TrajectoryRecord) -> list:
    """The trajectory columns as lists of Python floats, in ``TRAJECTORY_COLUMNS`` order."""
    w1 = np.abs(traj.states[:, 0]) ** 2 / traj.norms_sq
    c1, c2 = traj.states[:, 0], traj.states[:, 1]
    columns = (traj.times, c1.real, c1.imag, c2.real, c2.imag, traj.norms_sq, traj.log_scale, w1, 1.0 - w1)
    return [np.asarray(column, dtype=float).tolist() for column in columns]


#: one CSV row: "%.17g" is ``fmt``'s format(x, ".17g")
_CSV_ROW = ",".join(["%.17g"] * len(TRAJECTORY_COLUMNS))


def trajectory_to_csv(traj: TrajectoryRecord) -> str:
    rows = map(_CSV_ROW.__mod__, zip(*_trajectory_columns(traj)))
    return ",".join(TRAJECTORY_COLUMNS) + "\n" + "\n".join(rows) + "\n"


def _meta_dict(traj: TrajectoryRecord) -> dict:
    meta = traj.meta
    out = {"method": meta.get("method", "")}
    for section, key in _META_SECTIONS.items():
        value = meta.get(key)
        if isinstance(value, StaticDrive):
            # the table's one exception: no config builds a static drive, so its meta only describes the run
            out[section] = dict(static_omega=value.field.omega, static_eps0=value.field.eps0,
                                duration_T=value.duration_T)
        elif key in meta:
            out[section] = section_to_dict(section, value)
    return out


#: one row of the "rows" list as json.dumps(..., indent=1) lays it out; "%r" is
#: float.__repr__, which json uses for finite floats
_JSON_ROW = "  [\n" + ",\n".join(["   %r"] * len(TRAJECTORY_COLUMNS)) + "\n  ]"


def trajectory_to_json(traj: TrajectoryRecord) -> str:
    # json.dumps writes the head; "rows" sorts last, so its list goes in before the closing brace
    head = json.dumps({"meta": _meta_dict(traj), "columns": list(TRAJECTORY_COLUMNS)}, sort_keys=True, indent=1)
    rows = ",\n".join(map(_JSON_ROW.__mod__, zip(*_trajectory_columns(traj))))
    # json's tokens for the non-finite floats; no finite repr holds "nan" or "inf"
    rows = rows.replace("nan", "NaN").replace("inf", "Infinity")
    return head[:-2] + ',\n "rows": [\n' + rows + "\n ]\n}\n"


def _csv_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x
    return fmt(x)


def sweep_row_csv(cell) -> str:
    """One CSV line for a finished cell (lets callers flush incrementally)."""
    return ",".join(map(_csv_value, _values(cell, _SWEEP_FIELDS).values()))


def sweep_header_csv() -> str:
    return ",".join(SWEEP_COLUMNS)


def sweep_to_csv(result: SweepResult) -> str:
    lines = [sweep_header_csv()]
    lines.extend(sweep_row_csv(c) for c in result.cells)
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    doc = {
        "spec": {key: _json_value(getattr(result.spec, key)) for key in _SPEC_FIELDS},
        "cells": [_values(c, _SWEEP_FIELDS) for c in result.cells],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def table_to_text(table: Table1Result) -> str:
    header = ("direction", "initial", "final (adiabatic)", "final (exact)")
    body = [
        (
            row.direction.value,
            state_name(row.initial_state),
            state_name(row.adiabatic_final),
            state_name(row.exact_final),
        )
        for row in table.rows
    ]
    widths = [max(len(h), *(len(r[k]) for r in body)) for k, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(r[k].ljust(widths[k]) for k in range(4)) for r in body)
    return "\n".join(lines) + "\n"


def table_to_json(table: Table1Result) -> str:
    doc = {"swapped": table.swapped, "rows": [_values(row, _TABLE1_FIELDS) for row in table.rows]}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def table_from_json(text: str) -> Table1Result:
    """Rebuild the table structure from its JSON rendering (round-trip aid)."""
    doc = json.loads(text)
    rows = []
    for r in doc["rows"]:
        row = {name: r[key] for key, name in _TABLE1_FIELDS.items()}
        direction = Direction(row.pop("direction"))
        report = AsymmetryReport(
            dominant_state=row["exact_final"],
            ratio=row.pop("report.ratio"),
            survival=row.pop("report.survival"),
            direction=direction,
            initial_label=state_name(row["initial_state"]),
        )
        rows.append(Table1Row(direction=direction, report=report, **row))
    return Table1Result(rows=tuple(rows), swapped=doc["swapped"])
