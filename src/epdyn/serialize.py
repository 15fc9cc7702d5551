"""File formats: trajectory/sweep CSV and JSON, table renderings.

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
from dataclasses import fields
from typing import Optional

import numpy as np

from .analysis import SweepResult, Table1Result
from .loops import Direction, StaticDrive
from .model import SystemParams
from .propagation import IntegratorConfig, TrajectoryRecord

__all__ = [
    "TRAJECTORY_COLUMNS",
    "SWEEP_COLUMNS",
    "fmt",
    "params_to_dict",
    "loop_to_dict",
    "config_to_dict",
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


def fmt(x: float) -> str:
    """17-significant-digit decimal representation (round-trip exact)."""
    return format(float(x), ".17g")


def params_to_dict(params: SystemParams) -> dict:
    d12 = complex(params.d12)
    return {
        "e1": params.e1,
        "e2": params.e2,
        "gamma1": params.gamma1,
        "gamma2": params.gamma2,
        "d12_re": d12.real,
        "d12_im": d12.imag,
    }


def loop_to_dict(loop) -> dict:
    if isinstance(loop, StaticDrive):
        return {
            "static_omega": loop.field.omega,
            "static_eps0": loop.field.eps0,
            "duration_T": loop.duration_T,
        }
    return {
        "center_omega": loop.center.omega,
        "center_eps0": loop.center.eps0,
        "semi_axis_omega": loop.semi_axis_omega,
        "semi_axis_eps": loop.semi_axis_eps,
        "direction": loop.direction.value,
        "duration_T": loop.duration_T,
        "start_phase": loop.start_phase,
    }


def config_to_dict(config: IntegratorConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config)}


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
    if "params" in meta:
        out["system"] = params_to_dict(meta["params"])
    if "drive" in meta:
        out["loop"] = loop_to_dict(meta["drive"])
    if "config" in meta:
        out["integrator"] = config_to_dict(meta["config"])
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


def _sweep_values(cell) -> dict:
    """The cell's values by sweep column, in ``SWEEP_COLUMNS`` order."""
    return {column: getattr(cell, name) for column, name in _SWEEP_FIELDS.items()}


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
    return ",".join(map(_csv_value, _sweep_values(cell).values()))


def sweep_header_csv() -> str:
    return ",".join(SWEEP_COLUMNS)


def sweep_to_csv(result: SweepResult) -> str:
    lines = [sweep_header_csv()]
    lines.extend(sweep_row_csv(c) for c in result.cells)
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    spec = result.spec
    doc = {
        "spec": {
            "template": loop_to_dict(spec.template),
            "durations": list(spec.durations),
            "amp_scales": list(spec.amp_scales),
            "direction": spec.direction.value,
            "ratio_min": spec.ratio_min,
            "survival_levels": list(spec.survival_levels),
            "dominant_target": spec.dominant_target,
        },
        "cells": [_sweep_values(c) for c in result.cells],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _state_name(index: Optional[int]) -> str:
    return "-" if index is None else f"state{index}"


def table_to_text(table: Table1Result) -> str:
    header = ("direction", "initial", "final (adiabatic)", "final (exact)")
    body = [
        (
            row.direction.value,
            _state_name(row.initial_state),
            _state_name(row.adiabatic_final),
            _state_name(row.exact_final),
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
    doc = {
        "swapped": table.swapped,
        "rows": [
            {
                "direction": row.direction.value,
                "initial": row.initial_state,
                "adiabatic_final": row.adiabatic_final,
                "exact_final": row.exact_final,
                "ratio": row.report.ratio,
                "survival": row.report.survival,
            }
            for row in table.rows
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def table_from_json(text: str) -> Table1Result:
    """Rebuild the table structure from its JSON rendering (round-trip aid)."""
    from .analysis import AsymmetryReport, Table1Row

    doc = json.loads(text)
    rows = []
    for r in doc["rows"]:
        report = AsymmetryReport(
            dominant_state=r["exact_final"],
            ratio=r["ratio"],
            survival=r["survival"],
            direction=Direction(r["direction"]),
            initial_label=f"state{r['initial']}",
        )
        rows.append(
            Table1Row(
                direction=Direction(r["direction"]),
                initial_state=r["initial"],
                adiabatic_final=r["adiabatic_final"],
                exact_final=r["exact_final"],
                report=report,
            )
        )
    return Table1Result(rows=tuple(rows), swapped=doc["swapped"])
