"""File formats: the config sections, trajectory/sweep CSV and JSON, table renderings.

``SECTIONS`` is the one schema of the config sections: each section's
constructor, its fields with their defaults, and its inverse. ``read_section``
reads a config section through it, and ``section_to_dict`` writes the same
fields, which the trajectory meta and the sweep JSON's ``spec.template`` hold.

CSV uses comma separators, '.' decimals, a header row, LF line endings, and
17 significant digits for reals, so identical inputs always serialize to
byte-identical files. JSON output is emitted with sorted keys for the same
reason.

The trajectory writers format whole columns in numpy (``_rows_text``):
each value's 17 correctly rounded digits for CSV (``"%.17g"``, ``fmt``'s
format) or its shortest round-trip digits for JSON (``repr``) come from a
double-double product with an exact power of ten, and a table of layouts
places sign, digits, point and exponent for chunks of rows at once. A value
whose digits numpy cannot decide with certainty, and every value that is not
finite or is below 2^-1021, goes through CPython's own formatting
(``_python_text``). The bytes are those of formatting one value at a time
with ``fmt`` and ``json.dumps``; ``tests/row_reference.py`` keeps those
writers as the oracle, and ``notes/decisions.md`` ("The rows' digits in
numpy") gives the method and its error bound.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import astuple, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .analysis import SweepResult, Table1Result, state_name
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
#: the sweep JSON's spec keys, every ``SweepSpec`` field
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


def _trajectory_columns(traj: TrajectoryRecord) -> np.ndarray:
    """The trajectory columns as the rows of one float array, in ``TRAJECTORY_COLUMNS`` order."""
    w1 = traj.w1
    c1, c2 = traj.states[:, 0], traj.states[:, 1]
    return np.array([traj.times, c1.real, c1.imag, c2.real, c2.imag, traj.norms_sq, traj.log_scale, w1, 1.0 - w1],
                    dtype=float)


#: the CSV separator after each column's value
_CSV_SEPS = (",",) * (len(TRAJECTORY_COLUMNS) - 1) + ("\n",)


def trajectory_to_csv(traj: TrajectoryRecord) -> str:
    return _rows_text(",".join(TRAJECTORY_COLUMNS) + "\n", _trajectory_columns(traj), False, _CSV_SEPS, "\n")


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


#: the separator after each column's value in the "rows" list as json.dumps(..., indent=1) lays it out: a
#: row's last value closes its list and opens the next
_JSON_SEPS = (",\n   ",) * (len(TRAJECTORY_COLUMNS) - 1) + ("\n  ],\n  [\n   ",)


def trajectory_to_json(traj: TrajectoryRecord) -> str:
    # json.dumps writes the head; "rows" sorts last, so its list goes in before the closing brace
    head = json.dumps({"meta": _meta_dict(traj), "columns": list(TRAJECTORY_COLUMNS)}, sort_keys=True, indent=1)
    return _rows_text(head[:-2] + ',\n "rows": [\n  [\n   ', _trajectory_columns(traj), True, _JSON_SEPS,
                      "\n  ]\n ]\n}\n")


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


# ---------------------------------------------------------------------------
# the trajectory rows' text (notes/decisions.md, "The rows' digits in numpy")
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 512  # rows formatted at once: a chunk's gather index stays below 1 MB
_WIDTH = 24  # the longest value text, "-1.2345678901234567e-308"
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's split of a double into two 26-bit halves
_MARGIN = 2.0 ** -40  # a rounding or interval test this near its boundary is CPython's to decide
_LEAST = 2.0 ** -1021  # below it (subnormals, and the binade whose lower neighbour is no nearer) CPython formats
_ASCII = 0x3030303030303030  # '0' in each byte of a word
#: bytes 0-7 of a value's source: sign, '.', '0', 'e', the exponent's sign and its hundreds and tens, the
#: first digit; bytes 8-23 the other 16 digits, 24 the exponent's units, 25-31 NUL
_SOURCE = 32
_SIGN, _POINT, _ZERO, _E, _E_SIGN, _E_HUNDREDS, _E_TENS, _DIGITS, _E_UNITS, _NUL = 0, 1, 2, 3, 4, 5, 6, 7, 24, 25
_LITERALS = ord(".") << 8 * _POINT | ord("0") << 8 * _ZERO | ord("e") << 8 * _E
_FIXED = 21  # layouts of fixed notation, point positions -3..17; then the exponent's two and three digits


@functools.cache
def _power_of_ten(p: int) -> tuple:
    """10^p = (hi + lo) 2^b, 1 <= hi <= 2, to 2^-106 relative, from exact integers: (hi's halves, lo, b).

    10^p 2^-b is num/den in integers, and an integer quotient rounds correctly.
    """
    if p >= 0:
        num = 10**p
        b = num.bit_length() - 1
        den = 1 << b
    else:
        den = 10**-p
        b = -den.bit_length()
        num = 1 << -b
    hi = num / den
    lo = ((num << 52) - int(hi * 2.0**52) * den) / (den << 52)
    c = _SPLIT * hi
    upper = c - (c - hi)
    return upper, hi - upper, lo, b


def _scaled(m: np.ndarray, e: np.ndarray, p: np.ndarray) -> tuple:
    """(y, z), y + z = m 2^e 10^p to about 2^-104 relative: Dekker's two-product of m and 10^p's hi, plus m lo."""
    low = int(p.min())
    table = [np.array(column) for column in zip(*map(_power_of_ten, range(low, int(p.max()) + 1)))]
    upper, lower, lo, b = (column.take(p - low) for column in table)
    c = _SPLIT * m
    m_upper = c - (c - m)
    m_lower = m - m_upper
    y = m * (upper + lower)
    z = ((m_upper * upper - y) + m_upper * lower + m_lower * upper) + m_lower * lower + m * lo
    k = (e + b).astype(np.int32)
    return np.ldexp(y, k), np.ldexp(z, k)


def _decimal(ax: np.ndarray, shortest: bool) -> tuple:
    """(r, E, doubt) of finite |x| >= 2^-1021: r 10^(E - 16) is x's 17 digits (repr's digits, zero-padded, if
    ``shortest``), 10^16 <= r < 10^17, and ``doubt`` marks the values where a test is within 2^-40 of its boundary."""
    m, e = np.frexp(ax)
    E = np.floor(np.log10(ax)).astype(np.int32)
    y, z = _scaled(m, e, 16 - E)
    off = ((y - 1e17) + z >= 0).astype(np.int32) - ((y - 1e16) + z < 0)
    if off.any():  # log10 rounded across a power of ten
        moved = off != 0
        E += off
        y[moved], z[moved] = _scaled(m[moved], e[moved], 16 - E[moved])
    units = np.floor(y)
    g = (y - units) + z
    nearest = np.rint(g)
    r = units.astype(np.int64) + nearest.astype(np.int64)
    d = g - nearest  # y - r, within [-1/2, 1/2]
    doubt = np.abs(np.abs(d) - 0.5) < _MARGIN
    if shortest:
        half = y / m * 2.0 ** -54  # half an ulp of x, in units of y
        half_below = np.where(m == 0.5, 0.5 * half, half)  # below a power of two the neighbour is half as far
        left = np.ones(len(ax), dtype=bool)  # no shorter candidate fits yet
        digits = r
        for s in (100, 10):  # 15 digits, then 16
            q = r // s
            f = ((r - q * s) + d) / s  # y/s - q
            under = np.floor(f)
            below = f - under  # the distance to the integer under y/s, and to the one over it
            above = 1.0 - below
            reach_below, reach_above = half_below / s, half / s  # the rounding interval's two sides
            fit_below, fit_above = below < reach_below, above < reach_above
            up = fit_above & ~(fit_below & (below < above))
            doubt |= left & ((np.abs(below - reach_below) < _MARGIN) | (np.abs(above - reach_above) < _MARGIN)
                             | (fit_below & fit_above & (np.abs(below - 0.5) < _MARGIN)))
            fits = left & (fit_below | fit_above)
            digits = np.where(fits, (q + under.astype(np.int64) + up) * s, digits)
            left &= ~fits
        r = digits
    carry = r == 10 ** 17  # y rounded up to the next power of ten
    return np.where(carry, 10 ** 16, r), E + carry, doubt


def _ascii8(v: np.ndarray) -> np.ndarray:
    """Eight decimal digits of v < 10^8 as bytes 0-9 of a word, the first digit in the lowest byte."""
    hi = v // 10000
    v = hi | (v - hi * 10000) << 32
    hi = (v * 5243) >> 19 & 0x0000007F0000007F  # /100 in each 32-bit lane below 10^4
    v = hi | (v - hi * 100) << 16
    hi = (v * 103) >> 10 & 0x000F000F000F000F  # /10 in each 16-bit lane below 100
    return hi | (v - hi * 10) << 8


def _layout(form: int, n: int, shortest: bool) -> list:
    """The source byte of each output byte of a value with ``n`` digits in layout ``form``."""
    digits = [_DIGITS + i for i in range(n)]
    if form < _FIXED:
        point = form - 3  # digits before the point
        if point <= 0:
            out = [_ZERO, _POINT] + [_ZERO] * -point + digits
        elif n > point:
            out = digits[:point] + [_POINT] + digits[point:]
        else:  # an integer: the padding zeros up to the point
            out = [_DIGITS + i for i in range(point)] + ([_POINT, _ZERO] if shortest else [])
    else:
        out = digits[:1] + ([_POINT] + digits[1:] if n > 1 else []) + [_E, _E_SIGN]
        out += ([_E_HUNDREDS] if form == _FIXED + 1 else []) + [_E_TENS, _E_UNITS]
    out = [_SIGN] + out
    return out + [_NUL] * (_WIDTH - len(out))


@functools.cache
def _layouts(shortest: bool) -> np.ndarray:
    """Every layout (form * 17 + n - 1) of ``_layout``, built on first use."""
    return np.array([_layout(form, n, shortest) for form in range(_FIXED + 2) for n in range(1, 18)], dtype=np.uint8)


def _python_text(x: float, shortest: bool) -> str:
    """``x`` as CPython formats it: JSON's (repr, NaN, Infinity) if ``shortest``, else ``fmt``'s."""
    return json.dumps(x) if shortest else fmt(x)


def _texts(x: np.ndarray, shortest: bool) -> np.ndarray:
    """(m, _WIDTH) bytes: each value of x written as ``_python_text`` writes it, NUL-padded."""
    ax = np.abs(x)
    kernel = (ax >= _LEAST) & (ax < math.inf)
    zero = x == 0.0
    r, E, doubt = _decimal(np.where(kernel, ax, 1.0), shortest)
    r = np.where(kernel, r, 0)  # a zero is the digit 0 at E = 0
    E = np.where(kernel, E, 0)
    first = r // 10 ** 16
    rest = (r - first * 10 ** 16).astype(np.uint64)
    eight = rest // 10 ** 8
    upper, lower = _ascii8(eight), _ascii8(rest - eight * 10 ** 8)
    e = np.abs(E).astype(np.uint64)
    hundreds, tens = e // 100, e // 10
    words = np.empty((len(x), _SOURCE // 8), dtype=np.uint64)
    words[:, 0] = (_LITERALS | np.signbit(x) * np.uint64(ord("-")) << 8 * _SIGN
                   | np.where(E < 0, ord("-"), ord("+")).astype(np.uint64) << 8 * _E_SIGN
                   | (hundreds + 48) << 8 * _E_HUNDREDS | (tens - hundreds * 10 + 48) << 8 * _E_TENS
                   | (first.astype(np.uint64) + 48) << 8 * _DIGITS)
    words[:, 1] = upper | _ASCII
    words[:, 2] = lower | _ASCII
    words[:, 3] = e - tens * 10 + 48
    # the digit count: the bytes up to the last nonzero digit (the float's exponent is the word's bit length)
    n = np.where(lower != 0, 9 + (np.frexp(lower.astype(float))[1] + 7) // 8,
                 1 + (np.frexp(upper.astype(float))[1] + 7) // 8)
    point = E + 1
    fixed = (point >= -3) & (point <= (16 if shortest else 17))
    form = np.where(fixed, point + 3, np.where(e >= 100, _FIXED + 1, _FIXED))
    index = _layouts(shortest)[form * 17 + n - 1] + np.arange(0, _SOURCE * len(x), _SOURCE)[:, None]
    out = words.view(np.uint8).ravel().take(index)
    for i in np.flatnonzero(~(kernel | zero) | kernel & doubt):
        text = _python_text(float(x[i]), shortest).encode()
        out[i] = np.frombuffer(text.ljust(_WIDTH, b"\0"), dtype=np.uint8)
    return out


def _rows_text(head: str, columns: np.ndarray, shortest: bool, seps: tuple, end: str) -> str:
    """``head``, the rows of ``columns`` (one column per array row) and ``end``: each value but the last followed by
    its column's separator in ``seps``; digits as ``fmt`` writes them, or as JSON does if ``shortest``."""
    width = max(map(len, seps))
    pad = np.array([list(sep.encode().ljust(width, b"\0")) for sep in seps], dtype=np.uint8)
    rows = columns.shape[1]
    pieces = [head]
    for start in range(0, rows, _CHUNK_ROWS):
        values = columns[:, start:start + _CHUNK_ROWS].T.ravel()
        out = np.empty((len(values), _WIDTH + width), dtype=np.uint8)
        out[:, :_WIDTH] = _texts(values, shortest)
        out.reshape(-1, len(seps), _WIDTH + width)[:, :, _WIDTH:] = pad
        if start + _CHUNK_ROWS >= rows:
            out[-1, _WIDTH:] = 0  # ``end`` follows the last value
        pieces.append(out.tobytes().translate(None, b"\0").decode("ascii"))
    pieces.append(end)
    return "".join(pieces)
