"""Eigenframes along a drive, solved and paired on arrays.

A tracked frame is the eigenframe at one time with each of its two slots
continuing a slot of the frame before by maximal c-product overlap. The
scalar recipe solves and pairs one frame at a time; here ``_solve`` solves
a block of frames (``model._eigensystems``) and ``_pair`` makes each
frame's pairing decision on its own. That decision needs neither the slot
a reference vector fills nor its sign, so a scan along a loop (``_scan``,
behind ``track_branches`` and ``accumulated_phase``) takes the slots from a
cumulative parity of "crossed" decisions and the signs from a cumulative
product, carried from block to block. Blocks hold at most ``_BLOCK``
frames, which bounds the memory the temporaries take.

The adiabatic route takes only its t = 0 frame from here (``_initial``):
its rows come from the eigenframe step products of ``traversal``, whose
continued root and closed-form angle need no eigenvectors.

Every frame is the bits the scalar recipe gives (the arithmetic is spelled
out in CPython's order, see ``model``), so outputs do not depend on the
array path; the tests keep the scalar recipe as the oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AmbiguousTrackingError, EPOnContourError, EPProximityError
from .loops import _fields_at
from .model import (
    SystemParams,
    _check_frame,
    _eigensystems,
    _Eigensystems,
    _fmul,
    _hamiltonians,
    _mul,
)

# samples per array solve and pairing; bounds the memory the temporaries take
_BLOCK = 2048


def _solve(params: SystemParams, drive, times: np.ndarray) -> _Eigensystems:
    """Eigenframes at ``times`` along the drive, the bits of the scalar solve at each."""
    h11, h12, h22 = _hamiltonians(params, *_fields_at(drive, times))
    return _eigensystems(h11, h12, h12, h22)


class _Pairing(NamedTuple):
    """Each frame paired with its reference frame, as decisions that need no slot or sign.

    Pairing the '+'/'-' vectors of a frame with those of its reference, each
    reference vector picks the candidate of larger |c-product| (tie: '+').
    The picks are the same whichever slot a reference vector fills and
    whatever its sign, so they are made elementwise; slots follow from a
    parity of ``cross`` and signs from ``chain``.
    """

    mags: np.ndarray  # (n, 2, 2) |c_product(reference v_r, candidate v_c)| [r, c], '+' first
    cross: np.ndarray  # (n,) the reference '+' vector continues on '-'
    ok: np.ndarray  # (n,) both picks clear of the ambiguity ratio, on different branches
    chain: np.ndarray  # (n, 2) Re c_product along the reference '+' and '-' picks


def _c_product(u: np.ndarray, v: np.ndarray):
    """c_product of (n, 2) vector arrays as (re, im), in CPython's arithmetic."""
    p_r, p_i = _mul(u.real[:, 0], u.imag[:, 0], v.real[:, 0], v.imag[:, 0])
    q_r, q_i = _mul(u.real[:, 1], u.imag[:, 1], v.real[:, 1], v.imag[:, 1])
    return p_r + q_r, p_i + q_i


# a pick is ambiguous when the other overlap exceeds this fraction of the picked one
_AMBIGUITY = 0.9


def _pair(ref_plus, ref_minus, v_plus, v_minus) -> _Pairing:
    """Pair the (n, 2) candidates v_plus, v_minus with the (n, 2) references, elementwise."""
    n = len(v_plus)
    mags = np.empty((n, 2, 2))
    chain = np.empty((n, 2))
    ok = np.ones(n, dtype=bool)
    picks = []
    with np.errstate(all="ignore"):  # frames past a failure are never read
        for r, ref in enumerate((ref_plus, ref_minus)):
            (p_r, p_i), (m_r, m_i) = (_c_product(ref, v) for v in (v_plus, v_minus))
            m_p, m_m = np.hypot(p_r, p_i), np.hypot(m_r, m_i)
            minus = ~(m_p >= m_m)
            ok &= ~(np.where(minus, m_p, m_m) > _AMBIGUITY * np.where(minus, m_m, m_p))
            mags[:, r, 0], mags[:, r, 1] = m_p, m_m
            chain[:, r] = np.where(minus, m_r, p_r)
            picks.append(minus)
    ok &= picks[0] != picks[1]
    return _Pairing(mags, picks[0], ok, chain)


def _slot_overlaps(plus0_before: np.ndarray, chain: np.ndarray):
    """``chain`` by slot: slot 0 continues the reference '+' vector where ``plus0_before``."""
    return (
        np.where(plus0_before, chain[:, 0], chain[:, 1]),
        np.where(plus0_before, chain[:, 1], chain[:, 0]),
    )


def _raise_pairing(mags: np.ndarray, plus0: bool) -> None:
    """Raise what pairing one frame raises, its slot 0 continuing '+' when ``plus0``.

    ``mags`` (2, 2) is that frame's row of ``_Pairing.mags``; slot 0's
    reference vector is checked first, as in a one-frame-at-a-time walk.
    """
    taken = set()
    for r in (0, 1) if plus0 else (1, 0):
        m = mags[r].tolist()
        best = 0 if m[0] >= m[1] else 1
        if m[1 - best] > _AMBIGUITY * m[best]:
            raise AmbiguousTrackingError(
                f"branch overlaps too close to call: {m[best]:.3f} vs {m[1 - best]:.3f}"
            )
        if best in taken:
            raise AmbiguousTrackingError("both tracked slots matched the same branch")
        taken.add(best)


class _Tracked(NamedTuple):
    """Frames with branch continuity applied: slot 0 on '+' where ``plus0``.

    Slot s holds signs[:, s] times its branch's gauged vector. The t = 0
    frame (``aligned`` False) holds the gauged vectors themselves.
    """

    eig: _Eigensystems
    plus0: np.ndarray  # (n,) bool
    signs: np.ndarray  # (n, 2) of +/-1.0
    aligned: bool = True

    def energies(self) -> np.ndarray:
        """(n, 2) eigenvalue per slot."""
        e_p, e_m, plus0 = self.eig.e_plus, self.eig.e_minus, self.plus0
        return np.stack([np.where(plus0, e_p, e_m), np.where(plus0, e_m, e_p)], axis=1)

    def vectors(self) -> np.ndarray:
        """(n, 2, 2) vectors [sample, slot, component], signed as CPython's float * complex."""
        v_p, v_m, plus0 = self.eig.v_plus, self.eig.v_minus, self.plus0[:, None]
        slots = (np.where(plus0, v_p, v_m), np.where(plus0, v_m, v_p))
        out = np.empty((len(plus0), 2, 2), dtype=complex)
        for s, v in enumerate(slots):
            if self.aligned:
                sign = self.signs[:, s, None]
                out.real[:, s], out.imag[:, s] = _fmul(sign, v.real, v.imag)
            else:
                out[:, s] = v
        return out

    def labels(self) -> np.ndarray:
        """(n, 2) instantaneous branch label per slot."""
        return np.stack([np.where(self.plus0, "+", "-"), np.where(self.plus0, "-", "+")], axis=1)


def _initial(params: SystemParams, drive, ep_tol: float) -> _Tracked:
    """The frame at t = 0, slot 0 on the '+' branch."""
    eig = _solve(params, drive, np.zeros(1))
    _check_frame(eig, 0, ep_tol)
    return _Tracked(eig, np.ones(1, dtype=bool), np.ones((1, 2)), aligned=False)


def _signs_along(u: np.ndarray, start: float) -> np.ndarray:
    """Slot signs along a chain of overlaps: each is +1 iff (previous sign) * u >= 0.

    So u > 0 keeps the sign and u < 0 flips it; u = 0 sets +1 and NaN sets -1
    whatever came before. Between two such resets the sign is a parity of
    the flips, read off one cumulative sum.
    """
    n = len(u)
    flips = np.cumsum(u < 0.0)
    reset = ~((u > 0.0) | (u < 0.0))
    last = np.maximum.accumulate(np.where(reset, np.arange(n), -1))
    since = np.where(last >= 0, flips[np.maximum(last, 0)], 0)
    base = np.where(last >= 0, np.where(u[np.maximum(last, 0)] == 0.0, 1.0, -1.0), start)
    return np.where((flips - since) % 2 == 1, -base, base)


def _follow(eig: _Eigensystems, last: _Tracked, ep_tol: float):
    """Track the frames of ``eig`` in order: each from the one before, the first from last[-1].

    Returns (tracked frames, failure), failure = None or the argument of
    ``_raise_at`` for the first frame that fails. Raising is left to the
    caller, so it can order failures.
    """
    ref_plus = np.concatenate([last.eig.v_plus[-1:], eig.v_plus[:-1]])
    ref_minus = np.concatenate([last.eig.v_minus[-1:], eig.v_minus[:-1]])
    pairing = _pair(ref_plus, ref_minus, eig.v_plus, eig.v_minus)
    plus0 = (np.cumsum(pairing.cross) % 2 == 1) != last.plus0[-1]
    before = np.concatenate([last.plus0[-1:], plus0[:-1]])
    signs = np.empty((len(plus0), 2))
    for s, u in enumerate(_slot_overlaps(before, pairing.chain)):
        signs[:, s] = _signs_along(u, last.signs[-1, s])
    bad = np.flatnonzero(_failures(eig, ep_tol) | ~pairing.ok)
    failure = (int(bad[0]), pairing.mags[bad[0]], bool(before[bad[0]])) if bad.size else None
    return _Tracked(eig, plus0, signs), failure


def _failures(eig: _Eigensystems, ep_tol: float) -> np.ndarray:
    """Frames the scalar solve rejects: inside the EP guard, or overflowed."""
    return (eig.abs_delta <= ep_tol * ep_tol) | ~eig.finite


def _raise_at(eig: _Eigensystems, failure, ep_tol: float) -> None:
    """Raise the error of ``failure`` = (frame index, pairing mags, slot 0 on '+' before)."""
    k, mags, plus0 = failure
    _check_frame(eig, k, ep_tol)
    _raise_pairing(mags, plus0)


def _scan(params: SystemParams, drive, times: np.ndarray, ep_tol: float):
    """Yield (rows, tracked frames) over ``times`` (from 0), block by block.

    The t = 0 frame comes alone; then at most ``_BLOCK`` frames at a time,
    each block continuing the last frame of the one before.
    """
    try:
        last = _initial(params, drive, ep_tol)
        yield slice(0, 1), last
        for start in range(1, len(times), _BLOCK):
            eig = _solve(params, drive, times[start : start + _BLOCK])
            last, failure = _follow(eig, last, ep_tol)
            if failure is not None:
                _raise_at(eig, failure, ep_tol)
            yield slice(start, start + len(eig.abs_delta)), last
    except EPProximityError as exc:
        raise EPOnContourError(str(exc)) from exc
