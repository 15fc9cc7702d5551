"""The closed-form eigenframes against the null-vector oracle in ``frame_reference``.

The package takes every eigenframe in closed form: lam = +/-sqrt(a^2 + g^2)
continued by the nearer root, the vectors (cos th, sin th) and
(-sin th, cos th) with e^{2 i th} = (a + i g)/lam (``traversal.branch_frames``;
``track_branches`` on a ``StaticDrive`` gives the frame of one matrix). The
oracle solves each frame for a null vector in Python complex arithmetic and
pairs it with the frame before by c-product overlap, one sample at a time. The two round differently, so energies, vectors and
phase samples agree within the bounds below; labels, ``swapped`` and error
types are identical.

Bounds, in units of float64's eps: energies and phase samples to 4 of the
largest entry (at most 1.8 seen); vectors to 16 of the largest entry times
1/|cnorm| = |cos th|^2 + |sin th|^2, which grows towards the EP (at most
4.9 seen); |cnorm| of one matrix's frame to 16 relative (5.4 seen). Seen on the
loops here and on 300 seeded random loops at 16 to 4096 samples, with the
same outcome on all 1800.
"""

import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epdyn import (
    DEFAULT_PARAMS,
    DIODE_DURATION,
    HERMITIAN_PARAMS,
    AmbiguousTrackingError,
    Direction,
    EPOnContourError,
    FieldPoint,
    IntegratorConfig,
    LoopSpec,
    StateVector,
    StaticDrive,
    SystemParams,
    build_hamiltonian,
    c_product,
    diode_loop,
    encircling_loop,
    hermitian_loop,
    propagate_adiabatic,
    track_branches,
    winding_number,
)
from epdyn import loops, traversal
from epdyn.model import _plus
from frame_reference import KAPPA, _eigensystem, _tracked_frames

REF = DEFAULT_PARAMS
TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
EPS = np.finfo(float).eps

# the loop of TestTrackBranches.test_no_swap_without_ep
NO_SWAP = LoopSpec(FieldPoint(1.0, 0.5), 0.05, 0.05, Direction.CCW, 10.0)
# center.eps0 == semi_axis_eps: the contour touches eps0 = 0, where h12 = 0
TOUCHING = LoopSpec(FieldPoint(1.0, 0.3), 0.2, 0.3, Direction.CCW, 10.0)
# TestTrackBranches.test_ambiguous_when_undersampled: a flat ellipse grazing the EP
GRAZING = LoopSpec(FieldPoint(1.0, 0.2499), 0.3, 0.05, Direction.CCW, 10.0)


def oracle_track(params, drive, n_samples, kappa=KAPPA):
    times = np.linspace(0.0, drive.duration_T, n_samples + 1)
    frames = list(_tracked_frames(params, drive, times, kappa))
    energies = np.array([es for es, _, _ in frames], dtype=complex)
    vectors = np.array([vs for _, vs, _ in frames], dtype=complex)
    labels = np.array([labs for _, _, labs in frames])
    return energies, vectors, labels


def leads_positive(v) -> bool:
    """The gauge at a tie of moduli: the first component has a positive real part (tie: Im >= 0)."""
    return v[0].real > 0.0 or (v[0].real == 0.0 and v[0].imag >= 0.0)


def assert_vectors_agree(ours, theirs):
    """(..., 2) vectors within 16 eps of the largest entry times 1/|cnorm| = |v|^2."""
    scale = np.abs(theirs).max(axis=-1) * np.sum(np.abs(ours) ** 2, axis=-1)
    assert (np.abs(ours - theirs).max(axis=-1) <= 16 * EPS * scale).all()


def assert_agrees(params, drive, n_samples):
    frame = track_branches(params, drive, n_samples=n_samples)
    energies, vectors, labels = oracle_track(params, drive, n_samples)
    assert np.array_equal(frame.labels, labels)
    assert frame.swapped == (labels[-1, 0] != labels[0, 0])
    assert np.abs(frame.energies - energies).max() <= 4 * EPS * np.abs(energies).max()
    # at a gauge tie (components of equal moduli) the first component leads;
    # the oracle's rounded moduli pick either, so its slot is aligned first
    for slot in (0, 1):
        ours, theirs = frame.vectors[0, slot], vectors[0, slot]
        m = np.abs(theirs)
        if abs(m[0] - m[1]) <= 4 * EPS * m.max():
            assert leads_positive(ours)
            vectors[:, slot] *= 1.0 if c_product(ours, theirs).real > 0.0 else -1.0
    assert_vectors_agree(frame.vectors, vectors)
    return frame


@pytest.mark.parametrize(
    "params, drive, n_samples",
    [
        (REF, encircling_loop(10.0), 4096),
        (REF, diode_loop(Direction.CW), 8192),
        (REF, diode_loop(Direction.CCW), 8192),
        (REF, NO_SWAP, 2048),
        (HERMITIAN_PARAMS, hermitian_loop(10.0), 2048),
        (REF, StaticDrive(FieldPoint(1.0, 0.4), 5.0), 64),  # v_minus is a gauge tie
        (REF, StaticDrive(FieldPoint(1.0, 0.0), 5.0), 64),  # diagonal H: the basis vectors
        (REF, TOUCHING, 4096),
    ],
    ids=[
        "encircling", "diode-cw", "diode-ccw", "no-swap", "hermitian", "static", "static-diagonal", "touching"
    ],
)
def test_track_branches_bit_equal_to_oracle(params, drive, n_samples):
    assert_agrees(params, drive, n_samples)


def eager_frame(params, drive, n_samples) -> tuple:
    """(energies, vectors, labels) built at once from ``branch_frames``, by the formulas the frame builds on read."""
    times = np.linspace(0.0, drive.duration_T, n_samples + 1)
    a, lam, th, signs = traversal.branch_frames(params, drive, times)
    half_trace = complex(params.e2, -params.gamma2) + a
    c, s = np.cos(th), np.sin(th)
    vectors = np.stack([np.stack([c, s], axis=1) * signs[0], np.stack([-s, c], axis=1) * signs[1]], axis=1)
    plus = _plus(lam)
    labels = np.stack([np.where(plus, "+", "-"), np.where(plus, "-", "+")], axis=1)
    return np.stack([half_trace + lam, half_trace - lam], axis=1), vectors, labels


LAZY_CASES = {
    f"{name}-{d.value}": (drive(d), n)
    for name, drive, n in [
        ("encircling", lambda d: encircling_loop(10.0, d), 4096),
        ("diode", diode_loop, 8192),
        ("static", lambda d: StaticDrive(FieldPoint(1.0, 0.4), 5.0), 64),
        ("no-swap", lambda d: dataclasses.replace(NO_SWAP, direction=d), 2048),
    ]
    for d in Direction
}


class TestFrameBuiltOnRead:
    """``AdiabaticFrame`` keeps the root, the angle, the gauge and tr(H)/2 and builds its arrays on first read."""

    @pytest.mark.parametrize("drive, n_samples", LAZY_CASES.values(), ids=LAZY_CASES.keys())
    def test_arrays_are_the_eager_formulas(self, drive, n_samples):
        frame = track_branches(REF, drive, n_samples=n_samples)
        energies, vectors, labels = eager_frame(REF, drive, n_samples)
        assert frame.energies.tobytes() == energies.tobytes()
        assert frame.vectors.tobytes() == vectors.tobytes()
        assert np.array_equal(frame.labels, labels)
        assert frame.swapped == (labels[-1, 0] != labels[0, 0])

    def test_swapped_on_each_case(self):
        swaps = {name: track_branches(REF, drive, n_samples=n).swapped for name, (drive, n) in LAZY_CASES.items()}
        assert {name for name, swapped in swaps.items() if swapped} == {
            "encircling-cw", "encircling-ccw", "diode-cw", "diode-ccw"
        }

    def test_swapped_builds_no_array(self):
        frame = track_branches(REF, encircling_loop(10.0), n_samples=512)
        assert frame.swapped
        assert not {"energies", "vectors", "labels"} & set(vars(frame))

    def test_each_array_is_built_once(self):
        frame = track_branches(REF, encircling_loop(10.0), n_samples=512)
        for name in ("energies", "vectors", "labels"):
            first = getattr(frame, name)
            assert name in vars(frame) and getattr(frame, name) is first

    def test_frame_stays_frozen(self):
        frame = track_branches(REF, encircling_loop(10.0), n_samples=512)
        frame.energies
        for name in ("times", "lam", "th", "signs", "half_trace", "energies", "vectors", "labels"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frame, name, None)


def random_loop(rng) -> LoopSpec:
    """The loops of TestTrackBranches.test_swap_matches_winding_on_random_loops."""
    ec = rng.uniform(0.1, 0.5)
    return LoopSpec(
        center=FieldPoint(rng.uniform(0.8, 1.2), ec),
        semi_axis_omega=rng.uniform(0.02, 0.2),
        semi_axis_eps=rng.uniform(0.3, 1.0) * ec,
        direction=rng.choice([Direction.CW, Direction.CCW]),
        duration_T=10.0,
        start_phase=rng.uniform(0, 2 * math.pi),
    )


def assert_same_outcome(loop, n_samples) -> bool:
    """The oracle's error type, or its labels, swap and frames (within the bounds); True if tracked."""
    try:
        oracle_track(REF, loop, n_samples)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            track_branches(REF, loop, n_samples=n_samples)
        assert type(got.value) is type(exc)
        return False
    assert_agrees(REF, loop, n_samples)
    return True


def test_random_loops_bit_equal_to_oracle():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        loop = random_loop(rng)
        try:
            winding_number(loop, REF, n_samples=4096)
        except Exception:
            continue
        checked += assert_same_outcome(loop, 4096)


def near_ep_loop(rng) -> LoopSpec:
    """A random loop that passes near the EP at (1, 0.2), often within a sample's turn of it."""
    ec = rng.uniform(0.12, 0.3)
    return LoopSpec(
        center=FieldPoint(rng.uniform(0.9, 1.1), ec),
        semi_axis_omega=rng.uniform(0.02, 0.3),
        semi_axis_eps=rng.uniform(0.1, 1.0) * ec,
        direction=rng.choice([Direction.CW, Direction.CCW]),
        duration_T=10.0,
        start_phase=rng.uniform(0, 2 * math.pi),
    )


def overlap_takes_farther_root(loop, n_samples) -> bool:
    """Whether the oracle's slot 0 steps onto the farther root of a^2 + g^2 at some sample.

    Its gap E0 - E1 is +/-2 lam; stepping onto the farther root turns it by
    more than a right angle.
    """
    energies, _, _ = oracle_track(REF, loop, n_samples)
    gap = energies[:, 0] - energies[:, 1]
    return bool(((gap[1:] * gap[:-1].conj()).real < 0.0).any())


def test_random_loops_undersampled_same_outcome():
    # the oracle's outcome at 16 to 256 samples, except where its overlap
    # pairing takes slot 0 onto the farther root: the scan continues the
    # nearer root, so there the frame has turned too far for the overlap
    # rule and it raises AmbiguousTrackingError
    rng = np.random.default_rng(3)
    seen = collections.Counter()
    for _ in range(60):
        loop = near_ep_loop(rng)
        for n_samples in (16, 32, 64, 128, 256):
            try:
                outcome = "tracked" if assert_same_outcome(loop, n_samples) else "same error"
            except AmbiguousTrackingError:
                assert overlap_takes_farther_root(loop, n_samples)
                outcome = "farther root"
            seen[outcome] += 1
    assert seen["tracked"] and seen["same error"]


@pytest.mark.parametrize(
    "loop, n_samples, error",
    [
        # TestTrackBranches.test_ep_on_contour_rejected
        (LoopSpec(FieldPoint(1.0, 0.25), 0.05, 0.05, Direction.CCW, 10.0), 1024, EPOnContourError),
        (GRAZING, 32, AmbiguousTrackingError),
    ],
    ids=["ep-on-contour", "undersampled"],
)
def test_same_error_as_oracle(loop, n_samples, error):
    with pytest.raises(error) as expected:
        oracle_track(REF, loop, n_samples)
    with pytest.raises(error) as got:
        track_branches(REF, loop, n_samples=n_samples)
    assert type(got.value) is type(expected.value)


def test_grazing_loop_outcomes_match_oracle():
    # the overlap rule on the grazing ellipse: ambiguous at 32 and 64
    # samples, tracked and swapped from 128 on
    for n_samples, tracked in ((32, False), (64, False), (128, True), (256, True), (4096, True)):
        assert assert_same_outcome(GRAZING, n_samples) is tracked
        if tracked:
            assert track_branches(REF, GRAZING, n_samples=n_samples).swapped


def test_eigenframe_bit_equal_to_oracle():
    # the frame of one matrix, a static drive's t = 0 sample, on random
    # matrices, a third of them diagonal (eps0 = 0), cnorms included: the
    # c-norm of the unit vector is 1/|v|^2 of the c-normalized v
    rng = np.random.default_rng(5)
    for k in range(600):
        params = SystemParams(
            rng.normal(), rng.normal(), abs(rng.normal()), abs(rng.normal()), complex(*rng.normal(size=2))
        )
        field = FieldPoint(rng.normal(), 0.0 if k % 3 == 0 else abs(rng.normal()))
        e_p, e_m, v_p, v_m, c_p, c_m = _eigensystem(build_hamiltonian(params, field), KAPPA)
        frame = track_branches(params, StaticDrive(field, 1.0), n_samples=16)
        energies, vectors = frame.energies[0], frame.vectors[0]
        scale = max(abs(e_p), abs(e_m))
        assert abs(energies[0] - e_p) <= 4 * EPS * scale and abs(energies[1] - e_m) <= 4 * EPS * scale
        assert_vectors_agree(vectors, np.array([v_p, v_m]))
        for ours, theirs in zip(1.0 / np.sum(np.abs(vectors) ** 2, axis=-1), (c_p, c_m)):
            assert abs(abs(ours) - abs(theirs)) <= 16 * EPS * abs(theirs)


def test_tracked_t0_frame_is_eigenframe():
    # one gauge: the tracked frame at t = 0 is the eigenframe of the matrix
    # there, the oracle's up to rounding, at gauge ties (Re e^{2 i th} = 0:
    # both static drives, where the first component leads) as elsewhere
    cases = [
        (REF, encircling_loop(10.0)),
        (REF, diode_loop(Direction.CW)),
        (REF, StaticDrive(FieldPoint(1.0, 0.4), 5.0)),
        (HERMITIAN_PARAMS, StaticDrive(FieldPoint(1.0, 0.3), 5.0)),  # a = 0
        (HERMITIAN_PARAMS, hermitian_loop(10.0)),
    ]
    for params, drive in cases:
        e_p, e_m, v_p, v_m, _, _ = _eigensystem(build_hamiltonian(params, loops.field_at(drive, 0.0)), KAPPA)
        tracked = track_branches(params, drive, n_samples=64)
        want = np.array([v_p, v_m])
        for slot in (0, 1):
            m = np.abs(want[slot])
            if abs(m[0] - m[1]) <= 4 * EPS * m.max():  # the oracle's rounded moduli pick either sign
                assert leads_positive(tracked.vectors[0, slot])
                want[slot] *= 1.0 if c_product(tracked.vectors[0, slot], want[slot]).real > 0.0 else -1.0
        np.testing.assert_allclose(tracked.vectors[0], want, rtol=0, atol=4 * EPS * np.abs(want).max())
        np.testing.assert_allclose(tracked.energies[0], [e_p, e_m], rtol=4 * EPS)


def test_adiabatic_t0_coefficients_on_tracked_frame():
    # the route's t = 0 row projected on the tracked t = 0 vectors gives the
    # c-products of c0 with them, gauge signs included
    c0 = StateVector(0.6, 0.8j)
    for params, drive in ((REF, encircling_loop(50.0, Direction.CW)), (HERMITIAN_PARAMS, hermitian_loop(20.0))):
        traj = propagate_adiabatic(params, drive, c0, TIGHT, n_output=16)
        vectors = track_branches(params, drive, n_samples=16).vectors[0]
        want = [c_product(v, c0.as_array()) for v in vectors]
        got = np.array([c_product(v, traj.states[0]) for v in vectors]) * math.exp(0.5 * traj.log_scale[0])
        np.testing.assert_allclose(got, want, rtol=4 * EPS, atol=4 * EPS)


def test_adiabatic_rows_on_oracle_frames():
    # the loop settles at 512 steps, so at 512 rows every step end is a row:
    # tracking the oracle's frames along the rows gives the labels of
    # track_branches there, and the states are their coefficients on the
    # tracked vectors (the c-products) expanded on the oracle's vectors
    loop = encircling_loop(50.0, Direction.CW)
    traj = propagate_adiabatic(REF, loop, StateVector(0.6, 0.8j), TIGHT, n_output=512)
    solver = traj.meta["solver"]
    assert len(traj.times) - 1 == solver["steps"] == traversal._FIRST_STEPS << solver["doublings"]
    frame = track_branches(REF, loop, len(traj.times) - 1)
    np.testing.assert_array_equal(frame.times, traj.times)
    for row, (_, vs, labels) in enumerate(_tracked_frames(REF, loop, traj.times, KAPPA)):
        assert frame.labels[row, 0] == labels[0]
        coeffs = np.array([c_product(v, traj.states[row]) for v in frame.vectors[row]])
        expected = coeffs @ np.array(vs)
        scale = np.linalg.norm(expected)
        np.testing.assert_allclose(traj.states[row], expected, rtol=0.0, atol=1e-13 * scale)
    assert set(frame.labels[:, 0]) == {"+", "-"}


def test_diode_phase_samples_bit_equal_to_oracle():
    # accumulated_phase integrates the gap 2 lam, the oracle's tracked gap up to rounding
    times = np.linspace(0.0, DIODE_DURATION, 8193)
    for direction in (Direction.CW, Direction.CCW):
        loop = diode_loop(direction)
        _, lam, _, _ = traversal.branch_frames(REF, loop, times)
        energies, _, _ = oracle_track(REF, loop, 8192)
        gap = energies[:, 0] - energies[:, 1]
        assert np.abs(2.0 * lam - gap).max() <= 4 * EPS * np.abs(gap).max()


class TestAmbiguityOnlyWhereItCanDecide:
    """``branch_frames`` tests a pairing only where the turn |dth| exceeds ``traversal._TURN_UNAMBIGUOUS``."""

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    @example(0.5, 0.0)
    @example(-0.5, 0.0)
    @example(0.0, 0.5)
    @example(0.0, -0.5)
    @example(0.3, 0.4)
    @example(0.5 * math.cos(1.0), 0.5 * math.sin(1.0))
    @settings(max_examples=2000, deadline=None)
    def test_no_turn_within_half_a_radian_is_ambiguous(self, x, y):
        # sin^2 x - 0.81 cos^2 x + 0.19 sinh^2 y <= -0.35 on the disk, in float64 too
        turn = np.array([complex(x, y)])
        if np.abs(turn)[0] <= traversal._TURN_UNAMBIGUOUS:
            assert np.abs(np.sin(turn))[0] <= traversal._AMBIGUITY * np.abs(np.cos(turn))[0]

    def test_the_outcomes_of_testing_every_sample(self, monkeypatch):
        # a bound below every |dth| tests every sample, as the scan did before:
        # the same frames, or the same error and message, on loops near the EP
        # at 16 to 256 samples
        rng = np.random.default_rng(41)
        drives = [near_ep_loop(rng) for _ in range(30)] + [GRAZING]

        def outcomes():
            out = []
            for loop in drives:
                for n_samples in (16, 32, 64, 128, 256):
                    try:
                        frames = traversal.branch_frames(REF, loop, np.linspace(0.0, loop.duration_T, n_samples + 1))
                        out.append([np.ascontiguousarray(x).tobytes() for x in frames])
                    except (AmbiguousTrackingError, EPOnContourError) as exc:
                        out.append((type(exc), str(exc)))
            return out

        got = outcomes()
        monkeypatch.setattr(traversal, "_TURN_UNAMBIGUOUS", -1.0)
        assert got == outcomes()
        errors = collections.Counter(o[0] for o in got if isinstance(o, tuple))
        assert errors[AmbiguousTrackingError] and len(got) - errors.total() > 0

    @pytest.mark.parametrize("n_samples, message", [(32, "2.529 vs 2.376"), (64, "2.159 vs 1.982")])
    def test_an_undersampled_loop_keeps_its_message(self, n_samples, message):
        with pytest.raises(AmbiguousTrackingError, match=f"^branch overlaps too close to call: {message}$"):
            track_branches(REF, GRAZING, n_samples=n_samples)
