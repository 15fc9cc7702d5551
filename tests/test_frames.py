"""The array eigenframe path against the scalar oracle in ``frame_reference``.

The package solves and pairs eigenframes a block of samples at a time. The
oracle solves and pairs them one sample at a time in Python complex
arithmetic, as the package did before. Energies, vectors (signed zeros
included) and labels must be the same bits, and failures the same errors.
"""

import math
import re

import numpy as np
import pytest

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
    accumulated_phase,
    build_hamiltonian,
    diode_loop,
    eigenframe,
    encircling_loop,
    hermitian_loop,
    propagate_adiabatic,
    track_branches,
    winding_number,
)
from epdyn import frames
from epdyn.frames import _scan
from frame_reference import _aligned_next, _eigensystem, _tracked_frames

REF = DEFAULT_PARAMS
TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)

# the loop of TestTrackBranches.test_no_swap_without_ep
NO_SWAP = LoopSpec(FieldPoint(1.0, 0.5), 0.05, 0.05, Direction.CCW, 10.0)
# center.eps0 == semi_axis_eps: the contour touches eps0 = 0, where h12 = 0 and
# eigenvector components are exact (signed) zeros
TOUCHING = LoopSpec(FieldPoint(1.0, 0.3), 0.2, 0.3, Direction.CCW, 10.0)


def bits(a) -> bytes:
    """The raw bytes of an array: equal only if every float, signed zeros too, is equal."""
    return np.ascontiguousarray(a).tobytes()


def oracle_track(params, drive, n_samples, ep_tol=1e-8):
    times = np.linspace(0.0, drive.duration_T, n_samples + 1)
    frames = list(_tracked_frames(params, drive, times, ep_tol))
    energies = np.array([es for es, _, _ in frames], dtype=complex)
    vectors = np.array([vs for _, vs, _ in frames], dtype=complex)
    labels = np.array([labs for _, _, labs in frames])
    return energies, vectors, labels


def assert_bit_equal(params, drive, n_samples):
    frame = track_branches(params, drive, n_samples=n_samples)
    energies, vectors, labels = oracle_track(params, drive, n_samples)
    assert bits(frame.energies) == bits(energies)
    assert bits(frame.vectors) == bits(vectors)
    assert np.array_equal(frame.labels, labels)
    return frame


@pytest.mark.parametrize(
    "params, drive, n_samples",
    [
        (REF, encircling_loop(10.0), 4096),
        (REF, diode_loop(Direction.CW), 8192),
        (REF, diode_loop(Direction.CCW), 8192),
        (REF, NO_SWAP, 2048),
        (HERMITIAN_PARAMS, hermitian_loop(10.0), 2048),
        (REF, StaticDrive(FieldPoint(1.0, 0.4), 5.0), 64),
        (REF, StaticDrive(FieldPoint(1.0, 0.0), 5.0), 64),  # diagonal H: the basis vectors
        (REF, TOUCHING, 4096),
    ],
    ids=[
        "encircling", "diode-cw", "diode-ccw", "no-swap", "hermitian", "static", "static-diagonal", "touching"
    ],
)
def test_track_branches_bit_equal_to_oracle(params, drive, n_samples):
    assert_bit_equal(params, drive, n_samples)


def test_touching_loop_has_exact_zero_components():
    # the case is only a check if the samples reach eps0 = 0 and exact zeros,
    # some of them negative
    frame = assert_bit_equal(REF, TOUCHING, 4096)
    zeros = frame.vectors.real[frame.vectors.real == 0.0]
    assert zeros.size and np.signbit(zeros).any()


def test_random_loops_bit_equal_to_oracle():
    # the loops of TestTrackBranches.test_swap_matches_winding_on_random_loops
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        ec = rng.uniform(0.1, 0.5)
        loop = LoopSpec(
            center=FieldPoint(rng.uniform(0.8, 1.2), ec),
            semi_axis_omega=rng.uniform(0.02, 0.2),
            semi_axis_eps=rng.uniform(0.3, 1.0) * ec,
            direction=rng.choice([Direction.CW, Direction.CCW]),
            duration_T=10.0,
            start_phase=rng.uniform(0, 2 * math.pi),
        )
        try:
            winding_number(loop, REF, n_samples=4096)
        except Exception:
            continue
        try:
            oracle_track(REF, loop, 4096)
        except Exception as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                track_branches(REF, loop, n_samples=4096)
            continue
        checked += 1
        assert_bit_equal(REF, loop, 4096)


@pytest.mark.parametrize(
    "loop, n_samples, error",
    [
        # TestTrackBranches.test_ep_on_contour_rejected
        (LoopSpec(FieldPoint(1.0, 0.25), 0.05, 0.05, Direction.CCW, 10.0), 1024, EPOnContourError),
        # TestTrackBranches.test_ambiguous_when_undersampled
        (LoopSpec(FieldPoint(1.0, 0.2499), 0.3, 0.05, Direction.CCW, 10.0), 32, AmbiguousTrackingError),
    ],
    ids=["ep-on-contour", "undersampled"],
)
def test_same_error_as_oracle(loop, n_samples, error):
    with pytest.raises(error) as expected:
        oracle_track(REF, loop, n_samples)
    with pytest.raises(error) as got:
        track_branches(REF, loop, n_samples=n_samples)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_eigenframe_bit_equal_to_oracle():
    # random matrices, a third of them diagonal (eps0 = 0), cnorms included
    rng = np.random.default_rng(5)
    for k in range(600):
        params = SystemParams(
            rng.normal(), rng.normal(), abs(rng.normal()), abs(rng.normal()), complex(*rng.normal(size=2))
        )
        h = build_hamiltonian(params, FieldPoint(rng.normal(), 0.0 if k % 3 == 0 else abs(rng.normal())))
        e_p, e_m, v_p, v_m, c_p, c_m = _eigensystem(h, 1e-8)
        frame = eigenframe(h)
        assert bits([frame.e_plus, frame.e_minus, frame.cnorm_plus, frame.cnorm_minus]) == bits(
            [e_p, e_m, c_p, c_m]
        )
        assert bits([frame.v_plus, frame.v_minus]) == bits([v_p, v_m])


def test_adiabatic_rows_on_oracle_frames():
    # with record_internal every step end is a row: tracking the oracle's
    # frames along the rows gives the recorded labels, and the states are
    # the coefficients on the oracle's vectors
    loop = encircling_loop(50.0, Direction.CW)
    n_output = 64
    traj = propagate_adiabatic(
        REF, loop, StateVector(0.6, 0.8j), TIGHT, n_output=n_output, record_internal=True
    )
    assert len(traj.times) == traj.meta["solver"]["steps"] + 1
    assert set(np.linspace(0.0, 50.0, n_output + 1).tolist()) <= set(traj.times.tolist())
    for row, (_, vs, labels) in enumerate(_tracked_frames(REF, loop, traj.times, 1e-8)):
        assert traj.branch_labels[row] == labels[0]
        expected = traj.adiabatic_coeffs[row] @ np.array(vs)
        scale = np.linalg.norm(expected)
        np.testing.assert_allclose(traj.states[row], expected, rtol=0.0, atol=1e-13 * scale)
    assert set(traj.branch_labels) == {"+", "-"}


def test_diode_phase_samples_bit_equal_to_oracle():
    # accumulated_phase integrates the same tracked gap the oracle gives
    times = np.linspace(0.0, DIODE_DURATION, 8193)
    loop = diode_loop(Direction.CCW)
    blocks = [f.energies() for _, f in _scan(REF, loop, times, 1e-8)]
    gap = np.concatenate([e[:, 0] - e[:, 1] for e in blocks])
    energies, _, _ = oracle_track(REF, loop, 8192)
    assert bits(gap) == bits(energies[:, 0] - energies[:, 1])


@pytest.mark.parametrize("block", [64, 8192])
def test_the_block_length_changes_no_bit(block, monkeypatch):
    # each block continues the last frame of the one before, so where the
    # blocks end changes no frame, no phase integral and no error
    undersampled = LoopSpec(FieldPoint(1.0, 0.2499), 0.3, 0.05, Direction.CCW, 10.0)

    def outputs():
        frame = track_branches(REF, encircling_loop(10.0), n_samples=4096)
        diode = diode_loop(Direction.CW)
        phase = accumulated_phase(REF, diode, diode.duration_T, n_samples=8192)
        with pytest.raises(AmbiguousTrackingError) as error:
            track_branches(REF, undersampled, n_samples=150)
        return bits(frame.energies), bits(frame.vectors), frame.labels.tolist(), bits([phase]), str(error.value)

    want = outputs()
    monkeypatch.setattr(frames, "_BLOCK", block)
    assert outputs() == want
