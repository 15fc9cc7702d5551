"""Contour parameterization, winding number, and EP proximity."""

import dataclasses
import math

import numpy as np
import pytest

from epdyn import (
    DEFAULT_PARAMS,
    DIODE_DURATION,
    Direction,
    EPOnContourError,
    FieldPoint,
    LoopSpec,
    StaticDrive,
    SystemParams,
    UndersampledError,
    contains_ep,
    diode_control_loop,
    diode_loop,
    field_at,
    field_velocity,
    locate_ep,
    rho,
    winding_number,
)
from epdyn import loops
from epdyn.model import _traceless, _traceless_drive, build_hamiltonian, discriminant
from dop853_reference import _traceless_kernel
from row_reference import omega_integral

REF = DEFAULT_PARAMS


def make_loop(cw=1.0, ec=0.2, a=0.05, b=0.05, direction=Direction.CCW, T=10.0, sp=0.0):
    return LoopSpec(
        center=FieldPoint(cw, ec),
        semi_axis_omega=a,
        semi_axis_eps=b,
        direction=direction,
        duration_T=T,
        start_phase=sp,
    )


def random_loop(rng, direction=None):
    ec = rng.uniform(0.05, 0.6)
    return make_loop(
        cw=rng.uniform(0.7, 1.3),
        ec=ec,
        a=rng.uniform(0.01, 0.3),
        b=rng.uniform(0.01, 1.0) * ec,
        direction=direction or rng.choice([Direction.CW, Direction.CCW]),
        T=rng.uniform(1.0, 100.0),
        sp=rng.uniform(0.0, 2 * math.pi),
    )


class TestLoopSpec:
    def test_amplitude_must_stay_physical(self):
        with pytest.raises(ValueError):
            make_loop(ec=0.1, b=0.2)

    @pytest.mark.parametrize("kwargs", [dict(a=0.0), dict(b=0.0), dict(T=0.0), dict(T=-1.0)])
    def test_rejects_degenerate_geometry(self, kwargs):
        base = dict(cw=1.0, ec=0.5, a=0.05, b=0.05, T=10.0)
        base.update({{"a": "a", "b": "b", "T": "T"}.get(k, k): v for k, v in kwargs.items()})
        with pytest.raises(ValueError):
            make_loop(**base)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(cw=math.inf), "center.omega"),
            (dict(ec=math.nan), "center.eps0"),
            (dict(a=math.nan), "semi_axis_omega"),
            (dict(b=math.inf), "semi_axis_eps"),
            (dict(T=math.inf), "duration_T"),
            (dict(T=math.nan), "duration_T"),
            (dict(sp=-math.inf), "start_phase"),
        ],
    )
    def test_rejects_non_finite(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_loop(**kwargs)

    @pytest.mark.parametrize("direction", [Direction.CW, Direction.CCW])
    def test_the_diode_control_is_the_diode_loop_moved_in_omega(self, direction):
        # one copy of the diode geometry: the control loop is its geometry with
        # the center at omega = 3.52005, the floats of the literal it replaced
        want = LoopSpec(FieldPoint(3.52005, 0.64976), 2.02446, 0.64973, direction, 200.0, 4.35017)
        assert diode_control_loop(direction, 200.0) == want
        assert diode_control_loop(direction) == dataclasses.replace(want, duration_T=DIODE_DURATION)
        assert diode_control_loop(direction) == dataclasses.replace(diode_loop(direction), center=want.center)


class TestFieldAt:
    def test_start_point_ccw(self):
        loop = make_loop()
        f = field_at(loop, 0.0)
        assert f.omega == pytest.approx(1.05)
        assert f.eps0 == pytest.approx(0.2)

    def test_exact_closure(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            loop = random_loop(rng)
            f0 = field_at(loop, 0.0)
            fT = field_at(loop, loop.duration_T)
            assert f0.omega == fT.omega and f0.eps0 == fT.eps0

    def test_cw_quarter_equals_ccw_three_quarters(self):
        T = 8.0
        cw = make_loop(direction=Direction.CW, T=T, sp=0.3)
        ccw = make_loop(direction=Direction.CCW, T=T, sp=0.3)
        f1 = field_at(cw, T / 4)
        f2 = field_at(ccw, 3 * T / 4)
        assert f1.omega == pytest.approx(f2.omega, abs=1e-12)
        assert f1.eps0 == pytest.approx(f2.eps0, abs=1e-12)

    def test_rejects_out_of_range_time(self):
        loop = make_loop(T=5.0)
        with pytest.raises(ValueError):
            field_at(loop, -0.1)
        with pytest.raises(ValueError):
            field_at(loop, 5.1)


class TestFieldVelocity:
    def test_initial_velocity_ccw(self):
        loop = make_loop(T=10.0)
        vx, vy = field_velocity(loop, 0.0)
        assert vx == pytest.approx(0.0, abs=1e-15)
        assert vy == pytest.approx(2 * math.pi * 0.05 / 10.0)

    def test_doubling_duration_halves_speed(self):
        l1 = make_loop(T=10.0)
        l2 = make_loop(T=20.0)
        v1 = field_velocity(l1, 2.5)  # same contour angle as t = 5 on l2
        v2 = field_velocity(l2, 5.0)
        assert v1[0] == pytest.approx(2 * v2[0], abs=1e-15)
        assert v1[1] == pytest.approx(2 * v2[1], abs=1e-15)

    def test_direction_reversal_negates_velocity(self):
        T = 10.0
        cw = make_loop(direction=Direction.CW, T=T, sp=0.7)
        ccw = make_loop(direction=Direction.CCW, T=T, sp=0.7)
        # same contour point at matched angle, opposite traversal
        v_cw = field_velocity(cw, T / 4)
        v_ccw = field_velocity(ccw, 3 * T / 4)
        assert v_cw[0] == pytest.approx(-v_ccw[0], abs=1e-12)
        assert v_cw[1] == pytest.approx(-v_ccw[1], abs=1e-12)

    def test_finite_difference_agreement(self):
        loop = make_loop(T=13.0, sp=0.4)
        t, h = 3.7, 1e-6
        fa, fb = field_at(loop, t - h), field_at(loop, t + h)
        vx, vy = field_velocity(loop, t)
        assert vx == pytest.approx((fb.omega - fa.omega) / (2 * h), abs=1e-8)
        assert vy == pytest.approx((fb.eps0 - fa.eps0) / (2 * h), abs=1e-8)


class TestStaticDrive:
    def test_constant_field(self):
        drive = StaticDrive(FieldPoint(1.0, 0.3), 5.0)
        f = field_at(drive, 2.0)
        assert f.omega == 1.0 and f.eps0 == 0.3
        assert field_velocity(drive, 2.0) == (0.0, 0.0)

    def test_omega_integral_linear(self):
        drive = StaticDrive(FieldPoint(1.5, 0.0), 5.0)
        assert loops._omega_integral(drive, np.array([4.0])) == pytest.approx([6.0])

    @pytest.mark.parametrize(
        "field, duration, name",
        [
            (FieldPoint(math.nan, 0.3), 5.0, "field.omega"),
            (FieldPoint(1.0, math.inf), 5.0, "field.eps0"),
            (FieldPoint(1.0, 0.3), math.inf, "duration_T"),
            (FieldPoint(1.0, 0.3), math.nan, "duration_T"),
        ],
    )
    def test_rejects_non_finite(self, field, duration, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            StaticDrive(field, duration)


def bits(values):
    """Types and IEEE bits of a tuple of floats and complex numbers (-0.0 differs from 0.0)."""
    return [(type(x), x.real.hex(), x.imag.hex()) for x in values]


def reference_kernel(drive, params, t):
    """(a, g, a', g') through field_at -> _traceless, as the kernel's contract states."""
    tc = min(max(t, 0.0), drive.duration_T)
    fp = field_at(drive, tc)
    return (*_traceless(params, fp.omega, fp.eps0), *_traceless_drive(params, *field_velocity(drive, tc)))


KERNEL_DRIVES = {
    "cw": make_loop(direction=Direction.CW, T=13.0, sp=0.4),
    "ccw": make_loop(direction=Direction.CCW, T=13.0),
    "diode-cw": diode_loop(Direction.CW),
    "diode-ccw": diode_loop(Direction.CCW),
    "static": StaticDrive(FieldPoint(1.0, 0.3), 5.0),
}


class TestTracelessKernel:
    @pytest.mark.parametrize("drive", KERNEL_DRIVES.values(), ids=KERNEL_DRIVES.keys())
    def test_bits_of_field_at_and_traceless(self, drive):
        # uniform and random times, both ends, and stage times just outside
        # [0, T], which the kernel clamps to its ends
        T = drive.duration_T
        rng = np.random.default_rng(7)
        times = [0.0, T, -0.0, -5e-324, -1e-15 * T, math.nextafter(T, math.inf), T * (1.0 + 1e-15)]
        times += np.linspace(0.0, T, 1024).tolist() + rng.uniform(0.0, T, 1024).tolist()
        kernel = _traceless_kernel(drive, REF)
        for t in times:
            assert bits(kernel(t)) == bits(reference_kernel(drive, REF, t)), t

    def test_bits_on_random_loops_and_params(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            loop = random_loop(rng)
            params = SystemParams(e1=rng.normal(), e2=rng.normal(), gamma1=rng.uniform(0.0, 0.5),
                                  gamma2=rng.uniform(0.0, 0.5), d12=complex(*rng.normal(size=2)))
            static = StaticDrive(loop.center, loop.duration_T)
            for drive in (loop, static):
                kernel = _traceless_kernel(drive, params)
                for t in rng.uniform(-0.01, 1.01, 64) * drive.duration_T:
                    assert bits(kernel(t)) == bits(reference_kernel(drive, params, t)), (drive, params, t)


class TestContour:
    """``loops._contour`` is the one reader of a drive's constants; a batch of them evaluates each drive's bits."""

    DRIVES = [
        make_loop(direction=Direction.CW, T=13.0, sp=0.4),
        make_loop(direction=Direction.CCW),
        diode_loop(Direction.CW),
        diode_loop(Direction.CCW),
        *(StaticDrive(FieldPoint(x, y), 5.0) for x, y in [(0.0, -0.0), (-0.0, 0.0), (1e300, 1e300), (-1e300, 0.0)]),
    ]

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_rows_are_each_drive_alone(self, seed):
        rng = np.random.default_rng(seed)
        drives = [self.DRIVES[k] for k in rng.permutation(len(self.DRIVES))]
        fractions = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 64)])
        times = np.array([d.duration_T for d in drives])[:, None] * fractions
        motion = loops._motion_at(loops._contours(drives), times)
        for row, drive in enumerate(drives):
            velocity = np.array([field_velocity(drive, t) for t in times[row].tolist()]).T
            alone = (*loops._fields_at(drive, times[row]), *velocity)
            assert [m[row].tobytes() for m in motion] == [a.tobytes() for a in alone], drive

    @pytest.mark.parametrize("drive", DRIVES[4:], ids=["+0", "-0", "+1e300", "-1e300"])
    def test_static_drive_is_its_field(self, drive):
        # both axes -0.0 at the angle 0: each axis term is -0.0, which keeps every bit of the field
        times = np.linspace(0.0, drive.duration_T, 9)
        omega, eps0 = loops._fields_at(drive, times)
        assert omega.tobytes() == np.full(9, drive.field.omega).tobytes()
        assert eps0.tobytes() == np.full(9, drive.field.eps0).tobytes()
        point = field_at(drive, 2.0)
        assert bits((point.omega, point.eps0)) == bits((drive.field.omega, drive.field.eps0))
        # the zero velocity has one spelling, the contour formula's: -ax sin rate = 0.0, ay cos rate = -0.0
        assert bits(field_velocity(drive, 2.0)) == bits((0.0, -0.0))
        assert [v.tobytes() for v in loops._motion_at(loops._contour(drive), times)[2:]] == [
            np.full(9, 0.0).tobytes(), np.full(9, -0.0).tobytes()
        ]


class TestOmegaIntegral:
    def test_matches_quadrature(self):
        # the closed form feeds the analytic trace-phase removal, so it gets
        # an independent quadrature check
        from scipy.integrate import quad

        rng = np.random.default_rng(101)
        for _ in range(10):
            loop = random_loop(rng)
            t_end = rng.uniform(0.1, loop.duration_T)
            numeric, err = quad(lambda t: field_at(loop, t).omega, 0.0, t_end, limit=200)
            integral = loops._omega_integral(loop, np.array([t_end]))
            assert integral == pytest.approx([numeric], abs=max(1e-9, 10 * err))

    @pytest.mark.parametrize("static", [False, True], ids=["loop", "static"])
    def test_array_times_give_the_scalar_bits(self, static):
        # the recorder takes the trace phase of all its rows in one call; the
        # scalar closed form in Python floats is the recorder oracle's
        rng = np.random.default_rng(7)
        loop = random_loop(rng)
        drive = StaticDrive(FieldPoint(1.5, 0.2), loop.duration_T) if static else loop
        times = np.concatenate([[0.0, loop.duration_T], rng.uniform(0.0, loop.duration_T, 256)])
        scalar = [omega_integral(drive, t) for t in times.tolist()]
        assert loops._omega_integral(drive, times).tobytes() == np.array(scalar).tobytes()

    def test_subnormal_duration_rejected(self):
        # 2*pi/T would overflow, and the phase would be nan or raise in math.sin
        with pytest.raises(ValueError, match="duration_T is too small"):
            make_loop(T=1e-320)


class TestWindingNumber:
    def test_encircling_ccw_is_minus_one(self):
        # documented sign: the discriminant circles the origin opposite to
        # the parameter-space orientation in this model
        loop = make_loop(direction=Direction.CCW)
        assert winding_number(loop, REF, n_samples=1024) == -1

    def test_encircling_cw_is_plus_one(self):
        loop = make_loop(direction=Direction.CW)
        assert winding_number(loop, REF, n_samples=1024) == 1

    def test_non_encircling_is_zero(self):
        loop = make_loop(ec=0.5)
        assert winding_number(loop, REF, n_samples=1024) == 0

    def test_reversal_negates(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            loop = random_loop(rng, direction=Direction.CCW)
            try:
                w = winding_number(loop, REF, n_samples=2048)
            except EPOnContourError:
                continue
            assert winding_number(dataclasses.replace(loop, direction=Direction.CW), REF, n_samples=2048) == -w

    def test_result_stable_in_sample_count(self):
        loop = make_loop(direction=Direction.CCW)
        w1 = winding_number(loop, REF, n_samples=256)
        w2 = winding_number(loop, REF, n_samples=1024)
        w3 = winding_number(loop, REF, n_samples=8192)
        assert w1 == w2 == w3 == -1

    def test_ep_on_contour_detected(self):
        # bottom of this ellipse passes exactly through the EP (1, 0.2)
        loop = make_loop(ec=0.25, a=0.05, b=0.05, sp=0.0)
        with pytest.raises(EPOnContourError):
            winding_number(loop, REF, n_samples=1024)

    def test_undersampling_detected(self):
        # flat loop grazing the EP: the argument swing concentrates between
        # adjacent samples at n = 64
        loop = make_loop(ec=0.2499, a=0.3, b=0.05)
        with pytest.raises(UndersampledError):
            winding_number(loop, REF, n_samples=64)

    def test_vectorized_discriminant_matches_scalar_path(self):
        # winding_number counts the argument of the vectorized formula
        rng = np.random.default_rng(5)
        for loop in [random_loop(rng) for _ in range(10)] + [diode_loop(Direction.CW)]:
            times = np.linspace(0.0, loop.duration_T, 257)
            a, g = _traceless(REF, *loops._fields_at(loop, times))
            fast = 4.0 * (a * a + g * g)
            slow = [discriminant(build_hamiltonian(REF, field_at(loop, float(t)))) for t in times]
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-15)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            winding_number(make_loop(), REF, n_samples=32)


class TestRho:
    def test_ep_at_center(self):
        ep = locate_ep(REF)
        loop = make_loop(a=0.08, b=0.05)
        assert rho(loop, ep) == pytest.approx(0.05)

    def test_ep_on_contour(self):
        ep = locate_ep(REF)
        loop = make_loop(ec=0.25, a=0.05, b=0.05)
        assert rho(loop, ep) == pytest.approx(0.0, abs=1e-15)

    def test_ep_far_outside(self):
        ep = locate_ep(REF)
        loop = make_loop(cw=1.15, a=0.05, b=0.05)
        assert rho(loop, ep) == pytest.approx(-0.1)


class TestContainsEP:
    def test_centered_loop(self):
        assert contains_ep(make_loop(), REF) is True

    def test_distant_loop(self):
        assert contains_ep(make_loop(ec=0.5), REF) is False

    def test_agreement_with_winding_on_random_loops(self):
        rng = np.random.default_rng(77)
        ep = locate_ep(REF)
        checked = 0
        while checked < 100:
            loop = random_loop(rng)
            r = rho(loop, ep)
            if abs(r) <= 0.01 * min(loop.semi_axis_omega, loop.semi_axis_eps):
                continue
            try:
                w = winding_number(loop, REF, n_samples=4096)
            except (EPOnContourError, UndersampledError):
                continue
            checked += 1
            assert (abs(w) == 1) == contains_ep(loop, REF)
