"""Hamiltonian construction, spectrum, eigenframes, and EP location."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from epdyn import (
    DEFAULT_PARAMS,
    Direction,
    EPOnContourError,
    FieldPoint,
    HamiltonianMatrix,
    IntegratorConfig,
    LoopSpec,
    NegativeAmplitudeError,
    NoFiniteEPError,
    NonFiniteError,
    StateVector,
    StaticDrive,
    SystemParams,
    build_hamiltonian,
    c_product,
    diode_loop,
    discriminant,
    locate_ep,
    propagate_adiabatic,
    track_branches,
    winding_number,
)
from epdyn import loops, model, traversal
from epdyn.analysis import final_state_report, table1
from ep_reference import refine_ep

REF = DEFAULT_PARAMS


def random_params(rng) -> SystemParams:
    return SystemParams(
        e1=rng.uniform(-1, 1),
        e2=rng.uniform(-1, 2),
        gamma1=rng.uniform(0, 0.5),
        gamma2=rng.uniform(0, 0.5),
        d12=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
    )


def random_field(rng) -> FieldPoint:
    return FieldPoint(omega=rng.uniform(0, 2), eps0=rng.uniform(0, 1))


def frame_at(params: SystemParams, field: FieldPoint) -> tuple:
    """(e_plus, e_minus), (v_plus, v_minus) of the matrix at one field point: a static drive's t = 0 frame."""
    frame = track_branches(params, StaticDrive(field, 1.0), n_samples=16)
    return frame.energies[0], frame.vectors[0]


class TestSystemParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("e1", math.inf),
            ("e2", -math.inf),
            ("gamma1", math.nan),
            ("gamma2", math.inf),
            ("d12", complex(math.nan, 0.0)),
            ("d12", complex(1.0, math.inf)),
        ],
    )
    def test_rejects_non_finite(self, name, value):
        fields = dict(e1=0.0, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1.0 + 0j)
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SystemParams(**fields)


class TestBuildHamiltonian:
    def test_reference_point(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.2))
        assert h.h11 == 1.0 - 0.1j
        assert h.h12 == 0.1
        assert h.h22 == 1.0 - 0.3j

    def test_zero_coupling_is_diagonal(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.0))
        assert h.h12 == 0
        assert h.h11 == 1.0 - 0.1j and h.h22 == 1.0 - 0.3j

    def test_detuned_point(self):
        h = build_hamiltonian(REF, FieldPoint(1.1, 0.4))
        assert h.h11 == pytest.approx(1.1 - 0.1j)
        assert h.h12 == pytest.approx(0.2)
        assert h.h22 == 1.0 - 0.3j

    def test_complex_symmetry_enforced(self):
        # one off-diagonal field: the matrix cannot be built unsymmetric
        with pytest.raises(TypeError):
            HamiltonianMatrix(1.0, 0.1, 0.2, 1.0)
        mat = HamiltonianMatrix(1.0, 0.1 + 0.2j, -1.0).as_array()
        assert np.array_equal(mat, mat.T)

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, f = random_params(rng), random_field(rng)
            h = build_hamiltonian(p, f)
            expected = complex(p.e1 + f.omega, -p.gamma1) + complex(p.e2, -p.gamma2)
            assert h.trace == pytest.approx(expected, abs=1e-15)


class TestDiscriminant:
    def test_zero_at_ep(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.2))
        assert abs(discriminant(h)) < 1e-15

    def test_strong_field(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.4))
        assert discriminant(h) == pytest.approx(0.12)

    def test_detuned(self):
        h = build_hamiltonian(REF, FieldPoint(1.1, 0.2))
        assert discriminant(h) == pytest.approx(0.01 + 0.04j)


class TestEigenvalues:
    def test_split_above_ep(self):
        (e_p, e_m), _ = frame_at(REF, FieldPoint(1.0, 0.4))
        half_root = 0.5 * math.sqrt(0.12)
        assert e_p == pytest.approx(1.0 + half_root - 0.2j)
        assert e_m == pytest.approx(1.0 - half_root - 0.2j)

    def test_hermitian_case_real(self):
        p = SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=0.0, d12=1.0)
        (e_p, e_m), _ = frame_at(p, FieldPoint(1.0, 0.2))
        assert e_p == pytest.approx(1.1) and e_p.imag == 0
        assert e_m == pytest.approx(0.9) and e_m.imag == 0

    def test_plus_branch_convention(self):
        # '+' root has Re >= 0; for negative real discriminants the tie
        # resolves to Im >= 0: here a = 0.2i and g = 0, so a^2 + g^2 = -0.04
        p = SystemParams(e1=0.0, e2=0.0, gamma1=0.0, gamma2=0.4, d12=1.0)
        (e_p, e_m), _ = frame_at(p, FieldPoint(0.0, 0.0))
        half_trace = 0.5 * (e_p + e_m)
        assert e_p.imag > half_trace.imag > e_m.imag

    def test_plus_root_at_a_signed_zero_tie(self):
        # a^2 + g^2 = -4 - 0i, where numpy's root -2i is the '-' side of the tie:
        # the '+' root is -0.0 + 2i, for one value and as the array element
        # that the first sample of a traversal gives ``traversal._Phase``
        h = HamiltonianMatrix(-2j, complex(0.0, -0.0), 2j)
        a, g = np.complex128(0.5 * (h.h11 - h.h22)), np.complex128(h.h12)
        w2 = a * a + g * g
        assert (w2.real, math.copysign(1.0, w2.imag)) == (-4.0, -1.0)
        phase = traversal._Phase(np.array([a]), np.array([g]), np.array([w2]), 1)
        for lam in (complex(model._root_plus(complex(w2))), complex(phase.lam0[0])):
            assert lam == 2j and math.copysign(1.0, lam.real) == -1.0

    def test_trace_conservation_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, f = random_params(rng), random_field(rng)
            (e_p, e_m), _ = frame_at(p, f)
            assert abs((e_p + e_m) - build_hamiltonian(p, f).trace) < 1e-12


class TestCProduct:
    def test_self_orthogonal_vector(self):
        assert c_product((1, 1j), (1, 1j)) == 0

    def test_basis_orthogonality(self):
        assert c_product((1, 0), (0, 1)) == 0

    def test_no_conjugation(self):
        assert c_product((1, 2), (3, 4)) == 11


class TestEigenframe:
    # the frame of one matrix is the t = 0 sample of a static drive's tracked frames

    def test_hermitian_frame(self):
        p = SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=0.0, d12=1.0)  # H = [[1, 0.1], [0.1, 1]]
        (e_p, e_m), (v_plus, v_minus) = frame_at(p, FieldPoint(1.0, 0.2))
        assert e_p == pytest.approx(1.1)
        assert e_m == pytest.approx(0.9)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(v_plus, [inv_sqrt2, inv_sqrt2], atol=1e-14)
        np.testing.assert_allclose(v_minus, [inv_sqrt2, -inv_sqrt2], atol=1e-14)

    def test_tie_keeps_first_component_leading(self):
        # at a = 0 (h11 == h22) with a real g each vector's components have
        # equal moduli; the first leads, whatever the rounding of cos th and sin th
        for h11, g in ((1.0, 0.1), (1.0 - 0.2j, 0.3), (-2.0, -0.7), (0.5 - 0.1j, -1e-3)):
            h11 = complex(h11)
            p = SystemParams(e1=0.0, e2=h11.real, gamma1=-h11.imag, gamma2=-h11.imag, d12=math.copysign(1.0, g))
            _, vectors = frame_at(p, FieldPoint(h11.real, 2.0 * abs(g)))
            for v in vectors:
                assert abs(v[0]) == pytest.approx(abs(v[1]), rel=1e-15)
                assert v[0].real > 0.0

    def test_refuses_at_ep(self):
        with pytest.raises(EPOnContourError):
            frame_at(REF, FieldPoint(1.0, 0.2))

    def test_biorthogonality(self):
        _, (v_plus, v_minus) = frame_at(REF, FieldPoint(1.0, 0.4))
        assert abs(c_product(v_plus, v_minus)) < 1e-12

    def test_c_normalization_and_residual_random(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 60:
            p, f = random_params(rng), random_field(rng)
            h = build_hamiltonian(p, f)
            if abs(discriminant(h)) < 1e-3:
                continue
            count += 1
            (e_p, e_m), (v_plus, v_minus) = frame_at(p, f)
            assert abs(c_product(v_plus, v_plus) - 1.0) < 1e-12
            assert abs(c_product(v_minus, v_minus) - 1.0) < 1e-12
            mat = h.as_array()
            norm_h = np.linalg.norm(mat)
            for e, v in ((e_p, v_plus), (e_m, v_minus)):
                assert np.linalg.norm(mat @ v - e * v) <= 1e-10 * norm_h

    def test_cnorm_collapse_near_ep(self):
        # |c-norm| of the unit eigenvector, 1/|v|^2 of the c-normalized v,
        # decreases monotonically on the last decade of approach;
        # self-orthogonality in the limit
        distances = np.geomspace(1e-2, 1e-7, 11)
        mags = []
        for d in distances:
            _, (v_plus, _) = frame_at(REF, FieldPoint(1.0, 0.2 + d))
            mags.append(1.0 / np.sum(np.abs(v_plus) ** 2))
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-3

    def test_gauge_leading_component_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p, f = random_params(rng), random_field(rng)
            if abs(discriminant(build_hamiltonian(p, f))) < 1e-3:
                continue
            _, vectors = frame_at(p, f)
            for v in vectors:
                lead = v[0] if abs(v[0]) >= abs(v[1]) else v[1]
                assert lead.real > 0 or (lead.real == 0 and lead.imag >= 0)


class TestLocateEP:
    def test_reference_location(self):
        ep = locate_ep(REF)
        assert ep.field.omega == 1.0
        assert ep.field.eps0 == pytest.approx(0.2, abs=1e-15)
        assert ep.residual < 1e-12

    def test_complex_dipole_shifts_frequency(self):
        p = SystemParams(e1=0.0, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1.0 - 0.5j)
        ep = locate_ep(p)
        assert ep.field.omega == pytest.approx(1.1)
        assert ep.field.eps0 == pytest.approx(0.2)
        assert ep.residual < 1e-12

    def test_imaginary_dipole_has_no_ep(self):
        p = SystemParams(e1=0.0, e2=1.0, gamma1=0.1, gamma2=0.3, d12=1j)
        with pytest.raises(NoFiniteEPError):
            locate_ep(p)

    def test_negative_amplitude(self):
        p = SystemParams(e1=0.0, e2=1.0, gamma1=0.3, gamma2=0.1, d12=1.0)
        with pytest.raises(NegativeAmplitudeError):
            locate_ep(p)

    def test_root_find_agrees_with_closed_form(self):
        ep = locate_ep(REF)
        seed = FieldPoint(ep.field.omega * 1.1, ep.field.eps0 * 1.1)
        refined = refine_ep(REF, seed)
        assert abs(refined.omega - ep.field.omega) < 1e-10
        assert abs(refined.eps0 - ep.field.eps0) < 1e-10


#: Parameters with no special values (no exact cancellation in the closed-form EP).
GENERIC = SystemParams(e1=0.37, e2=1.13, gamma1=0.11, gamma2=0.29, d12=0.93 + 0.31j)
#: The README's integrator section.
README_CONFIG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, max_step=10.0, initial_step=0.01)


def in_units(s, params, loop=None, config=None):
    """The model, loop and integrator in units where every energy is s times larger and every time s times shorter."""
    params = SystemParams(params.e1 * s, params.e2 * s, params.gamma1 * s, params.gamma2 * s, params.d12)
    if loop is None:
        return params
    loop = dataclasses.replace(
        loop,
        center=FieldPoint(loop.center.omega * s, loop.center.eps0 * s),
        semi_axis_omega=loop.semi_axis_omega * s,
        semi_axis_eps=loop.semi_axis_eps * s,
        duration_T=loop.duration_T / s,
    )
    return params, loop, dataclasses.replace(config, max_step=config.max_step / s, initial_step=config.initial_step / s)


@functools.lru_cache(maxsize=None)
def diode_answers(s: float) -> tuple:
    """The diode loop's decisions in units scaled by s, and the adiabatic route's ratio (CW from state 2)."""
    params, loop, config = in_units(s, REF, diode_loop(Direction.CW), README_CONFIG)
    locate_ep(params)
    table = table1(params, loop, config)
    report = final_state_report(propagate_adiabatic(params, loop, StateVector.basis(2), config), Direction.CW)
    return (
        winding_number(loop, params),
        [(row.exact_final, row.adiabatic_final) for row in table.rows],
        table.swapped,
        report.dominant_state,
    ), report.ratio


class TestOneEPRule:
    # contact with the EP is |a^2 + g^2| <= kappa (|a|^2 + |g|^2), free of
    # units as the dynamics are: energies times s and times over s give the
    # same answers

    def test_the_rule_is_free_of_units(self):
        rng = np.random.default_rng(7)
        a, g = (rng.normal(size=400) + 1j * rng.normal(size=400) for _ in range(2))
        # every other g is i a (1 + d) with |d| from 1e-14 to 1e-9: kappa = 1e-11 splits them
        g[::2] = 1j * a[::2] * (1.0 + rng.normal(size=200) * 10.0 ** rng.uniform(-14, -9, size=200))
        near = model._on_ep(a, g, a * a + g * g)
        assert near[::2].any() and not near[::2].all() and not near[1::2].any()
        for k in (-200, -40, 40, 200):  # a power of two scales every value exactly
            s = 2.0**k
            assert np.array_equal(model._on_ep(s * a, s * g, (s * a) ** 2 + (s * g) ** 2), near)

    def test_an_overflow_is_not_contact(self):
        # a^2 + g^2 and |a|^2 + |g|^2 both overflow: the sample's error is the overflow
        a, g = np.array([1e200 + 0j]), np.zeros(1, dtype=complex)
        with np.errstate(over="ignore"):
            w2 = a * a + g * g
        assert np.isinf(w2).all() and not model._on_ep(a, g, w2).any()

    @pytest.mark.parametrize("k", range(-12, 7))
    def test_a_change_of_units_changes_no_answer(self, k):
        # the same winding number, table1 decisions and dominant state; the
        # adiabatic ratio within 1e-8 (table1's ratios move in the 4th digit,
        # the float64 floor of the diode loop, and are not compared)
        decisions, ratio = diode_answers(10.0**k)
        want, want_ratio = diode_answers(1.0)
        assert decisions == want
        assert ratio == pytest.approx(want_ratio, rel=1e-8)

    def test_generic_parameters_have_an_ep_in_any_units(self):
        want = locate_ep(GENERIC)
        for k in range(-12, 13):
            s = 10.0**k
            ep = locate_ep(in_units(s, GENERIC))
            assert ep.field.omega == pytest.approx(s * want.field.omega, rel=1e-12)
            assert ep.field.eps0 == pytest.approx(s * want.field.eps0, rel=1e-12)

    @pytest.mark.parametrize("e1", [1e16, 1e20])
    def test_an_unresolved_closed_form_is_refused(self, e1):
        # the closed form's |a^2 + g^2| (0.269) is as large as |a|^2 + |g|^2 there (0.270)
        with pytest.raises(NoFiniteEPError, match=r"^closed-form EP residual 1\.077e\+00: .* > 1e-11 "):
            locate_ep(dataclasses.replace(REF, e1=e1))

    def test_one_contact_one_error(self):
        # |discriminant| = 1.0e-13 at t = 0, inside the rule's 8e-13 at this
        # EP's scale: every frame and count that samples t = 0 reports it alike
        loop = LoopSpec(FieldPoint(1.0, 0.25), 0.05, 0.05, Direction.CCW, 50.0, 1.5 * math.pi + 5e-12)
        field = loops.field_at(loop, 0.0)
        a, g = model._traceless(REF, field.omega, field.eps0)
        assert model._on_ep(a, g, a * a + g * g)
        messages = []
        for call in (
            lambda: winding_number(loop, REF),
            lambda: track_branches(REF, loop),
            lambda: propagate_adiabatic(REF, loop, StateVector.basis(1)),
        ):
            with pytest.raises(EPOnContourError) as info:
                call()
            messages.append(str(info.value))
        assert all("<= 1e-11 (|a|^2 + |g|^2)" in m and "tol^2" not in m for m in messages)
        # the maps leave the eigenframe to the bare frame
        (tmap,) = traversal.traversal_maps(REF, [loop], 1e-10)
        assert (tmap.frame, tmap.steps) == ("bare", 512)


    @pytest.mark.parametrize(
        "loop, error, message",
        [
            # README's system on the CW circle of radius 0.05 about (1.0, 0.25),
            # T = 10, meets the EP at t = 2.5, a sample of each call
            (LoopSpec(FieldPoint(1.0, 0.25), 0.05, 0.05, Direction.CW, 10.0), EPOnContourError,
             "the contour point at t = 2.5 of {loop} comes within the EP: |a^2 + g^2| = "),
            # a = omega/2 + ... is 5e199: a^2 overflows at every sample
            (LoopSpec(FieldPoint(1e200, 0.25), 0.05, 0.05, Direction.CW, 10.0), NonFiniteError,
             "the drive (a, g) overflows float64 at t = 0 of {loop}"),
        ],
        ids=["ep", "overflow"],
    )
    def test_one_scan_one_message(self, loop, error, message):
        # the winding, the tracked frames and the adiabatic route report the
        # first faulty sample in the one scan's words (loops._traceless_at)
        messages = set()
        for call in (
            lambda: winding_number(loop, REF),
            lambda: track_branches(REF, loop),
            lambda: propagate_adiabatic(REF, loop, StateVector.basis(1)),
        ):
            with pytest.raises(error) as info:
                call()
            messages.add(str(info.value))
        (got,) = messages
        assert got.startswith(message.format(loop=loop))


class TestHermitianNoDegeneracy:
    def test_gap_lower_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            gamma = rng.uniform(0, 0.5)
            d = rng.uniform(0.1, 2.0) * (1 if rng.random() < 0.5 else -1)
            p = SystemParams(e1=rng.uniform(-1, 1), e2=rng.uniform(-1, 1), gamma1=gamma, gamma2=gamma, d12=d)
            f = FieldPoint(rng.uniform(0, 2), rng.uniform(1e-3, 1.0))
            (e_p, e_m), _ = frame_at(p, f)
            assert abs(e_p - e_m) >= f.eps0 * abs(d) * (1.0 - 1e-12)
