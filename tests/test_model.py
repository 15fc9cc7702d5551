"""Hamiltonian construction, spectrum, eigenframes, and EP location."""

import cmath
import math

import numpy as np
import pytest

from epdyn import (
    DEFAULT_PARAMS,
    EPProximityError,
    FieldPoint,
    HamiltonianMatrix,
    NegativeAmplitudeError,
    NoFiniteEPError,
    SystemParams,
    build_hamiltonian,
    c_product,
    discriminant,
    eigenframe,
    eigenvalues,
    locate_ep,
    verify_ep,
)
from epdyn import model, traversal
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
        assert h.h12 == h.h21 == 0.1
        assert h.h22 == 1.0 - 0.3j

    def test_zero_coupling_is_diagonal(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.0))
        assert h.h12 == 0 and h.h21 == 0
        assert h.h11 == 1.0 - 0.1j and h.h22 == 1.0 - 0.3j

    def test_detuned_point(self):
        h = build_hamiltonian(REF, FieldPoint(1.1, 0.4))
        assert h.h11 == pytest.approx(1.1 - 0.1j)
        assert h.h12 == pytest.approx(0.2)
        assert h.h22 == 1.0 - 0.3j

    def test_complex_symmetry_enforced(self):
        with pytest.raises(ValueError):
            HamiltonianMatrix(1.0, 0.1, 0.2, 1.0)

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
    def test_coalesced_at_ep(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.2))
        e_p, e_m = eigenvalues(h)
        assert e_p == pytest.approx(1.0 - 0.2j)
        assert e_m == pytest.approx(1.0 - 0.2j)

    def test_split_above_ep(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.4))
        e_p, e_m = eigenvalues(h)
        half_root = 0.5 * math.sqrt(0.12)
        assert e_p == pytest.approx(1.0 + half_root - 0.2j)
        assert e_m == pytest.approx(1.0 - half_root - 0.2j)

    def test_hermitian_case_real(self):
        p = SystemParams(e1=0.0, e2=1.0, gamma1=0.0, gamma2=0.0, d12=1.0)
        e_p, e_m = eigenvalues(build_hamiltonian(p, FieldPoint(1.0, 0.2)))
        assert e_p == pytest.approx(1.1) and e_p.imag == 0
        assert e_m == pytest.approx(0.9) and e_m.imag == 0

    def test_plus_branch_convention(self):
        # '+' root has Re >= 0; for negative real discriminants the tie
        # resolves to Im >= 0
        h = HamiltonianMatrix.symmetric(0.2j, 0.0, -0.2j)
        e_p, e_m = eigenvalues(h)
        assert e_p.imag > 0 and e_m.imag < 0

    def test_plus_root_at_a_signed_zero_tie(self):
        # a^2 + g^2 = -4 - 0i, where numpy's root -2i is the '-' side of the tie:
        # the '+' root is -0.0 + 2i, for one matrix and as the array element
        # that the first sample of a traversal gives ``traversal._Phase``
        h = HamiltonianMatrix.symmetric(-2j, complex(0.0, -0.0), 2j)
        a, g = np.complex128(0.5 * (h.h11 - h.h22)), np.complex128(h.h12)
        w2 = a * a + g * g
        assert (w2.real, math.copysign(1.0, w2.imag)) == (-4.0, -1.0)
        frame = eigenframe(h)
        assert (frame.e_plus, frame.e_minus) == eigenvalues(h) == (2j, -2j)
        phase = traversal._Phase(np.array([a]), np.array([g]), np.array([w2]), 1)
        for lam in (complex(model._root_plus(complex(w2))), complex(phase.lam0[0])):
            assert lam == 2j and math.copysign(1.0, lam.real) == -1.0

    def test_trace_conservation_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h = build_hamiltonian(random_params(rng), random_field(rng))
            e_p, e_m = eigenvalues(h)
            assert abs((e_p + e_m) - h.trace) < 1e-12


class TestCProduct:
    def test_self_orthogonal_vector(self):
        assert c_product((1, 1j), (1, 1j)) == 0

    def test_basis_orthogonality(self):
        assert c_product((1, 0), (0, 1)) == 0

    def test_no_conjugation(self):
        assert c_product((1, 2), (3, 4)) == 11


class TestEigenframe:
    def test_hermitian_frame(self):
        h = HamiltonianMatrix.symmetric(1.0, 0.1, 1.0)
        frame = eigenframe(h)
        assert frame.e_plus == pytest.approx(1.1)
        assert frame.e_minus == pytest.approx(0.9)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(frame.v_plus, [inv_sqrt2, inv_sqrt2], atol=1e-14)
        np.testing.assert_allclose(frame.v_minus, [inv_sqrt2, -inv_sqrt2], atol=1e-14)

    def test_tie_keeps_first_component_leading(self):
        # at a = 0 (h11 == h22) with a real g each vector's components have
        # equal moduli; the first leads, whatever the rounding of cos th and sin th
        for h11, g in ((1.0, 0.1), (1.0 - 0.2j, 0.3), (-2.0, -0.7), (0.5 - 0.1j, -1e-3)):
            frame = eigenframe(HamiltonianMatrix.symmetric(h11, g, h11))
            for v in (frame.v_plus, frame.v_minus):
                assert abs(v[0]) == pytest.approx(abs(v[1]), rel=1e-15)
                assert v[0].real > 0.0

    def test_refuses_at_ep(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.2))
        with pytest.raises(EPProximityError):
            eigenframe(h)

    def test_biorthogonality(self):
        h = build_hamiltonian(REF, FieldPoint(1.0, 0.4))
        frame = eigenframe(h)
        assert abs(c_product(frame.v_plus, frame.v_minus)) < 1e-12

    def test_c_normalization_and_residual_random(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 60:
            p, f = random_params(rng), random_field(rng)
            h = build_hamiltonian(p, f)
            if abs(discriminant(h)) < 1e-3:
                continue
            count += 1
            frame = eigenframe(h)
            assert abs(c_product(frame.v_plus, frame.v_plus) - 1.0) < 1e-12
            assert abs(c_product(frame.v_minus, frame.v_minus) - 1.0) < 1e-12
            mat = h.as_array()
            norm_h = np.linalg.norm(mat)
            for e, v in ((frame.e_plus, frame.v_plus), (frame.e_minus, frame.v_minus)):
                assert np.linalg.norm(mat @ v - e * v) <= 1e-10 * norm_h

    def test_cnorm_collapse_near_ep(self):
        # |c-norm| of the unit eigenvector decreases monotonically on the
        # last decade of approach; self-orthogonality in the limit
        distances = np.geomspace(1e-2, 1e-7, 11)
        mags = []
        for d in distances:
            frame = eigenframe(build_hamiltonian(REF, FieldPoint(1.0, 0.2 + d)))
            mags.append(abs(frame.cnorm_plus))
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-3

    def test_gauge_leading_component_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            h = build_hamiltonian(random_params(rng), random_field(rng))
            if abs(discriminant(h)) < 1e-3:
                continue
            frame = eigenframe(h)
            for v in (frame.v_plus, frame.v_minus):
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


class TestVerifyEP:
    def test_zero_at_ep(self):
        ep = locate_ep(REF)
        assert verify_ep(REF, ep.field) < 1e-12

    def test_positive_off_ep(self):
        assert verify_ep(REF, FieldPoint(1.0, 0.4)) > 0.01

    def test_tracks_discriminant_root_on_grid(self):
        # the residual equals |sqrt(discriminant)| up to a factor bounded
        # on both sides
        for omega in np.linspace(0.8, 1.2, 10):
            for eps0 in np.linspace(0.05, 0.5, 10):
                f = FieldPoint(float(omega), float(eps0))
                res = verify_ep(REF, f)
                root = abs(cmath.sqrt(discriminant(build_hamiltonian(REF, f))))
                assert res <= root * (1.0 + 1e-12)
                assert res >= 0.05 * root

    def test_equivalence_with_discriminant_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p, f = random_params(rng), random_field(rng)
            h = build_hamiltonian(p, f)
            delta = abs(discriminant(h))
            res = verify_ep(p, f)
            # the two sign-branch residuals multiply to |Delta| and each is
            # bounded by the matrix scale, so the two EP indicators agree
            scale = abs(h.h11 - h.h22) + 2.0 * abs(cmath.sqrt(h.h12 * h.h21)) + 1e-30
            assert res <= math.sqrt(delta) * (1.0 + 1e-9)
            assert res >= delta / scale * (1.0 - 1e-9)


class TestHermitianNoDegeneracy:
    def test_gap_lower_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            gamma = rng.uniform(0, 0.5)
            d = rng.uniform(0.1, 2.0) * (1 if rng.random() < 0.5 else -1)
            p = SystemParams(e1=rng.uniform(-1, 1), e2=rng.uniform(-1, 1), gamma1=gamma, gamma2=gamma, d12=d)
            f = FieldPoint(rng.uniform(0, 2), rng.uniform(1e-3, 1.0))
            e_p, e_m = eigenvalues(build_hamiltonian(p, f))
            assert abs(e_p - e_m) >= f.eps0 * abs(d) * (1.0 - 1e-12)
