"""Laminate core tests: lamination parameters, CLT, feasibility, Tsai-Wu."""

import numpy as np
import pytest

from aerotail.laminate import (
    LaminationParameters,
    MaterialProperties,
    PanelDesign,
    abd_from_lp,
    feasibility_gradient,
    feasibility_residuals,
    lp_from_stack,
    membrane_stiffness,
    tsai_wu_coefficients,
    tsai_wu_factor,
)

CFRP = MaterialProperties(
    E1=117.9e9,
    E2=9.7e9,
    G12=4.8e9,
    nu12=0.35,
    rho=1550.0,
    Xt=1648e6,
    Xc=1034e6,
    Yt=64e6,
    Yc=228e6,
    S=71e6,
)
PLY_THICKNESS = 1.25e-4  # m, the CLT reference's ply


def qbar(material, theta):
    """Independent oracle: transformed reduced stiffness of one ply."""
    q = material.reduced_stiffness()
    q11, q12, q22, q66 = q[0, 0], q[0, 1], q[1, 1], q[2, 2]
    c, s = np.cos(theta), np.sin(theta)
    c2, s2 = c * c, s * s
    c4, s4 = c2 * c2, s2 * s2
    qb = np.empty((3, 3))
    qb[0, 0] = q11 * c4 + 2 * (q12 + 2 * q66) * s2 * c2 + q22 * s4
    qb[1, 1] = q11 * s4 + 2 * (q12 + 2 * q66) * s2 * c2 + q22 * c4
    qb[0, 1] = qb[1, 0] = (q11 + q22 - 4 * q66) * s2 * c2 + q12 * (s4 + c4)
    qb[2, 2] = (q11 + q22 - 2 * q12 - 2 * q66) * s2 * c2 + q66 * (s4 + c4)
    qb[0, 2] = qb[2, 0] = (q11 - q12 - 2 * q66) * s * c2 * c + (q12 - q22 + 2 * q66) * s * s2 * c
    qb[1, 2] = qb[2, 1] = (q11 - q12 - 2 * q66) * s * s2 * c + (q12 - q22 + 2 * q66) * s * c2 * c
    return qb


def clt_direct(material, half_stack, ply_t):
    """Independent oracle: ply-by-ply A and D of the mirrored full stack."""
    half = list(half_stack)
    full = half[::-1] + half  # mid-plane outward halves, mirrored
    n = len(full)
    h = n * ply_t
    z = np.linspace(-h / 2, h / 2, n + 1)
    a = np.zeros((3, 3))
    d = np.zeros((3, 3))
    # full stack listed root (bottom) to top: bottom half is the reversed
    # half-stack, so index i of `full` sits between z[i] and z[i+1]
    for i, ang in enumerate(full):
        qb = qbar(material, ang)
        a += qb * (z[i + 1] - z[i])
        d += qb * (z[i + 1] ** 3 - z[i] ** 3) / 3.0
    return a, d


class TestLaminationParameters:
    def test_all_zero_plies(self):
        lp = lp_from_stack(np.zeros(8))
        assert np.allclose(lp.xiA, [1, 1, 0, 0])
        assert np.allclose(lp.xiD, [1, 1, 0, 0])

    def test_quasi_isotropic_membrane(self):
        lp = lp_from_stack(np.deg2rad([0.0, 45.0, -45.0, 90.0]))
        assert np.allclose(lp.xiA, 0.0, atol=1e-14)

    def test_all_45(self):
        lp = lp_from_stack(np.full(6, np.pi / 4))
        assert np.allclose(lp.xiA, [0, -1, 1, 0], atol=1e-14)

    def test_empty_stack_raises(self):
        with pytest.raises(ValueError):
            lp_from_stack([])

    def test_in_unit_box(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 12)
            lp = lp_from_stack(rng.uniform(-np.pi / 2, np.pi / 2, n))
            assert np.all(np.abs(lp.as_vector()) <= 1.0 + 1e-12)


class TestABD:
    def test_matches_direct_clt(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            half = rng.uniform(-np.pi / 2, np.pi / 2, n)
            lp = lp_from_stack(half)
            t = 2 * n * PLY_THICKNESS
            abd = abd_from_lp(PanelDesign(lp, t), CFRP)
            a_ref, d_ref = clt_direct(CFRP, half, PLY_THICKNESS)
            assert np.allclose(abd.A, a_ref, rtol=1e-10, atol=1e-10 * abs(a_ref).max())
            assert np.array_equal(membrane_stiffness(PanelDesign(lp, t), CFRP), abd.A)
            assert np.allclose(abd.D, d_ref, rtol=1e-10, atol=1e-10 * abs(d_ref).max())

    def test_all_zero_a11_is_q11(self):
        lp = lp_from_stack(np.zeros(8))
        t = 2e-3
        abd = abd_from_lp(PanelDesign(lp, t), CFRP)
        q11 = CFRP.reduced_stiffness()[0, 0]
        assert abd.A[0, 0] == pytest.approx(t * q11, rel=1e-12)

    def test_quasi_isotropic_in_plane(self):
        lp = LaminationParameters(np.zeros(4), np.zeros(4))
        abd = abd_from_lp(PanelDesign(lp, 3e-3), CFRP)
        assert abd.A[0, 0] == pytest.approx(abd.A[1, 1], rel=1e-12)
        assert abd.A[0, 2] == pytest.approx(0.0, abs=1e-6)
        assert abd.A[1, 2] == pytest.approx(0.0, abs=1e-6)

    def test_thickness_scaling(self):
        lp = lp_from_stack(np.deg2rad([30.0, -60.0, 15.0]))
        one = abd_from_lp(PanelDesign(lp, 1e-3), CFRP)
        two = abd_from_lp(PanelDesign(lp, 2e-3), CFRP)
        assert np.allclose(two.A, 2.0 * one.A, rtol=1e-13)
        assert np.allclose(two.D, 8.0 * one.D, rtol=1e-13)

    def test_spd_for_feasible_lp(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            half = rng.uniform(-np.pi / 2, np.pi / 2, int(rng.integers(1, 9)))
            abd = abd_from_lp(PanelDesign(lp_from_stack(half), 2e-3), CFRP)
            assert np.all(np.linalg.eigvalsh(abd.A) > 0)
            assert np.all(np.linalg.eigvalsh(abd.D) > 0)

    def test_rejects_bad_inputs(self):
        lp = LaminationParameters(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            PanelDesign(lp, -1e-3)
        bad = LaminationParameters(np.array([1.5, 0, 0, 0]), np.zeros(4))
        with pytest.raises(ValueError):
            abd_from_lp(PanelDesign(bad, 1e-3), CFRP)

    def test_membrane_stiffness_checks_every_parameter(self):
        # xiD does not enter A, but an out-of-range xiD is still rejected
        bad = LaminationParameters(np.zeros(4), np.array([0.0, 0.0, -1.5, 0.0]))
        for fn in (membrane_stiffness, abd_from_lp):
            with pytest.raises(ValueError, match="outside"):
                fn(PanelDesign(bad, 1e-3), CFRP)
            design = PanelDesign(LaminationParameters(np.zeros(4), np.zeros(4)), 1e-3)
            object.__setattr__(design, "thickness", 0.0)  # past PanelDesign's own check
            with pytest.raises(ValueError, match="thickness"):
                fn(design, CFRP)


class TestFeasibility:
    def test_origin_strictly_interior(self):
        lp = LaminationParameters(np.zeros(4), np.zeros(4))
        assert np.all(feasibility_residuals(lp) < 0)

    def test_unidirectional_on_boundary(self):
        lp = lp_from_stack(np.zeros(4))
        res = feasibility_residuals(lp)
        assert np.any(np.abs(res) < 1e-14)
        assert np.all(res <= 1e-14)

    def test_monte_carlo_stacks(self):
        rng = np.random.default_rng(2024)
        worst = -np.inf
        for _ in range(10_000):
            n = int(rng.integers(1, 16))
            lp = lp_from_stack(rng.uniform(-np.pi / 2, np.pi / 2, n))
            worst = max(worst, feasibility_residuals(lp).max())
        assert worst <= 1e-9

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        x0 = rng.uniform(-0.4, 0.4, 8)
        jac = feasibility_gradient(LaminationParameters.from_vector(x0))
        h = 1e-7
        for j in range(8):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            fd = (
                feasibility_residuals(LaminationParameters.from_vector(xp))
                - feasibility_residuals(LaminationParameters.from_vector(xm))
            ) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=1e-6)


class TestTsaiWu:
    def test_zero_stress(self):
        assert tsai_wu_factor((0.0, 0.0, 0.0), CFRP) == 0.0

    def test_uniaxial_tension_unity(self):
        assert tsai_wu_factor((CFRP.Xt, 0.0, 0.0), CFRP) == pytest.approx(1.0, rel=1e-12)
        assert tsai_wu_factor((-CFRP.Xc, 0.0, 0.0), CFRP) == pytest.approx(1.0, rel=1e-12)
        assert tsai_wu_factor((0.0, CFRP.Yt, 0.0), CFRP) == pytest.approx(1.0, rel=1e-12)

    def test_biaxial_hand_value(self):
        s1, s2 = CFRP.Xt / 2, CFRP.Yt / 2
        f1, f2, f11, f22, f66, f12 = tsai_wu_coefficients(CFRP)
        expect = f1 * s1 + f2 * s2 + f11 * s1**2 + f22 * s2**2 + 2 * f12 * s1 * s2
        assert tsai_wu_factor((s1, s2, 0.0), CFRP) == pytest.approx(expect, rel=1e-14)

    def test_polynomial_gradient(self):
        f1, f2, f11, f22, f66, f12 = tsai_wu_coefficients(CFRP)
        s = np.array([3e8, -2e7, 4e7])
        grad = np.array(
            [
                f1 + 2 * f11 * s[0] + 2 * f12 * s[1],
                f2 + 2 * f22 * s[1] + 2 * f12 * s[0],
                2 * f66 * s[2],
            ]
        )
        h = 1.0  # Pa; polynomial in ~1e8, central differences are exact
        for j in range(3):
            sp, sm = s.copy(), s.copy()
            sp[j] += h
            sm[j] -= h
            fd = (tsai_wu_factor(sp, CFRP) - tsai_wu_factor(sm, CFRP)) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-6)
