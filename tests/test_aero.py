"""Vortex lattice tests: influence kernels, lift slope, coupling maps."""

import os

import numpy as np
import pytest

import aerotail
from aerotail.aero import (
    FlowConditions,
    Planform,
    _segment_velocity,
    _semi_infinite_velocity,
    aero_operators,
    aic_matrix,
    build_lattice,
    coupling_maps,
)

from aerotail.config import load_config

from oracles import aic_matrix_per_panel, coupling_maps_per_panel, panel_areas, steady_solve


class TestKernels:
    def test_long_segment_matches_infinite_line(self):
        ra = np.array([0.0, -1e7, 0.0])
        rb = np.array([0.0, 1e7, 0.0])
        v = _segment_velocity(np.array([1.0, 0.0, 0.0]), ra, rb)
        # right-handed circulation about +y gives downwash downstream
        assert v[2] == pytest.approx(-1.0 / (2 * np.pi), rel=1e-10)
        assert abs(v[0]) < 1e-12 and abs(v[1]) < 1e-12

    def test_semi_infinite_perpendicular_foot(self):
        v = _semi_infinite_velocity(
            np.array([0.0, 1.0, 0.0]), np.zeros(3), np.array([1.0, 0.0, 0.0])
        )
        assert v[2] == pytest.approx(1.0 / (4 * np.pi), rel=1e-12)

    def test_on_axis_regularized(self):
        v = _semi_infinite_velocity(
            np.array([2.0, 0.0, 0.0]), np.zeros(3), np.array([1.0, 0.0, 0.0])
        )
        assert np.allclose(v, 0.0)


class TestSteady:
    def test_zero_alpha_zero_lift(self):
        lat = build_lattice(Planform(10.0, 1.2, 0.8), nx=2, ny=8)
        res = steady_solve(lat, FlowConditions(V=50.0, rho=1.2, alpha=0.0))
        assert np.abs(res.gamma).max() < 1e-12
        assert abs(res.cl) < 1e-12

    def test_high_aspect_ratio_slope(self):
        lat = build_lattice(Planform(50.0, 1.0, 1.0), nx=1, ny=40)
        alpha = 1e-3
        res = steady_solve(lat, FlowConditions(V=40.0, rho=1.0, alpha=alpha))
        slope = res.cl / alpha
        assert slope == pytest.approx(2 * np.pi, rel=0.05)

    def test_moderate_aspect_ratio_slope(self):
        lat = build_lattice(Planform(3.0, 1.0, 1.0), nx=1, ny=30)
        alpha = 1e-3
        res = steady_solve(lat, FlowConditions(V=40.0, rho=1.0, alpha=alpha))
        # Helmbold estimate for AR = 6; the single-row lattice sits slightly low
        ar = 6.0
        helmbold = 2 * np.pi * ar / (2 + np.sqrt(ar**2 + 4))
        assert res.cl / alpha == pytest.approx(helmbold, rel=0.08)

    def test_prandtl_glauert_scaling(self):
        lat = build_lattice(Planform(7.0, 1.5, 0.9), nx=2, ny=12)
        a0 = steady_solve(lat, FlowConditions(V=50, rho=1.2, alpha=2e-3, mach=0.0)).cl
        a6 = steady_solve(lat, FlowConditions(V=50, rho=1.2, alpha=2e-3, mach=0.6)).cl
        assert a6 / a0 == pytest.approx(1.0 / np.sqrt(1 - 0.36), rel=1e-12)

    def test_circulation_drops_toward_tip(self):
        lat = build_lattice(Planform(8.0, 1.0, 1.0), nx=1, ny=24)
        res = steady_solve(lat, FlowConditions(V=30, rho=1.2, alpha=0.05))
        assert res.gamma[0] > res.gamma[-1] > 0
        assert np.all(np.diff(res.gamma) < 1e-12)


def beam_nodes(semi_span, n_nodes, x_ea=0.35):
    y = np.linspace(0.0, semi_span, n_nodes)
    return np.column_stack([np.full(n_nodes, x_ea), y, np.zeros(n_nodes)])


class TestCoupling:
    SPAN = 9.0

    def setup_method(self):
        self.lat = build_lattice(Planform(self.SPAN, 1.4, 0.7), nx=2, ny=10)
        self.nodes = beam_nodes(self.SPAN, 7)
        self.flow = FlowConditions(V=60.0, rho=1.1, alpha=0.03)

    def test_load_transfer_conserves_force_and_moment(self):
        t_load, _, _ = coupling_maps(self.lat, self.nodes)
        res = steady_solve(self.lat, self.flow)
        f = t_load @ res.panel_lift
        assert f[2::6].sum() == pytest.approx(res.total_lift, rel=1e-13)
        # moment about the origin, x and y components
        mx = f[3::6].sum() + np.sum(self.nodes[:, 1] * f[2::6])
        my = f[4::6].sum() - np.sum(self.nodes[:, 0] * f[2::6])
        mx_ref = np.sum(self.lat.load_pts[:, 1] * res.panel_lift)
        my_ref = -np.sum(self.lat.load_pts[:, 0] * res.panel_lift)
        assert mx == pytest.approx(mx_ref, rel=1e-13)
        assert my == pytest.approx(my_ref, rel=1e-13)

    def test_stiffness_matches_direct_evaluation(self):
        ops = aero_operators(self.lat, self.flow, self.nodes)
        t_load, t_wash, _ = coupling_maps(self.lat, self.nodes)
        rng = np.random.default_rng(8)
        u = rng.normal(scale=1e-3, size=6 * self.nodes.shape[0])
        alpha_eff = self.flow.alpha + t_wash @ u
        f_u = t_load @ steady_solve(self.lat, self.flow, alpha_eff).panel_lift
        f_0 = t_load @ steady_solve(self.lat, self.flow).panel_lift
        assert np.allclose(f_u - f_0, ops.K_a @ u, atol=1e-9 * np.abs(f_0).max())

    def test_plunge_has_no_steady_effect(self):
        ops = aero_operators(self.lat, self.flow, self.nodes)
        assert np.abs(ops.K_a[:, 2::6]).max() == 0.0

    def test_alpha_load_vector(self):
        ops = aero_operators(self.lat, self.flow, self.nodes)
        t_load, _, _ = coupling_maps(self.lat, self.nodes)
        f_rigid = t_load @ steady_solve(self.lat, self.flow).panel_lift
        assert np.allclose(ops.f_alpha * self.flow.alpha, f_rigid, rtol=1e-12)

    def test_heave_velocity_cancels_incidence(self):
        ops = aero_operators(self.lat, self.flow, self.nodes)
        alpha0 = 0.01
        udot = np.zeros(6 * self.nodes.shape[0])
        udot[2::6] = self.flow.V * alpha0
        assert np.allclose(ops.D_a @ udot, -alpha0 * ops.f_alpha, rtol=1e-12)

    def test_heave_damping_is_negative(self):
        ops = aero_operators(self.lat, self.flow, self.nodes)
        udot = np.zeros(6 * self.nodes.shape[0])
        udot[2::6] = 1.0
        assert udot @ (ops.D_a @ udot) < 0.0

    def test_twist_raises_tip_lift(self):
        ops = aero_operators(self.lat, self.flow, self.nodes)
        u = np.zeros(6 * self.nodes.shape[0])
        u[4::6] = np.linspace(0, 0.02, self.nodes.shape[0])  # washout-free twist up
        f = ops.K_a @ u
        assert f[2::6].sum() > 0.0

    def test_nonmonotonic_nodes_rejected(self):
        nodes = self.nodes.copy()
        nodes[3, 1] = nodes[2, 1]
        with pytest.raises(ValueError, match="monotonically"):
            coupling_maps(self.lat, nodes)


def shipped_lattices():
    """(label, lattice, beam nodes) of both levels of both shipped configs."""
    out = []
    for name in ("toy_two_panel.json", "wing_default.json"):
        cfg = load_config(os.path.join(os.path.dirname(aerotail.__file__), "data", name))
        for level, analysis in zip(("LF", "HF"), cfg.analyses()):
            model = analysis.build_model(cfg.initial_design())
            out.append((f"{name}-{level}", model.lattice, model.beam.nodes))
    return out


class TestBroadcastKernels:
    """The broadcast kernels reproduce the per-panel loops bit for bit."""

    # tapered, three chordwise rows, beam nodes off the strip edges
    CASES = [
        *shipped_lattices(),
        (
            "tapered-nx3",
            build_lattice(Planform(6.0, 1.8, 0.5), nx=3, ny=7),
            beam_nodes(6.0, 5, x_ea=0.4) + np.array([0.0, 0.0, 0.02]),
        ),
    ]

    @pytest.mark.parametrize("mach", [0.0, 0.5])
    @pytest.mark.parametrize("image_sign", [1.0, -1.0])
    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_aic_matrix(self, case, mach, image_sign):
        _, lat, _ = case
        w = aic_matrix(lat, mach, image_sign)
        assert np.array_equal(w, aic_matrix_per_panel(lat, mach, image_sign))

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_coupling_maps(self, case):
        _, lat, nodes = case
        for new, ref in zip(coupling_maps(lat, nodes), coupling_maps_per_panel(lat, nodes)):
            assert np.array_equal(new, ref)


class TestValidation:
    def test_planform_area(self):
        p = Planform(10.0, 2.0, 1.0)  # trapezoid of area 0.5 (2 + 1) 10 = 15
        assert p.chord(5.0) == pytest.approx(1.5)
        lat = build_lattice(p, nx=2, ny=3)
        assert (lat.nx, np.unique(lat.cpts[:, 1]).size, lat.n_panels) == (2, 3, 6)
        assert panel_areas(lat).sum() == pytest.approx(15.0)
        assert aic_matrix(lat).shape == (6, 6)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            Planform(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FlowConditions(V=0.0, rho=1.2)
        with pytest.raises(ValueError):
            FlowConditions(V=10.0, rho=1.2, mach=1.0)
        with pytest.raises(ValueError):
            build_lattice(Planform(5, 1, 1), nx=0, ny=4)
