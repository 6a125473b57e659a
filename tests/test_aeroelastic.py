"""Coupled aeroelastic solution tests."""

import os

import numpy as np
import pytest
import scipy.linalg

import aerotail
from aerotail import aeroelastic
from aerotail.aero import FlowConditions, Planform, aero_operators, build_lattice
from aerotail.aeroelastic import (
    FLUTTER_TOL,
    N_MODES,
    N_STABILITY,
    AileronDef,
    _stability_margin,
    aileron_effectiveness,
    critical_speed,
    divergence_factor,
    dynamic_stability,
    rayleigh_damping,
    static_aeroelastic,
)
from aerotail.beam import BeamModel, ElementGeometry, ElementSet
from aerotail.compare import mac
from aerotail.config import load_config
from aerotail.constraints import pack_design
from aerotail.laminate import PanelDesign, lp_from_stack
from aerotail.section import SectionProperties, _inertia_map, prescribed_section

SPAN = 8.0
CHORD = 1.0
X_EA = 0.4


def wing_beam(n_elem=8, gj=4.0e4, ei2=2.0e5, mu=18.0, ip=0.8, cg_aft=0.0):
    """Straight spanwise cantilever at the elastic axis x = X_EA."""
    if cg_aft == 0.0:
        sec = prescribed_section(1e9, 1e8, 1e8, gj, ei2, 4e6, mu=mu, i_polar=ip)
    else:
        # local y points forward (upstream), so an aft cg sits at negative y
        m = mu * _inertia_map(-cg_aft, 0.0)
        m[3, 3] += ip
        m[4, 4] += 0.5 * ip
        m[5, 5] += 0.5 * ip
        sec = SectionProperties(C=np.diag([1e9, 1e8, 1e8, gj, ei2, 4e6]).astype(float), M=m)
    y = np.linspace(0.0, SPAN, n_elem + 1)
    nodes = np.column_stack([np.full(y.size, X_EA), y, np.zeros(y.size)])
    elems = ElementSet(
        ElementGeometry.build(nodes, [(i, i + 1) for i in range(n_elem)]),
        sec.C[None], sec.M[None], np.zeros(n_elem, dtype=int),
    )
    return BeamModel(nodes, elems)


def wing_lattice(nx=2, ny=12):
    return build_lattice(Planform(SPAN, CHORD, CHORD), nx=nx, ny=ny)


class TestStatic:
    def setup_method(self):
        self.model = wing_beam()
        self.lat = wing_lattice()
        self.flow = FlowConditions(V=40.0, rho=1.2, alpha=0.04)
        self.ops = aero_operators(self.lat, self.flow, self.model.nodes)

    def test_equilibrium_residual(self):
        res = static_aeroelastic(self.model, self.ops, self.flow)
        r = (self.model.stiffness() - self.ops.K_a) @ res.u - self.ops.f_alpha * self.flow.alpha
        assert np.linalg.norm(r[self.model.free]) < 1e-8 * np.abs(self.ops.f_alpha).sum()

    def test_flexible_wing_lifts_more(self):
        # quarter-chord load ahead of the elastic axis washes the wing in
        res = static_aeroelastic(self.model, self.ops, self.flow)
        rigid = self.ops.f_alpha[2::6].sum() * self.flow.alpha
        assert res.total_lift > rigid

    def test_trim_hits_target(self):
        target = 5.0e3
        res = static_aeroelastic(self.model, self.ops, self.flow, trim_lift=target)
        assert res.total_lift == pytest.approx(target, rel=1e-9)

    def test_trim_round_trip(self):
        fixed = static_aeroelastic(self.model, self.ops, self.flow)
        trimmed = static_aeroelastic(
            self.model, self.ops, self.flow, trim_lift=fixed.total_lift
        )
        assert trimmed.alpha == pytest.approx(self.flow.alpha, rel=1e-9)

    def test_extra_loads_superpose(self):
        f_pt = np.zeros(self.model.n_dof)
        f_pt[-4] = 800.0
        a = static_aeroelastic(self.model, self.ops, self.flow)
        b = static_aeroelastic(self.model, self.ops, self.flow, extra_loads=f_pt)
        flow0 = FlowConditions(V=self.flow.V, rho=self.flow.rho, alpha=0.0)
        c = static_aeroelastic(self.model, self.ops, flow0, extra_loads=f_pt)
        assert np.allclose(b.u, a.u + c.u, atol=1e-12 + 1e-9 * np.abs(a.u).max())

    def test_fixed_and_trimmed_solves_take_one_step(self):
        fixed = static_aeroelastic(self.model, self.ops, self.flow)
        trimmed = static_aeroelastic(self.model, self.ops, self.flow, trim_lift=5.0e3)
        assert fixed.iterations == 1 and trimmed.iterations == 1

    @pytest.mark.parametrize("trim_lift", [None, 5.0e3])
    def test_missed_equilibrium_raises(self, monkeypatch, trim_lift):
        monkeypatch.setattr(aeroelastic, "_TRIM_TOL", 0.0)
        with pytest.raises(RuntimeError, match="equilibrium"):
            static_aeroelastic(self.model, self.ops, self.flow, trim_lift=trim_lift)


class TestDivergence:
    def test_det_sign_flips_at_factor(self):
        model = wing_beam()
        flow = FlowConditions(V=30.0, rho=1.2)
        ops = aero_operators(wing_lattice(), flow, model.nodes)
        lam = divergence_factor(model, ops)
        assert np.isfinite(lam) and lam > 0
        ix = np.ix_(model.free, model.free)
        k, ka = model.stiffness()[ix], ops.K_a[ix]
        below = np.linalg.slogdet(k - 0.999 * lam * ka)[0]
        above = np.linalg.slogdet(k - 1.001 * lam * ka)[0]
        assert below > 0 > above

    def test_scaling_with_dynamic_pressure(self):
        model = wing_beam()
        lat = wing_lattice()
        f1 = FlowConditions(V=30.0, rho=1.2)
        f2 = FlowConditions(V=60.0, rho=1.2)
        l1 = divergence_factor(model, aero_operators(lat, f1, model.nodes))
        l2 = divergence_factor(model, aero_operators(lat, f2, model.nodes))
        assert l1 == pytest.approx(4.0 * l2, rel=1e-8)

    def test_stiffer_wing_diverges_later(self):
        lat = wing_lattice()
        flow = FlowConditions(V=30.0, rho=1.2)
        soft = wing_beam(gj=3e4)
        hard = wing_beam(gj=6e4)
        l_soft = divergence_factor(soft, aero_operators(lat, flow, soft.nodes))
        l_hard = divergence_factor(hard, aero_operators(lat, flow, hard.nodes))
        assert l_hard > l_soft


class TestDynamic:
    def test_stable_at_low_speed(self):
        model = wing_beam()
        flow = FlowConditions(V=2.0, rho=1.2)
        ops = aero_operators(wing_lattice(), flow, model.nodes)
        res = dynamic_stability(model, ops)
        assert res.max_real < 0.0
        assert res.eigenvalues.size == 10
        assert np.all(np.diff(res.eigenvalues.real) <= 1e-12)

    def test_rayleigh_targets_modal_damping(self):
        model = wing_beam()
        c_s = rayleigh_damping(model)
        modes = model.modal(2)
        for k in range(2):
            phi = modes.shapes[:, k]
            zeta_k = (phi @ c_s @ phi) / (2 * modes.omega[k])
            assert zeta_k == pytest.approx(0.005, rel=1e-9)

    def test_flutter_bracketed_and_found(self):
        model = wing_beam(cg_aft=0.12, gj=1.2e4, ei2=1.7e5, ip=0.35)
        lat = wing_lattice()

        def flow_of_v(v):
            return FlowConditions(V=v, rho=1.2)

        vc = critical_speed(model, lat, flow_of_v, 5.0, 120.0)
        below = dynamic_stability(
            model, aero_operators(lat, flow_of_v(0.99 * vc), model.nodes)
        ).max_real
        above = dynamic_stability(
            model, aero_operators(lat, flow_of_v(1.01 * vc), model.nodes)
        ).max_real
        assert below < 0.0 < above

    def test_bad_bracket_raises(self):
        model = wing_beam()
        lat = wing_lattice()

        def flow_of_v(v):
            return FlowConditions(V=v, rho=1.2)

        with pytest.raises(ValueError, match="no instability"):
            critical_speed(model, lat, flow_of_v, 1.0, 2.0)


def flutter_wing():
    return wing_beam(cg_aft=0.12, gj=1.2e4, ei2=1.7e5, ip=0.35)


def reference_critical_speed(model, lat, flow_of_v, v_low, v_high, tol):
    """Bisection driven by full dynamic_stability solves at every speed."""

    def margin(v):
        ops = aero_operators(lat, flow_of_v(v), model.nodes)
        return dynamic_stability(model, ops).max_real

    lo, hi = float(v_low), float(v_high)
    assert margin(lo) < 0.0 <= margin(hi)
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if margin(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStabilityMargin:
    FLOWS = {
        "mach0": lambda v: FlowConditions(V=v, rho=1.2),
        "mach05": lambda v: FlowConditions(V=v, rho=1.2, mach=0.5),
        "rho_of_v": lambda v: FlowConditions(V=v, rho=1.225 * np.exp(-v / 150.0), mach=0.3),
    }

    @pytest.mark.parametrize("flow", sorted(FLOWS))
    def test_margin_matches_dynamic_stability(self, flow):
        model = flutter_wing()
        lat = wing_lattice()
        flow_of_v = self.FLOWS[flow]
        margin = _stability_margin(model, lat, flow_of_v)
        for v in (5.0, 30.0, 60.0, 90.0, 120.0):
            ops = aero_operators(lat, flow_of_v(v), model.nodes)
            ref = dynamic_stability(model, ops).max_real
            assert margin(v) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("flow", ["mach0", "mach05"])
    def test_critical_speed_matches_reference_bisection(self, flow):
        model = flutter_wing()
        lat = wing_lattice()
        flow_of_v = self.FLOWS[flow]
        vc = critical_speed(model, lat, flow_of_v, 5.0, 120.0)
        assert vc == reference_critical_speed(model, lat, flow_of_v, 5.0, 120.0, FLUTTER_TOL)

    def test_critical_speed_raises_when_iterations_run_out(self, monkeypatch):
        flow_of_v = self.FLOWS["mach0"]
        monkeypatch.setattr(aeroelastic, "FLUTTER_MAX_ITER", 3)
        with pytest.raises(RuntimeError, match="max_iter=3"):
            critical_speed(flutter_wing(), wing_lattice(), flow_of_v, 5.0, 120.0)


DATA = os.path.join(os.path.dirname(aerotail.__file__), "data")


def shipped(name):
    """A shipped config and its analyses keyed by level."""
    cfg = load_config(os.path.join(DATA, name))
    return cfg, dict(zip(("LF", "HF"), cfg.analyses()))


def seeded_design(cfg, seed):
    """Random 8-ply half stacks, shipped thicknesses scaled by 1 +- 15%."""
    rng = np.random.default_rng(seed)
    return pack_design([
        PanelDesign(
            lp_from_stack(np.deg2rad(rng.choice((0.0, 45.0, -45.0, 90.0), size=8))),
            p.thickness * (1.0 + rng.uniform(-0.15, 0.15)),
        )
        for p in cfg.panels
    ])


def full_order_state_matrix(model, k_a, d_a):
    """The unreduced state matrix on every free dof, with M^-1 by Cholesky."""
    free = model.free
    ix = np.ix_(free, free)
    n = free.size
    cho = scipy.linalg.cho_factor(model.mass()[ix])
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -scipy.linalg.cho_solve(cho, (model.stiffness() - k_a)[ix])
    a[n:, n:] = -scipy.linalg.cho_solve(cho, (rayleigh_damping(model) - d_a)[ix])
    return a


def leading(lam):
    """Indices of the N_STABILITY eigenvalues dynamic_stability keeps, in its order."""
    return np.lexsort((-lam.imag, -lam.real))[:N_STABILITY]


class TestModalReduction:
    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_kept_eigenvalues_match_full_order(self, level):
        cfg, analyses = shipped("wing_default.json")
        analysis = analyses[level]
        for x in (cfg.initial_design(), seeded_design(cfg, 1), seeded_design(cfg, 2)):
            beam = analysis.build_model(x).beam
            n = beam.free.size
            assert n > N_MODES
            for i_lc in range(len(analysis.loadcases)):
                _, ops, _ = analysis.operators(i_lc)
                res = dynamic_stability(beam, ops)
                lam, vec = scipy.linalg.eig(full_order_state_matrix(beam, ops.K_a, ops.D_a))
                keep = leading(lam)
                ref = lam[keep]
                assert abs(res.max_real - ref[0].real) <= 1e-4 * abs(ref[0].real)
                assert np.abs(np.sort(res.eigenvalues.real) - np.sort(ref.real)).max() <= 5e-2
                for j in range(N_STABILITY):
                    assert mac(res.shapes[beam.free, j], vec[:n, keep[j]]) > 0.999
                assert res.basis.size == N_MODES
                assert res.basis.omega_max == beam.modal(N_MODES).omega[-1]

    @pytest.mark.parametrize("level", ["LF", "HF"])
    @pytest.mark.parametrize("name", ["toy_two_panel.json", "wing_default.json"])
    def test_eigenvalues_only_solve_matches_solve_with_shapes(self, name, level):
        cfg, analyses = shipped(name)
        analysis = analyses[level]
        beam = analysis.build_model(seeded_design(cfg, 3)).beam
        for i_lc in range(len(analysis.loadcases)):
            _, ops, _ = analysis.operators(i_lc)
            fast = dynamic_stability(beam, ops, shapes=False)
            ref = dynamic_stability(beam, ops)
            assert fast.shapes is None
            assert np.array_equal(fast.eigenvalues, ref.eigenvalues)
            assert fast.degenerate == ref.degenerate
            assert fast.basis.size == ref.basis.size

    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_small_models_are_solved_at_full_order(self, level):
        cfg, analyses = shipped("toy_two_panel.json")
        analysis = analyses[level]
        beam = analysis.build_model(cfg.initial_design()).beam
        n = beam.free.size
        assert n <= N_MODES
        for i_lc in range(len(analysis.loadcases)):
            _, ops, _ = analysis.operators(i_lc)
            res = dynamic_stability(beam, ops)
            lam, vec = scipy.linalg.eig(full_order_state_matrix(beam, ops.K_a, ops.D_a))
            keep = leading(lam)
            assert np.array_equal(res.eigenvalues, lam[keep])
            assert np.array_equal(res.shapes[beam.free], vec[:n, keep])
            assert res.basis.size == n
            assert res.basis.omega_max == beam.modal(n).omega[-1]

    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_critical_speed_matches_full_order_bisection(self, level):
        cfg, analyses = shipped("wing_default.json")
        model = analyses[level].build_model(seeded_design(cfg, 1))
        beam, lattice = model.beam, model.lattice
        cruise = cfg.loadcases[0]

        def flow_of_v(v):
            return FlowConditions(V=v, rho=cruise.rho, mach=cruise.mach)

        def full_margin(v):
            ops = aero_operators(lattice, flow_of_v(v), beam.nodes)
            return scipy.linalg.eigvals(full_order_state_matrix(beam, ops.K_a, ops.D_a)).real.max()

        vc = critical_speed(beam, lattice, flow_of_v, 150.0, 600.0)
        lo, hi = 150.0, 600.0
        assert full_margin(lo) < 0.0 <= full_margin(hi)
        while hi - lo > 1e-3 * hi:
            mid = 0.5 * (lo + hi)
            if full_margin(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert vc == pytest.approx(0.5 * (lo + hi), rel=5e-3)


class TestAileron:
    AIL = AileronDef(y_start=0.6 * SPAN, y_end=0.95 * SPAN, rows=1)

    def test_effectiveness_below_unity(self):
        model = wing_beam()
        flow = FlowConditions(V=45.0, rho=1.2)
        res = aileron_effectiveness(model, wing_lattice(), flow, self.AIL)
        assert 0.0 < res.eta < 1.0

    def test_stiffer_wing_more_effective(self):
        # both speeds stay below the antisymmetric divergence point
        flow = FlowConditions(V=45.0, rho=1.2)
        lat = wing_lattice()
        soft = aileron_effectiveness(wing_beam(gj=4e4), lat, flow, self.AIL)
        hard = aileron_effectiveness(wing_beam(gj=8e4), lat, flow, self.AIL)
        assert soft.eta < hard.eta < 1.0

    def test_effectiveness_drops_with_speed(self):
        model = wing_beam(gj=8e4)
        lat = wing_lattice()
        etas = [
            aileron_effectiveness(model, lat, FlowConditions(V=v, rho=1.2), self.AIL).eta
            for v in (20.0, 45.0, 60.0)
        ]
        assert etas[0] > etas[1] > etas[2]

    def test_empty_aileron_rejected(self):
        model = wing_beam()
        with pytest.raises(ValueError, match="aileron"):
            aileron_effectiveness(
                model,
                wing_lattice(),
                FlowConditions(V=45.0, rho=1.2),
                AileronDef(y_start=2 * SPAN, y_end=3 * SPAN),
            )
