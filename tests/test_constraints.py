"""Constraint stack: layout, evaluation semantics, derivatives, determinism."""

import os

import numpy as np
import pytest

import aerotail
from aerotail.aero import Planform
from aerotail.aeroelastic import N_STABILITY, AileronDef, dynamic_stability
from aerotail.config import load_config
from aerotail.constraints import (
    CRITICAL_PAD_SENTINEL,
    FD_REL_STEP,
    N_FEASIBILITY,
    PROBED_ENTRIES,
    T_BOUNDS,
    VARS_PER_PANEL,
    ConstraintLayout,
    LoadCase,
    WingAnalysis,
    pack_design,
    pad_critical,
    unpack_design,
)
from aerotail.fidelity import FidelityConfig, WingDefinition, build_wing_model
from aerotail.laminate import (
    PanelDesign,
    feasibility_gradient,
    feasibility_residuals,
    lp_from_stack,
)

from oracles import constraint_length, trim_load
from test_acceptance import four_panel_wing
from test_aeroelastic import seeded_design, shipped
from test_fidelity import CFRP, small_definition, small_panels

SHIPPED = ("toy_two_panel.json", "wing_default.json")

LC = LoadCase(V=50.0, rho=1.225, load_factor=2.5, alpha_min=-0.1, alpha_max=0.25, eta_min=0.3)
LF_CFG = FidelityConfig(mesh_factor=1, lattice_nx=2, lattice_ny=6)


def toy_analysis(level="LF", loadcases=(LC,), cfg=LF_CFG):
    return WingAnalysis(small_definition(), list(loadcases), cfg, level=level)


def toy_x():
    return pack_design(small_panels())


class TestLayout:
    def test_length_formula_three_configurations(self):
        for n_lc, n_p, n_s in [(1, 2, 2), (2, 16, 5), (3, 4, 3)]:
            expected = n_lc * (8 * n_p + 10 + 1 + 2 * n_s) + 6 * n_p
            assert constraint_length(n_lc, n_p, n_s) == expected

    def test_layout_matches_formula_and_partitions(self):
        defn = small_definition()
        lay = ConstraintLayout.build(defn, 2)
        assert lay.size == constraint_length(2, 2, 2)
        # blocks tile the vector exactly, in declaration order
        covered = np.zeros(lay.size, dtype=int)
        for sl in lay.blocks.values():
            covered[sl] += 1
        assert np.all(covered == 1)
        starts = [sl.start for sl in lay.blocks.values()]
        stops = [sl.stop for sl in lay.blocks.values()]
        assert starts == [0] + stops[:-1] and stops[-1] == lay.size

    def test_metadata_content(self):
        defn = small_definition()  # 2 panels, 2 stations
        lay = ConstraintLayout.build(defn, 1)
        expected = [
            ((0, "tw"), 8 * 2),
            ((0, "ds"), 10),
            ((0, "ae"), 1),
            ((0, "AoA"), 2 * 2),
            ((-1, "feas"), 6 * 2),
        ]
        assert [(key, sl.stop - sl.start) for key, sl in lay.blocks.items()] == expected
        for key, sl in lay.blocks.items():
            assert lay.rows(*key) == sl

    def test_masks_partition_by_level(self):
        cfg = load_config(os.path.join(os.path.dirname(aerotail.__file__), "data",
                                       "wing_default.json"))
        assert len(cfg.loadcases) == 2
        for defn, n_lc in ((small_definition(), 1), (cfg.definition, len(cfg.loadcases))):
            lay = ConstraintLayout.build(defn, n_lc)
            m_lf = lay.mask_for("LF")
            m_hf = lay.mask_for("HF")
            assert np.all(m_lf)
            assert np.sum(~m_hf) == n_lc  # the single ae entry per load case
            for lc in range(n_lc):
                assert not m_hf[lay.rows(lc, "ae")][0]


class TestPacking:
    def test_roundtrip(self):
        panels = small_panels()
        x = pack_design(panels)
        assert x.shape == (18,)
        back = unpack_design(x, 2)
        for a, b in zip(panels, back):
            assert np.array_equal(a.lp.as_vector(), b.lp.as_vector())
            assert a.thickness == b.thickness

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="design vector"):
            unpack_design(np.zeros(17), 2)


class TestEvaluate:
    def test_all_lf_entries_available(self):
        ana = toy_analysis("LF")
        out = ana.evaluate(toy_x())
        assert np.all(np.isfinite(out.c[out.mask]))
        assert np.all(out.mask)
        assert out.f > 0

    def test_mask_built_once_and_read_only(self):
        ana = toy_analysis("LF")
        a = ana.evaluate(toy_x())
        b = ana.evaluate(toy_x() * np.tile(np.r_[np.ones(8), 1.1], 2))
        assert a.mask is b.mask
        assert not a.mask.flags.writeable
        assert np.array_equal(a.mask, ana.layout.mask_for("LF"))

    def test_hf_reports_nan_on_lf_only_rows(self):
        ana = toy_analysis("HF", cfg=FidelityConfig(mesh_factor=2, lattice_ny=8))
        out = ana.evaluate(toy_x())
        sl = ana.layout.rows(0, "ae")
        assert np.all(np.isnan(out.c[sl]))
        assert np.all(np.isfinite(out.c[out.mask]))

    def test_bit_determinism(self):
        ana = toy_analysis("LF")
        a = ana.evaluate(toy_x())
        # a second design evaluated between the repeats, and an analysis that
        # sees it first: what an analysis keeps must not depend on the design
        second = toy_x() * np.tile(np.r_[np.ones(8), 1.2], 2)
        ana.evaluate(second)
        b = ana.evaluate(toy_x())
        other = toy_analysis("LF")
        other.evaluate(second)
        for out in (b, other.evaluate(toy_x())):
            assert a.f == out.f
            assert np.array_equal(a.c, out.c, equal_nan=True)
        ga = ana.gradients(toy_x())
        gb = ana.gradients(toy_x())
        assert np.array_equal(ga.grad_c, gb.grad_c, equal_nan=True)
        assert np.array_equal(ga.grad_f, gb.grad_f)

    def test_trim_hits_lift_target(self):
        ana = toy_analysis("LF")
        model = ana.build_model(toy_x())
        target = 2.5 * 9.80665 * (150.0 + model.beam.total_mass())
        res = ana.trim(model, 0)
        assert np.isclose(res.total_lift, target, rtol=1e-8)

    def test_feasibility_rows_match_direct_evaluation(self):
        ana = toy_analysis("LF")
        out = ana.evaluate(toy_x())
        sl = ana.layout.rows(-1, "feas")
        direct = np.concatenate([feasibility_residuals(p.lp) for p in small_panels()])
        assert np.array_equal(out.c[sl], direct)

    def test_fixed_length_padding_with_sentinels(self):
        # 3 bays x 2 stations per panel = 6 live Tsai-Wu values, padded to 8
        ana = toy_analysis("LF")
        out = ana.evaluate(toy_x())
        tw = out.c[ana.layout.rows(0, "tw")]
        assert np.sum(tw == CRITICAL_PAD_SENTINEL) == 4
        live = tw[tw != CRITICAL_PAD_SENTINEL]
        assert live.size == 12 and np.all(live > CRITICAL_PAD_SENTINEL)

    def test_stability_rows_sorted_most_critical_first(self):
        ana = toy_analysis("LF")
        out = ana.evaluate(toy_x())
        ds = out.c[ana.layout.rows(0, "ds")]
        assert np.all(np.diff(ds) <= 0)
        assert np.all(ds < 0)  # stable at this speed

    def test_aoa_rows_with_fixed_incidence(self):
        lc = LoadCase(V=40.0, rho=1.225, load_factor=None, alpha=0.02,
                      alpha_min=-0.05, alpha_max=0.15)
        ana = toy_analysis("LF", loadcases=(lc,))
        out = ana.evaluate(toy_x())
        model = ana.build_model(toy_x())
        assert ana.trim(model, 0).alpha == 0.02
        sl = ana.layout.rows(0, "AoA")
        pairs = out.c[sl].reshape(-1, 2)
        # lower + upper residuals sum to -(alpha_max - alpha_min) per station
        assert np.allclose(pairs.sum(axis=1), -(0.15 - (-0.05)), atol=1e-14)
        assert np.all(pairs < 0)

    def test_higher_load_factor_is_more_critical(self):
        soft = LoadCase(V=50.0, rho=1.225, load_factor=1.0, alpha_min=-0.3, alpha_max=0.3)
        hard = LoadCase(V=50.0, rho=1.225, load_factor=3.0, alpha_min=-0.3, alpha_max=0.3)
        ana = toy_analysis("LF", loadcases=(soft, hard))
        out = ana.evaluate(toy_x())
        lay = ana.layout
        tw0 = out.c[lay.rows(0, "tw")]
        tw1 = out.c[lay.rows(1, "tw")]
        assert tw1.max() > tw0.max()
        model = ana.build_model(toy_x())
        assert ana.trim(model, 1).alpha > ana.trim(model, 0).alpha

    def test_two_load_cases_double_per_case_blocks(self):
        ana1 = toy_analysis("LF", loadcases=(LC,))
        ana2 = toy_analysis("LF", loadcases=(LC, LC))
        per_lc = 8 * 2 + 10 + 1 + 2 * 2
        assert ana2.n_constraints - ana1.n_constraints == per_lc
        # identical load cases produce identical blocks
        out = ana2.evaluate(toy_x())
        lay = ana2.layout
        for cat in ("tw", "ds", "ae", "AoA"):
            assert np.array_equal(out.c[lay.rows(0, cat)], out.c[lay.rows(1, cat)])

    def test_ae_requires_aileron_on_lf_only(self):
        defn = small_definition()
        no_ail = WingDefinition(
            planform=defn.planform,
            n_bays=defn.n_bays,
            box_chord_frac=defn.box_chord_frac,
            box_height_frac=defn.box_height_frac,
            material=defn.material,
            zone_bounds=defn.zone_bounds,
            wall_panels=defn.wall_panels,
            aoa_stations=defn.aoa_stations,
            aileron=None,
        )
        with pytest.raises(ValueError, match="aileron"):
            WingAnalysis(no_ail, [LC], LF_CFG, level="LF")
        # ae not evaluated at HF
        WingAnalysis(no_ail, [LC], FidelityConfig(mesh_factor=2), level="HF")

    def test_loadcase_validation(self):
        with pytest.raises(ValueError, match="positive V"):
            LoadCase(V=0.0, rho=1.225)
        with pytest.raises(ValueError, match="alpha bounds"):
            LoadCase(V=50.0, rho=1.225, alpha_min=0.2, alpha_max=0.1)


class TestGradients:
    def test_mass_gradient_closed_form(self):
        ana = toy_analysis("LF")
        x = toy_x()
        g = ana.mass_gradient(x)
        assert np.all(g[np.arange(18) % 9 != 8] == 0.0)
        h = 1e-7
        for j in (8, 17):
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd = (ana.evaluate(xp).f - ana.evaluate(xm).f) / (2 * h)
            assert np.isclose(g[j], fd, rtol=1e-6)

    def test_feasibility_block_matches_fd(self):
        ana = toy_analysis("LF")
        x = toy_x()
        grad = ana.gradients(x)
        sl = ana.layout.rows(-1, "feas")
        h = 3e-7
        rng = np.random.default_rng(7)
        for j in rng.choice(18, size=6, replace=False):
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd = (ana.evaluate(xp).c[sl] - ana.evaluate(xm).c[sl]) / (2 * h)
            assert np.allclose(grad.grad_c[sl, j], fd, atol=5e-7)

    def test_constraint_gradient_consistency_across_steps(self):
        # production rows are central differences; an oracle with a different
        # step must agree wherever the response is smooth
        ana = toy_analysis("LF")
        x = toy_x()
        grad = ana.gradients(x)
        lay = ana.layout
        rows = np.r_[lay.rows(0, "ae"), lay.rows(0, "AoA")]
        h = 4e-7
        for j in (8, 17, 0):
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            fd = (ana.evaluate(xp).c[rows] - ana.evaluate(xm).c[rows]) / (2 * h)
            assert np.allclose(grad.grad_c[rows, j], fd, rtol=2e-4, atol=1e-7)

    def test_sentinel_rows_have_zero_gradient(self):
        # 6 live Tsai-Wu values per panel: the last 2 of each panel's 8 are padding
        ana = toy_analysis("LF")
        grad = ana.gradients(toy_x())
        tw = ana.evaluate(toy_x()).c[ana.layout.rows(0, "tw")]
        padded = np.flatnonzero(tw == CRITICAL_PAD_SENTINEL) + ana.layout.rows(0, "tw").start
        assert padded.size == 4
        assert np.all(grad.grad_c[padded] == 0.0)

    def test_hf_gradient_nan_on_unavailable_rows(self):
        ana = toy_analysis("HF", cfg=FidelityConfig(mesh_factor=2, lattice_ny=8))
        grad = ana.gradients(toy_x())
        sl = ana.layout.rows(0, "ae")
        assert np.all(np.isnan(grad.grad_c[sl]))
        avail = ana.layout.mask_for("HF")
        assert np.all(np.isfinite(grad.grad_c[avail]))


def full_probe_gradients(ana, x):
    """grad_c from central differences of evaluates in every entry of x, xiD
    included; the feasibility block closed form."""
    lb, ub = ana.bounds()
    grad_c = np.empty((ana.n_constraints, x.size))
    for i in range(x.size):
        h = FD_REL_STEP * (1.0 + abs(x[i]))
        hp = max(0.0, min(h, ub[i] - x[i]))
        hm = max(0.0, min(h, x[i] - lb[i]))
        xp = x.copy(); xp[i] += hp
        xm = x.copy(); xm[i] -= hm
        grad_c[:, i] = (ana.evaluate(xp).c - ana.evaluate(xm).c) / (hp + hm)
    sl = ana.layout.rows(-1, "feas")
    grad_c[sl, :] = 0.0
    for p, pd in enumerate(unpack_design(x, ana.definition.n_panels)):
        r0, c0 = sl.start + N_FEASIBILITY * p, VARS_PER_PANEL * p
        grad_c[r0 : r0 + N_FEASIBILITY, c0 : c0 + 8] = feasibility_gradient(pd.lp)
    return grad_c


class TestStructuralZeros:
    """xiD reaches no physics row, so gradients does not probe it.

    These fail once a physics row reads xiD; PROBED_ENTRIES must then grow.
    """

    @pytest.mark.parametrize("level", ["LF", "HF"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_moving_xid_leaves_physics_rows_bit_identical(self, name, level):
        cfg, analyses = shipped(name)
        ana = analyses[level]
        x = cfg.initial_design()
        xid = np.zeros(x.size, dtype=bool)
        for p in range(cfg.definition.n_panels):
            xid[VARS_PER_PANEL * p + 4 : VARS_PER_PANEL * p + 8] = True
        moved = np.where(xid, seeded_design(cfg, 5), x)  # another realizable xiD
        step = np.abs(moved - x)[xid].reshape(-1, 4)
        assert np.all(step.max(axis=1) > 1e-2)

        feas = np.zeros(ana.n_constraints, dtype=bool)
        feas[ana.layout.rows(-1, "feas")] = True
        base, out = ana.evaluate(x), ana.evaluate(moved)
        assert np.max(out.c[feas]) <= 1e-9
        assert out.f == base.f
        assert np.array_equal(out.c[~feas], base.c[~feas], equal_nan=True)
        assert np.array_equal(out.nonsmooth, base.nonsmooth)

    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_gradients_equal_full_probe_reference(self, level):
        # the toy's probes run as one stack, wing_default's one design at a
        # time; the reference evaluates each probe
        cfg, analyses = shipped("toy_two_panel.json")
        ana = analyses[level]
        pinned = cfg.initial_design()
        pinned[VARS_PER_PANEL - 1] = T_BOUNDS[1]  # one-sided thickness probe
        defn_b, lcs_b, x_b = four_panel_wing()
        ana_b = WingAnalysis(defn_b, lcs_b, LF_CFG, level=level)
        cases = [(ana, x) for x in (cfg.initial_design(), seeded_design(cfg, 1), pinned)]
        cases.append((ana_b, x_b))
        if level == "LF":
            cfg_w, analyses_w = shipped("wing_default.json")
            cases.append((analyses_w["LF"], cfg_w.initial_design()))
        for a, x in cases:
            grad = a.gradients(x)
            assert np.array_equal(grad.grad_c, full_probe_gradients(a, x), equal_nan=True)
            assert np.array_equal(grad.grad_f, a.mass_gradient(x))
            assert grad.n_evaluates == 2 * len(PROBED_ENTRIES) * a.definition.n_panels


class TestProbeStack:
    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_dense_gradient_builds_one_model(self, level, monkeypatch):
        cfg, analyses = shipped("toy_two_panel.json")
        ana = analyses[level]
        x = cfg.initial_design()
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_wing_model(*args, **kwargs)

        # every module of the package that binds the name
        for module in vars(aerotail).values():
            if getattr(module, "build_wing_model", None) is build_wing_model:
                monkeypatch.setattr(module, "build_wing_model", counted)
        grad = ana.gradients(x)
        assert len(calls) == 1  # the 20 probe designs build as one stack
        assert grad.n_evaluates == 20
        ana.evaluate(x)  # an evaluate is counted
        assert len(calls) == 2


class TestNoBeamBuckling:
    """Why the stack has no beam-buckling rows: nodes in z = 0 and trimmed
    loads that are only Fz, Mx and My leave the cantilever without axial
    force.  A dihedral or a drag load breaks this, and then the rows are real.
    """

    @pytest.mark.parametrize("level", ["LF", "HF"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_trimmed_loads_give_no_buckling_factor(self, name, level):
        cfg, analyses = shipped(name)
        ana = analyses[level]
        for x in (cfg.initial_design(), seeded_design(cfg, 1)):
            model = ana.build_model(x)
            beam = model.beam
            assert np.all(beam.nodes[:, 2] == 0.0)
            for i_lc in range(len(ana.loadcases)):
                loads = trim_load(ana, model, i_lc)
                assert np.all(loads[0::6] == 0.0)  # Fx
                assert np.all(loads[1::6] == 0.0)  # Fy
                assert np.all(loads[5::6] == 0.0)  # Mz
                assert beam.buckling(loads).factors.size == 0


class TestStabilityRows:
    @pytest.mark.parametrize("level", ["LF", "HF"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_ds_rows_match_solve_with_shapes(self, name, level):
        cfg, analyses = shipped(name)
        ana = analyses[level]
        for x in (cfg.initial_design(), seeded_design(cfg, 1), seeded_design(cfg, 2)):
            out = ana.evaluate(x)
            model = ana.build_model(x)
            for i_lc, lc in enumerate(ana.loadcases):
                stab = dynamic_stability(model.beam, model.structure.aero(lc.flow), shapes=True)
                sl = ana.layout.rows(i_lc, "ds")
                expect = pad_critical(np.real(stab.eigenvalues), N_STABILITY)
                assert np.array_equal(out.c[sl], expect)
                assert np.all(out.nonsmooth[sl] == stab.degenerate)


class TestPadCritical:
    def test_basic(self):
        assert list(pad_critical([0.1, 0.9, 0.5], 2)) == [0.9, 0.5]

    def test_identity_when_k_equals_n(self):
        vals = [0.3, -1.0, 2.0, 0.0]
        assert list(pad_critical(vals, 4)) == sorted(vals, reverse=True)

    def test_matches_full_sort(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=100)
        assert np.array_equal(pad_critical(vals, 8), np.sort(vals)[::-1][:8])

    def test_padding(self):
        out = pad_critical([0.5, 0.2], 4)
        assert out[0] == 0.5 and out[1] == 0.2
        assert np.all(out[2:] == CRITICAL_PAD_SENTINEL)

    def test_empty_is_all_padding(self):
        out = pad_critical([], 3)
        assert out.shape == (3,) and np.all(out == CRITICAL_PAD_SENTINEL)

    @staticmethod
    def stable_reference(values, k):
        values = np.asarray(values, dtype=float)
        order = np.argsort(-values, kind="stable")[:k]
        return values[order]

    def test_signed_zero_ties_keep_input_order(self):
        vals = [-0.5, 0.0, -0.0] * 10
        assert pad_critical(vals, 8).tobytes() == self.stable_reference(vals, 8).tobytes()

    def test_stack_row_by_row(self):
        rng = np.random.default_rng(2)
        stack = rng.choice([-0.5, 0.0, -0.0, 0.25], size=(6, 30))
        out = pad_critical(stack, 8)
        assert out.shape == (6, 8)
        for row, got in zip(stack, out):
            assert got.tobytes() == self.stable_reference(row, 8).tobytes()
