"""Two-fidelity wing construction: meshing, knockdown, masses, invariants."""

import os

import numpy as np
import pytest

import aerotail
from aerotail.aero import Planform, aero_operators
from aerotail.aeroelastic import AileronDef
from aerotail.beam import PointMass, element_frame
from aerotail.compare import compare_aeroelastic
from aerotail.config import load_config
from aerotail.constraints import (
    N_TSAI_WU,
    LoadCase,
    WingAnalysis,
    pack_design,
    pad_critical,
    unpack_design,
)
from aerotail.fidelity import (
    FidelityConfig,
    WingDefinition,
    beam_nodes,
    build_wing_model,
)
from aerotail.laminate import (
    MaterialProperties,
    PanelDesign,
    lp_from_stack,
    tsai_wu_factor,
)
from aerotail.section import (
    _GAUSS_W,
    _GAUSS_XI,
    BOX_WALLS,
    _inertia_map,
    condensed_membrane,
    wall_stresses,
)

from oracles import SectionProperties, cantilever_model

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


def small_definition(n_bays=3):
    return WingDefinition(
        planform=Planform(semi_span=4.0, root_chord=1.0, tip_chord=0.6),
        n_bays=n_bays,
        box_chord_frac=(0.15, 0.6),
        box_height_frac=0.10,
        material=CFRP,
        zone_bounds=(0.0, 1.0),
        wall_panels=({"upper": 0, "lower": 0, "front": 1, "rear": 1},),
        aoa_stations=(0.4, 0.9),
        aileron=AileronDef(y_start=2.4, y_end=3.8),
        supported_mass=150.0,
        fixed_mass=5.0,
    )


def small_panels():
    return [
        PanelDesign(lp_from_stack([45, -45, 0, 90, 0, -45, 45]), 2.5e-3),
        PanelDesign(lp_from_stack([45, -45, 45, -45]), 2.0e-3),
    ]


def torsion_fraction(model, shape):
    """Torsional share of a mode's kinetic energy (beam axis is y)."""
    m = model.beam.mass()
    t = np.arange(4, model.beam.n_dof, 6)
    return (shape[t] @ m[np.ix_(t, t)] @ shape[t]) / (shape @ m @ shape)


class TestGeometry:
    def test_element_and_node_count(self):
        defn = small_definition()
        m1 = build_wing_model(defn, small_panels(), FidelityConfig(mesh_factor=1))
        m3 = build_wing_model(defn, small_panels(), FidelityConfig(mesh_factor=3))
        assert m1.beam.elements.section.size == 3 and m1.beam.n_nodes == 4
        assert m3.beam.elements.section.size == 9 and m3.beam.n_nodes == 10

    def test_default_span_discretization(self):
        defn = small_definition(n_bays=29)
        model = build_wing_model(defn, small_panels(), FidelityConfig())
        assert model.beam.elements.section.size == 29
        assert model.beam.n_nodes == 30

    def test_nodes_on_elastic_axis(self):
        defn = small_definition()
        model = build_wing_model(defn, small_panels(), FidelityConfig(mesh_factor=2))
        y = model.beam.nodes[:, 1]
        x_expected = 0.5 * (0.15 + 0.6) * defn.planform.chord(y)
        assert np.allclose(model.beam.nodes[:, 0], x_expected, atol=1e-14)
        assert np.allclose(model.beam.nodes[:, 2], 0.0)

    def test_element_bay_map(self):
        defn = WingDefinition(
            planform=Planform(semi_span=4.0, root_chord=1.0, tip_chord=0.6),
            n_bays=4,
            box_chord_frac=(0.15, 0.6),
            box_height_frac=0.10,
            material=CFRP,
            zone_bounds=(0.0, 0.5, 1.0),
            wall_panels=(
                {"upper": 0, "lower": 0, "front": 1, "rear": 1},
                {"upper": 2, "lower": 2, "front": 3, "rear": 3},
            ),
            aoa_stations=(0.5,),
        )
        panels = small_panels() + small_panels()
        model = build_wing_model(defn, panels, FidelityConfig(mesh_factor=2))
        assert np.array_equal(model.structure.element_bay, [0, 0, 1, 1, 2, 2, 3, 3])
        assert defn.n_panels == 4

    def test_sections_taper_with_chord(self):
        defn = small_definition()
        model = build_wing_model(defn, small_panels(), FidelityConfig())
        ea = model.sections.C[:, 0, 0]
        assert ea[0] > ea[1] > ea[2]


class TestKnockdown:
    def test_congruence_preserves_bending_rows_bitwise(self):
        defn = small_definition()
        base = build_wing_model(defn, small_panels(), FidelityConfig()).sections.C[0]
        knocked = build_wing_model(
            defn, small_panels(), FidelityConfig(torsion_knockdown=0.76)
        ).sections.C[0]
        keep = [0, 1, 2, 4, 5]
        assert np.array_equal(base[np.ix_(keep, keep)], knocked[np.ix_(keep, keep)])
        assert np.isclose(knocked[3, 3], 0.76 * base[3, 3], rtol=1e-15)
        # symmetry and positive definiteness survive the congruence
        assert np.array_equal(knocked, knocked.T)
        assert np.all(np.linalg.eigvalsh(knocked) > 0)

    def test_tip_twist_error_equals_knockdown_deficit(self):
        # untapered wing: elastic axis along y, so global ry torque is pure torsion
        defn = WingDefinition(
            planform=Planform(semi_span=4.0, root_chord=1.0, tip_chord=1.0),
            n_bays=3,
            box_chord_frac=(0.15, 0.6),
            box_height_frac=0.10,
            material=CFRP,
            zone_bounds=(0.0, 1.0),
            wall_panels=({"upper": 0, "lower": 0, "front": 1, "rear": 1},),
            aoa_stations=(0.5,),
        )
        lf = build_wing_model(defn, small_panels(), FidelityConfig())
        hf = build_wing_model(
            defn, small_panels(), FidelityConfig(torsion_knockdown=0.76)
        )
        torque = np.zeros(lf.beam.n_dof)
        torque[6 * 3 + 4] = 1.0e3
        tw_lf = lf.beam.static_solve(torque)[6 * 3 + 4]
        tw_hf = hf.beam.static_solve(torque)[6 * 3 + 4]
        # twist scales as 1/kappa, so the relative LF deficit is 1 - kappa
        assert abs((tw_hf - tw_lf) / tw_hf - (1.0 - 0.76)) < 1e-9

    def test_bending_deflection_unchanged(self):
        # straight axis: transverse tip force excites no torsion, so the
        # knockdown cannot move the bending response
        defn = WingDefinition(
            planform=Planform(semi_span=4.0, root_chord=1.0, tip_chord=1.0),
            n_bays=3,
            box_chord_frac=(0.15, 0.6),
            box_height_frac=0.10,
            material=CFRP,
            zone_bounds=(0.0, 1.0),
            wall_panels=({"upper": 0, "lower": 0, "front": 1, "rear": 1},),
            aoa_stations=(0.5,),
        )
        lf = build_wing_model(defn, small_panels(), FidelityConfig())
        hf = build_wing_model(
            defn, small_panels(), FidelityConfig(torsion_knockdown=0.5)
        )
        load = np.zeros(lf.beam.n_dof)
        load[6 * 3 + 2] = 1.0e3
        u_lf = lf.beam.static_solve(load)
        u_hf = hf.beam.static_solve(load)
        z = np.arange(2, lf.beam.n_dof, 6)
        assert np.allclose(u_hf[z], u_lf[z], rtol=1e-12, atol=1e-16)
        assert abs(u_lf[6 * 3 + 4]) < 1e-12 and abs(u_hf[6 * 3 + 4]) < 1e-12

    def test_torsion_frequency_drops_bending_stays(self):
        defn = small_definition(n_bays=8)
        base = build_wing_model(defn, small_panels(), FidelityConfig())
        soft = build_wing_model(
            defn, small_panels(), FidelityConfig(torsion_knockdown=0.7)
        )
        mb = base.beam.modal(8)
        ms = soft.beam.modal(8)
        frac_b = [torsion_fraction(base, mb.shapes[:, i]) for i in range(8)]
        frac_s = [torsion_fraction(soft, ms.shapes[:, i]) for i in range(8)]
        it_b = next(i for i, f in enumerate(frac_b) if f > 0.5)
        it_s = next(i for i, f in enumerate(frac_s) if f > 0.5)
        assert ms.omega[it_s] < mb.omega[it_b]
        bend_b = [mb.omega[i] for i in range(8) if frac_b[i] < 0.5][:3]
        bend_s = [ms.omega[i] for i in range(8) if frac_s[i] < 0.5][:3]
        assert np.allclose(bend_s, bend_b, rtol=5e-3)

    def test_knockdown_limited_to_flagged_bays(self):
        defn = small_definition()
        part = build_wing_model(
            defn,
            small_panels(),
            FidelityConfig(torsion_knockdown=0.7, knockdown_bays=(0,)),
        )
        full = build_wing_model(defn, small_panels(), FidelityConfig())
        assert part.sections.C[0, 3, 3] < full.sections.C[0, 3, 3]
        assert np.array_equal(part.sections.C[1], full.sections.C[1])
        assert np.array_equal(part.sections.C[2], full.sections.C[2])


class TestRefinement:
    def test_mesh_refinement_shrinks_gravity_tip_deflection_change(self):
        defn = small_definition()
        tips = {}
        for mf in (1, 2, 4):
            model = build_wing_model(defn, small_panels(), FidelityConfig(mesh_factor=mf))
            u = model.beam.static_solve(model.beam.gravity_load())
            tips[mf] = u[6 * (model.beam.n_nodes - 1) + 2]
        assert abs(tips[4] - tips[2]) < abs(tips[2] - tips[1])

    def test_extra_masses_lower_frequencies(self):
        defn = small_definition()
        bare = build_wing_model(defn, small_panels(), FidelityConfig(mesh_factor=2))
        heavy = build_wing_model(
            defn,
            small_panels(),
            FidelityConfig(mesh_factor=2, extra_masses=((0.5, 2.0), (1.0, 1.0))),
        )
        wb = bare.beam.modal(3).omega
        wh = heavy.beam.modal(3).omega
        assert np.all(wh <= wb + 1e-12)
        assert wh[0] < wb[0]

    def test_extra_masses_attach_to_nearest_node(self):
        defn = small_definition()
        model = build_wing_model(
            defn, small_panels(), FidelityConfig(mesh_factor=2, extra_masses=((0.52, 2.0),))
        )
        (pm,) = model.beam.point_masses
        assert pm.node == 3  # 0.52 of 6 elements rounds to node 3
        assert pm.mass == 2.0


class TestMass:
    def test_structural_mass_matches_beam(self):
        defn = small_definition()
        model = build_wing_model(defn, small_panels(), FidelityConfig())
        assert np.isclose(model.structural_mass(), model.beam.total_mass(), rtol=1e-12)
        assert np.isclose(
            model.mass_with_fixed(), model.structural_mass() + 5.0, rtol=1e-15
        )

    def test_structural_mass_is_fidelity_independent(self):
        defn = small_definition()
        lf = build_wing_model(defn, small_panels(), FidelityConfig())
        hf = build_wing_model(
            defn,
            small_panels(),
            FidelityConfig(
                mesh_factor=3, torsion_knockdown=0.76, extra_masses=((0.5, 2.0),)
            ),
        )
        assert np.isclose(lf.structural_mass(), hf.structural_mass(), rtol=1e-14)

    def test_thickness_gradient_matches_fd(self):
        defn = small_definition()
        grad = build_wing_model(
            defn, small_panels(), FidelityConfig()
        ).structure.thickness_gradient
        h = 1e-6
        for p in range(2):
            panels_p = small_panels()
            panels_m = small_panels()
            tp = panels_p[p].thickness
            panels_p[p] = PanelDesign(panels_p[p].lp, tp + h)
            panels_m[p] = PanelDesign(panels_m[p].lp, tp - h)
            mp = build_wing_model(defn, panels_p, FidelityConfig()).structural_mass()
            mm = build_wing_model(defn, panels_m, FidelityConfig()).structural_mass()
            assert np.isclose(grad[p], (mp - mm) / (2 * h), rtol=1e-9)


class TestMatchedPhysics:
    def test_hf_with_refinements_off_equals_lf(self):
        defn = small_definition()
        cfg = FidelityConfig(mesh_factor=1, lattice_nx=2, lattice_ny=6)
        lf = build_wing_model(defn, small_panels(), cfg)
        hf = build_wing_model(defn, small_panels(), cfg)
        assert np.array_equal(lf.beam.stiffness(), hf.beam.stiffness())
        assert np.array_equal(lf.beam.mass(), hf.beam.mass())
        assert np.array_equal(lf.lattice.cpts, hf.lattice.cpts)
        w_lf = lf.beam.modal(5).omega
        w_hf = hf.beam.modal(5).omega
        assert np.max(np.abs(w_lf - w_hf) / w_lf) < 1e-10

    def test_designs_at_one_level_share_the_lattice(self):
        cfg = FidelityConfig(mesh_factor=2, lattice_ny=8)
        lc = LoadCase(V=40.0, rho=1.225)
        analysis = WingAnalysis(small_definition(), [lc], cfg, level="LF")
        thicker = [PanelDesign(p.lp, 1.2 * p.thickness) for p in small_panels()]
        a = analysis.build_model(pack_design(small_panels()))
        b = analysis.build_model(pack_design(thicker))
        assert a.lattice is b.lattice
        assert a.structure.aileron(lc.flow).lattice is a.structure.lattice
        # lc.flow is a new FlowConditions on every read: the operators are kept by value
        assert a.structure.aero(lc.flow) is b.structure.aero(lc.flow)
        assert a.structure.aero(LoadCase(V=41.0, rho=1.225).flow) is not a.structure.aero(lc.flow)

    def test_compare_aeroelastic_after_evaluate_builds_no_aero_operators(self, monkeypatch):
        cfg = load_config(os.path.join(DATA, "toy_two_panel.json"))
        x = cfg.initial_design()
        lf, hf = cfg.analyses()
        lf.evaluate(x)
        hf.evaluate(x)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return aero_operators(*args, **kwargs)

        # every module of the package that binds the name
        for module in vars(aerotail).values():
            if getattr(module, "aero_operators", None) is aero_operators:
                monkeypatch.setattr(module, "aero_operators", counted)
        m_lf = lf.build_model(x)
        compare_aeroelastic(m_lf, hf.build_model(x), cfg.loadcases[0].flow)
        assert calls == []
        m_lf.structure.aero(LoadCase(V=1.0, rho=1.0).flow)  # a new flow is counted
        assert len(calls) == 1


class TestValidation:
    def test_bad_zone_bounds(self):
        with pytest.raises(ValueError, match="zone bounds"):
            WingDefinition(
                planform=Planform(4.0, 1.0, 0.6),
                n_bays=3,
                box_chord_frac=(0.15, 0.6),
                box_height_frac=0.1,
                material=CFRP,
                zone_bounds=(0.1, 1.0),
                wall_panels=({"upper": 0, "lower": 0, "front": 1, "rear": 1},),
                aoa_stations=(0.5,),
            )

    def test_incomplete_wall_map(self):
        with pytest.raises(ValueError, match="wall map"):
            WingDefinition(
                planform=Planform(4.0, 1.0, 0.6),
                n_bays=3,
                box_chord_frac=(0.15, 0.6),
                box_height_frac=0.1,
                material=CFRP,
                zone_bounds=(0.0, 1.0),
                wall_panels=({"upper": 0, "lower": 0, "front": 1},),
                aoa_stations=(0.5,),
            )

    def test_panel_index_gap(self):
        with pytest.raises(ValueError, match="without gaps"):
            WingDefinition(
                planform=Planform(4.0, 1.0, 0.6),
                n_bays=3,
                box_chord_frac=(0.15, 0.6),
                box_height_frac=0.1,
                material=CFRP,
                zone_bounds=(0.0, 1.0),
                wall_panels=({"upper": 0, "lower": 0, "front": 2, "rear": 2},),
                aoa_stations=(0.5,),
            )

    def test_fidelity_knob_ranges(self):
        with pytest.raises(ValueError, match="mesh factor"):
            FidelityConfig(mesh_factor=0)
        with pytest.raises(ValueError, match="knockdown"):
            FidelityConfig(torsion_knockdown=0.0)
        with pytest.raises(ValueError, match="knockdown"):
            FidelityConfig(torsion_knockdown=1.2)

    def test_wrong_panel_count(self):
        defn = small_definition()
        with pytest.raises(ValueError, match="panel designs"):
            build_wing_model(defn, small_panels()[:1], FidelityConfig())


J_LEVER = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
DATA = os.path.join(os.path.dirname(aerotail.__file__), "data")


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


def bay_walls(defn, b):
    """Wall endpoints and design panels of bay b's box, counter-clockwise from the lower skin."""
    edges = np.linspace(0.0, defn.planform.semi_span, defn.n_bays + 1)
    f0, f1 = defn.box_chord_frac
    chord = float(defn.planform.chord(0.5 * (edges[b] + edges[b + 1])))
    w2 = 0.5 * ((f1 - f0) * chord)
    h2 = 0.5 * (defn.box_height_frac * chord)
    corners = [np.array(c) for c in ((-w2, -h2), (w2, -h2), (w2, h2), (-w2, h2))]
    wall_map = defn.wall_panels[defn.bay_zone(b)]
    return corners, corners[1:] + corners[:1], [wall_map[w] for w in BOX_WALLS]


def per_bay_sections(analysis, panels):
    """Every bay's section one box at a time, wall by wall, with its knockdown."""
    defn, fid = analysis.definition, analysis.fidelity
    flagged = range(defn.n_bays) if fid.knockdown_bays is None else fid.knockdown_bays
    d = np.ones(6)
    d[3] = np.sqrt(fid.torsion_knockdown)
    sections = []
    for b in range(defn.n_bays):
        p1, p2, wall_panel = bay_walls(defn, b)
        c, m = per_segment_section(p1, p2, [panels[p] for p in wall_panel], defn.material)
        if fid.torsion_knockdown < 1.0 and b in flagged:
            c = c * np.outer(d, d)  # congruence D C D, D = diag(1, 1, 1, sqrt(kappa), 1, 1)
        sections.append(SectionProperties(C=c, M=m))
    return sections


def per_segment_section(p1, p2, designs, material):
    """C and M of one box, wall by wall and Gauss point by Gauss point."""
    lengths = [float(np.hypot(b[0] - a[0], b[1] - a[1])) for a, b in zip(p1, p2)]
    total = sum(lengths)
    ref = np.array([
        sum(0.5 * (a[k] + b[k]) * length for a, b, length in zip(p1, p2, lengths)) / total
        for k in (0, 1)
    ])
    area = 0.5 * sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(p1, p2))
    ah = [condensed_membrane(design, material) for design in designs]
    q1 = 2.0 * area / sum(length / a[1, 1] for length, a in zip(lengths, ah))
    c = np.zeros((6, 6))
    m = np.zeros((6, 6))
    for design, a, b, length, mem in zip(designs, p1, p2, lengths, ah):
        tangent = (b - a) / np.linalg.norm(b - a)
        gt = q1 / mem[1, 1]
        rho_t = material.rho * design.thickness
        for xi, w in zip(_GAUSS_XI, _GAUSS_W):
            y, z = (1.0 - xi) * (a - ref) + xi * (b - ref)
            bmap = np.array([[1.0, 0.0, 0.0, 0.0, z, -y], [0.0, *tangent, gt, 0.0, 0.0]])
            c += w * length * (bmap.T @ mem @ bmap)
            m += w * length * rho_t * _inertia_map(y, z)
    return 0.5 * (c + c.T), 0.5 * (m + m.T)


def per_bay_thickness_gradient(defn, bay_axis_length):
    """rho times every panel's wall area, walls summed in contour order, bays in span order."""
    grad = np.zeros(defn.n_panels)
    for b in range(defn.n_bays):
        p1, p2, wall_panel = bay_walls(defn, b)
        arc = {}
        for a, c, p in zip(p1, p2, wall_panel):
            arc[p] = arc.get(p, 0.0) + float(np.hypot(c[0] - a[0], c[1] - a[1]))
        for p, length in arc.items():
            grad[p] += defn.material.rho * length * bay_axis_length[b]
    return grad


def element_transform(n1, n2):
    q = np.zeros((12, 12))
    for blk in range(4):
        q[3 * blk : 3 * blk + 3, 3 * blk : 3 * blk + 3] = element_frame(n1, n2).T
    return q


def per_element_assembly(nodes, sections, bay, point_masses):
    """Global K and M summed element by element in element order.

    An element along x has the identity frame, so a one-element cantilever
    along x carries the element's local stiffness as its assembled K.
    """
    n_dof = 6 * nodes.shape[0]
    k = np.zeros((n_dof, n_dof))
    m = np.zeros((n_dof, n_dof))
    for e, b in enumerate(bay):
        n1, n2 = nodes[e], nodes[e + 1]
        length = float(np.linalg.norm(n2 - n1))
        k_loc = cantilever_model(sections[b], length, 1).stiffness()
        m_loc = np.empty((12, 12))
        m_loc[:6, :6] = m_loc[6:, 6:] = (length / 3.0) * sections[b].M
        m_loc[:6, 6:] = m_loc[6:, :6] = (length / 6.0) * sections[b].M
        q = element_transform(n1, n2)
        ix = np.ix_(np.arange(6 * e, 6 * e + 12), np.arange(6 * e, 6 * e + 12))
        k[ix] += q.T @ k_loc @ q
        m[ix] += q.T @ m_loc @ q
    for pm in point_masses:
        base = 6 * pm.node
        m[base : base + 3, base : base + 3] += pm.mass * np.eye(3)
    return 0.5 * (k + k.T), 0.5 * (m + m.T)


def per_element_mid_strains(nodes, sections, bay, u):
    """Midpoint section strains element by element, one 12-dof state at a time."""
    out = []
    for k, b in enumerate(bay):
        c = sections[b].C
        length = float(np.linalg.norm(nodes[k + 1] - nodes[k]))
        k22 = cantilever_model(sections[b], length, 1).stiffness()[6:, 6:]
        u_loc = element_transform(nodes[k], nodes[k + 1]) @ u[6 * k : 6 * k + 12]
        r = np.eye(6)
        r[:3, 3:] = -length * J_LEVER
        p2 = k22 @ (u_loc[6:] - r @ u_loc[:6])
        a_mid = np.eye(6)
        a_mid[3:, :3] = 0.5 * length * J_LEVER
        out.append(np.linalg.solve(c, a_mid @ p2))
    return np.array(out)


class TestBatchedAssembly:
    """The batched design-to-matrices pass equals loops over bays, walls and elements bit for bit."""

    @pytest.mark.parametrize("level", ["LF", "HF"])
    @pytest.mark.parametrize("name", ["toy_two_panel.json", "wing_default.json"])
    def test_matches_per_bay_reference(self, name, level):
        cfg = load_config(os.path.join(DATA, name))
        analysis = cfg.analyses()[level == "HF"]
        defn, fid = analysis.definition, analysis.fidelity
        nodes = beam_nodes(defn, fid)
        n_elem = nodes.shape[0] - 1
        bay = np.repeat(np.arange(defn.n_bays), fid.mesh_factor)
        masses = [PointMass(int(round(f * n_elem)), m) for f, m in fid.extra_masses]
        for x in (cfg.initial_design(), seeded_design(cfg, 1), seeded_design(cfg, 2)):
            model = analysis.build_model(x)
            sections = per_bay_sections(analysis, unpack_design(x, defn.n_panels))
            for b, want in enumerate(sections):
                assert np.array_equal(model.sections.C[b], want.C)
                assert np.array_equal(model.sections.M[b], want.M)
            k, m = per_element_assembly(nodes, sections, bay, masses)
            assert np.array_equal(model.beam.stiffness(), k)
            assert np.array_equal(model.beam.mass(), m)
            assert model.structural_mass() == sum(
                length * s.M[0, 0]
                for length, s in zip(model.structure.bay_axis_length, sections)
            )
            grad = per_bay_thickness_gradient(defn, model.structure.bay_axis_length)
            assert np.array_equal(analysis.mass_gradient(x)[8::9], grad)

            res = analysis.trim(model, 0)
            strains = model.beam.element_mid_strains(res.u)
            assert np.array_equal(strains, per_element_mid_strains(nodes, sections, bay, res.u))

            sec = model.sections
            per_panel = [[] for _ in range(defn.n_panels)]
            for k, b in enumerate(bay):
                _, _, wall_panel = bay_walls(defn, b)
                for j, p in enumerate(wall_panel):
                    s = wall_stresses(
                        sec.strain_map[b, j], sec.membrane[b, j], sec.thickness[b, j], strains[k]
                    )
                    per_panel[p].append(tsai_wu_factor((s[0], s[1], s[2]), defn.material) - 1.0)
            tw = np.concatenate([pad_critical(v, N_TSAI_WU) for v in per_panel])
            out = analysis.evaluate(x)
            assert np.array_equal(out.c[analysis.layout.rows(0, "tw")], tw)
