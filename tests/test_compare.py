"""Model cross-checks: MAC, shared node sets, and the three comparison cases."""

import os

import numpy as np
import pytest
import scipy.linalg

import aerotail
from aerotail import beam as beam_module
from aerotail.aero import FlowConditions, Planform
from aerotail.aeroelastic import AileronDef, critical_speed
from aerotail.compare import (
    N_MODAL,
    compare_aeroelastic,
    compare_modal,
    compare_static,
    mac,
    mac_matrix,
    relative_error,
    shared_node_dofs,
)
from aerotail.config import load_config
from aerotail.fidelity import FidelityConfig, WingDefinition, build_wing_model
from aerotail.laminate import MaterialProperties, PanelDesign, lp_from_stack

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


def small_definition():
    return WingDefinition(
        planform=Planform(semi_span=4.0, root_chord=1.0, tip_chord=0.6),
        n_bays=3,
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
        PanelDesign(lp_from_stack(np.deg2rad([45, -45, 0, 90, 0, -45, 45])), 2.5e-3),
        PanelDesign(lp_from_stack(np.deg2rad([45, -45, 45, -45])), 2.0e-3),
    ]


def build(mesh=1, knockdown=1.0, ny=6):
    fid = FidelityConfig(
        mesh_factor=mesh, lattice_nx=2, lattice_ny=ny, torsion_knockdown=knockdown
    )
    return build_wing_model(small_definition(), small_panels(), fid)


class TestMac:
    def test_identical_vectors(self):
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert mac(v, v) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_vectors(self):
        assert mac([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_known_partial_correlation(self):
        # |<[1,0],[1,1]>|^2 / (1 * 2) = 0.5
        assert mac([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.5, abs=1e-14)

    def test_invariant_to_complex_scale(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
            assert mac(v, c * v) == pytest.approx(1.0, abs=1e-12)
            assert mac(c * v, v) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            m = mac(a, b)
            assert 0.0 <= m <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            mac(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            mac(np.ones(3), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mac(np.ones(3), np.ones(4))

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        b = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        m = mac_matrix(a, b)
        assert m.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert m[i, j] == pytest.approx(mac(a[:, i], b[:, j]), abs=1e-12)

    def test_matrix_rejects_zero_column_and_mismatch(self):
        a = np.ones((4, 2))
        z = a.copy()
        z[:, 1] = 0.0
        with pytest.raises(ValueError):
            mac_matrix(a, z)
        with pytest.raises(ValueError):
            mac_matrix(np.ones((4, 2)), np.ones((5, 2)))


class TestRelativeError:
    def test_refined_value_is_reference(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.9, 1.0) == pytest.approx(0.1)
        assert relative_error(-2.0, -1.0) == pytest.approx(1.0)

    def test_zero_reference(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == np.inf


class TestSharedNodeDofs:
    def test_integer_refinement_keeps_coarse_nodes(self):
        lf = build(mesh=1)
        hf = build(mesh=2)
        i_lf, i_hf = shared_node_dofs(lf, hf)
        assert i_lf.size == 6 * lf.beam.n_nodes
        assert i_hf.size == i_lf.size
        y_lf = lf.beam.nodes[:, 1]
        y_hf = hf.beam.nodes[:, 1]
        assert np.allclose(y_hf[i_hf[::6] // 6], y_lf, atol=1e-12)

    def test_self_share_is_identity(self):
        m = build(mesh=2)
        i_a, i_b = shared_node_dofs(m, m)
        assert np.array_equal(i_a, i_b)
        assert np.array_equal(i_a, np.arange(m.beam.n_dof))

    def test_incompatible_meshes_rejected(self):
        with pytest.raises(ValueError, match="share the coarse node set"):
            shared_node_dofs(build(mesh=2), build(mesh=3))


class TestCompareStatic:
    def test_identical_models_agree(self):
        m = build(mesh=1)
        rep = compare_static(m, build(mesh=1))
        assert rep.case == 1
        assert rep.relative_errors["bending"] == pytest.approx(0.0, abs=1e-12)
        assert rep.relative_errors["torsion"] == pytest.approx(0.0, abs=1e-12)
        assert rep.flags["bending_below_threshold"]
        assert not rep.flags["torsion_above_threshold"]

    def test_refinement_alone_changes_nothing(self):
        # per-bay-constant sections and an exact element: statics are mesh
        # independent, so the split isolates the stiffness knockdown
        rep = compare_static(build(mesh=1), build(mesh=2, knockdown=1.0))
        assert rep.relative_errors["bending"] < 1e-10
        assert rep.relative_errors["torsion"] < 1e-10

    def test_knockdown_signature(self):
        rep = compare_static(build(mesh=1), build(mesh=2, knockdown=0.8))
        assert rep.relative_errors["bending"] < 1e-10
        # 1 - kappa up to the slight bending admixture of the swept axis
        assert rep.relative_errors["torsion"] == pytest.approx(0.2, abs=5e-3)
        assert rep.flags["bending_below_threshold"]
        assert rep.flags["torsion_above_threshold"]

    def test_torsion_error_grows_with_knockdown(self):
        errors = []
        for kappa in (1.0, 0.9, 0.8, 0.7):
            rep = compare_static(build(mesh=1), build(mesh=2, knockdown=kappa))
            assert rep.relative_errors["bending"] < 1e-10
            assert rep.relative_errors["torsion"] == pytest.approx(
                1.0 - kappa, abs=5e-3
            )
            errors.append(rep.relative_errors["torsion"])
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_values_reported_for_both_models(self):
        rep = compare_static(build(mesh=1), build(mesh=2, knockdown=0.8))
        assert set(rep.lf_values) == {"tip_deflection", "tip_twist"}
        assert set(rep.hf_values) == {"tip_deflection", "tip_twist"}
        assert rep.hf_values["tip_twist"] > rep.lf_values["tip_twist"]


class TestCompareModal:
    def test_identical_models_give_identity_mac(self):
        rep = compare_modal(build(mesh=2), build(mesh=2))
        assert rep.case == 2
        assert np.allclose(np.diag(rep.mac), 1.0, atol=1e-12)
        assert rep.flags["matched_modes"]
        assert not rep.flags["mode_swap"]
        for key, err in rep.relative_errors.items():
            assert err == pytest.approx(0.0, abs=1e-12), key

    def test_matched_physics_across_meshes(self):
        rep = compare_modal(build(mesh=1), build(mesh=2))
        assert rep.mac.shape == (N_MODAL, N_MODAL)
        assert np.all(np.diag(rep.mac)[:5] > 0.95)
        assert rep.flags["matched_modes"]
        # three coarse elements leave visible mass-discretization error
        for i in range(5):
            assert rep.relative_errors[f"omega_{i + 1}"] < 0.15

    def test_frequency_tables_present(self):
        rep = compare_modal(build(mesh=1), build(mesh=2))
        assert rep.eigenvalue_tables["lf_omega"].size == N_MODAL
        assert rep.eigenvalue_tables["hf_omega"].size == N_MODAL
        assert set(rep.lf_values) == {f"omega_{i}" for i in range(1, N_MODAL + 1)}


class TestOneEigensolvePerBeam:
    """compare_modal shares its modes with the stability basis of the same beam."""

    def setup_method(self):
        cfg = load_config(os.path.join(os.path.dirname(aerotail.__file__), "data",
                                       "wing_default.json"))
        lf, hf = cfg.analyses()
        x = cfg.initial_design()
        self.lf, self.hf = lf.build_model(x), hf.build_model(x)
        cruise = cfg.loadcases[0]
        self.cruise = cruise
        self.flow_of_v = lambda v: FlowConditions(V=v, rho=cruise.rho, mach=cruise.mach)

    def test_flutter_sequence_solves_each_beam_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return scipy.linalg.eigh(*args, **kwargs)

        monkeypatch.setattr(beam_module, "eigh", counted)
        compare_modal(self.lf, self.hf)
        compare_aeroelastic(self.lf, self.hf, self.flow_of_v(self.cruise.V))
        for model in (self.lf, self.hf):
            critical_speed(model.beam, model.lattice, self.flow_of_v, 150.0, 600.0)
        assert len(calls) == 2

    def test_modal_omegas_match_a_direct_subset_solve(self):
        rep = compare_modal(self.lf, self.hf)
        for model, key in ((self.lf, "lf_omega"), (self.hf, "hf_omega")):
            beam = model.beam
            ix = np.ix_(beam.free, beam.free)
            w2 = scipy.linalg.eigh(beam.stiffness()[ix], beam.mass()[ix], eigvals_only=True,
                                   subset_by_index=[0, N_MODAL - 1])
            assert rep.eigenvalue_tables[key].size == N_MODAL
            np.testing.assert_allclose(rep.eigenvalue_tables[key], np.sqrt(w2), rtol=1e-8)


class TestCompareAeroelastic:
    def test_identical_models_at_flow_point(self):
        flow = FlowConditions(V=30.0, rho=1.225)
        rep = compare_aeroelastic(build(mesh=2), build(mesh=2), flow)
        assert rep.case == 3
        assert np.allclose(np.diag(rep.mac), 1.0, atol=1e-10)
        assert rep.flags["matched_modes"]
        for err in rep.relative_errors.values():
            assert err == pytest.approx(0.0, abs=1e-10)
        assert rep.lf_values["max_real"] == pytest.approx(
            rep.hf_values["max_real"], abs=1e-12
        )

    def test_eigenvalue_tables_truncated_consistently(self):
        flow = FlowConditions(V=25.0, rho=1.225)
        rep = compare_aeroelastic(build(mesh=1), build(mesh=2), flow)
        k = rep.eigenvalue_tables["lf_eigenvalues"].size
        assert rep.eigenvalue_tables["hf_eigenvalues"].size == k
        assert rep.mac.shape == (k, k)
        assert len(rep.relative_errors) == k
