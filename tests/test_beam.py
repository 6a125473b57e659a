"""Beam element and solver tests against closed-form prismatic results."""

import os

import numpy as np
import pytest
import scipy.linalg

import aerotail
from aerotail import beam as beam_module
from aerotail.beam import (
    BeamModel,
    ElementGeometry,
    ElementSet,
    PointMass,
    _count_positive,
    element_frame,
)
from aerotail.config import load_config

from oracles import SectionProperties, cantilever_model, prescribed_section, trim_load

DATA = os.path.join(os.path.dirname(aerotail.__file__), "data")

# slender reference member
EA, GA, GJ = 2.1e9, 8.0e8, 3.5e5
EI2, EI3 = 1.2e5, 4.1e5
MU, IP = 7.5, 2.1e-2
L = 2.7


def member(n_elem, axis=(1, 0, 0)):
    sec = prescribed_section(EA, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
    return cantilever_model(sec, L, n_elem, axis=axis)


def tip_load(model, dof, value):
    f = np.zeros(model.n_dof)
    f[6 * (model.n_nodes - 1) + dof] = value
    return f


class TestStatics:
    @pytest.mark.parametrize("n_elem", [1, 2, 7])
    def test_tip_transverse_force(self, n_elem):
        m = member(n_elem)
        f = 820.0
        u = m.static_solve(tip_load(m, 2, f))
        expect = f * L**3 / (3 * EI2) + f * L / GA
        assert u[6 * (m.n_nodes - 1) + 2] == pytest.approx(expect, rel=1e-12)

    def test_tip_lateral_force(self):
        m = member(3)
        f = -512.0
        u = m.static_solve(tip_load(m, 1, f))
        expect = f * L**3 / (3 * EI3) + f * L / GA
        assert u[6 * (m.n_nodes - 1) + 1] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n_elem", [1, 5])
    def test_tip_torque(self, n_elem):
        m = member(n_elem)
        t = 96.0
        u = m.static_solve(tip_load(m, 3, t))
        assert u[6 * (m.n_nodes - 1) + 3] == pytest.approx(t * L / GJ, rel=1e-12)

    def test_tip_axial(self):
        m = member(4)
        f = 1.5e4
        u = m.static_solve(tip_load(m, 0, f))
        assert u[6 * (m.n_nodes - 1)] == pytest.approx(f * L / EA, rel=1e-12)

    def test_off_axis_member(self):
        axis = np.array([1.0, 2.0, 0.5])
        m = member(4, axis=axis)
        # pure axial load along the member
        f = np.zeros(m.n_dof)
        f[-6:-3] = 3.3e3 * axis / np.linalg.norm(axis)
        u = m.static_solve(f)
        tip = u[-6:-3] @ (axis / np.linalg.norm(axis))
        assert tip == pytest.approx(3.3e3 * L / EA, rel=1e-10)

    def test_coupled_section_matches_flexibility(self):
        rng = np.random.default_rng(42)
        q = rng.normal(size=(6, 6))
        c = q @ q.T + 6.0 * np.eye(6)
        c = c * np.outer([1e7, 1e6, 1e6, 1e5, 1e5, 1e5], [1e7, 1e6, 1e6, 1e5, 1e5, 1e5]) ** 0.5
        sec = SectionProperties(C=c, M=np.eye(6))
        p2 = rng.normal(size=6) * np.array([1e3, 1e3, 1e3, 1e2, 1e2, 1e2])
        length = 1.9
        # one element along x: its free block is the end stiffness K22
        k22 = cantilever_model(sec, length, 1).stiffness()[6:, 6:]
        expect = np.linalg.solve(k22, p2)
        for n_elem in (1, 6):
            m = cantilever_model(sec, length, n_elem)
            f = np.zeros(m.n_dof)
            f[-6:] = p2
            u = m.static_solve(f)
            assert np.allclose(u[-6:], expect, rtol=1e-10)

    def test_rigid_body_nullspace(self):
        sec = prescribed_section(EA, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
        nodes = np.array([[0, 0, 0], [1, 0.2, 0.1], [2, 0.1, 0.4], [2.5, 0.8, 0.3]])
        elems = ElementSet(
            ElementGeometry.build(nodes, [(i, i + 1) for i in range(3)]),
            sec.C[None], sec.M[None], np.zeros(3, dtype=int),
        )
        m = BeamModel(nodes, elems)
        k = m.stiffness()
        scale = np.abs(k).max()
        for mode in range(6):
            r = np.zeros(m.n_dof)
            if mode < 3:
                r[mode::6] = 1.0
            else:
                b = np.zeros(3)
                b[mode - 3] = 1.0
                for i, x in enumerate(m.nodes):
                    r[6 * i : 6 * i + 3] = np.cross(b, x)
                    r[6 * i + 3 : 6 * i + 6] = b
            assert np.abs(k @ r).max() < 1e-9 * scale

    def test_mid_strains(self):
        m = member(1)
        f = 640.0
        u = m.static_solve(tip_load(m, 2, f))
        strains = m.element_mid_strains(u)[0]
        assert strains[2] == pytest.approx(f / GA, rel=1e-10)  # transverse shear
        assert strains[4] == pytest.approx(-f * (L / 2) / EI2, rel=1e-10)  # curvature

    def test_strain_energy_balance(self):
        m = member(6)
        f = tip_load(m, 2, 500.0) + tip_load(m, 3, 40.0)
        u = m.static_solve(f)
        assert m.element_strain_energy(u).sum() == pytest.approx(0.5 * f @ u, rel=1e-10)


BETA_L = np.array([1.8751040687119611, 4.694091132974175, 7.854757438237613])


class TestModal:
    def test_cantilever_bending_frequencies(self):
        sec = prescribed_section(1e9, 1e9, 1e9, 4e5, EI2, 7 * EI2, mu=MU, i_polar=1e-8)
        m = cantilever_model(sec, L, 64)
        res = m.modal(10)
        expect = BETA_L**2 * np.sqrt(EI2 / (MU * L**4))
        # keep modes dominated by z translation (the soft bending plane)
        z_modes = [
            k
            for k in range(res.omega.size)
            if np.linalg.norm(res.shapes[2::6, k]) > 0.9 * np.linalg.norm(res.shapes[:, k][
                np.concatenate([np.arange(i, m.n_dof, 6) for i in (0, 1, 2)])
            ])
        ]
        got = res.omega[z_modes[:3]]
        assert np.allclose(got, expect, rtol=5e-3)

    def test_mass_orthonormal(self):
        sec = prescribed_section(EA, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 16)
        res = m.modal(8)
        gram = res.shapes.T @ m.mass() @ res.shapes
        assert np.abs(gram - np.eye(8)).max() < 1e-10

    def test_point_mass_lowers_frequency(self):
        sec = prescribed_section(EA, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
        bare = cantilever_model(sec, L, 16).modal(1).omega[0]
        loaded = cantilever_model(
            sec, L, 16, point_masses=[PointMass(node=16, mass=0.5 * MU * L)]
        ).modal(1).omega[0]
        assert loaded < bare
        # Rayleigh bound for a heavy tip mass
        assert loaded > np.sqrt(3 * EI2 / ((0.5 * MU * L + 0.2357 * MU * L) * L**3)) * 0.98

    def test_total_mass(self):
        sec = prescribed_section(EA, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 9, point_masses=[PointMass(node=3, mass=11.0)])
        assert m.total_mass() == pytest.approx(MU * L + 11.0, rel=1e-12)

    def test_gravity_resultant(self):
        sec = prescribed_section(EA, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 9)
        f = m.gravity_load(9.81)
        assert f[2::6].sum() == pytest.approx(-9.81 * MU * L, rel=1e-12)


def column(n_elem):
    """Shear-rigid Euler column along x."""
    sec = prescribed_section(EA, 1e12, 1e12, GJ, EI2, EI3, mu=MU, i_polar=IP)
    return cantilever_model(sec, L, n_elem)


def dense_buckling(m, loads, n_modes):
    """Buckling by a full eigh of L^-1 (-K_g) L^-T, kept where mu > 1e-12.

    Returns the n_modes smallest factors, their shapes and the number of
    mu > 1e-12.  L is the transposed upper Cholesky factor of K_ff, the one
    the model solves with: the lower factor rounds differently, which moves
    the largest mu of the 64-element column by 4e-12 relative (cond(K_ff)
    is 4e8 there).
    """
    kg = m.geometric_stiffness(m.static_solve(loads))[6:, 6:]
    chol = scipy.linalg.cholesky(m.stiffness()[6:, 6:], lower=False).T
    a = scipy.linalg.solve_triangular(chol, -kg, lower=True)
    a = scipy.linalg.solve_triangular(chol, a.T, lower=True)
    mu, y = scipy.linalg.eigh(0.5 * (a + a.T))
    pos = mu > 1e-12
    order = np.argsort(1.0 / mu[pos])[:n_modes]
    shapes = np.zeros((m.n_dof, order.size))
    shapes[6:] = scipy.linalg.solve_triangular(chol, y[:, pos][:, order], lower=True, trans="T")
    return 1.0 / mu[pos][order], shapes, int(pos.sum())


def euler_tip(m):
    return tip_load(m, 0, -1e3)


def tension_compression(m):
    """Tip pulled, mid-span node pushed twice as hard: outer half in tension, inner in compression."""
    f = tip_load(m, 0, 1e3)
    f[6 * (m.n_nodes // 2)] = -2e3
    return f


def lateral_tip(m):
    return tip_load(m, 2, 5e3)


class TestBuckling:
    def test_euler_clamped_free(self):
        sec = prescribed_section(EA, 1e12, 1e12, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 64)
        p_ref = 1e3
        res = m.buckling(tip_load(m, 0, -p_ref), n_modes=3)
        euler = np.pi**2 * EI2 / (4 * L**2)
        assert res.factors[0] * p_ref == pytest.approx(euler, rel=2e-3)

    def test_det_sign_flips_at_factor(self):
        sec = prescribed_section(EA, 1e12, 1e12, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 4)
        f = tip_load(m, 0, -1e3)
        res = m.buckling(f, n_modes=1)
        lam = res.factors[0]
        kg = m.geometric_stiffness(m.static_solve(f))
        ix = np.ix_(m.free, m.free)
        below = np.linalg.slogdet(m.stiffness()[ix] + 0.995 * lam * kg[ix])[0]
        above = np.linalg.slogdet(m.stiffness()[ix] + 1.005 * lam * kg[ix])[0]
        assert below > 0 > above

    def test_tension_never_buckles(self):
        sec = prescribed_section(EA, 1e12, 1e12, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 8)
        res = m.buckling(tip_load(m, 0, +1e3), n_modes=5)
        assert res.factors.size == 0

    @pytest.mark.parametrize(
        "n_elem, load, n_modes, count",
        [
            (64, euler_tip, 3, 256),  # more modes than asked for
            (64, euler_tip, 300, 256),  # fewer modes than asked for
            (16, tension_compression, 8, 30),
            (16, tension_compression, 40, 30),
            (16, lateral_tip, 8, 0),
        ],
    )
    def test_counted_modes_match_dense_reference(self, n_elem, load, n_modes, count):
        m = column(n_elem)
        f = load(m)
        ref, ref_shapes, ref_count = dense_buckling(m, f, n_modes)
        assert ref_count == count
        res = m.buckling(f, n_modes=n_modes)
        assert res.factors.size == min(count, n_modes)
        assert res.shapes.shape == (m.n_dof, res.factors.size)
        # an eigensolver fixes mu to round-off times the largest mu, so a
        # factor far up the spectrum agrees only to that absolute level
        mu, mu_ref = 1.0 / res.factors, 1.0 / ref
        assert np.all(np.abs(mu - mu_ref) <= 1e-12 * mu_ref.max(initial=0.0))
        assert np.all(np.abs(res.factors[:3] - ref[:3]) <= 1e-12 * ref[:3])
        sign = np.sign(np.sum(res.shapes * ref_shapes, axis=0))
        scale = np.abs(ref_shapes).max(axis=0)
        assert np.all(np.abs(res.shapes * sign - ref_shapes).max(axis=0) <= 1e-9 * scale)

    def test_inertia_count_matches_eigenvalues(self):
        # random symmetric indefinite matrices draw 2x2 pivots as well as 1x1
        rng = np.random.default_rng(5)
        for n in range(1, 41):
            q = rng.normal(size=(n, n))
            a = q + q.T + rng.normal() * n * np.eye(n)
            assert _count_positive(a) == np.count_nonzero(np.linalg.eigvalsh(a) > 0.0)

    def test_zero_count_factors_stiffness_once_without_dense_work(self, monkeypatch):
        cfg = load_config(os.path.join(DATA, "toy_two_panel.json"))
        cases = [(column(8), tip_load(column(8), 0, 1e3))]
        for analysis in cfg.analyses():
            for i_lc in range(len(analysis.loadcases)):
                model = analysis.build_model(cfg.initial_design())
                cases.append((model.beam, trim_load(analysis, model, i_lc)))

        def dense(*args, **kwargs):
            raise AssertionError("dense solve on the zero-count path")

        factorizations = []
        cho_factor = beam_module.cho_factor

        def counted(*args, **kwargs):
            factorizations.append(args)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(beam_module, "eigh", dense)
        monkeypatch.setattr(beam_module, "solve_triangular", dense)
        monkeypatch.setattr(beam_module, "cho_factor", counted)
        for m, f in cases:
            factorizations.clear()
            m.static_solve(f)
            for _ in range(2):
                res = m.buckling(f, n_modes=8)
                assert res.factors.size == 0
                assert res.shapes.shape == (m.n_dof, 0)
            assert len(factorizations) == 1


class TestStaticSolveFactor:
    @pytest.mark.parametrize("name", ["toy_two_panel.json", "wing_default.json"])
    def test_bits_match_positive_definite_solve(self, name):
        cfg = load_config(os.path.join(DATA, name))
        rng = np.random.default_rng(3)
        for analysis in cfg.analyses():
            model = analysis.build_model(cfg.initial_design())
            b = model.beam
            for f in (trim_load(analysis, model, 0), rng.normal(size=b.n_dof)):
                expect = scipy.linalg.solve(b.stiffness()[6:, 6:], f[6:], assume_a="pos")
                u = b.static_solve(f)
                assert np.array_equal(u[6:], expect)
                assert not u[:6].any()

    def test_ill_conditioned_stiffness_warns(self):
        sec = prescribed_section(1e20, GA, GA, GJ, EI2, EI3, mu=MU, i_polar=IP)
        m = cantilever_model(sec, L, 4)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            m.static_solve(tip_load(m, 2, 1.0))


class TestBandedFactor:
    @pytest.mark.parametrize("name", ["toy_two_panel.json", "wing_default.json"])
    def test_half_bandwidth_and_solve_match_dense(self, name):
        cfg = load_config(os.path.join(DATA, name))
        rng = np.random.default_rng(5)
        for analysis in cfg.analyses():
            model = analysis.build_model(cfg.initial_design())
            b = model.beam
            i, j = np.nonzero(b.stiffness())
            assert b.half_bandwidth == np.abs(i - j).max()
            kff = b.stiffness()[6:, 6:]
            f = np.column_stack([trim_load(analysis, model, 0)[6:],
                                 rng.normal(size=kff.shape[0])])
            expect = scipy.linalg.cho_solve(scipy.linalg.cho_factor(kff), f)
            x = b.kff_solve(f)
            assert np.all(np.linalg.norm(x - expect, axis=0)
                          <= 1e-12 * np.linalg.norm(expect, axis=0))


class TestFrames:
    def test_orthonormal_right_handed(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p1, p2 = rng.normal(size=(2, 3))
            lam = element_frame(p1, p2)
            assert np.allclose(lam.T @ lam, np.eye(3), atol=1e-12)
            assert np.linalg.det(lam) == pytest.approx(1.0, rel=1e-12)

    def test_vertical_member_fallback(self):
        lam = element_frame(np.zeros(3), np.array([0, 0, 2.0]))
        assert np.allclose(lam[:, 0], [0, 0, 1])
        assert np.allclose(lam.T @ lam, np.eye(3), atol=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            element_frame(np.ones(3), np.ones(3))
