"""Cross-section tests against thin-walled closed forms."""

import numpy as np
import pytest

from aerotail.laminate import LaminationParameters, MaterialProperties, PanelDesign, lp_from_stack
from aerotail.section import (
    BOX_WALLS,
    CrossSection,
    wall_stresses,
)

from oracles import box_section, prescribed_section

E_ISO = 71.0e9
NU_ISO = 0.33
G_ISO = E_ISO / (2.0 * (1.0 + NU_ISO))

ISO = MaterialProperties(
    E1=E_ISO,
    E2=E_ISO,
    G12=G_ISO,
    nu12=NU_ISO,
    rho=2700.0,
    Xt=400e6,
    Xc=400e6,
    Yt=400e6,
    Yc=400e6,
    S=200e6,
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

QI = LaminationParameters(np.zeros(4), np.zeros(4))


def iso_box(width, height, t):
    design = PanelDesign(QI, t)
    walls = {k: design for k in ("upper", "lower", "front", "rear")}
    return box_section(width, height, walls, ISO)


class TestIsotropicBox:
    W, H, T = 0.9, 0.24, 4e-3

    def props(self):
        sec = iso_box(self.W, self.H, self.T).build()
        return sec.C[0], sec.M[0]

    def test_axial(self):
        per = 2 * (self.W + self.H)
        assert self.props()[0][0, 0] == pytest.approx(E_ISO * self.T * per, rel=1e-9)

    def test_bending(self):
        c, _ = self.props()
        ei2 = E_ISO * self.T * (self.W * self.H**2 / 2 + self.H**3 / 6)
        ei3 = E_ISO * self.T * (self.H * self.W**2 / 2 + self.W**3 / 6)
        assert c[4, 4] == pytest.approx(ei2, rel=1e-9)
        assert c[5, 5] == pytest.approx(ei3, rel=1e-9)

    def test_torsion_bredt(self):
        area = self.W * self.H
        gj = 4.0 * area**2 * G_ISO * self.T / (2 * (self.W + self.H))
        assert self.props()[0][3, 3] == pytest.approx(gj, rel=1e-9)

    def test_shear(self):
        c, _ = self.props()
        assert c[1, 1] == pytest.approx(2 * G_ISO * self.T * self.W, rel=1e-9)
        assert c[2, 2] == pytest.approx(2 * G_ISO * self.T * self.H, rel=1e-9)

    def test_no_coupling(self):
        c, _ = self.props()
        off = c - np.diag(np.diag(c))
        assert np.abs(off).max() < 1e-6 * np.abs(np.diag(c)).min()

    def test_mass(self):
        _, m = self.props()
        per = 2 * (self.W + self.H)
        assert m[0, 0] == pytest.approx(ISO.rho * self.T * per, rel=1e-12)
        i22 = ISO.rho * self.T * (self.W * self.H**2 / 2 + self.H**3 / 6)
        i33 = ISO.rho * self.T * (self.H * self.W**2 / 2 + self.W**3 / 6)
        assert m[4, 4] == pytest.approx(i22, rel=1e-9)
        assert m[5, 5] == pytest.approx(i33, rel=1e-9)
        assert m[3, 3] == pytest.approx(i22 + i33, rel=1e-9)

    def test_spd(self):
        c, m = self.props()
        assert np.all(np.linalg.eigvalsh(c) > 0)
        assert np.all(np.linalg.eigvalsh(m) > 0)


class TestAnisotropy:
    def test_unbalanced_skins_give_bend_twist(self):
        plus = PanelDesign(lp_from_stack(np.deg2rad([25.0, 25.0, 0.0])), 3e-3)
        minus = PanelDesign(lp_from_stack(np.deg2rad([-25.0, -25.0, 0.0])), 3e-3)
        spar = PanelDesign(QI, 3e-3)
        sec = box_section(
            0.8, 0.2, {"upper": plus, "lower": minus, "front": spar, "rear": spar}, CFRP
        )
        c = sec.build().C[0]
        assert abs(c[3, 4]) > 1e-3 * np.sqrt(c[3, 3] * c[4, 4])
        assert np.all(np.linalg.eigvalsh(c) > 0)

    def test_matched_skins_no_bend_twist(self):
        same = PanelDesign(lp_from_stack(np.deg2rad([25.0, 25.0, 0.0])), 3e-3)
        spar = PanelDesign(QI, 3e-3)
        sec = box_section(
            0.8, 0.2, {"upper": same, "lower": same, "front": spar, "rear": spar}, CFRP
        )
        c = sec.build().C[0]
        assert abs(c[3, 4]) < 1e-9 * np.sqrt(c[3, 3] * c[4, 4])


def wall_recovery(sec, section_strains):
    """Midpoint stresses (walls, 3) of a stack-of-one section under section strains."""
    return wall_stresses(sec.strain_map[0], sec.membrane[0], sec.thickness[0], section_strains)


class TestRecovery:
    def test_axial_strain_stress(self):
        p = iso_box(0.6, 0.2, 2e-3).build()
        eps = 1e-3
        for s in wall_recovery(p, np.array([eps, 0, 0, 0, 0, 0])):
            assert s[0] == pytest.approx(E_ISO * eps, rel=1e-9)
            assert s[1] == 0.0
            assert abs(s[2]) < 1e-6

    def test_torsion_constant_shear_flow(self):
        box = iso_box(0.6, 0.2, 2e-3)
        p = box.build()
        k1 = 2e-2
        flows = wall_recovery(p, np.array([0, 0, 0, k1, 0, 0]))[:, 2] * p.thickness[0]
        assert np.ptp(flows) < 1e-9 * abs(flows[0])
        # Bredt: q = T / (2 A)
        torque = p.C[0, 3, 3] * k1
        area = box.geometry.enclosed_area[0]
        assert flows[0] == pytest.approx(torque / (2 * area), rel=1e-9)

    def test_panel_arc_length(self):
        design = PanelDesign(QI, 2e-3)
        walls = {k: design for k in ("upper", "lower", "front", "rear")}
        idx = {"upper": 0, "lower": 0, "front": 1, "rear": 1}
        box = box_section(0.6, 0.2, walls, ISO)
        arc = np.bincount([idx[w] for w in BOX_WALLS], weights=box.geometry.length[0])
        assert arc[0] == pytest.approx(1.2)
        assert arc[1] == pytest.approx(0.4)


class TestValidation:
    def test_open_contour_rejected(self):
        d = PanelDesign(QI, 2e-3)
        p1 = [(0, 0), (1, 0), (1, 1)]
        p2 = [(1, 0), (1, 1), (0.5, 1.5)]
        with pytest.raises(ValueError, match="gap"):
            CrossSection(p1, p2, [d] * 3, ISO)

    def test_clockwise_rejected(self):
        d = PanelDesign(QI, 2e-3)
        p1 = [(0, 0), (0, 1), (1, 1), (1, 0)]
        p2 = [(0, 1), (1, 1), (1, 0), (0, 0)]
        with pytest.raises(ValueError, match="counter-clockwise"):
            CrossSection(p1, p2, [d] * 4, ISO)

    def test_prescribed_diagonal(self):
        p = prescribed_section(1e8, 2e6, 3e6, 4e5, 5e6, 6e6, mu=12.0, i_polar=0.4)
        assert np.allclose(np.diag(p.C), [1e8, 2e6, 3e6, 4e5, 5e6, 6e6])
        assert p.M[0, 0] == 12.0 and p.M[3, 3] == 0.4
