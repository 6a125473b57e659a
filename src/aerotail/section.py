"""Thin-walled closed-cell cross sections built from laminated walls.

A section is a closed chain of straight midline wall segments, each carrying
a laminate described by lamination parameters and a thickness.  The membrane
response of every wall is condensed to the (axial, shear) pair under zero
hoop force resultant, and the 6x6 section stiffness follows from integrating
the assumed strain distribution

    eps_xx(s) = e1 + k2 * z(s) - k3 * y(s)
    gam_xs(s) = g12 * ty(s) + g13 * tz(s) + k1 * gt(s)

around the contour.  gt is the Bredt shear distribution of the single cell,
so the torsion stiffness of an isotropic box reduces to 4 A^2 / int(ds/Gt)
exactly.  Section strains are ordered [e1, g12, g13, k1, k2, k3], work
conjugate to [F1, F2, F3, M1, M2, M3]; y is chordwise, z is up, x follows
the beam axis.

Coordinates handed to a segment are measured in the section plane; the
reference point used for bending and torsion terms is the arc-length
centroid of the contour, which depends on wall geometry only and therefore
stays put when laminates change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .laminate import MaterialProperties, PanelDesign, abd_from_lp

# 3-point Gauss rule on [0, 1]; integrands here are at most quadratic
_GAUSS_XI = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0

_CLOSURE_TOL = 1e-9


def condensed_membrane(design: PanelDesign, material: MaterialProperties) -> np.ndarray:
    """Condense the 3x3 membrane stiffness to (axial, shear) with Nss = 0.

    Returns the symmetric 2x2 matrix acting on (eps_xx, gam_xs).
    """
    a = abd_from_lp(design, material).A
    a11, a12, a22, a16, a26, a66 = a[0, 0], a[0, 1], a[1, 1], a[0, 2], a[1, 2], a[2, 2]
    if a22 <= 0.0:
        raise ValueError("membrane stiffness is not positive definite")
    return np.array(
        [
            [a11 - a12 * a12 / a22, a16 - a12 * a26 / a22],
            [a16 - a12 * a26 / a22, a66 - a26 * a26 / a22],
        ]
    )


@dataclass(frozen=True)
class WallSegment:
    """Straight midline wall from p1 to p2 in section (y, z) coordinates."""

    p1: tuple[float, float]
    p2: tuple[float, float]
    design: PanelDesign
    material: MaterialProperties
    panel_index: int = -1

    @property
    def length(self) -> float:
        return float(np.hypot(self.p2[0] - self.p1[0], self.p2[1] - self.p1[1]))

    @property
    def tangent(self) -> np.ndarray:
        d = np.array([self.p2[0] - self.p1[0], self.p2[1] - self.p1[1]])
        return d / np.linalg.norm(d)


@dataclass(frozen=True)
class RecoveryStation:
    """Midpoint stress recovery data for one wall segment.

    `strain_map` turns the six section strains into the wall strain pair
    (eps_xx, gam_xs); `membrane` turns that pair into force resultants.
    """

    panel_index: int
    strain_map: np.ndarray
    membrane: np.ndarray
    thickness: float

    def wall_stresses(self, section_strains: np.ndarray) -> np.ndarray:
        """Smeared wall stresses (sigma_xx, sigma_ss, tau_xs) in Pa.

        The hoop resultant is condensed to zero, so sigma_ss is zero by
        construction.
        """
        eps = self.strain_map @ np.asarray(section_strains, dtype=float)
        n = self.membrane @ eps
        return np.array([n[0] / self.thickness, 0.0, n[1] / self.thickness])


@dataclass(frozen=True)
class SectionProperties:
    """Homogenized beam properties of one cross section.

    C is the 6x6 stiffness, M the 6x6 inertia per unit length (translations
    then rotations about the reference point), mu the mass per unit length.
    """

    C: np.ndarray
    M: np.ndarray
    mu: float
    enclosed_area: float
    recovery: tuple[RecoveryStation, ...]
    panel_arc_length: dict[int, float] = field(default_factory=dict)


class CrossSection:
    """Single-cell thin-walled section defined by a closed segment chain."""

    def __init__(self, segments: tuple[WallSegment, ...] | list[WallSegment]):
        segments = tuple(segments)
        if len(segments) < 3:
            raise ValueError("a closed cell needs at least 3 segments")
        for a, b in zip(segments, segments[1:] + segments[:1]):
            gap = np.hypot(b.p1[0] - a.p2[0], b.p1[1] - a.p2[1])
            if gap > _CLOSURE_TOL:
                raise ValueError(f"contour gap of {gap:.3e} between segments")
        area2 = sum(s.p1[0] * s.p2[1] - s.p2[0] * s.p1[1] for s in segments)
        if area2 <= 0.0:
            raise ValueError("contour must run counter-clockwise (positive area)")
        self.segments = segments
        self.enclosed_area = 0.5 * area2
        # arc-length centroid: fixed by geometry, independent of the laminates
        total = sum(s.length for s in segments)
        cy = sum(0.5 * (s.p1[0] + s.p2[0]) * s.length for s in segments) / total
        cz = sum(0.5 * (s.p1[1] + s.p2[1]) * s.length for s in segments) / total
        self.reference = np.array([cy, cz])

    def _segment_frames(self):
        """Per segment: endpoints relative to reference, tangent, membrane."""
        frames = []
        for seg in self.segments:
            r1 = np.array(seg.p1) - self.reference
            r2 = np.array(seg.p2) - self.reference
            frames.append((seg, r1, r2, seg.tangent, condensed_membrane(seg.design, seg.material)))
        return frames

    def build(self) -> SectionProperties:
        frames = self._segment_frames()

        # Bredt flow per unit twist rate: q1 = 2 A / int(ds / A_ss)
        inv_shear = sum(seg.length / ah[1, 1] for seg, _, _, _, ah in frames)
        q1 = 2.0 * self.enclosed_area / inv_shear

        c = np.zeros((6, 6))
        m = np.zeros((6, 6))
        recovery = []
        arc: dict[int, float] = {}
        for seg, r1, r2, tang, ah in frames:
            gt = q1 / ah[1, 1]
            rho_t = seg.material.rho * seg.design.thickness
            for xi, w in zip(_GAUSS_XI, _GAUSS_W):
                y, z = (1.0 - xi) * r1 + xi * r2
                b = _strain_map(y, z, tang, gt)
                dl = w * seg.length
                c += dl * (b.T @ ah @ b)
                m += dl * rho_t * _inertia_map(y, z)
            ym, zm = 0.5 * (r1 + r2)
            recovery.append(
                RecoveryStation(
                    panel_index=seg.panel_index,
                    strain_map=_strain_map(ym, zm, tang, gt),
                    membrane=ah,
                    thickness=seg.design.thickness,
                )
            )
            if seg.panel_index >= 0:
                arc[seg.panel_index] = arc.get(seg.panel_index, 0.0) + seg.length
        c = 0.5 * (c + c.T)
        m = 0.5 * (m + m.T)
        return SectionProperties(
            C=c,
            M=m,
            mu=float(m[0, 0]),
            enclosed_area=self.enclosed_area,
            recovery=tuple(recovery),
            panel_arc_length=arc,
        )


def _strain_map(y: float, z: float, tangent: np.ndarray, gt: float) -> np.ndarray:
    """Section strains -> (eps_xx, gam_xs) at a contour point."""
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0, z, -y],
            [0.0, tangent[0], tangent[1], gt, 0.0, 0.0],
        ]
    )


def _inertia_map(y: float, z: float) -> np.ndarray:
    """Unit-density 6x6 inertia of a point at (y, z) in the section plane."""
    j = np.zeros((6, 6))
    j[0, 0] = j[1, 1] = j[2, 2] = 1.0
    j[0, 4] = j[4, 0] = z
    j[0, 5] = j[5, 0] = -y
    j[1, 3] = j[3, 1] = -z
    j[2, 3] = j[3, 2] = y
    j[3, 3] = y * y + z * z
    j[4, 4] = z * z
    j[5, 5] = y * y
    j[4, 5] = j[5, 4] = -y * z
    return j


def box_section(
    width: float,
    height: float,
    walls: dict[str, PanelDesign],
    material: MaterialProperties,
    panel_indices: dict[str, int] | None = None,
) -> CrossSection:
    """Rectangular single-cell box with walls `upper`, `lower`, `front`, `rear`.

    Centered on the section origin: y runs from the front spar (negative) to
    the rear spar (positive), z from the lower to the upper skin.  Each wall
    is one segment.
    """
    if width <= 0.0 or height <= 0.0:
        raise ValueError("box dimensions must be positive")
    missing = {"upper", "lower", "front", "rear"} - set(walls)
    if missing:
        raise ValueError(f"missing wall designs: {sorted(missing)}")
    idx = panel_indices or {}
    w2, h2 = 0.5 * width, 0.5 * height
    corners = {
        "fl": (-w2, -h2),
        "rl": (w2, -h2),
        "ru": (w2, h2),
        "fu": (-w2, h2),
    }
    # counter-clockwise: lower skin, rear spar, upper skin, front spar
    loop = [
        ("lower", corners["fl"], corners["rl"]),
        ("rear", corners["rl"], corners["ru"]),
        ("upper", corners["ru"], corners["fu"]),
        ("front", corners["fu"], corners["fl"]),
    ]
    return CrossSection(
        [
            WallSegment(p1, p2, walls[name], material, panel_index=idx.get(name, -1))
            for name, p1, p2 in loop
        ]
    )


def prescribed_section(
    EA: float,
    GA2: float,
    GA3: float,
    GJ: float,
    EI2: float,
    EI3: float,
    mu: float = 1.0,
    i_polar: float = 1.0,
) -> SectionProperties:
    """Diagonal section from handbook constants, for verification models.

    Rotary inertia splits the polar value evenly between the two bending
    axes; there is no recovery data.
    """
    c = np.diag([EA, GA2, GA3, GJ, EI2, EI3]).astype(float)
    m = np.diag([mu, mu, mu, i_polar, 0.5 * i_polar, 0.5 * i_polar]).astype(float)
    return SectionProperties(
        C=c,
        M=m,
        mu=mu,
        enclosed_area=0.0,
        recovery=(),
        panel_arc_length={},
    )
