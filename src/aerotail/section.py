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

Every quantity is computed for a stack of contours with the same number of
walls at once.  `contour_geometry` holds what depends on the wall geometry
only (endpoints, tangents, lengths, enclosed areas, Gauss points and their
inertia maps); `section_batch` adds the walls' membranes, thicknesses and
density.  The wing calls `section_batch` on all its bays at once;
`CrossSection.build` runs both on a stack of one, for single-section
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laminate import MaterialProperties, PanelDesign, membrane_stiffness

# 3-point Gauss rule on [0, 1]; integrands here are at most quadratic
_GAUSS_XI = np.array([0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15)])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0

_CLOSURE_TOL = 1e-9


def condensed_membrane(design: PanelDesign, material: MaterialProperties) -> np.ndarray:
    """Condense the 3x3 membrane stiffness to (axial, shear) with Nss = 0.

    Returns the symmetric 2x2 matrix acting on (eps_xx, gam_xs).
    """
    a = membrane_stiffness(design, material)
    a11, a12, a22, a16, a26, a66 = a[0, 0], a[0, 1], a[1, 1], a[0, 2], a[1, 2], a[2, 2]
    if a22 <= 0.0:
        raise ValueError("membrane stiffness is not positive definite")
    return np.array(
        [
            [a11 - a12 * a12 / a22, a16 - a12 * a26 / a22],
            [a16 - a12 * a26 / a22, a66 - a26 * a26 / a22],
        ]
    )


def wall_stresses(strain_map, membrane, thickness, section_strains) -> np.ndarray:
    """Smeared wall stresses (sigma_xx, sigma_ss, tau_xs) in Pa, shape (..., 3).

    strain_map (..., 2, 6) turns section strains (..., 6) into the wall
    strain pair, membrane (..., 2, 2) that pair into force resultants.  The
    hoop resultant is condensed to zero, so sigma_ss is zero by construction.
    """
    eps = strain_map @ np.asarray(section_strains, dtype=float)[..., None]
    n = (membrane @ eps)[..., 0]
    thickness = np.asarray(thickness, dtype=float)
    s = np.zeros(n.shape[:-1] + (3,))
    s[..., 0] = n[..., 0] / thickness
    s[..., 2] = n[..., 1] / thickness
    return s


@dataclass(frozen=True)
class ContourGeometry:
    """Design-independent geometry of a stack of closed contours.

    Arrays are indexed (section, wall, ...): unit tangents, lengths, and per
    Gauss point the coordinates about the section's arc-length centroid, the
    weights w * length and the unit-density inertia maps; `mid` holds the
    wall midpoints used for stress recovery.
    """

    tangent: np.ndarray
    length: np.ndarray
    enclosed_area: np.ndarray
    gauss: np.ndarray
    weight: np.ndarray
    inertia: np.ndarray
    mid: np.ndarray


def _wall_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis in wall order, starting from zero, as a running total."""
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total


def contour_geometry(p1, p2) -> ContourGeometry:
    """Geometry of closed contours from wall endpoints p1, p2 of shape (n, walls, 2).

    Walls must chain end to start and run counter-clockwise.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape[1] < 3:
        raise ValueError("a closed cell needs at least 3 segments")
    step = np.roll(p1, -1, axis=1) - p2
    gap = np.hypot(step[..., 0], step[..., 1])
    bad = gap[gap > _CLOSURE_TOL]
    if bad.size:
        raise ValueError(f"contour gap of {bad[0]:.3e} between segments")
    area2 = _wall_sum(p1[..., 0] * p2[..., 1] - p2[..., 0] * p1[..., 1])
    if np.any(area2 <= 0.0):
        raise ValueError("contour must run counter-clockwise (positive area)")
    d = p2 - p1
    length = np.hypot(d[..., 0], d[..., 1])
    # arc-length centroid: fixed by geometry, independent of the laminates
    total = _wall_sum(length)
    centre = 0.5 * (p1 + p2)
    reference = np.stack(
        [_wall_sum(centre[..., 0] * length) / total, _wall_sum(centre[..., 1] * length) / total],
        axis=-1,
    )
    r1 = p1 - reference[:, None, :]
    r2 = p2 - reference[:, None, :]
    gauss = (1.0 - _GAUSS_XI)[:, None] * r1[:, :, None, :] + _GAUSS_XI[:, None] * r2[:, :, None, :]
    return ContourGeometry(
        tangent=d / np.linalg.norm(d, axis=-1, keepdims=True),
        length=length,
        enclosed_area=0.5 * area2,
        gauss=gauss,
        weight=_GAUSS_W * length[..., None],
        inertia=_inertia_map(gauss[..., 0], gauss[..., 1]),
        mid=0.5 * (r1 + r2),
    )


@dataclass(frozen=True)
class SectionBatch:
    """Per-design properties of a stack of sections.

    C and M are (..., n, 6, 6); strain_map (..., n, walls, 2, 6) is the
    wall-midpoint recovery map, membrane (..., n, walls, 2, 2) and thickness
    (..., n, walls) the walls' condensed membranes and thicknesses.  The
    leading axes are those of the membranes section_batch was given.
    """

    C: np.ndarray
    M: np.ndarray
    strain_map: np.ndarray
    membrane: np.ndarray
    thickness: np.ndarray


def section_batch(geom: ContourGeometry, membrane, thickness, rho) -> SectionBatch:
    """Stiffness, inertia and recovery maps of every section in `geom`.

    membrane (..., n, walls, 2, 2) and thickness (..., n, walls) describe
    the walls; leading axes, one per design of a stack, broadcast over the
    geometry.  rho is their density, a scalar or per wall.  Contributions
    are summed wall by wall and Gauss point by Gauss point in contour order.
    """
    membrane = np.asarray(membrane, dtype=float)
    thickness = np.asarray(thickness, dtype=float)
    shear = membrane[..., 1, 1]
    # Bredt flow per unit twist rate: q1 = 2 A / int(ds / A_ss)
    q1 = 2.0 * geom.enclosed_area / _wall_sum(geom.length / shear)
    gt = q1[..., None] / shear
    tx, ty = geom.tangent[..., 0], geom.tangent[..., 1]
    b = _strain_map(
        geom.gauss[..., 0], geom.gauss[..., 1], tx[..., None], ty[..., None], gt[..., None]
    )
    c_terms = geom.weight[..., None, None] * (
        b.swapaxes(-1, -2) @ membrane[..., None, :, :] @ b
    )
    rho_t = rho * thickness
    m_terms = (geom.weight * rho_t[..., None])[..., None, None] * geom.inertia
    n_wall, n_gauss = geom.weight.shape[1:]
    c = np.zeros(c_terms.shape[:-4] + (6, 6))
    m = np.zeros(m_terms.shape[:-4] + (6, 6))
    for j in range(n_wall):
        for g in range(n_gauss):
            c += c_terms[..., j, g, :, :]
            m += m_terms[..., j, g, :, :]
    return SectionBatch(
        C=0.5 * (c + c.swapaxes(-1, -2)),
        M=0.5 * (m + m.swapaxes(-1, -2)),
        strain_map=_strain_map(geom.mid[..., 0], geom.mid[..., 1], tx, ty, gt),
        membrane=membrane,
        thickness=thickness,
    )


class CrossSection:
    """Single-cell thin-walled section: one closed chain of straight walls.

    p1 and p2 (walls, 2) are the walls' midline endpoints in section (y, z)
    coordinates, chained end to start and counter-clockwise; designs holds
    one laminate per wall, all of one material.
    """

    def __init__(self, p1, p2, designs, material: MaterialProperties):
        self.geometry = contour_geometry(
            np.asarray(p1, dtype=float)[None], np.asarray(p2, dtype=float)[None]
        )
        self.designs = tuple(designs)
        self.material = material

    def build(self) -> SectionBatch:
        """The section as a stack of one, recovery maps included."""
        membrane = np.array([condensed_membrane(d, self.material) for d in self.designs])
        thickness = np.array([d.thickness for d in self.designs], dtype=float)
        return section_batch(self.geometry, membrane[None], thickness[None], self.material.rho)


def _strain_map(y, z, tx, ty, gt) -> np.ndarray:
    """Section strains -> (eps_xx, gam_xs) at contour points, shape (..., 2, 6)."""
    shape = np.broadcast_shapes(np.shape(y), np.shape(tx), np.shape(gt))
    b = np.zeros(shape + (2, 6))
    b[..., 0, 0] = 1.0
    b[..., 0, 4] = z
    b[..., 0, 5] = -y
    b[..., 1, 1] = tx
    b[..., 1, 2] = ty
    b[..., 1, 3] = gt
    return b


def _inertia_map(y, z) -> np.ndarray:
    """Unit-density 6x6 inertia of points at (y, z) in the section plane, (..., 6, 6)."""
    j = np.zeros(np.shape(y) + (6, 6))
    j[..., 0, 0] = j[..., 1, 1] = j[..., 2, 2] = 1.0
    j[..., 0, 4] = j[..., 4, 0] = z
    j[..., 0, 5] = j[..., 5, 0] = -y
    j[..., 1, 3] = j[..., 3, 1] = -z
    j[..., 2, 3] = j[..., 3, 2] = y
    j[..., 3, 3] = y * y + z * z
    j[..., 4, 4] = z * z
    j[..., 5, 5] = y * y
    j[..., 4, 5] = j[..., 5, 4] = -y * z
    return j


BOX_WALLS = ("lower", "rear", "upper", "front")


def box_corners(width, height) -> tuple[np.ndarray, np.ndarray]:
    """Wall endpoints (p1, p2), shape (..., 4, 2), of boxes centered on the origin.

    Counter-clockwise: lower skin, rear spar, upper skin, front spar (the
    order of BOX_WALLS).  y runs from the front spar (negative) to the rear
    spar (positive), z from the lower to the upper skin.
    """
    w2 = 0.5 * np.asarray(width, dtype=float)
    h2 = 0.5 * np.asarray(height, dtype=float)
    fl = np.stack([-w2, -h2], axis=-1)
    rl = np.stack([w2, -h2], axis=-1)
    ru = np.stack([w2, h2], axis=-1)
    fu = np.stack([-w2, h2], axis=-1)
    return np.stack([fl, rl, ru, fu], axis=-2), np.stack([rl, ru, fu, fl], axis=-2)
