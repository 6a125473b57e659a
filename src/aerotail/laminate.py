"""Composite laminate core.

Lamination parameters, classical laminate theory stiffness, laminate
feasibility constraints and Tsai-Wu strength evaluation.

Conventions: symmetric laminates only, so the membrane-bending coupling
block is identically zero and stiffness is fully described by the A and D
matrices. Lamination parameters are the normalized through-thickness
moments of (cos 2t, cos 4t, sin 2t, sin 4t); the membrane set uses the
plain thickness average, the bending set the z^2-weighted average.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaterialProperties",
    "LaminationParameters",
    "PanelDesign",
    "ABDMatrices",
    "lp_from_stack",
    "abd_from_lp",
    "membrane_stiffness",
    "feasibility_residuals",
    "feasibility_gradient",
    "tsai_wu_factor",
    "tsai_wu_coefficients",
]


@dataclass(frozen=True)
class MaterialProperties:
    """Orthotropic ply material with in-plane strengths.

    Moduli in Pa, density in kg/m^3. Strengths are
    magnitudes (all positive): Xt/Xc fiber direction tension/compression,
    Yt/Yc transverse, S in-plane shear.
    """

    E1: float
    E2: float
    G12: float
    nu12: float
    rho: float
    Xt: float
    Xc: float
    Yt: float
    Yc: float
    S: float

    def __post_init__(self):
        if min(self.E1, self.E2, self.G12) <= 0.0:
            raise ValueError("elastic moduli must be positive")
        if not 0.0 < self.nu12 < 0.5:
            raise ValueError("nu12 outside (0, 0.5)")
        if self.nu12 * self.nu21 >= 1.0:
            raise ValueError("nu12*nu21 must be < 1")
        if min(self.Xt, self.Xc, self.Yt, self.Yc, self.S) <= 0.0:
            raise ValueError("strengths must be positive")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")

    @property
    def nu21(self) -> float:
        return self.nu12 * self.E2 / self.E1

    def reduced_stiffness(self) -> np.ndarray:
        """Plane-stress reduced stiffness Q of the unidirectional ply."""
        den = 1.0 - self.nu12 * self.nu21
        q11 = self.E1 / den
        q22 = self.E2 / den
        q12 = self.nu12 * self.E2 / den
        return np.array([[q11, q12, 0.0], [q12, q22, 0.0], [0.0, 0.0, self.G12]])

    def invariants(self) -> np.ndarray:
        """Material invariants (U1..U5) of the reduced stiffness."""
        q = self.reduced_stiffness()
        q11, q22, q12, q66 = q[0, 0], q[1, 1], q[0, 1], q[2, 2]
        u1 = (3 * q11 + 3 * q22 + 2 * q12 + 4 * q66) / 8.0
        u2 = (q11 - q22) / 2.0
        u3 = (q11 + q22 - 2 * q12 - 4 * q66) / 8.0
        u4 = (q11 + q22 + 6 * q12 - 4 * q66) / 8.0
        u5 = (q11 + q22 - 2 * q12 + 4 * q66) / 8.0
        return np.array([u1, u2, u3, u4, u5])


@dataclass(frozen=True)
class LaminationParameters:
    """Membrane (xiA) and bending (xiD) lamination parameters, 4 each."""

    xiA: np.ndarray
    xiD: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xiA", np.asarray(self.xiA, dtype=float))
        object.__setattr__(self, "xiD", np.asarray(self.xiD, dtype=float))
        if self.xiA.shape != (4,) or self.xiD.shape != (4,):
            raise ValueError("xiA and xiD must be 4-vectors")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.xiA, self.xiD])

    @classmethod
    def from_vector(cls, v) -> "LaminationParameters":
        v = np.asarray(v, dtype=float)
        if v.shape != (8,):
            raise ValueError("expected an 8-vector")
        return cls(v[:4].copy(), v[4:].copy())


@dataclass(frozen=True)
class PanelDesign:
    """One panel's design: lamination parameters plus total thickness (m)."""

    lp: LaminationParameters
    thickness: float

    def __post_init__(self):
        if self.thickness <= 0.0:
            raise ValueError("thickness must be positive")


@dataclass(frozen=True)
class ABDMatrices:
    """Classical laminate theory stiffness blocks; B vanishes for symmetric stacks."""

    A: np.ndarray
    D: np.ndarray


def _trig_moments(angles: np.ndarray) -> np.ndarray:
    a2 = 2.0 * angles
    return np.stack([np.cos(a2), np.cos(2 * a2), np.sin(a2), np.sin(2 * a2)])


def lp_from_stack(angles) -> LaminationParameters:
    """Lamination parameters of a symmetric laminate from its half-stack.

    Parameters
    ----------
    angles : sequence of float
        Ply angles in radians of the half-stack, listed from the laminate
        mid-plane outward. The full laminate mirrors this list, so every
        angle appears twice at mirrored z positions.

    Returns
    -------
    LaminationParameters
        Membrane moments (thickness-averaged) and bending moments
        (z^2-weighted, normalized by h^3/12).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angle list must be nonempty")
    n = angles.size
    # Half-laminate ply interfaces on [0, h/2] in units of ply thickness.
    z = np.arange(n + 1, dtype=float)
    dz = z[1:] - z[:-1]
    dz3 = z[1:] ** 3 - z[:-1] ** 3
    h_half = z[-1]
    f = _trig_moments(angles)
    # Symmetry: full-stack integrals are twice the half-stack ones.
    xi_a = f @ dz / h_half
    xi_d = f @ dz3 / h_half**3
    return LaminationParameters(xi_a, xi_d)


@functools.lru_cache(maxsize=8)  # a run uses one material; read-only results
def _gamma_matrices(material: MaterialProperties):
    """Invariant matrices G0..G4 of the ply material, built once per material."""
    u1, u2, u3, u4, u5 = material.invariants()
    g0 = np.array([[u1, u4, 0.0], [u4, u1, 0.0], [0.0, 0.0, u5]])
    g1 = np.array([[u2, 0.0, 0.0], [0.0, -u2, 0.0], [0.0, 0.0, 0.0]])
    g2 = np.array([[u3, -u3, 0.0], [-u3, u3, 0.0], [0.0, 0.0, -u3]])
    g3 = np.array([[0.0, 0.0, u2 / 2], [0.0, 0.0, u2 / 2], [u2 / 2, u2 / 2, 0.0]])
    g4 = np.array([[0.0, 0.0, u3], [0.0, 0.0, -u3], [u3, -u3, 0.0]])
    for g in (g0, g1, g2, g3, g4):
        g.flags.writeable = False
    return g0, g1, g2, g3, g4


def _stiffness(xi, g) -> np.ndarray:
    """G0 + sum_k xi_k G_k, accumulated in k order."""
    out = g[0].copy()
    for k in range(4):
        out += xi[k] * g[k + 1]
    return out


def membrane_stiffness(design: PanelDesign, material: MaterialProperties) -> np.ndarray:
    """The A matrix alone, t * (G0 + sum_k xiA_k G_k).

    Like abd_from_lp it rejects t <= 0 and any of the eight lamination
    parameters outside [-1, 1], although xiD does not enter A.
    """
    t = design.thickness
    if t <= 0.0:
        raise ValueError("thickness must be positive")
    if np.any(np.abs(design.lp.as_vector()) > 1.0 + 1e-12):
        raise ValueError("lamination parameters outside [-1, 1]")
    return t * _stiffness(design.lp.xiA, _gamma_matrices(material))


def abd_from_lp(design: PanelDesign, material: MaterialProperties) -> ABDMatrices:
    """A and D stiffness matrices from lamination parameters.

    A = t * (G0 + sum_k xiA_k G_k), D = t^3/12 * (G0 + sum_k xiD_k G_k),
    with G_k the invariant matrices of the ply material.
    """
    a = membrane_stiffness(design, material)
    d = _stiffness(design.lp.xiD, _gamma_matrices(material))
    return ABDMatrices(A=a, D=design.thickness**3 / 12.0 * d)


def _moment_set_residuals(xi: np.ndarray) -> np.ndarray:
    """Residuals of the trigonometric-moment feasibility set for one xi set.

    A 4-vector (xi1..xi4) is realizable as (cos 2t, cos 4t, sin 2t, sin 4t)
    moments of some through-thickness angle distribution iff the 3x3
    Hermitian Toeplitz matrix of the first two circular moments is positive
    semidefinite. Its leading minors give three polynomial inequalities.
    """
    x1, x2, x3, x4 = xi
    g_a = x1 * x1 + x3 * x3 - 1.0
    g_b = x2 * x2 + x4 * x4 - 1.0
    g_c = (
        2.0 * x1 * x1 * (1.0 - x2)
        + 2.0 * x3 * x3 * (1.0 + x2)
        + x2 * x2
        + x4 * x4
        - 4.0 * x1 * x3 * x4
        - 1.0
    )
    return np.array([g_a, g_b, g_c])


def feasibility_residuals(lp: LaminationParameters) -> np.ndarray:
    """Six smooth feasibility residuals over (xiA, xiD); feasible iff <= 0.

    The first three inequalities bound the membrane parameters, the last
    three the bending parameters. Both sets are normalized moments of the
    same trigonometric functions (under the plain and the z^2-weighted
    thickness measures), so any laminate built from real plies satisfies
    every residual.
    """
    return np.concatenate(
        [_moment_set_residuals(lp.xiA), _moment_set_residuals(lp.xiD)]
    )


def _moment_set_gradient(xi: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = xi
    g = np.zeros((3, 4))
    g[0, 0] = 2.0 * x1
    g[0, 2] = 2.0 * x3
    g[1, 1] = 2.0 * x2
    g[1, 3] = 2.0 * x4
    g[2, 0] = 4.0 * x1 * (1.0 - x2) - 4.0 * x3 * x4
    g[2, 1] = -2.0 * x1 * x1 + 2.0 * x3 * x3 + 2.0 * x2
    g[2, 2] = 4.0 * x3 * (1.0 + x2) - 4.0 * x1 * x4
    g[2, 3] = 2.0 * x4 - 4.0 * x1 * x3
    return g


def feasibility_gradient(lp: LaminationParameters) -> np.ndarray:
    """Analytic 6x8 Jacobian of feasibility_residuals w.r.t. (xiA, xiD)."""
    jac = np.zeros((6, 8))
    jac[:3, :4] = _moment_set_gradient(lp.xiA)
    jac[3:, 4:] = _moment_set_gradient(lp.xiD)
    return jac


def tsai_wu_coefficients(material: MaterialProperties):
    """Tsai-Wu polynomial coefficients (F1, F2, F11, F22, F66, F12)."""
    f1 = 1.0 / material.Xt - 1.0 / material.Xc
    f2 = 1.0 / material.Yt - 1.0 / material.Yc
    f11 = 1.0 / (material.Xt * material.Xc)
    f22 = 1.0 / (material.Yt * material.Yc)
    f66 = 1.0 / material.S**2
    f12 = -0.5 * np.sqrt(f11 * f22)
    return f1, f2, f11, f22, f66, f12


def tsai_wu_factor(in_plane_stresses, material: MaterialProperties) -> float:
    """Tsai-Wu failure polynomial for (s1, s2, t12) in Pa; fails at 1."""
    s1, s2, t12 = in_plane_stresses
    f1, f2, f11, f22, f66, f12 = tsai_wu_coefficients(material)
    return (
        f1 * s1
        + f2 * s2
        + f11 * s1 * s1
        + f22 * s2 * s2
        + f66 * t12 * t12
        + 2.0 * f12 * s1 * s2
    )
