"""Spatial Timoshenko beam finite elements on arbitrary cross sections.

Element stiffness comes from the flexibility of the clamped-free member
under end loads.  The internal force resultant at axial station x due to a
unit end load is A(x) = I + (L - x) A1, with A1 carrying the force-to-moment
lever, so the end flexibility

    F22 = L Sc + (L^2 / 2)(Sc A1 + A1' Sc) + (L^3 / 3) A1' Sc A1,   Sc = C^-1

is the exact complementary energy Hessian for any symmetric positive
definite section stiffness C, couplings included.  The resulting element
reproduces tip deflections of prismatic end-loaded members to round-off and
carries an exact six-dimensional rigid-body null space.

Mass uses independent linear interpolation of all six section displacement
components against the full 6x6 section inertia.  Geometric stiffness is the
standard cubic-beam consistent matrix driven by the element axial force;
torsional and shear contributions to preload stiffening are neglected.

Local element axes: x along the member, z as close to global z as
orthogonality allows (global x for vertical members), y = z cross x.
Degrees of freedom per node are [ux, uy, uz, rx, ry, rz] in global axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .section import SectionProperties

# force -> moment lever about the element axis unit vector
_J_LEVER = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])

_UP = np.array([0.0, 0.0, 1.0])


def element_frame(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Rotation with columns (x, y, z) of the local element frame in global axes."""
    ex = np.asarray(p2, dtype=float) - np.asarray(p1, dtype=float)
    length = np.linalg.norm(ex)
    if length <= 0.0:
        raise ValueError("element has zero length")
    ex = ex / length
    up = _UP
    ez = up - (up @ ex) * ex
    nz = np.linalg.norm(ez)
    if nz < 1e-8:
        up = np.array([1.0, 0.0, 0.0])
        ez = up - (up @ ex) * ex
        nz = np.linalg.norm(ez)
    ez = ez / nz
    ey = np.cross(ez, ex)
    return np.column_stack([ex, ey, ez])


def element_stiffness_local(C: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact 12x12 local stiffness and the condensed end stiffness K22."""
    sc = np.linalg.inv(C)
    a1 = np.zeros((6, 6))
    a1[3:, :3] = _J_LEVER
    f22 = (
        length * sc
        + 0.5 * length**2 * (sc @ a1 + a1.T @ sc)
        + (length**3 / 3.0) * (a1.T @ sc @ a1)
    )
    k22 = np.linalg.inv(f22)
    k22 = 0.5 * (k22 + k22.T)
    # rigid map node 1 -> node 2 displacements
    r = np.eye(6)
    r[:3, 3:] = -length * _J_LEVER
    k = np.empty((12, 12))
    k[:6, :6] = r.T @ k22 @ r
    k[:6, 6:] = -r.T @ k22
    k[6:, :6] = k[:6, 6:].T
    k[6:, 6:] = k22
    return 0.5 * (k + k.T), k22


def element_mass_local(M_sec: np.ndarray, length: float) -> np.ndarray:
    """Consistent mass from linear interpolation of all six components."""
    m = np.empty((12, 12))
    m[:6, :6] = m[6:, 6:] = (length / 3.0) * M_sec
    m[:6, 6:] = m[6:, :6] = (length / 6.0) * M_sec
    return m


def element_geometric_local(axial_force: float, length: float) -> np.ndarray:
    """Consistent geometric stiffness of a beam carrying axial force N.

    Positive N (tension) stiffens lateral deflection.  Only the two bending
    planes participate.
    """
    n, L = axial_force, length
    base = (n / L) * np.array(
        [
            [6.0 / 5.0, L / 10.0, -6.0 / 5.0, L / 10.0],
            [L / 10.0, 2.0 * L**2 / 15.0, -L / 10.0, -(L**2) / 30.0],
            [-6.0 / 5.0, -L / 10.0, 6.0 / 5.0, -L / 10.0],
            [L / 10.0, -(L**2) / 30.0, -L / 10.0, 2.0 * L**2 / 15.0],
        ]
    )
    kg = np.zeros((12, 12))
    # plane (uy, rz): lateral slope pairs with +rz
    map_y = [1, 5, 7, 11]
    kg[np.ix_(map_y, map_y)] += base
    # plane (uz, ry): lateral slope pairs with -ry
    map_z = [2, 4, 8, 10]
    sign = np.diag([1.0, -1.0, 1.0, -1.0])
    kg[np.ix_(map_z, map_z)] += sign @ base @ sign
    return kg


@dataclass(frozen=True)
class ElementDef:
    """One beam element: node pair and section."""

    nodes: tuple[int, int]
    section: SectionProperties


@dataclass(frozen=True)
class PointMass:
    """Rigid mass lumped at a node: translational mass plus rotary inertia."""

    node: int
    mass: float
    inertia: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass
class ModalResult:
    omega: np.ndarray  # rad/s, ascending
    shapes: np.ndarray  # (n_dof, n_modes), mass-orthonormal, zeros at fixed dofs


@dataclass
class BucklingResult:
    factors: np.ndarray  # positive load multipliers, ascending
    shapes: np.ndarray  # (n_dof, len(factors))


@dataclass
class _ElementData:
    length: float
    k_local: np.ndarray
    k22: np.ndarray
    m_local: np.ndarray
    transform: np.ndarray  # 12x12 global -> local
    dofs: np.ndarray
    section: SectionProperties


class BeamModel:
    """Assembled beam: nodes, elements, clamped dofs, optional point masses."""

    def __init__(
        self,
        nodes: np.ndarray,
        elements: list[ElementDef],
        fixed_dofs: list[int] | np.ndarray = (),
        point_masses: list[PointMass] = (),
    ):
        self.nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
        self.n_nodes = self.nodes.shape[0]
        self.n_dof = 6 * self.n_nodes
        fixed = np.unique(np.asarray(fixed_dofs, dtype=int))
        if fixed.size and (fixed.min() < 0 or fixed.max() >= self.n_dof):
            raise ValueError("fixed dof index out of range")
        self.fixed = fixed
        self.free = np.setdiff1d(np.arange(self.n_dof), fixed)
        self.point_masses = tuple(point_masses)
        self.elements: list[_ElementData] = []
        for ed in elements:
            i, j = ed.nodes
            frame = element_frame(self.nodes[i], self.nodes[j])
            length = float(np.linalg.norm(self.nodes[j] - self.nodes[i]))
            k_loc, k22 = element_stiffness_local(ed.section.C, length)
            m_loc = element_mass_local(ed.section.M, length)
            q = np.zeros((12, 12))
            for b in range(4):
                q[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = frame.T
            dofs = np.concatenate([6 * i + np.arange(6), 6 * j + np.arange(6)])
            self.elements.append(
                _ElementData(length, k_loc, k22, m_loc, q, dofs, ed.section)
            )
        self._K: np.ndarray | None = None
        self._M: np.ndarray | None = None
        self._modes: dict[int, ModalResult] = {}

    # -- assembly ---------------------------------------------------------

    def stiffness(self) -> np.ndarray:
        if self._K is None:
            k = np.zeros((self.n_dof, self.n_dof))
            for e in self.elements:
                kg = e.transform.T @ e.k_local @ e.transform
                k[np.ix_(e.dofs, e.dofs)] += kg
            self._K = 0.5 * (k + k.T)
        return self._K

    def mass(self) -> np.ndarray:
        if self._M is None:
            m = np.zeros((self.n_dof, self.n_dof))
            for e in self.elements:
                mg = e.transform.T @ e.m_local @ e.transform
                m[np.ix_(e.dofs, e.dofs)] += mg
            for pm in self.point_masses:
                base = 6 * pm.node
                m[base : base + 3, base : base + 3] += pm.mass * np.eye(3)
                m[base + 3 : base + 6, base + 3 : base + 6] += np.diag(pm.inertia)
            self._M = 0.5 * (m + m.T)
        return self._M

    def total_mass(self) -> float:
        z = np.zeros(self.n_dof)
        z[2::6] = 1.0
        return float(z @ self.mass() @ z)

    def geometric_stiffness(self, u: np.ndarray) -> np.ndarray:
        """Assembled geometric stiffness at the displacement state u."""
        kg = np.zeros((self.n_dof, self.n_dof))
        for e, n in zip(self.elements, self.element_axial_forces(u)):
            kg_loc = element_geometric_local(n, e.length)
            kg[np.ix_(e.dofs, e.dofs)] += e.transform.T @ kg_loc @ e.transform
        return 0.5 * (kg + kg.T)

    # -- element state ----------------------------------------------------

    @staticmethod
    def _element_deformation(e: _ElementData, u: np.ndarray) -> np.ndarray:
        """Local end-2 displacement relative to the rigid motion of end 1."""
        u_loc = e.transform @ u[e.dofs]
        r = np.eye(6)
        r[:3, 3:] = -e.length * _J_LEVER
        return u_loc[6:] - r @ u_loc[:6]

    def _element_end_forces(self, e: _ElementData, u: np.ndarray) -> np.ndarray:
        """Local end-2 load vector of one element."""
        return e.k22 @ self._element_deformation(e, u)

    def element_axial_forces(self, u: np.ndarray) -> np.ndarray:
        return np.array([self._element_end_forces(e, u)[0] for e in self.elements])

    def element_mid_strains(self, u: np.ndarray) -> np.ndarray:
        """Section strain vector of every element at its midpoint, (n_elem, 6)."""
        out = np.empty((len(self.elements), 6))
        for k, e in enumerate(self.elements):
            p2 = self._element_end_forces(e, u)
            a_mid = np.eye(6)
            a_mid[3:, :3] = 0.5 * e.length * _J_LEVER
            s_mid = a_mid @ p2
            out[k] = np.linalg.solve(e.section.C, s_mid)
        return out

    def element_strain_energy(self, u: np.ndarray) -> np.ndarray:
        out = np.empty(len(self.elements))
        for k, e in enumerate(self.elements):
            d = self._element_deformation(e, u)
            out[k] = 0.5 * d @ e.k22 @ d
        return out

    # -- solvers ----------------------------------------------------------

    def _free(self, a: np.ndarray) -> np.ndarray:
        return a[np.ix_(self.free, self.free)]

    def static_solve(self, loads: np.ndarray) -> np.ndarray:
        """Linear displacement state under nodal loads; zeros at clamped dofs."""
        f = np.asarray(loads, dtype=float)
        if f.shape != (self.n_dof,):
            raise ValueError(f"load vector must have length {self.n_dof}")
        u = np.zeros(self.n_dof)
        u[self.free] = scipy.linalg.solve(
            self._free(self.stiffness()), f[self.free], assume_a="pos"
        )
        return u

    def modal(self, n_modes: int) -> ModalResult:
        """Lowest vibration modes; shapes are mass-orthonormal.

        Results are cached per mode count, like K and M, and returned
        read-only because every caller shares them.
        """
        if n_modes < 1:
            raise ValueError("n_modes must be positive")
        n = min(n_modes, self.free.size)
        if n not in self._modes:
            kff = self._free(self.stiffness())
            mff = self._free(self.mass())
            w2, vec = scipy.linalg.eigh(kff, mff, subset_by_index=[0, n - 1])
            shapes = np.zeros((self.n_dof, n))
            shapes[self.free, :] = vec
            omega = np.sqrt(np.clip(w2, 0.0, None))
            omega.flags.writeable = False
            shapes.flags.writeable = False
            self._modes[n] = ModalResult(omega=omega, shapes=shapes)
        return self._modes[n]

    def buckling(self, loads: np.ndarray, n_modes: int = 8) -> BucklingResult:
        """Linearized buckling factors for the given reference load."""
        u = self.static_solve(loads)
        kg = self._free(self.geometric_stiffness(u))
        kff = self._free(self.stiffness())
        chol = scipy.linalg.cholesky(kff, lower=True)
        a = scipy.linalg.solve_triangular(chol, -kg, lower=True)
        a = scipy.linalg.solve_triangular(chol, a.T, lower=True)
        a = 0.5 * (a + a.T)
        mu, y = scipy.linalg.eigh(a)
        pos = mu > 1e-12
        factors = np.sort(1.0 / mu[pos])[:n_modes]
        shapes = np.zeros((self.n_dof, factors.size))
        if factors.size:
            order = np.argsort(1.0 / mu[pos])
            y_pos = y[:, pos][:, order[:n_modes]]
            vec = scipy.linalg.solve_triangular(chol, y_pos, lower=True, trans="T")
            shapes[self.free, :] = vec
        return BucklingResult(factors=factors, shapes=shapes)

    def gravity_load(self, g: float = 9.80665) -> np.ndarray:
        """Consistent self-weight nodal loads for gravity g along -z."""
        acc = np.zeros(self.n_dof)
        acc[2::6] = -g
        return self.mass() @ acc


def cantilever_model(
    section: SectionProperties,
    length: float,
    n_elements: int,
    axis=(1.0, 0.0, 0.0),
    point_masses: list[PointMass] = (),
) -> BeamModel:
    """Straight cantilever along `axis`, clamped at the origin node."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    direction = np.asarray(axis, dtype=float)
    direction = direction / np.linalg.norm(direction)
    stations = np.linspace(0.0, length, n_elements + 1)
    nodes = stations[:, None] * direction[None, :]
    elements = [ElementDef((i, i + 1), section) for i in range(n_elements)]
    return BeamModel(nodes, elements, fixed_dofs=np.arange(6), point_masses=point_masses)
