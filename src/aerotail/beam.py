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

Element data are arrays over all elements.  `ElementGeometry` holds what
the nodes fix (lengths, frames, 12x12 transforms, dofs and assembly
indices), `ElementSet` adds the section matrices of one design, and every
element matrix, assembly and element state is one batched expression over
them.  Every model is clamped at node 0; its other dofs (`free_dofs`) are
free.

A model may also hold a stack of designs on the same nodes: section
matrices with a leading design axis give element matrices, K, M and
element states with that axis too, each design's entries bit-identical to
its own model's, and so do the two lowest frequencies
(`lowest_frequencies`).  The dense solvers (`static_solve`, `modal`,
`buckling`) take one design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import (
    LinAlgWarning,
    cho_factor,
    cho_solve,
    cho_solve_banded,
    cholesky_banded,
    eigh,
    solve_triangular,
)
from scipy.linalg.lapack import dpocon, dsytrf

# smallest eigenvalue mu of U^-T (-K_g) U^-1, K_ff = U'U, that counts as a
# buckling mode with load factor 1 / mu
BUCKLING_TAU = 1e-12

# force -> moment lever about the element axis unit vector
_J_LEVER = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
# end-load resultant gradient along the element: A(x) = I + (L - x) A1
_A1 = np.zeros((6, 6))
_A1[3:, :3] = _J_LEVER

_UP = np.array([0.0, 0.0, 1.0])

# geometric stiffness: plane (uy, rz), lateral slope pairs with +rz, and
# plane (uz, ry), lateral slope pairs with -ry
_MAP_Y = np.array([1, 5, 7, 11])
_MAP_Z = np.array([2, 4, 8, 10])
_SIGN = np.diag([1.0, -1.0, 1.0, -1.0])


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


@dataclass(frozen=True)
class ElementGeometry:
    """Design-independent data of two-node elements on fixed nodes, per element.

    rigid maps node-1 motion to node 2 in local axes, flex2 and flex3 are
    L^2 / 2 and L^3 / 3, mid maps the end-2 load to the midpoint resultant,
    geometric is the consistent geometric stiffness per unit N / L of one
    bending plane, transform maps global to local dofs, and scatter holds
    the flat index of every 12x12 entry in the assembled matrix, element by
    element.
    """

    length: np.ndarray  # (n,)
    rigid: np.ndarray  # (n, 6, 6)
    flex2: np.ndarray  # (n,)
    flex3: np.ndarray  # (n,)
    mid: np.ndarray  # (n, 6, 6)
    geometric: np.ndarray  # (n, 4, 4)
    transform: np.ndarray  # (n, 12, 12)
    dofs: np.ndarray  # (n, 12)
    scatter: np.ndarray  # (n * 144,)

    @classmethod
    def build(cls, nodes: np.ndarray, pairs) -> "ElementGeometry":
        nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
        n_dof = 6 * nodes.shape[0]
        lengths, rigid, mid, geometric, transform, dofs = [], [], [], [], [], []
        for i, j in pairs:
            frame = element_frame(nodes[i], nodes[j])
            L = float(np.linalg.norm(nodes[j] - nodes[i]))
            lengths.append(L)
            r = np.eye(6)
            r[:3, 3:] = -L * _J_LEVER
            rigid.append(r)
            a_mid = np.eye(6)
            a_mid[3:, :3] = 0.5 * L * _J_LEVER
            mid.append(a_mid)
            geometric.append(
                [
                    [6.0 / 5.0, L / 10.0, -6.0 / 5.0, L / 10.0],
                    [L / 10.0, 2.0 * L**2 / 15.0, -L / 10.0, -(L**2) / 30.0],
                    [-6.0 / 5.0, -L / 10.0, 6.0 / 5.0, -L / 10.0],
                    [L / 10.0, -(L**2) / 30.0, -L / 10.0, 2.0 * L**2 / 15.0],
                ]
            )
            q = np.zeros((12, 12))
            for b in range(4):
                q[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = frame.T
            transform.append(q)
            dofs.append(np.concatenate([6 * i + np.arange(6), 6 * j + np.arange(6)]))
        dofs = np.array(dofs, dtype=int).reshape(-1, 12)
        # powers of L in Python floats, element by element: an array power
        # may round L**3 differently from the scalar one
        return cls(
            length=np.array(lengths, dtype=float),
            rigid=np.array(rigid).reshape(-1, 6, 6),
            flex2=np.array([0.5 * L**2 for L in lengths], dtype=float),
            flex3=np.array([L**3 / 3.0 for L in lengths], dtype=float),
            mid=np.array(mid).reshape(-1, 6, 6),
            geometric=np.array(geometric, dtype=float).reshape(-1, 4, 4),
            transform=np.array(transform).reshape(-1, 12, 12),
            dofs=dofs,
            scatter=(dofs[:, :, None] * n_dof + dofs[:, None, :]).ravel(),
        )


def free_dofs(n_nodes: int) -> np.ndarray:
    """Free dofs of a beam on n_nodes nodes clamped at node 0: every dof but node 0's."""
    return np.arange(6, 6 * n_nodes)


def stack_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for vectors x with any leading stack axes: one gemv per vector, as a @ x."""
    return (a @ x[..., None])[..., 0]


def _element_stiffness(sc: np.ndarray, g: ElementGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Exact 12x12 local stiffnesses and end stiffnesses K22 from Sc = C^-1."""
    a1t_sc = _A1.T @ sc
    f22 = (
        g.length[:, None, None] * sc
        + g.flex2[:, None, None] * (sc @ _A1 + a1t_sc)
        + g.flex3[:, None, None] * (a1t_sc @ _A1)
    )
    k22 = np.linalg.inv(f22)
    k22 = 0.5 * (k22 + k22.swapaxes(-1, -2))
    rt = g.rigid.swapaxes(-1, -2)
    k = np.empty(k22.shape[:-2] + (12, 12))
    k[..., :6, :6] = rt @ k22 @ g.rigid
    k[..., :6, 6:] = -rt @ k22
    k[..., 6:, :6] = k[..., :6, 6:].swapaxes(-1, -2)
    k[..., 6:, 6:] = k22
    return 0.5 * (k + k.swapaxes(-1, -2)), k22


def _element_mass(m_sec: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Consistent masses from linear interpolation of all six components."""
    m = np.empty(m_sec.shape[:-2] + (12, 12))
    m[..., :6, :6] = m[..., 6:, 6:] = (length / 3.0)[:, None, None] * m_sec
    m[..., :6, 6:] = m[..., 6:, :6] = (length / 6.0)[:, None, None] * m_sec
    return m


def _element_geometric(axial_force: np.ndarray, g: ElementGeometry) -> np.ndarray:
    """Consistent geometric stiffnesses of elements carrying axial forces N.

    Positive N (tension) stiffens lateral deflection.  Only the two bending
    planes participate.
    """
    base = (axial_force / g.length)[:, None, None] * g.geometric
    kg = np.zeros((base.shape[0], 12, 12))
    kg[:, _MAP_Y[:, None], _MAP_Y] += base
    kg[:, _MAP_Z[:, None], _MAP_Z] += _SIGN @ base @ _SIGN
    return kg


def _assemble(g: ElementGeometry, local: np.ndarray, n_dof: int) -> np.ndarray:
    """Sum the global element matrices into n_dof x n_dof, element by element.

    local may carry leading stack axes; each design's matrix then goes to
    its own offset of one bincount, so its sums run in the same order.
    """
    blocks = g.transform.swapaxes(-1, -2) @ local @ g.transform
    stack = blocks.shape[:-3]
    n_designs = math.prod(stack)
    offsets = (n_dof * n_dof) * np.arange(n_designs)
    return np.bincount(
        (offsets[:, None] + g.scatter).ravel(),
        weights=blocks.ravel(),
        minlength=n_designs * n_dof * n_dof,
    ).reshape(stack + (n_dof, n_dof))


def _count_positive(a: np.ndarray) -> int:
    """Number of positive eigenvalues of the symmetric matrix a.

    By Sylvester's law of inertia it is the number of positive eigenvalues
    of D in the Bunch-Kaufman factorization a = L D L' (LAPACK dsytrf).  A
    1x1 pivot counts when positive; a 2x2 pivot has a negative determinant
    by its choice rule, so it holds exactly one positive eigenvalue.  The
    default workspace selects the unblocked code, which on the banded beam
    matrices ran 3x faster than the blocked one (order 348).
    """
    ldu, ipiv, info = dsytrf(a, lower=1)
    if info < 0:
        raise ValueError(f"dsytrf rejected argument {-info}")
    one = ipiv > 0
    return int(np.count_nonzero(ldu.diagonal()[one] > 0.0)) + int(np.count_nonzero(~one)) // 2


@dataclass(frozen=True)
class ElementSet:
    """Beam elements in array form.

    C and M are the 6x6 stiffness and inertia of each distinct section,
    (..., n_sections, 6, 6) with optional leading stack axes; section maps
    every element to one of them.
    """

    geometry: ElementGeometry
    C: np.ndarray
    M: np.ndarray
    section: np.ndarray


@dataclass(frozen=True)
class PointMass:
    """Translational mass lumped at a node."""

    node: int
    mass: float


@dataclass
class ModalResult:
    omega: np.ndarray  # rad/s, ascending
    shapes: np.ndarray  # (n_dof, n_modes), mass-orthonormal, zeros at the clamped node


@dataclass
class BucklingResult:
    factors: np.ndarray  # positive load multipliers, ascending
    shapes: np.ndarray  # (n_dof, len(factors))


class BeamModel:
    """Assembled beam clamped at node 0: nodes, an ElementSet on them, point masses.

    stack is the leading shape of the element set's section matrices, ()
    for one design; K, M, displacements and element states carry it too.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        elements: ElementSet,
        point_masses: list[PointMass] = (),
    ):
        self.nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
        self.n_nodes = self.nodes.shape[0]
        self.n_dof = 6 * self.n_nodes
        self.free = free_dofs(self.n_nodes)
        self.point_masses = tuple(point_masses)
        self.elements = elements
        self.stack = elements.C.shape[:-3]
        per_element = (..., elements.section, slice(None), slice(None))
        self._C = elements.C[per_element]
        sc = np.linalg.inv(elements.C)[per_element]
        self._k_local, self._k22 = _element_stiffness(sc, elements.geometry)
        self._m_local = _element_mass(elements.M[per_element], elements.geometry.length)
        self._K: np.ndarray | None = None
        self._M: np.ndarray | None = None
        self._kff_cho: tuple | None = None
        self._kff_band: np.ndarray | None = None
        self._modes: dict[int, ModalResult] = {}
        self._omega_pair: np.ndarray | None = None

    # -- assembly ---------------------------------------------------------

    def stiffness(self) -> np.ndarray:
        if self._K is None:
            k = _assemble(self.elements.geometry, self._k_local, self.n_dof)
            self._K = 0.5 * (k + k.swapaxes(-1, -2))
        return self._K

    def mass(self) -> np.ndarray:
        if self._M is None:
            m = _assemble(self.elements.geometry, self._m_local, self.n_dof)
            for pm in self.point_masses:
                base = 6 * pm.node
                m[..., base : base + 3, base : base + 3] += pm.mass * np.eye(3)
            self._M = 0.5 * (m + m.swapaxes(-1, -2))
        return self._M

    def total_mass(self):
        """Translational mass z' M z, a float or one per design of the stack."""
        z = np.zeros(self.n_dof)
        z[2::6] = 1.0
        return np.vecdot(z @ self.mass(), z)

    def geometric_stiffness(self, u: np.ndarray) -> np.ndarray:
        """Assembled geometric stiffness at the displacement state u."""
        g = self.elements.geometry
        kg = _assemble(g, _element_geometric(self._end_forces(u)[:, 0], g), self.n_dof)
        return 0.5 * (kg + kg.T)

    # -- element state ----------------------------------------------------

    def _deformations(self, u: np.ndarray) -> np.ndarray:
        """Local end-2 displacements relative to the rigid motion of end 1, (n_elem, 6)."""
        g = self.elements.geometry
        u_loc = stack_matvec(g.transform, np.asarray(u, dtype=float)[..., g.dofs])
        return u_loc[..., 6:] - stack_matvec(g.rigid, u_loc[..., :6])

    def _end_forces(self, u: np.ndarray) -> np.ndarray:
        """Local end-2 load vectors, (..., n_elem, 6)."""
        return stack_matvec(self._k22, self._deformations(u))

    def element_mid_strains(self, u: np.ndarray) -> np.ndarray:
        """Section strain vector of every element at its midpoint, (..., n_elem, 6)."""
        s_mid = self.elements.geometry.mid @ self._end_forces(u)[..., None]
        return np.linalg.solve(self._C, s_mid)[..., 0]

    def element_strain_energy(self, u: np.ndarray) -> np.ndarray:
        d = self._deformations(u)
        return ((0.5 * d)[:, None, :] @ self._k22 @ d[:, :, None])[:, 0, 0]

    # -- solvers ----------------------------------------------------------

    def free_block(self, a: np.ndarray) -> np.ndarray:
        """The free-dof block of (a stack of) n_dof x n_dof matrices, as a view."""
        return a[..., 6:, 6:]

    def _kff_cholesky(self) -> tuple:
        """Upper Cholesky factor of the free-dof stiffness, as cho_factor returns it.

        Factored once per model, like K and M are assembled once.  Warns
        with LinAlgWarning when the reciprocal condition number (LAPACK
        pocon) is below machine epsilon, as scipy.linalg.solve does.
        """
        if self._kff_cho is None:
            kff = self.free_block(self.stiffness())
            self._kff_cho = cho_factor(kff, lower=False)
            rcond, _ = dpocon(self._kff_cho[0], np.linalg.norm(kff, 1))
            if not rcond >= np.finfo(float).eps:
                warnings.warn(
                    f"ill-conditioned free-dof stiffness (rcond={rcond:.6g}): "
                    "results may not be accurate",
                    LinAlgWarning,
                    stacklevel=3,
                )
        return self._kff_cho

    @property
    def half_bandwidth(self) -> int:
        """Largest |i - j| of a stiffness entry, from the element dof map."""
        dofs = self.elements.geometry.dofs
        return int((dofs.max(axis=1) - dofs.min(axis=1)).max())

    def kff_solve(self, b: np.ndarray) -> np.ndarray:
        """K_ff^-1 b for b on the free dofs, one vector or columns.

        Solves through an upper Cholesky factor of K_ff in band storage,
        factored once per model like the dense one.
        """
        if self._kff_band is None:
            kd = self.half_bandwidth
            kff = self.free_block(self.stiffness())
            band = np.zeros((kd + 1, kff.shape[0]))
            for k in range(kd + 1):
                band[kd - k, k:] = np.diagonal(kff, k)
            self._kff_band = cholesky_banded(band, lower=False)
        return cho_solve_banded((self._kff_band, False), b)

    def static_solve(self, loads: np.ndarray) -> np.ndarray:
        """Linear displacement state under nodal loads; zeros at clamped dofs."""
        f = np.asarray(loads, dtype=float)
        if f.shape != (self.n_dof,):
            raise ValueError(f"load vector must have length {self.n_dof}")
        u = np.zeros(self.n_dof)
        u[self.free] = cho_solve(self._kff_cholesky(), f[self.free])
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
            kff = self.free_block(self.stiffness())
            mff = self.free_block(self.mass())
            w2, vec = eigh(kff, mff, subset_by_index=[0, n - 1])
            shapes = np.zeros((self.n_dof, n))
            shapes[self.free, :] = vec
            omega = np.sqrt(np.clip(w2, 0.0, None))
            omega.flags.writeable = False
            shapes.flags.writeable = False
            self._modes[n] = ModalResult(omega=omega, shapes=shapes)
        return self._modes[n]

    def lowest_frequencies(self) -> np.ndarray:
        """The two lowest circular frequencies, (..., 2), without mode shapes.

        One pair per design of a stack; cached and read-only like the modes.
        """
        if self._omega_pair is None:
            w2 = eigh(self.free_block(self.stiffness()), self.free_block(self.mass()),
                      subset_by_index=[0, 1], eigvals_only=True)
            self._omega_pair = np.sqrt(np.clip(w2, 0.0, None))
            self._omega_pair.flags.writeable = False
        return self._omega_pair

    def buckling(self, loads: np.ndarray, n_modes: int = 8) -> BucklingResult:
        """Linearized buckling factors for the given reference load, ascending.

        With K_ff = U'U, a factor is 1 / mu for an eigenvalue mu > BUCKLING_TAU
        of U^-T (-K_g) U^-1.  By Sylvester's law of inertia their number is
        the number of positive eigenvalues of -K_g - BUCKLING_TAU K_ff, read
        from one LDL' factorization; only the n_modes largest mu, if any,
        are then solved for.
        """
        u = self.static_solve(loads)
        kg = self.free_block(self.geometric_stiffness(u))
        kff = self.free_block(self.stiffness())
        k = min(_count_positive(-kg - BUCKLING_TAU * kff), n_modes)
        if k <= 0:
            return BucklingResult(factors=np.zeros(0), shapes=np.zeros((self.n_dof, 0)))
        upper = self._kff_cholesky()[0]
        a = solve_triangular(upper, -kg, trans="T")
        a = solve_triangular(upper, a.T, trans="T")
        a = 0.5 * (a + a.T)
        n = a.shape[0]
        mu, y = eigh(a, subset_by_index=[n - k, n - 1])
        mu, y = mu[::-1], y[:, ::-1]  # largest mu, so smallest factor, first
        keep = mu > BUCKLING_TAU
        shapes = np.zeros((self.n_dof, np.count_nonzero(keep)))
        shapes[self.free, :] = solve_triangular(upper, y[:, keep])
        return BucklingResult(factors=1.0 / mu[keep], shapes=shapes)

    def gravity_load(self, g: float = 9.80665) -> np.ndarray:
        """Consistent self-weight nodal loads for gravity g along -z."""
        acc = np.zeros(self.n_dof)
        acc[2::6] = -g
        return self.mass() @ acc
