"""Steady vortex lattice on a flat half-wing with beam coupling maps.

Horseshoe vortices sit at panel quarter chords with trailing legs running
downstream to infinity; flow tangency is collocated at panel three-quarter
chords.  The x axis points downstream, y spans outboard, z is up, and the
opposite half wing enters through an explicit mirror image, so symmetric
flight states need only the modeled half.

Compressibility follows Prandtl-Glauert: the incompressible influence
matrix is scaled by beta = sqrt(1 - Ma^2), which raises the lift slope by
1/beta.  Forces keep only the freestream cross bound-leg term, a pure-lift
model without induced drag resolution.

Coupling to a spanwise beam uses three linear maps: T_load carries panel
lifts to consistent nodal forces and moments (conserving force and moment
exactly), T_wash turns nodal rotations into control-point incidence, and
T_vel turns nodal velocities into control-point normal velocity for the
quasi-steady damping term.

The influence matrix and the coupling maps are array expressions over
every control-point/vortex pair and every panel; nothing loops over panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CUTOFF = 1e-10


@dataclass(frozen=True)
class Planform:
    """Straight-leading-edge trapezoidal half wing spanning y in [0, semi_span]."""

    semi_span: float
    root_chord: float
    tip_chord: float

    def __post_init__(self):
        if self.semi_span <= 0 or self.root_chord <= 0 or self.tip_chord <= 0:
            raise ValueError("planform dimensions must be positive")

    def chord(self, y):
        frac = np.asarray(y, dtype=float) / self.semi_span
        return self.root_chord + (self.tip_chord - self.root_chord) * frac


@dataclass(frozen=True)
class FlowConditions:
    """Freestream state; alpha is the rigid angle of attack in radians."""

    V: float
    rho: float
    alpha: float = 0.0
    mach: float = 0.0

    def __post_init__(self):
        if self.V <= 0 or self.rho <= 0:
            raise ValueError("V and rho must be positive")
        if not 0.0 <= self.mach < 1.0:
            raise ValueError("mach must lie in [0, 1)")

    @property
    def beta(self) -> float:
        return float(np.sqrt(1.0 - self.mach**2))


@dataclass
class Lattice:
    """Half-wing horseshoe lattice; arrays are per panel."""

    a_pts: np.ndarray  # inboard bound-leg end, (n, 3)
    b_pts: np.ndarray  # outboard bound-leg end, (n, 3)
    cpts: np.ndarray  # control points, (n, 3)
    load_pts: np.ndarray  # bound-leg midpoints where lift acts, (n, 3)
    dy: np.ndarray  # spanwise widths
    nx: int  # chordwise rows per spanwise strip

    @property
    def n_panels(self) -> int:
        return self.cpts.shape[0]


def build_lattice(planform: Planform, nx: int, ny: int) -> Lattice:
    """Uniform lattice with nx chordwise rows and ny spanwise strips, leading edge at x = 0."""
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    y_edges = np.linspace(0.0, planform.semi_span, ny + 1)
    a_pts, b_pts, cpts, load_pts, dy = [], [], [], [], []
    for j in range(ny):
        y0, y1 = y_edges[j], y_edges[j + 1]
        ym = 0.5 * (y0 + y1)
        c0, c1, cm = planform.chord(y0), planform.chord(y1), planform.chord(ym)
        for i in range(nx):
            fa = (i + 0.25) / nx
            fc = (i + 0.75) / nx
            a_pts.append([fa * c0, y0, 0.0])
            b_pts.append([fa * c1, y1, 0.0])
            cpts.append([fc * cm, ym, 0.0])
            load_pts.append([fa * cm, ym, 0.0])
            dy.append(y1 - y0)
    return Lattice(
        a_pts=np.array(a_pts),
        b_pts=np.array(b_pts),
        cpts=np.array(cpts),
        load_pts=np.array(load_pts),
        dy=np.array(dy),
        nx=nx,
    )


def _segment_velocity(r: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Unit-circulation velocity of the finite vortex segment a -> b at points r."""
    r1 = r - ra
    r2 = r - rb
    cr = np.cross(r1, r2)
    n1 = np.linalg.norm(r1, axis=-1)
    n2 = np.linalg.norm(r2, axis=-1)
    denom = n1 * n2 * (n1 * n2 + np.einsum("...i,...i->...", r1, r2))
    scale = np.where(denom > _CUTOFF, (n1 + n2) / np.where(denom > _CUTOFF, denom, 1.0), 0.0)
    return cr * scale[..., None] / (4.0 * np.pi)


def _semi_infinite_velocity(r: np.ndarray, rp: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Unit-circulation velocity of the ray from rp to infinity along unit d."""
    r1 = r - rp
    n1 = np.linalg.norm(r1, axis=-1)
    cr = np.cross(d, r1)
    denom = n1 * (n1 - np.einsum("...i,i->...", r1, d))
    scale = np.where(denom > _CUTOFF, 1.0 / np.where(denom > _CUTOFF, denom, 1.0), 0.0)
    return cr * scale[..., None] / (4.0 * np.pi)


def _horseshoe_velocity(r: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Velocity at r from a unit horseshoe: infinity -> a -> b -> infinity."""
    d = np.array([1.0, 0.0, 0.0])
    return (
        -_semi_infinite_velocity(r, ra, d)
        + _segment_velocity(r, ra, rb)
        + _semi_infinite_velocity(r, rb, d)
    )


def aic_matrix(lattice: Lattice, mach: float = 0.0, image_sign: float = 1.0) -> np.ndarray:
    """Normal-velocity influence W with W[i, j] = w_z at cp i per unit Gamma j.

    The mirrored half wing enters with image_sign +1 for symmetric states
    (lift, longitudinal) and -1 for antisymmetric ones (roll).  Scaled by
    the Prandtl-Glauert factor.
    """
    r = lattice.cpts[:, None, :]
    a, b = lattice.a_pts[None], lattice.b_pts[None]
    mirror = np.array([1.0, -1.0, 1.0])
    # image vortex: traverse mirrored b -> mirrored a to keep lift sense
    v = _horseshoe_velocity(r, a, b) + image_sign * _horseshoe_velocity(r, b * mirror, a * mirror)
    beta = float(np.sqrt(1.0 - mach**2))
    return beta * v[..., 2]


def coupling_maps(lattice: Lattice, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load, wash, and normal-velocity maps between the lattice and a beam.

    The beam nodes must march outboard in y.  Returns (T_load, T_wash,
    T_vel) with shapes (n_dof, n_p), (n_p, n_dof), (n_p, n_dof).
    """
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
    n_nodes = nodes.shape[0]
    ys = nodes[:, 1]
    if np.any(np.diff(ys) <= 0):
        raise ValueError("beam nodes must increase monotonically in y")
    n_dof = 6 * n_nodes
    n_p = lattice.n_panels
    t_load = np.zeros((n_dof, n_p))
    t_wash = np.zeros((n_p, n_dof))
    t_vel = np.zeros((n_p, n_dof))
    y_cp = lattice.cpts[:, 1]
    seg = np.clip(np.searchsorted(ys, y_cp) - 1, 0, n_nodes - 2)
    w1 = (ys[seg + 1] - y_cp) / (ys[seg + 1] - ys[seg])
    panels = np.arange(n_p)
    for node, w in ((seg, w1), (seg + 1, 1.0 - w1)):
        # unit lift at the bound-leg midpoint: force plus transfer moment
        arm = lattice.load_pts - nodes[node]
        t_load[6 * node + 2, panels] += w
        t_load[6 * node + 3, panels] += w * arm[:, 1]  # Mx = +dy * Fz
        t_load[6 * node + 4, panels] += -w * arm[:, 0]  # My = -dx * Fz
        # twist rotation sets incidence; vertical motion has no steady effect
        t_wash[panels, 6 * node + 4] += w
        # upward velocity of the control point rigidly attached to the beam
        arm = lattice.cpts - nodes[node]
        t_vel[panels, 6 * node + 2] += w
        t_vel[panels, 6 * node + 3] += w * arm[:, 1]
        t_vel[panels, 6 * node + 4] += -w * arm[:, 0]
    return t_load, t_wash, t_vel


def lift_indicator(n_dof: int) -> np.ndarray:
    """Row that sums the z forces of a nodal load vector: total lift."""
    s = np.zeros(n_dof)
    s[2::6] = 1.0
    return s


@dataclass(frozen=True)
class Support:
    """Nonzero rows and columns of an operator on beam dofs, and its block there."""

    rows: np.ndarray
    cols: np.ndarray
    block: np.ndarray

    @classmethod
    def of(cls, a: np.ndarray) -> "Support":
        nonzero = a != 0.0
        rows = np.flatnonzero(nonzero.any(axis=1))
        cols = np.flatnonzero(nonzero.any(axis=0))
        return cls(rows=rows, cols=cols, block=a[np.ix_(rows, cols)])

    def project(self, shapes: np.ndarray) -> np.ndarray:
        """shapes' A shapes for shapes on every beam dof, reading only the support."""
        return shapes[self.rows].T @ self.block @ shapes[self.cols]


def wash_rows(t_wash: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of T_wash and the 0/1 map placing them: T_wash = group @ wash.

    Panels of one spanwise strip share their row, so an aero stiffness
    A W^-1 T_wash factors exactly as (A W^-1 group) wash, of rank at most
    the number of strips.
    """
    strip_of: dict[bytes, int] = {}
    strip = np.array([strip_of.setdefault(row.tobytes(), len(strip_of)) for row in t_wash])
    first = np.unique(strip, return_index=True)[1]
    return t_wash[first], np.eye(first.size)[strip]


@dataclass
class AeroOperators:
    """Linearized aerodynamic operators on beam degrees of freedom.

    f_aero(u, udot, alpha) = K_a u + D_a udot + f_alpha * alpha, all in
    global beam dofs.  K_a = k_wash @ wash in exact arithmetic: wash maps
    displacements to the incidence of each spanwise strip, k_wash a unit
    strip incidence to nodal loads.  The design-independent pieces that the
    solves reuse are derived once: the lift row z K_a and z f_alpha, and
    the supports of K_a and D_a.
    """

    K_a: np.ndarray
    D_a: np.ndarray
    f_alpha: np.ndarray
    k_wash: np.ndarray  # (n_dof, n_strips)
    wash: np.ndarray  # (n_strips, n_dof)
    lift_row: np.ndarray = field(init=False)  # lift per unit displacement, z K_a
    lift_alpha: float = field(init=False)  # lift per unit incidence, z f_alpha
    K_a_support: Support = field(init=False)
    D_a_support: Support = field(init=False)

    def __post_init__(self):
        sz = lift_indicator(self.f_alpha.size)
        self.lift_row = sz @ self.K_a
        self.lift_alpha = sz @ self.f_alpha
        self.K_a_support = Support.of(self.K_a)
        self.D_a_support = Support.of(self.D_a)


def wash_stiffness(
    w: np.ndarray,
    lattice: Lattice,
    t_load: np.ndarray,
    t_wash: np.ndarray,
    flow: FlowConditions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(load_scaled, K_a, k_wash, wash) of the influence matrix w at the flow.

    load_scaled is T_load with every panel column scaled by its span width,
    K_a = -rho V^2 load_scaled w^-1 T_wash the aero stiffness, and k_wash
    and wash its strip factors (wash_rows).  The symmetric and the
    antisymmetric problem share this arithmetic, each with its own w.
    """
    load_scaled = t_load * lattice.dy[None, :]
    k_a = -flow.rho * flow.V**2 * load_scaled @ np.linalg.solve(w, t_wash)
    wash, group = wash_rows(t_wash)
    k_wash = -flow.rho * flow.V**2 * load_scaled @ np.linalg.solve(w, group)
    return load_scaled, k_a, k_wash, wash


def aero_operators(lattice: Lattice, flow: FlowConditions, nodes: np.ndarray) -> AeroOperators:
    """Assemble the aeroelastic coupling operators at the given flow state."""
    w = aic_matrix(lattice, flow.mach)
    t_load, t_wash, t_vel = coupling_maps(lattice, nodes)
    load_scaled, k_a, k_wash, wash = wash_stiffness(w, lattice, t_load, t_wash, flow)
    winv_vel = np.linalg.solve(w, t_vel)
    winv_one = np.linalg.solve(w, np.ones(lattice.n_panels))
    d_a = flow.rho * flow.V * load_scaled @ winv_vel
    f_alpha = -flow.rho * flow.V**2 * load_scaled @ winv_one
    return AeroOperators(K_a=k_a, D_a=d_a, f_alpha=f_alpha, k_wash=k_wash, wash=wash)
