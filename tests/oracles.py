"""Verification references the tests check the package against.

Nothing in the package calls these: handbook sections, straight
cantilevers, the per-panel vortex-lattice influence and coupling loops, the
rigid steady vortex-lattice solve, the static divergence
eigenproblem, the total nodal load of a trimmed state, the largest
constraint violation of an evaluate, the constraint-vector length formula,
the probe designs of a finite-difference gradient and a closed-form LF/HF
model pair for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from aerotail.aero import (
    AeroOperators,
    FlowConditions,
    Lattice,
    _horseshoe_velocity,
    aic_matrix,
)
from aerotail.aeroelastic import N_STABILITY
from aerotail.beam import BeamModel, ElementGeometry, ElementSet, PointMass
from aerotail.constraints import (
    FD_REL_STEP,
    GRAVITY,
    N_FEASIBILITY,
    N_TSAI_WU,
    PROBED_ENTRIES,
    VARS_PER_PANEL,
    GradientResult,
    ModelOutputs,
)
from aerotail.laminate import MaterialProperties, PanelDesign
from aerotail.section import BOX_WALLS, CrossSection, box_corners

_REAL_EIG_TOL = 1e-8


# -- sections and beams --------------------------------------------------------


@dataclass(frozen=True)
class SectionProperties:
    """Homogenized beam properties of one cross section.

    C is the 6x6 stiffness, M the 6x6 inertia per unit length (translations
    then rotations about the reference point); M[0, 0] is the mass per unit
    length.
    """

    C: np.ndarray
    M: np.ndarray


def box_section(
    width: float,
    height: float,
    walls: dict[str, PanelDesign],
    material: MaterialProperties,
) -> CrossSection:
    """Rectangular single-cell box with walls `upper`, `lower`, `front`, `rear`.

    Centered on the section origin (see `box_corners`); each wall is one
    segment.
    """
    if width <= 0.0 or height <= 0.0:
        raise ValueError("box dimensions must be positive")
    missing = {"upper", "lower", "front", "rear"} - set(walls)
    if missing:
        raise ValueError(f"missing wall designs: {sorted(missing)}")
    p1, p2 = box_corners(width, height)
    return CrossSection(p1, p2, [walls[name] for name in BOX_WALLS], material)


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
    axes.
    """
    c = np.diag([EA, GA2, GA3, GJ, EI2, EI3]).astype(float)
    m = np.diag([mu, mu, mu, i_polar, 0.5 * i_polar, 0.5 * i_polar]).astype(float)
    return SectionProperties(C=c, M=m)


def cantilever_model(
    section: SectionProperties,
    length: float,
    n_elements: int,
    axis=(1.0, 0.0, 0.0),
    point_masses: list[PointMass] = (),
) -> BeamModel:
    """Straight cantilever of one section along `axis`, clamped at the origin node."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    direction = np.asarray(axis, dtype=float)
    direction = direction / np.linalg.norm(direction)
    stations = np.linspace(0.0, length, n_elements + 1)
    nodes = stations[:, None] * direction[None, :]
    elements = ElementSet(
        ElementGeometry.build(nodes, [(i, i + 1) for i in range(n_elements)]),
        section.C[None],
        section.M[None],
        np.zeros(n_elements, dtype=int),
    )
    return BeamModel(nodes, elements, point_masses=point_masses)


# -- aerodynamics and aeroelasticity ----------------------------------------------


def aic_matrix_per_panel(
    lattice: Lattice, mach: float = 0.0, image_sign: float = 1.0
) -> np.ndarray:
    """aic_matrix one horseshoe column at a time, the reference of the broadcast kernel."""
    n = lattice.n_panels
    w = np.empty((n, n))
    mirror = np.diag([1.0, -1.0, 1.0])
    for j in range(n):
        v = _horseshoe_velocity(lattice.cpts, lattice.a_pts[j], lattice.b_pts[j])
        # image vortex: traverse mirrored b -> mirrored a to keep lift sense
        v += image_sign * _horseshoe_velocity(
            lattice.cpts, mirror @ lattice.b_pts[j], mirror @ lattice.a_pts[j]
        )
        w[:, j] = v[:, 2]
    beta = float(np.sqrt(1.0 - mach**2))
    return beta * w


def coupling_maps_per_panel(
    lattice: Lattice, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """coupling_maps one panel at a time, the reference of the broadcast maps."""
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
    for p in range(n_p):
        y_cp = lattice.cpts[p, 1]
        seg = int(np.clip(np.searchsorted(ys, y_cp) - 1, 0, n_nodes - 2))
        w1 = (ys[seg + 1] - y_cp) / (ys[seg + 1] - ys[seg])
        weights = ((seg, w1), (seg + 1, 1.0 - w1))
        # unit lift at the bound-leg midpoint: force plus transfer moment
        lp = lattice.load_pts[p]
        for node, w in weights:
            arm = lp - nodes[node]
            t_load[6 * node + 2, p] += w
            t_load[6 * node + 3, p] += w * arm[1]  # Mx = +dy * Fz
            t_load[6 * node + 4, p] += -w * arm[0]  # My = -dx * Fz
        # twist rotation sets incidence; vertical motion has no steady effect
        for node, w in weights:
            t_wash[p, 6 * node + 4] += w
        # upward velocity of the control point rigidly attached to the beam
        cp = lattice.cpts[p]
        for node, w in weights:
            arm = cp - nodes[node]
            t_vel[p, 6 * node + 2] += w
            t_vel[p, 6 * node + 3] += w * arm[1]
            t_vel[p, 6 * node + 4] += -w * arm[0]
    return t_load, t_wash, t_vel


def panel_areas(lattice: Lattice) -> np.ndarray:
    """Planform area of every lattice panel: span width times chordwise length.

    A panel's load point sits at its quarter chord and its control point at
    its three-quarter chord, on the strip's mid-span chord line, so the two
    lie half the panel's chordwise length apart.
    """
    return lattice.dy * 2.0 * (lattice.cpts[:, 0] - lattice.load_pts[:, 0])


@dataclass
class SteadyResult:
    gamma: np.ndarray
    panel_lift: np.ndarray
    total_lift: float
    cl: float


def steady_solve(
    lattice: Lattice,
    flow: FlowConditions,
    alpha_eff: np.ndarray | None = None,
) -> SteadyResult:
    """Circulations and panel lifts for the given incidence distribution.

    alpha_eff is the per-panel control point incidence; defaults to the
    rigid flow.alpha everywhere.
    """
    w = aic_matrix(lattice, flow.mach)
    alpha = np.full(lattice.n_panels, flow.alpha) if alpha_eff is None else np.asarray(alpha_eff)
    gamma = np.linalg.solve(w, -flow.V * alpha)
    lift = flow.rho * flow.V * gamma * lattice.dy
    total = float(lift.sum())
    q = 0.5 * flow.rho * flow.V**2
    return SteadyResult(gamma=gamma, panel_lift=lift, total_lift=total,
                        cl=total / (q * panel_areas(lattice).sum()))


def divergence_factor(model: BeamModel, ops: AeroOperators) -> float:
    """Smallest positive multiplier on dynamic pressure causing divergence.

    Solves K u = lambda K_a u on the free dofs; infinity when the flow
    cannot diverge the structure at any positive pressure.
    """
    lam = scipy.linalg.eig(
        model.free_block(model.stiffness()), model.free_block(ops.K_a), right=False
    )
    lam = lam[np.isfinite(lam)]
    real = lam[np.abs(lam.imag) <= _REAL_EIG_TOL * np.maximum(np.abs(lam.real), 1.0)].real
    pos = real[real > 0.0]
    return float(pos.min()) if pos.size else float("inf")


# -- constraint stack --------------------------------------------------------------


def trim_load(analysis, model, i_lc: int) -> np.ndarray:
    """Total nodal load at load case i_lc's trimmed state, K_a u + f_alpha alpha + gravity.

    Aero plus gravity scaled by the load factor, summed in this order.
    """
    lc = analysis.loadcases[i_lc]
    res = analysis.trim(model, i_lc)
    ops = model.structure.aero(lc.flow)
    factor = lc.load_factor if lc.load_factor is not None else 1.0
    gravity = model.beam.gravity_load(GRAVITY * factor)
    return ops.K_a @ res.u + ops.f_alpha * res.alpha + gravity


def max_violation(out: ModelOutputs) -> float:
    """Largest available constraint value, or 0.0 when every available row is satisfied."""
    avail = out.c[out.mask]
    return float(max(0.0, np.max(avail))) if avail.size else 0.0


def constraint_length(n_lc: int, n_panels: int, n_stations: int) -> int:
    per_lc = N_TSAI_WU * n_panels + N_STABILITY + 1 + 2 * n_stations
    return n_lc * per_lc + N_FEASIBILITY * n_panels


def probe_designs(analysis, x) -> list[np.ndarray]:
    """The designs analysis.gradients probes at x: each PROBED_ENTRIES entry
    of every panel stepped up and down by FD_REL_STEP * (1 + |x_i|), the
    step cut at the box bounds."""
    lb, ub = analysis.bounds()
    out = []
    for p in range(analysis.definition.n_panels):
        for k in PROBED_ENTRIES:
            i = VARS_PER_PANEL * p + k
            h = FD_REL_STEP * (1.0 + abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += max(0.0, min(h, ub[i] - x[i]))
            xm[i] -= max(0.0, min(h, x[i] - lb[i]))
            out += [xp, xm]
    return out


# -- analytic benchmark ------------------------------------------------------


class AnalyticModel:
    """Tiny closed-form model exposing the analysis interface.

    mask marks which constraint rows this model provides; unavailable rows
    must come back NaN from cons / cons_grad, mirroring the wing models.
    """

    def __init__(self, fun, grad, cons, cons_grad, box, mask=None):
        self._fun = fun
        self._grad = grad
        self._cons = cons
        self._cons_grad = cons_grad
        self._box = box
        self._mask = None if mask is None else np.asarray(mask, dtype=bool)

    def bounds(self):
        return self._box

    def evaluate(self, x) -> ModelOutputs:
        x = np.asarray(x, dtype=float)
        c = np.atleast_1d(np.asarray(self._cons(x), dtype=float))
        mask = np.ones(c.size, dtype=bool) if self._mask is None else self._mask
        return ModelOutputs(
            f=float(self._fun(x)),
            c=c,
            mask=mask,
            nonsmooth=np.zeros(c.size, dtype=bool),
        )

    def gradients(self, x) -> GradientResult:
        x = np.asarray(x, dtype=float)
        gc = np.atleast_2d(np.asarray(self._cons_grad(x), dtype=float))
        return GradientResult(
            grad_f=np.asarray(self._grad(x), dtype=float),
            grad_c=gc,
        )


def quadratic_benchmark_pair():
    """Correlated LF/HF pair with known solution x* = (0.8, 0.4), f* = 0.06.

    HF: f = (x1-1)^2 + 2 (x2-1/2)^2 subject to x1 + x2 - 1.2 <= 0.
    LF: shifted, rescaled, and offset, so corrections do real work.
    """
    box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    hf = AnalyticModel(
        fun=lambda x: (x[0] - 1.0) ** 2 + 2.0 * (x[1] - 0.5) ** 2,
        grad=lambda x: np.array([2.0 * (x[0] - 1.0), 4.0 * (x[1] - 0.5)]),
        cons=lambda x: [x[0] + x[1] - 1.2],
        cons_grad=lambda x: [[1.0, 1.0]],
        box=box,
    )
    lf = AnalyticModel(
        fun=lambda x: 0.9 * (x[0] - 1.15) ** 2 + 2.3 * (x[1] - 0.4) ** 2 + 0.07,
        grad=lambda x: np.array([1.8 * (x[0] - 1.15), 4.6 * (x[1] - 0.4)]),
        cons=lambda x: [1.08 * x[0] + 0.92 * x[1] - 1.17],
        cons_grad=lambda x: [[1.08, 0.92]],
        box=box,
    )
    x_star = np.array([0.8, 0.4])
    return lf, hf, np.array([0.0, 0.0]), x_star, 0.06
