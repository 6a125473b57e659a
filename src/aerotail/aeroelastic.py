"""Coupled aeroelastic solutions on a beam plus vortex lattice pair.

Static solves couple the beam internal force with the linearized aero
stiffness, optionally trimming the rigid incidence so total lift matches a
target.  That problem is linear in the displacements and the incidence,
so it takes one solve plus a check of its backward error.  Dynamic
stability assembles the first-order state matrix

    d/dt [u, v] = [[0, I], [-M^-1 (K - K_a), -M^-1 (C_s - D_a)]] [u, v]

with light Rayleigh damping calibrated on the first two structural modes.
Its stability basis holds M, K and C_s in its coordinates and assembles
that matrix for dynamic_stability and the flutter margin alike.  Models
with more than N_MODES free dofs solve it in modal coordinates: the lowest
N_MODES mass-normalised structural modes span u, which turns the 2n-order
state matrix into a 2 N_MODES one (the modal-coordinate flutter model of
Hodges & Pierce, Introduction to Structural Dynamics and Aeroelasticity,
2011).  Aileron effectiveness solves the antisymmetric-image problem, since
a rolling control input loads the two half wings with opposite sign.

The same models take structured solves everywhere; _equilibrium and
_stability_basis pick them:

- K_ff is banded (half-bandwidth 11 on the shipped wings), so the model
  factors it once in band form.
- The aero stiffness has one column per spanwise strip, K_a = k_wash wash
  (rank 12 and 24 against 174 and 348 free dofs on wing_default).  The trim
  and the aileron apply K_ff^-1 to the right-hand side, f_alpha and k_wash,
  and a capacitance system with one unknown per strip, bordered by the lift
  row when trimmed, closes the update (the Woodbury identity; Hager, SIAM
  Review, 1989).  That is not backward stable, so _equilibrium checks the
  backward error of every trim and aileron solve (Higham, Accuracy and
  Stability of Numerical Algorithms, 2002, section 7.1).
- In modal coordinates M is the identity and K and the Rayleigh damping
  are diagonal, Lambda and a I + b Lambda with Lambda the squared basis
  frequencies, and the aero operators are read only on their support.

Models up to N_MODES free dofs keep dense solves on their free dofs: on the
toy wing, whose K_a has 3 and 6 support columns, the low-rank trim measured
slower, and its optimizer trajectory forks on any last-bit change.  Their
static_aeroelastic, dynamic_stability and aileron_solve also take a model
holding a stack of designs (`BeamModel.stack`) and return one result per
design, each bit-identical to its own model's: the solves run per design,
and every per-design product and norm keeps the BLAS routine (gemv, dot)
of the single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .aero import (
    AeroOperators,
    FlowConditions,
    Lattice,
    aero_operators,
    aic_matrix,
    coupling_maps,
    lift_indicator,
    wash_stiffness,
)
from .beam import BeamModel, stack_matvec

_DEGENERATE_TOL = 1e-6

ZETA = 0.005  # structural damping ratio at the two lowest modes
N_MODES = 40  # structural modes spanning the stability problem of larger models
N_STABILITY = 10  # leading state-matrix eigenvalues kept per stability solve
_TRIM_TOL = 1e-13  # largest backward error of a trim or aileron solve
FLUTTER_TOL = 1e-4  # relative width of the critical-speed bracket at return
FLUTTER_MAX_ITER = 80  # bisection halvings before critical_speed gives up


def _modal(model) -> bool:
    """True above N_MODES free dofs: the modal stability basis and structured solves.

    model is a BeamModel, or the WingStructure it is built on: both hold
    the free dofs.
    """
    return model.free.size > N_MODES


def _bordered(a: np.ndarray, col: np.ndarray, row: np.ndarray, corner: float) -> np.ndarray:
    """[[a, col], [row, corner]]: square a bordered by one column, one row and a corner.

    a may carry leading stack axes; col, row and corner broadcast against them.
    """
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (n + 1, n + 1))
    out[..., :n, :n] = a
    out[..., :n, n] = col
    out[..., n, :n] = row
    out[..., n, n] = corner
    return out


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by LU for one vector b per matrix of a stack; a 1-D b serves every matrix."""
    return scipy.linalg.solve(a, b[..., None])[..., 0]


def _low_rank_solve(
    model: BeamModel,
    k_wash: np.ndarray,
    wash: np.ndarray,
    b: np.ndarray,
    border: tuple | None = None,
) -> tuple[np.ndarray, float]:
    """Free-dof u with (K_ff - k_wash wash) u = b, by the Woodbury identity.

    K_ff^-1 goes through the model's banded factor; the strip incidences
    theta = wash u are the unknowns of the capacitance system.  border =
    (c, l, d, t) adds an unknown s: (K_ff - k_wash wash) u - c s = b and
    l u + d s = t, the trim's incidence and lift target.  Returns (u, s),
    with s = 0.0 without a border.
    """
    free = model.free
    w = wash[:, free]
    m = w.shape[0]
    if border is None:
        y = model.kff_solve(np.column_stack([b, k_wash[free]]))
        wy = w @ y
        theta = scipy.linalg.solve(np.eye(m) - wy[:, 1:], wy[:, 0])
        return y[:, 0] + y[:, 1:] @ theta, 0.0
    c, l, d, t = border
    y = model.kff_solve(np.column_stack([b, c, k_wash[free]]))
    wy, ly = w @ y, l @ y
    cap = _bordered(np.eye(m) - wy[:, 2:], -wy[:, 1], ly[2:], ly[1] + d)
    sol = scipy.linalg.solve(cap, np.append(wy[:, 0], t - ly[0]))
    return y[:, 0] + y[:, 2:] @ sol[:m] + y[:, 1] * sol[m], sol[m]


def _equilibrium(
    model: BeamModel,
    ops: AeroOperators | AileronOperators,
    b: np.ndarray,
    border: tuple | None = None,
) -> tuple[np.ndarray, float]:
    """Full-dof u and border unknown s of (K - K_a)_ff u_f = b, with b on the free dofs.

    border and s are as in _low_rank_solve, which solves _modal models;
    smaller ones take dense LU, bordered when asked, per design of a stack
    (b and t then per design).  Raises RuntimeError when the backward error
    of any design exceeds _TRIM_TOL: the residual, border row included, over
    the size of its terms, |K - K_a| |u| + |c| |s| + |b| and |l| |u| + |d| |s|
    + |t| (Oettli & Prager, 1964), with |K_a| |u| bounded by |k_wash| (|wash| |u|).
    """
    free = model.free
    if _modal(model):
        u_f, s = _low_rank_solve(model, ops.k_wash, ops.wash, b, border)
    elif border is None:
        u_f, s = _solve(model.free_block(model.stiffness() - ops.K_a), b), 0.0
    else:
        c, l, d, t = border
        a = _bordered(model.free_block(model.stiffness() - ops.K_a), -c, l, d)
        sol = _solve(a, np.concatenate([b, np.asarray(t)[..., None]], axis=-1))
        u_f, s = sol[..., :-1], sol[..., -1]
    u = np.zeros(model.stack + (model.n_dof,))
    u[..., free] = u_f

    k, abs_u = model.stiffness(), np.abs(u)
    r = (stack_matvec(k, u) - stack_matvec(ops.K_a, u))[..., free] - b
    size = (stack_matvec(np.abs(k), abs_u) + stack_matvec(
        np.abs(ops.k_wash), stack_matvec(np.abs(ops.wash), abs_u)))[..., free] + np.abs(b)
    r_lift = size_lift = 0.0
    if border is not None:
        c, l, d, t = border
        r = r - np.multiply.outer(s, c)
        size = size + np.multiply.outer(np.abs(s), np.abs(c))
        r_lift = u_f @ l + d * s - t
        size_lift = np.abs(u_f) @ np.abs(l) + np.abs(d * s) + np.abs(t)
    r_norm, size_norm = np.hypot(_norm(r), r_lift), np.hypot(_norm(size), size_lift)
    if np.any(r_norm > _TRIM_TOL * size_norm):
        eta = np.max(r_norm / size_norm)
        raise RuntimeError(f"missed equilibrium: backward error {eta:.3g} above {_TRIM_TOL:g}")
    return u, s


@dataclass
class StaticAeroelasticResult:
    """Equilibrium state; on a stacked model u, alpha and total_lift are per design."""

    u: np.ndarray
    alpha: float
    total_lift: float
    iterations: int  # linear solves taken: always 1, read by perfbench


def static_aeroelastic(
    model: BeamModel,
    ops: AeroOperators,
    flow: FlowConditions,
    extra_loads: np.ndarray,
    trim_lift: float | None = None,
) -> StaticAeroelasticResult:
    """Equilibrium of the flexible wing in the given flow under extra_loads.

    With trim_lift set, the rigid incidence becomes an unknown and the total
    aerodynamic lift of the modeled half wing is driven to that value.  The
    problem is linear in (u, alpha), so one solve from u = 0 gives the
    equilibrium: (K - K_a)_ff at fixed incidence, the same block bordered by
    the lift row when trimmed, both by _equilibrium, whose backward-error
    check raises RuntimeError on a miss.  On a stacked model extra_loads and
    trim_lift are per design, and a miss of any design raises.
    """
    free = model.free
    sz = lift_indicator(model.n_dof)
    f_rigid = ops.f_alpha * flow.alpha
    border = None
    if trim_lift is not None:
        border = (ops.f_alpha[free], ops.lift_row[free], ops.lift_alpha,
                  trim_lift - sz @ f_rigid)
    u, d_alpha = _equilibrium(model, ops, (f_rigid + extra_loads)[..., free], border)
    alpha = flow.alpha + d_alpha
    f_aero = stack_matvec(ops.K_a, u) + np.multiply.outer(alpha, ops.f_alpha)
    return StaticAeroelasticResult(u=u, alpha=alpha, total_lift=np.vecdot(f_aero, sz),
                                   iterations=1)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector of a stack, as np.linalg.norm(v) computes one."""
    return np.sqrt(np.vecdot(v, v))


def _rayleigh_coefficients(omega: np.ndarray) -> tuple[float, float]:
    """(a, b) of C_s = a M + b K with damping ratio ZETA at omega[..., 0] and omega[..., 1]."""
    w0, w1 = omega[..., 0], omega[..., 1]
    if np.any(w0 <= 0.0):
        raise ValueError("model has no elastic modes to calibrate damping")
    a = 2.0 * ZETA * w0 * w1 / (w0 + w1)
    b = 2.0 * ZETA / (w0 + w1)
    return a, b


def rayleigh_damping(model: BeamModel) -> np.ndarray:
    """Mass plus stiffness proportional damping, ZETA at the two lowest modes.

    The two lowest frequencies come from model.lowest_frequencies, without
    mode shapes, on one design or on each design of a stack.
    """
    # one element already leaves 6 free dofs, so two modes always exist
    a, b = _rayleigh_coefficients(model.lowest_frequencies())
    damping = np.asarray(a)[..., None, None] * model.mass()
    damping += np.asarray(b)[..., None, None] * model.stiffness()
    return damping


@dataclass
class StabilityBasis:
    """Structural coordinates of the stability problem on the free dofs of model.

    phi None is the identity basis, the free dofs themselves: stiffness and
    damping are the free-dof blocks of K and rayleigh_damping, and M^-1
    goes through the mass Cholesky factor cho.  On a stacked model these
    carry the stack's leading axes.  Otherwise phi holds the
    lowest N_MODES mass-normalised structural modes as columns, so the
    projected mass is the identity, K is diag(Lambda) with Lambda their
    squared frequencies, and the Rayleigh damping calibrated on them is
    diag(a + b Lambda).
    """

    model: BeamModel
    phi: np.ndarray | None  # (n_free, size)
    cho: tuple | None
    stiffness: np.ndarray  # K in basis coordinates, (size, size)
    damping: np.ndarray  # C_s in basis coordinates, (size, size)

    @property
    def size(self) -> int:
        """Number of coordinates; n_free for the identity basis."""
        return self.stiffness.shape[-1]

    @property
    def omega_max(self) -> float:
        """Highest structural frequency the basis spans, rad/s.

        Computed on request: the identity basis solves without any modes.
        """
        return float(self.model.modal(self.size).omega[-1])

    def aero(self, ops: AeroOperators) -> tuple[np.ndarray, np.ndarray]:
        """K_a and D_a in basis coordinates; the modes read each on its support."""
        if self.phi is None:
            return self.model.free_block(ops.K_a), self.model.free_block(ops.D_a)
        shapes = self.model.modal(self.size).shapes
        return ops.K_a_support.project(shapes), ops.D_a_support.project(shapes)

    def state_matrix(self, k_a: np.ndarray, d_a: np.ndarray) -> np.ndarray:
        """[[0, I], [-M^-1 (K - k_a), -M^-1 (C_s - d_a)]] for k_a, d_a in basis coordinates.

        One per design of a stacked basis.  Each matrix is in Fortran order,
        so eigvals can overwrite it in place.
        """
        n = self.size
        a = np.zeros(self.stiffness.shape[:-2] + (2 * n, 2 * n)).swapaxes(-1, -2)
        a[..., :n, n:] = np.eye(n)
        np.negative(self._m_inv(self.stiffness - k_a), out=a[..., n:, :n])
        np.negative(self._m_inv(self.damping - d_a), out=a[..., n:, n:])
        return a

    def _m_inv(self, a: np.ndarray) -> np.ndarray:
        return a if self.cho is None else scipy.linalg.cho_solve(self.cho, a)

    def expand(self, q: np.ndarray) -> np.ndarray:
        """Free-dof displacements of basis coordinates q."""
        return q if self.phi is None else self.phi @ q


def _stability_basis(model: BeamModel) -> StabilityBasis:
    """Identity basis up to N_MODES free dofs, the lowest N_MODES modes beyond.

    The identity basis calibrates its Rayleigh damping on
    model.lowest_frequencies, the modal basis on the modes of model.modal;
    the model caches both, so neither another load case nor another speed
    recomputes them.
    """
    if not _modal(model):
        block = model.free_block
        cho = scipy.linalg.cho_factor(block(model.mass()))
        return StabilityBasis(model, None, cho, block(model.stiffness()),
                              block(rayleigh_damping(model)))
    modes = model.modal(N_MODES)
    omega2 = modes.omega**2
    a, b = _rayleigh_coefficients(modes.omega)
    return StabilityBasis(model, modes.shapes[model.free], None, np.diag(omega2),
                          np.diag(a + b * omega2))


@dataclass
class StabilityResult:
    eigenvalues: np.ndarray  # complex, sorted by descending real part
    shapes: np.ndarray | None  # displacement partitions, (n_dof, k), complex; None unless asked
    degenerate: bool  # nearly repeated leading eigenvalues present; per design on a stack
    basis: StabilityBasis  # its size and omega_max state the modal truncation

    @property
    def max_real(self) -> float:
        return float(self.eigenvalues[0].real)


def dynamic_stability(
    model: BeamModel, ops: AeroOperators, n_keep: int = N_STABILITY, shapes: bool = True
) -> StabilityResult:
    """Leading eigenvalues of the aeroelastic state matrix, in _stability_basis.

    With shapes False no eigenvectors are computed and the result's shapes
    is None.  The eigenvalues, their order and the degenerate flag are the
    same either way, so callers that read only those pass False.  A stacked
    model takes shapes False and gives eigenvalues and degenerate per design.
    """
    basis = _stability_basis(model)
    n = basis.size
    a = basis.state_matrix(*basis.aero(ops))
    if shapes:
        lam, vec = scipy.linalg.eig(a)
    else:
        lam = scipy.linalg.eigvals(a, overwrite_a=True)
    order = np.lexsort((-lam.imag, -lam.real), axis=-1)
    keep = order[..., : min(n_keep, lam.shape[-1])]
    modes = None
    if shapes:
        modes = np.zeros((model.n_dof, keep.size), dtype=complex)
        modes[model.free, :] = basis.expand(vec[:n, keep])
    kept = np.take_along_axis(lam, keep, axis=-1)
    gaps = np.abs(np.diff(kept, axis=-1))
    tol = _DEGENERATE_TOL * np.maximum(np.abs(kept[..., :-1]), 1.0)
    degenerate = np.any(gaps < tol, axis=-1)
    if not model.stack:
        degenerate = bool(degenerate)
    return StabilityResult(eigenvalues=kept, shapes=modes, degenerate=degenerate, basis=basis)


@dataclass(frozen=True)
class AileronDef:
    """Trailing-edge control surface: span band and rear chordwise rows."""

    y_start: float
    y_end: float
    rows: int = 1
    tau: float = 1.0  # incidence per unit deflection

    def panel_mask(self, lattice: Lattice) -> np.ndarray:
        idx = np.arange(lattice.n_panels)
        row = idx % lattice.nx
        y = lattice.cpts[:, 1]
        in_span = (y >= self.y_start) & (y <= self.y_end)
        return in_span & (row >= lattice.nx - self.rows)


@dataclass
class AileronOperators:
    """Flow-and-geometry part of the aileron problem, independent of the structure.

    w_anti is the antisymmetric-image AIC, K_a the antisymmetric aero
    stiffness on beam dofs, equal to k_wash @ wash in exact arithmetic as
    in AeroOperators, f_delta the nodal load of the rigid aileron lift, and
    roll_rigid its rolling moment.
    """

    lattice: Lattice
    flow: FlowConditions
    alpha_delta: np.ndarray
    w_anti: np.ndarray
    t_wash: np.ndarray
    K_a: np.ndarray
    k_wash: np.ndarray
    wash: np.ndarray
    f_delta: np.ndarray
    roll_rigid: float


def aileron_operators(
    lattice: Lattice,
    nodes: np.ndarray,
    flow: FlowConditions,
    aileron: AileronDef,
) -> AileronOperators:
    """Rigid roll and antisymmetric coupling of an aileron on beam nodes."""
    mask = aileron.panel_mask(lattice)
    if not mask.any():
        raise ValueError("aileron does not cover any lattice panel")
    alpha_delta = np.where(mask, aileron.tau, 0.0)
    w_anti = aic_matrix(lattice, flow.mach, image_sign=-1.0)
    # rigid response
    gamma_r = np.linalg.solve(w_anti, -flow.V * alpha_delta)
    lift_r = flow.rho * flow.V * gamma_r * lattice.dy
    roll_r = float(np.sum(lattice.load_pts[:, 1] * lift_r))
    # antisymmetric aero stiffness
    t_load, t_wash, _ = coupling_maps(lattice, nodes)
    _, k_a, k_wash, wash = wash_stiffness(w_anti, lattice, t_load, t_wash, flow)
    return AileronOperators(
        lattice=lattice,
        flow=flow,
        alpha_delta=alpha_delta,
        w_anti=w_anti,
        t_wash=t_wash,
        K_a=k_a,
        k_wash=k_wash,
        wash=wash,
        f_delta=t_load @ lift_r,
        roll_rigid=roll_r,
    )


def aileron_solve(model: BeamModel, ops: AileronOperators) -> float:
    """Aileron effectiveness eta: flexible over rigid rolling moment per unit deflection.

    The flexible response (K - K_a)_ff u = f_delta is solved and checked by
    _equilibrium, as the trim is; a miss raises RuntimeError.  A stacked
    model gives one eta per design, and a miss of any design raises.
    """
    lattice, flow = ops.lattice, ops.flow
    u, _ = _equilibrium(model, ops, ops.f_delta[model.free])
    rhs = -flow.V * (ops.alpha_delta + stack_matvec(ops.t_wash, u))
    # one LU per design: a shared factor with many right-hand sides rounds differently
    w_anti = np.broadcast_to(ops.w_anti, rhs.shape[:-1] + ops.w_anti.shape)
    gamma_f = np.linalg.solve(w_anti, rhs[..., None])[..., 0]
    lift_f = flow.rho * flow.V * gamma_f * lattice.dy
    roll_f = np.sum(lattice.load_pts[:, 1] * lift_f, axis=-1)
    return roll_f / ops.roll_rigid


def aileron_effectiveness(
    model: BeamModel,
    lattice: Lattice,
    flow: FlowConditions,
    aileron: AileronDef,
) -> float:
    """Flexible-to-rigid ratio of rolling moment per unit aileron deflection."""
    return aileron_solve(model, aileron_operators(lattice, model.nodes, flow, aileron))


def _stability_margin(
    model: BeamModel,
    lattice: Lattice,
    flow_of_v: Callable[[float], FlowConditions],
) -> Callable[[float], float]:
    """Largest state-matrix eigenvalue real part as a function of speed.

    The basis of dynamic_stability and the unit-flow aero operators in its
    coordinates are built once.  The AIC is beta times the incompressible
    one, so at any flow K_a scales by rho V^2 / beta and D_a by rho V / beta,
    and each speed costs one basis.state_matrix, the assembly that
    dynamic_stability uses, and an eigenvalue-only eig.  At unit flow it
    equals dynamic_stability(...).max_real.
    """
    basis = _stability_basis(model)
    k_a, d_a = basis.aero(aero_operators(lattice, FlowConditions(V=1.0, rho=1.0), model.nodes))

    def margin(v: float) -> float:
        flow = flow_of_v(v)
        rv_beta = flow.rho * flow.V / flow.beta
        a = basis.state_matrix((rv_beta * flow.V) * k_a, rv_beta * d_a)
        return float(scipy.linalg.eigvals(a, overwrite_a=True).real.max())

    return margin


def critical_speed(
    model: BeamModel,
    lattice: Lattice,
    flow_of_v: Callable[[float], FlowConditions],
    v_low: float,
    v_high: float,
) -> float:
    """A speed in [v_low, v_high] where the state matrix loses stability.

    Bisection on the sign of the largest eigenvalue real part; the bracket
    must be stable at v_low and unstable at v_high.  The result is a sign
    change of that margin, not necessarily the lowest one when the margin
    crosses zero more than once inside the bracket.  Raises RuntimeError
    when FLUTTER_MAX_ITER halvings do not reach the relative width
    FLUTTER_TOL.
    """
    margin = _stability_margin(model, lattice, flow_of_v)
    lo, hi = float(v_low), float(v_high)
    m_lo, m_hi = margin(lo), margin(hi)
    if m_lo >= 0.0:
        raise ValueError(f"lower bracket V={lo} is already unstable")
    if m_hi < 0.0:
        raise ValueError(f"no instability up to V={hi}")
    for _ in range(FLUTTER_MAX_ITER):
        if hi - lo <= FLUTTER_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if margin(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    if hi - lo > FLUTTER_TOL * hi:
        raise RuntimeError(
            f"bisection left [{lo}, {hi}] wider than tol={FLUTTER_TOL} "
            f"after max_iter={FLUTTER_MAX_ITER}"
        )
    return 0.5 * (lo + hi)
