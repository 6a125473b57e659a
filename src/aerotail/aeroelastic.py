"""Coupled aeroelastic solutions on a beam plus vortex lattice pair.

Static solves couple the beam internal force with the linearized aero
stiffness, optionally trimming the rigid incidence so total lift matches a
target.  That problem is linear in the displacements and the incidence,
so it takes one solve plus a residual check.  Divergence comes from the
generalized eigenproblem between the structural and aerodynamic
stiffness.  Dynamic stability assembles the first-order state matrix

    d/dt [u, v] = [[0, I], [-M^-1 (K - K_a), -M^-1 (C_s - D_a)]] [u, v]

on the free dofs, with light Rayleigh damping calibrated on the first two
structural modes.  Models with more than N_MODES free dofs solve it in
modal coordinates: the lowest N_MODES mass-normalised structural modes
span u, which turns the 2n-order state matrix into a 2 N_MODES one (the
modal-coordinate flutter model of Hodges & Pierce, Introduction to
Structural Dynamics and Aeroelasticity, 2011).  Smaller models are solved
on their free dofs as they are.  Aileron effectiveness solves the
antisymmetric-image problem, since a rolling control input loads the two
half wings with opposite sign.
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
)
from .beam import BeamModel

_REAL_EIG_TOL = 1e-8
_DEGENERATE_TOL = 1e-6

ZETA = 0.005  # structural damping ratio at the two lowest modes
N_MODES = 40  # structural modes spanning the stability problem of larger models
N_STABILITY = 10  # leading state-matrix eigenvalues kept per stability solve
_TRIM_TOL = 1e-10  # relative residual of the static equilibrium and the lift target
FLUTTER_TOL = 1e-4  # relative width of the critical-speed bracket at return
FLUTTER_MAX_ITER = 80  # bisection halvings before critical_speed gives up


def _z_indicator(n_dof: int) -> np.ndarray:
    s = np.zeros(n_dof)
    s[2::6] = 1.0
    return s


@dataclass
class StaticAeroelasticResult:
    u: np.ndarray
    alpha: float
    total_lift: float
    iterations: int  # linear solves taken: always 1, read by perfbench


def static_aeroelastic(
    model: BeamModel,
    ops: AeroOperators,
    flow: FlowConditions,
    extra_loads: np.ndarray | None = None,
    trim_lift: float | None = None,
) -> StaticAeroelasticResult:
    """Equilibrium of the flexible wing in the given flow.

    With trim_lift set, the rigid incidence becomes an unknown and the total
    aerodynamic lift of the modeled half wing is driven to that value.  The
    problem is linear in (u, alpha), so one solve from u = 0 gives the
    equilibrium: (K - K_a)_ff at fixed incidence, the same block bordered by
    the lift row when trimmed.  The residuals of equilibrium and lift target
    are then checked against _TRIM_TOL; a miss raises RuntimeError.
    """
    n_dof = model.n_dof
    free = model.free
    extra = np.zeros(n_dof) if extra_loads is None else np.asarray(extra_loads, dtype=float)
    sz = _z_indicator(n_dof)
    k = model.stiffness()
    trim = trim_lift is not None
    u = np.zeros(n_dof)
    alpha = flow.alpha
    f_rigid = ops.f_alpha * alpha
    lift_scale = max(abs(trim_lift) if trim else 0.0, np.abs(ops.f_alpha).sum(), 1.0)
    force_scale = max(np.linalg.norm(f_rigid + extra), lift_scale)

    tff = model.free_block(k - ops.K_a)
    if trim:
        nf = free.size
        jac = np.zeros((nf + 1, nf + 1))
        jac[:nf, :nf] = tff
        jac[:nf, nf] = -ops.f_alpha[free]
        jac[nf, :nf] = (sz @ ops.K_a)[free]
        jac[nf, nf] = sz @ ops.f_alpha
        step = scipy.linalg.solve(
            jac, np.concatenate([(f_rigid + extra)[free], [trim_lift - sz @ f_rigid]])
        )
        u[free] += step[:nf]
        alpha += step[nf]
    else:
        u[free] += scipy.linalg.solve(tff, (f_rigid + extra)[free])

    f_aero = ops.K_a @ u + ops.f_alpha * alpha
    r_struct = (k @ u - f_aero - extra)[free]
    r_lift = (sz @ f_aero - trim_lift) if trim else 0.0
    if (np.linalg.norm(r_struct) > _TRIM_TOL * force_scale
            or abs(r_lift) > _TRIM_TOL * lift_scale):
        raise RuntimeError("static aeroelastic solve missed equilibrium")
    return StaticAeroelasticResult(
        u=u, alpha=alpha, total_lift=float(sz @ f_aero), iterations=1
    )


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


def rayleigh_damping(model: BeamModel) -> np.ndarray:
    """Mass plus stiffness proportional damping, ZETA at the two lowest modes."""
    # one element already leaves 6 free dofs, so two modes always exist
    w = model.modal(_calibration_modes(model)).omega[:2]
    if w[0] <= 0.0:
        raise ValueError("model has no elastic modes to calibrate damping")
    a = 2.0 * ZETA * w[0] * w[1] / (w[0] + w[1])
    b = 2.0 * ZETA / (w[0] + w[1])
    return a * model.mass() + b * model.stiffness()


@dataclass
class StabilityBasis:
    """Structural coordinates of the stability problem on the free dofs of model.

    phi None is the identity basis, the free dofs themselves, with M^-1
    applied through the mass Cholesky factor cho.  Otherwise phi holds
    mass-normalised structural modes as columns, so the projected mass is
    the identity and a matrix A projects to phi' A phi.
    """

    model: BeamModel
    phi: np.ndarray | None  # (n_free, size)
    cho: tuple | None

    @property
    def size(self) -> int:
        """Number of coordinates; n_free for the identity basis."""
        return self.model.free.size if self.phi is None else self.phi.shape[1]

    @property
    def omega_max(self) -> float:
        """Highest structural frequency the basis spans, rad/s.

        Computed on request: the identity basis solves without any modes.
        """
        return float(self.model.modal(self.size).omega[-1])

    def project(self, a_ff: np.ndarray) -> np.ndarray:
        """M^-1 A in basis coordinates, for A on the free dofs."""
        if self.phi is None:
            return scipy.linalg.cho_solve(self.cho, a_ff)
        return self.phi.T @ a_ff @ self.phi

    def expand(self, q: np.ndarray) -> np.ndarray:
        """Free-dof displacements of basis coordinates q."""
        return q if self.phi is None else self.phi @ q


def _calibration_modes(model: BeamModel) -> int:
    """Mode count whose two lowest frequencies calibrate rayleigh_damping.

    Models solved in the N_MODES basis take them from the basis modes, so
    no separate eigensolve runs; smaller models solve for two modes.
    """
    return N_MODES if model.free.size > N_MODES else 2


def _stability_basis(model: BeamModel) -> StabilityBasis:
    """Identity basis up to N_MODES free dofs, the lowest N_MODES modes beyond.

    The modes come from model.modal, which the model caches, so neither
    another load case nor another speed recomputes them.
    """
    free = model.free
    if free.size <= N_MODES:
        cho = scipy.linalg.cho_factor(model.free_block(model.mass()))
        return StabilityBasis(model, None, cho)
    return StabilityBasis(model, model.modal(N_MODES).shapes[free], None)


@dataclass
class StabilityResult:
    eigenvalues: np.ndarray  # complex, sorted by descending real part
    shapes: np.ndarray | None  # displacement partitions, (n_dof, k), complex; None unless asked
    degenerate: bool  # nearly repeated leading eigenvalues present
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
    same either way, so callers that read only those pass False.
    """
    basis = _stability_basis(model)
    n = basis.size
    a = np.zeros((2 * n, 2 * n), order="F")  # eigvals can then overwrite it in place
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -basis.project(model.free_block(model.stiffness() - ops.K_a))
    a[n:, n:] = -basis.project(model.free_block(rayleigh_damping(model) - ops.D_a))
    if shapes:
        lam, vec = scipy.linalg.eig(a)
    else:
        lam = scipy.linalg.eigvals(a, overwrite_a=True)
    order = np.lexsort((-lam.imag, -lam.real))
    keep = order[: min(n_keep, lam.size)]
    modes = None
    if shapes:
        modes = np.zeros((model.n_dof, keep.size), dtype=complex)
        modes[model.free, :] = basis.expand(vec[:n, keep])
    kept = lam[keep]
    gaps = np.abs(np.diff(kept))
    degenerate = bool(np.any(gaps < _DEGENERATE_TOL * np.maximum(np.abs(kept[:-1]), 1.0)))
    return StabilityResult(eigenvalues=kept, shapes=modes, degenerate=degenerate, basis=basis)


@dataclass
class AileronResult:
    eta: float  # flexible over rigid rolling moment per unit deflection


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

    w_anti is the antisymmetric-image AIC, k_a the antisymmetric aero
    stiffness on beam dofs, f_delta the nodal load of the rigid aileron
    lift, and roll_rigid its rolling moment.
    """

    lattice: Lattice
    flow: FlowConditions
    alpha_delta: np.ndarray
    w_anti: np.ndarray
    t_wash: np.ndarray
    k_a: np.ndarray
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
    load_scaled = t_load * lattice.dy[None, :]
    k_a = -flow.rho * flow.V**2 * load_scaled @ np.linalg.solve(w_anti, t_wash)
    return AileronOperators(
        lattice=lattice,
        flow=flow,
        alpha_delta=alpha_delta,
        w_anti=w_anti,
        t_wash=t_wash,
        k_a=k_a,
        f_delta=t_load @ lift_r,
        roll_rigid=roll_r,
    )


def aileron_solve(model: BeamModel, ops: AileronOperators) -> AileronResult:
    """Flexible response of the beam to unit aileron deflection."""
    lattice, flow = ops.lattice, ops.flow
    free = model.free
    ku = model.free_block(model.stiffness() - ops.k_a)
    u = np.zeros(model.n_dof)
    u[free] = scipy.linalg.solve(ku, ops.f_delta[free])
    gamma_f = np.linalg.solve(ops.w_anti, -flow.V * (ops.alpha_delta + ops.t_wash @ u))
    lift_f = flow.rho * flow.V * gamma_f * lattice.dy
    roll_f = float(np.sum(lattice.load_pts[:, 1] * lift_f))
    return AileronResult(eta=roll_f / ops.roll_rigid)


def aileron_effectiveness(
    model: BeamModel,
    lattice: Lattice,
    flow: FlowConditions,
    aileron: AileronDef,
) -> AileronResult:
    """Flexible-to-rigid ratio of rolling moment per unit aileron deflection."""
    return aileron_solve(model, aileron_operators(lattice, model.nodes, flow, aileron))


def _stability_margin(
    model: BeamModel,
    lattice: Lattice,
    flow_of_v: Callable[[float], FlowConditions],
) -> Callable[[float], float]:
    """Largest state-matrix eigenvalue real part as a function of speed.

    Everything that does not depend on the speed is built once: the basis
    of dynamic_stability, and M^-1 K, M^-1 C_s and the unit-flow aero
    operators projected onto it.  The AIC is beta times the incompressible
    one, so at any flow K_a scales by rho V^2 / beta and D_a by rho V / beta,
    and each speed costs two scaled block updates and an eigenvalue-only
    eig.  Matches dynamic_stability(...).max_real to roundoff.
    """
    basis = _stability_basis(model)
    n = basis.size
    unit = aero_operators(lattice, FlowConditions(V=1.0, rho=1.0), model.nodes)
    m_k = basis.project(model.free_block(model.stiffness()))
    m_c = basis.project(model.free_block(rayleigh_damping(model)))
    m_ka = basis.project(model.free_block(unit.K_a))
    m_da = basis.project(model.free_block(unit.D_a))

    def margin(v: float) -> float:
        flow = flow_of_v(v)
        rv_beta = flow.rho * flow.V / flow.beta
        a = np.zeros((2 * n, 2 * n), order="F")  # geev then works in place
        a[:n, n:] = np.eye(n)
        a[n:, :n] = (rv_beta * flow.V) * m_ka - m_k
        a[n:, n:] = rv_beta * m_da - m_c
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
