"""Cross-checks between the two wing models of one configuration.

Three comparisons are provided: tip-load statics, structural modes, and
aeroelastic stability at a flow point.  Relative errors always use the
refined model as the reference, and mode shapes are correlated through the
modal assurance criterion evaluated on the node set both meshes share (an
integer mesh refinement keeps every coarse node).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aero import FlowConditions
from .aeroelastic import N_MODES, dynamic_stability
from .fidelity import WingModel

__all__ = [
    "ComparisonReport",
    "mac",
    "mac_matrix",
    "relative_error",
    "shared_node_dofs",
    "tip_response",
    "compare_static",
    "compare_modal",
    "compare_aeroelastic",
]

# pass/fail thresholds of the comparison flags
BENDING_THRESHOLD = 0.10  # relative tip-deflection error below which bending matches
TORSION_THRESHOLD = 0.15  # relative tip-twist error above which torsion is knocked down
MODAL_MAC_THRESHOLD = 0.95
AEROELASTIC_MAC_THRESHOLD = 0.9
N_CHECK = 5  # leading mode pairs whose diagonal MAC must pass
N_MODAL = 8  # structural modes tabulated and correlated by compare_modal


def mac(phi_i: np.ndarray, phi_j: np.ndarray) -> float:
    """Modal assurance criterion of two shape vectors, complex-safe.

    |phi_i^H phi_j|^2 / ((phi_i^H phi_i)(phi_j^H phi_j)), in [0, 1];
    1 for identical shapes up to any nonzero complex scale.
    """
    a = np.asarray(phi_i).ravel()
    b = np.asarray(phi_j).ravel()
    if a.size != b.size:
        raise ValueError("shape vectors must have equal length")
    na = np.vdot(a, a).real
    nb = np.vdot(b, b).real
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero vector has no mode shape")
    return float(abs(np.vdot(a, b)) ** 2 / (na * nb))


def mac_matrix(shapes_a: np.ndarray, shapes_b: np.ndarray) -> np.ndarray:
    """MAC of every column pair; rows index shapes_a, columns shapes_b."""
    a = np.asarray(shapes_a)
    b = np.asarray(shapes_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("shape matrices must share their row dimension")
    na = np.einsum("ij,ij->j", a.conj(), a).real
    nb = np.einsum("ij,ij->j", b.conj(), b).real
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("zero vector has no mode shape")
    g = np.abs(a.conj().T @ b) ** 2
    return g / np.outer(na, nb)


def relative_error(value_lf: float, value_hf: float) -> float:
    """|lf - hf| / |hf|; the refined value is the reference."""
    if value_hf == 0.0:
        return 0.0 if value_lf == 0.0 else np.inf
    return abs(value_lf - value_hf) / abs(value_hf)


def shared_node_dofs(lf: WingModel, hf: WingModel) -> tuple[np.ndarray, np.ndarray]:
    """Dof indices of the nodes the two meshes have in common.

    Every coarse node must appear in the refined mesh (integer refinement
    along the same axis); unmatched nodes raise.
    """
    y_lf = lf.beam.nodes[:, 1]
    y_hf = hf.beam.nodes[:, 1]
    tol = 1e-9 * (1.0 + float(np.max(np.abs(y_hf), initial=0.0)))
    hf_nodes = []
    for y in y_lf:
        j = int(np.argmin(np.abs(y_hf - y)))
        if abs(y_hf[j] - y) > tol:
            raise ValueError("meshes do not share the coarse node set")
        hf_nodes.append(j)
    lf_dofs = (6 * np.arange(y_lf.size)[:, None] + np.arange(6)).ravel()
    hf_dofs = (6 * np.asarray(hf_nodes)[:, None] + np.arange(6)).ravel()
    return lf_dofs, hf_dofs


@dataclass
class ComparisonReport:
    """Outcome of one model comparison.

    lf_values / hf_values / relative_errors are aligned by key; eigenvalue
    tables hold per-model arrays; mac is the (optionally complex-derived)
    assurance matrix; flags record pass/fail against the module thresholds.
    """

    case: int
    lf_values: dict = field(default_factory=dict)
    hf_values: dict = field(default_factory=dict)
    relative_errors: dict = field(default_factory=dict)
    eigenvalue_tables: dict = field(default_factory=dict)
    mac: np.ndarray | None = None
    flags: dict = field(default_factory=dict)


def tip_response(model: WingModel, dof_offset: int) -> float:
    """Tip displacement component `dof_offset` under a unit tip load on it."""
    beam = model.beam
    tip = beam.n_nodes - 1
    loads = np.zeros(beam.n_dof)
    loads[6 * tip + dof_offset] = 1.0
    u = beam.static_solve(loads)
    return float(u[6 * tip + dof_offset])


def compare_static(lf: WingModel, hf: WingModel) -> ComparisonReport:
    """Unit tip force and unit tip torque, solved on both models.

    Reports the tip out-of-plane deflection and the tip twist with their
    relative errors; flags whether bending stays below its threshold while
    torsion exceeds its own (the expected knockdown signature).
    """
    w_lf = tip_response(lf, 2)
    w_hf = tip_response(hf, 2)
    ry_lf = tip_response(lf, 4)
    ry_hf = tip_response(hf, 4)
    e_bend = relative_error(w_lf, w_hf)
    e_tors = relative_error(ry_lf, ry_hf)
    return ComparisonReport(
        case=1,
        lf_values={"tip_deflection": w_lf, "tip_twist": ry_lf},
        hf_values={"tip_deflection": w_hf, "tip_twist": ry_hf},
        relative_errors={"bending": e_bend, "torsion": e_tors},
        flags={
            "bending_below_threshold": bool(e_bend < BENDING_THRESHOLD),
            "torsion_above_threshold": bool(e_tors > TORSION_THRESHOLD),
        },
    )


def _swap_flag(m: np.ndarray) -> bool:
    """True when any row or column peaks off the diagonal."""
    k = min(m.shape)
    for i in range(k):
        row = np.delete(m[i, :], i)
        col = np.delete(m[:, i], i)
        off = max(row.max(initial=0.0), col.max(initial=0.0))
        if off > m[i, i]:
            return True
    return False


def compare_modal(lf: WingModel, hf: WingModel) -> ComparisonReport:
    """Frequency table plus full MAC matrix of N_MODAL modes on the shared node set.

    The modes are the leading N_MODAL of the beams' stability basis
    (modal(N_MODES)), so a later stability solve reuses the one eigensolve.
    """
    res_lf = lf.beam.modal(max(N_MODAL, N_MODES))
    res_hf = hf.beam.modal(max(N_MODAL, N_MODES))
    omega_lf, omega_hf = res_lf.omega[:N_MODAL], res_hf.omega[:N_MODAL]
    i_lf, i_hf = shared_node_dofs(lf, hf)
    m = mac_matrix(res_lf.shapes[i_lf, :N_MODAL], res_hf.shapes[i_hf, :N_MODAL])
    k = min(omega_lf.size, omega_hf.size)
    errors = {
        f"omega_{i + 1}": relative_error(omega_lf[i], omega_hf[i])
        for i in range(k)
    }
    d = np.diag(m)[: min(N_CHECK, k)]
    return ComparisonReport(
        case=2,
        lf_values={f"omega_{i + 1}": float(omega_lf[i]) for i in range(k)},
        hf_values={f"omega_{i + 1}": float(omega_hf[i]) for i in range(k)},
        relative_errors=errors,
        eigenvalue_tables={"lf_omega": omega_lf, "hf_omega": omega_hf},
        mac=m,
        flags={
            "matched_modes": bool(np.all(d > MODAL_MAC_THRESHOLD)),
            "mode_swap": _swap_flag(m),
        },
    )


def compare_aeroelastic(
    lf: WingModel,
    hf: WingModel,
    flow: FlowConditions,
) -> ComparisonReport:
    """Leading stability eigenvalues (N_STABILITY) and complex MAC at one flow point."""
    res_lf = dynamic_stability(lf.beam, lf.structure.aero(flow))
    res_hf = dynamic_stability(hf.beam, hf.structure.aero(flow))
    i_lf, i_hf = shared_node_dofs(lf, hf)
    k = min(res_lf.eigenvalues.size, res_hf.eigenvalues.size)
    m = mac_matrix(res_lf.shapes[i_lf, :k], res_hf.shapes[i_hf, :k])
    errors = {
        f"eig_{i + 1}": relative_error(
            abs(res_lf.eigenvalues[i]), abs(res_hf.eigenvalues[i])
        )
        for i in range(k)
    }
    d = np.diag(m)[: min(N_CHECK, k)]
    return ComparisonReport(
        case=3,
        lf_values={"max_real": float(res_lf.max_real)},
        hf_values={"max_real": float(res_hf.max_real)},
        relative_errors=errors,
        eigenvalue_tables={
            "lf_eigenvalues": res_lf.eigenvalues[:k],
            "hf_eigenvalues": res_hf.eigenvalues[:k],
        },
        mac=m,
        flags={
            "matched_modes": bool(np.all(d > AEROELASTIC_MAC_THRESHOLD)),
            "mode_swap": _swap_flag(m),
        },
    )
