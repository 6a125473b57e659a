"""Trust-region model management: corrected low-fidelity subproblems.

The optimizer minimizes the high-fidelity mass subject to the constraint
stack, but solves every trust-region subproblem on an additively corrected
low-fidelity model.  Constraint rows come in two classes (Alexandrov,
Dennis, Lewis & Torczon, Struct. Optim. 1998): at each accepted center the
correction shifts the LF objective and every row both models provide so
that value and gradient match the HF model exactly (first-order
consistency), and rows only the LF model provides, too expensive to
evaluate at HF, pass through uncorrected.  A row only the HF model provides
has no LF model to correct; `partition_rows` rejects it with ValueError.

Merit function: f + weight * max(0, worst violation).  Ratio test with
eta1 = 0.1 and eta2 = 0.75 (Conn, Gould & Toint, Trust-Region Methods,
2000), one rejection rule for every candidate: a candidate is accepted when
rho >= eta1, its HF merit fell and its HF gradient can be computed, and
rejected otherwise.  A candidate whose physics failed at either level is
such a rejection, traced with rho = -inf and a NaN f_hf and violation, and
costs no HF gradient call.  The radius halves when rho < eta1 or that HF
gradient failed, doubles (up to DELTA_MAX) after strong steps that hit the
trust-region boundary, and stays otherwise.  A failed or infeasible
subproblem falls back to a violation-minimizing restoration step, which is
flagged in the report.

Models are anything with evaluate(x) -> ModelOutputs, gradients(x) ->
GradientResult, and bounds(); WingAnalysis instances qualify, and so do
closed-form models.

The report counts calls per level (n_*_evals, n_*_grads) and model solves
(n_*_solves): one per evaluate plus each gradient's n_evaluates, its
finite-difference probe designs; a gradient call that raised counts the
probe designs whose build had started.  It also sums the wall time spent
inside each level's models (lf_seconds, hf_seconds).  The single-fidelity
run counts everything against HF and reports 0 on LF.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np
import scipy.optimize

from .constraints import GradientResult, ModelOutputs

ETA_ACCEPT = 0.1
ETA_EXPAND = 0.75
DELTA_INIT = 0.1
DELTA_MAX = 1.0
DELTA_MIN = 1.0e-6
SHRINK = 0.5
EXPAND = 2.0
MERIT_WEIGHT = 100.0  # weight of the worst violation in the merit function
STEP_TOL = 1.0e-9  # scaled step below which the loop stops
SUBPROBLEM_TOL = 1.0e-8  # violation a subproblem candidate may keep

CONSISTENCY_TOL_VALUE = 1.0e-12
CONSISTENCY_TOL_GRAD = 1.0e-10

# constraint values are clipped from below before entering the subproblem so
# sentinel padding cannot poison the QP scaling; clipped entries are far from
# active, so the feasible set is unchanged
SUBPROBLEM_CLIP = -1.0e3

# a failed evaluation inside the subproblem: huge objective, every row violated
POISON_F = 1.0e12
POISON_C = 1.0e6


def partition_rows(lf_mask: np.ndarray, hf_mask: np.ndarray):
    """Row index sets: corrected (both levels) and LF passthrough.

    Raises ValueError when a row is available at HF only.
    """
    if np.any(~lf_mask & hf_mask):
        raise ValueError("constraint rows available at HF only have no LF model to correct")
    return np.flatnonzero(lf_mask & hf_mask), np.flatnonzero(lf_mask & ~hf_mask)


@dataclass
class CorrectionData:
    """Additive first-order correction built at one trust-region center.

    Evaluated in centered form, hf_center + (lf(x) - lf_center) + slope s,
    so the corrected value matches the high-fidelity one bit-exactly at the
    center even when a padded row holds the sentinel on one level only.  On
    such rows the LF deviation stays zero and the row degenerates to a plain
    first-order Taylor model of the high-fidelity value.
    """

    x_center: np.ndarray
    f_center_hf: float
    f_center_lf: float
    slope_f: np.ndarray
    both: np.ndarray  # rows carrying a correction; others pass through
    c_center_hf: np.ndarray
    c_center_lf: np.ndarray
    slope_c: np.ndarray  # (n_both, n) slopes for the corrected rows

    def corrected_f(self, lf_f: float, x: np.ndarray) -> float:
        s = np.asarray(x, dtype=float) - self.x_center
        return self.f_center_hf + (lf_f - self.f_center_lf) + self.slope_f @ s

    def corrected_c(self, lf_c: np.ndarray, x: np.ndarray) -> np.ndarray:
        s = np.asarray(x, dtype=float) - self.x_center
        c = np.array(lf_c, dtype=float)
        c[self.both] = (self.c_center_hf + (lf_c[self.both] - self.c_center_lf)
                        + self.slope_c @ s)
        return c

    def corrected_grad_f(self, lf_grad_f: np.ndarray) -> np.ndarray:
        return lf_grad_f + self.slope_f

    def corrected_grad_c(self, lf_grad_c: np.ndarray) -> np.ndarray:
        g = np.array(lf_grad_c, dtype=float)
        g[self.both] += self.slope_c
        return g


def build_correction(
    x_center: np.ndarray,
    lf_out: ModelOutputs,
    hf_out: ModelOutputs,
    lf_grad: GradientResult,
    hf_grad: GradientResult,
) -> CorrectionData:
    both, _ = partition_rows(lf_out.mask, hf_out.mask)
    return CorrectionData(
        x_center=np.array(x_center, dtype=float),
        f_center_hf=hf_out.f,
        f_center_lf=lf_out.f,
        slope_f=hf_grad.grad_f - lf_grad.grad_f,
        both=both,
        c_center_hf=hf_out.c[both].copy(),
        c_center_lf=lf_out.c[both].copy(),
        slope_c=hf_grad.grad_c[both] - lf_grad.grad_c[both],
    )


def verify_consistency(
    corr: CorrectionData,
    lf_out: ModelOutputs,
    hf_out: ModelOutputs,
    lf_grad: GradientResult,
    hf_grad: GradientResult,
) -> tuple[float, float]:
    """Worst value and gradient mismatch of the corrected model at the center."""
    x = corr.x_center
    f = corr.corrected_f(lf_out.f, x)
    gf = corr.corrected_grad_f(lf_grad.grad_f)
    c = corr.corrected_c(lf_out.c, x)
    gc = corr.corrected_grad_c(lf_grad.grad_c)
    both = corr.both
    e_val = abs(f - hf_out.f) / (1.0 + abs(hf_out.f))
    e_grad = np.max(np.abs(gf - hf_grad.grad_f)) / (1.0 + np.max(np.abs(hf_grad.grad_f)))
    if both.size:
        scale = 1.0 + np.abs(hf_out.c[both])
        e_val = max(e_val, np.max(np.abs(c[both] - hf_out.c[both]) / scale))
        gscale = 1.0 + np.max(np.abs(hf_grad.grad_c[both]), initial=0.0)
        e_grad = max(
            e_grad, np.max(np.abs(gc[both] - hf_grad.grad_c[both])) / gscale
        )
    return float(e_val), float(e_grad)


def _checked_correction(
    x_center: np.ndarray,
    lf_out: ModelOutputs,
    hf_out: ModelOutputs,
    lf_grad: GradientResult,
    hf_grad: GradientResult,
) -> CorrectionData:
    """build_correction, raising unless it is first-order consistent at the center."""
    corr = build_correction(x_center, lf_out, hf_out, lf_grad, hf_grad)
    e_val, e_grad = verify_consistency(corr, lf_out, hf_out, lf_grad, hf_grad)
    if e_val > CONSISTENCY_TOL_VALUE or e_grad > CONSISTENCY_TOL_GRAD:
        raise RuntimeError(
            f"correction breaks first-order consistency: {e_val:.2e}, {e_grad:.2e}"
        )
    return corr


class _Counting:
    """Per-model call counter; identical model objects share one counter.

    solves counts model evaluations: one per evaluate that reaches the
    model, plus each gradient's n_evaluates, read from the result or, when
    the gradient call raises, from the exception (0 when it carries none).
    seconds sums the wall time spent inside the model's evaluate and
    gradients, raising calls included.
    """

    def __init__(self, model):
        self.model = model
        self.evals = 0
        self.grads = 0
        self.solves = 0
        self.seconds = 0.0

    def evaluate(self, x) -> ModelOutputs:
        self.evals += 1
        self.solves += 1
        t0 = time.perf_counter()
        try:
            return self.model.evaluate(x)
        finally:
            self.seconds += time.perf_counter() - t0

    def gradients(self, x) -> GradientResult:
        self.grads += 1
        t0 = time.perf_counter()
        try:
            out = self.model.gradients(x)
        except (ValueError, RuntimeError) as exc:
            self.solves += getattr(exc, "n_evaluates", 0)
            raise
        finally:
            self.seconds += time.perf_counter() - t0
        self.solves += out.n_evaluates
        return out


def _attempt(call, x):
    """call(x), or None when the physics fails at x."""
    try:
        return call(x)
    except (ValueError, RuntimeError):
        return None


def _poisoned_outputs(t: ModelOutputs) -> ModelOutputs:
    return ModelOutputs(
        f=POISON_F,
        c=np.full_like(t.c, POISON_C),
        mask=t.mask,
        nonsmooth=np.zeros_like(t.nonsmooth),
        failed=True,
    )


def _poisoned_gradients(t: GradientResult) -> GradientResult:
    return GradientResult(
        grad_f=np.zeros_like(t.grad_f),
        grad_c=np.zeros_like(t.grad_c),
    )


class _Cached:
    """Small memo so the subproblem's fun/jac callbacks share evaluations.

    Subproblem iterates are only asymptotically feasible, so the physics can
    legitimately fail on them (indefinite section stiffness outside the
    lamination feasible set).  After the first successful call such failures
    come back as poisoned outputs, a huge objective with every constraint
    violated and failed set, so the line search backs away instead
    of crashing the solver.
    """

    CAP = 16  # memo entries kept per kind, oldest dropped first

    def __init__(self, counting: _Counting):
        self.inner = counting
        self._memo: dict[str, dict] = {"evaluate": {}, "gradients": {}}
        self._last: dict = {}  # kind -> last successful result, the poison template

    def _get(self, kind: str, x, poison):
        store = self._memo[kind]
        key = np.asarray(x, dtype=float).tobytes()
        if key not in store:
            if len(store) >= self.CAP:
                store.pop(next(iter(store)))
            try:
                out = getattr(self.inner, kind)(x)
            except (ValueError, RuntimeError):
                if kind not in self._last:
                    raise
                out = poison(self._last[kind])
            else:
                self._last[kind] = out
            store[key] = out
        return store[key]

    def evaluate(self, x) -> ModelOutputs:
        return self._get("evaluate", x, _poisoned_outputs)

    def gradients(self, x) -> GradientResult:
        return self._get("gradients", x, _poisoned_gradients)


@dataclass
class TraceEntry:
    """One trust-region step; the start point has no subproblem, so no status."""

    x: np.ndarray
    f_hf: float
    violation: float
    delta: float
    rho: float
    accepted: bool
    restoration: bool = False
    slsqp_status: int | None = None  # exit status of the subproblem's SLSQP run
    candidate_violation: float = np.nan  # corrected violation of that run's candidate


@dataclass
class OptimizerReport:
    x_best: np.ndarray
    f_best: float
    violation_best: float
    trace: list[TraceEntry]
    iterations: int
    n_hf_evals: int
    n_hf_grads: int
    n_lf_evals: int
    n_lf_grads: int
    n_hf_solves: int  # evaluates plus gradient probes, as _Counting.solves
    n_lf_solves: int
    hf_seconds: float  # wall time inside the model's evaluate and gradients, as _Counting.seconds
    lf_seconds: float
    termination: str
    restorations: int = 0
    nonsmooth_encounters: int = 0

    def summary(self) -> dict:
        """Every field of the report but x_best and trace, by name."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("x_best", "trace")
        }


def _clip(c: np.ndarray) -> np.ndarray:
    return np.maximum(c, SUBPROBLEM_CLIP)


def _violation(c: np.ndarray, rows: np.ndarray) -> float:
    if rows.size == 0:
        return 0.0
    return float(max(0.0, np.max(c[rows])))


@dataclass
class SubproblemResult:
    """Candidate of one subproblem and why it came from restoration or not.

    status is SLSQP's exit status; violation is the corrected violation of
    its candidate, which started restoration when above SUBPROBLEM_TOL.
    """

    x: np.ndarray
    restored: bool
    status: int
    violation: float


def solve_subproblem(
    lf: _Cached,
    corr: CorrectionData,
    delta: float,
    lb: np.ndarray,
    ub: np.ndarray,
    scale: np.ndarray,
    lf_only: np.ndarray,
) -> SubproblemResult:
    """Minimize the corrected model inside trust region and box around corr's center.

    Constraint rows: corrected entries plus the raw LF passthrough entries.
    """
    x_center = corr.x_center
    lo = np.maximum(lb, x_center - delta * scale)
    hi = np.minimum(ub, x_center + delta * scale)
    bounds = list(zip(lo, hi))
    rows = np.concatenate([corr.both, lf_only])

    def con_values(x):
        return _clip(corr.corrected_c(lf.evaluate(x).c, x)[rows])

    def con_jac(x):
        return corr.corrected_grad_c(lf.gradients(x).grad_c)[rows]

    constraints = (
        [{"type": "ineq", "fun": lambda x: -con_values(x), "jac": lambda x: -con_jac(x)}]
        if rows.size
        else []
    )

    def objective(x):
        return corr.corrected_f(lf.evaluate(x).f, x)

    def violation(x):
        return float(np.max(con_values(x))) if rows.size else 0.0

    # One SLSQP run from the center.  Its exit flags are unreliable near
    # tight tolerances (it often stops on a line-search failure), so judge
    # the candidate by feasibility alone and let the trust-region ratio test
    # police the rest.  An infeasible candidate starts restoration.
    res = scipy.optimize.minimize(
        objective,
        x_center,
        jac=lambda x: corr.corrected_grad_f(lf.gradients(x).grad_f),
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-10},
    )
    candidate = np.clip(res.x, lo, hi)
    v = violation(candidate)
    if v <= SUBPROBLEM_TOL:
        return SubproblemResult(candidate, False, int(res.status), v)

    # restoration: drive the violation down inside the same region
    def infeasibility(x):
        v = np.maximum(con_values(x), 0.0)
        return float(v @ v)

    def infeasibility_jac(x):
        v = np.maximum(con_values(x), 0.0)
        return 2.0 * (v @ con_jac(x))

    res_r = scipy.optimize.minimize(
        infeasibility,
        candidate,
        jac=infeasibility_jac,
        bounds=bounds,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return SubproblemResult(np.clip(res_r.x, lo, hi), True, int(res.status), v)


def trmm_optimize(
    lf,
    hf,
    x0,
    budget: int = 100,
    max_iter: int = 50,
) -> OptimizerReport:
    """Trust-region model management loop.

    budget caps high-fidelity evaluations; budget = 1 evaluates the start
    point and returns the diagnostic report without taking a step.  Passing
    the same object for lf and hf gives the single-fidelity baseline: the
    corrections are identically zero and every subproblem runs on the
    high-fidelity model directly (and is counted against it).
    """
    x0 = np.asarray(x0, dtype=float)
    hf_count = _Counting(hf)
    lf_count = hf_count if lf is hf else _Counting(lf)
    lf_cached = _Cached(lf_count)

    lb, ub = hf.bounds()
    scale = np.where(np.isfinite(ub - lb), 0.5 * (ub - lb), 1.0)

    hf_out = hf_count.evaluate(x0)
    nonsmooth = int(np.any(hf_out.nonsmooth))
    lf_out = lf_cached.evaluate(x0)
    both, lf_only = partition_rows(lf_out.mask, hf_out.mask)

    def merit(f, c, c_lf):
        """Merit and worst violation: shared rows of c, plus the LF passthrough rows of c_lf."""
        v = max(_violation(_clip(c), both), _violation(_clip(c_lf), lf_only))
        return f + MERIT_WEIGHT * v, v

    m_center, v_center = merit(hf_out.f, hf_out.c, lf_out.c)
    trace = [TraceEntry(x=x0.copy(), f_hf=hf_out.f, violation=v_center, delta=DELTA_INIT,
                        rho=np.nan, accepted=True)]
    xc = x0.copy()
    hf_center, lf_center = hf_out, lf_out
    delta = DELTA_INIT
    restorations = 0
    if budget > 1:
        hf_grad = hf_count.gradients(xc)
        corr = _checked_correction(xc, lf_out, hf_out, lf_cached.gradients(xc), hf_grad)

    term = "max_iter"
    it = 0
    while it < max_iter:
        if hf_count.evals >= budget:
            term = "budget"
            break
        it += 1
        sub = solve_subproblem(lf_cached, corr, delta, lb, ub, scale, lf_only)
        cand, restored = sub.x, sub.restored
        restorations += int(restored)
        step = np.max(np.abs(cand - xc) / scale)
        if step < STEP_TOL and not restored:
            it -= 1
            term = "step_tol"
            break

        lf_cand = lf_cached.evaluate(cand)
        hf_cand = None if lf_cand.failed else _attempt(hf_count.evaluate, cand)
        if hf_cand is None:
            # the physics failed at the candidate on either level: reject it
            f_cand = m_cand = v_cand = actual = np.nan
            rho = -np.inf
        else:
            # model merit at the candidate (corrected LF)
            m_model_cand, _ = merit(corr.corrected_f(lf_cand.f, cand),
                                    corr.corrected_c(lf_cand.c, cand), lf_cand.c)
            predicted = m_center - m_model_cand
            nonsmooth += int(np.any(hf_cand.nonsmooth))
            f_cand = hf_cand.f
            m_cand, v_cand = merit(f_cand, hf_cand.c, lf_cand.c)
            actual = m_center - m_cand
            rho = actual / predicted if predicted > 1e-16 else (-1.0 if actual <= 0 else 1.0)

        accept = rho >= ETA_ACCEPT and actual > 0
        grad_failed = False
        if accept:
            # the new center must be linearizable before the move commits
            hf_grad_cand = _attempt(hf_count.gradients, cand)
            grad_failed = hf_grad_cand is None
            accept = not grad_failed
        if accept:
            hf_grad = hf_grad_cand
            xc = cand
            hf_center, lf_center = hf_cand, lf_cand
            m_center, v_center = m_cand, v_cand
        on_boundary = step >= 0.999 * delta
        if rho < ETA_ACCEPT or grad_failed:
            delta = SHRINK * delta
        elif rho > ETA_EXPAND and on_boundary:
            delta = min(EXPAND * delta, DELTA_MAX)
        trace.append(TraceEntry(x=cand, f_hf=f_cand, violation=v_cand,
                                delta=delta, rho=float(rho), accepted=accept,
                                restoration=restored, slsqp_status=sub.status,
                                candidate_violation=sub.violation))
        if accept:
            corr = _checked_correction(
                xc, lf_center, hf_center, lf_cached.gradients(xc), hf_grad
            )
        if delta < DELTA_MIN:
            term = "delta_min"
            break

    sf = lf_count is hf_count  # single fidelity: LF counts stay 0
    return OptimizerReport(
        x_best=xc,
        f_best=hf_center.f,
        violation_best=v_center,
        trace=trace,
        iterations=it,
        n_hf_evals=hf_count.evals,
        n_hf_grads=hf_count.grads,
        n_lf_evals=0 if sf else lf_count.evals,
        n_lf_grads=0 if sf else lf_count.grads,
        n_hf_solves=hf_count.solves,
        n_lf_solves=0 if sf else lf_count.solves,
        hf_seconds=hf_count.seconds,
        lf_seconds=0.0 if sf else lf_count.seconds,
        termination=term,
        restorations=restorations,
        nonsmooth_encounters=nonsmooth,
    )
