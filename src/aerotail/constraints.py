"""Design vector, constraint stack, and derivatives for the tailored wing.

Design vector: nine entries per design panel, [xiA1..4, xiD1..4, t], packed
panel by panel.

Constraint vector (all entries feasible when <= 0), fixed layout:

    for each load case:
        tw   8 per design panel   most critical Tsai-Wu residuals w - 1
        ds   10                   real parts of leading aeroelastic eigenvalues
        ae   1                    eta_min - eta (aileron effectiveness)
        AoA  2 per station        alpha bounds at trim, lower then upper
    feas 6 per design panel       lamination-parameter feasibility residuals

Fixed-length blocks are padded with a large negative sentinel where fewer
values exist, so the layout never depends on the design.  AVAILABILITY
names the level that evaluates each category, "LF" or "both": a model
fills the blocks of its level and reports NaN elsewhere.  Only LF evaluates
aileron effectiveness, so at HF the ae rows are NaN.  No category is HF
only: the optimizer corrects the shared rows and passes the LF-only ones
through (`mfopt.partition_rows`).  The layout and the level's mask are
built once per analysis.

There are no beam-buckling rows: the beam nodes lie in z = 0 and every
trimmed load is Fz, Mx or My, so the cantilever carries no axial force and
beam buckling has no factor to report.

Gradients: the mass gradient and the feasibility block are closed form.
Every other row is differentiated by central finite differences, step
1e-6 * (1 + |x_i|), in the PROBED_ENTRIES of each panel only (xiA1..4 and
t), falling back to one-sided probes at the box bounds so the model is
never evaluated outside its domain.  The model reads a panel only through
its membrane stiffness and thickness, so the xiD columns of those rows are
exactly 0.0 on available rows and NaN elsewhere, which is what probing them
would give.  Near-coincident eigenvalues are flagged per row by evaluate
(ModelOutputs.nonsmooth); gradients carries no flags.

Every probe design runs through one model build and `_physics`, in
batches: on models with dense solves (at most aeroelastic.N_MODES free
dofs, both toy levels) all probes form one stack, whose arrays carry a
leading design axis through the trim, stability and aileron pass; larger
models run one design per batch.  Each probe's rows are bit-identical to
its own evaluate.  A batch that raises ends the call, and the exception
carries n_evaluates: the probe designs whose build had started.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aero import FlowConditions
from .aeroelastic import (
    N_STABILITY,
    StaticAeroelasticResult,
    _modal,
    aileron_solve,
    dynamic_stability,
    static_aeroelastic,
)
from .fidelity import (
    FidelityConfig,
    WingDefinition,
    WingModel,
    build_wing_model,
    wing_structure,
)
from .laminate import (
    LaminationParameters,
    PanelDesign,
    feasibility_gradient,
    feasibility_residuals,
    tsai_wu_factor,
)
from .section import wall_stresses

GRAVITY = 9.80665
FD_REL_STEP = 1.0e-6

N_TSAI_WU = 8  # entries kept per panel per load case
N_FEASIBILITY = 6  # residuals per panel, design only

VARS_PER_PANEL = 9
# panel entries the physics rows read: A comes from xiA and t, nothing from xiD
PROBED_ENTRIES = (0, 1, 2, 3, 8)
T_BOUNDS = (6.25e-4, 0.05)  # panel thickness box, m

# level that evaluates each constraint category
AVAILABILITY = {
    "tw": "both",
    "ds": "both",
    "ae": "LF",
    "AoA": "both",
    "feas": "both",
}

# pads critical-value lists to a fixed length; so strongly negative that a
# padded entry never activates
CRITICAL_PAD_SENTINEL = -1.0e30


@dataclass(frozen=True)
class LoadCase:
    """One flight condition the constraint stack is evaluated at.

    With a load factor the rigid incidence is trimmed so the half-wing lift
    equals load_factor * g * (supported + structural mass); with
    load_factor None the incidence is fixed at `alpha`.
    """

    V: float
    rho: float
    mach: float = 0.0
    load_factor: float | None = 1.0
    alpha: float = 0.0
    alpha_min: float = -0.17453292519943295  # -10 deg
    alpha_max: float = 0.17453292519943295
    eta_min: float = 0.5
    name: str = ""

    def __post_init__(self):
        if self.V <= 0.0 or self.rho <= 0.0:
            raise ValueError("load case needs positive V and rho")
        if self.alpha_min >= self.alpha_max:
            raise ValueError("alpha bounds must satisfy alpha_min < alpha_max")

    @property
    def flow(self) -> FlowConditions:
        return FlowConditions(V=self.V, rho=self.rho, alpha=self.alpha, mach=self.mach)


def pack_design(panels) -> np.ndarray:
    """Stack panel designs into the flat design vector."""
    parts = []
    for p in panels:
        parts.append(p.lp.as_vector())
        parts.append([p.thickness])
    return np.concatenate(parts)


def unpack_design(x, n_panels: int) -> list[PanelDesign]:
    x = np.asarray(x, dtype=float)
    if x.shape != (VARS_PER_PANEL * n_panels,):
        raise ValueError(
            f"design vector must have {VARS_PER_PANEL * n_panels} entries, got {x.shape}"
        )
    out = []
    for p in range(n_panels):
        block = x[VARS_PER_PANEL * p : VARS_PER_PANEL * (p + 1)]
        out.append(
            PanelDesign(lp=LaminationParameters.from_vector(block[:8]), thickness=block[8])
        )
    return out


def pad_critical(values, k: int) -> np.ndarray:
    """The k largest values along the last axis, largest first, padded with
    CRITICAL_PAD_SENTINEL to length k."""
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape[:-1] + (k,), CRITICAL_PAD_SENTINEL)
    # a stable sort keeps equal values, +0.0 and -0.0 among them, in input order
    top = -np.sort(-values, axis=-1, kind="stable")[..., :k]
    out[..., : top.shape[-1]] = top
    return out


@dataclass(frozen=True)
class ConstraintLayout:
    """Where each block of the constraint vector lies, for one configuration.

    blocks maps (load case, category) to the slice of that block, in row
    order; the design-only block uses load case -1.
    """

    blocks: dict
    size: int

    def mask_for(self, level: str) -> np.ndarray:
        """Rows the given level evaluates, by AVAILABILITY."""
        mask = np.zeros(self.size, dtype=bool)
        for (_, category), sl in self.blocks.items():
            mask[sl] = AVAILABILITY[category] in ("both", level)
        return mask

    def rows(self, load_case: int, category: str) -> slice:
        return self.blocks[(load_case, category)]

    @classmethod
    def build(cls, defn: WingDefinition, n_loadcases: int) -> "ConstraintLayout":
        per_lc = (
            ("tw", N_TSAI_WU * defn.n_panels),
            ("ds", N_STABILITY),
            ("ae", 1),
            ("AoA", 2 * len(defn.aoa_stations)),
        )
        lengths = [((lc, cat), n) for lc in range(n_loadcases) for cat, n in per_lc]
        lengths.append(((-1, "feas"), N_FEASIBILITY * defn.n_panels))
        blocks: dict = {}
        start = 0
        for key, n in lengths:
            blocks[key] = slice(start, start + n)
            start += n
        return cls(blocks=blocks, size=start)


@dataclass
class ModelOutputs:
    """One model evaluation: objective, constraints, availability, flags.

    failed marks a stand-in for an evaluation whose physics raised.
    """

    f: float
    c: np.ndarray
    mask: np.ndarray
    nonsmooth: np.ndarray
    failed: bool = False


@dataclass
class GradientResult:
    grad_f: np.ndarray
    grad_c: np.ndarray  # (n_constraints, n_variables), NaN on unavailable rows
    n_evaluates: int = 0  # model evaluations run for this gradient; 0 when closed form


class WingAnalysis:
    """Objective and constraint stack of one wing at one fidelity level.

    The layout and the level's read-only row mask are built with the
    analysis; every evaluation returns that one mask.  The design-independent
    structure of the level (`fidelity.WingStructure`) is built on the first
    model build and kept with the definition; it also holds the aero and
    aileron operators of every load case's flow, so every design reuses them.
    """

    def __init__(
        self,
        definition: WingDefinition,
        loadcases,
        fidelity: FidelityConfig,
        level: str = "LF",
    ):
        if level not in ("LF", "HF"):
            raise ValueError("level must be 'LF' or 'HF'")
        self.definition = definition
        self.loadcases = tuple(loadcases)
        if not self.loadcases:
            raise ValueError("need at least one load case")
        self.fidelity = fidelity
        self.level = level
        self.layout = ConstraintLayout.build(definition, len(self.loadcases))
        self._mask = self.layout.mask_for(level)
        self._mask.flags.writeable = False
        if self._have("ae") and definition.aileron is None:
            raise ValueError(
                "aileron effectiveness is constrained but the wing has no aileron"
            )

    def _have(self, category: str) -> bool:
        return AVAILABILITY[category] in ("both", self.level)

    @property
    def n_variables(self) -> int:
        return VARS_PER_PANEL * self.definition.n_panels

    @property
    def n_constraints(self) -> int:
        return self.layout.size

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box bounds: lamination parameters in [-1, 1], thickness in T_BOUNDS."""
        n = self.definition.n_panels
        lb = np.tile(np.r_[-np.ones(8), T_BOUNDS[0]], n)
        ub = np.tile(np.r_[np.ones(8), T_BOUNDS[1]], n)
        return lb, ub

    def build_model(self, x) -> WingModel:
        panels = unpack_design(x, self.definition.n_panels)
        return build_wing_model(self.definition, panels, self.fidelity)

    def trim(self, model: WingModel, i_lc: int) -> StaticAeroelasticResult:
        """Static aeroelastic equilibrium of load case i_lc: u, alpha and total lift.

        Gravity is scaled by the load factor; with a load factor the rigid
        incidence is trimmed to the lift target.  A stacked model gives one
        equilibrium per design.
        """
        lc = self.loadcases[i_lc]
        beam = model.beam
        factor = lc.load_factor if lc.load_factor is not None else 1.0
        fe = beam.gravity_load(GRAVITY * factor)
        target = None
        if lc.load_factor is not None:
            target = lc.load_factor * GRAVITY * (
                self.definition.supported_mass + beam.total_mass()
            )
        return static_aeroelastic(
            beam, model.structure.aero(lc.flow), lc.flow, extra_loads=fe, trim_lift=target
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x) -> ModelOutputs:
        panels = unpack_design(x, self.definition.n_panels)
        model = build_wing_model(self.definition, panels, self.fidelity)
        c, nonsmooth = self._physics(model)
        c[self.layout.rows(-1, "feas")] = np.concatenate(
            [feasibility_residuals(p.lp) for p in panels]
        )
        c[~self._mask] = np.nan
        return ModelOutputs(
            f=model.mass_with_fixed(), c=c, mask=self._mask, nonsmooth=nonsmooth
        )

    def _physics(self, model: WingModel) -> tuple[np.ndarray, np.ndarray]:
        """Rows and flags of every load case of model, one set per design of a stack.

        The design-only feasibility block and the rows the level does not
        evaluate are left NaN.
        """
        shape = model.beam.stack + (self.layout.size,)
        c = np.full(shape, np.nan)
        nonsmooth = np.zeros(shape, dtype=bool)
        for i_lc, lc in enumerate(self.loadcases):
            self._loadcase(model, i_lc, lc, c, nonsmooth)
        return c, nonsmooth

    def _loadcase(self, model: WingModel, i_lc, lc, c, nonsmooth):
        defn = self.definition
        lay = self.layout
        beam = model.beam
        res = self.trim(model, i_lc)

        if self._have("tw"):
            sec, bay = model.sections, model.structure.element_bay
            strains = beam.element_mid_strains(res.u)[..., None, :]
            s = wall_stresses(sec.strain_map[..., bay, :, :, :], sec.membrane[..., bay, :, :, :],
                              sec.thickness[..., bay, :], strains)
            w = tsai_wu_factor((s[..., 0], s[..., 1], s[..., 2]), defn.material) - 1.0
            w = w.reshape(w.shape[:-2] + (-1,))  # element by element, walls in contour order
            w = np.concatenate([w, np.full(w.shape[:-1] + (1,), CRITICAL_PAD_SENTINEL)], axis=-1)
            tw = pad_critical(w[..., model.structure.panel_stations], N_TSAI_WU)
            c[..., lay.rows(i_lc, "tw")] = tw.reshape(tw.shape[:-2] + (-1,))

        if self._have("ds"):
            stab = dynamic_stability(beam, model.structure.aero(lc.flow), shapes=False)
            sl = lay.rows(i_lc, "ds")
            c[..., sl] = pad_critical(np.real(stab.eigenvalues), N_STABILITY)
            nonsmooth[..., sl] = np.asarray(stab.degenerate)[..., None]

        if self._have("ae"):
            eta = aileron_solve(beam, model.structure.aileron(lc.flow))
            c[..., lay.rows(i_lc, "ae")] = lc.eta_min - np.asarray(eta)[..., None]

        if self._have("AoA"):
            y_st = np.asarray(defn.aoa_stations) * defn.planform.semi_span
            twist = res.u[..., 4::6]
            ry = np.reshape(
                [np.interp(y_st, beam.nodes[:, 1], r) for r in twist.reshape(-1, twist.shape[-1])],
                twist.shape[:-1] + y_st.shape,
            )
            a_loc = np.asarray(res.alpha)[..., None] + ry
            pair = np.stack([lc.alpha_min - a_loc, a_loc - lc.alpha_max], axis=-1)
            c[..., lay.rows(i_lc, "AoA")] = pair.reshape(pair.shape[:-2] + (-1,))

    # -- derivatives --------------------------------------------------------

    def mass_gradient(self, x) -> np.ndarray:
        """Closed-form objective gradient; nonzero only on thickness entries.

        Wall areas are fixed geometry, so the gradient does not depend on x;
        it is read from the level's wall-area table without building a model.
        """
        unpack_design(x, self.definition.n_panels)  # same checks as a model build
        g = np.zeros(self.n_variables)
        structure = wing_structure(self.definition, self.fidelity)
        g[VARS_PER_PANEL - 1 :: VARS_PER_PANEL] = structure.thickness_gradient
        return g

    def gradients(self, x) -> GradientResult:
        """Closed-form mass and feasibility rows, central differences elsewhere.

        The probe designs run through `_physics` as one stack on a model
        with dense solves (at most N_MODES free dofs), one design at a time
        otherwise; each probe's rows are bit-identical to its own evaluate.

        A batch that raises ValueError or RuntimeError ends the call; the
        exception then carries n_evaluates, the probe designs whose build
        had started, so solve counters see them.
        """
        x = np.asarray(x, dtype=float)
        lay = self.layout
        n_panels = self.definition.n_panels
        grad_f = self.mass_gradient(x)
        # unprobed columns hold what a probe would give: 0.0, NaN off the level
        grad_c = np.full((lay.size, x.size), np.nan)
        grad_c[self._mask] = 0.0
        lb, ub = self.bounds()
        probed = [VARS_PER_PANEL * p + k for p in range(n_panels) for k in PROBED_ENTRIES]
        h = FD_REL_STEP * (1.0 + np.abs(x[probed]))
        # probes stay inside the box; one-sided at a pinned bound
        hp = np.maximum(0.0, np.minimum(h, ub[probed] - x[probed]))
        hm = np.maximum(0.0, np.minimum(h, x[probed] - lb[probed]))
        xp = np.tile(x, (len(probed), 1))
        xp[np.arange(len(probed)), probed] += hp
        xm = np.tile(x, (len(probed), 1))
        xm[np.arange(len(probed)), probed] -= hm

        designs = [unpack_design(xs, n_panels) for xs in np.concatenate([xp, xm])]
        if _modal(wing_structure(self.definition, self.fidelity)):
            batches = [(1, d) for d in designs]
        else:
            batches = [(len(designs), designs)]
        rows, started = [], 0
        try:
            for n, panels in batches:
                started += n
                c, _ = self._physics(build_wing_model(self.definition, panels, self.fidelity))
                rows.append(c.reshape(n, lay.size))
        except (ValueError, RuntimeError) as exc:
            exc.n_evaluates = started
            raise
        cp, cm = np.split(np.concatenate(rows), 2)
        grad_c[:, probed] = ((cp - cm) / (hp + hm)[:, None]).T

        # exact rows for the design-only feasibility block
        sl = lay.rows(-1, "feas")
        grad_c[sl, :] = 0.0
        for p, pd in enumerate(unpack_design(x, n_panels)):
            r0 = sl.start + N_FEASIBILITY * p
            c0 = VARS_PER_PANEL * p
            grad_c[r0 : r0 + N_FEASIBILITY, c0 : c0 + 8] = feasibility_gradient(pd.lp)
        return GradientResult(grad_f=grad_f, grad_c=grad_c, n_evaluates=len(designs))
