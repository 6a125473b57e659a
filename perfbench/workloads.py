"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one caller: each operation waits for the
previous one, as the optimizer does.  An operation is the unit the run times:

  toy-mf-opt    one `trmm_optimize` on the two-panel toy wing from its shipped start
  wing-eval     one seeded wing_default design evaluated at LF, then at HF
  wing-flutter  one seeded wing_default design: the three LF/HF comparisons,
                then `critical_speed` at LF and at HF in the cruise flow

The optimizer's work is chaotic in its start: seeded starts, even ones whose
thicknesses differ by only 1%, took 10.6 to 22.4 s at the same budget (one
BLAS thread on a 2-vCPU Intel Xeon VM).  So toy-mf-opt starts every
optimization from the shipped design, whose work repeats exactly, and its
seed generates the config design that set-up loads and the warm-up
evaluates and checks.

The package is only ever called through module attributes (`config.load_config`,
not a name imported here), so a traced run sees every call.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from aerotail import aeroelastic, compare, config, constraints, laminate, mfopt
from aerotail.aero import FlowConditions

PLY_ANGLES = (0.0, 45.0, -45.0, 90.0)
THICKNESS_SCALE = 0.15  # seeded thicknesses are the shipped ones times 1 +- this
SETUP_REPEATS = 5  # timed set-ups before the first operation
SETUP_REPEATS_PER_OP = 3  # and after every operation, so their median spans the run

TOY_BUDGET = 3  # HF evaluations per optimization: two trust-region iterations
TOY_MAX_ITER = 30
FLUTTER_BRACKET = (150.0, 600.0)  # m/s, straddles the crossing of seeded designs
MERIT_WEIGHT = 100.0  # trmm_optimize's default merit weight

WORKLOADS = {
    "toy-mf-opt": "toy_two_panel.json",
    "wing-eval": "wing_default.json",
    "wing-flutter": "wing_default.json",
}


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def seeded_panels(shipped: list[dict], rng: np.random.Generator) -> list[dict]:
    """Shipped panels with random half stacks of the same length, thickness +-15%."""
    out = []
    for p in shipped:
        stack = rng.choice(PLY_ANGLES, size=len(p["stack"])).tolist()
        scale = 1.0 + rng.uniform(-THICKNESS_SCALE, THICKNESS_SCALE)
        out.append({"stack": stack, "thickness": p["thickness"] * scale})
    return out


def design_vector(panels: list[dict]) -> np.ndarray:
    return constraints.pack_design(
        [
            laminate.PanelDesign(
                laminate.lp_from_stack(np.deg2rad(p["stack"])), p["thickness"]
            )
            for p in panels
        ]
    )


class Workload:
    """Seeded inputs, set-up and the per-operation loop body of one workload."""

    def __init__(self, name: str, root: str, seed: int, work_dir: str):
        self.name = name
        self.seed = seed
        with open(os.path.join(root, "src", "aerotail", "data", WORKLOADS[name]),
                  encoding="utf-8") as fh:
            self.raw = json.load(fh)
        self.shipped = self.raw["panels"]
        self.raw["panels"] = seeded_panels(self.shipped, self._rng(-1))
        self.config_path = os.path.join(work_dir, f"{name}-{seed}-{os.getpid()}.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.raw, fh)
        self.cfg = None
        self.lf = self.hf = None
        self.setup_times: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, list[float]] = {}

    def _rng(self, op: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, op + 1])

    def design(self, op: int) -> np.ndarray:
        return design_vector(seeded_panels(self.shipped, self._rng(op)))

    def sizes(self) -> dict:
        out = {
            "config": WORKLOADS[self.name],
            "n_variables": int(self.lf.n_variables),
            "n_constraints": int(self.lf.n_constraints),
            "n_loadcases": len(self.cfg.loadcases),
            "lf_fidelity": self.raw["fidelity"]["lf"],
            "hf_fidelity": self.raw["fidelity"]["hf"],
            "setup_repeats": len(self.setup_times),
        }
        if self.name == "toy-mf-opt":
            out.update(budget=TOY_BUDGET, max_iter=TOY_MAX_ITER)
        if self.name == "wing-flutter":
            out.update(bracket_m_s=list(FLUTTER_BRACKET), flow_case=self.cfg.loadcases[0].name)
        return out

    def record(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def note(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(value)

    # -- set-up --------------------------------------------------------------

    def setup(self, repeats: int) -> None:
        """Time `repeats` set-ups: load_config of the generated config plus both analyses.

        The first call keeps its last set-up for the operations.  Later calls
        discard theirs, so analyses the operations use live for the whole run.
        """
        for _ in range(repeats):
            t0 = time.perf_counter()
            cfg = config.load_config(self.config_path)
            analyses = cfg.analyses()
            self.setup_times.append(time.perf_counter() - t0)
        if self.cfg is None:
            self.cfg = cfg
            self.lf, self.hf = analyses

    def warm_up(self) -> None:
        """Untimed evaluates of the config design at both levels, checked."""
        if self.name == "wing-flutter":
            return
        x = self.cfg.initial_design()
        self.first = (x, self.lf.evaluate(x), self.hf.evaluate(x))
        for model, out in zip((self.lf, self.hf), self.first[1:]):
            check_evaluate(model, x, out, self.cfg.definition.fixed_mass)

    # -- operations: run_op is timed (and traced), check_op is not -------------

    def run_op(self, op: int) -> None:
        self.pending = None
        getattr(self, "_op_" + self.name.replace("-", "_"))(op)

    def check_op(self) -> None:
        getattr(self, "_check_" + self.name.replace("-", "_"))(*self.pending)

    def _op_toy_mf_opt(self, op: int) -> None:
        x0 = design_vector(self.shipped)
        t0 = time.perf_counter()
        rep = mfopt.trmm_optimize(self.lf, self.hf, x0, budget=TOY_BUDGET,
                                  max_iter=TOY_MAX_ITER)
        self.record("opt_s", time.perf_counter() - t0)
        self.pending = (rep,)

    def _check_toy_mf_opt(self, rep) -> None:
        start = rep.trace[0]
        m0 = start.f_hf + MERIT_WEIGHT * start.violation
        m_best = rep.f_best + MERIT_WEIGHT * rep.violation_best
        self.note("opt_merit", m_best)
        self.note("n_hf_evals", rep.n_hf_evals)
        poisoned = sum(1 for e in rep.trace if e.rho == -np.inf)
        if poisoned:
            raise CheckFailed(f"{poisoned} candidate evaluations failed inside the optimizer")
        if not np.isfinite(m_best) or m_best > m0 * (1.0 + 1e-12):
            raise CheckFailed(f"best merit {m_best!r} is worse than the start merit {m0!r}")

    def _op_wing_eval(self, op: int) -> None:
        x = self.design(op)
        outs = []
        for level, model in (("lf", self.lf), ("hf", self.hf)):
            t0 = time.perf_counter()
            outs.append(model.evaluate(x))
            self.record(f"eval_{level}_s", time.perf_counter() - t0)
        self.pending = (x, outs)

    def _check_wing_eval(self, x, outs) -> None:
        for model, out in zip((self.lf, self.hf), outs):
            check_evaluate(model, x, out, self.cfg.definition.fixed_mass)

    def _op_wing_flutter(self, op: int) -> None:
        x = self.design(op)
        m_lf, m_hf = self.lf.build_model(x), self.hf.build_model(x)
        cruise = self.cfg.loadcases[0]

        def flow_of_v(v):
            return FlowConditions(V=v, rho=cruise.rho, mach=cruise.mach)

        t0 = time.perf_counter()
        reports = (
            compare.compare_static(m_lf, m_hf),
            compare.compare_modal(m_lf, m_hf),
            compare.compare_aeroelastic(m_lf, m_hf, flow_of_v(cruise.V)),
        )
        self.record("compare_s", time.perf_counter() - t0)
        t0 = time.perf_counter()
        v_lf = aeroelastic.critical_speed(m_lf.beam, m_lf.lattice, flow_of_v, *FLUTTER_BRACKET)
        v_hf = aeroelastic.critical_speed(m_hf.beam, m_hf.lattice, flow_of_v, *FLUTTER_BRACKET)
        self.record("vcrit_s", time.perf_counter() - t0)
        self.pending = (reports, v_lf, v_hf)

    def _check_wing_flutter(self, reports, v_lf, v_hf) -> None:
        self.note("vcrit_lf_m_s", v_lf)
        self.note("vcrit_hf_m_s", v_hf)
        lo, hi = FLUTTER_BRACKET
        for level, v in (("LF", v_lf), ("HF", v_hf)):
            if not lo < v < hi:
                raise CheckFailed(f"{level} critical speed {v!r} outside the bracket")
        # the knockdown signature the acceptance suite expects of LF against HF;
        # modal and aeroelastic MAC pairing is expected only without a knockdown
        flags = reports[0].flags
        if not (flags["bending_below_threshold"] and flags["torsion_above_threshold"]):
            raise CheckFailed(f"compare_static flags {flags} lack the knockdown signature")
        for name, rep in zip(("modal", "aeroelastic"), reports[1:]):
            self.note(f"{name}_matched_modes", float(rep.flags["matched_modes"]))

    def final_checks(self) -> None:
        """A repeat evaluate of the warm-up design is bit-identical on available rows."""
        if self.name == "wing-flutter":
            return
        x, lf0, hf0 = self.first
        for model, before in ((self.lf, lf0), (self.hf, hf0)):
            again = model.evaluate(x)
            m = before.mask
            if not (again.f == before.f and np.array_equal(again.mask, m)
                    and np.array_equal(again.c[m], before.c[m])):
                raise CheckFailed(f"repeat {model.level} evaluate is not bit-identical")


def check_evaluate(model, x, out, fixed_mass: float) -> None:
    """Mass identity f = fixed + grad_f . x and finite available rows."""
    g = model.mass_gradient(x)
    expect = fixed_mass + float(g @ x)
    if not abs(out.f - expect) <= 1e-12 * abs(expect):
        raise CheckFailed(f"{model.level} mass {out.f!r} != fixed + grad.x {expect!r}")
    if not np.all(np.isfinite(out.c[out.mask])):
        raise CheckFailed(f"{model.level} evaluate returned non-finite available rows")
