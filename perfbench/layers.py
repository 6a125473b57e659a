"""Per-layer probes and the metrics derived from their spans.

Every probe wraps a public function or method of one aerotail module, at
every binding it is called through.  Per-layer metrics are per traced
operation: a count or a time summed over the run's traced operations and
divided by their number, unless the name says it is a ratio or a mean.

`MOVES` records, for each layer, which end-to-end figure a change to that
layer should move, and on which workload it does most and least work.  The
end-to-end figures are named as in the detail record each run prints
(opt_s is op_p50_s on toy-mf-opt, eval_hf_p50_s is the HF half of a
wing-eval operation, and so on).
"""

from __future__ import annotations

import statistics

from aerotail import (
    aero, aeroelastic, beam, compare, config, constraints, fidelity, laminate, mfopt, section,
)
from spans import Probe, Tracer


def _level(prefix):
    return lambda args, kwargs: f"{prefix}.{args[0].level.lower()}"


def _stability(attrs, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    attrs["state_order"] = 2 * int(model.free.size)
    attrs["kept"] = int(result.eigenvalues.size)


def _static(attrs, args, kwargs, result):
    attrs["iterations"] = int(result.iterations)


def _optimizer(attrs, args, kwargs, result):
    attrs["iterations"] = result.iterations
    attrs["steps"] = len(result.trace) - 1
    attrs["accepted"] = sum(1 for e in result.trace[1:] if e.accepted)
    attrs["restorations"] = result.restorations
    attrs["n_hf_evals"] = result.n_hf_evals
    attrs["merit"] = result.f_best + 100.0 * result.violation_best


PROBES = [
    Probe(aero, "aic_matrix", "aero.aic_matrix"),
    Probe(aero, "coupling_maps", "aero.coupling_maps"),
    Probe(aero, "aero_operators", "aero.aero_operators"),
    Probe(aero, "build_lattice", "aero.build_lattice"),
    Probe(aeroelastic, "dynamic_stability", "aeroelastic.dynamic_stability", _stability),
    Probe(aeroelastic, "rayleigh_damping", "aeroelastic.rayleigh_damping"),
    Probe(aeroelastic, "aileron_effectiveness", "aeroelastic.aileron_effectiveness"),
    Probe(aeroelastic, "static_aeroelastic", "aeroelastic.static_aeroelastic", _static),
    Probe(aeroelastic, "critical_speed", "aeroelastic.critical_speed"),
    Probe(beam.BeamModel, "__init__", "beam.BeamModel.init"),
    Probe(beam.BeamModel, "buckling", "beam.BeamModel.buckling"),
    Probe(beam.BeamModel, "modal", "beam.BeamModel.modal"),
    Probe(beam.BeamModel, "static_solve", "beam.BeamModel.static_solve"),
    Probe(beam.BeamModel, "element_strain_energy", "beam.BeamModel.element_strain_energy"),
    Probe(beam.BeamModel, "element_mid_strains", "beam.BeamModel.element_mid_strains"),
    Probe(section.CrossSection, "build", "section.CrossSection.build"),
    Probe(laminate, "abd_from_lp", "laminate.abd_from_lp"),
    Probe(laminate, "tsai_wu_factor", "laminate.tsai_wu_factor"),
    Probe(fidelity, "build_wing_model", "fidelity.build_wing_model"),
    Probe(constraints.WingAnalysis, "evaluate", _level("constraints.evaluate")),
    Probe(constraints.WingAnalysis, "gradients", _level("constraints.gradients")),
    Probe(compare, "compare_static", "compare.compare_static"),
    Probe(compare, "compare_modal", "compare.compare_modal"),
    Probe(compare, "compare_aeroelastic", "compare.compare_aeroelastic"),
    Probe(mfopt, "trmm_optimize", "mfopt.trmm_optimize", _optimizer),
    Probe(mfopt, "solve_subproblem", "mfopt.subproblem"),
    Probe(config, "load_config", "config.load_config"),
]

# span name -> stats reported as <name>.<stat>
_CALLS_SELF = (
    "aero.aic_matrix", "aero.coupling_maps", "aero.aero_operators", "aero.build_lattice",
    "aeroelastic.dynamic_stability", "aeroelastic.rayleigh_damping",
    "aeroelastic.aileron_effectiveness", "aeroelastic.static_aeroelastic",
    "beam.BeamModel.init", "beam.BeamModel.buckling", "beam.BeamModel.modal",
    "beam.BeamModel.static_solve", "beam.BeamModel.element_strain_energy",
    "beam.BeamModel.element_mid_strains",
    "section.CrossSection.build", "laminate.abd_from_lp", "laminate.tsai_wu_factor",
    "fidelity.build_wing_model",
    "constraints.evaluate.lf", "constraints.evaluate.hf",
    "mfopt.subproblem",
)
_CALLS_TOTAL = ("constraints.gradients.lf", "constraints.gradients.hf")
_TOTAL = ("compare.compare_static", "compare.compare_modal", "compare.compare_aeroelastic")

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
METRICS = (
    [(f"{n}.{stat}", unit, "lower") for n in _CALLS_SELF
     for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{n}.{stat}", unit, "lower") for n in _CALLS_TOTAL
       for stat, unit in (("calls", "count"), ("s", "s"))]
    + [(f"{n}.s", "s", "lower") for n in _TOTAL]
    + [
        ("aero.aic_matrix.calls_per_evaluate", "count", "lower"),
        ("aeroelastic.static_aeroelastic.iterations", "count", "lower"),
        ("aeroelastic.dynamic_stability.state_order", "count", "lower"),
        ("aeroelastic.dynamic_stability.kept_ratio", "ratio", "higher"),
        ("aeroelastic.critical_speed.margin_evals", "count", "lower"),
        ("constraints.gradients.evals_per_call", "count", "lower"),
        ("mfopt.iterations", "count", "lower"),
        ("mfopt.accept_ratio", "ratio", "higher"),
        ("mfopt.restoration_ratio", "ratio", "lower"),
        ("mfopt.lf_solves", "count", "lower"),
        ("mfopt.hf_solves", "count", "lower"),
        ("mfopt.reported_hf_evals", "count", "lower"),
        ("mfopt.merit_kg", "kg", "lower"),
        ("config.load_config.s", "s", "lower"),
        ("tracing.overhead_s", "s", "lower"),
    ]
)

MOVES = {
    "aero": ("op_p50_s on toy-mf-opt (opt_s) and on wing-flutter (vcrit_p50_s)",
             "most in toy-mf-opt, little in wing-eval"),
    "aeroelastic": ("op_p50_s on wing-eval (eval_hf_p50_s) and wing-flutter (vcrit_p50_s)",
                    "most in wing-eval and wing-flutter, little in toy-mf-opt"),
    "beam": ("op_p50_s on wing-eval (eval_hf_p50_s) and wing-flutter (compare_p50_s)",
             "most in wing-eval, little in toy-mf-opt"),
    "section": ("op_p50_s on wing-eval (eval_*_p50_s) and toy-mf-opt (opt_s)",
                "most in wing-eval, little in wing-flutter"),
    "laminate": ("op_p50_s on wing-eval (eval_*_p50_s) and toy-mf-opt (opt_s)",
                 "most in wing-eval, little in wing-flutter"),
    "fidelity": ("op_p50_s on wing-eval (eval_*_p50_s) and toy-mf-opt (opt_s)",
                 "most in wing-eval, little in wing-flutter"),
    "constraints": ("op_p50_s on toy-mf-opt (opt_s)", "most in toy-mf-opt, none in wing-flutter"),
    "compare": ("op_p50_s on wing-flutter (compare_p50_s)", "only in wing-flutter"),
    "mfopt": ("op_p50_s and mfopt.merit_kg on toy-mf-opt (opt_s, opt_merit)",
              "only in toy-mf-opt"),
    "config": ("setup_s", "all workloads"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: list[int], overhead_s: float) -> dict[str, float]:
    """Every per-layer metric, from the spans of the traced operations `ops`."""
    traced = set(ops)
    n_ops = len(ops)
    spans = tracer.spans
    self_t = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    nested: dict[str, int] = {}

    def bump(d, k, v):
        d[k] = d.get(k, 0) + v

    for i, s in enumerate(spans):
        if s.op not in traced:
            continue
        bump(calls, s.name, 1)
        bump(self_s, s.name, self_t[i])
        bump(total_s, s.name, s.duration)
        for k, v in s.attrs.items():
            bump(attr_sum, f"{s.name}.{k}", v)
        if s.name == "aero.aic_matrix" and tracer.ancestor(i, "constraints.evaluate") >= 0:
            bump(nested, "aic_in_evaluate", 1)
        if (s.name == "aeroelastic.dynamic_stability"
                and tracer.ancestor(i, "aeroelastic.critical_speed") >= 0):
            bump(nested, "margin", 1)
        if s.name.startswith("constraints.evaluate"):
            p = spans[s.parent] if s.parent >= 0 else None
            if p is not None and p.name.startswith("constraints.gradients"):
                bump(nested, "evals_in_gradients", 1)
            if tracer.ancestor(i, "mfopt.trmm_optimize") >= 0:
                bump(nested, "solves_" + s.name.rsplit(".", 1)[1], 1)

    out: dict[str, float] = {}
    for n in _CALLS_SELF:
        out[f"{n}.calls"] = calls.get(n, 0) / n_ops
        out[f"{n}.self_s"] = self_s.get(n, 0.0) / n_ops
    for n in _CALLS_TOTAL:
        out[f"{n}.calls"] = calls.get(n, 0) / n_ops
        out[f"{n}.s"] = total_s.get(n, 0.0) / n_ops
    for n in _TOTAL:
        out[f"{n}.s"] = total_s.get(n, 0.0) / n_ops
    n_eval = calls.get("constraints.evaluate.lf", 0) + calls.get("constraints.evaluate.hf", 0)
    n_grad = calls.get("constraints.gradients.lf", 0) + calls.get("constraints.gradients.hf", 0)
    order = attr_sum.get("aeroelastic.dynamic_stability.state_order", 0)
    steps = attr_sum.get("mfopt.trmm_optimize.steps", 0)
    iters = attr_sum.get("mfopt.trmm_optimize.iterations", 0)
    n_opt = calls.get("mfopt.trmm_optimize", 0)
    out.update({
        "aero.aic_matrix.calls_per_evaluate": _ratio(nested.get("aic_in_evaluate", 0), n_eval),
        "aeroelastic.static_aeroelastic.iterations": _ratio(
            attr_sum.get("aeroelastic.static_aeroelastic.iterations", 0),
            calls.get("aeroelastic.static_aeroelastic", 0)),
        "aeroelastic.dynamic_stability.state_order": order / n_ops,
        "aeroelastic.dynamic_stability.kept_ratio": _ratio(
            attr_sum.get("aeroelastic.dynamic_stability.kept", 0), order),
        "aeroelastic.critical_speed.margin_evals": _ratio(
            nested.get("margin", 0), calls.get("aeroelastic.critical_speed", 0)),
        "constraints.gradients.evals_per_call": _ratio(nested.get("evals_in_gradients", 0), n_grad),
        "mfopt.iterations": iters / n_ops,
        "mfopt.accept_ratio": _ratio(attr_sum.get("mfopt.trmm_optimize.accepted", 0), steps),
        "mfopt.restoration_ratio": _ratio(
            attr_sum.get("mfopt.trmm_optimize.restorations", 0), iters),
        "mfopt.lf_solves": nested.get("solves_lf", 0) / n_ops,
        "mfopt.hf_solves": nested.get("solves_hf", 0) / n_ops,
        "mfopt.reported_hf_evals": attr_sum.get("mfopt.trmm_optimize.n_hf_evals", 0) / n_ops,
        "mfopt.merit_kg": _ratio(attr_sum.get("mfopt.trmm_optimize.merit", 0.0), n_opt),
        "tracing.overhead_s": overhead_s,
    })
    loads = [s.duration for s in spans if s.name == "config.load_config"]
    out["config.load_config.s"] = statistics.median(loads) if loads else 0.0
    return out


def evaluate_breakdown(tracer: Tracer, ops: list[int]) -> dict:
    """Mean self time per evaluate of every layer under evaluate, per level."""
    traced = set(ops)
    self_t = tracer.self_times()
    out: dict = {}
    for level in ("lf", "hf"):
        root = f"constraints.evaluate.{level}"
        roots = {i for i, s in enumerate(tracer.spans) if s.name == root and s.op in traced}
        if not roots:
            continue
        inside: dict[str, float] = {}
        for i, s in enumerate(tracer.spans):
            if s.op in traced and (i in roots or tracer.ancestor(i, root) >= 0):
                inside[s.name] = inside.get(s.name, 0.0) + self_t[i]
        n = len(roots)
        mean_total = sum(tracer.spans[i].duration for i in roots) / n
        out[level] = {
            "evaluates": n,
            "mean_s": mean_total,
            "self_s_per_evaluate": {
                k: v / n for k, v in sorted(inside.items(), key=lambda kv: -kv[1])
            },
        }
    return out
