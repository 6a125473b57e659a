"""SHA-256 digests of aerotail's outputs, to show that a change keeps them bit-identical.

    python tools/digests.py [--out FILE] [--root DIR]
    python tools/digests.py --against DIR

The first form computes every output below on the tree at --root (default:
the tree holding this script) and writes one JSON object that maps each
output name to the SHA-256 of its values: array dtypes, shapes and bytes,
so two digests agree only when the values are bit-identical.

The second form runs the same list on this tree and on the tree at DIR,
for example `git archive` of a parent commit unpacked there, each in its
own subprocess.  It prints every name whose digest differs, with the
largest relative difference of its numbers, and every name only one side
has; it exits 1 when anything differs and 0 otherwise.

BLAS runs on one thread: threaded reductions round differently, so the
digests of two runs would not be comparable otherwise.

The outputs, on both shipped configs at LF and HF where a level applies:

- the loaded RunConfig of both configs, and the ConfigError message of each
  invalid document in INVALID_CONFIGS (edits of the toy config);
- evaluate (f, c, mask, nonsmooth) and gradients (grad_f, grad_c,
  n_evaluates) at the start design and seeded designs 1-3;
- the trim (u, alpha, total lift) and the aileron effectiveness eta of
  every load case of those designs;
- evaluate, trim and eta at both wing_default levels of the design of
  wing-eval seed 22's operation 25 (perfbench's seeded design), whose
  (K - K_a)_ff has condition number 1e9;
- compare_static, compare_modal and compare_aeroelastic (first load case's
  flow) at the start design and seeded design 1;
- critical_speed at both levels on wing_default seeded designs 1-2;
- every file `aerotail analyze` and `aerotail compare` write for both
  configs, and `aerotail optimize --budget 3` for the toy;
- the OptimizerReports of the multi-fidelity acceptance scenario
  (tests/test_acceptance.py) and of the toy's budget-3 run.

Wall times, any field or JSON key ending in `_seconds`, are left out.  An
output that raises ValueError or RuntimeError digests as the exception's
type and message.
`compute(QUICK)` is a subset, the closed-form and budget-3 toy optimizer
runs among them, that runs in one to two seconds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import pickle
import re
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("toy_two_panel", "wing_default")
SEEDS = (1, 2, 3)
FLUTTER_BRACKET = (150.0, 600.0)  # m/s, straddles the crossing of seeded wing_default designs
WING_EVAL_OP = (22, 25)  # (seed, operation) of a perfbench wing-eval design

# names of the subset a tier-1 test computes twice in one process
QUICK = (
    "config/",
    "config_error/",
    "evaluate/toy_two_panel/",
    "gradients/toy_two_panel/",
    "trim/toy_two_panel/",
    "eta/toy_two_panel/",
    "compare_modal/toy_two_panel/",
    "evaluate/wing_default/LF/start",
    "report/acceptance/closed_form/",
    "report/toy_two_panel/budget3",
)

# invalid documents that load_config rejects: each edits the toy config in place
INVALID_CONFIGS = {
    "missing_section": lambda d: d.pop("materials"),
    "wrong_type": lambda d: d["loadcases"][0].update(V="fast"),
    "extra_key": lambda d: d["optimizer"].update(learning_rate=0.1),
    "removed_key": lambda d: d["optimizer"].update(delta0=0.5),
    "panel_two_forms": lambda d: d["panels"][0].update(lp_a=[0.0] * 4),
    "sonic_flow": lambda d: d["loadcases"][0].update(mach=1.0),
    "empty_output_directory": lambda d: d["output"].update(directory=""),
    "knockdown_above_one": lambda d: d["fidelity"]["hf"].update(torsion_knockdown=1.2),
    "empty_panels": lambda d: d.update(panels=[]),
    "empty_document": dict.clear,
    "two_errors": lambda d: d.update(panels=[]) or d["planform"].update(semi_span=-1.0),
    "zone_bounds_descending": lambda d: d["structure"].update(zone_bounds=[1.0, 0.0]),
    "aileron_outside_span": lambda d: d["structure"]["aileron"].update(y_end=5.0),
    "panel_count": lambda d: d["panels"].append({"stack": [0.0], "thickness": 1.0e-3}),
}

_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def _use_tree(root: str) -> None:
    """Import aerotail, the test oracles and perfbench's workloads from the tree at root."""
    for sub in ("perfbench", "tests", "src"):
        sys.path.insert(0, os.path.join(root, sub))


@functools.lru_cache(maxsize=None)
def _shipped(name: str):
    """(config, LF analysis, HF analysis), one set per process so a second
    computation meets the caches the first one filled."""
    import aerotail
    from aerotail.config import load_config

    cfg = load_config(os.path.join(os.path.dirname(aerotail.__file__), "data", name + ".json"))
    lf, hf = cfg.analyses()
    return cfg, lf, hf


def _config_outputs():
    """(name, thunk) of both shipped configs as loaded, and of the ConfigError
    message of every invalid document."""
    import aerotail
    from aerotail.config import ConfigError, load_config

    data = os.path.join(os.path.dirname(aerotail.__file__), "data")
    for name in CONFIGS:
        yield f"config/{name}", lambda name=name: load_config(os.path.join(data, name + ".json"))

    def message(case):
        with open(os.path.join(data, "toy_two_panel.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        INVALID_CONFIGS[case](doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            try:
                load_config(path)
            except ConfigError as exc:
                return str(exc)
        raise AssertionError(f"config_error/{case}: the document loads")

    for case in INVALID_CONFIGS:
        yield f"config_error/{case}", lambda case=case: message(case)


def seeded_design(cfg, seed: int) -> np.ndarray:
    """Random 8-ply half stacks, shipped thicknesses scaled by 1 +- 15%."""
    from aerotail.constraints import pack_design
    from aerotail.laminate import PanelDesign, lp_from_stack

    rng = np.random.default_rng(seed)
    return pack_design([
        PanelDesign(
            lp_from_stack(np.deg2rad(rng.choice((0.0, 45.0, -45.0, 90.0), size=8))),
            p.thickness * (1.0 + rng.uniform(-0.15, 0.15)),
        )
        for p in cfg.panels
    ])


def _designs(cfg):
    yield "start", cfg.initial_design()
    for seed in SEEDS:
        yield f"seed{seed}", seeded_design(cfg, seed)


@functools.lru_cache(maxsize=None)
def _wing_eval_design() -> np.ndarray:
    """The design of wing-eval operation WING_EVAL_OP[1] at seed WING_EVAL_OP[0]."""
    import aerotail
    import workloads

    with open(os.path.join(os.path.dirname(aerotail.__file__), "data", "wing_default.json"),
              encoding="utf-8") as fh:
        shipped = json.load(fh)["panels"]
    seed, op = WING_EVAL_OP
    return workloads.design_vector(
        workloads.seeded_panels(shipped, np.random.default_rng([seed, op + 1]))
    )


def _design_outputs(cfg, ana, key: str, design, gradients: bool = True):
    """(name, thunk) of evaluate, gradients when asked, and trim and eta per
    load case, at the design vector design() returns."""
    from aerotail.aeroelastic import aileron_solve

    def evaluate():
        out = ana.evaluate(design())
        return (out.f, out.c, out.mask, out.nonsmooth)

    def grads():
        g = ana.gradients(design())
        return (g.grad_f, g.grad_c, g.n_evaluates)

    yield f"evaluate/{key}", evaluate
    if gradients:
        yield f"gradients/{key}", grads
    for i_lc, lc in enumerate(ana.loadcases):

        def trim(i_lc=i_lc):
            res = ana.trim(ana.build_model(design()), i_lc)
            return (res.u, res.alpha, res.total_lift)

        yield f"trim/{key}/lc{i_lc}", trim
        if cfg.definition.aileron is not None:

            def eta(flow=lc.flow):
                model = ana.build_model(design())
                return aileron_solve(model.beam, model.structure.aileron(flow))

            yield f"eta/{key}/lc{i_lc}", eta


def _model_outputs():
    """(name, thunk) of evaluate, gradients, trim and eta on both configs, and
    of evaluate, trim and eta of the wing-eval design."""
    for name in CONFIGS:
        cfg, lf, hf = _shipped(name)
        for ana in (lf, hf):
            for tag, x in _designs(cfg):
                yield from _design_outputs(cfg, ana, f"{name}/{ana.level}/{tag}", lambda x=x: x)
    cfg, lf, hf = _shipped("wing_default")
    seed, op = WING_EVAL_OP
    for ana in (lf, hf):
        key = f"wing_default/{ana.level}/wing_eval_seed{seed}_op{op}"
        yield from _design_outputs(cfg, ana, key, _wing_eval_design, gradients=False)


def _comparisons():
    from aerotail.aero import FlowConditions
    from aerotail.aeroelastic import critical_speed
    from aerotail.compare import compare_aeroelastic, compare_modal, compare_static

    for name in CONFIGS:
        cfg, lf, hf = _shipped(name)
        for tag, x in list(_designs(cfg))[:2]:

            def pair(x=x):
                return lf.build_model(x), hf.build_model(x)

            flow = cfg.loadcases[0].flow
            yield f"compare_static/{name}/{tag}", lambda pair=pair: compare_static(*pair())
            yield f"compare_modal/{name}/{tag}", lambda pair=pair: compare_modal(*pair())
            yield (f"compare_aeroelastic/{name}/{tag}",
                   lambda pair=pair, flow=flow: compare_aeroelastic(*pair(), flow))

    cfg, lf, hf = _shipped("wing_default")
    cruise = cfg.loadcases[0]

    def flow_of_v(v):
        return FlowConditions(V=v, rho=cruise.rho, mach=cruise.mach)

    for seed in (1, 2):
        for ana in (lf, hf):

            def vcrit(ana=ana, seed=seed):
                model = ana.build_model(seeded_design(cfg, seed))
                return critical_speed(model.beam, model.lattice, flow_of_v, *FLUTTER_BRACKET)

            yield f"critical_speed/wing_default/{ana.level}/seed{seed}", vcrit


def _cli_runs():
    """(subdirectory, argv) of every CLI run whose files are digested."""
    import aerotail
    from aerotail.cli import ANALYZE_CASES

    for name in CONFIGS:
        path = os.path.join(os.path.dirname(aerotail.__file__), "data", name + ".json")
        for case in ANALYZE_CASES:
            for level in ("LF", "HF"):
                yield (f"analyze/{name}/{case}_{level}",
                       ["analyze", "--case", case, "--level", level, "--config", path])
        for case in ("1", "2", "3"):
            yield f"compare/{name}/case{case}", ["compare", "--case", case, "--config", path]
        if name == "toy_two_panel":
            yield f"optimize/{name}/budget3", ["optimize", "--budget", "3", "--config", path]


def _cli_outputs():
    from aerotail.cli import main

    for sub, argv in _cli_runs():

        def files(argv=argv):
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", out])
                found = {"exit_code": code}
                for fname in sorted(os.listdir(out)):
                    with open(os.path.join(out, fname), "rb") as fh:
                        data = fh.read()
                    found[fname] = json.loads(data) if fname.endswith(".json") else data
                return found

        yield f"cli/{sub}", files


def _reports():
    """The multi-fidelity acceptance scenario's four runs and the toy's budget-3 run."""
    from aerotail.constraints import LoadCase, WingAnalysis, pack_design
    from aerotail.fidelity import FidelityConfig
    from aerotail.laminate import PanelDesign, lp_from_stack
    from aerotail.mfopt import trmm_optimize
    from oracles import quadratic_benchmark_pair
    from test_acceptance import toy_wing

    def closed_form(mf: bool):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        return trmm_optimize(lf if mf else hf, hf, x0, budget=200 if mf else 400)

    def toy(mf: bool):
        defn = toy_wing(supported_mass=1200.0)
        lc = LoadCase(
            V=90.0, rho=1.225, load_factor=2.5, alpha_min=-0.3, alpha_max=0.6, eta_min=0.05
        )
        lf = WingAnalysis(defn, [lc], FidelityConfig(mesh_factor=1, lattice_nx=2, lattice_ny=6))
        hf = WingAnalysis(
            defn, [lc],
            FidelityConfig(mesh_factor=2, lattice_nx=2, lattice_ny=12, torsion_knockdown=0.8),
            level="HF",
        )
        x0 = pack_design([
            PanelDesign(lp_from_stack([45.0, -45.0, 0.0, 90.0, 0.0, -45.0, 45.0]), 3.0e-3),
            PanelDesign(lp_from_stack([45.0, -45.0, 45.0, -45.0]), 2.8e-3),
        ])
        return trmm_optimize(lf if mf else hf, hf, x0, budget=40 if mf else 4000, max_iter=30)

    def budget3():
        cfg, lf, hf = _shipped("toy_two_panel")
        kwargs = cfg.optimizer.kwargs()
        kwargs["budget"] = 3
        return trmm_optimize(lf, hf, cfg.initial_design(), **kwargs)

    yield "report/acceptance/closed_form/MF", lambda: closed_form(True)
    yield "report/acceptance/closed_form/SF", lambda: closed_form(False)
    yield "report/acceptance/toy/MF", lambda: toy(True)
    yield "report/acceptance/toy/SF", lambda: toy(False)
    yield "report/toy_two_panel/budget3", budget3


def outputs():
    """(name, thunk) of every digested output, in a fixed order."""
    yield from _config_outputs()
    yield from _model_outputs()
    yield from _comparisons()
    yield from _cli_outputs()
    yield from _reports()


# -- canonical bytes and numbers ---------------------------------------------


def _walk(value, parts: list, numbers: list) -> None:
    """Append value's canonical bytes to parts and its numbers to numbers."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        parts.append(b"{")
        for k in sorted(value, key=str):
            if str(k).endswith("_seconds"):
                continue
            parts.append(repr(k).encode() + b":")
            _walk(value[k], parts, numbers)
        parts.append(b"}")
    elif isinstance(value, (list, tuple)):
        parts.append(b"[")
        for v in value:
            _walk(v, parts, numbers)
        parts.append(b"]")
    elif isinstance(value, bytes):
        parts.append(b"b%d:" % len(value) + value)
        numbers.append(np.array([float(m) for m in _NUMBER.findall(value)]))
    elif isinstance(value, str):
        parts.append(b"s" + json.dumps(value).encode())
    elif value is None:
        parts.append(b"None")
    else:
        a = np.ascontiguousarray(value)
        if a.dtype == object:
            raise TypeError(f"cannot digest {type(value).__name__}")
        parts.append(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        if a.dtype.kind == "c":
            numbers.append(a.astype(complex).ravel().view(float))
        elif a.dtype.kind in "biuf":
            numbers.append(a.astype(float).ravel())


def digest(value) -> tuple[str, np.ndarray]:
    """SHA-256 of value's canonical bytes, and its numbers in order."""
    parts: list = []
    numbers: list = []
    _walk(value, parts, numbers)
    return hashlib.sha256(b"".join(parts)).hexdigest(), np.concatenate([np.zeros(0), *numbers])


def compute(select=None) -> dict:
    """{name: (sha256, numbers)} of every output whose name starts with a
    prefix in select (every output when select is None)."""
    out = {}
    for name, thunk in outputs():
        if select is None or name.startswith(tuple(select)):
            try:
                value = thunk()
            except (ValueError, RuntimeError) as exc:
                value = f"{type(exc).__name__}: {exc}"
            out[name] = digest(value)
    return out


def max_relative_difference(a: np.ndarray, b: np.ndarray) -> float | None:
    """Largest |a - b| / max(|a|, |b|) over entries not equal (NaN equals NaN);
    None when the two hold different numbers of values."""
    if a.shape != b.shape:
        return None
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differ.any():
        return 0.0
    scale = np.maximum(np.abs(a[differ]), np.abs(b[differ]))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a[differ] - b[differ]) / scale
    return float(np.nanmax(np.where(np.isfinite(rel), rel, np.inf)))


def _run_tree(root: str, dump: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--root", root, "--dump", dump],
        cwd=tempfile.gettempdir(),
    )


def _load(path: str) -> dict:
    with open(path, "rb") as fh:
        return pickle.load(fh)


def against(other: str) -> int:
    """Digest this tree and the tree at other in subprocesses; report what differs."""
    with tempfile.TemporaryDirectory() as tmp:
        dumps = [os.path.join(tmp, "here.pkl"), os.path.join(tmp, "other.pkl")]
        procs = [_run_tree(HERE, dumps[0]), _run_tree(os.path.abspath(other), dumps[1])]
        if any([p.wait() != 0 for p in procs]):
            print("a digest run failed", file=sys.stderr)
            return 2
        here, there = (_load(d) for d in dumps)
    differ = 0
    for name in sorted(set(here) | set(there)):
        if name not in here or name not in there:
            print(f"only in {'this tree' if name in here else other}: {name}")
            differ += 1
        elif here[name][0] != there[name][0]:
            rel = max_relative_difference(here[name][1], there[name][1])
            what = "value count differs" if rel is None else f"max rel diff {rel:.3e}"
            print(f"differs: {name} ({what})")
            differ += 1
    print(f"{len(here)} outputs digested here, {len(there)} in {other}; {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=HERE, help="tree whose src/ and tests/ are digested")
    p.add_argument("--out", help="JSON file for {name: sha256}; stdout when absent")
    p.add_argument("--against", metavar="DIR", help="compare with the tree at DIR")
    p.add_argument("--dump", help=argparse.SUPPRESS)  # pickle of digests and numbers
    args = p.parse_args(argv)
    if args.against:
        return against(args.against)
    _use_tree(args.root)
    result = compute()
    if args.dump:
        with open(args.dump, "wb") as fh:
            pickle.dump(result, fh)
        return 0
    text = json.dumps({k: v[0] for k, v in result.items()}, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
