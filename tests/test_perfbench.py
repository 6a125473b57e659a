"""The benchmark's per-layer probes resolve, and its workloads pass their checks.

perfbench/layers.py names functions and methods of aerotail by attribute.
A refactor that renames or removes one of them breaks `perfbench/run.py
--trace 1` without failing any other test; these tests catch that.
perfbench/run.py exits 1 when any operation, output check or final check of
a workload raises, so each workload runs here too, in run.py's loop: its
set-ups, the warm-up, each operation followed by more set-ups, and the
final checks.
"""

import os
import sys

import numpy as np
import pytest

import aerotail
from aerotail.config import load_config

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
DATA = os.path.join(os.path.dirname(aerotail.__file__), "data")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
        import spans
        import workloads

        yield layers, spans, workloads
    finally:
        sys.path.remove(PERFBENCH)
        for name in ("layers", "spans", "workloads"):
            sys.modules.pop(name, None)


def module_bindings(fn):
    """(module, attribute) pairs under aerotail that hold fn."""
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "aerotail" or name.startswith("aerotail."))
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def test_every_probe_target_exists(perfbench):
    layers, _, _ = perfbench
    for probe in layers.PROBES:
        if isinstance(probe.owner, type):
            assert probe.attr in probe.owner.__dict__, f"{probe.owner.__name__}.{probe.attr}"
        else:
            fn = getattr(probe.owner, probe.attr, None)
            assert callable(fn), f"{probe.owner.__name__}.{probe.attr}"
            assert module_bindings(fn), f"no binding of {probe.attr} under aerotail"


def test_install_traces_an_evaluate_and_restores_every_binding(perfbench):
    layers, spans, _ = perfbench
    originals = []
    for probe in layers.PROBES:
        if isinstance(probe.owner, type):
            originals.append([(probe.owner, probe.attr, probe.owner.__dict__[probe.attr])])
        else:
            fn = getattr(probe.owner, probe.attr)
            originals.append([(mod, attr, fn) for mod, attr in module_bindings(fn)])

    cfg = load_config(os.path.join(DATA, "toy_two_panel.json"))
    lf, _ = cfg.analyses()
    x = cfg.initial_design()
    plain = lf.evaluate(x)
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer.install(layers.PROBES):
        traced = lf.evaluate(x)
    assert traced.f == plain.f
    assert np.array_equal(traced.c, plain.c, equal_nan=True)
    names = {s.name for s in tracer.spans}
    assert {"constraints.evaluate.lf", "fidelity.build_wing_model", "beam.BeamModel.init"} <= names
    assert all(s.end >= s.start for s in tracer.spans)

    for bindings in originals:
        for owner, attr, fn in bindings:
            held = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert held is fn, f"{attr} not restored"


# (seed, operations) of each workload's runs; wing-eval seed 2001 makes as
# many operations as a 30 s benchmark run of it
WORKLOAD_RUNS = {
    "toy-mf-opt": ((1, 1),),
    "wing-eval": tuple((seed, 4) for seed in range(1, 9)) + ((2001, 30),),
    "wing-flutter": ((1, 1), (2, 1), (3, 1)),
}


@pytest.mark.parametrize("name", list(WORKLOAD_RUNS))
def test_workload_operations_pass_their_checks(perfbench, tmp_path, name):
    """The loop of perfbench/run.py, with its set-ups after every operation."""
    _, _, workloads = perfbench
    for seed, n_ops in WORKLOAD_RUNS[name]:
        w = workloads.Workload(name, os.path.join(PERFBENCH, os.pardir), seed, str(tmp_path))
        w.setup(workloads.SETUP_REPEATS)
        w.warm_up()
        for op in range(n_ops):
            w.run_op(op)
            w.check_op()
            w.setup(workloads.SETUP_REPEATS_PER_OP)
        w.final_checks()
