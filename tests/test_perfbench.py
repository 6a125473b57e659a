"""The benchmark's per-layer probes resolve against the package.

perfbench/layers.py names functions and methods of aerotail by attribute.
A refactor that renames or removes one of them breaks `perfbench/run.py
--trace 1` without failing any other test; these tests catch that.
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

        yield layers, spans
    finally:
        sys.path.remove(PERFBENCH)
        for name in ("layers", "spans"):
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
    layers, _ = perfbench
    for probe in layers.PROBES:
        if isinstance(probe.owner, type):
            assert probe.attr in probe.owner.__dict__, f"{probe.owner.__name__}.{probe.attr}"
        else:
            fn = getattr(probe.owner, probe.attr, None)
            assert callable(fn), f"{probe.owner.__name__}.{probe.attr}"
            assert module_bindings(fn), f"no binding of {probe.attr} under aerotail"


def test_install_traces_an_evaluate_and_restores_every_binding(perfbench):
    layers, spans = perfbench
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
