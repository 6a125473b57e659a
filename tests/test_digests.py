"""The bit-identity harness (tools/digests.py) and what it relies on: a
second computation in the same process gives the same digests, so no
cache changes a repeat call."""

import importlib.util
import os
import time

import numpy as np

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "digests.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_subset_digests_repeat_in_one_process():
    t0 = time.perf_counter()
    digests = load_tool()
    first = digests.compute(digests.QUICK)
    second = digests.compute(digests.QUICK)
    assert len(first) > 30 and first.keys() == second.keys()
    assert {k: v[0] for k, v in first.items()} == {k: v[0] for k, v in second.items()}
    assert time.perf_counter() - t0 < 5.0


def test_digest_tells_bit_level_changes_and_skips_seconds():
    digests = load_tool()
    a = np.array([1.0, 2.0, np.nan])
    b = a.copy()
    b[1] = np.nextafter(2.0, 3.0)
    assert digests.digest(a)[0] != digests.digest(b)[0]
    assert digests.digest(a)[0] != digests.digest(a.astype(np.float32))[0]
    assert digests.max_relative_difference(digests.digest(a)[1], digests.digest(b)[1]) > 0.0
    assert digests.max_relative_difference(digests.digest(a)[1], digests.digest(a)[1]) == 0.0
    timed = {"f_best": 1.0, "hf_seconds": 0.1}
    assert digests.digest(timed)[0] == digests.digest({**timed, "hf_seconds": 9.0})[0]
