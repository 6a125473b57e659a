"""aerotail benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {toy-mf-opt,wing-eval,wing-flutter}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
`src/` and fails when there is none.  One process, BLAS pinned to one
thread: the plain single-threaded baseline.  Each workload is a closed loop
with one caller (see workloads.py); operations start until --seconds have
passed, and one is not started when less than half a mean operation is left.

--trace 0 prints the end-to-end metrics:
  setup_s      median over repeats, before the first operation and after
               each one, of load_config of the generated config plus
               building both analyses
  op_p50_s     median wall time of one operation
  peak_rss_mb  ru_maxrss of the process

The tail of the operation times, the highest percentile with ten samples
beyond it, is in the detail record with its percentile and sample count.
It is not a gated metric: a 30 s run holds 3 toy-mf-opt or wing-flutter
operations and about 23 wing-eval ones, so that percentile is the maximum of
three or lies near the median.

--trace 1 alternates traced and untraced operations and prints the
per-layer metrics (layers.py), tracing overhead included; spans are written
to .perfbench_out/ at the end.

The last line of standard output is the result object; the line before it
is a detail record: environment, workload sizes, the workload's own
figures (opt_s, opt_merit, eval_lf_p50_s, eval_hf_tail_s, compare_p50_s,
vcrit_p50_s, ...; medians over the run) and fail_ratio.  Exit
code 0 only when every operation and output check passed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def summary(samples: list[float]) -> dict:
    if not samples:
        return {"n": 0}
    value, pct = tail(samples)
    return {"p50": statistics.median(samples), "tail": value, "tail_pct": pct, "n": len(samples)}


def workload_figures(samples: dict, values: dict) -> dict:
    """The workload's own figures: opt_s, eval_lf_p50_s, eval_lf_tail_s, vcrit_p50_s, ..."""
    out = {}
    for key, v in samples.items():
        base = key[: -len("_s")]
        st = summary(v)
        if base == "opt":
            out["opt_s"] = st["p50"]
        else:
            out[f"{base}_p50_s"] = st["p50"]
            out[f"{base}_tail_s"] = st["tail"]
            out[f"{base}_tail_pct"] = st["tail_pct"]
        out[f"{base}_n"] = st["n"]
    for key, v in values.items():
        out[key] = statistics.median(v)
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        try:
            return cfg(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aerotail", "__init__.py")):
        print(f"no aerotail sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import aerotail

    if os.path.dirname(os.path.abspath(aerotail.__file__)) != os.path.join(src, "aerotail"):
        print(f"imported aerotail from {aerotail.__file__}, not from {src}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    attempted = failed = 0

    def attempt(fn, *a) -> bool:
        nonlocal attempted, failed
        attempted += 1
        try:
            fn(*a)
        except Exception:  # an operation or check failed: count it and go on
            failed += 1
            traceback.print_exc()
            return False
        return True

    wl = workloads.Workload(args.workload, ROOT, args.seed, OUT_DIR)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            attempt(spans.selfcheck)
            with tracer.install(layers.PROBES):
                wl.setup(workloads.SETUP_REPEATS)
        else:
            wl.setup(workloads.SETUP_REPEATS)
        attempt(wl.warm_up)

        op_times: list[float] = []
        traced_ops: list[int] = []
        t_start = time.perf_counter()
        min_ops = 2 if tracer is not None else 1  # a traced run needs both kinds
        op = 0
        while True:
            elapsed = time.perf_counter() - t_start
            if op >= min_ops and (
                elapsed >= args.seconds
                or elapsed + 0.5 * statistics.mean(op_times) >= args.seconds
            ):
                break
            traced = tracer is not None and op % 2 == 0
            t0 = time.perf_counter()
            if traced:
                tracer.op = op
                with tracer.install(layers.PROBES):
                    ok = attempt(wl.run_op, op)
                traced_ops.append(op)
            else:
                ok = attempt(wl.run_op, op)
            op_times.append(time.perf_counter() - t0)
            if ok:
                attempt(wl.check_op)
            wl.setup(workloads.SETUP_REPEATS_PER_OP)
            op += 1
        attempt(wl.final_checks)
    finally:
        try:
            os.remove(wl.config_path)
        except OSError:
            pass

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = summary(op_times)
    detail = {
        "workload": args.workload,
        "env": environment(args),
        "sizes": wl.sizes(),
        "operations": ops,
        "setup_s": wl.setup_times,
        "timings": workload_figures(wl.samples, wl.values),
        "fail_ratio": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(wl.setup_times), "s"),
            "op_p50_s": (ops["p50"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        untraced = [t for i, t in enumerate(op_times) if i not in traced_ops]
        traced_t = [op_times[i] for i in traced_ops]
        overhead = statistics.median(traced_t) - statistics.median(untraced)
        units = {name: unit for name, unit, _ in layers.METRICS}
        values = layers.layer_metrics(tracer, traced_ops, overhead)
        metrics = {k: (values[k], units[k]) for k in units}
        detail["bindings"] = tracer.bindings
        detail["evaluate_breakdown"] = layers.evaluate_breakdown(tracer, traced_ops)
        detail["moves"] = layers.MOVES
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))

    correct = failed == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
