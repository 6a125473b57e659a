"""Command-line entry point.

Subcommands: analyze (one analysis at one fidelity level), compare (one of
the three cross-model cases), optimize (trust-region mass minimization), and
validate-config.  Reports land in the output directory as CSV, JSON, and SVG;
the directory comes from --out, the AEROTAIL_OUT environment variable, or the
config document, in that order of precedence.

Exit codes: 0 success, 2 configuration rejected, 3 analysis failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .aeroelastic import dynamic_stability
from .compare import (
    compare_aeroelastic,
    compare_modal,
    compare_static,
    relative_error,
    tip_response,
)
from .config import ConfigError, load_config
from .mfopt import TraceEntry, trmm_optimize
from .report import (
    comparison_rows,
    convergence_trace,
    eigenvalue_scatter,
    mac_heatmap,
    report_payload,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANALYSIS = 3

ANALYZE_CASES = ("static", "modal", "flutter", "trim")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aerotail",
        description="Composite wingbox aeroelastic tailoring toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run one analysis on one model")
    pa.add_argument("--case", required=True, choices=ANALYZE_CASES)
    pa.add_argument("--config", required=True)
    pa.add_argument("--level", default="LF", choices=("LF", "HF"))
    pa.add_argument("--modes", type=int, default=8)
    pa.add_argument("--out", default=None)

    pc = sub.add_parser("compare", help="cross-check the two models")
    pc.add_argument("--case", required=True, type=int, choices=(1, 2, 3))
    pc.add_argument("--config", required=True)
    pc.add_argument("--out", default=None)

    po = sub.add_parser("optimize", help="trust-region mass minimization")
    po.add_argument("--config", required=True)
    po.add_argument("--budget", type=int, default=None,
                    help="override the configured high-fidelity budget")
    po.add_argument("--out", default=None)

    pv = sub.add_parser("validate-config", help="check a config document")
    pv.add_argument("--config", required=True)
    return p


def _output_dir(args, cfg) -> str:
    out = args.out or os.environ.get("AEROTAIL_OUT") or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _case_name(cfg, i_lc: int) -> str:
    """Name of load case i_lc in every output file; unnamed cases get case_<i>."""
    return cfg.loadcases[i_lc].name or f"case_{i_lc}"


def _analyze(args, cfg, out) -> None:
    lf, hf = cfg.analyses()
    analysis = lf if args.level == "LF" else hf
    model = analysis.build_model(cfg.initial_design())
    beam = model.beam
    tag = f"{args.case}_{args.level}"
    if args.case == "static":
        payload = {
            "case": "static",
            "level": args.level,
            "tip_deflection_per_unit_force": tip_response(model, 2),
            "tip_twist_per_unit_torque": tip_response(model, 4),
        }
        write_json(os.path.join(out, f"{tag}.json"), payload)
    elif args.case == "modal":
        res = beam.modal(args.modes)
        write_csv(
            os.path.join(out, f"{tag}.csv"),
            ["index", "omega_rad_s", "frequency_hz"],
            [[i, w, w / (2.0 * np.pi)] for i, w in enumerate(res.omega)],
        )
        write_json(
            os.path.join(out, f"{tag}.json"),
            {"case": "modal", "level": args.level, "omega": res.omega},
        )
    elif args.case == "flutter":
        rows = []
        eigs_per_case = {}
        for i_lc, lc in enumerate(cfg.loadcases):
            ops = model.structure.aero(lc.flow)
            res = dynamic_stability(beam, ops, n_keep=args.modes, shapes=False)
            name = _case_name(cfg, i_lc)
            eigs_per_case[name] = res.eigenvalues
            for i, z in enumerate(res.eigenvalues):
                rows.append([i, name, z.real, z.imag])
        write_csv(
            os.path.join(out, f"{tag}.csv"),
            ["index", "load_case", "real", "imag"],
            rows,
        )
        write_json(
            os.path.join(out, f"{tag}.json"),
            {
                "case": "flutter",
                "level": args.level,
                "eigenvalues": eigs_per_case,
                "max_real": max(float(v[0].real) for v in eigs_per_case.values()),
                # every load case shares the beam, so one basis serves them all
                "basis_size": res.basis.size,
                "basis_omega_max_rad_s": res.basis.omega_max,
            },
        )
        first = next(iter(eigs_per_case.values()))
        eigenvalue_scatter(
            os.path.join(out, f"{tag}.svg"), first, first,
            title=f"State eigenvalues ({args.level})",
        )
    else:  # trim
        results = {}
        rows = []
        for i_lc in range(len(cfg.loadcases)):
            res = analysis.trim(model, i_lc)
            tip = beam.n_nodes - 1
            name = _case_name(cfg, i_lc)
            results[name] = {
                "alpha_rad": res.alpha,
                "total_lift": res.total_lift,
                "tip_deflection": res.u[6 * tip + 2],
                "tip_twist": res.u[6 * tip + 4],
            }
            rows.append([len(rows), name, res.alpha, res.total_lift,
                         res.u[6 * tip + 2], res.u[6 * tip + 4]])
        write_json(os.path.join(out, f"{tag}.json"),
                   {"case": "trim", "level": args.level, "results": results})
        write_csv(
            os.path.join(out, f"{tag}.csv"),
            ["index", "load_case", "alpha_rad", "total_lift", "tip_deflection",
             "tip_twist"],
            rows,
        )


def _compare(args, cfg, out) -> None:
    lf, hf = (a.build_model(cfg.initial_design()) for a in cfg.analyses())
    if args.case == 1:
        rep = compare_static(lf, hf)
        header, rows = comparison_rows(
            rep.lf_values, rep.hf_values,
            {"tip_deflection": rep.relative_errors["bending"],
             "tip_twist": rep.relative_errors["torsion"]},
        )
        write_csv(os.path.join(out, "case1_comparison.csv"), header, rows)
        write_json(os.path.join(out, "case1_report.json"), report_payload(rep))
        return
    if args.case == 2:
        rep = compare_modal(lf, hf)
        header, rows = comparison_rows(rep.lf_values, rep.hf_values,
                                       rep.relative_errors)
        write_csv(os.path.join(out, "case2_frequencies.csv"), header, rows)
        mac_heatmap(os.path.join(out, "case2_mac.svg"), rep.mac,
                    title="Structural MAC")
        write_json(os.path.join(out, "case2_report.json"), report_payload(rep))
        return
    lc = cfg.loadcases[0]
    rep = compare_aeroelastic(lf, hf, lc.flow)
    lf_eigs = rep.eigenvalue_tables["lf_eigenvalues"]
    hf_eigs = rep.eigenvalue_tables["hf_eigenvalues"]
    for part, name in ((np.real, "real"), (np.imag, "imag")):
        a = part(lf_eigs)
        b = part(hf_eigs)
        rows = [[i, a[i], b[i], relative_error(a[i], b[i])] for i in range(len(a))]
        write_csv(
            os.path.join(out, f"case3_eigenvalues_{name}.csv"),
            ["index", "lf_value", "hf_value", "relative_error"],
            rows,
        )
    eigenvalue_scatter(os.path.join(out, "case3_eigenvalues.svg"), lf_eigs,
                       hf_eigs, title="Aeroelastic eigenvalues")
    mac_heatmap(os.path.join(out, "case3_mac.svg"), rep.mac,
                title="Aeroelastic complex MAC")
    write_json(os.path.join(out, "case3_report.json"), report_payload(rep))


def _csv_cell(value):
    """A trace value as the CSV writes it: a bool as 0 or 1, a missing one empty."""
    if value is None:
        return ""
    return int(value) if isinstance(value, (bool, np.bool_)) else value


def _optimize(args, cfg, out) -> None:
    lf, hf = cfg.analyses()
    kwargs = cfg.optimizer.kwargs()
    if args.budget is not None:
        kwargs["budget"] = args.budget
    report = trmm_optimize(lf, hf, cfg.initial_design(), **kwargs)
    # every TraceEntry field but the design vector, in declaration order
    columns = [f.name for f in fields(TraceEntry) if f.name != "x"]
    payload = report.summary()
    payload["x_best"] = report.x_best
    payload["trace"] = [{c: getattr(t, c) for c in columns} for t in report.trace]
    write_json(os.path.join(out, "optimize.json"), payload)
    write_csv(
        os.path.join(out, "optimize_trace.csv"),
        ["index", *columns],
        [[i, *(_csv_cell(getattr(t, c)) for c in columns)] for i, t in enumerate(report.trace)],
    )
    convergence_trace(os.path.join(out, "optimize_trace.svg"), report.trace)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate-config":
        print(
            f"config OK: {cfg.definition.n_panels} panels, "
            f"{len(cfg.loadcases)} load cases, "
            f"{cfg.initial_design().size} design variables"
        )
        return EXIT_OK

    out = _output_dir(args, cfg)
    try:
        if args.command == "analyze":
            _analyze(args, cfg, out)
        elif args.command == "compare":
            _compare(args, cfg, out)
        else:
            _optimize(args, cfg, out)
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: analysis: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    print(f"wrote {args.command} outputs to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
