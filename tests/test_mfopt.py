"""Trust-region model management: corrections, subproblems, the full loop."""

import os

import numpy as np
import pytest
import scipy.optimize

import aerotail
from aerotail import mfopt
from aerotail.config import load_config
from aerotail.mfopt import (
    AnalyticModel,
    build_correction,
    partition_rows,
    quadratic_benchmark_pair,
    trmm_optimize,
    verify_consistency,
)


TOY = os.path.join(os.path.dirname(aerotail.__file__), "data", "toy_two_panel.json")


def merit_of(entry, weight=100.0):
    return entry.f_hf + weight * entry.violation


class TestBenchmarkPair:
    def test_pinned_optimum_against_direct_solver(self):
        _, hf, _, x_star, f_star = quadratic_benchmark_pair()
        res = scipy.optimize.minimize(
            lambda x: hf.evaluate(x).f,
            np.array([0.3, 0.3]),
            jac=lambda x: hf.gradients(x).grad_f,
            constraints=[{
                "type": "ineq",
                "fun": lambda x: -hf.evaluate(x).c,
                "jac": lambda x: -hf.gradients(x).grad_c,
            }],
            method="SLSQP",
        )
        assert res.success
        assert np.allclose(res.x, x_star, atol=1e-6)
        assert abs(res.fun - f_star) < 1e-9

    def test_models_disagree_away_from_solution(self):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        assert abs(lf.evaluate(x0).f - hf.evaluate(x0).f) > 1e-3
        assert abs(lf.evaluate(x0).c[0] - hf.evaluate(x0).c[0]) > 1e-3


class TestCorrection:
    def test_first_order_consistency_at_random_centers(self):
        lf, hf, _, _, _ = quadratic_benchmark_pair()
        rng = np.random.default_rng(11)
        for _ in range(5):
            xc = rng.uniform(-1.5, 1.5, size=2)
            lo = lf.evaluate(xc)
            ho = hf.evaluate(xc)
            lg = lf.gradients(xc)
            hg = hf.gradients(xc)
            corr = build_correction(xc, lo, ho, lg, hg)
            e_val, e_grad = verify_consistency(corr, lo, ho, lg, hg)
            assert e_val <= 1e-12
            assert e_grad <= 1e-10

    def test_corrected_model_tracks_hf_to_second_order(self):
        lf, hf, _, _, _ = quadratic_benchmark_pair()
        xc = np.array([0.4, 0.2])
        corr = build_correction(
            xc, lf.evaluate(xc), hf.evaluate(xc), lf.gradients(xc), hf.gradients(xc)
        )
        for h in (1e-2, 1e-3):
            x = xc + h * np.array([1.0, -0.5])
            err = abs(corr.corrected_f(lf.evaluate(x).f, x) - hf.evaluate(x).f)
            assert err < 5.0 * h**2  # quadratic models, additive correction

    def test_partition_rows(self):
        lf_mask = np.array([True, True, False])
        hf_mask = np.array([True, False, True])
        both, lf_only, hf_only = partition_rows(lf_mask, hf_mask)
        assert list(both) == [0] and list(lf_only) == [1] and list(hf_only) == [2]


class TestLoop:
    def test_converges_to_known_solution(self):
        lf, hf, x0, x_star, f_star = quadratic_benchmark_pair()
        rep = trmm_optimize(lf, hf, x0, budget=60)
        assert abs(rep.f_best - f_star) < 1e-6
        assert np.max(np.abs(rep.x_best - x_star)) < 1e-4
        assert rep.violation_best <= 1e-8
        assert rep.termination in ("step_tol", "delta_min")

    def test_trace_shape_and_initial_entry(self):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        rep = trmm_optimize(lf, hf, x0, budget=60)
        assert len(rep.trace) == rep.iterations + 1
        first = rep.trace[0]
        assert np.array_equal(first.x, x0)
        assert np.isnan(first.rho) and first.accepted
        assert all(e.delta > 0 for e in rep.trace)

    def test_budget_one_returns_diagnostic(self):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        rep = trmm_optimize(lf, hf, x0, budget=1)
        assert rep.termination == "budget"
        assert rep.iterations == 0 and len(rep.trace) == 1
        assert rep.n_hf_evals == 1
        assert np.array_equal(rep.x_best, x0)
        assert rep.f_best == hf.evaluate(x0).f

    def test_budget_caps_hf_evaluations(self):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        rep = trmm_optimize(lf, hf, x0, budget=4)
        assert rep.n_hf_evals <= 4

    def test_accepted_merit_monotone(self):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        rep = trmm_optimize(lf, hf, np.array([1.4, 1.2]), budget=60)
        merits = [merit_of(e) for e in rep.trace if e.accepted]
        assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))

    def test_single_fidelity_baseline(self):
        _, hf, x0, x_star, f_star = quadratic_benchmark_pair()
        rep = trmm_optimize(hf, hf, x0, budget=400)
        assert abs(rep.f_best - f_star) < 1e-6
        assert np.max(np.abs(rep.x_best - x_star)) < 1e-4
        assert rep.n_lf_evals == 0 and rep.n_lf_grads == 0
        assert rep.n_hf_evals > 0

    def test_solve_counters_equal_evaluates_on_closed_form_models(self):
        lf, hf, x0, _, _ = quadratic_benchmark_pair()
        mf = trmm_optimize(lf, hf, x0, budget=20)
        assert mf.n_lf_solves == mf.n_lf_evals > 0
        assert mf.n_hf_solves == mf.n_hf_evals
        sf = trmm_optimize(hf, hf, x0, budget=20)
        assert sf.n_lf_solves == 0 and sf.n_hf_solves == sf.n_hf_evals
        summary = mf.summary()
        assert (summary["n_lf_solves"], summary["n_hf_solves"]) == (mf.n_lf_solves, mf.n_hf_solves)

    def test_multifidelity_saves_hf_evaluations(self):
        lf, hf, x0, _, f_star = quadratic_benchmark_pair()
        mf = trmm_optimize(lf, hf, x0, budget=200)
        sf = trmm_optimize(hf, hf, x0, budget=400)
        assert abs(mf.f_best - f_star) < 1e-6
        assert abs(sf.f_best - f_star) < 1e-6
        assert mf.n_hf_evals < sf.n_hf_evals

    def test_infeasible_start_recovers(self):
        lf, hf, _, x_star, f_star = quadratic_benchmark_pair()
        rep = trmm_optimize(lf, hf, np.array([1.9, 1.9]), budget=120)
        assert rep.violation_best <= 1e-6
        assert abs(rep.f_best - f_star) < 1e-4

    def test_sentinel_rows_do_not_disturb_subproblem(self):
        lf0, hf0, x0, x_star, f_star = quadratic_benchmark_pair()
        box = lf0.bounds()

        def with_sentinel(m):
            return AnalyticModel(
                fun=lambda x: m.evaluate(x).f,
                grad=lambda x: m.gradients(x).grad_f,
                cons=lambda x: [m.evaluate(x).c[0], -1.0e30],
                cons_grad=lambda x: [list(m.gradients(x).grad_c[0]), [0.0, 0.0]],
                box=box,
            )

        rep = trmm_optimize(with_sentinel(lf0), with_sentinel(hf0), x0, budget=60)
        assert abs(rep.f_best - f_star) < 1e-6
        assert np.max(np.abs(rep.x_best - x_star)) < 1e-4

    def test_lf_only_rows_pass_through_and_bind(self):
        # LF adds x2 <= 0.35, unavailable at HF; optimum moves to (0.85, 0.35)
        box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        hf = AnalyticModel(
            fun=lambda x: (x[0] - 1.0) ** 2 + 2.0 * (x[1] - 0.5) ** 2,
            grad=lambda x: np.array([2.0 * (x[0] - 1.0), 4.0 * (x[1] - 0.5)]),
            cons=lambda x: [x[0] + x[1] - 1.2, np.nan],
            cons_grad=lambda x: [[1.0, 1.0], [np.nan, np.nan]],
            box=box,
            mask=[True, False],
        )
        lf = AnalyticModel(
            fun=lambda x: 0.9 * (x[0] - 1.15) ** 2 + 2.3 * (x[1] - 0.4) ** 2 + 0.07,
            grad=lambda x: np.array([1.8 * (x[0] - 1.15), 4.6 * (x[1] - 0.4)]),
            cons=lambda x: [1.08 * x[0] + 0.92 * x[1] - 1.17, x[1] - 0.35],
            cons_grad=lambda x: [[1.08, 0.92], [0.0, 1.0]],
            box=box,
            mask=[True, True],
        )
        rep = trmm_optimize(lf, hf, np.array([0.0, 0.0]), budget=80)
        assert np.allclose(rep.x_best, [0.85, 0.35], atol=2e-4)
        assert abs(rep.f_best - 0.0675) < 1e-5
        # every accepted iterate honors the LF-only constraint
        for e in rep.trace:
            if e.accepted:
                assert e.x[1] <= 0.35 + 1e-6

    def test_hf_failure_is_rejected_with_shrink(self):
        lf0, hf0, x0, _, _ = quadratic_benchmark_pair()
        box = lf0.bounds()

        class Fragile:
            def bounds(self):
                return box

            def evaluate(self, x):
                if x[0] > 0.5:
                    raise RuntimeError("analysis blew up")
                return hf0.evaluate(x)

            def gradients(self, x):
                return hf0.gradients(x)

        rep = trmm_optimize(lf0, Fragile(), x0, budget=60, max_iter=25)
        failed = [e for e in rep.trace if np.isnan(e.f_hf)]
        assert failed and not any(e.accepted for e in failed)
        assert rep.x_best[0] <= 0.5
        # radius shrank after each failed attempt
        for e_prev, e in zip(rep.trace, rep.trace[1:]):
            if np.isnan(e.f_hf):
                assert e.delta < e_prev.delta


class TestSubproblem:
    def test_one_slsqp_run_plus_restoration_per_subproblem(self, monkeypatch):
        # the toy wing's budget-3 run from the shipped start, as the benchmark runs it
        cfg = load_config(TOY)
        lf, hf = cfg.analyses()
        runs = []  # per solve_subproblem call: [SLSQP runs, restored]
        real_minimize = mfopt.scipy.optimize.minimize
        real_solve = mfopt.solve_subproblem

        def minimize(*args, **kwargs):
            runs[-1][0] += 1
            return real_minimize(*args, **kwargs)

        def solve(*args, **kwargs):
            runs.append([0, None])
            cand, restored = real_solve(*args, **kwargs)
            runs[-1][1] = restored
            return cand, restored

        monkeypatch.setattr(mfopt.scipy.optimize, "minimize", minimize)
        monkeypatch.setattr(mfopt, "solve_subproblem", solve)
        rep = trmm_optimize(lf, hf, cfg.initial_design(), budget=3, max_iter=30)
        assert runs
        assert sum(restored for _, restored in runs) == rep.restorations
        for n_runs, restored in runs:
            assert n_runs == 1 + int(restored)
