"""Command-line interface: exit codes, emitted files, output-dir precedence."""

import json
import os
import time

import numpy as np
import pytest

import aerotail
from aerotail import cli
from aerotail.aeroelastic import N_MODES, dynamic_stability
from aerotail.beam import BeamModel
from aerotail.cli import EXIT_ANALYSIS, EXIT_CONFIG, EXIT_OK, main
from aerotail.compare import compare_static
from aerotail.config import load_config
from aerotail.mfopt import SUBPROBLEM_TOL
from aerotail.report import format_value

TOY = os.path.join(os.path.dirname(aerotail.__file__), "data", "toy_two_panel.json")
DEFAULT = os.path.join(os.path.dirname(aerotail.__file__), "data", "wing_default.json")


def run(*argv):
    return main(list(argv))


class TestValidateConfig:
    def test_shipped_configs_are_valid(self, capsys):
        assert run("validate-config", "--config", TOY) == EXIT_OK
        assert "config OK: 2 panels" in capsys.readouterr().out
        assert run("validate-config", "--config", DEFAULT) == EXIT_OK
        assert "config OK: 16 panels" in capsys.readouterr().out

    def test_broken_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{]")
        assert run("validate-config", "--config", str(p)) == EXIT_CONFIG
        assert "error: config:" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        with open(TOY, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["panels"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run("validate-config", "--config", str(p)) == EXIT_CONFIG
        assert "schema violation" in capsys.readouterr().err


class TestAnalyze:
    def test_static_writes_json(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "static", "--config", TOY,
                   "--out", out) == EXIT_OK
        doc = json.loads(open(os.path.join(out, "static_LF.json")).read())
        assert doc["case"] == "static"
        assert doc["tip_deflection_per_unit_force"] > 0.0
        assert doc["tip_twist_per_unit_torque"] > 0.0

    def test_static_is_deterministic(self, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        run("analyze", "--case", "static", "--config", TOY, "--out", out1)
        run("analyze", "--case", "static", "--config", TOY, "--out", out2)
        b1 = open(os.path.join(out1, "static_LF.json"), "rb").read()
        b2 = open(os.path.join(out2, "static_LF.json"), "rb").read()
        assert b1 == b2

    def test_modal_csv_and_level_tagging(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "modal", "--config", TOY,
                   "--level", "HF", "--modes", "4", "--out", out) == EXIT_OK
        lines = open(os.path.join(out, "modal_HF.csv")).read().splitlines()
        assert lines[0] == "index,omega_rad_s,frequency_hz"
        assert len(lines) == 5
        doc = json.loads(open(os.path.join(out, "modal_HF.json")).read())
        assert len(doc["omega"]) == 4

    def test_buckling_case_fails_argument_parsing(self, tmp_path, capsys):
        # no valid config prestresses the beam in compression, so there is no
        # buckling case to run
        with pytest.raises(SystemExit) as exc:
            run("analyze", "--case", "buckling", "--config", TOY,
                "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "invalid choice: 'buckling'" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "o"))

    def test_trim_keeps_load_case_names(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "trim", "--config", TOY,
                   "--out", out) == EXIT_OK
        text = open(os.path.join(out, "trim_LF.csv")).read()
        assert "maneuver" in text
        doc = json.loads(open(os.path.join(out, "trim_LF.json")).read())
        assert "maneuver" in doc["results"]
        assert doc["results"]["maneuver"]["total_lift"] > 0.0

    def test_flutter_outputs(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "flutter", "--config", TOY,
                   "--out", out) == EXIT_OK
        lines = open(os.path.join(out, "flutter_LF.csv")).read().splitlines()
        assert lines[0] == "index,load_case,real,imag"
        assert os.path.exists(os.path.join(out, "flutter_LF.svg"))
        doc = json.loads(open(os.path.join(out, "flutter_LF.json")).read())
        assert doc["max_real"] < 0.0
        # the toy beam is small enough to keep every free dof
        cfg = load_config(TOY)
        beam = cfg.analyses()[0].build_model(cfg.initial_design()).beam
        assert doc["basis_size"] == beam.free.size
        assert doc["basis_omega_max_rad_s"] == pytest.approx(
            beam.modal(beam.free.size).omega[-1], rel=1e-10)

    def test_flutter_states_its_modal_truncation(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "flutter", "--config", DEFAULT,
                   "--out", out) == EXIT_OK
        doc = json.loads(open(os.path.join(out, "flutter_LF.json")).read())
        cfg = load_config(DEFAULT)
        beam = cfg.analyses()[0].build_model(cfg.initial_design()).beam
        assert beam.free.size > N_MODES
        assert doc["basis_size"] == N_MODES
        assert doc["basis_omega_max_rad_s"] == pytest.approx(
            beam.modal(N_MODES).omega[-1], rel=1e-10)

    @pytest.mark.parametrize("config,level", [("toy", "LF"), ("toy", "HF"), ("default", "HF")])
    def test_flutter_files_match_solve_with_shapes(self, tmp_path, monkeypatch, config, level):
        def files(out):
            return {f: open(os.path.join(out, f), "rb").read() for f in sorted(os.listdir(out))}

        fast, ref = str(tmp_path / "fast"), str(tmp_path / "ref")
        path = {"toy": TOY, "default": DEFAULT}[config]
        argv = ("analyze", "--case", "flutter", "--config", path, "--level", level)
        assert run(*argv, "--out", fast) == EXIT_OK
        monkeypatch.setattr(
            cli, "dynamic_stability",
            lambda beam, ops, n_keep, shapes: dynamic_stability(beam, ops, n_keep=n_keep),
        )
        assert run(*argv, "--out", ref) == EXIT_OK
        assert files(fast) == files(ref)

    def test_unnamed_load_cases_get_one_name_everywhere(self, tmp_path):
        with open(TOY, encoding="utf-8") as fh:
            doc = json.load(fh)
        first = {k: v for k, v in doc["loadcases"][0].items() if k != "name"}
        doc["loadcases"] = [first, dict(first, V=70.0)]
        cfg = tmp_path / "unnamed.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "o")
        for case in ("flutter", "trim"):
            assert run("analyze", "--case", case, "--config", str(cfg),
                       "--out", out) == EXIT_OK
        names = ["case_0", "case_1"]
        for case in ("flutter", "trim"):
            rows = open(os.path.join(out, f"{case}_LF.csv")).read().splitlines()[1:]
            assert sorted({r.split(",")[1] for r in rows}) == names, case
        flutter = json.loads(open(os.path.join(out, "flutter_LF.json")).read())
        assert sorted(flutter["eigenvalues"]) == names
        trim = json.loads(open(os.path.join(out, "trim_LF.json")).read())
        assert sorted(trim["results"]) == names

    @pytest.mark.parametrize("fault", ["no_modes", "linalg"])
    def test_analysis_failure_exits_3(self, tmp_path, capsys, monkeypatch, fault):
        modes = "0"
        if fault == "linalg":
            # numpy's LinAlgError is a ValueError, so the CLI needs no clause of its own
            def singular(self, n_modes):
                raise np.linalg.LinAlgError("singular matrix")

            monkeypatch.setattr(BeamModel, "modal", singular)
            modes = "4"
        out = str(tmp_path / "o")
        code = run("analyze", "--case", "modal", "--config", TOY,
                   "--modes", modes, "--out", out)
        assert code == EXIT_ANALYSIS
        assert "error: analysis:" in capsys.readouterr().err


class TestMatchesConstraintStack:
    """The CLI reports the same flight states as the constraint stack."""

    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_trim_matches_analysis_trim(self, tmp_path, level):
        cfg = load_config(TOY)
        lf, hf = cfg.analyses()
        analysis = lf if level == "LF" else hf
        model = analysis.build_model(cfg.initial_design())
        tip = model.beam.n_nodes - 1
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "trim", "--config", TOY,
                   "--level", level, "--out", out) == EXIT_OK
        doc = json.loads(open(os.path.join(out, f"trim_{level}.json")).read())
        assert len(doc["results"]) == len(cfg.loadcases)
        for i, lc in enumerate(cfg.loadcases):
            got = doc["results"][lc.name]
            res = analysis.trim(model, i)
            for key, ref in (("alpha_rad", res.alpha), ("total_lift", res.total_lift),
                             ("tip_deflection", float(res.u[6 * tip + 2])),
                             ("tip_twist", float(res.u[6 * tip + 4]))):
                assert format_value(got[key]) == format_value(ref), (lc.name, key)

    @pytest.mark.parametrize("level", ["LF", "HF"])
    def test_static_matches_compare_static(self, tmp_path, level):
        cfg = load_config(TOY)
        lf, hf = (a.build_model(cfg.initial_design()) for a in cfg.analyses())
        rep = compare_static(lf, hf)
        want = rep.lf_values if level == "LF" else rep.hf_values
        out = str(tmp_path / "o")
        assert run("analyze", "--case", "static", "--config", TOY,
                   "--level", level, "--out", out) == EXIT_OK
        doc = json.loads(open(os.path.join(out, f"static_{level}.json")).read())
        assert format_value(doc["tip_deflection_per_unit_force"]) == format_value(
            want["tip_deflection"])
        assert format_value(doc["tip_twist_per_unit_torque"]) == format_value(
            want["tip_twist"])


class TestCompare:
    def test_case1_knockdown_signature(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("compare", "--case", "1", "--config", TOY,
                   "--out", out) == EXIT_OK
        lines = open(os.path.join(out, "case1_comparison.csv")).read().splitlines()
        assert lines[0] == "index,lf_value,hf_value,relative_error"
        doc = json.loads(open(os.path.join(out, "case1_report.json")).read())
        assert doc["flags"]["bending_below_threshold"] is True
        assert doc["flags"]["torsion_above_threshold"] is True

    def test_case2_emits_mac_heatmap(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("compare", "--case", "2", "--config", TOY,
                   "--out", out) == EXIT_OK
        svg = open(os.path.join(out, "case2_mac.svg")).read()
        assert svg.startswith("<svg")
        lines = open(os.path.join(out, "case2_frequencies.csv")).read().splitlines()
        assert lines[0] == "index,lf_value,hf_value,relative_error"
        doc = json.loads(open(os.path.join(out, "case2_report.json")).read())
        assert len(doc["mac"]) == len(doc["mac"][0])

    def test_case3_emits_scatter_and_tables(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("compare", "--case", "3", "--config", TOY,
                   "--out", out) == EXIT_OK
        for name in ("case3_eigenvalues_real.csv", "case3_eigenvalues_imag.csv",
                     "case3_eigenvalues.svg", "case3_mac.svg",
                     "case3_report.json"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_case3_relative_error_is_inf_on_a_zero_hf_part(self, tmp_path, monkeypatch):
        # a real HF eigenvalue has a zero imaginary part the LF one lacks
        real_compare = cli.compare_aeroelastic

        def compare(lf, hf, flow):
            rep = real_compare(lf, hf, flow)
            rep.eigenvalue_tables["hf_eigenvalues"][0] = -1.0
            return rep

        monkeypatch.setattr(cli, "compare_aeroelastic", compare)
        out = str(tmp_path / "o")
        assert run("compare", "--case", "3", "--config", TOY,
                   "--out", out) == EXIT_OK
        lines = open(os.path.join(out, "case3_eigenvalues_imag.csv")).read().splitlines()
        index, lf_value, hf_value, error = lines[1].split(",")
        assert index == "0" and hf_value == "0" and float(lf_value) != 0.0
        assert error == "inf"


class TestOutputDirPrecedence:
    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        env_dir = str(tmp_path / "env")
        flag_dir = str(tmp_path / "flag")
        monkeypatch.setenv("AEROTAIL_OUT", env_dir)
        run("analyze", "--case", "static", "--config", TOY, "--out", flag_dir)
        assert os.path.exists(os.path.join(flag_dir, "static_LF.json"))
        assert not os.path.exists(os.path.join(env_dir, "static_LF.json"))

    def test_environment_beats_config(self, tmp_path, monkeypatch):
        env_dir = str(tmp_path / "env")
        monkeypatch.setenv("AEROTAIL_OUT", env_dir)
        monkeypatch.chdir(tmp_path)
        run("analyze", "--case", "static", "--config", TOY)
        assert os.path.exists(os.path.join(env_dir, "static_LF.json"))
        assert not os.path.exists(str(tmp_path / "out"))


class TestOptimize:
    def test_budget_override_and_outputs(self, tmp_path):
        out = str(tmp_path / "o")
        assert run("optimize", "--config", TOY, "--budget", "2",
                   "--out", out) == EXIT_OK
        doc = json.loads(open(os.path.join(out, "optimize.json")).read())
        assert doc["n_hf_evals"] <= 2
        assert len(doc["x_best"]) == 18
        assert doc["f_best"] > 0.0
        assert os.path.exists(os.path.join(out, "optimize_trace.svg"))
        with open(os.path.join(out, "optimize_trace.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ("index,f_hf,violation,delta,rho,accepted,restoration,"
                            "slsqp_status,candidate_violation")
        assert len(lines) == 1 + len(doc["trace"])
        for line, entry in zip(lines[1:], doc["trace"]):
            cells = line.split(",")
            assert cells[5] == str(int(entry["accepted"]))
            assert cells[6] == str(int(entry["restoration"]))
            status, viol = entry["slsqp_status"], entry["candidate_violation"]
            assert cells[7] == ("" if status is None else str(status))
            assert cells[8] == (viol if isinstance(viol, str) else format_value(viol))
        start, steps = doc["trace"][0], doc["trace"][1:]
        assert start["slsqp_status"] is None and start["candidate_violation"] == "nan"
        assert steps
        for entry in steps:
            assert isinstance(entry["slsqp_status"], int)
            # restoration runs exactly when the candidate kept a violation
            assert entry["restoration"] == (entry["candidate_violation"] > SUBPROBLEM_TOL)

    def test_solve_counters_include_gradient_probes(self, tmp_path):
        out = str(tmp_path / "o")
        t0 = time.perf_counter()
        assert run("optimize", "--config", TOY, "--budget", "3", "--out", out) == EXIT_OK
        wall = time.perf_counter() - t0
        doc = json.loads(open(os.path.join(out, "optimize.json")).read())
        # time inside the models, per level, is part of the run's wall time
        assert 0.0 < doc["lf_seconds"] <= wall and 0.0 < doc["hf_seconds"] <= wall
        assert doc["lf_seconds"] + doc["hf_seconds"] <= wall
        assert doc["n_lf_grads"] > 0 and doc["n_hf_grads"] > 0
        # a toy gradient probes xiA1..4 and t of both panels, twice each
        assert doc["n_lf_solves"] == doc["n_lf_evals"] + 20 * doc["n_lf_grads"]
        assert doc["n_hf_solves"] == doc["n_hf_evals"] + 20 * doc["n_hf_grads"]
