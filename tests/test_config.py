"""Config loading: schema validation, domain rules, and unit conventions."""

import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

import aerotail
from aerotail.aeroelastic import AileronDef
from aerotail.cli import EXIT_CONFIG, main
from aerotail.config import ConfigError, OptimizerSettings, config_schema, load_config
from aerotail.constraints import LoadCase
from aerotail.laminate import lp_from_stack
from aerotail.mfopt import trmm_optimize

DATA_DIR = os.path.join(os.path.dirname(aerotail.__file__), "data")
TOY = os.path.join(DATA_DIR, "toy_two_panel.json")
DEFAULT = os.path.join(DATA_DIR, "wing_default.json")


def toy_doc():
    with open(TOY, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def write_config(tmp_path):
    def _write(doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

    return _write


class TestShippedConfigs:
    def test_toy_loads(self):
        cfg = load_config(TOY)
        assert cfg.definition.n_panels == 2
        assert len(cfg.loadcases) == 1
        assert cfg.loadcases[0].name == "maneuver"
        assert cfg.output_dir == "out"
        assert cfg.optimizer.budget == 40
        assert cfg.hf_fidelity.torsion_knockdown == 0.8

    def test_default_wing_loads(self):
        cfg = load_config(DEFAULT)
        assert cfg.definition.n_panels == 16
        assert cfg.initial_design().size == 144
        assert len(cfg.loadcases) == 2
        assert cfg.hf_fidelity.mesh_factor == 2 * cfg.lf_fidelity.mesh_factor

    def test_schema_document_is_valid_draft7(self):
        import jsonschema

        jsonschema.Draft7Validator.check_schema(config_schema())

    def test_initial_design_packs_panels(self):
        cfg = load_config(TOY)
        x0 = cfg.initial_design()
        assert x0.shape == (18,)
        assert x0[8] == pytest.approx(3.0e-3)
        assert x0[17] == pytest.approx(2.8e-3)

    def test_analyses_builds_both_levels(self):
        cfg = load_config(TOY)
        lf, hf = cfg.analyses()
        x0 = cfg.initial_design()
        m_lf = lf.build_model(x0)
        m_hf = hf.build_model(x0)
        assert 2 * m_lf.beam.elements.section.size == m_hf.beam.elements.section.size


class TestConventions:
    def test_stack_angles_are_degrees(self):
        cfg = load_config(TOY)
        want = lp_from_stack(np.deg2rad([45, -45, 0, 90, 0, -45, 45]))
        got = cfg.panels[0].lp
        assert np.allclose(got.xiA, want.xiA, atol=1e-14)
        assert np.allclose(got.xiD, want.xiD, atol=1e-14)

    def test_direct_lamination_parameters(self, write_config):
        doc = toy_doc()
        doc["panels"][0] = {
            "lp_a": [0.1, -0.2, 0.0, 0.05],
            "lp_d": [0.3, 0.1, 0.0, 0.0],
            "thickness": 2.0e-3,
        }
        cfg = load_config(write_config(doc))
        assert np.allclose(cfg.panels[0].lp.xiA, [0.1, -0.2, 0.0, 0.05])
        assert np.allclose(cfg.panels[0].lp.xiD, [0.3, 0.1, 0.0, 0.0])
        assert cfg.panels[0].thickness == pytest.approx(2.0e-3)

    def test_optimizer_defaults_apply(self, write_config):
        doc = toy_doc()
        doc["optimizer"] = {}
        cfg = load_config(write_config(doc))
        assert cfg.optimizer == OptimizerSettings()

    def test_optimizer_kwargs_match_fields(self):
        settings = OptimizerSettings(budget=7)
        kw = settings.kwargs()
        assert kw["budget"] == 7
        schema_keys = set(config_schema()["properties"]["optimizer"]["properties"])
        fields = {f.name for f in dataclasses.fields(OptimizerSettings)}
        params = set(inspect.signature(trmm_optimize).parameters) - {"lf", "hf", "x0"}
        assert set(kw) == schema_keys == fields == params

    def test_loadcase_and_aileron_keys_match_fields(self):
        # both are built from their validated entries as they stand
        props = config_schema()["properties"]
        loadcase_keys = set(props["loadcases"]["items"]["properties"])
        aileron_keys = set(props["structure"]["properties"]["aileron"]["properties"])
        assert loadcase_keys == {f.name for f in dataclasses.fields(LoadCase)}
        assert aileron_keys == {f.name for f in dataclasses.fields(AileronDef)}

    def test_aileron_defaults_apply(self, write_config):
        doc = toy_doc()
        doc["structure"]["aileron"] = {"y_start": 2.4, "y_end": 3.8}
        cfg = load_config(write_config(doc))
        assert cfg.definition.aileron == AileronDef(y_start=2.4, y_end=3.8, rows=1, tau=1.0)

    def test_missing_output_directory_defaults_to_cwd(self, write_config):
        doc = toy_doc()
        doc["output"] = {}
        cfg = load_config(write_config(doc))
        assert cfg.output_dir == "."


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))

    def test_missing_section(self, write_config):
        doc = toy_doc()
        del doc["materials"]
        with pytest.raises(ConfigError, match="schema violation"):
            load_config(write_config(doc))

    def test_wrong_type_reports_path(self, write_config):
        doc = toy_doc()
        doc["loadcases"][0]["V"] = "fast"
        with pytest.raises(ConfigError, match="loadcases/0/V"):
            load_config(write_config(doc))

    def test_unknown_key_rejected(self, write_config):
        doc = toy_doc()
        doc["optimizer"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="schema violation"):
            load_config(write_config(doc))

    @pytest.mark.parametrize(
        "key", ["delta0", "delta_max", "delta_min", "merit_weight", "step_tol", "subproblem_tol"]
    )
    def test_fixed_optimizer_constant_rejected(self, write_config, key):
        doc = toy_doc()
        doc["optimizer"][key] = 0.5
        with pytest.raises(ConfigError, match="schema violation at optimizer"):
            load_config(write_config(doc))

    @pytest.mark.parametrize(
        "section, key, value", [("structure", "zone_regions", [0])], ids=["zone_regions"]
    )
    def test_removed_key_rejected(self, write_config, capsys, section, key, value):
        doc = toy_doc()
        doc[section][key] = value
        path = write_config(doc)
        with pytest.raises(ConfigError, match=f"schema violation at {section}"):
            load_config(path)
        assert main(["validate-config", "--config", path]) == EXIT_CONFIG
        assert f"schema violation at {section}" in capsys.readouterr().err

    def test_panel_needs_exactly_one_design_form(self, write_config):
        doc = toy_doc()
        doc["panels"][0]["lp_a"] = [0.0, 0.0, 0.0, 0.0]
        doc["panels"][0]["lp_d"] = [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ConfigError, match="schema violation at panels/0"):
            load_config(write_config(doc))

    def test_sonic_flow_rejected(self, write_config):
        doc = toy_doc()
        doc["loadcases"][0]["mach"] = 1.0
        with pytest.raises(ConfigError, match="schema violation"):
            load_config(write_config(doc))

    def test_panel_count_mismatch(self, write_config):
        doc = toy_doc()
        doc["panels"].append({"stack": [0.0], "thickness": 1.0e-3})
        with pytest.raises(ConfigError, match="panels section lists 3"):
            load_config(write_config(doc))

    def test_aileron_outside_span(self, write_config):
        doc = toy_doc()
        doc["structure"]["aileron"]["y_end"] = 5.0
        with pytest.raises(ConfigError, match="aileron span band"):
            load_config(write_config(doc))

    def test_domain_error_wrapped(self, write_config):
        doc = toy_doc()
        doc["structure"]["zone_bounds"] = [1.0, 0.0]
        with pytest.raises(ConfigError):
            load_config(write_config(doc))

    def test_empty_output_directory_rejected(self, write_config):
        doc = toy_doc()
        doc["output"]["directory"] = ""
        with pytest.raises(ConfigError, match="schema violation"):
            load_config(write_config(doc))

    def test_knockdown_above_one_rejected(self, write_config):
        doc = toy_doc()
        doc["fidelity"]["hf"]["torsion_knockdown"] = 1.2
        with pytest.raises(ConfigError, match="schema violation"):
            load_config(write_config(doc))
