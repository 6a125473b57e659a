"""Run configuration: one JSON document drives both fidelity levels.

The document is validated against the shipped schema first, then against the
domain rules the constructors enforce (zone bounds ascending, panel indices
gapless, aileron inside the span, and so on).  Either failure becomes a
ConfigError carrying a readable message.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

import jsonschema
import numpy as np

from .aero import Planform
from .aeroelastic import AileronDef
from .constraints import LoadCase, WingAnalysis, pack_design
from .fidelity import FidelityConfig, WingDefinition
from .laminate import (
    LaminationParameters,
    MaterialProperties,
    PanelDesign,
    lp_from_stack,
)

__all__ = [
    "ConfigError",
    "OptimizerSettings",
    "RunConfig",
    "config_schema",
    "load_config",
]

_MATERIAL_KEYS = ("E1", "E2", "G12", "nu12", "rho", "Xt", "Xc", "Yt", "Yc", "S")


class ConfigError(ValueError):
    """Configuration rejected: schema violation or unresolvable reference."""


def config_schema() -> dict:
    text = (
        resources.files("aerotail").joinpath("data/config.schema.json").read_text()
    )
    return json.loads(text)


@dataclass
class OptimizerSettings:
    budget: int = 100
    max_iter: int = 50

    def kwargs(self) -> dict:
        return asdict(self)


@dataclass
class RunConfig:
    definition: WingDefinition
    panels: list
    loadcases: list
    lf_fidelity: FidelityConfig
    hf_fidelity: FidelityConfig
    optimizer: OptimizerSettings
    output_dir: str

    def initial_design(self) -> np.ndarray:
        return pack_design(self.panels)

    def analyses(self) -> tuple[WingAnalysis, WingAnalysis]:
        return (WingAnalysis(self.definition, self.loadcases, self.lf_fidelity, level="LF"),
                WingAnalysis(self.definition, self.loadcases, self.hf_fidelity, level="HF"))


def _panel(entry: dict) -> PanelDesign:
    if "stack" in entry:
        lp = lp_from_stack(np.deg2rad(entry["stack"]))
    else:
        lp = LaminationParameters(
            np.asarray(entry["lp_a"], dtype=float),
            np.asarray(entry["lp_d"], dtype=float),
        )
    return PanelDesign(lp, float(entry["thickness"]))


def _fidelity(entry: dict) -> FidelityConfig:
    kwargs = {
        k: entry[k]
        for k in ("mesh_factor", "lattice_nx", "lattice_ny", "torsion_knockdown")
        if k in entry
    }
    if entry.get("knockdown_bays") is not None:
        kwargs["knockdown_bays"] = tuple(int(b) for b in entry["knockdown_bays"])
    if "extra_masses" in entry:
        kwargs["extra_masses"] = tuple(
            (float(frac), float(m)) for frac, m in entry["extra_masses"]
        )
    return FidelityConfig(**kwargs)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc

    try:
        jsonschema.validate(raw, config_schema())
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "document root"
        raise ConfigError(f"schema violation at {where}: {exc.message}") from exc

    try:
        planform = Planform(**raw["planform"])
        s = raw["structure"]
        material = MaterialProperties(**{k: raw["materials"][k] for k in _MATERIAL_KEYS})
        aileron = None
        if "aileron" in s:
            a = s["aileron"]
            if not 0.0 <= a["y_start"] < a["y_end"] <= planform.semi_span:
                raise ConfigError(
                    "aileron span band must lie inside [0, semi_span] "
                    f"with y_start < y_end, got [{a['y_start']}, {a['y_end']}]"
                )
            aileron = AileronDef(**a)
        definition = WingDefinition(
            planform=planform,
            n_bays=int(s["n_bays"]),
            box_chord_frac=tuple(s["box_chord_frac"]),
            box_height_frac=float(s["box_height_frac"]),
            material=material,
            zone_bounds=tuple(s["zone_bounds"]),
            wall_panels=tuple({k: int(v) for k, v in wm.items()} for wm in s["wall_panels"]),
            aoa_stations=tuple(s["aoa_stations"]),
            aileron=aileron,
            supported_mass=float(s.get("supported_mass", 0.0)),
            fixed_mass=float(s.get("fixed_mass", 0.0)),
        )
        panels = [_panel(p) for p in raw["panels"]]
        loadcases = [LoadCase(**lc) for lc in raw["loadcases"]]
        lf_fid = _fidelity(raw["fidelity"]["lf"])
        hf_fid = _fidelity(raw["fidelity"]["hf"])
        optimizer = OptimizerSettings(**raw["optimizer"])
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if len(panels) != definition.n_panels:
        raise ConfigError(
            f"panels section lists {len(panels)} designs but the wall maps "
            f"reference {definition.n_panels} panels"
        )
    return RunConfig(
        definition=definition,
        panels=panels,
        loadcases=loadcases,
        lf_fidelity=lf_fid,
        hf_fidelity=hf_fid,
        optimizer=optimizer,
        output_dir=raw["output"].get("directory", "."),
    )
