"""Run configuration: one JSON document drives both fidelity levels.

The document is read as JSON that holds only numbers finite as a float:
`json` alone accepts NaN, Infinity and -Infinity, reads 1e400 as inf, and
NaN passes every bound of the schema.  It is then validated against the
shipped schema, and then against the domain rules the constructors enforce
(zone bounds ascending, panel indices gapless, aileron inside the span, and
so on).  Each failure becomes a ConfigError carrying a readable message.

The schema's validator is built once per process: reading the schema,
checking it against its metaschema and compiling it cost more than
validating a document, and the schema ships with the package.  A schema that
fails its metaschema raises jsonschema.SchemaError on every load.
"""

from __future__ import annotations

import functools
import json
import math
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


@functools.cache
def _validator():
    """The shipped schema's validator, checked against its metaschema:
    what `jsonschema.validate` builds on every call, built once."""
    schema = config_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _finite(text: str, parse=float):
    """`json` number hook: parse text, rejecting numbers not finite as a float."""
    if not math.isfinite(float(text)):
        raise ConfigError(f"number {text} is not finite as a float")
    return parse(text)


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
            raw = json.load(
                fh,
                parse_float=_finite,
                parse_int=functools.partial(_finite, parse=int),
                parse_constant=_finite,
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc

    error = jsonschema.exceptions.best_match(_validator().iter_errors(raw))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "document root"
        raise ConfigError(f"schema violation at {where}: {error.message}") from error

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
