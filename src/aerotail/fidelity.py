"""Construction of the low and high fidelity wing models from one definition.

Both levels share geometry, material, panel layout, and load cases; they
differ only in mesh density, lattice density, and the high-fidelity
refinements: a torsional knockdown on flagged bays standing in for local
detail (inspection holes), and extra lumped equipment masses.

The knockdown enters as a congruence D C D with D = diag(1, 1, 1,
sqrt(kappa_t), 1, 1), so axial and bending entries of the section stiffness
stay bit-identical while torsion scales by kappa_t exactly and the matrix
stays symmetric positive definite.

Wing layout: the span splits into rib bays; every bay takes a prismatic box
section evaluated at its mid-span chord.  Spanwise zones group bays; each
zone assigns one design panel per box wall and one buckling region.  Beam
nodes sit on the elastic axis, the chordwise center of the box.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .aero import Lattice, Planform, build_lattice
from .aeroelastic import AileronDef
from .beam import BeamModel, ElementDef, PointMass
from .laminate import MaterialProperties, PanelDesign
from .section import SectionProperties, box_section

CATEGORIES = ("tw", "b", "ds", "ae", "AoA", "feas")

WALL_NAMES = ("upper", "lower", "front", "rear")

DEFAULT_AVAILABILITY = {
    "tw": "both",
    "b": "both",
    "ds": "both",
    "ae": "LF",
    "AoA": "both",
    "feas": "both",
}


@dataclass(frozen=True)
class WingDefinition:
    """Fidelity-independent wing description.

    zone_bounds are span fractions delimiting the panel zones; wall_panels
    maps every zone's four walls to design panel indices, and zone_regions
    assigns each zone a buckling region id.  aoa_stations are the span
    fractions where the local incidence constraint is sampled.
    """

    planform: Planform
    n_bays: int
    box_chord_frac: tuple[float, float]
    box_height_frac: float
    material: MaterialProperties
    zone_bounds: tuple[float, ...]
    wall_panels: tuple[dict, ...]
    zone_regions: tuple[int, ...]
    aoa_stations: tuple[float, ...]
    aileron: AileronDef | None = None
    supported_mass: float = 0.0
    fixed_mass: float = 0.0
    availability: dict | None = None

    def __post_init__(self):
        if self.n_bays < 1:
            raise ValueError("need at least one bay")
        f0, f1 = self.box_chord_frac
        if not 0.0 <= f0 < f1 <= 1.0:
            raise ValueError("box chord fractions must satisfy 0 <= f0 < f1 <= 1")
        if self.box_height_frac <= 0.0:
            raise ValueError("box height fraction must be positive")
        zb = np.asarray(self.zone_bounds, dtype=float)
        if zb[0] != 0.0 or zb[-1] != 1.0 or np.any(np.diff(zb) <= 0):
            raise ValueError("zone bounds must ascend from 0 to 1")
        if len(self.wall_panels) != zb.size - 1 or len(self.zone_regions) != zb.size - 1:
            raise ValueError("one wall map and one region id per zone")
        for wm in self.wall_panels:
            if set(wm) != set(WALL_NAMES):
                raise ValueError(f"wall map must name exactly {WALL_NAMES}")
        used = sorted({int(i) for wm in self.wall_panels for i in wm.values()})
        if used != list(range(len(used))):
            raise ValueError("design panel indices must be 0..n_panels-1 without gaps")
        for s in self.aoa_stations:
            if not 0.0 <= s <= 1.0:
                raise ValueError("aoa stations are span fractions in [0, 1]")

    @property
    def n_panels(self) -> int:
        return 1 + max(int(i) for wm in self.wall_panels for i in wm.values())

    @property
    def n_regions(self) -> int:
        return len(set(self.zone_regions))

    @property
    def n_variables(self) -> int:
        return 9 * self.n_panels

    def category_availability(self, category: str) -> str:
        table = self.availability or DEFAULT_AVAILABILITY
        return table.get(category, "both")

    def bay_zone(self, bay: int) -> int:
        frac = (bay + 0.5) / self.n_bays
        zb = np.asarray(self.zone_bounds)
        return int(np.clip(np.searchsorted(zb, frac) - 1, 0, len(self.wall_panels) - 1))

    def elastic_axis_x(self, y) -> np.ndarray:
        f0, f1 = self.box_chord_frac
        return 0.5 * (f0 + f1) * self.planform.chord(y)


@dataclass(frozen=True)
class FidelityConfig:
    """Discretization and discrepancy knobs of one fidelity level."""

    mesh_factor: int = 1
    lattice_nx: int = 2
    lattice_ny: int = 12
    torsion_knockdown: float = 1.0
    knockdown_bays: tuple[int, ...] | None = None  # None means every bay
    extra_masses: tuple[tuple[float, float], ...] = ()  # (span fraction, kg)

    def __post_init__(self):
        if self.mesh_factor < 1:
            raise ValueError("mesh factor must be at least 1")
        if not 0.0 < self.torsion_knockdown <= 1.0:
            raise ValueError("torsion knockdown must lie in (0, 1]")


@dataclass
class WingModel:
    """One built fidelity instance of the wing for a specific design."""

    beam: BeamModel
    definition: WingDefinition
    fidelity: FidelityConfig
    bay_sections: tuple[SectionProperties, ...]
    element_bay: np.ndarray  # bay index of every beam element
    bay_axis_length: np.ndarray  # elastic-axis length of every bay

    @property
    def lattice(self) -> Lattice:
        """The fidelity level's vortex lattice; it does not depend on the design."""
        return wing_lattice(self.definition, self.fidelity)

    def structural_mass(self) -> float:
        return float(
            sum(l * p.mu for l, p in zip(self.bay_axis_length, self.bay_sections))
        )

    def mass_with_fixed(self) -> float:
        return self.structural_mass() + self.definition.fixed_mass

    def mass_thickness_gradient(self) -> np.ndarray:
        """d(mass)/d(panel thickness), closed form: rho * wall area."""
        g = np.zeros(self.definition.n_panels)
        rho = self.definition.material.rho
        for length, props in zip(self.bay_axis_length, self.bay_sections):
            for panel, arc in props.panel_arc_length.items():
                g[panel] += rho * arc * length
        return g

    def element_region(self) -> np.ndarray:
        zones = np.array([self.definition.bay_zone(b) for b in self.element_bay])
        regions = np.asarray(self.definition.zone_regions)
        return regions[zones]


def apply_torsion_knockdown(props: SectionProperties, kappa: float) -> SectionProperties:
    """Scale torsion row and column of C by sqrt(kappa); all else untouched."""
    d = np.ones(6)
    d[3] = np.sqrt(kappa)
    c = props.C * np.outer(d, d)
    return dataclasses.replace(props, C=c)


def beam_nodes(defn: WingDefinition, fid: FidelityConfig) -> np.ndarray:
    """Beam node positions on the elastic axis, mesh_factor elements per bay.

    They depend on the planform and the mesh only, never on the design.
    """
    n_elem = defn.n_bays * fid.mesh_factor
    y_nodes = np.linspace(0.0, defn.planform.semi_span, n_elem + 1)
    return np.column_stack(
        [defn.elastic_axis_x(y_nodes), y_nodes, np.zeros(y_nodes.size)]
    )


def wing_lattice(defn: WingDefinition, fid: FidelityConfig) -> Lattice:
    """Vortex lattice of the planform at the fidelity level's density."""
    return build_lattice(defn.planform, nx=fid.lattice_nx, ny=fid.lattice_ny)


def build_wing_model(
    defn: WingDefinition, panels: list[PanelDesign], fid: FidelityConfig
) -> WingModel:
    """Assemble the beam for one design at one fidelity level."""
    if len(panels) != defn.n_panels:
        raise ValueError(f"expected {defn.n_panels} panel designs, got {len(panels)}")
    span = defn.planform.semi_span
    bay_edges = np.linspace(0.0, span, defn.n_bays + 1)
    flagged = (
        set(range(defn.n_bays)) if fid.knockdown_bays is None else set(fid.knockdown_bays)
    )
    f0, f1 = defn.box_chord_frac

    sections = []
    for b in range(defn.n_bays):
        y_mid = 0.5 * (bay_edges[b] + bay_edges[b + 1])
        chord = float(defn.planform.chord(y_mid))
        zone = defn.bay_zone(b)
        wall_map = defn.wall_panels[zone]
        walls = {name: panels[wall_map[name]] for name in WALL_NAMES}
        sec = box_section(
            width=(f1 - f0) * chord,
            height=defn.box_height_frac * chord,
            walls=walls,
            material=defn.material,
            panel_indices={k: int(v) for k, v in wall_map.items()},
        )
        props = sec.build()
        if fid.torsion_knockdown < 1.0 and b in flagged:
            props = apply_torsion_knockdown(props, fid.torsion_knockdown)
        sections.append(props)

    nodes = beam_nodes(defn, fid)
    n_elem = nodes.shape[0] - 1
    element_bay = np.repeat(np.arange(defn.n_bays), fid.mesh_factor)
    elements = [
        ElementDef((k, k + 1), sections[element_bay[k]]) for k in range(n_elem)
    ]
    masses = [
        PointMass(node=int(round(frac * n_elem)), mass=m)
        for frac, m in fid.extra_masses
    ]
    beam = BeamModel(nodes, elements, fixed_dofs=np.arange(6), point_masses=masses)
    edge_pts = np.column_stack([defn.elastic_axis_x(bay_edges), bay_edges])
    return WingModel(
        beam=beam,
        definition=defn,
        fidelity=fid,
        bay_sections=tuple(sections),
        element_bay=element_bay,
        bay_axis_length=np.linalg.norm(np.diff(edge_pts, axis=0), axis=1),
    )


def make_lf(defn: WingDefinition, loadcases, cfg: FidelityConfig | None = None):
    """Low-fidelity analysis handle: coarse mesh, full constraint set."""
    from .constraints import WingAnalysis

    cfg = cfg or FidelityConfig()
    return WingAnalysis(defn, loadcases, cfg, level="LF")


def make_hf(defn: WingDefinition, loadcases, cfg: FidelityConfig | None = None):
    """High-fidelity analysis handle: refined mesh plus knockdown physics."""
    from .constraints import WingAnalysis

    cfg = cfg or FidelityConfig(
        mesh_factor=2, lattice_nx=2, lattice_ny=24, torsion_knockdown=0.76
    )
    return WingAnalysis(defn, loadcases, cfg, level="HF")
