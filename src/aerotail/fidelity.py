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
zone assigns one design panel per box wall.  Beam nodes sit on the elastic
axis, the chordwise center of the box.

Built once per definition and level (`WingStructure`): bay box geometry,
the bay -> panel map, the knockdown, nodes, element geometry and assembly
indices, wall areas and the vortex lattice, then on first use the aero and
aileron operators of every flow the analyses meet.  Built per design
(`build_wing_model`): one condensed membrane per design panel, then every
bay's C and M, the element matrices and the assembled K and M as batched
array expressions.  A stack of designs builds the same way in one pass:
one section batch over every bay of every design, and one beam whose
arrays carry a leading design axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .aero import AeroOperators, FlowConditions, Lattice, Planform, aero_operators, build_lattice
from .aeroelastic import AileronDef, AileronOperators, aileron_operators
from .beam import BeamModel, ElementGeometry, ElementSet, PointMass, free_dofs
from .laminate import MaterialProperties, PanelDesign
from .section import (
    BOX_WALLS,
    SectionBatch,
    box_corners,
    condensed_membrane,
    contour_geometry,
    section_batch,
)

WALL_NAMES = ("upper", "lower", "front", "rear")


@dataclass(frozen=True)
class WingDefinition:
    """Fidelity-independent wing description.

    zone_bounds are span fractions delimiting the panel zones; wall_panels
    maps every zone's four walls to design panel indices.  aoa_stations are
    the span fractions where the local incidence constraint is sampled.
    """

    planform: Planform
    n_bays: int
    box_chord_frac: tuple[float, float]
    box_height_frac: float
    material: MaterialProperties
    zone_bounds: tuple[float, ...]
    wall_panels: tuple[dict, ...]
    aoa_stations: tuple[float, ...]
    aileron: AileronDef | None = None
    supported_mass: float = 0.0
    fixed_mass: float = 0.0
    # WingStructure per FidelityConfig, filled by wing_structure
    _structures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        if len(self.wall_panels) != zb.size - 1:
            raise ValueError("one wall map per zone")
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


class WingStructure:
    """Everything of one wing at one fidelity level that no design changes.

    Bay box geometry (wall tangents, lengths, enclosed areas, Gauss points),
    the (n_bays, 4) bay -> panel map in contour order, the per-bay knockdown
    congruence, beam nodes and the free dofs of every model on them,
    element geometry and assembly indices, point masses, the wall-area
    table behind the mass thickness gradient, the Tsai-Wu stations of every
    panel as one padded (n_panels, max_stations) index, and the vortex
    lattice.  Built once per definition and level by `wing_structure`;
    `build` adds a design or a stack of them.

    No design changes the nodes or the lattice, so the aero operators built
    from them at one flow serve every design: `aero` and `aileron` build
    them on first use and keep them by flow.
    """

    def __init__(self, defn: WingDefinition, fid: FidelityConfig):
        self.definition = defn
        self.fidelity = fid
        n_bays = defn.n_bays
        bay_edges = np.linspace(0.0, defn.planform.semi_span, n_bays + 1)
        chord = defn.planform.chord(0.5 * (bay_edges[:-1] + bay_edges[1:]))
        f0, f1 = defn.box_chord_frac
        self.contour = contour_geometry(
            *box_corners((f1 - f0) * chord, defn.box_height_frac * chord)
        )
        wall_maps = [defn.wall_panels[defn.bay_zone(b)] for b in range(n_bays)]
        self.bay_panel = np.array([[int(wm[w]) for w in BOX_WALLS] for wm in wall_maps])
        self.knockdown = np.ones((n_bays, 6, 6))
        if fid.torsion_knockdown < 1.0:
            flagged = range(n_bays) if fid.knockdown_bays is None else fid.knockdown_bays
            bays = sorted(set(flagged) & set(range(n_bays)))
            self.knockdown[bays] = _knockdown(fid.torsion_knockdown)

        self.nodes = beam_nodes(defn, fid)
        self.free = free_dofs(self.nodes.shape[0])
        self.lattice = wing_lattice(defn, fid)
        n_elem = self.nodes.shape[0] - 1
        self.elements = ElementGeometry.build(self.nodes, [(k, k + 1) for k in range(n_elem)])
        self.element_bay = np.repeat(np.arange(n_bays), fid.mesh_factor)
        self.point_masses = tuple(
            PointMass(node=int(round(frac * n_elem)), mass=m) for frac, m in fid.extra_masses
        )
        edge_pts = np.column_stack([defn.elastic_axis_x(bay_edges), bay_edges])
        self.bay_axis_length = np.linalg.norm(np.diff(edge_pts, axis=0), axis=1)

        # d(mass)/d(panel thickness), closed form: rho * wall area, with each
        # panel's arc length summed in wall order and its areas in bay order
        on_panel = self.bay_panel[..., None] == np.arange(defn.n_panels)
        arc = np.cumsum(np.where(on_panel, self.contour.length[..., None], 0.0), axis=1)[:, -1]
        area = defn.material.rho * arc * self.bay_axis_length[:, None]
        self.thickness_gradient = np.cumsum(area, axis=0)[-1]
        station_panel = self.bay_panel[self.element_bay].ravel()
        stations = [np.flatnonzero(station_panel == p) for p in range(defn.n_panels)]
        width = max(i.size for i in stations)
        # padded with the index of the sentinel column the Tsai-Wu rows append
        self.panel_stations = np.array(
            [np.pad(i, (0, width - i.size), constant_values=station_panel.size) for i in stations]
        )
        for a in (self.bay_panel, self.knockdown, self.free, self.element_bay,
                  self.bay_axis_length, self.thickness_gradient, self.panel_stations):
            a.flags.writeable = False
        self._aero: dict[FlowConditions, AeroOperators] = {}
        self._aileron: dict[FlowConditions, AileronOperators] = {}

    def aero(self, flow: FlowConditions) -> AeroOperators:
        """Aero operators of the lattice on the beam nodes at flow."""
        ops = self._aero.get(flow)
        if ops is None:
            ops = self._aero[flow] = aero_operators(self.lattice, flow, self.nodes)
        return ops

    def aileron(self, flow: FlowConditions) -> AileronOperators:
        """Antisymmetric operators of the definition's aileron at flow."""
        ops = self._aileron.get(flow)
        if ops is None:
            ops = self._aileron[flow] = aileron_operators(
                self.lattice, self.nodes, flow, self.definition.aileron
            )
        return ops

    def build(self, designs: list[list[PanelDesign]], stacked: bool) -> "WingModel":
        """Sections of every bay and the assembled beam for a list of designs.

        designs holds one PanelDesign list per design.  Unstacked it holds
        one design and builds that design's model; stacked, the model's
        section and beam arrays carry a leading design axis.
        """
        material = self.definition.material
        membrane = np.array([[condensed_membrane(p, material) for p in d] for d in designs])
        thickness = np.array([[p.thickness for p in d] for d in designs], dtype=float)
        if not stacked:
            membrane, thickness = membrane[0], thickness[0]
        walls = self.bay_panel
        sec = section_batch(self.contour, membrane[..., walls, :, :], thickness[..., walls],
                            material.rho)
        sec = dataclasses.replace(sec, C=sec.C * self.knockdown)
        beam = BeamModel(
            self.nodes,
            ElementSet(self.elements, sec.C, sec.M, self.element_bay),
            point_masses=self.point_masses,
        )
        return WingModel(beam=beam, structure=self, sections=sec)


@dataclass
class WingModel:
    """One built fidelity instance of the wing for a specific design, or a stack.

    sections holds the per-bay section arrays; C carries the knockdown.  A
    stack's section and beam arrays carry a leading design axis; the mass
    methods read one design.
    """

    beam: BeamModel
    structure: WingStructure
    sections: SectionBatch

    @property
    def lattice(self) -> Lattice:
        """The fidelity level's vortex lattice; it does not depend on the design."""
        return self.structure.lattice

    def structural_mass(self) -> float:
        # running total in bay order
        lengths = self.structure.bay_axis_length
        return float(np.cumsum(lengths * self.sections.M[:, 0, 0])[-1])

    def mass_with_fixed(self) -> float:
        return self.structural_mass() + self.structure.definition.fixed_mass


def _knockdown(kappa: float) -> np.ndarray:
    """Congruence factors D_i D_j with D = diag(1, 1, 1, sqrt(kappa), 1, 1)."""
    d = np.ones(6)
    d[3] = np.sqrt(kappa)
    return np.outer(d, d)


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


def wing_structure(defn: WingDefinition, fid: FidelityConfig) -> WingStructure:
    """The level's design-independent structure, built on first use and kept on defn."""
    structure = defn._structures.get(fid)
    if structure is None:
        structure = defn._structures[fid] = WingStructure(defn, fid)
    return structure


def build_wing_model(defn: WingDefinition, panels, fid: FidelityConfig) -> WingModel:
    """Assemble the beam for one design, or a stack of them, at one fidelity level.

    panels is one PanelDesign per design panel, or a list of such lists.
    """
    stacked = bool(panels) and not isinstance(panels[0], PanelDesign)
    designs = panels if stacked else [panels]
    for d in designs:
        if len(d) != defn.n_panels:
            raise ValueError(f"expected {defn.n_panels} panel designs, got {len(d)}")
    return wing_structure(defn, fid).build(designs, stacked)
