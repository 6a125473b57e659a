"""aerotail: multi-fidelity aeroelastic tailoring of composite wingboxes.

Layered toolkit: classical lamination theory with lamination parameters
(`laminate`), thin-walled anisotropic cross sections (`section`), exact
Timoshenko beam finite elements (`beam`), a steady vortex lattice (`aero`),
coupled static and dynamic aeroelastic solutions (`aeroelastic`), the design
constraint vector with gradients (`constraints`), two-fidelity model
construction (`fidelity`), trust-region model management (`mfopt`), and the
comparison/reporting harness (`compare`, `report`, `config`, `cli`).
"""

__version__ = "0.1.0"

from .compare import compare_aeroelastic, compare_modal, compare_static, mac
from .config import RunConfig, load_config
from .constraints import LoadCase, WingAnalysis
from .fidelity import FidelityConfig, WingDefinition
from .laminate import (
    LaminationParameters,
    MaterialProperties,
    PanelDesign,
    abd_from_lp,
    feasibility_residuals,
    lp_from_stack,
    tsai_wu_factor,
)
from .mfopt import trmm_optimize

__all__ = [
    "__version__",
    "LaminationParameters",
    "MaterialProperties",
    "PanelDesign",
    "abd_from_lp",
    "feasibility_residuals",
    "lp_from_stack",
    "tsai_wu_factor",
    "LoadCase",
    "WingAnalysis",
    "FidelityConfig",
    "WingDefinition",
    "trmm_optimize",
    "RunConfig",
    "load_config",
    "mac",
    "compare_static",
    "compare_modal",
    "compare_aeroelastic",
]
