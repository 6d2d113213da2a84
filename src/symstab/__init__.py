"""Closed characteristics on compact convex energy surfaces.

Monodromy and linear stability of the closed orbits, a crossing-form index
for symplectic paths on the unit circle, splitting numbers, a dual-action
Galerkin cross-check, and machine verification of the multiplicity and
ellipticity lower bounds on pinched surfaces.

The package re-exports the entry points of the pipeline and the command
line, the error classes and the types those entry points return; every
other name is imported from its submodule.
"""

from .errors import (
    SymstabError, DimensionError, ParseError, SymplecticityError,
    UnsupportedNormalForm, NumericalConsistencyError, TangencyError,
    IndexUnstableError, GalerkinError, ResonantFormError, GaugeError,
    FlowError, OrbitSearchError, MergedCutError,
)
from .sympl import diamond_all, symplectic_residual
from .spectral import (
    SplittingPair, SpectralSummary, spectral_summary, splitting_table,
)
from .paths import (
    SymplecticPath, exp_path, rotation_path, shear_path, lower_shear_path,
    iterate_path, normal_form_path,
)
from .index import (
    IndexResult, index_nu, iterate_indices, mean_index,
    splitting_numbers_numeric,
)
from .galerkin import stabilized_index
from .dynamics import (
    SurfaceSpec, ClosedCharacteristic, FlowResult, find_orbits,
    integrate_flow, monodromy_path, enclosing_radii,
)
from .classify import StabilityReport, verify_surface
from .io import (
    parse_angle, load_matrix, load_path_samples, load_surface_file,
    canonical_json,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "SymstabError", "DimensionError", "ParseError", "SymplecticityError",
    "UnsupportedNormalForm", "NumericalConsistencyError", "TangencyError",
    "IndexUnstableError", "GalerkinError", "ResonantFormError",
    "GaugeError", "FlowError", "OrbitSearchError", "MergedCutError",
    # sympl
    "diamond_all", "symplectic_residual",
    # spectral
    "SplittingPair", "SpectralSummary", "spectral_summary", "splitting_table",
    # paths
    "SymplecticPath", "exp_path", "rotation_path", "shear_path",
    "lower_shear_path", "iterate_path", "normal_form_path",
    # index
    "IndexResult", "index_nu", "iterate_indices", "mean_index",
    "splitting_numbers_numeric",
    # galerkin
    "stabilized_index",
    # dynamics
    "SurfaceSpec", "ClosedCharacteristic", "FlowResult", "find_orbits",
    "integrate_flow", "monodromy_path", "enclosing_radii",
    # classify
    "StabilityReport", "verify_surface",
    # io
    "parse_angle", "load_matrix", "load_path_samples", "load_surface_file",
    "canonical_json",
    "__version__",
]
