"""Closed characteristics on compact convex energy surfaces.

Monodromy and linear stability of the closed orbits, a crossing-form index
for symplectic paths on the unit circle, splitting numbers, a dual-action
Galerkin cross-check, and machine verification of the multiplicity and
ellipticity lower bounds on pinched surfaces.
"""

from .errors import (
    SymstabError, DimensionError, ParseError, SymplecticityError,
    UnsupportedNormalForm, NumericalConsistencyError, TangencyError,
    IndexUnstableError, GalerkinError, ResonantFormError, GaugeError,
    FlowError, OrbitSearchError, MergedCutError,
)
from .sympl import (
    standard_J, expJ, rotation2, sympl_dim, symplectic_residual,
    is_symplectic, check_symplectic, plane_embedding, diamond, diamond_all,
    resymplectify, random_symplectic,
    D_block, N1_block, R_block, N2_block,
)
from .spectral import (
    SplittingPair, ClusterInfo, SpectralSummary, spectral_summary,
    krein_gram, splitting_table,
)
from .paths import (
    SymplecticPath, exp_path, rotation_path, shear_path, lower_shear_path,
    product_path, concat_path, iterate_path, conjugate_path,
    diamond_paths, normal_form_path, path_from_samples, twisted_path,
)
from .index import (
    IndexOptions, IndexResult, index_nu, iterate_indices, mean_index,
    splitting_numbers_numeric,
)
from .galerkin import (
    DualForm, mode_frequencies, assemble_dual_form, morse_index_nullity,
    stabilized_index, constant_form_index, constant_form_bounds,
)
from .dynamics import (
    SurfaceSpec, ClosedCharacteristic, FlowResult, find_orbits,
    integrate_flow, monodromy_path, plane_circle_radius,
    minimal_period, action_quadrature, enclosing_radii, convexity_margin,
)
from .classify import (
    FloquetClass, CheckResult, OrbitReport, StabilityReport,
    floquet_classify, iteration_case, verify_surface, action_index_bounds,
    nonhyperbolic_bound, counting_identity, hyperbolic_position_range,
    hyperbolic_index_iterates, floor_ceil_phi, PINCH_RATIO,
)
from .io import (
    parse_angle, parse_matrix_text, dump_matrix_text, load_matrix,
    save_matrix, parse_path_samples, load_path_samples, load_surface_file,
    canonical_json, write_json, write_csv, orbit_rows,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "SymstabError", "DimensionError", "ParseError", "SymplecticityError",
    "UnsupportedNormalForm", "NumericalConsistencyError", "TangencyError",
    "IndexUnstableError", "GalerkinError", "ResonantFormError",
    "GaugeError", "FlowError", "OrbitSearchError", "MergedCutError",
    # sympl
    "standard_J", "expJ", "rotation2", "sympl_dim", "symplectic_residual",
    "is_symplectic", "check_symplectic", "plane_embedding", "diamond",
    "diamond_all", "resymplectify", "random_symplectic",
    "D_block", "N1_block", "R_block", "N2_block",
    # spectral
    "SplittingPair", "ClusterInfo", "SpectralSummary", "spectral_summary",
    "krein_gram", "splitting_table",
    # paths
    "SymplecticPath", "exp_path", "rotation_path", "shear_path",
    "lower_shear_path", "product_path", "concat_path",
    "iterate_path", "conjugate_path", "diamond_paths", "normal_form_path",
    "path_from_samples", "twisted_path",
    # index
    "IndexOptions", "IndexResult", "index_nu", "iterate_indices",
    "mean_index", "splitting_numbers_numeric",
    # galerkin
    "DualForm", "mode_frequencies", "assemble_dual_form",
    "morse_index_nullity", "stabilized_index", "constant_form_index",
    "constant_form_bounds",
    # dynamics
    "SurfaceSpec", "ClosedCharacteristic", "FlowResult", "find_orbits",
    "integrate_flow", "monodromy_path", "plane_circle_radius",
    "minimal_period", "action_quadrature", "enclosing_radii",
    "convexity_margin",
    # classify
    "FloquetClass", "CheckResult", "OrbitReport", "StabilityReport",
    "floquet_classify", "iteration_case", "verify_surface",
    "action_index_bounds", "nonhyperbolic_bound", "counting_identity",
    "hyperbolic_position_range", "hyperbolic_index_iterates",
    "floor_ceil_phi", "PINCH_RATIO",
    # io
    "parse_angle", "parse_matrix_text", "dump_matrix_text", "load_matrix",
    "save_matrix", "parse_path_samples", "load_path_samples",
    "load_surface_file", "canonical_json", "write_json", "write_csv",
    "orbit_rows",
    "__version__",
]
