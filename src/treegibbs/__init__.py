"""Gibbs measures for nearest-neighbor lambda-models on Cayley trees.

Library layout:

  topology    finite balls of the tree (shells, parents, vertex words)
  model       coupling tables, log-weights, model files
  fields      boundary-field recursion, propagation, fixed points
  measures    exact finite-volume measures and consistency diagnostics
  classifier  factor-type classification from coupling-difference arithmetic
  cli         command-line front end
"""

from .topology import Ball, build_ball
from .model import (
    LambdaModel,
    generic_model,
    markov_model,
    model_from_dict,
    model_to_dict,
    potential_norm,
    potts_model,
)
from .fields import (
    FixedPointResult,
    ReducedFieldAssignment,
    check_unordered,
    propagate_fields,
    recursion_map,
    ti_fixed_points,
    zero_fields,
)
from .measures import (
    FiniteVolumeMeasure,
    consistency_residual,
    correlation_decay,
    finite_volume_measure,
    marginalize,
    markov_property_residual,
    two_point_correlation,
)
from .classifier import (
    Classification,
    classify,
    commensurability_exact,
    commensurability_float,
    commensurability_multiplicative,
    difference_set,
    finite_volume_spectrum,
    potts_theta,
    spectrum_lattice_check,
)

__all__ = [
    "Ball", "build_ball",
    "LambdaModel", "generic_model", "markov_model", "model_from_dict", "model_to_dict",
    "potential_norm", "potts_model",
    "FixedPointResult", "ReducedFieldAssignment", "check_unordered", "propagate_fields",
    "recursion_map", "ti_fixed_points", "zero_fields",
    "FiniteVolumeMeasure", "consistency_residual", "correlation_decay", "finite_volume_measure",
    "marginalize", "markov_property_residual", "two_point_correlation",
    "Classification", "classify", "commensurability_exact", "commensurability_float",
    "commensurability_multiplicative", "difference_set", "finite_volume_spectrum", "potts_theta",
    "spectrum_lattice_check",
]
