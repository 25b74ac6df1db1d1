"""Choquet integration against capacities and the approximation operators
built from it: perturbed Bernstein-basis, Picard-type and Gauss-Weierstrass
kernel operators, with the error bounds that certify their convergence."""

from .capacity import (DiscreteCapacity, DistortionFunction, PropertyReport,
                       additive_capacity, capacity_from_table, check_properties,
                       counting_distortion, distorted_probability,
                       distortion_by_name, dual, possibility_capacity,
                       random_monotone_capacity, validate_distortion)
from .continuous import (LevelSetFunction, choquet_integral_real,
                         choquet_integral_real_grid,
                         choquet_integral_real_with_error,
                         kernel_level_function, kernel_normalizer,
                         product_level_function)
from .discrete import (PropertySuiteReport, choquet_integral,
                       choquet_integral_layer_cake, choquet_variance,
                       property_suite)
from .errors import CapabilityError, ConfigError, DivergenceError, QuadratureError
from .estimates import (ChebyshevResult, ErrorTable, ModulusResult,
                        chebyshev_check, convergence_report, delta_rule,
                        modulus_of_continuity, modulus_of_continuity_detailed,
                        quantitative_bound)
from .functions import FunctionSpec, REGISTERED, function_spec
from .intervals import IntervalUnion
from .operators import (DEFAULT_PROFILE, PerturbationProfile,
                        bernstein_choquet, bernstein_choquet_capacity,
                        bernstein_choquet_closedform, bernstein_classical,
                        perturbation_gap, picard_choquet, picard_classical,
                        weierstrass_choquet)
from .realline import Kernel, RealCapacity

__version__ = "0.1.0"

__all__ = [
    "CapabilityError", "ChebyshevResult", "ConfigError", "DEFAULT_PROFILE",
    "DiscreteCapacity", "DistortionFunction", "DivergenceError", "ErrorTable",
    "FunctionSpec", "IntervalUnion", "Kernel", "LevelSetFunction",
    "ModulusResult", "PerturbationProfile", "PropertyReport",
    "PropertySuiteReport",
    "QuadratureError", "REGISTERED", "RealCapacity", "additive_capacity",
    "bernstein_choquet", "bernstein_choquet_capacity",
    "bernstein_choquet_closedform", "bernstein_classical", "capacity_from_table",
    "chebyshev_check", "check_properties", "choquet_integral",
    "choquet_integral_layer_cake", "choquet_integral_real",
    "choquet_integral_real_grid", "choquet_integral_real_with_error",
    "choquet_variance", "convergence_report", "counting_distortion",
    "delta_rule", "distorted_probability", "distortion_by_name", "dual",
    "function_spec",
    "kernel_level_function", "kernel_normalizer",
    "modulus_of_continuity", "modulus_of_continuity_detailed",
    "perturbation_gap", "picard_choquet", "picard_classical",
    "possibility_capacity", "product_level_function", "property_suite",
    "quantitative_bound", "random_monotone_capacity",
    "validate_distortion",
    "weierstrass_choquet",
]
