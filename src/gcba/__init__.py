"""Structure analysis of piecewise-Euclidean complexes with curvature <= 0:
geodesics, spaces of directions, strainer maps, dimensional stratification,
canonical measures, fiber-retraction flows and desk-scale convergence checks.
"""

from .config import DEFAULTS, Settings, load_settings
from .complexes import (
    Cell,
    ComplexError,
    ComplexPoint,
    Gluing,
    InputError,
    MetricComplex,
    build_complex,
    dimension_of_star,
    load_complex,
    point,
    star,
    vertex_point,
)

__all__ = [
    "DEFAULTS",
    "Settings",
    "load_settings",
    "Cell",
    "ComplexError",
    "ComplexPoint",
    "Gluing",
    "InputError",
    "MetricComplex",
    "build_complex",
    "dimension_of_star",
    "load_complex",
    "point",
    "star",
    "vertex_point",
]
