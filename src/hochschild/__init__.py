"""Exact Hochschild (co)homology of hypersurface algebras C[z]/<f>."""

from .engine import Analysis, PreconditionError, Report, analyze
from .grading import NotWeightedHomogeneousError, WeightSystem, detect_weights
from .ideals import (
    INFINITE,
    GroebnerBasis,
    buchberger,
    colon_ideal,
    divide,
    ideal_intersection,
    milnor_number,
    quotient_dimension,
    standard_monomials,
)
from .parsing import ParseError, parse_polynomial
from .poly import Polynomial

__all__ = [
    "Analysis", "PreconditionError", "Report", "analyze",
    "NotWeightedHomogeneousError", "WeightSystem", "detect_weights",
    "INFINITE", "GroebnerBasis", "buchberger", "colon_ideal", "divide",
    "ideal_intersection", "milnor_number", "quotient_dimension",
    "standard_monomials", "ParseError", "parse_polynomial",
    "Polynomial",
]
