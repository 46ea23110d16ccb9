"""Constructive witnesses: dependence search, root-placement
counterexamples, and middle-thirds decompositions."""

from .cantor import (
    DEFAULT_DIGIT_BUDGET,
    CantorPair,
    cantor_decompose,
    even_zeros_truth,
    ternary_expansion,
    ternary_string,
)
from .counterexample import (
    CONFIRMED,
    INAPPLICABLE,
    CounterexampleReport,
    build_counterexample,
)
from .depend import (
    choose_prime_m,
    max_var_degree,
    place_root,
)

__all__ = [
    "DEFAULT_DIGIT_BUDGET",
    "CantorPair",
    "cantor_decompose",
    "even_zeros_truth",
    "ternary_expansion",
    "ternary_string",
    "CONFIRMED",
    "INAPPLICABLE",
    "CounterexampleReport",
    "build_counterexample",
    "choose_prime_m",
    "max_var_degree",
    "place_root",
]
