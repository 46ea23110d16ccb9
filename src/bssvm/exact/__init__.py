"""Exact arithmetic layer: rationals, polynomials over Q, real algebraic
numbers."""

from .rational import parse_rational, format_rational
from .unipoly import UniPoly, poly_ext_gcd, unipoly_from_roots
from .sturm import (
    sturm_chain,
    sign_variations,
    count_roots_open,
    squarefree_part,
    cauchy_bound,
    sturm_isolate,
    refine_interval,
    qir_step,
)
from .interval import RatInterval, eval_unipoly_interval
from .numberfield import (
    NumberField,
    AlgebraicNumber,
    QQ,
    sign_at,
    algebraic_equal,
    exact_value,
    minimal_polynomial,
    degree_over_q,
    nth_root_field,
)
from .multipoly import (
    MultiPoly,
    mp_gcd,
    interval_eval,
    RationalFunction,
    rf_eval,
)

__all__ = [
    "parse_rational",
    "format_rational",
    "UniPoly",
    "poly_ext_gcd",
    "unipoly_from_roots",
    "sturm_chain",
    "sign_variations",
    "count_roots_open",
    "squarefree_part",
    "cauchy_bound",
    "sturm_isolate",
    "refine_interval",
    "qir_step",
    "RatInterval",
    "eval_unipoly_interval",
    "NumberField",
    "AlgebraicNumber",
    "QQ",
    "sign_at",
    "algebraic_equal",
    "exact_value",
    "minimal_polynomial",
    "degree_over_q",
    "nth_root_field",
    "MultiPoly",
    "mp_gcd",
    "interval_eval",
    "RationalFunction",
    "rf_eval",
]
