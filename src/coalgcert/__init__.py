"""Behavioural equivalence with certificates for set-functor coalgebras."""

from .coalgebra import Coalgebra, parse_coalgebra, pretty_model, quotient
from .certdag import build_certificates, distinguish, serialize
from .functor import is_cancellative, is_zippable, parse_functor, pretty_functor
from .logic import check_certificates, eval_ref, parse_formula
from .oracle import GeneratorSpec, generate, layered_worstcase, naive_bisimilarity
from .refiner import refine
from .translate import translate, verify_dsi

__all__ = [
    "Coalgebra", "GeneratorSpec", "build_certificates", "check_certificates",
    "distinguish", "eval_ref", "generate", "is_cancellative",
    "is_zippable", "layered_worstcase", "naive_bisimilarity",
    "parse_coalgebra", "parse_formula", "parse_functor", "pretty_functor",
    "pretty_model", "quotient", "refine", "serialize", "translate",
    "verify_dsi",
]
