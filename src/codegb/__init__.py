"""Exact Groebner and standard bases for binomial ideals of linear codes over F_p."""

from .buchberger import groebner, minimalize, product_criterion, reduce_basis
from .codes import (
    GeneratorMatrix,
    MatrixFormatError,
    VerificationReport,
    closed_form_basis,
    lex_code_basis,
    mi_vector,
    parse_matrix,
    random_matrix,
    translated_generators,
    verify_closed_form,
)
from .division import DivisionResult, divide
from .gfp import PrimeField, is_prime
from .monomials import Order
from .mora import (
    BasisCheck,
    WeakNormalForm,
    ecart,
    is_standard_basis,
    standard_basis,
    weak_normal_form,
)
from .parsing import ParseError, parse_poly, print_poly
from .poly import Polynomial, Ring, s_polynomial

__all__ = [
    "BasisCheck",
    "DivisionResult",
    "GeneratorMatrix",
    "MatrixFormatError",
    "Order",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "Ring",
    "VerificationReport",
    "WeakNormalForm",
    "closed_form_basis",
    "divide",
    "ecart",
    "groebner",
    "is_prime",
    "is_standard_basis",
    "lex_code_basis",
    "mi_vector",
    "minimalize",
    "parse_matrix",
    "parse_poly",
    "print_poly",
    "product_criterion",
    "random_matrix",
    "reduce_basis",
    "s_polynomial",
    "standard_basis",
    "translated_generators",
    "verify_closed_form",
    "weak_normal_form",
]
