"""GF(2) workbench for a small quantum LDPC code family and its GHZ protocols."""

from .f2linalg import BitMatrix
from .css_code import CssCode, validate, distance
from .code_factory import (
    ClassicalCode,
    parity_code,
    repetition_code,
    concatenate,
    weight_reduce,
    parent_code_5_2_3,
    hypergraph_product,
    quantum_tanner_transform,
    build_25_4_3,
    build_34_4_3,
    build_generalized,
)

__all__ = [
    "BitMatrix",
    "CssCode",
    "ClassicalCode",
    "validate",
    "distance",
    "parity_code",
    "repetition_code",
    "concatenate",
    "weight_reduce",
    "parent_code_5_2_3",
    "hypergraph_product",
    "quantum_tanner_transform",
    "build_25_4_3",
    "build_34_4_3",
    "build_generalized",
]
