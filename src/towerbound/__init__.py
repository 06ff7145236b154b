"""Class field tower certification and Ihara constant lower bounds.

Certify that explicitly presented function fields over F_2 and F_3 carry
infinite (T,p)-class field towers, via an exact-integer Golod-Shafarevich
criterion, and turn the certificates into exact rational lower bounds on
the Ihara constants A(2) and A(3).  Supporting data (place spectra,
genera, decomposition of places in elementary abelian p-covers) is
recomputed from the explicit curve models and cross-checked by independent
finite-field enumeration wherever possible.
"""

from .errors import (
    ConfigError,
    DegenerateGenus,
    EmptySpace,
    FunctionalEquationViolation,
    InconsistentModel,
    NotPrime,
    OutOfRange,
    ParityViolation,
    PoleAtPlace,
    RamifiedPlace,
    TowerboundError,
    UnsupportedSize,
)
from .ff import ExtField, FieldParams, make_ext_field

__all__ = [
    "FieldParams",
    "ExtField",
    "make_ext_field",
    "TowerboundError",
    "NotPrime",
    "OutOfRange",
    "UnsupportedSize",
    "InconsistentModel",
    "FunctionalEquationViolation",
    "RamifiedPlace",
    "PoleAtPlace",
    "DegenerateGenus",
    "ParityViolation",
    "EmptySpace",
    "ConfigError",
]
