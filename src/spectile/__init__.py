"""Exact spectral-set and tiling analysis on the groups Z_p x Z_{p^n}.

The library provides exact character-sum evaluation and zero-set
computation, constructive algorithms turning tiles into spectra and
spectral sets into tiling complements, brute-force ground-truth searches,
and an exhaustive enumeration harness checking that the two families
coincide on small groups.
"""

from .charsum import (
    CyclotomicInt,
    ZeroProfile,
    ZeroTestComparison,
    char_value_exact,
    character_table,
    compare_zero_tests,
    inversion_check,
    is_zero_equidist,
    zero_set,
)
from .constructions import (
    CaseTrace,
    complement_from_spectrum,
    spectrum_from_tile,
)
from .errors import (
    CapacityError,
    ContradictionError,
    InvalidInputError,
    MissingPartnerError,
    NonSpectralSizeError,
    ParameterError,
    ParseError,
    SpectileError,
)
from .group import (
    Element,
    GroupParams,
    GroupSet,
    canonical_rep,
    class_members,
    difference_set,
    rep_label,
    scale_translate,
    valuation,
)
from .oracle import (
    EnumerationReport,
    Mismatch,
    canonicalize,
    enumerate_and_check,
    find_complement_bruteforce,
    find_spectrum_bruteforce,
    spectral_pair_violation,
    spectral_violation_pair,
    tiling_pair_violation,
    verify_spectral_pair,
    verify_tiling_pair,
)
from .setio import load_set, parse_set, serialize_set
from .structure import (
    SizeClass,
    classify_size,
    divisibility_exponent,
    project_delete_digit,
)

__version__ = "0.1.0"

__all__ = [
    "CaseTrace",
    "CapacityError",
    "ContradictionError",
    "CyclotomicInt",
    "Element",
    "EnumerationReport",
    "GroupParams",
    "GroupSet",
    "InvalidInputError",
    "Mismatch",
    "MissingPartnerError",
    "NonSpectralSizeError",
    "ParameterError",
    "ParseError",
    "SizeClass",
    "SpectileError",
    "ZeroProfile",
    "ZeroTestComparison",
    "canonical_rep",
    "canonicalize",
    "char_value_exact",
    "character_table",
    "class_members",
    "classify_size",
    "compare_zero_tests",
    "complement_from_spectrum",
    "difference_set",
    "divisibility_exponent",
    "enumerate_and_check",
    "find_complement_bruteforce",
    "find_spectrum_bruteforce",
    "inversion_check",
    "is_zero_equidist",
    "load_set",
    "parse_set",
    "project_delete_digit",
    "rep_label",
    "scale_translate",
    "serialize_set",
    "spectral_pair_violation",
    "spectral_violation_pair",
    "spectrum_from_tile",
    "tiling_pair_violation",
    "valuation",
    "verify_spectral_pair",
    "verify_tiling_pair",
    "zero_set",
]
