"""Weighted Dyck paths, 1234-avoiding up-down permutations, and the
statistics-preserving bijection between them."""

from .paths import (
    DOWN,
    UP,
    DyckPath,
    PathFormatError,
    Slope,
    SlopeDecomposition,
    WeightedDyckPath,
    concat,
    count_weighted,
    counts_upto,
    enumerate_weighted,
    enumerate_weightings,
    factor_irreducible,
    heights,
    is_valid_weighted,
    lower_height,
    parse_path,
    reflect,
    serialize_path,
    slopes,
    validate_weighted,
)
from .perms import (
    AlternatingPermutation,
    CriteriaBreakdown,
    assemble,
    avoids_123_word,
    avoids_1234,
    count_updown_avoiders,
    descent_set,
    enumerate_updown_avoiders,
    is_up_down,
    lis_length,
    membership_criteria,
    perm_text,
    parse_perm_text,
    schutzenberger,
    schutzenberger_word,
    shifted_concat,
    standardize,
)
from .bijection import (
    InsertionStep,
    InternalConsistencyError,
    NotInImageError,
    ParkingFunction,
    bottom_traces,
    flatten_to_single_slope,
    from_permutation,
    from_permutation_brute,
    insertion_word,
    jump_bound,
    jumps,
    parking_to_123_avoiding,
    split_up_slopes,
    to_permutation,
    to_permutation_irreducible,
)
from .verify import (
    DEFAULT_CAPS,
    REFERENCE_COUNTS,
    SUITES,
    VerificationReport,
    run_all,
    run_suite,
)
from ._references import top_word_direct

__version__ = "0.1.0"
