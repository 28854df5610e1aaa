"""Weighted zero-sum invariants of cyclic groups Z_n.

Computes the weighted Davenport constant and its length-n companion for cube
(and other) weight sets, extracts explicit certificates, builds and verifies
zero-sum-free witnesses, and classifies extremal sequences up to the orbit
equivalence.  Everything desk scale is exact and double-checked by brute
force oracles in the test suite.
"""

__version__ = "0.1.0"

from .errors import ContractError, HypothesisError, TheoremViolation
from .modarith import (
    DEFAULT_BOUND,
    ModulusProfile,
    crt_combine,
    factor,
    is_kth_power_residue,
    units,
)
from .weightsets import (
    WeightSet,
    by_kind,
    coset_minima,
    cubes,
    custom,
    pm_one,
    reduced_alphabet,
    singleton_one,
    squares,
    units_weights,
)
from .zerosum import (
    Certificate,
    Sequence,
    crt_zero_check,
    extract_length_m,
    full_zero_sum_exists,
    full_zero_sum_weights,
    has_fixed_length_zero_subseq,
    has_weighted_zero_subseq,
    is_zero_sum_free,
    reachable_sums,
)
from .invariants import (
    Budget,
    InvariantResult,
    PriorBound,
    SearchStats,
    davenport_formula,
    davenport_search,
    e_formula,
    gao_E,
    lower_bound_witness,
    prior_upper_bound,
    theorem_hypothesis_failure,
)
from .extremal import (
    CanonicalSequence,
    ExtremalClasses,
    StructureReport,
    canonicalize,
    classify_structure,
    construct_extremal,
    coprimality_violating_sequence,
    enumerate_extremal,
    reconstruct,
)
