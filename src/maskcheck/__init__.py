"""Distributional security checks for first-order arithmetic masking over Z/qZ.

The library answers one family of questions exactly: given a circuit wire's
value as a function of two additive shares of a secret, is its distribution
independent of the secret when the mask is uniform?  It provides the
value-independence predicate, per-secret marginal histograms, a three-way
verdict, exact mutual information, exhaustive verdict censuses at small
moduli, RNG reduction-bias profiles, the bridge to fixed-width unsigned
hardware words, and an exploratory masked-butterfly composition sweep.
"""

__version__ = "0.1.0"

from .zq import (
    DEFAULT_ENUMERATION_CAP,
    BitWord,
    Modulus,
    ZqElement,
    arith_reparam,
    arith_reparam_is_bijection,
    arith_reparam_round_trip,
    bool_reparam,
    bool_reparam_round_trip,
)
from .wires import (
    DEFAULT_CELL_CAP,
    MutualInformation,
    TheoryViolation,
    Verdict,
    WireFormatError,
    WireFunction,
    classify,
    classify_cells_bulk,
    has_constant_marginal,
    is_value_independent,
    load_wire,
    make_wire,
    marginal_histogram,
    marginal_table,
    mutual_information,
    reparam_table,
    save_wire,
    t6_witness,
    translation_bijection_check,
    wire_from_dict,
    wire_from_fn,
    wire_to_dict,
)
from .census import (
    MAX_CENSUS_Q,
    CensusReport,
    SpotCheck,
    classify_packed,
    constant_marginal_count_formula,
    index_to_wire,
    packed_verdict,
    run_census,
    spot_check,
    wire_to_index,
)
from .rngbias import BiasProfile, bias_profile, brute_force_counts, verify_bounds
from .bitvec import (
    WidthConfig,
    WordOverflowError,
    no_overflow_bounds,
    urem_recombine,
    urem_reparam,
    urem_round_trip,
)
from .butterfly import (
    ButterflyStage,
    MaskedValue,
    SweepReport,
    TapFinding,
    butterfly_masked,
    butterfly_plain,
    conjecture_sweep,
    extract_wire_function,
    is_adversarial_tap,
    mask_value,
    tap_inventory,
    trace_taints,
)

__all__ = [
    "__version__",
    "Modulus", "ZqElement", "BitWord",
    "arith_reparam", "arith_reparam_round_trip", "arith_reparam_is_bijection",
    "bool_reparam", "bool_reparam_round_trip",
    "DEFAULT_ENUMERATION_CAP", "DEFAULT_CELL_CAP",
    "WireFunction", "Verdict", "MutualInformation",
    "TheoryViolation", "WireFormatError",
    "make_wire", "wire_from_fn", "reparam_table",
    "is_value_independent", "marginal_histogram", "marginal_table",
    "has_constant_marginal", "classify", "classify_cells_bulk",
    "mutual_information", "t6_witness", "translation_bijection_check",
    "wire_to_dict", "wire_from_dict", "load_wire", "save_wire",
    "CensusReport", "SpotCheck", "MAX_CENSUS_Q",
    "run_census", "classify_packed", "packed_verdict",
    "constant_marginal_count_formula", "spot_check",
    "index_to_wire", "wire_to_index",
    "BiasProfile", "bias_profile", "brute_force_counts", "verify_bounds",
    "WidthConfig", "WordOverflowError",
    "no_overflow_bounds",
    "urem_reparam", "urem_recombine", "urem_round_trip",
    "MaskedValue", "ButterflyStage", "SweepReport", "TapFinding",
    "mask_value", "butterfly_plain", "butterfly_masked",
    "extract_wire_function", "tap_inventory", "is_adversarial_tap",
    "trace_taints", "conjecture_sweep",
]
