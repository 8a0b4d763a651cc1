"""Distributional security checks for first-order arithmetic masking over Z/qZ.

The library answers one family of questions exactly: given a circuit wire's
value as a function of two additive shares of a secret, is its distribution
independent of the secret when the mask is uniform?  It provides the
value-independence predicate, per-secret marginal histograms, a three-way
verdict, exact mutual information, exhaustive verdict censuses at small
moduli, RNG reduction-bias profiles, the bridge to fixed-width unsigned
hardware words, and an exploratory masked-butterfly composition sweep.
"""

import importlib
import operator

__version__ = "0.1.0"


def _integer(value, name: str) -> int:
    """`value` as an int, which callers keep in its place (a numpy scalar
    wraps); a bool, or what `operator.index` refuses, raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")

# The public names of each submodule.  A submodule is imported the first
# time one of its names is read from the package (PEP 562), so a process
# loads only the modules it uses.
_EXPORTS = {
    "zq": """Modulus ZqElement BitWord arith_reparam arith_reparam_round_trip
        arith_reparam_is_bijection bool_reparam bool_reparam_round_trip
        DEFAULT_ENUMERATION_CAP""",
    "wires": """DEFAULT_CELL_CAP WireFunction Verdict MutualInformation
        TheoryViolation WireFormatError make_wire wire_from_fn reparam_table
        is_value_independent marginal_histogram marginal_table
        has_constant_marginal classify classify_cells_bulk mutual_information
        t6_witness translation_bijection_check wire_to_dict wire_from_dict
        load_wire save_wire""",
    "census": """CensusReport SpotCheck MAX_CENSUS_Q run_census classify_packed
        packed_verdict constant_marginal_count_formula spot_check
        index_to_wire wire_to_index""",
    "rngbias": "BiasProfile bias_profile brute_force_counts verify_bounds",
    "bitvec": """WidthConfig WordOverflowError no_overflow_bounds urem_reparam
        urem_recombine urem_round_trip""",
    "butterfly": """MaskedValue ButterflyStage SweepReport TapFinding mask_value
        butterfly_plain butterfly_masked extract_wire_function tap_inventory
        is_adversarial_tap trace_taints conjecture_sweep""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodule itself, as `maskcheck.wires`
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
