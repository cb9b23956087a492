"""Zero-sum blocks and zero-sum arithmetic subsequences in {-r,s}-sequences:
exact thresholds, extremal constructions, scanners, good shifts, and an
exhaustive oracle.

Exports resolve on first access (PEP 562): ``import zerosum`` loads no
submodule, and ``from zerosum import X`` loads only the module that
defines X."""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, listed once under the submodule that defines it.
_EXPORTS = {
    "core": (
        "BudgetExceededError", "ParameterError", "Params", "ShiftSearchError", "SignSeq",
        "WeightRange", "weight_range",
    ),
    "formulas": (
        "BoundReport", "SufficientBound", "ap_lower_bound_value", "block_threshold",
        "exact_block_threshold", "exact_block_threshold_symmetric", "pm1_block_threshold",
        "pm1_smallsum_threshold", "sufficient_block_bound",
    ),
    "constructions": (
        "ClaimedProperty", "Construction", "ResidueFunction", "build_ap_good_shift",
        "build_ap_mod_k", "build_ap_mod_k_plus1", "build_ap_mod_k_product", "build_ap_two_p",
        "build_block_extremal", "build_block_extremal_negated",
    ),
    "scanners": (
        "InterpolationReport", "ScanReport", "ap_scan", "ap_scan_naive", "block_scan",
        "interpolation_check", "smallsum_block_scan",
    ),
    "good_shift": (
        "GoodShift", "is_good_shift", "is_prime", "min_good_shift", "prime_factors",
        "prime_shift",
    ),
    "oracle": (
        "Pow2Verdict", "ResidueLemmaVerdict", "ThresholdResult", "TwoKVerdict",
        "estimate_window_evaluations", "exact_threshold", "verify_2k_proposition",
        "verify_lemma_residue_properties", "verify_pow2_rigidity",
    ),
    "seqfile": (
        "SequenceFileError", "format_sequence", "parse_sequence", "read_sequence",
        "write_sequence",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
