"""seatlot: exact apportionment with a fair seat lottery.

The package implements a randomized apportionment scheme that always
satisfies quota and gives every state expected seats exactly equal to its
quota, an adaptation for per-state minimum seats, the six classical
deterministic methods, and the verification tooling (exact distribution
oracle, Monte Carlo lab, paradox detectors) used to check all of it.

The public names are resolved on first use (PEP 562), so ``import seatlot``
and ``python -m seatlot.cli`` load only the modules a caller reads.
"""

import importlib

# The submodule that defines each public name; ``kernel_backend`` is
# ``_backend.ACTIVE``.
_EXPORTS = {
    "_backend": ("kernel_backend",),
    "core": ("Allocation", "Problem", "QuotaVector", "compute_quota",
             "broadcast_lower_bound", "feasible_with_lower_bound", "problem",
             "quota_vector", "satisfies_quota"),
    "divisor": ("DETERMINISTIC_METHODS", "RULES", "DivisorRule",
                "ParadoxReport", "detect_alabama", "detect_new_state_paradox",
                "detect_population_paradox", "divisor_apportion",
                "hamilton_apportion", "lambda_allocation",
                "quota_staying_check", "resolve_method"),
    "errors": ("ApportionmentError", "CapacityError", "ConvergenceError",
               "InfeasibleError", "InputError"),
    "lowerbound": ("AdjustedQuota", "IterationTrace", "ScaledQuota",
                   "StateClassification", "ViolationBound",
                   "adjusted_quota_from_values", "classify",
                   "equal_representation_quota", "iterate_lower_bound",
                   "lower_bound_apportion", "lower_bound_distribution",
                   "resample_conditional_law", "resample_until_quota",
                   "scaled_fractional_quota", "violation_probability_bound"),
    "montecarlo": ("MonotonicityReport", "ProblemPair", "SimulationReport",
                   "empirical_distribution", "fairness_test",
                   "house_increase_pair", "monotonicity_scan",
                   "population_move_pair", "random_problem", "simulate",
                   "stochastic_dominance"),
    "rng": ("SeededSource", "child_seed"),
    "stochastic": ("AllocationDistribution", "conditional_sampling_allocate",
                   "conditional_selection_law", "exact_distribution",
                   "random_permutation", "residual_distribution",
                   "stochastic_apportion", "systematic_round"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = tuple(module for module in _EXPORTS
                    if not module.startswith("_"))

__version__ = "0.1.0"

__all__ = sorted([*_SUBMODULES, *_ORIGIN])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
    value = getattr(module, "ACTIVE" if name == "kernel_backend" else name)
    globals()[name] = value
    return value
