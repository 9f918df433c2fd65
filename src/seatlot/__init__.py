"""seatlot: exact apportionment with a fair seat lottery.

The package implements a randomized apportionment scheme that always
satisfies quota and gives every state expected seats exactly equal to its
quota, an adaptation for per-state minimum seats, the six classical
deterministic methods, and the verification tooling (exact distribution
oracle, Monte Carlo lab, paradox detectors) used to check all of it.
"""

from ._backend import ACTIVE as kernel_backend
from .core import (Allocation, Problem, QuotaVector, compute_quota,
                   broadcast_lower_bound, feasible_with_lower_bound, problem,
                   quota_vector, satisfies_quota)
from .divisor import (DETERMINISTIC_METHODS, RULES, DivisorRule,
                      ParadoxReport, detect_alabama,
                      detect_new_state_paradox, detect_population_paradox,
                      divisor_apportion, hamilton_apportion,
                      lambda_allocation, quota_staying_check, resolve_method)
from .errors import (ApportionmentError, CapacityError, ConvergenceError,
                     InfeasibleError, InputError)
from .lowerbound import (AdjustedQuota, IterationTrace, ScaledQuota,
                         StateClassification, ViolationBound,
                         adjusted_quota_from_values, classify,
                         equal_representation_quota, iterate_lower_bound,
                         lower_bound_apportion, lower_bound_distribution,
                         resample_conditional_law, resample_until_quota,
                         scaled_fractional_quota,
                         violation_probability_bound)
from .montecarlo import (MonotonicityReport, ProblemPair, SimulationReport,
                         empirical_distribution, fairness_test,
                         house_increase_pair, monotonicity_scan,
                         population_move_pair, random_problem, simulate,
                         stochastic_dominance)
from .rng import SeededSource, child_seed
from .stochastic import (AllocationDistribution,
                         conditional_sampling_allocate,
                         conditional_selection_law, exact_distribution,
                         random_permutation, residual_distribution,
                         stochastic_apportion, systematic_round)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
