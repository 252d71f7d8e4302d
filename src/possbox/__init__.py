"""Exact event bounds from probability boxes on finite ordered spaces.

The package computes natural-extension upper/lower probabilities of
arbitrary events from a pair of cumulative bounds on a finite totally
preordered space, decides when those bounds act as a possibility measure,
converts in both directions, combines marginal possibility distributions
into joints, and cross-checks every closed form against exact credal-set
optimization.  All arithmetic is rational and exact.

``import possbox`` loads the models and their closed forms; the names of
``oracle`` and ``multivariate`` load their module on first use, so a
one-shot query never pays for the LP oracle or the joints.
"""

from possbox.chain import Chain
from possbox.maxitive import (
    ZeroOneProfile,
    is_maxitive,
    upper_01_both,
    upper_01_lower,
    upper_01_upper,
    zero_one_profile,
)
from possbox.pbox import PBox
from possbox.possibility import (
    PossibilityDistribution,
    conjunction_bounds,
    conjunction_decompose,
    pbox_to_possibility,
    possibility_to_pbox,
    zero_one_possibility,
)

__version__ = "0.1.0"

#: The names of the oracle and the joints, each loaded with its module on first use (PEP 562).
_LAZY = {
    **dict.fromkeys(["MarginalFamily", "combine_rectangle", "least_conservative_check"], "multivariate"),
    **dict.fromkeys(["joint_frechet", "joint_independent", "joint_rsi_outer"], "multivariate"),
    **dict.fromkeys(["check_coherence", "credal_intersection_equal", "credal_lower"], "oracle"),
    **dict.fromkeys(["credal_upper", "credal_upper_classes", "exhaustive_max_preserving"], "oracle"),
}

__all__ = [
    "Chain",
    "MarginalFamily",
    "PBox",
    "PossibilityDistribution",
    "ZeroOneProfile",
    "check_coherence",
    "combine_rectangle",
    "conjunction_bounds",
    "conjunction_decompose",
    "credal_intersection_equal",
    "credal_lower",
    "credal_upper",
    "credal_upper_classes",
    "exhaustive_max_preserving",
    "is_maxitive",
    "joint_frechet",
    "joint_independent",
    "joint_rsi_outer",
    "least_conservative_check",
    "pbox_to_possibility",
    "possibility_to_pbox",
    "upper_01_both",
    "upper_01_lower",
    "upper_01_upper",
    "zero_one_possibility",
    "zero_one_profile",
    "__version__",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
