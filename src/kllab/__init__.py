"""Desk-scale laboratory for KL-regularized reward maximization.

Exact optimal target distributions for reverse/forward/generalized KL
regularization, closed-form mode-structure analysis, mode-anchored
reward augmentation, and policy-gradient training that converges to the
analytic targets.
"""

from .dist import (
    Categorical,
    RewardVector,
    Scenario,
    entropy,
    from_probs,
    kl,
    normalize,
    tv_distance,
)
from .mara import (
    AugmentedBatch,
    BatchPercentile,
    Constant,
    MaraConfig,
    augment_ref_view,
    augment_rewards,
    mara_target,
    select_anchor,
)
from .targets import (
    Solution,
    TargetSpec,
    analytic_target,
    flip_beta,
    forward_kl_target,
    generalized_target,
    log_prob_ratio,
    reverse_kl_target,
)
from .trainer import (
    Exact,
    MonteCarlo,
    SoftmaxPolicy,
    Trace,
    TrainConfig,
    TrainResult,
    adam_step,
    batch_key,
    exact_gradient,
    exact_objective,
    mc_gradient,
    mc_gradient_forward,
    mc_gradient_reverse,
    train,
    train_cells,
)

__all__ = [
    "Categorical", "RewardVector", "Scenario", "entropy", "from_probs", "kl",
    "normalize", "tv_distance",
    "AugmentedBatch", "BatchPercentile", "Constant", "MaraConfig",
    "augment_ref_view", "augment_rewards", "mara_target", "select_anchor",
    "Solution", "TargetSpec", "analytic_target", "flip_beta",
    "forward_kl_target", "generalized_target", "log_prob_ratio",
    "reverse_kl_target",
    "Exact", "MonteCarlo", "SoftmaxPolicy", "Trace", "TrainConfig",
    "TrainResult", "adam_step", "batch_key", "exact_gradient", "exact_objective",
    "mc_gradient", "mc_gradient_forward", "mc_gradient_reverse",
    "train", "train_cells",
]

__version__ = "0.1.0"
