"""Mode-anchored reward augmentation.

Batch-level reward transformation that replaces above-threshold rewards
with the anchor's reward plus a reference-probability correction, so the
induced reverse-KL optimum puts equal mass on every above-threshold
index. Two equivalent batch views exist: augment the rewards, or keep
the anchor's reward and swap in the anchor's reference probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dist import Categorical, RewardVector, Scenario, normalize
from .errors import InvalidAnchor, InvalidCoefficient


@dataclass(frozen=True)
class Constant:
    tau: float


@dataclass(frozen=True)
class BatchPercentile:
    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("percentile must lie in (0, 1)")


ThresholdRule = Union[Constant, BatchPercentile]

LOWEST_INDEX = "lowest_index"
HIGHEST_REWARD = "highest_reward"


@dataclass(frozen=True)
class MaraConfig:
    threshold_rule: ThresholdRule
    beta: float
    anchor_tiebreak: str = LOWEST_INDEX

    def __post_init__(self):
        if not self.beta > 0:
            raise InvalidCoefficient("beta must be > 0")
        if self.anchor_tiebreak not in (LOWEST_INDEX, HIGHEST_REWARD):
            raise ValueError(f"unknown tiebreak {self.anchor_tiebreak!r}")


@dataclass(frozen=True)
class AugmentedBatch:
    """A batch after augmentation; ``anchor_index`` is None when no sample
    met the threshold (the batch then passes through unchanged)."""

    indices: np.ndarray
    raw_rewards: np.ndarray
    augmented_rewards: np.ndarray
    anchor_index: Optional[int]
    threshold_used: float
    augmented_ref_logprobs: np.ndarray


def resolve_threshold(rule: ThresholdRule, raw_rewards: np.ndarray) -> float:
    """Constant value, or the linear-interpolated batch quantile."""
    if isinstance(rule, Constant):
        return float(rule.tau)
    return float(np.quantile(np.asarray(raw_rewards, dtype=float), rule.q))


def select_anchor(
    batch_indices: Sequence[int], s: Scenario, threshold: float,
    tiebreak: str = LOWEST_INDEX,
) -> Optional[int]:
    """Pick the batch member with maximal reference probability among
    those at or above the threshold; None when no member qualifies.

    Ties on reference probability go to the earlier batch position
    (lowest_index) or to the higher reward, then earlier position.
    """
    idx = np.asarray(batch_indices, dtype=int)
    r = s.rewards.values
    best = idx[(r[idx] >= threshold) & s.reference.support_mask[idx]]
    if best.size == 0:
        return None
    lref = s.reference.log_weights[best]
    best = best[lref == lref.max()]
    if tiebreak == HIGHEST_REWARD:
        best = best[r[best] == r[best].max()]
    return int(best[0])


def _augment(
    batch_indices, s: Scenario, cfg: MaraConfig, ref_view: bool
) -> AugmentedBatch:
    idx = np.asarray(batch_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    raw = s.rewards.values[idx]
    tau = resolve_threshold(cfg.threshold_rule, raw)
    anchor = select_anchor(idx, s, tau, cfg.anchor_tiebreak)
    lref = s.reference.log_weights[idx]
    if anchor is None:
        return AugmentedBatch(idx, raw, raw.copy(), None, tau, lref.copy())
    lref_z = s.reference.log_weights[anchor]
    r_z = s.rewards.values[anchor]
    # as in anchored_scenario: indices off the reference support keep
    # their raw reward
    qualifies = (raw >= tau) & s.reference.support_mask[idx]
    if ref_view:
        aug_r = np.where(qualifies, r_z, raw)
        aug_lref = np.where(qualifies, lref_z, lref)
    else:
        aug_r = np.where(qualifies, r_z + cfg.beta * (lref_z - lref), raw)
        aug_lref = lref.copy()
    return AugmentedBatch(idx, raw, aug_r, anchor, tau, aug_lref)


def augment_rewards(batch_indices, s: Scenario, cfg: MaraConfig) -> AugmentedBatch:
    """Reward-augmentation view: above-threshold samples get the anchor
    reward plus a beta-scaled reference log-probability correction."""
    return _augment(batch_indices, s, cfg, ref_view=False)


def augment_ref_view(batch_indices, s: Scenario, cfg: MaraConfig) -> AugmentedBatch:
    """Reference-probability view: above-threshold samples keep the
    anchor's raw reward and adopt the anchor's reference log-prob."""
    return _augment(batch_indices, s, cfg, ref_view=True)


def global_anchor(s: Scenario, tau: float, tiebreak: str = LOWEST_INDEX) -> Optional[int]:
    """Anchor over the whole support rather than a sampled batch."""
    return select_anchor(np.arange(s.n), s, tau, tiebreak)


def _anchored_mask(s: Scenario, tau: float, anchor: int) -> np.ndarray:
    """Mask of the indices that share the anchor's treatment (reward at or
    above ``tau``, on the reference support), after checking that the
    anchor is one of them."""
    if s.rewards.values[anchor] < tau:
        raise InvalidAnchor("anchor reward below threshold")
    if not s.reference.support_mask[anchor]:
        raise InvalidAnchor("anchor has no reference mass")
    return (s.rewards.values >= tau) & s.reference.support_mask


def augmented_reward_vector(
    s: Scenario, beta: float, tau: float, anchor: int
) -> RewardVector:
    """Full-support augmented rewards with a fixed anchor.

    Masked indices keep their raw reward; they carry no reference mass,
    so the correction term is undefined (and irrelevant) there.
    """
    qualifies = _anchored_mask(s, tau, anchor)
    lref = s.reference.log_weights
    r = s.rewards.values
    values = np.where(qualifies, r[anchor] + beta * (lref[anchor] - lref), r)
    return RewardVector(values)


def anchored_scenario(s: Scenario, tau: float, anchor: int) -> Scenario:
    """Scenario with anchored reference and rewards (full-support view).

    Above-threshold indices adopt the anchor's reference mass and reward;
    the reference is renormalized. This is the whole-support analogue of
    the reference-probability batch view.
    """
    qualifies = _anchored_mask(s, tau, anchor)
    lref = s.reference.log_weights
    r = s.rewards.values
    new_lref = np.where(qualifies, lref[anchor], lref)
    new_r = np.where(qualifies, r[anchor], r)
    return Scenario(
        reference=normalize(new_lref),
        rewards=RewardVector(new_r),
        name=f"{s.name}__anchored",
    )


def mara_target(s: Scenario, beta: float, tau: float, anchor: int) -> Categorical:
    """Reverse-KL optimum induced by the augmented reward.

    Every above-threshold index shares the anchor's unnormalized
    log-mass, so they all end up with identical target probability.
    """
    if not beta > 0:
        raise InvalidCoefficient("beta must be > 0")
    qualifies = _anchored_mask(s, tau, anchor)
    lref = s.reference.log_weights
    r = s.rewards.values
    anchored_mass = lref[anchor] + r[anchor] / beta
    # masked indices keep their -inf reference log-mass
    return normalize(np.where(qualifies, anchored_mass, lref + r / beta))
