"""Mode-anchored reward augmentation.

Batch-level reward transformation that replaces above-threshold rewards
with the anchor's reward plus a reference-probability correction, so the
induced reverse-KL optimum puts equal mass on every above-threshold
index. Two equivalent views exist: augment the rewards, or keep the
anchor's reward and swap in the anchor's reference probability. A batch
and the whole support (index ``slice(None)``) reach each view the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .dist import Categorical, RewardVector, Scenario, normalize
from .errors import InvalidAnchor
from .targets import check_coefficients


@dataclass(frozen=True)
class Constant:
    tau: float

    def __post_init__(self):
        # no reward is >= NaN: a NaN threshold would switch augmentation off
        if not -math.inf < self.tau < math.inf:
            raise ValueError(f"threshold must be finite, not {self.tau!r}")


@dataclass(frozen=True)
class BatchPercentile:
    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("percentile must lie in (0, 1)")


ThresholdRule = Union[Constant, BatchPercentile]


@dataclass(frozen=True)
class MaraConfig:
    threshold_rule: ThresholdRule
    beta: float

    def __post_init__(self):
        # augmentation tilts a reverse or forward objective: beta alone
        check_coefficients("reverse", self.beta)


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


def _treated(s: Scenario, tau: float, idx) -> np.ndarray:
    """Which of ``idx`` take the anchor's treatment: reward at or above
    ``tau`` and on the reference support."""
    return (s.rewards.values[idx] >= tau) & s.reference.support_mask[idx]


def resolve_threshold(rule: ThresholdRule, raw_rewards: np.ndarray) -> float:
    """Constant value, or the linear-interpolated batch quantile."""
    if isinstance(rule, Constant):
        return float(rule.tau)
    return float(np.quantile(np.asarray(raw_rewards, dtype=float), rule.q))


def select_anchor(
    batch_indices: Sequence[int], s: Scenario, threshold: float
) -> Optional[int]:
    """Pick the batch member with maximal reference probability among
    those at or above the threshold; None when no member qualifies.

    Ties on reference probability go to the earliest batch position.
    """
    idx = np.asarray(batch_indices, dtype=int)
    best = idx[_treated(s, threshold, idx)]
    if best.size == 0:
        return None
    return int(best[np.argmax(s.reference.log_weights[best])])


def resolve_anchor(idx, s: Scenario, cfg: MaraConfig) -> Tuple[float, Optional[int]]:
    """Threshold over the rewards at the batch ``idx`` and the anchor among
    ``idx``. A whole-support run takes the threshold over the reference
    support and the anchor from :func:`global_anchor`, which agrees."""
    tau = resolve_threshold(cfg.threshold_rule, s.rewards.values[idx])
    return tau, select_anchor(idx, s, tau)


def global_anchor(s: Scenario, tau: float) -> Optional[int]:
    """Anchor over the whole support rather than a sampled batch: the
    :func:`select_anchor` of every index, read without gathering them.

    The earliest treated index with the treated set's largest reference
    log-mass, so ties go to the earliest index as there."""
    treated = _treated(s, tau, slice(None))
    if not treated.any():
        return None
    lref = s.reference.log_weights
    treated &= lref == np.max(lref, where=treated, initial=-np.inf)
    return int(np.argmax(treated))


def reward_view(s: Scenario, beta: float, tau: float, anchor: int, idx) -> np.ndarray:
    """Rewards at ``idx``, where treated the anchor's plus beta times the
    log reference ratio to the anchor."""
    r, lref = s.rewards.values, s.reference.log_weights
    bonus = r[anchor] + beta * (lref[anchor] - lref[idx])
    return np.where(_treated(s, tau, idx), bonus, r[idx])


def _augment(
    batch_indices, s: Scenario, cfg: MaraConfig, ref_view: bool
) -> AugmentedBatch:
    idx = np.asarray(batch_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    raw = s.rewards.values[idx]
    lref = s.reference.log_weights[idx]
    tau, anchor = resolve_anchor(idx, s, cfg)
    if anchor is None:
        return AugmentedBatch(idx, raw, raw.copy(), None, tau, lref)
    if ref_view:
        treated = _treated(s, tau, idx)
        aug_r = np.where(treated, s.rewards.values[anchor], raw)
        aug_lref = np.where(treated, s.reference.log_weights[anchor], lref)
    else:
        aug_r, aug_lref = reward_view(s, cfg.beta, tau, anchor, idx), lref
    return AugmentedBatch(idx, raw, aug_r, anchor, tau, aug_lref)


def augment_rewards(batch_indices, s: Scenario, cfg: MaraConfig) -> AugmentedBatch:
    """Reward-augmentation view: above-threshold samples get the anchor
    reward plus a beta-scaled reference log-probability correction."""
    return _augment(batch_indices, s, cfg, ref_view=False)


def augment_ref_view(batch_indices, s: Scenario, cfg: MaraConfig) -> AugmentedBatch:
    """Reference-probability view: above-threshold samples keep the
    anchor's raw reward and adopt the anchor's reference log-prob."""
    return _augment(batch_indices, s, cfg, ref_view=True)


def _check_anchor(s: Scenario, tau: float, anchor: int) -> None:
    """Raise unless ``anchor`` takes the treatment it hands out."""
    if s.rewards.values[anchor] < tau:
        raise InvalidAnchor("anchor reward below threshold")
    if not s.reference.support_mask[anchor]:
        raise InvalidAnchor("anchor has no reference mass")


def augmented_reward_vector(
    s: Scenario, beta: float, tau: float, anchor: int
) -> RewardVector:
    """Full-support augmented rewards with a fixed anchor.

    Masked indices keep their raw reward; they carry no reference mass,
    so the correction term is undefined (and irrelevant) there.
    """
    _check_anchor(s, tau, anchor)
    return RewardVector(reward_view(s, beta, tau, anchor, slice(None)))


def anchored_reference(s: Scenario, tau: float, anchor: int) -> Categorical:
    """The reference with every treated index at the anchor's log-mass,
    renormalized: the whole-support reference of the reference-probability
    batch view."""
    _check_anchor(s, tau, anchor)
    lref = s.reference.log_weights
    return normalize(np.where(_treated(s, tau, slice(None)), lref[anchor], lref))


def anchored_scenario(s: Scenario, tau: float, anchor: int) -> Scenario:
    """Scenario with anchored reference and rewards (full-support view).

    Above-threshold indices adopt the anchor's reference mass
    (:func:`anchored_reference`) and reward. This is the whole-support
    analogue of the reference-probability batch view.
    """
    reference = anchored_reference(s, tau, anchor)
    r = s.rewards.values
    rewards = RewardVector(np.where(_treated(s, tau, slice(None)), r[anchor], r))
    return Scenario(reference=reference, rewards=rewards, name=f"{s.name}__anchored")


def mara_target(s: Scenario, beta: float, tau: float, anchor: int) -> Categorical:
    """Reverse-KL optimum induced by the augmented reward.

    Every above-threshold index shares the anchor's unnormalized
    log-mass, so they all end up with identical target probability.
    """
    check_coefficients("reverse", beta)
    _check_anchor(s, tau, anchor)
    r, lref = s.rewards.values, s.reference.log_weights
    # one buffer: the tilt r / beta + lref (masked indices keep their -inf
    # reference log-mass), then the anchor's log-mass where treated
    log_masses = np.divide(r, beta)
    log_masses += lref
    np.copyto(log_masses, lref[anchor] + r[anchor] / beta, where=_treated(s, tau, slice(None)))
    return normalize(log_masses)
