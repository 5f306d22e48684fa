"""Mode-anchored reward augmentation.

Batch-level reward transformation that replaces above-threshold rewards
with the anchor's reward plus a reference-probability correction, so the
induced reverse-KL optimum puts equal mass on every above-threshold
index. Two equivalent views exist: augment the rewards
(:func:`reward_view`), or keep the anchor's reward
(:func:`anchored_rewards`) and swap in the anchor's reference probability
(:func:`anchored_reference` over the whole support). Each view is one
function of the indices ``idx``: a sampled batch, or the whole support at
``slice(None)``, which is how exact-mode training reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dist import _PLAIN, Categorical, Scenario, _max, normalize
from .errors import InvalidAnchor
from .targets import _tilt_log_masses, check_coefficients


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
    return _best(idx[_treated(s, threshold, idx)], s)


def _best(candidates: np.ndarray, s: Scenario) -> Optional[int]:
    """The earliest of ``candidates`` with the largest reference log-mass, or None."""
    if candidates.size:
        return int(candidates[s.reference.log_weights[candidates].argmax()])
    return None


def global_anchor(s: Scenario, tau: float) -> Optional[int]:
    """Anchor over the whole support rather than a sampled batch: the
    :func:`select_anchor` of every index, so ties go to the earliest index."""
    return _best(_treated(s, tau, slice(None)).nonzero()[0], s)


def reward_view(s: Scenario, beta: float, tau: float, anchor: int, idx) -> np.ndarray:
    """Rewards at ``idx``, where treated the anchor's plus beta times the
    log reference ratio to the anchor."""
    r, lref = s.rewards.values, s.reference.log_weights
    gap = lref[anchor] - lref[idx]
    # no log-mass reaches 1, so |gap| <= bound and |bonus| <= scale + beta *
    # bound: below the float limit no bonus overflows. A masked index in idx
    # makes the bound inf; its bonus is an inf that np.where drops
    bound = max(float(_max(gap, initial=0.0)), 1.0 - float(lref[anchor]))
    with _PLAIN if s.rewards.scale + beta * bound < math.inf else np.errstate(over="ignore"):
        bonus = r[anchor] + beta * gap
    return np.where(_treated(s, tau, idx), bonus, r[idx])


def anchored_rewards(s: Scenario, tau: float, anchor: int, idx) -> np.ndarray:
    """Rewards at ``idx``, where treated the anchor's: the rewards of the
    reference-probability view."""
    r = s.rewards.values
    return np.where(_treated(s, tau, idx), r[anchor], r[idx])


def _augment(
    batch_indices, s: Scenario, cfg: MaraConfig, ref_view: bool
) -> AugmentedBatch:
    idx = np.asarray(batch_indices, dtype=int)
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    raw = s.rewards.values[idx]
    lref = s.reference.log_weights[idx]
    tau = resolve_threshold(cfg.threshold_rule, raw)
    # select_anchor's rule on the mask that also anchors the reference log-masses
    treated = _treated(s, tau, idx)
    anchor = _best(idx[treated], s)
    if anchor is None:
        return AugmentedBatch(idx, raw, raw.copy(), None, tau, lref)
    if ref_view:
        aug_r = anchored_rewards(s, tau, anchor, idx)
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


def anchored_reference(s: Scenario, tau: float, anchor: int) -> Categorical:
    """The reference with every treated index at the anchor's log-mass,
    renormalized: the whole-support reference of the reference-probability
    batch view."""
    _check_anchor(s, tau, anchor)
    lref = s.reference.log_weights
    return normalize(np.where(_treated(s, tau, slice(None)), lref[anchor], lref))


def mara_target(s: Scenario, beta: float, tau: float, anchor: int) -> Categorical:
    """Reverse-KL optimum induced by the augmented reward.

    Every above-threshold index shares the anchor's unnormalized
    log-mass, so they all end up with identical target probability.
    """
    check_coefficients("reverse", beta)
    _check_anchor(s, tau, anchor)
    # the reverse tilt, shifted near the float limit by the anchor's reward:
    # the anchor's log-mass stays its reference log-mass there
    log_masses = _tilt_log_masses(s, beta, beta, s.rewards.values[anchor])
    np.copyto(log_masses, log_masses[anchor], where=_treated(s, tau, slice(None)))
    return normalize(log_masses)
