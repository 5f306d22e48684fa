"""Softmax policy trained by policy gradient with a hand-rolled Adam.

Supports exact (full-enumeration) gradients, which serve as the oracle,
and Monte-Carlo score-function estimators with optional baselines. The
augmentation hooks plug in at the batch level for Monte-Carlo runs and
at the reward-vector level for exact runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from . import mara as mara_mod
from .dist import Categorical, Scenario, _frozen, draw, inverse_cdf, normalize, sample
from .errors import InfiniteDivergence, NonFiniteGradient
from .mara import MaraConfig
from .targets import TargetSpec, analytic_target, forward_kl_target


# --------------------------------------------------------------------------
# policy


@dataclass(frozen=True)
class SoftmaxPolicy:
    """Categorical policy parameterized by unnormalized logits.

    Masked indices are excluded from the softmax and carry zero mass;
    their logits are ignored and their gradients are identically zero.

    Instances and their arrays are immutable. ``logits`` and
    ``support_mask`` are frozen in place, as :class:`Categorical` does, so
    an array passed in becomes read-only too. ``log_probs()`` and
    ``probs()`` are computed once per instance and return the same
    read-only arrays on every call, so every function handed the policy
    shares one softmax.
    """

    logits: np.ndarray
    support_mask: Optional[np.ndarray] = None
    _log_probs: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _probs: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=float)
        if not np.isfinite(logits).all():
            raise ValueError("logits must be finite")
        mask = self.support_mask
        mask = np.ones(logits.size, dtype=bool) if mask is None else np.asarray(mask, bool)
        object.__setattr__(self, "logits", _frozen(logits))
        object.__setattr__(self, "support_mask", _frozen(mask))

    @property
    def n(self) -> int:
        return self.logits.size

    def log_probs(self) -> np.ndarray:
        if self._log_probs is None:
            lw = np.where(self.support_mask, self.logits, -np.inf)
            active = lw[self.support_mask]
            m = active.max()
            lw = lw - (m + np.log(np.sum(np.exp(active - m))))
            object.__setattr__(self, "_log_probs", _frozen(lw))
        return self._log_probs

    def probs(self) -> np.ndarray:
        if self._probs is None:
            p = np.zeros(self.n)
            p[self.support_mask] = np.exp(self.log_probs()[self.support_mask])
            object.__setattr__(self, "_probs", _frozen(p))
        return self._probs

    def distribution(self) -> Categorical:
        return normalize(self.log_probs())


def uniform_policy(n: int, support_mask=None) -> SoftmaxPolicy:
    return SoftmaxPolicy(np.zeros(n), support_mask)


# --------------------------------------------------------------------------
# exact objective and gradients


def exact_objective(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec) -> float:
    """Expected reward minus the exact regularizer, by full summation."""
    p = policy.probs()
    lp = policy.log_probs()
    lref = s.reference.log_weights
    r = s.rewards.values
    value = float(np.sum(p * r))
    if spec.kind == "forward":
        if np.any(s.reference.support_mask & ~policy.support_mask):
            raise InfiniteDivergence("reference mass outside the policy support")
        m = s.reference.support_mask
        ref = s.reference_probs
        return value - spec.beta * float(np.sum(ref[m] * (lref[m] - lp[m])))
    m = policy.support_mask
    if spec.beta > 0:
        if np.any(m & ~s.reference.support_mask):
            raise InfiniteDivergence("policy mass outside the reference support")
        value -= spec.beta * float(np.sum(p[m] * (lp[m] - lref[m])))
    if spec.eta > 0:
        value += spec.eta * float(-np.sum(p[m] * lp[m]))
    return value


def exact_gradient(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec) -> np.ndarray:
    """Analytic gradient of the objective with respect to the logits."""
    p = policy.probs()
    lp = policy.log_probs()
    lref = s.reference.log_weights
    r = s.rewards.values
    m = policy.support_mask
    g = np.zeros(policy.n)
    if spec.kind == "forward":
        if np.any(s.reference.support_mask & ~m):
            raise InfiniteDivergence("reference mass outside the policy support")
        g[m] = p[m] * (r[m] - float(np.sum(p * r)))
        g[m] += spec.beta * (s.reference_probs[m] - p[m])
        return g
    if spec.beta > 0 and np.any(m & ~s.reference.support_mask):
        raise InfiniteDivergence("policy mass outside the reference support")
    coef = r[m].astype(float).copy()
    if spec.beta > 0:
        coef -= spec.beta * (lp[m] - lref[m])
    if spec.eta > 0:
        coef -= spec.eta * lp[m]
    g[m] = p[m] * (coef - float(np.sum(p[m] * coef)))
    return g


def kl_gradient_to_target(policy: SoftmaxPolicy, target: Categorical) -> np.ndarray:
    """Gradient of KL(policy || target) with respect to the logits."""
    if np.any(policy.support_mask & ~target.support_mask):
        raise InfiniteDivergence("policy mass outside the target support")
    p = policy.probs()
    lp = policy.log_probs()
    m = policy.support_mask
    d = lp[m] - target.log_weights[m]
    g = np.zeros(policy.n)
    g[m] = p[m] * (d - float(np.sum(p[m] * d)))
    return g


# --------------------------------------------------------------------------
# Monte-Carlo estimators

BASELINES = ("none", "batch_mean", "leave_one_out")


@dataclass(frozen=True)
class MonteCarlo:
    """Monte-Carlo gradients from ``batch`` policy samples per step.

    ``baseline`` applies to the reverse and generalized objectives only;
    forward's reward term takes no baseline. ``sampled_regularizer``
    estimates forward's reference mass from ``batch`` reference draws
    instead of reading it exactly.
    """

    batch: int = 32
    baseline: str = "batch_mean"
    sampled_regularizer: bool = False

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.baseline not in BASELINES:
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.baseline != "none" and self.batch < 2:
            raise ValueError(f"{self.baseline} needs batch >= 2")


def _apply_baseline(coef: np.ndarray, baseline: str) -> np.ndarray:
    """``batch_mean`` and ``leave_one_out`` are one estimator, since
    (c_i - mean c) b/(b-1) = c_i - (sum c - c_i)/(b-1); mean subtraction
    shrinks the expectation by (b-1)/b, and the b/(b-1) factor restores it."""
    if baseline == "none":
        return coef
    b = coef.size
    if b < 2:
        raise ValueError("batch must be >= 2 for a batch-derived baseline")
    return (coef - coef.mean()) * (b / (b - 1.0))


def score_function_gradient(
    policy: SoftmaxPolicy, ys: np.ndarray, coef: np.ndarray
) -> np.ndarray:
    """Mean over the batch of coef_i * grad log p(y_i) in logit space."""
    p = policy.probs()
    g = np.bincount(ys, coef, policy.n) / ys.size - p * float(coef.mean())
    g[~policy.support_mask] = 0.0
    return g


def sample_policy(policy: SoftmaxPolicy, rng: np.random.Generator, count: int) -> np.ndarray:
    table = inverse_cdf(policy.log_probs(), policy.support_mask)
    return draw(table, rng.random(count))


def reverse_coefficients(
    policy: SoftmaxPolicy, ys: np.ndarray, rewards: np.ndarray,
    ref_logprobs: np.ndarray, beta: float,
) -> np.ndarray:
    """Per-sample coefficient r - beta * log(p(y) / ref(y)).

    At beta = 0 the reference plays no part, so samples outside its
    support are allowed (as in the exact gradient).
    """
    if beta == 0:
        return np.array(rewards, dtype=float)
    if np.any(~np.isfinite(ref_logprobs)):
        raise InfiniteDivergence("sampled index outside the reference support")
    lp = policy.log_probs()
    return rewards - beta * (lp[ys] - ref_logprobs)


def _empirical_mass(ws: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(ws, minlength=n) / ws.size


def mc_gradient(
    policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec, mc: MonteCarlo,
    rng: np.random.Generator, mara: Optional[MaraConfig] = None,
) -> Tuple[np.ndarray, Optional[int]]:
    """Score-function estimate of :func:`exact_gradient` (unbiased without
    ``mara``) from one batch of ``mc.batch`` policy samples drawn from
    ``rng``; :func:`train` steps with it.

    Reverse and generalized weight each score by r - beta log(p / ref)
    (- eta log p), after ``mc.baseline``. Forward adds beta * (ref - p) to
    the reward term, ref drawn from ``rng`` after the policy batch when
    ``mc.sampled_regularizer`` is set. ``mara`` applies its batch view:
    augmented rewards for reverse, the anchored reference for forward.
    Returns the gradient and the batch's anchor (None if none).
    """
    ys = sample_policy(policy, rng, mc.batch)
    anchor = None
    if spec.kind == "forward":
        # under augmentation the anchored scenario gives both the batch's
        # rewards and the regularizer's reference
        ref_s = s
        if mara is not None:
            tau, anchor = mara_mod.resolve_anchor(ys, s, mara)
            if anchor is not None:
                ref_s = mara_mod.anchored_scenario(s, tau, anchor)
        rewards = ref_s.rewards.values[ys]
        if mc.sampled_regularizer:
            ref = ref_s.reference
            table = inverse_cdf(ref.log_weights, ref.support_mask)
            ref_mass = _empirical_mass(draw(table, rng.random(ys.size)), s.n)
        else:
            ref_mass = ref_s.reference_probs
        reg = ref_mass - policy.probs()
        reg[~policy.support_mask] = 0.0
        return score_function_gradient(policy, ys, rewards) + spec.beta * reg, anchor
    rewards, ref_lp = s.rewards.values[ys], s.reference.log_weights[ys]
    if mara is not None:
        aug = mara_mod.augment_rewards(ys, s, mara)
        rewards, ref_lp = aug.augmented_rewards, aug.augmented_ref_logprobs
        anchor = aug.anchor_index
    coef = reverse_coefficients(policy, ys, rewards, ref_lp, spec.beta)
    if spec.eta > 0:
        coef = coef - spec.eta * policy.log_probs()[ys]
    return score_function_gradient(policy, ys, _apply_baseline(coef, mc.baseline)), anchor


def mc_gradient_reverse(
    policy: SoftmaxPolicy, s: Scenario, beta: float, batch: int,
    baseline: str, seed: int,
) -> np.ndarray:
    """:func:`mc_gradient` for reverse KL on one batch drawn from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec, mc = TargetSpec("reverse", beta), MonteCarlo(batch, baseline)
    return mc_gradient(policy, s, spec, mc, rng)[0]


def mc_gradient_forward(
    policy: SoftmaxPolicy, s: Scenario, beta: float, batch: int, seed: int,
    sampled_regularizer: bool = False,
) -> np.ndarray:
    """:func:`mc_gradient` for forward KL on one batch drawn from ``seed``;
    the regularizer is exact, or sampled from the same stream when
    ``sampled_regularizer`` is set."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = TargetSpec("forward", beta)
    mc = MonteCarlo(batch, sampled_regularizer=sampled_regularizer)
    return mc_gradient(policy, s, spec, mc, rng)[0]


def matching_step_sft(
    policy: SoftmaxPolicy, target: Categorical, batch: int, seed: int
) -> np.ndarray:
    """Estimated gradient of KL(target || policy): the negative mean of
    grad log p over target samples (maximum likelihood on target draws)."""
    g = policy.probs() - _empirical_mass(sample(target, seed, batch), policy.n)
    g[~policy.support_mask] = 0.0
    return g


# --------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(
    state: AdamState, params: np.ndarray, gradient: np.ndarray, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> Tuple[AdamState, np.ndarray]:
    """One bias-corrected ascent step; returns (new state, new params)."""
    if not np.all(np.isfinite(gradient)):
        bad = np.flatnonzero(~np.isfinite(gradient))
        raise NonFiniteGradient(f"non-finite gradient at coordinates {bad[:8].tolist()}")
    t = state.t + 1
    m = beta1 * state.m + (1 - beta1) * gradient
    v = beta2 * state.v + (1 - beta2) * gradient**2
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return AdamState(m, v, t), params + lr * m_hat / (np.sqrt(v_hat) + eps)


# --------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class Exact:
    pass


GradientMode = Union[Exact, MonteCarlo]


@dataclass(frozen=True)
class TrainConfig:
    objective: TargetSpec
    gradient_mode: GradientMode = field(default_factory=Exact)
    mara: Optional[MaraConfig] = None
    steps: int = 3000
    learning_rate: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.mara is not None and self.objective.kind == "generalized":
            raise ValueError("augmentation is defined for reverse and forward only")
        if self.mara is not None and self.mara.beta != self.objective.beta:
            # the augmented rewards and the target must tilt by one beta
            raise ValueError("augmentation beta must equal the objective's beta")
        mode = self.gradient_mode
        sampled = isinstance(mode, MonteCarlo) and mode.sampled_regularizer
        if self.mara is not None and self.objective.kind == "forward" and sampled:
            # the anchored reference is built from the full reference, so
            # drawing its mass would only add variance
            raise ValueError("augmentation needs the exact forward regularizer")


@dataclass(frozen=True)
class StepRecord:
    objective_value: float
    tv_to_target: float
    entropy: float
    above_threshold_mass: Optional[float]


@dataclass(frozen=True)
class TrainResult:
    final_policy: Categorical
    trace: List[StepRecord]
    anchor_history: List[Optional[int]]
    target: Categorical


def _policy_support(s: Scenario, spec: TargetSpec) -> Optional[np.ndarray]:
    if spec.kind == "forward" or spec.beta == 0:
        return None
    return np.asarray(s.reference.support_mask)


def _training_problem(
    s: Scenario, spec: TargetSpec, tau: Optional[float], anchor: Optional[int]
) -> Tuple[Categorical, Scenario]:
    """The target ``train()`` converges to, and the scenario its exact
    gradient and traced objective use: ``s`` itself without an anchor,
    else the augmented rewards (reverse) or the anchored scenario
    (forward)."""
    if anchor is None:
        return analytic_target(s, spec), s
    if spec.kind == "forward":
        anchored = mara_mod.anchored_scenario(s, tau, anchor)
        return forward_kl_target(anchored, spec.beta).distribution, anchored
    rewards = mara_mod.augmented_reward_vector(s, spec.beta, tau, anchor)
    return (
        mara_mod.mara_target(s, spec.beta, tau, anchor),
        Scenario(s.reference, rewards, name=f"{s.name}__augmented"),
    )


def train(s: Scenario, cfg: TrainConfig) -> TrainResult:
    """Run the optimization loop; deterministic for a given config."""
    spec = cfg.objective
    policy = uniform_policy(s.n, _policy_support(s, spec))
    state = AdamState(np.zeros(s.n), np.zeros(s.n))

    # what does not change from step to step is computed once, here; the
    # anchor is None when no index qualifies
    tau = global_anchor = None
    if cfg.mara is not None:
        support = np.flatnonzero(s.reference.support_mask)
        tau, global_anchor = mara_mod.resolve_anchor(support, s, cfg.mara)
    target, train_scenario = _training_problem(s, spec, tau, global_anchor)
    target_probs = target.probs
    above_set = (s.rewards.values >= tau) if tau is not None else None

    trace: List[StepRecord] = []
    anchors: List[Optional[int]] = []
    mc = cfg.gradient_mode if isinstance(cfg.gradient_mode, MonteCarlo) else None
    # exact mode draws nothing, and its marker seed may be negative
    rng = (
        np.random.Generator(np.random.PCG64(cfg.seed)) if mc is not None else None
    )

    for _ in range(cfg.steps):
        if mc is None:
            gradient = exact_gradient(policy, train_scenario, spec)
            anchor = global_anchor
        else:
            gradient, anchor = mc_gradient(policy, s, spec, mc, rng, cfg.mara)
        if cfg.mara is not None:
            anchors.append(anchor)
        state, logits = adam_step(state, policy.logits, gradient, cfg.learning_rate)
        policy = SoftmaxPolicy(logits, policy.support_mask)

        p = policy.probs()
        lp = policy.log_probs()
        active = policy.support_mask
        trace.append(
            StepRecord(
                objective_value=exact_objective(policy, train_scenario, spec),
                tv_to_target=float(0.5 * np.sum(np.abs(p - target_probs))),
                entropy=float(-np.sum(p[active] * lp[active])),
                above_threshold_mass=(
                    float(np.sum(p[above_set])) if above_set is not None else None
                ),
            )
        )
    return TrainResult(
        final_policy=policy.distribution(), trace=trace,
        anchor_history=anchors, target=target,
    )

