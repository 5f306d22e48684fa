"""Softmax policy trained by policy gradient with a hand-rolled Adam.

Supports exact (full-enumeration) gradients, which serve as the oracle,
and Monte-Carlo score-function estimators with optional baselines. The
augmentation hooks plug in at the batch level for Monte-Carlo runs and
at the reward-vector level for exact runs.

Layering: public wrapper -> kernel. Each formula is one private kernel
that works on rows over the policy's support columns, the k <= n indices
that carry mass: the softmax (``_softmax``), the exact gradient and
objective of each family (``_gradient``, ``_objective``), the Monte-Carlo
coefficients and score function (``_mc_gradient``) and the trace fields
(``_record``). A ``_Problem`` holds what stays fixed while the logits
move: the support columns and the rewards and reference restricted to
them. The public functions (``SoftmaxPolicy.log_probs``/``probs``,
``exact_gradient``, ``exact_objective``, ``mc_gradient`` and its seeded
forms) check their inputs, compress them to the columns, call the
kernels and scatter the result back to length n. ``train()`` computes its
run invariants once (the columns and ``_Problem``, the support checks,
the target mass, the sampled regularizer's reference table) and then
steps on the rows alone, so no check that cannot change within a run is
repeated and no policy object is built per step.

A reduction runs over the same elements in the same order as written
over all n: sums that range over all n (E_p[r], TV) still do, masked sums
run over the contiguous support row. So a row and a full-length
computation agree bit for bit (Higham 1993, "The accuracy of floating
point summation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from . import mara as mara_mod
from .dist import (
    Categorical, Scenario, _frozen, cdf_table, draw, inverse_cdf, normalize, sample,
)
from .errors import InfiniteDivergence, NonFiniteGradient
from .mara import MaraConfig
from .targets import TargetSpec, analytic_target

# np.sum's pairwise sum without its Python wrapper, which costs more than
# summing a hundred floats
_sum = np.add.reduce


# --------------------------------------------------------------------------
# kernels: rows over the policy's support columns


def _softmax(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Log-probabilities and probabilities of the logits row ``x``."""
    m = np.maximum.reduce(x, axis=-1)
    lp = x - (m + np.log(_sum(np.exp(x - m), axis=-1)))
    return lp, np.exp(lp)


def _check_logits(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")


def _columns(mask: np.ndarray) -> Optional[np.ndarray]:
    """The support columns of ``mask``, or None when the support is full."""
    return None if mask.all() else np.flatnonzero(mask)


def _to_n(row: np.ndarray, cols: Optional[np.ndarray], n: int, fill: float = 0.0):
    """A row over the support columns as a length-n vector, ``fill``
    elsewhere; the row itself when the support is full (``cols`` None)."""
    if cols is None:
        return row
    out = np.full(n, fill)
    out[cols] = row
    return out


def _coefficients(r, lp, log_ratio, beta: float, eta: float) -> np.ndarray:
    """r - beta log(p / ref) - eta log p, per column or per sample;
    ``log_ratio`` is log(p / ref), unused at beta = 0."""
    coef = r - beta * log_ratio if beta > 0 else np.array(r, dtype=float)
    return coef - eta * lp if eta > 0 else coef


def _centered(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Logit gradient of E_p[c] with c held fixed: p (c - E_p[c])."""
    return p * (c - _sum(p * c, axis=-1))


def _forward_gradient(reward_term, ref, p, beta: float) -> np.ndarray:
    """Forward KL's logit gradient: the reward term plus beta (ref - p)."""
    return reward_term + beta * (ref - p)


def _score(pos: np.ndarray, coef: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mean over the batch of coef_i * grad log p(y_i), sample i at column
    ``pos[i]``; each column adds its samples in batch order."""
    b = pos.size
    return np.bincount(pos, coef, p.size) / b - p * (_sum(coef) / b)


def _sample_coefficients(lp_ys, rewards, ref_lp, beta: float, eta: float):
    """:func:`_coefficients` at sampled indices; at beta = 0 the reference
    plays no part, so samples outside its support are allowed (as in the
    exact gradient)."""
    if beta > 0 and not np.isfinite(ref_lp).all():
        raise InfiniteDivergence("sampled index outside the reference support")
    return _coefficients(rewards, lp_ys, lp_ys - ref_lp if beta > 0 else None, beta, eta)


def _apply_baseline(coef: np.ndarray, baseline: str) -> np.ndarray:
    """``batch_mean`` and ``leave_one_out`` are one estimator, since
    (c_i - mean c) b/(b-1) = c_i - (sum c - c_i)/(b-1); mean subtraction
    shrinks the expectation by (b-1)/b, and the b/(b-1) factor restores it."""
    if baseline == "none":
        return coef
    b = coef.size
    return (coef - _sum(coef) / b) * (b / (b - 1.0))


class _Problem:
    """A scenario and objective on the policy's support columns ``cols``
    (None when the support is full): what stays fixed while the logits
    move. Each piece is computed on first use and then kept."""

    def __init__(self, s: Scenario, spec: TargetSpec, cols: Optional[np.ndarray]):
        self.s, self.spec, self.cols, self.n = s, spec, cols, s.n
        self.r = s.rewards.values
        self.forward = spec.kind == "forward"
        # the generalized family carries a reverse-KL term at beta > 0
        self.kl_term = not self.forward and spec.beta > 0

    def at_cols(self, a: np.ndarray) -> np.ndarray:
        return a if self.cols is None else a[self.cols]

    @cached_property
    def positions(self) -> np.ndarray:
        return np.arange(self.n if self.cols is None else self.cols.size)

    @cached_property
    def r_k(self) -> np.ndarray:
        return self.at_cols(self.r)

    @cached_property
    def lref_k(self) -> np.ndarray:
        return self.at_cols(self.s.reference.log_weights)

    @cached_property
    def ref_k(self) -> np.ndarray:
        return self.at_cols(self.s.reference_probs)

    @cached_property
    def ref_table(self):
        ref = self.s.reference
        return inverse_cdf(ref.log_weights, ref.support_mask)

    @cached_property
    def reference_terms(self):
        """Forward's regularizer sums over the reference support: the
        reference mass and log-mass there, and the columns it occupies
        (None when it occupies all of them)."""
        m = self.s.reference.support_mask
        at = m if self.cols is None else m[self.cols]
        ref_cols = None if at.all() else np.flatnonzero(at)
        return self.s.reference_probs[m], self.s.reference.log_weights[m], ref_cols

    def shared(self, lp: np.ndarray, full_p: np.ndarray):
        """What the exact gradient, the objective and the trace share at one
        policy: E_p[r] over all n, and log(p / ref) on the columns when
        there is a reverse-KL term (else None)."""
        mean_reward = float(_sum(full_p * self.r, axis=-1))
        return mean_reward, (lp - self.lref_k if self.kl_term else None)


def _check_support(s: Scenario, spec: TargetSpec, mask: np.ndarray) -> None:
    """Raise unless the exact objective is finite: forward needs the
    reference support inside the policy's, a reverse-KL term the policy's
    inside the reference's."""
    ref = s.reference.support_mask
    if spec.kind == "forward":
        if np.any(ref & ~mask):
            raise InfiniteDivergence("reference mass outside the policy support")
    elif spec.beta > 0 and np.any(mask & ~ref):
        raise InfiniteDivergence("policy mass outside the reference support")


def _gradient(prob: _Problem, lp, p, mean_reward: float, log_ratio) -> np.ndarray:
    """Exact logit gradient of the objective."""
    spec = prob.spec
    if prob.forward:
        return _forward_gradient(p * (prob.r_k - mean_reward), prob.ref_k, p, spec.beta)
    return _centered(p, _coefficients(prob.r_k, lp, log_ratio, spec.beta, spec.eta))


def _objective(prob: _Problem, lp, p, mean_reward: float, log_ratio,
               entropy: float) -> float:
    """Expected reward minus the exact regularizer."""
    spec = prob.spec
    if prob.forward:
        ref, lref, ref_cols = prob.reference_terms
        lp_ref = lp if ref_cols is None else lp[ref_cols]
        return mean_reward - spec.beta * float(_sum(ref * (lref - lp_ref), axis=-1))
    value = mean_reward
    if spec.beta > 0:
        value -= spec.beta * float(_sum(p * log_ratio, axis=-1))
    if spec.eta > 0:
        value += spec.eta * entropy
    return value


def _entropy(lp: np.ndarray, p: np.ndarray) -> float:
    return float(-_sum(p * lp, axis=-1))


def _mc_gradient(prob: _Problem, lp, p, mc: "MonteCarlo", rng: np.random.Generator,
                 mara: Optional[MaraConfig]):
    """One batch's estimate on the support columns and the batch's anchor;
    see :func:`mc_gradient`."""
    spec, s = prob.spec, prob.s
    pos = draw(cdf_table(prob.positions, p), rng.random(mc.batch))
    ys = pos if prob.cols is None else prob.cols[pos]
    anchor = None
    if prob.forward:
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
            table = (prob.ref_table if ref_s is s
                     else inverse_cdf(ref.log_weights, ref.support_mask))
            ref_mass = _empirical_mass(draw(table, rng.random(ys.size)), s.n)
            ref_mass = prob.at_cols(ref_mass)
        else:
            ref_mass = prob.ref_k if ref_s is s else prob.at_cols(ref_s.reference_probs)
        return _forward_gradient(_score(pos, rewards, p), ref_mass, p, spec.beta), anchor
    rewards, ref_lp = s.rewards.values[ys], s.reference.log_weights[ys]
    if mara is not None:
        aug = mara_mod.augment_rewards(ys, s, mara)
        rewards, ref_lp = aug.augmented_rewards, aug.augmented_ref_logprobs
        anchor = aug.anchor_index
    coef = _sample_coefficients(lp[pos], rewards, ref_lp, spec.beta, spec.eta)
    return _score(pos, _apply_baseline(coef, mc.baseline), p), anchor


# --------------------------------------------------------------------------
# policy


@dataclass(frozen=True)
class SoftmaxPolicy:
    """Categorical policy parameterized by unnormalized logits.

    Masked indices are excluded from the softmax and carry zero mass;
    their logits are ignored and their gradients are identically zero.

    Instances and their arrays are immutable. ``logits`` and
    ``support_mask`` are frozen in place, as :class:`Categorical` does, so
    an array passed in becomes read-only too. The softmax is computed once,
    at construction; ``log_probs()`` and ``probs()`` return the same
    read-only arrays on every call, so every function handed the policy
    shares one softmax.
    """

    logits: np.ndarray
    support_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=float)
        _check_logits(logits)
        mask = self.support_mask
        mask = np.ones(logits.size, dtype=bool) if mask is None else np.asarray(mask, bool)
        object.__setattr__(self, "logits", _frozen(logits))
        object.__setattr__(self, "support_mask", _frozen(mask))
        cols = _columns(mask)
        lp, p = _softmax(logits if cols is None else logits[cols])
        object.__setattr__(self, "_rows", (cols, lp, p))
        object.__setattr__(self, "_log_probs", _frozen(_to_n(lp, cols, logits.size, -np.inf)))
        object.__setattr__(self, "_probs", _frozen(_to_n(p, cols, logits.size)))

    @property
    def n(self) -> int:
        return self.logits.size

    def log_probs(self) -> np.ndarray:
        return self._log_probs

    def probs(self) -> np.ndarray:
        return self._probs

    def distribution(self) -> Categorical:
        return normalize(self.log_probs())


def uniform_policy(n: int, support_mask=None) -> SoftmaxPolicy:
    return SoftmaxPolicy(np.zeros(n), support_mask)


# --------------------------------------------------------------------------
# exact objective and gradients


def _exact_inputs(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec):
    """Check the supports, then the kernels' inputs for ``policy``."""
    _check_support(s, spec, policy.support_mask)
    cols, lp, p = policy._rows
    prob = _Problem(s, spec, cols)
    return (prob, lp, p, *prob.shared(lp, policy.probs()))


def exact_objective(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec) -> float:
    """Expected reward minus the exact regularizer, by full summation."""
    prob, lp, p, mean_reward, log_ratio = _exact_inputs(policy, s, spec)
    return _objective(prob, lp, p, mean_reward, log_ratio, _entropy(lp, p))


def exact_gradient(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec) -> np.ndarray:
    """Analytic gradient of the objective with respect to the logits."""
    prob, lp, p, mean_reward, log_ratio = _exact_inputs(policy, s, spec)
    return _to_n(_gradient(prob, lp, p, mean_reward, log_ratio), prob.cols, policy.n)


def kl_gradient_to_target(policy: SoftmaxPolicy, target: Categorical) -> np.ndarray:
    """Gradient of KL(policy || target) with respect to the logits."""
    if np.any(policy.support_mask & ~target.support_mask):
        raise InfiniteDivergence("policy mass outside the target support")
    cols, lp, p = policy._rows
    log_target = target.log_weights if cols is None else target.log_weights[cols]
    return _to_n(_centered(p, lp - log_target), cols, policy.n)


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


def reverse_coefficients(
    policy: SoftmaxPolicy, ys: np.ndarray, rewards: np.ndarray,
    ref_logprobs: np.ndarray, beta: float,
) -> np.ndarray:
    """Per-sample coefficient r - beta * log(p(y) / ref(y)).

    At beta = 0 the reference plays no part, so samples outside its
    support are allowed (as in the exact gradient).
    """
    return _sample_coefficients(policy.log_probs()[ys], rewards, ref_logprobs, beta, 0.0)


def _empirical_mass(ws: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(ws, minlength=n) / ws.size


def mc_gradient(
    policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec, mc: MonteCarlo,
    rng: np.random.Generator, mara: Optional[MaraConfig] = None,
) -> Tuple[np.ndarray, Optional[int]]:
    """Score-function estimate of :func:`exact_gradient` (unbiased without
    ``mara``) from one batch of ``mc.batch`` policy samples drawn from
    ``rng``; :func:`train` steps with the same kernel.

    Reverse and generalized weight each score by r - beta log(p / ref)
    (- eta log p), after ``mc.baseline``. Forward adds beta * (ref - p) to
    the reward term, ref drawn from ``rng`` after the policy batch when
    ``mc.sampled_regularizer`` is set. ``mara`` applies its batch view:
    augmented rewards for reverse, the anchored reference for forward.
    Returns the gradient and the batch's anchor (None if none).
    """
    cols, lp, p = policy._rows
    g, anchor = _mc_gradient(_Problem(s, spec, cols), lp, p, mc, rng, mara)
    return _to_n(g, cols, policy.n), anchor


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


def _check_gradient(gradient: np.ndarray) -> None:
    if not np.isfinite(gradient).all():
        bad = np.flatnonzero(~np.isfinite(gradient))
        raise NonFiniteGradient(f"non-finite gradient at coordinates {bad[:8].tolist()}")


def adam_step(
    state: AdamState, params: np.ndarray, gradient: np.ndarray, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> Tuple[AdamState, np.ndarray]:
    """One bias-corrected ascent step; returns (new state, new params)."""
    _check_gradient(gradient)
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


def _record(prob: _Problem, lp, p, full_p, mean_reward: float, log_ratio,
            target_probs: np.ndarray, above: Optional[np.ndarray]) -> StepRecord:
    """The trace fields of one policy; ``above`` lists the indices at or
    above the augmentation threshold (None without augmentation)."""
    entropy = _entropy(lp, p)
    return StepRecord(
        objective_value=_objective(prob, lp, p, mean_reward, log_ratio, entropy),
        tv_to_target=float(0.5 * _sum(np.abs(full_p - target_probs), axis=-1)),
        entropy=entropy,
        above_threshold_mass=None if above is None else float(_sum(full_p[above])),
    )


def _policy_support(s: Scenario, spec: TargetSpec) -> np.ndarray:
    """Where the trained policy may put mass: the reference support under a
    reverse-KL term, every index otherwise."""
    if spec.kind == "forward" or spec.beta == 0:
        return np.ones(s.n, dtype=bool)
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
        return analytic_target(anchored, spec), anchored
    rewards = mara_mod.augmented_reward_vector(s, spec.beta, tau, anchor)
    return (
        mara_mod.mara_target(s, spec.beta, tau, anchor),
        Scenario(s.reference, rewards, name=f"{s.name}__augmented"),
    )


def train(s: Scenario, cfg: TrainConfig) -> TrainResult:
    """Run the optimization loop; deterministic for a given config."""
    spec = cfg.objective
    n = s.n
    mask = _policy_support(s, spec)
    cols = _columns(mask)

    # what does not change from step to step is computed once, here; the
    # anchor is None when no index qualifies
    tau = global_anchor = None
    if cfg.mara is not None:
        support = np.flatnonzero(s.reference.support_mask)
        tau, global_anchor = mara_mod.resolve_anchor(support, s, cfg.mara)
    target, train_scenario = _training_problem(s, spec, tau, global_anchor)
    _check_support(train_scenario, spec, mask)
    prob = _Problem(train_scenario, spec, cols)
    # the Monte-Carlo batch sees the raw scenario and applies the batch view
    mc_prob = prob if train_scenario is s else _Problem(s, spec, cols)
    target_probs = target.probs
    above = np.flatnonzero(s.rewards.values >= tau) if tau is not None else None

    trace: List[StepRecord] = []
    anchors: List[Optional[int]] = []
    mc = cfg.gradient_mode if isinstance(cfg.gradient_mode, MonteCarlo) else None
    # exact mode draws nothing, and its marker seed may be negative
    rng = (
        np.random.Generator(np.random.PCG64(cfg.seed)) if mc is not None else None
    )

    x = np.zeros(n if cols is None else cols.size)
    state = AdamState(np.zeros(x.size), np.zeros(x.size))
    lp, p = _softmax(x)
    mean_reward, log_ratio = prob.shared(lp, _to_n(p, cols, n))
    for _ in range(cfg.steps):
        if mc is None:
            gradient = _gradient(prob, lp, p, mean_reward, log_ratio)
            anchor = global_anchor
        else:
            gradient, anchor = _mc_gradient(mc_prob, lp, p, mc, rng, cfg.mara)
        if cfg.mara is not None:
            anchors.append(anchor)
        try:
            state, x = adam_step(state, x, gradient, cfg.learning_rate)
        except NonFiniteGradient:
            # name the coordinates over all n, not over the support columns
            _check_gradient(_to_n(gradient, cols, n))
            raise
        _check_logits(x)

        lp, p = _softmax(x)
        full_p = _to_n(p, cols, n)
        mean_reward, log_ratio = prob.shared(lp, full_p)
        trace.append(_record(prob, lp, p, full_p, mean_reward, log_ratio,
                             target_probs, above))
    policy = SoftmaxPolicy(_to_n(x, cols, n), mask)
    return TrainResult(
        final_policy=policy.distribution(), trace=trace,
        anchor_history=anchors, target=target,
    )
