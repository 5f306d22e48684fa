"""Softmax policy trained by policy gradient with a hand-rolled Adam.

Supports exact (full-enumeration) gradients, which serve as the oracle,
and Monte-Carlo score-function estimators with optional baselines. MARA
augments each sampled batch in Monte-Carlo runs and the whole support in
exact runs, by the same :mod:`kllab.mara` view functions.

Layering: public wrapper -> kernel, and one training engine. Each formula
is one private kernel that works on the trailing axis: rows over the
policy's support columns, the k <= n indices that carry mass. A kernel
takes one row (1-d) or a stack of rows, one per cell, where a per-row
value (beta, eta, a row sum) is a column. The kernels are the softmax
(``_softmax``), the exact gradient and objective of each family
(``_gradient``, ``_objective``), the Monte-Carlo coefficients and score
function (``_mc_gradient``) and the trace fields (``_trace_fields``). A
``_Problem`` holds what stays fixed while the logits move: the raw
scenario, the objectives, the support columns, and the rewards and
reference that the exact gradient and the traced objective read. The
public functions (``SoftmaxPolicy.log_probs``/``probs``,
``exact_gradient``, ``exact_objective``, ``mc_gradient`` and its seeded
forms) check their inputs (the policy's length against the problem's n
first), compress them to the columns, call the kernels on one row and
scatter the result back to length n. The Monte-Carlo batch is drawn in
column positions through an inverse-CDF table over the columns: the
policy's own for ``mc_gradient``, kept with the policy, and one built from
each step's rows in training.

``train_cells`` trains the cells that share a scenario and a
``batch_key`` as one program over a (C, k) logits matrix, with one Adam
state, a beta and an eta column and one PCG64 stream per row. Once per
batch, ``_training_problem`` answers what the run trains toward: the
``_Problem``, a target per row and MARA's global anchor, read at
``slice(None)`` from the views that the Monte-Carlo step reads at its
batches. The steps then work on the rows alone. The program runs to its
end or raises; a batch that raises trains again cell by cell, so a
failing cell gets the exception it raises alone and the others their
results, at the cost of the failed batch plus one run per cell. The trace
is not built per step: the softmax writes each step's rows into a block
buffer, and the trace fields are computed once per block as row
reductions into a columnar ``Trace``. ``train()`` runs one cell, whose
arrays stay 1-d, on the same program. A step makes one finiteness check,
of the logits after Adam: a non-finite gradient always leaves them NaN,
so the gradient is checked, and its bad coordinates named, only then.

At large n an array freed and allocated again costs the allocator about
as much as its arithmetic, so a run works in arrays it owns: Adam
(``_adam``) updates the logits and both moments in place, the softmax
writes into the block, and the trace's sums run in a scratch of the
block's shape. ``adam_step`` runs ``_adam`` on copies of its inputs.

Every sum, E_p[r] and the TV to the target included, runs over the
support columns: off them the policy and every target it trains toward
carry exactly zero mass, so a sum over all n would add only zeros. Each
row of a C-contiguous stack is summed as the 1-d row is, so a row of a
batch and its cell trained alone agree bit for bit (Higham 1993, "The
accuracy of floating point summation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple, Union

import numpy as np

from . import mara as mara_mod
# _any and _sum are NumPy's reductions without the Python wrappers of np.any
# and np.sum, which cost more than reducing a hundred floats
from .dist import (
    Categorical, RewardVector, Scenario, _any, _frozen, _reduce_through_init, _sum, cdf_table,
    draw, normalize,
)
from .errors import InfiniteDivergence, InvalidDistribution, NonFiniteGradient, UntrainableScale
from .mara import MaraConfig
from .targets import TargetSpec, analytic_target

# the trace's block buffer holds at most this many bytes of policy rows over
# the support columns, so that the block and the temporaries of its
# reductions stay small; from k = 8192 columns on, a block is one row
_BLOCK_BYTES = 1 << 16

# the largest |r| a run trains on: Adam squares each gradient entry, whose
# rewards' part is at most twice the rewards' scale (a Monte-Carlo
# coefficient less its baseline), and (2 * 2**510)**2 = 2**1022 stays below
# the float limit with room for the regularizer's part
_TRAINABLE_SCALE = 2.0**510


# --------------------------------------------------------------------------
# kernels: rows over the policy's support columns


def _rsum(a: np.ndarray):
    """Sum over the trailing axis: a scalar for one row, else a column."""
    s = _sum(a, axis=-1)
    return s if a.ndim == 1 else s[..., None]


def _rmax(a: np.ndarray):
    m = np.maximum.reduce(a, axis=-1)
    return m if a.ndim == 1 else m[..., None]


def _softmax(x: np.ndarray, out=None) -> Tuple[np.ndarray, np.ndarray]:
    """Log-probabilities and probabilities of the logits rows ``x``, written
    into the pair ``out`` (new arrays when None); the terms exp(x - max) of
    the log-sum-exp are written there first."""
    lp, p = (np.empty_like(x), np.empty_like(x)) if out is None else out
    m = _rmax(x)
    shift = m + np.log(_rsum(np.exp(np.subtract(x, m, out=lp), out=p)))
    np.subtract(x, shift, out=lp)
    return lp, np.exp(lp, out=p)


def _check_logits(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("logits must be finite")


def _columns(mask: np.ndarray) -> Optional[np.ndarray]:
    """The support columns of ``mask``, or None when the support is full."""
    return None if mask.all() else np.flatnonzero(mask)


def _to_n(row: np.ndarray, cols: Optional[np.ndarray], n: int, fill: float = 0.0):
    """Rows over the support columns as length-n rows, ``fill`` elsewhere;
    the rows themselves when the support is full (``cols`` None)."""
    if cols is None:
        return row
    out = np.full(row.shape[:-1] + (n,), fill)
    out[..., cols] = row
    return out


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Each row of ``a`` at the positions in the same row of ``idx``."""
    return a[idx] if a.ndim == 1 else np.take_along_axis(a, idx, axis=-1)


def _bincount_rows(idx: np.ndarray, width: int, weights=None) -> np.ndarray:
    """``np.bincount`` of each row of ``idx`` over 0..width-1; each bin
    adds its entries in row order."""
    if idx.ndim == 1:
        return np.bincount(idx, weights, width)
    rows = idx.shape[0]
    flat = (idx + width * np.arange(rows)[:, None]).ravel()
    w = None if weights is None else weights.ravel()
    return np.bincount(flat, w, rows * width).reshape(rows, width)


def _coefficients(r, lp, log_ratio, beta, eta) -> np.ndarray:
    """r - beta log(p / ref) - eta log p, per column or per sample;
    ``log_ratio`` is log(p / ref), and a term is left out when its
    ``log_ratio`` or ``eta`` is None."""
    coef = np.array(r, dtype=float) if log_ratio is None else r - beta * log_ratio
    return coef if eta is None else coef - eta * lp


def _centered(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Logit gradient of E_p[c] with c held fixed: p (c - E_p[c])."""
    return p * (c - _rsum(p * c))


def _forward_gradient(reward_term, ref, p, beta) -> np.ndarray:
    """Forward KL's logit gradient: the reward term plus beta (ref - p)."""
    return reward_term + beta * (ref - p)


def _score(pos: np.ndarray, coef: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mean over the batch of coef_i * grad log p(y_i), sample i at column
    ``pos[i]``; each column adds its samples in batch order."""
    b = pos.shape[-1]
    return _bincount_rows(pos, p.shape[-1], coef) / b - p * (_rsum(coef) / b)


def _per_row(values: list):
    """A value per row as the kernels take it: the value itself for one row,
    else a column of floats or a stack of arrays."""
    if len(values) == 1:
        return values[0]
    return np.stack(values) if np.ndim(values[0]) else np.array(values)[:, None]


def _apply_baseline(coef: np.ndarray, baseline: str) -> np.ndarray:
    """``batch_mean`` is the leave-one-out baseline (Kool, van Hoof and
    Welling 2019), since (c_i - mean c) b/(b-1) = c_i - (sum c - c_i)/(b-1);
    mean subtraction shrinks the expectation by (b-1)/b, and the b/(b-1)
    factor restores it."""
    if baseline == "none":
        return coef
    b = coef.shape[-1]
    return (coef - _rsum(coef) / b) * (b / (b - 1.0))


class _Problem:
    """The objectives ``specs``, one per row, on the raw scenario ``s`` and
    the policy's support columns ``cols`` (None when the support is full):
    what stays fixed while the logits move. The rows share n, the family,
    the kernel branches and the reference support. ``rewards`` (one row, or
    a (C, n) stack of one per row) and ``reference`` are what the exact
    gradient and the traced objective read, ``s``'s own when None; a value
    that every row shares stays 1-d and broadcasts. A per-row value is a
    float or a 1-d array for one row, else a column (C, 1) or a stack
    (C, ...). Each piece is computed on first use and then kept."""

    def __init__(self, s: Scenario, specs, cols: Optional[np.ndarray],
                 rewards: Optional[np.ndarray] = None, reference: Optional[Categorical] = None):
        self.s, self.cols = s, cols
        self.rewards = s.rewards.values if rewards is None else rewards
        self.reference = s.reference if reference is None else reference
        spec = specs[0]
        self.forward = spec.kind == "forward"
        # the generalized family carries a reverse-KL term at beta > 0
        self.kl_term = not self.forward and spec.beta > 0
        self.beta = _per_row([sp.beta for sp in specs])
        self.eta = _per_row([sp.eta for sp in specs]) if spec.eta > 0 else None

    def at_cols(self, a: np.ndarray) -> np.ndarray:
        return a if self.cols is None else a.take(self.cols, axis=-1)

    def log_ratio(self, lp: np.ndarray) -> Optional[np.ndarray]:
        """log(p / ref) on the columns under a reverse-KL term, else None."""
        return lp - self.lref_k if self.kl_term else None

    @cached_property
    def r_k(self) -> np.ndarray:
        return self.at_cols(self.rewards)

    @cached_property
    def lref_k(self) -> np.ndarray:
        return self.at_cols(self.reference.log_weights)

    @cached_property
    def ref_k(self) -> np.ndarray:
        ref = self.reference  # ``s`` keeps the mass of its own
        return self.at_cols(self.s.reference_probs if ref is self.s.reference else ref.probs)

    @cached_property
    def reference_terms(self):
        """Forward's regularizer sums over the reference support: the
        reference mass and log-mass there, and the columns it occupies
        (None when it occupies all of them)."""
        m = self.reference.support_mask
        at = self.at_cols(m)
        ref_cols = None if at.all() else np.flatnonzero(at)
        lref = self.reference.log_weights[m]
        return np.exp(lref), lref, ref_cols


def _mean_reward(prob: _Problem, p: np.ndarray, out=None):
    """E_p[r] of the policy rows ``p``, their products with the rewards
    written into ``out`` when given."""
    return _rsum(np.multiply(p, prob.r_k, out=out))


def _gradient(prob: _Problem, lp, p) -> np.ndarray:
    """Exact logit gradient of the objective."""
    if prob.forward:
        return _forward_gradient(_centered(p, prob.r_k), prob.ref_k, p, prob.beta)
    return _centered(p, _coefficients(prob.r_k, lp, prob.log_ratio(lp), prob.beta, prob.eta))


def _objective(prob: _Problem, lp, p, mean_reward, entropy):
    """Expected reward ``mean_reward`` minus the exact regularizer."""
    if prob.forward:
        ref, lref, ref_cols = prob.reference_terms
        lp_ref = lp if ref_cols is None else lp.take(ref_cols, axis=-1)
        return mean_reward - prob.beta * _rsum(ref * (lref - lp_ref))
    value = mean_reward
    if prob.kl_term:
        value = value - prob.beta * _rsum(p * prob.log_ratio(lp))
    if prob.eta is not None:
        value = value + prob.eta * entropy
    return value


def _entropy(lp: np.ndarray, p: np.ndarray):
    return -_rsum(p * lp)


def _trace_fields(prob: _Problem, lp, p, scratch, target_probs, above: Optional[np.ndarray]):
    """The objective, TV to the target, entropy and (None without
    augmentation) mass at the column positions ``above`` of the policy
    rows; ``scratch``, of their shape, holds the terms of E_p[r] and then
    those of the TV."""
    entropy = _entropy(lp, p)
    objective = _objective(prob, lp, p, _mean_reward(prob, p, out=scratch), entropy)
    np.subtract(p, target_probs, out=scratch)
    return (
        objective,
        0.5 * _rsum(np.abs(scratch, out=scratch)),
        entropy,
        None if above is None else _rsum(p.take(above, axis=-1)),
    )


def _uniforms(rngs, count: int) -> np.ndarray:
    """The next ``count`` uniforms of each row's generator, a row each."""
    return rngs[0].random(count) if len(rngs) == 1 else np.stack([g.random(count) for g in rngs])


def _mc_gradient(prob: _Problem, lp, p, mc: "MonteCarlo", rngs, maras, table=None):
    """One batch per row, row i drawn from ``rngs[i]`` and augmented by
    ``maras[i]`` (``maras`` None without augmentation): the estimates on the
    support columns and each row's anchor; see :func:`mc_gradient`. The
    batch is drawn through ``table``, the inverse-CDF table of ``p`` over
    the support columns, which is built from ``p`` when None. Rewards and
    reference are those of the raw scenario ``prob.s``."""
    s, rows = prob.s, len(rngs)
    if table is None:
        table = cdf_table(None, p)
    # column positions, mapped to indices over all n under a partial support
    pos = draw(table, _uniforms(rngs, mc.batch))
    ys = pos if prob.cols is None else prob.cols[pos]
    if maras is None:
        anchors, rewards = [None] * rows, s.rewards.values[ys]
    else:
        view = mara_mod.augment_ref_view if prob.forward else mara_mod.augment_rewards
        augs = [view(y, s, cfg) for y, cfg in zip(ys.reshape(rows, -1), maras)]
        anchors = [a.anchor_index for a in augs]
        rewards = _per_row([a.augmented_rewards for a in augs])
    if prob.forward:
        if mc.sampled_regularizer:
            # augmentation keeps the exact regularizer (_check_augmentation);
            # the mass is each index's share of a row's reference draws
            ws = draw(s.reference_table, _uniforms(rngs, mc.batch))
            ref_mass = prob.at_cols(_bincount_rows(ws, s.n) / mc.batch)
        elif maras is None:
            ref_mass = prob.ref_k
        else:
            ref_mass = _per_row([prob.at_cols(
                s.reference_probs if a.anchor_index is None else
                mara_mod.anchored_reference(s, a.threshold_used, a.anchor_index).probs)
                for a in augs])
        return _forward_gradient(_score(pos, rewards, p), ref_mass, p, prob.beta), anchors
    # the support rule keeps every column on the reference support
    lp_ys = _gather(lp, pos)
    log_ratio = lp_ys - s.reference.log_weights[ys] if prob.kl_term else None
    coef = _coefficients(rewards, lp_ys, log_ratio, prob.beta, prob.eta)
    return _score(pos, _apply_baseline(coef, mc.baseline), p), anchors


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
    at construction, on the support columns; ``log_probs()`` and
    ``probs()`` return the same read-only arrays on every call, so every
    function handed the policy shares one softmax. ``probs()`` scatters the
    probabilities to length n on its first call, so a policy that is only
    asked for its ``distribution()`` never builds them. Likewise the
    inverse-CDF table that :func:`mc_gradient` samples from is built on its
    first draw and then kept, read-only, as ``Scenario.reference_table`` is
    for the reference; it draws column positions.
    """

    logits: np.ndarray
    support_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=float)
        _check_logits(logits)
        mask = self.support_mask
        mask = np.ones(logits.size, dtype=bool) if mask is None else np.asarray(mask, bool)
        if mask.shape != logits.shape:
            raise InvalidDistribution("length mismatch")
        if not mask.any():
            raise InvalidDistribution("empty support")
        object.__setattr__(self, "logits", _frozen(logits))
        object.__setattr__(self, "support_mask", _frozen(mask))
        cols = _columns(mask)
        lp, p = map(_frozen, _softmax(logits if cols is None else logits[cols]))
        object.__setattr__(self, "_rows", (cols, lp, p))
        object.__setattr__(self, "_log_probs", _frozen(_to_n(lp, cols, logits.size, -np.inf)))

    # unpickling rebuilds the policy: frozen arrays, a fresh softmax
    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.logits.size

    def log_probs(self) -> np.ndarray:
        return self._log_probs

    def probs(self) -> np.ndarray:
        return self._probs

    @cached_property
    def _probs(self) -> np.ndarray:
        cols, _, p = self._rows
        return _frozen(_to_n(p, cols, self.n))

    @cached_property
    def _table(self):
        _, cdf = cdf_table(None, self._rows[2])
        return None, _frozen(cdf)

    def distribution(self) -> Categorical:
        return normalize(self.log_probs())


# --------------------------------------------------------------------------
# exact objective and gradients


def _check_length(size: int, n: int) -> None:
    if size != n:
        raise InvalidDistribution("length mismatch")


def _policy_rows(policy: SoftmaxPolicy, n: int):
    """The policy's support columns and rows, once its length is checked
    against the problem's ``n``."""
    _check_length(policy.n, n)
    return policy._rows


def _check_supports(policy: SoftmaxPolicy, cols: Optional[np.ndarray], s: Scenario,
                    spec: TargetSpec) -> None:
    """Raise unless the objective is finite: forward needs the reference
    support inside the policy's, which a full policy support (``cols``
    None) holds; a reverse-KL term needs the policy's inside the
    reference's, which a full reference support holds. Run before any
    draw, it is the estimators' reference-support rule too: every sample
    then lies where log(p / ref) is finite."""
    ref = s.reference.support_mask
    if spec.kind == "forward":
        if cols is not None and _any(ref & ~policy.support_mask):
            raise InfiniteDivergence("reference mass outside the policy support")
    elif spec.beta > 0 and not s._reference_full and _any(policy.support_mask & ~ref):
        raise InfiniteDivergence("policy mass outside the reference support")


def _exact_inputs(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec):
    """The kernels' inputs for ``policy``, once its length is checked and the
    exact objective is finite (:func:`_check_supports`)."""
    cols, lp, p = _policy_rows(policy, s.n)
    _check_supports(policy, cols, s, spec)
    return _Problem(s, [spec], cols), lp, p


def exact_objective(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec) -> float:
    """Expected reward minus the exact regularizer, by full summation."""
    prob, lp, p = _exact_inputs(policy, s, spec)
    return float(_objective(prob, lp, p, _mean_reward(prob, p), _entropy(lp, p)))


def exact_gradient(policy: SoftmaxPolicy, s: Scenario, spec: TargetSpec) -> np.ndarray:
    """Analytic gradient of the objective with respect to the logits."""
    prob, lp, p = _exact_inputs(policy, s, spec)
    return _to_n(_gradient(prob, lp, p), prob.cols, policy.n)


def kl_gradient_to_target(policy: SoftmaxPolicy, target: Categorical) -> np.ndarray:
    """Gradient of KL(policy || target) with respect to the logits."""
    cols, lp, p = _policy_rows(policy, target.n)
    if _any(policy.support_mask & ~target.support_mask):
        raise InfiniteDivergence("policy mass outside the target support")
    log_target = target.log_weights if cols is None else target.log_weights[cols]
    return _to_n(_centered(p, lp - log_target), cols, policy.n)


# --------------------------------------------------------------------------
# Monte-Carlo estimators

BASELINES = ("none", "batch_mean")


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


def _check_augmentation(spec: TargetSpec, mode, mara: MaraConfig) -> None:
    """The one rule for augmenting ``spec`` by ``mara`` under the gradient
    ``mode``, in :func:`train` and :func:`mc_gradient` alike."""
    if spec.kind == "generalized":
        raise ValueError("augmentation is defined for reverse and forward only")
    if mara.beta != spec.beta:
        # the augmented rewards and the target must tilt by one beta
        raise ValueError("augmentation beta must equal the objective's beta")
    if spec.kind == "forward" and isinstance(mode, MonteCarlo) and mode.sampled_regularizer:
        # the anchored reference is built from the full reference, so
        # drawing its mass would only add variance
        raise ValueError("augmentation needs the exact forward regularizer")


def reverse_coefficients(
    policy: SoftmaxPolicy, ys: np.ndarray, rewards: np.ndarray,
    ref_logprobs: np.ndarray, beta: float,
) -> np.ndarray:
    """Per-sample coefficient r - beta * log(p(y) / ref(y)); ``rewards``
    and the reference log-masses ``ref_logprobs`` hold one entry per
    sample in ``ys``.

    Raises at beta > 0 if a sample lies outside the reference support,
    where log(p / ref) is infinite; at beta = 0 the reference plays no
    part, so such samples are allowed (as in the exact gradient).
    """
    for a in (rewards, ref_logprobs):
        _check_length(np.size(a), np.size(ys))
    lp_ys = policy.log_probs()[ys]
    # a log-mass is finite or -inf, so one min finds an index off the
    # support, and NaN fails the comparison too
    if beta > 0 and not np.minimum.reduce(ref_logprobs, axis=None) > -np.inf:
        raise InfiniteDivergence("sampled index outside the reference support")
    return _coefficients(rewards, lp_ys, lp_ys - ref_logprobs if beta > 0 else None, beta, None)


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
    Returns the gradient and the batch's anchor (None if none). ``mara``
    must pass the augmentation rule that :class:`TrainConfig` applies, and
    the supports the support rule of :func:`exact_gradient`, both checked
    before any draw: a batch that missed the policy's mass off the
    reference support would otherwise estimate an infinite objective.
    """
    cols, lp, p = _policy_rows(policy, s.n)
    if mara is not None:
        _check_augmentation(spec, mc, mara)
    _check_supports(policy, cols, s, spec)
    g, (anchor,) = _mc_gradient(_Problem(s, [spec], cols), lp, p, mc, [rng],
                                None if mara is None else [mara], policy._table)
    return _to_n(g, cols, policy.n), anchor


@lru_cache(maxsize=128)
def _seeded_inputs(kind: str, beta: float, batch: int, baseline: str, sampled: bool):
    """The validated objective and estimator of a seeded form, built once per
    argument tuple: many seeds of one estimator share them (an invalid
    tuple raises on every call, since a raise is not cached)."""
    return TargetSpec(kind, beta), MonteCarlo(batch, baseline, sampled)


def mc_gradient_reverse(
    policy: SoftmaxPolicy, s: Scenario, beta: float, batch: int,
    baseline: str, seed: int,
) -> np.ndarray:
    """:func:`mc_gradient` for reverse KL on one batch drawn from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec, mc = _seeded_inputs("reverse", beta, batch, baseline, False)
    return mc_gradient(policy, s, spec, mc, rng)[0]


def mc_gradient_forward(
    policy: SoftmaxPolicy, s: Scenario, beta: float, batch: int, seed: int,
    sampled_regularizer: bool = False,
) -> np.ndarray:
    """:func:`mc_gradient` for forward KL on one batch drawn from ``seed``;
    the regularizer is exact, or sampled from the same stream when
    ``sampled_regularizer`` is set."""
    rng = np.random.Generator(np.random.PCG64(seed))
    # forward takes no baseline; MonteCarlo's default one is validated as before
    spec, mc = _seeded_inputs("forward", beta, batch, "batch_mean", sampled_regularizer)
    return mc_gradient(policy, s, spec, mc, rng)[0]


# --------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def _check_gradient(gradient: np.ndarray) -> None:
    finite = np.isfinite(gradient)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        raise NonFiniteGradient(f"non-finite gradient at coordinates {bad[:8].tolist()}")


def _adam(m, v, t: int, params, gradient, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step ``t`` of bias-corrected ascent (Kingma & Ba 2015), in place: the
    moments ``m``, ``v`` and ``params`` take their new values. Each float is
    the one the textbook expression gives, m_hat = m / (1 - beta1^t),
    v_hat = v / (1 - beta2^t), params + lr m_hat / (sqrt(v_hat) + eps);
    only the two work arrays ``step`` and ``d`` are allocated."""
    step = (1 - beta1) * gradient
    m *= beta1
    m += step
    np.square(gradient, out=step)
    step *= 1 - beta2
    v *= beta2
    v += step
    np.divide(m, 1 - beta1**t, out=step)
    step *= lr
    d = v / (1 - beta2**t)
    np.sqrt(d, out=d)
    d += eps
    step /= d
    params += step


def adam_step(
    state: AdamState, params: np.ndarray, gradient: np.ndarray, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> Tuple[AdamState, np.ndarray]:
    """One bias-corrected ascent step; returns (new state, new params). The
    step runs on copies, so ``state`` and ``params`` are left as they are."""
    _check_gradient(gradient)
    t = state.t + 1
    m, v, params = (np.array(a, dtype=float) for a in (state.m, state.v, params))
    _adam(m, v, t, params, gradient, lr, beta1, beta2, eps)
    return AdamState(m, v, t), params


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
        # a comparison, which NaN fails too
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, not {self.learning_rate!r}")
        if not isinstance(self.gradient_mode, (Exact, MonteCarlo)):
            # anything else would train in exact mode unnoticed
            raise ValueError(f"gradient_mode must be an Exact or MonteCarlo instance,"
                             f" not {self.gradient_mode!r}")
        if self.mara is not None:
            _check_augmentation(self.objective, self.gradient_mode, self.mara)


@dataclass(frozen=True, eq=False)
class Trace:
    """A run's trace, one read-only array per field, one entry per step;
    ``above_threshold_mass`` is None without augmentation. Equality is
    identity: compare the columns."""

    objective_value: np.ndarray
    tv_to_target: np.ndarray
    entropy: np.ndarray
    above_threshold_mass: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("objective_value", "tv_to_target", "entropy", "above_threshold_mass"):
            column = getattr(self, name)
            if column is not None:
                object.__setattr__(self, name, _frozen(np.ascontiguousarray(column, dtype=float)))

    # unpickling rebuilds the trace: frozen columns
    __reduce__ = _reduce_through_init


@dataclass(frozen=True)
class TrainResult:
    final_policy: Categorical
    trace: Trace
    anchor_history: List[Optional[int]]
    target: Categorical


def _policy_support(s: Scenario, spec: TargetSpec) -> np.ndarray:
    """Where the trained policy may put mass, its columns: the reference
    support under a reverse-KL term, so that every sample lies on it, and
    every index otherwise."""
    if spec.kind == "forward" or spec.beta == 0:
        return np.ones(s.n, dtype=bool)
    return np.asarray(s.reference.support_mask)


def _trainable(rewards: RewardVector) -> RewardVector:
    """``rewards``, unless their scale is past what Adam can train on."""
    if not rewards.scale <= _TRAINABLE_SCALE:
        raise UntrainableScale(
            f"rewards reach {rewards.scale:.6g} in absolute value, past the trainable scale"
            f" 2**510 (about {_TRAINABLE_SCALE:.3g}): Adam's squared gradient could overflow")
    return rewards


def _training_problem(s: Scenario, cfgs, cols: Optional[np.ndarray]):
    """What the batch ``cfgs`` on ``s`` trains toward: its ``_Problem`` on the
    columns ``cols``, a target per row, the above-threshold column positions
    and the global anchor (each None without augmentation, the anchor also
    when no index qualifies). An anchored run reads at ``slice(None)`` the
    view that the Monte-Carlo step reads at its batch: ``reward_view`` per
    row (reverse, which ``RewardVector`` checks finite), or
    ``anchored_rewards`` and ``anchored_reference``, shared by every row.
    The rewards a run trains on, a view included, must be :func:`_trainable`;
    they are checked before any target is solved."""
    specs, mara = [c.objective for c in cfgs], cfgs[0].mara
    above = anchor = rewards = reference = None
    if mara is not None:
        r = s.rewards.values
        tau = mara_mod.resolve_threshold(mara.threshold_rule, r[s.reference.support_mask])
        above = np.flatnonzero((r if cols is None else r[cols]) >= tau)
        anchor = mara_mod.global_anchor(s, tau)
    if anchor is None:
        _trainable(s.rewards)
        targets = [analytic_target(s, sp).distribution for sp in specs]
    elif specs[0].kind == "forward":
        reference = mara_mod.anchored_reference(s, tau, anchor)
        anchored = _trainable(RewardVector(mara_mod.anchored_rewards(s, tau, anchor, slice(None))))
        targets = [analytic_target(Scenario(reference, anchored), sp).distribution for sp in specs]
        rewards = anchored.values
    else:
        views = [mara_mod.reward_view(s, sp.beta, tau, anchor, slice(None)) for sp in specs]
        rewards = _per_row([_trainable(RewardVector(v)).values for v in views])
        targets = [mara_mod.mara_target(s, sp.beta, tau, anchor) for sp in specs]
    return _Problem(s, specs, cols, rewards, reference), targets, above, anchor


def batch_key(cfg: TrainConfig) -> tuple:
    """What cells on one scenario must share to train as one batch: the
    family, the gradient mode, the step count, the learning rate, the
    augmentation's threshold rule and the kernel branches (beta > 0 or
    not, eta > 0 or not). Beta, eta and the seed may differ."""
    spec, mara = cfg.objective, cfg.mara
    return (spec.kind, cfg.gradient_mode, cfg.steps, cfg.learning_rate,
            None if mara is None else mara.threshold_rule, spec.beta > 0, spec.eta > 0)


class _Cells:
    """A batch of cells in :func:`train_cells`: per row the logits, Adam's
    moments, the problem, the generator, the anchors and the trace block,
    each a stack over the rows (1-d for a single cell). Its run goes to the
    end or raises."""

    def __init__(self, s: Scenario, cfgs):
        cfg = cfgs[0]
        self.steps, self.lr, self.batched = cfg.steps, cfg.learning_rate, len(cfgs) > 1
        self.n, self.mask = s.n, _policy_support(s, cfg.objective)
        self.cols = _columns(self.mask)
        self.k = self.n if self.cols is None else self.cols.size
        # what does not change from step to step is computed once, here; no
        # support check: the mask is _policy_support's, and anchors keep it
        self.prob, self.targets, self.above, self.global_anchor = _training_problem(
            s, cfgs, self.cols)
        self.mc = cfg.gradient_mode if isinstance(cfg.gradient_mode, MonteCarlo) else None
        # exact mode draws nothing, and its marker seed may be negative
        self.rngs = self.maras = None
        if self.mc is not None:
            self.rngs = [np.random.Generator(np.random.PCG64(c.seed)) for c in cfgs]
            if cfg.mara is not None:
                self.maras = [c.mara for c in cfgs]
        self.anchors: List[List[Optional[int]]] = [[] for _ in cfgs]
        self.target_probs = _per_row([self.prob.at_cols(t.probs) for t in self.targets])
        shape = (self.steps, len(cfgs)) if self.batched else (self.steps,)
        self.trace = [np.empty(shape) for _ in range(3)]
        self.trace.append(None if self.above is None else np.empty(shape))
        self.block_start = 0
        size = max(1, min(self.steps, _BLOCK_BYTES // (8 * self.k * len(cfgs))))
        shape = (size, len(cfgs), self.k) if self.batched else (size, self.k)
        self.block = np.empty(shape), np.empty(shape)
        self.scratch = np.empty(shape)

    def flush(self, stop: int) -> None:
        """Compute the trace of the steps from ``block_start`` to ``stop``
        from the block, as row reductions."""
        start, lp, p = self.block_start, *self.block
        # a lone row is reduced as the 1-d row it is: at large k, a (1, k)
        # stack pays for broadcasting against the (k,) rewards and target
        lone = not self.batched and stop - start == 1
        rows = 0 if lone else slice(0, stop - start)
        values = _trace_fields(self.prob, lp[rows], p[rows], self.scratch[rows],
                               self.target_probs, self.above)
        for column, value in zip(self.trace, values):
            if column is not None:
                column[start:stop] = value if lone else value[..., 0]
        self.block_start = stop

    def run(self) -> List[TrainResult]:
        mc, lr = self.mc, self.lr
        shape = (len(self.targets), self.k) if self.batched else (self.k,)
        x, m, v = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        lp, p = _softmax(x)
        for step in range(self.steps):
            if mc is None:
                g = _gradient(self.prob, lp, p)
            else:
                g, anchors = _mc_gradient(self.prob, lp, p, mc, self.rngs, self.maras)
            _adam(m, v, step + 1, x, g, lr)
            if not np.isfinite(x).all():
                # a non-finite gradient always leaves NaN logits: NaN spreads,
                # and +-inf makes m_hat / sqrt(v_hat) inf / inf. So the
                # gradient, which Adam does not write, is checked only here;
                # its coordinates are named over all n, not over the columns
                _check_gradient(_to_n(g, self.cols, self.n))
                _check_logits(x)  # else the logits overflowed
            if self.maras is not None:
                for history, anchor in zip(self.anchors, anchors):
                    history.append(anchor)
            if step - self.block_start == len(self.block[0]):
                self.flush(step)
            slot = step - self.block_start
            lp, p = _softmax(x, out=(self.block[0][slot], self.block[1][slot]))
        self.flush(self.steps)
        results = []
        for j, (target, history) in enumerate(zip(self.targets, self.anchors)):
            logits = x[j] if self.batched else x
            final = SoftmaxPolicy(_to_n(logits, self.cols, self.n), self.mask).distribution()
            columns = [None if c is None else (c[:, j] if self.batched else c)
                       for c in self.trace]
            if self.maras is None and self.above is not None:
                # exact mode anchors over the whole support
                history = [self.global_anchor] * self.steps
            results.append(TrainResult(final_policy=final, trace=Trace(*columns),
                                       anchor_history=history, target=target))
        return results


def train_cells(s: Scenario, cfgs) -> List[Union[TrainResult, Exception]]:
    """Train the cells ``cfgs`` on ``s``, which must share a
    :func:`batch_key`, as one program over a (C, k) logits matrix; each row
    equals its cell trained alone, bit for bit. A batch that raises trains
    again cell by cell through :func:`train`, so each cell gets its result
    or, in its place, the exception it raises alone; a failure costs the
    batch plus one run per cell. No cells give no results."""
    if any(batch_key(c) != batch_key(cfgs[0]) for c in cfgs[1:]):
        raise ValueError("the cells of a batch must share their batch_key")
    if len(cfgs) > 1:
        try:
            return _Cells(s, cfgs).run()
        except Exception:  # some cell fails; find which, and keep the others
            pass
    outcomes: List[Union[TrainResult, Exception]] = []
    for cfg in cfgs:
        try:
            outcomes.append(train(s, cfg))
        except Exception as exc:  # this cell's own failure
            outcomes.append(exc)
    return outcomes


def train(s: Scenario, cfg: TrainConfig) -> TrainResult:
    """Run the optimization loop; deterministic for a given config. The
    program of :func:`train_cells` on one cell."""
    (result,) = _Cells(s, [cfg]).run()
    return result
