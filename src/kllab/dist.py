"""Finite-support categorical distributions with log-space arithmetic.

All distribution math in this package runs through :class:`Categorical`,
which stores natural-log masses and an explicit support mask. Zero-mass
indices are exact (log-mass ``-inf``), never a tiny epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import InfiniteDivergence, InvalidDistribution

# Normalized masses must sum to 1 within this tolerance.
NORMALIZATION_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _reduce_through_init(self):
    """Pickle a dataclass as a call of its constructor, so that unpickling
    validates and freezes its arrays again."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def log_sum_exp(values: np.ndarray) -> float:
    """Stable log(sum(exp(values))); ignores -inf entries, returns -inf if all are."""
    values = np.asarray(values, dtype=float)
    m = np.max(values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(values - m))))


@dataclass(frozen=True)
class Categorical:
    """Probability distribution over ``n`` indices, stored as log-masses.

    ``log_weights`` is normalized (masses sum to 1); masked indices hold
    ``-inf`` and are never sampled. Instances are immutable.
    """

    log_weights: np.ndarray
    support_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.ndim != 1 or lw.size < 1:
            raise InvalidDistribution("log_weights must be a non-empty 1-d vector")
        mask = self.support_mask
        if mask is None:
            mask = np.isfinite(lw)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != lw.shape:
            raise InvalidDistribution("support_mask length mismatch")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise InvalidDistribution("log_weights must be finite or -inf")
        if not np.any(mask):
            raise InvalidDistribution("empty support")
        if not np.array_equal(mask, np.isfinite(lw)):
            raise InvalidDistribution("support_mask inconsistent with log_weights")
        total = np.sum(np.exp(lw[mask]))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistribution(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "log_weights", _frozen(lw))
        object.__setattr__(self, "support_mask", _frozen(mask))

    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.log_weights.size

    @property
    def probs(self) -> np.ndarray:
        p = np.zeros(self.n)
        p[self.support_mask] = np.exp(self.log_weights[self.support_mask])
        return p


def normalize(log_weights) -> Categorical:
    """Shift log-weights by their log-sum-exp so the masses sum to 1.

    Entries of ``-inf`` become masked indices. Raises
    :class:`InvalidDistribution` when no entry is finite.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size < 1 or not np.any(np.isfinite(lw)):
        raise InvalidDistribution("no finite log-weight to normalize")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise InvalidDistribution("log_weights must be finite or -inf")
    shifted = lw - log_sum_exp(lw)
    # one exact renormalization pass to land within NORMALIZATION_TOL
    mask = np.isfinite(shifted)
    shifted[mask] -= np.log(np.sum(np.exp(shifted[mask])))
    return Categorical(shifted, mask)


def from_probs(probs) -> Categorical:
    """Build a Categorical from (possibly unnormalized) nonnegative masses."""
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0):
        raise InvalidDistribution("negative mass")
    with np.errstate(divide="ignore"):
        return normalize(np.log(p))


def entropy(p: Categorical) -> float:
    """Shannon entropy in nats; masked indices contribute zero."""
    lw = p.log_weights[p.support_mask]
    return float(-np.sum(np.exp(lw) * lw))


def kl(p: Categorical, q: Categorical) -> float:
    """KL(p || q) in nats with the 0 log 0 = 0 convention.

    Requires support(p) to be contained in support(q); otherwise raises
    :class:`InfiniteDivergence`.
    """
    if p.n != q.n:
        raise InvalidDistribution("length mismatch")
    if np.any(p.support_mask & ~q.support_mask):
        raise InfiniteDivergence("support(p) not contained in support(q)")
    m = p.support_mask
    lw = p.log_weights[m]
    return float(np.sum(np.exp(lw) * (lw - q.log_weights[m])))


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Total variation distance, 0.5 * sum |p - q|."""
    if p.n != q.n:
        raise InvalidDistribution("length mismatch")
    return float(0.5 * np.sum(np.abs(p.probs - q.probs)))


def sample(p: Categorical, rng_seed: int, count: int) -> np.ndarray:
    """Draw ``count`` indices from ``p``, deterministic for a given seed.

    Uses PCG64 uniforms inverted through the CDF over the unmasked
    indices, so masked indices can never be produced.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return draw(inverse_cdf(p.log_weights, p.support_mask), rng.random(count))


def inverse_cdf(log_weights: np.ndarray, support_mask: np.ndarray):
    """The unmasked indices and their running mass, the last pinned to 1:
    the table that :func:`draw` inverts. Masked indices can never be drawn."""
    active = np.flatnonzero(support_mask)
    return cdf_table(active, np.exp(log_weights[active]))


def cdf_table(active: np.ndarray, masses: np.ndarray):
    """The :func:`draw` table of ``masses`` at the indices ``active``: their
    running sum along the last axis, its last entry pinned to 1. Each row
    of a 2-d ``masses`` gives the table of one row of uniforms."""
    cdf = masses.cumsum(axis=-1)
    cdf[..., -1] = 1.0
    return active, cdf


def draw(table, u: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` in [0, 1) to indices through an :func:`inverse_cdf`
    table; a table of rows maps the row of ``u`` with the same index."""
    active, cdf = table
    if cdf.ndim == 1:
        return active[cdf.searchsorted(u, side="right")]
    return active[np.stack([c.searchsorted(v, side="right") for c, v in zip(cdf, u)])]


@dataclass(frozen=True)
class RewardVector:
    """One finite reward per support index."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("rewards must be a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("rewards must be finite")
        object.__setattr__(self, "values", _frozen(v))

    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Scenario:
    """A (reference distribution, reward vector) problem instance.

    ``reference_probs`` is the reference's mass and ``reference_table`` its
    :func:`inverse_cdf` table, each built on first read and then kept,
    read-only, for the scenario's lifetime.
    """

    reference: Categorical
    rewards: RewardVector
    name: str = "scenario"

    def __post_init__(self):
        if self.reference.n != self.rewards.n:
            raise ValueError(
                f"reference has {self.reference.n} entries, rewards {self.rewards.n}"
            )

    # the cached properties are no fields: a copy recomputes them
    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.reference.n

    @cached_property
    def reference_probs(self) -> np.ndarray:
        return _frozen(self.reference.probs)

    @cached_property
    def reference_table(self):
        active, cdf = inverse_cdf(self.reference.log_weights, self.reference.support_mask)
        return _frozen(active), _frozen(cdf)
