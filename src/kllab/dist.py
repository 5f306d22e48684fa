"""Finite-support categorical distributions with log-space arithmetic.

All distribution math in this package runs through :class:`Categorical`,
which stores natural-log masses and an explicit support mask. Zero-mass
indices are exact (log-mass ``-inf``), never a tiny epsilon.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InfiniteDivergence, InvalidDistribution

# Normalized masses must sum to 1 within this tolerance.
NORMALIZATION_TOL = 1e-12

# the reductions that np.sum, np.max, np.min, np.any and np.all make, without
# their Python wrappers, which cost more than reducing a hundred floats; the
# sums are the same pairwise sums, bit for bit
_sum = np.add.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce
_any = np.logical_or.reduce
_all = np.logical_and.reduce


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _reduce_through_init(self):
    """Pickle a dataclass as a call of its constructor on its init fields, so
    that unpickling validates and freezes its arrays again."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class Categorical:
    """Probability distribution over ``n`` indices, stored as log-masses.

    ``log_weights`` is normalized (masses sum to 1); masked indices hold
    ``-inf`` and are never sampled. ``support_mask``, the finite entries, is
    derived from them. Instances are immutable.
    """

    log_weights: np.ndarray
    support_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.ndim != 1 or lw.size < 1:
            raise InvalidDistribution("log_weights must be a non-empty 1-d vector")
        # the max is NaN if any entry is, else +inf if any entry is
        if not _max(lw) < np.inf:
            raise InvalidDistribution("log_weights must be finite or -inf")
        mask = np.isfinite(lw)
        if not _any(mask):
            raise InvalidDistribution("empty support")
        masses = lw[mask]
        total = _sum(np.exp(masses, out=masses))
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
    :class:`InvalidDistribution` when no entry is finite, else when one is
    NaN or +inf. One max validates the input, and one buffer holds first
    the log-sum-exp terms and then the shifted weights, which become the
    result's ``log_weights``; the input is not written.
    """
    lw = np.asarray(log_weights, dtype=float)
    # NaN if any entry is, else +inf if any entry is, -inf if none is finite;
    # over every axis, so that an input that is not 1-d reaches Categorical,
    # which rejects it
    top = _max(lw, axis=None) if lw.size else math.nan
    if not math.isfinite(top):
        if not _any(np.isfinite(lw)):
            raise InvalidDistribution("no finite log-weight to normalize")
        raise InvalidDistribution("log_weights must be finite or -inf")
    if lw.ndim == 0:
        # Categorical's rule; the buffer below would be a scalar, not an array
        raise InvalidDistribution("log_weights must be a non-empty 1-d vector")
    # lw - top overflows to -inf, the log of a zero term, only if the lowest
    # finite log-weight less top does: decided in Python floats, which round
    # as NumPy does, so that the plain path makes no errstate
    edge = not math.isfinite(-sys.float_info.max - float(top))
    with np.errstate(over="ignore") if edge else nullcontext():
        shifted = np.subtract(lw, top)
        # the log-sum-exp of lw, its terms written into the buffer
        lse = top + np.log(_sum(np.exp(shifted, out=shifted), axis=None))
        np.subtract(lw, lse, out=shifted)
    # one exact renormalization pass to land within NORMALIZATION_TOL; the
    # entries off the support are -inf (lw <= lse), and -inf minus a finite
    # shift stays -inf, so the pass runs over the whole buffer
    terms = shifted[np.isfinite(shifted)]
    shifted -= np.log(_sum(np.exp(terms, out=terms)))
    # freed before Categorical gathers the masses again: it finds the
    # support itself, from the finite entries it validates
    del terms
    return Categorical(shifted)


def from_probs(probs) -> Categorical:
    """Build a Categorical from (possibly unnormalized) nonnegative masses."""
    p = np.asarray(probs, dtype=float)
    if _any(p < 0, axis=None):
        raise InvalidDistribution("negative mass")
    with np.errstate(divide="ignore"):
        return normalize(np.log(p))


def entropy(p: Categorical) -> float:
    """Shannon entropy in nats; masked indices contribute zero."""
    lw = p.log_weights[p.support_mask]
    return float(-_sum(np.exp(lw) * lw))


def kl(p: Categorical, q: Categorical) -> float:
    """KL(p || q) in nats with the 0 log 0 = 0 convention.

    Requires support(p) to be contained in support(q); otherwise raises
    :class:`InfiniteDivergence`.
    """
    if p.n != q.n:
        raise InvalidDistribution("length mismatch")
    if _any(p.support_mask & ~q.support_mask):
        raise InfiniteDivergence("support(p) not contained in support(q)")
    m = p.support_mask
    lw = p.log_weights[m]
    return float(_sum(np.exp(lw) * (lw - q.log_weights[m])))


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Total variation distance, 0.5 * sum |p - q|."""
    if p.n != q.n:
        raise InvalidDistribution("length mismatch")
    return float(0.5 * _sum(np.abs(p.probs - q.probs)))


def cdf_table(active: Optional[np.ndarray], masses: np.ndarray):
    """The :func:`draw` table of ``masses`` at the indices ``active``: their
    running sum along the last axis, its last entry pinned to 1. Each row
    of a 2-d ``masses`` gives the table of one row of uniforms. With
    ``active`` None the table draws positions along that axis. Indices
    left out of ``active`` can never be drawn."""
    cdf = masses.cumsum(axis=-1)
    cdf[..., -1] = 1.0
    return active, cdf


def draw(table, u: np.ndarray) -> np.ndarray:
    """Map uniforms ``u`` in [0, 1) to indices through a :func:`cdf_table`
    table, the package's one inverse-CDF sampler; a table of rows maps the
    row of ``u`` with the same index. A table without indices (``active``
    None) gives the positions themselves."""
    active, cdf = table
    if cdf.ndim == 1:
        pos = cdf.searchsorted(u, side="right")
    else:
        pos = np.stack([c.searchsorted(v, side="right") for c, v in zip(cdf, u)])
    return pos if active is None else active[pos]


@dataclass(frozen=True)
class RewardVector:
    """One finite reward per support index. ``scale``, the largest |r|, is
    the package's one float-limit rule: for c > 0 some r / c overflows
    exactly when the Python float ``scale / c`` does (same rounding)."""

    values: np.ndarray
    scale: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("rewards must be a non-empty 1-d vector")
        # NaN if any entry is, inf if one is
        scale = max(float(_max(v)), -float(_min(v)))
        if not scale < math.inf:
            raise ValueError("rewards must be finite")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "scale", scale)

    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Scenario:
    """A (reference distribution, reward vector) problem instance.

    ``reference_probs`` is the reference's mass and ``reference_table`` its
    :func:`cdf_table` table over the support indices, each built on first
    read and then kept, read-only, for the scenario's lifetime.
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
        active = np.flatnonzero(self.reference.support_mask)
        _, cdf = cdf_table(active, np.exp(self.reference.log_weights[active]))
        return _frozen(active), _frozen(cdf)

    @cached_property
    def _reference_full(self) -> bool:
        """Whether the reference has mass at every index, so that no
        policy's support leaves it: read by the gradients' support rule."""
        return bool(_all(self.reference.support_mask))
