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
from typing import Optional, Union

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
# the context of a plain normalize, made once: a nullcontext is reusable,
# and making one costs about 0.3 us, 3 % of a normalize at n = 100
_PLAIN = nullcontext()


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
    derived from them, and so, once, is ``support``, the index through which
    every read or write of the support goes: ``slice(first, last)`` when the
    finite entries form one run, else ``support_mask``. Either indexes an
    n-vector the same way. Instances are immutable.
    """

    log_weights: np.ndarray
    support_mask: np.ndarray = field(init=False)
    support: Union[slice, np.ndarray] = field(init=False, repr=False, compare=False)

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
        self._settle(lw, mask, _span_and_index(mask)[1])

    def _settle(self, lw: np.ndarray, mask: np.ndarray, support) -> None:
        """Check that the masses at ``support`` sum to 1, then keep the
        arrays, read-only, and the index."""
        total = _sum(_exp_at(lw, support))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistribution(f"masses sum to {total!r}, not 1")
        lw.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "support_mask", mask)
        object.__setattr__(self, "support", support)

    __reduce__ = _reduce_through_init

    @property
    def n(self) -> int:
        return self.log_weights.size

    @property
    def probs(self) -> np.ndarray:
        p = np.zeros(self.n)
        p[self.support] = _exp_at(self.log_weights, self.support)
        return p


def _span_and_index(mask: np.ndarray):
    """The span of a 1-d mask with a True entry, the slice from its first
    True entry to past its last, and the :class:`Categorical` support index:
    the span when every entry in it is True, else the mask. A bool argmax or
    argmin stops at the first entry it looks for, so a run is found in one
    forward scan; only a mask that is no run is scanned again, backward, for
    its last True entry."""
    first = int(mask.argmax())
    # the run's length, 0 when it reaches the end
    run = int(mask[first:].argmin())
    last = first + run if run else mask.size
    # mask[last] is False, so the argmax past it is 0 only if none is True
    if last == mask.size or not mask[last:].argmax():
        span = slice(first, last)
        return span, span
    return slice(first, mask.size - int(mask[::-1].argmax())), mask


def _exp_at(a: np.ndarray, support) -> np.ndarray:
    """The exponentials of ``a`` at a support index, in one new array: a
    slice's view is exponentiated into it, a mask's gather in place."""
    at = a[support]
    return np.exp(at, out=None if type(support) is slice else at)


def normalize(log_weights) -> Categorical:
    """Shift log-weights by their log-sum-exp so the masses sum to 1.

    Entries of ``-inf`` become masked indices. Raises
    :class:`InvalidDistribution` when no entry is finite, else when one is
    NaN or +inf, else when the input is not 1-d. One ``isfinite`` finds the
    support, and the result keeps it as its ``support_mask`` and support
    index. Only the span from the first to the last finite entry is
    exponentiated, into a buffer that is zero outside it: 0 is what the
    slow ``exp(-inf)`` gives there, so the log-sum-exp sums the same n
    terms as over the whole input. The buffer then holds the shifted
    weights, the result's ``log_weights``. The input is not written.
    """
    lw = np.asarray(log_weights, dtype=float)
    # NaN if any entry is, else +inf if any entry is, -inf if none is finite
    top = _max(lw, axis=None) if lw.size else math.nan
    mask = np.isfinite(lw)
    if not math.isfinite(top):
        if not _any(mask, axis=None):
            raise InvalidDistribution("no finite log-weight to normalize")
        raise InvalidDistribution("log_weights must be finite or -inf")
    if lw.ndim != 1:
        raise InvalidDistribution("log_weights must be a non-empty 1-d vector")
    span, support = _span_and_index(mask)
    # lw - top overflows to -inf, the log of a zero term, only if the lowest
    # finite log-weight less top does: decided in Python floats, which round
    # as NumPy does, so that the plain path makes no errstate
    edge = not math.isfinite(-sys.float_info.max - float(top))
    buf = np.zeros(lw.size)
    with np.errstate(over="ignore") if edge else _PLAIN:
        terms = buf[span]
        np.exp(np.subtract(lw[span], top, out=terms), out=terms)
        lse = top + np.log(_sum(buf))
        np.subtract(lw, lse, out=buf)
    if edge:
        # lw - lse can overflow to -inf where lw is finite: a smaller support
        mask = np.isfinite(buf)
        span, support = _span_and_index(mask)
    # one exact renormalization pass to land within NORMALIZATION_TOL; the
    # span's entries off the support stay -inf
    buf[span] -= np.log(_sum(_exp_at(buf, support)))
    result = object.__new__(Categorical)
    result._settle(buf, mask, support)
    return result


def from_probs(probs) -> Categorical:
    """Build a Categorical from (possibly unnormalized) nonnegative masses."""
    p = np.asarray(probs, dtype=float)
    if _any(p < 0, axis=None):
        raise InvalidDistribution("negative mass")
    with np.errstate(divide="ignore"):
        return normalize(np.log(p))


def entropy(p: Categorical) -> float:
    """Shannon entropy in nats; masked indices contribute zero."""
    lw = p.log_weights[p.support]
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
    m = p.support
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


def _scale(v: np.ndarray) -> float:
    """The largest |r| of rewards ``v``: NaN if any entry is, inf if one is."""
    return max(float(_max(v)), -float(_min(v)))


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
        scale = _scale(v)
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
        ref = self.reference
        active = np.flatnonzero(ref.support_mask)
        _, cdf = cdf_table(active, _exp_at(ref.log_weights, ref.support))
        return _frozen(active), _frozen(cdf)

    @cached_property
    def _reference_full(self) -> bool:
        """Whether the reference has mass at every index, so that no
        policy's support leaves it: read by the gradients' support rule."""
        return bool(_all(self.reference.support_mask))
