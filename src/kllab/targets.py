"""Exact optimal distributions for regularized reward maximization.

Two families:

* generalized (reverse-KL beta plus entropy eta) -> tempered-reference
  tilt ``ref^(beta/(beta+eta)) * exp(R/(beta+eta))``; the reverse-KL
  optimum is its eta = 0 member,
* forward-KL penalty -> rational form with a normalization multiplier
  found by root-finding (plus the off-support leftover-mass regime).

Also the closed-form log probability ratio between two indices under the
reverse-KL optimum, and the coefficient at which two indices trade places.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

# _all, _any, _max, _min and _sum are NumPy's reductions without the Python
# wrappers of np.all, np.any, np.max, np.min and np.sum, which cost more than
# reducing a hundred floats
from .dist import Categorical, Scenario, _all, _any, _exp_at, _max, _min, _sum, normalize
from .errors import (
    InvalidCoefficient,
    NoFiniteFlip,
    SolverFailure,
    UndefinedRatio,
)

KINDS = ("reverse", "forward", "generalized")


def check_coefficients(kind: str, beta: float, eta: float = 0.0) -> None:
    """The admissibility rule of every objective's coefficients: nonnegative
    with a finite sum (the tilt divides by it), so each finite too, ``eta``
    for ``generalized`` only, ``beta + eta > 0``."""
    if kind not in KINDS:
        raise InvalidCoefficient(f"unknown kind {kind!r}")
    # Python comparisons, which NaN fails too; NumPy's cost ~1 us on a float
    if not (0.0 <= beta and 0.0 <= eta and beta + eta < math.inf):
        raise InvalidCoefficient(f"beta, eta must be >= 0 with a finite sum, not {beta!r}, {eta!r}")
    if kind != "generalized" and eta != 0:
        raise InvalidCoefficient(f"{kind} takes no eta")
    if not beta + eta > 0:
        raise InvalidCoefficient("beta + eta must be > 0")


@dataclass(frozen=True)
class TargetSpec:
    """Which regularized objective, and with which coefficients.

    ``eta`` (the entropy coefficient) belongs to ``generalized`` only;
    reverse and forward reject a nonzero one."""

    kind: str
    beta: float
    eta: float = 0.0

    def __post_init__(self):
        check_coefficients(self.kind, self.beta, self.eta)


@dataclass(frozen=True)
class Solution:
    """An objective's optimum and what its solve found besides.

    ``lam`` is the forward-KL normalization multiplier (None for the tilt
    families, which have none), and ``off_support_mass`` the mass the
    forward optimum puts off the reference support (0 elsewhere).
    """

    distribution: Categorical
    lam: float | None = None
    off_support_mass: float = 0.0

    @property
    def boundary_case(self) -> bool:
        """The forward regime where the multiplier is pinned to the best
        off-support reward and the leftover mass sits there: the only one
        with mass off the support."""
        return self.off_support_mass > 0


def reverse_kl_target(s: Scenario, beta: float) -> Categorical:
    """Optimum of reward maximization with a reverse-KL penalty.

    Proportional to ``reference * exp(R / beta)``; masked wherever the
    reference is masked. This is :func:`generalized_target` at eta = 0,
    bit for bit (``beta / beta`` is exactly 1).
    """
    check_coefficients("reverse", beta)
    return generalized_target(s, beta, 0.0)


def generalized_target(s: Scenario, beta: float, eta: float) -> Categorical:
    """Optimum under combined reverse-KL (beta) and entropy (eta) penalties.

    Proportional to ``reference^(beta/(beta+eta)) * exp(R/(beta+eta))``.
    With eta = 0 this is the reverse-KL target. With beta = 0 the
    reference enters as ``reference^0 = 1`` even at masked indices, so
    the entropy-only target is a full-support softmax of ``R / eta``.
    """
    check_coefficients("generalized", beta, eta)
    return normalize(_tilt_log_masses(s, beta, beta + eta))


def _tilt_log_masses(s: Scenario, beta: float, total: float, top=None) -> np.ndarray:
    """The unnormalized log-masses of the tilt, ``-inf`` off the reference
    support (every index at beta = 0). Where some ``r / total`` overflows,
    the rewards are shifted by ``top``, or, if it is None and the plain tilt
    is not finite, by the largest reward on the support."""
    plain = s.rewards.scale / total < math.inf
    weight = beta / total
    # on the support's span, or on every index: at beta = 0, and where the
    # support is no run, the tilt finite and the weight positive (weight *
    # -inf is -inf off the support; cheaper than two gathers and a scatter)
    support = s.reference.support
    if beta == 0 or plain and weight and not isinstance(support, slice):
        support = slice(None)
    r = s.rewards.values[support]
    if plain:
        tilt = r / total
    else:
        # a finite reward near the float limit: a shift by a constant
        # leaves the distribution as it is
        with np.errstate(over="ignore"):
            if top is None:
                tilt = r / total
                top = None if _all(np.isfinite(tilt)) else _max(r)
            if top is not None:
                tilt = (r - top) / total
    # in place: the tilt is this call's own. A weight of 0 adds nothing, and
    # one of 1 (eta = 0) adds the log-masses as they are: 1 * x is x
    if weight:
        lref = s.reference.log_weights[support]
        tilt += lref if weight == 1.0 else weight * lref
    return _on_support(s.n, support, tilt)


def _on_support(n: int, support, log_masses) -> np.ndarray:
    """A length-``n`` row of ``log_masses`` at a support index and ``-inf``
    elsewhere: ``log_masses`` itself if it spans every index, else a new row
    (np.full's allocation and fill, without its wrapper, then a scatter)."""
    if log_masses.size == n:
        return log_masses
    row = np.empty(n)
    row.fill(-np.inf)
    row[support] = log_masses
    return row


def _mass_terms(lam: float, w, rewards):
    """``F(lam)`` with the terms Newton reuses: ``w / (lam - R)`` and ``lam - R``."""
    gap = lam - rewards
    q = w / gap
    return float(_sum(q)), q, gap


def _midpoint(lo: float, hi: float) -> float:
    """``0.5 * (lo + hi)``, or ``lo + 0.5 * (hi - lo)`` where that sum
    overflows (a bracket near the float limit)."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else lo + 0.5 * (hi - lo)


def _solve_lambda(beta: float, w, rewards, lower: float, at_lower=None) -> float:
    """Root of the on-support mass map ``F(lam) = sum(w / (lam - R))``,
    ``w = beta * ref``, above ``lower``, by safeguarded Newton.

    ``lower`` is the infimum of admissible multipliers (mass -> inf or
    already >= 1 there); the bracket ceiling ``lower + beta + 1`` always
    has mass < 1 because the reference masses sum to 1. At an open lower
    end the bracket steps inside until F >= 1 and never evaluates F at
    ``lower`` itself, where it is infinite. At a closed lower end a caller
    that has evaluated F there passes its :func:`_mass_terms` as
    ``at_lower``, so that Newton's first point is not evaluated again.

    F is convex and strictly decreasing on ``(lower, inf)``, so
    ``g = 1/F - 1`` is concave and increasing there: Newton on g started
    at the lower bracket end climbs monotonically to the root. An iterate
    that leaves the bracket or is not finite is replaced by a bisection
    step. Every evaluation narrows the bracket ``F(lo) > 1 >= F(hi)``;
    once Newton stops moving, steps of ``math.nextafter`` (doubling in
    length where F is flat over several floats) close it to adjacent
    floats. The result, their :func:`_midpoint`, is therefore the float
    that bisecting the same bracket to the end returns, since the computed
    F is monotone in ``lam``.
    """
    lo = lower
    hi = lower + beta + 1.0
    eps = 1e-12 * max(1.0, abs(lower))
    open_end = bool(_any(rewards >= lower))
    # F and its Newton terms at lo, when the caller or the bracket search
    # evaluated them
    at_lo = at_lower
    if open_end:
        # mass diverges at lower: step inside until >= 1
        lo = lower + eps
        tries = 0
        while lo > lower:
            at_lo = _mass_terms(lo, w, rewards)
            if at_lo[0] >= 1.0:
                break
            at_lo = None
            hi = lo  # F < 1 here as well: a closer ceiling
            eps *= 0.25
            lo = lower + eps
            tries += 1
            if tries > 60:
                raise SolverFailure("could not bracket the multiplier from below")
    tries = 0
    while _mass_terms(hi, w, rewards)[0] >= 1.0:
        hi = lower + (hi - lower) * 2.0
        tries += 1
        if tries > 60:
            raise SolverFailure("could not bracket the multiplier from above")
    if hi == math.inf:
        # beta near the float limit: the ceiling overflowed before F fell below 1
        raise SolverFailure("the multiplier's bracket ceiling is not finite")
    # Newton cannot start where F is infinite; a bisection step comes first
    x = None if open_end and lo == lower else lo
    crawl = 0
    while math.nextafter(lo, hi) < hi:
        if x is None:
            x = _midpoint(lo, hi)
        # Newton's start is the last lower point evaluated before the loop
        f, q, gap = at_lo if at_lo is not None else _mass_terms(x, w, rewards)
        at_lo = None
        # x is lo only at the start, which stays the bracket's lower end
        # even where F(lo) is exactly 1
        if x > lo:
            if f > 1.0:
                lo = x
            else:
                hi = x
        # F's derivative is -sum(q / gap); the quotient overwrites gap. Where
        # that sum underflows to 0 the step is NaN, and a bisection step follows
        slope = float(_sum(np.divide(q, gap, out=gap)))
        nxt = x + f * (f - 1.0) / slope if slope else math.nan
        if nxt == x:
            # Newton has stopped moving (F is flat to the last bit here):
            # step toward the open side, one float and then twice as far
            # each time, until the bracket closes
            ulp = math.nextafter(x, hi if x == lo else lo) - x
            nxt = x + ulp * 2.0 ** crawl
            crawl += 1
        else:
            crawl = 0
        x = nxt if lo < nxt < hi else None
    return float(_midpoint(lo, hi))


def _float_limit(beta: float, gap: float, w_min: float, scale: float):
    """The context of a forward solve: one that ignores overflow and division
    by zero if its floats can reach the float limit, else none. Each weight
    lies in [w_min, beta] and they sum to about beta. Each lam - R is below
    (beta + 1 + scale) 2**63: lam stays within (beta + 1 + eps) 2**60 of
    lower, eps = 1e-12 max(1, |lower|), and R >= -scale. It is at least
    ``gap`` at a closed lower end (gap > 0); above an open one the bracket
    search steps down to lower + eps / 4**60, eps >= 1e-12, or stops a float
    above lower (quartered: a margin for rounding). Python rounds as NumPy
    does, and each bound is monotone."""
    g = min(gap, 1.0) if gap > 0 else 1e-12 * 0.25**61
    # the masses w / (lam - R), Newton's w / (lam - R)**2, their sums, and
    # the smallest mass
    if 4.0 * beta / g / g < math.inf and w_min / ((beta + 1.0 + scale) * 2.0**63) > 0.0:
        return nullcontext()
    return np.errstate(over="ignore", divide="ignore")


def _on_support_log_masses(lam: float, w, rewards, s: Scenario) -> np.ndarray:
    """The logs of ``w / (lam - R)``, ``w = beta * ref`` over the reference
    support of ``s``. Indices where ``lam - R`` rounds to 0 (``lam`` within a
    float of the best reward) share the mass the others leave, in proportion
    to their reference mass; where each of those masses underflows to 0, in
    proportion to the exponentials of their log-masses less their max."""
    gap = lam - rewards
    tied = gap == 0.0
    if not _any(tied):
        return np.log(np.divide(w, gap, out=gap), out=gap)
    masses = np.zeros(gap.size)
    free = ~tied
    masses[free] = w[free] / gap[free]
    leftover = max(0.0, 1.0 - float(_sum(masses)))
    lref = s.reference.log_weights[s.reference.support][tied]
    share = np.exp(lref)
    if not _sum(share):
        share = np.exp(lref - _max(lref))
    masses[tied] = leftover * share / _sum(share)
    with np.errstate(divide="ignore"):  # a zero mass is a masked index
        return np.log(masses, out=masses)


def _forward_log_masses(s: Scenario, beta: float):
    """The unnormalized log-masses of the forward-KL optimum, ``-inf`` off
    its support, with the multiplier and the off-support mass (> 0 in the
    boundary regime alone). The length-k arrays of the solve are freed on
    return, before the caller normalizes the log-masses."""
    support = s.reference.support
    values = s.rewards.values
    # this call's own array, scaled in place
    w = _exp_at(s.reference.log_weights, support)
    w *= beta
    r_on = values[support]
    r_max_in = float(_max(r_on))
    off = ~s.reference.support_mask
    r_max_out = float(_max(values, where=off, initial=-np.inf))

    off_mass = 0.0
    # near the float limit an overflowing w / (lam - R) reads as mass >= 1
    # and grows the bracket until it fails with SolverFailure
    with _float_limit(beta, r_max_out - r_max_in, float(_min(w)), s.rewards.scale):
        if r_max_out > r_max_in:
            at_out = _mass_terms(r_max_out, w, r_on)
            z_out = at_out[0]
            if z_out < 1.0:
                lam = r_max_out
                # positive, as z_out < 1: Solution.boundary_case reads the regime from it
                off_mass = 1.0 - z_out
            else:
                lam = _solve_lambda(beta, w, r_on, r_max_out, at_out)
        else:
            lam = _solve_lambda(beta, w, r_on, r_max_in)
        log_on = _on_support_log_masses(lam, w, r_on, s)
    log_masses = _on_support(s.n, support, log_on)
    if off_mass:
        argmax_out = off & (values == r_max_out)
        log_masses[argmax_out] = np.log(off_mass / np.count_nonzero(argmax_out))
    return log_masses, float(lam), off_mass


def forward_kl_target(s: Scenario, beta: float) -> Solution:
    """Optimum of reward maximization with a forward-KL penalty.

    On-support masses are ``beta * reference / (lam - R)`` with ``lam``
    the unique multiplier normalizing the distribution. When the best
    reward lives off the reference support and the on-support mass at
    that reward level falls short of 1, the multiplier is pinned there
    and the leftover mass is spread uniformly over the off-support
    argmax set.
    """
    check_coefficients("forward", beta)
    log_masses, lam, off_mass = _forward_log_masses(s, beta)
    return Solution(normalize(log_masses), lam, off_mass)


def log_prob_ratio(s: Scenario, beta: float, i: int, j: int) -> float:
    """Closed-form log ratio of two indices under the reverse-KL optimum.

    Equals ``log(ref_i / ref_j) + (R_i - R_j) / beta``; the normalization
    constant cancels, so no overflow for any beta: in Python floats, a
    quotient past the float limit is +-inf, without a warning.
    """
    check_coefficients("reverse", beta)
    if not (s.reference.support_mask[i] and s.reference.support_mask[j]):
        raise UndefinedRatio("both indices must carry reference mass")
    lref = s.reference.log_weights
    r = s.rewards.values
    return float(lref[i]) - float(lref[j]) + (float(r[i]) - float(r[j])) / beta


def flip_beta(s: Scenario, i: int, j: int) -> float:
    """Coefficient at which indices i and j get equal target probability.

    ``beta* = (R_j - R_i) / (log ref_i - log ref_j)``. Raises
    :class:`NoFiniteFlip` when the reference log-probs coincide or the
    resulting coefficient is not positive and finite.
    """
    if not (s.reference.support_mask[i] and s.reference.support_mask[j]):
        raise UndefinedRatio("both indices must carry reference mass")
    if i == j:
        raise NoFiniteFlip("identical indices never trade places")
    # Python floats, as the error message shows them
    dref = float(s.reference.log_weights[i]) - float(s.reference.log_weights[j])
    dr = float(s.rewards.values[j]) - float(s.rewards.values[i])
    if dref == 0.0:
        raise NoFiniteFlip("equal reference log-probs: no coefficient equalizes")
    beta_star = dr / dref
    if not math.isfinite(beta_star) or beta_star <= 0:
        raise NoFiniteFlip(f"computed coefficient {beta_star!r} is not positive")
    return beta_star


def analytic_target(s: Scenario, spec: TargetSpec) -> Solution:
    """The optimum of ``spec``'s objective: the forward-KL solve, or the
    tempered tilt (reverse KL is its eta = 0 member) with no multiplier."""
    if spec.kind == "forward":
        return forward_kl_target(s, spec.beta)
    return Solution(generalized_target(s, spec.beta, spec.eta))
