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
from dataclasses import dataclass

import numpy as np

from .dist import Categorical, Scenario, from_probs, normalize
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
class ForwardSolution:
    """Forward-KL optimum plus its normalization multiplier.

    ``boundary_case`` marks the regime where the multiplier is pinned to
    the best off-support reward and leftover mass sits off-support.
    """

    distribution: Categorical
    lam: float
    off_support_mass: float
    boundary_case: bool


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
    total = beta + eta
    r = s.rewards.values
    try:
        with np.errstate(over="raise"):
            tilt = r / total
    except FloatingPointError:
        # a finite reward near the float limit: off the support the tilt
        # does not count, and on it a shift by the largest reward there
        # leaves the distribution as it is
        support = s.reference.support_mask if beta > 0 else np.ones(s.n, dtype=bool)
        with np.errstate(over="ignore"):
            tilt = np.where(support, r / total, 0.0)
            if not np.isfinite(tilt).all():
                tilt = np.where(support, (r - r[support].max()) / total, 0.0)
    if beta == 0:
        return normalize(tilt)
    # in place, to keep one length-n array fewer alive: the tilt is this
    # call's own
    tilt += (beta / total) * s.reference.log_weights
    tilt[~s.reference.support_mask] = -np.inf
    return normalize(tilt)


def _mass_terms(lam: float, w, rewards):
    """``F(lam)`` with the terms Newton reuses: ``w / (lam - R)`` and ``lam - R``."""
    gap = lam - rewards
    q = w / gap
    return float(np.sum(q)), q, gap


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
    once Newton stops moving, steps of ``np.nextafter`` (doubling in
    length where F is flat over several floats) close it to adjacent
    floats. The result ``0.5 * (lo + hi)`` is therefore the
    float that bisecting the same bracket to the end returns, since the
    computed F is monotone in ``lam``.
    """
    lo = lower
    hi = lower + beta + 1.0
    eps = 1e-12 * max(1.0, abs(lower))
    open_end = bool(np.any(rewards >= lower))
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
    while np.nextafter(lo, hi) < hi:
        if x is None:
            x = 0.5 * (lo + hi)
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
        nxt = x + f * (f - 1.0) / float(np.sum(q / gap))
        if nxt == x:
            # Newton has stopped moving (F is flat to the last bit here):
            # step toward the open side, one float and then twice as far
            # each time, until the bracket closes
            ulp = np.nextafter(x, hi if x == lo else lo) - x
            nxt = x + ulp * 2.0 ** crawl
            crawl += 1
        else:
            crawl = 0
        x = nxt if lo < nxt < hi else None
    return float(0.5 * (lo + hi))


def _on_support_masses(lam: float, w, ref_probs, rewards) -> np.ndarray:
    """``w / (lam - R)``, ``w = beta * ref``. Indices where ``lam - R``
    rounds to 0 (``lam`` within a float of the best reward) share the mass
    the others leave, in proportion to their reference mass."""
    gap = lam - rewards
    tied = gap == 0.0
    if not np.any(tied):
        return w / gap
    masses = np.zeros(gap.size)
    free = ~tied
    masses[free] = w[free] / gap[free]
    leftover = max(0.0, 1.0 - float(np.sum(masses)))
    masses[tied] = leftover * ref_probs[tied] / np.sum(ref_probs[tied])
    return masses


def forward_kl_target(s: Scenario, beta: float) -> ForwardSolution:
    """Optimum of reward maximization with a forward-KL penalty.

    On-support masses are ``beta * reference / (lam - R)`` with ``lam``
    the unique multiplier normalizing the distribution. When the best
    reward lives off the reference support and the on-support mass at
    that reward level falls short of 1, the multiplier is pinned there
    and the leftover mass is spread uniformly over the off-support
    argmax set.
    """
    check_coefficients("forward", beta)
    mask = s.reference.support_mask
    ref_probs = np.exp(s.reference.log_weights[mask])
    w = beta * ref_probs
    r_on = s.rewards.values[mask]
    r_max_in = float(np.max(r_on))
    off = ~mask
    r_max_out = float(np.max(s.rewards.values[off])) if np.any(off) else -np.inf

    boundary = False
    off_mass = 0.0
    masses = np.zeros(s.n)
    # near beta's float limit w / (lam - R) overflows, reads as mass >= 1 and
    # grows the bracket until it fails with SolverFailure
    with np.errstate(over="ignore"):
        if r_max_out > r_max_in:
            at_out = _mass_terms(r_max_out, w, r_on)
            z_out = at_out[0]
            if z_out < 1.0:
                lam = r_max_out
                boundary = True
                off_mass = 1.0 - z_out
                argmax_out = off & (s.rewards.values == r_max_out)
                masses[argmax_out] = off_mass / np.count_nonzero(argmax_out)
            else:
                lam = _solve_lambda(beta, w, r_on, r_max_out, at_out)
        else:
            lam = _solve_lambda(beta, w, r_on, r_max_in)
    masses[mask] = _on_support_masses(lam, w, ref_probs, r_on)
    return ForwardSolution(
        distribution=from_probs(masses), lam=float(lam), off_support_mass=off_mass,
        boundary_case=boundary,
    )


def log_prob_ratio(s: Scenario, beta: float, i: int, j: int) -> float:
    """Closed-form log ratio of two indices under the reverse-KL optimum.

    Equals ``log(ref_i / ref_j) + (R_i - R_j) / beta``; the normalization
    constant cancels, so no overflow for any beta.
    """
    check_coefficients("reverse", beta)
    if not (s.reference.support_mask[i] and s.reference.support_mask[j]):
        raise UndefinedRatio("both indices must carry reference mass")
    lref = s.reference.log_weights
    r = s.rewards.values
    return float(lref[i] - lref[j] + (r[i] - r[j]) / beta)


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
    dref = s.reference.log_weights[i] - s.reference.log_weights[j]
    dr = s.rewards.values[j] - s.rewards.values[i]
    if dref == 0.0:
        raise NoFiniteFlip("equal reference log-probs: no coefficient equalizes")
    beta_star = dr / dref
    if not np.isfinite(beta_star) or beta_star <= 0:
        raise NoFiniteFlip(f"computed coefficient {beta_star!r} is not positive")
    return float(beta_star)


def analytic_target(s: Scenario, spec: TargetSpec) -> Categorical:
    """The optimum of ``spec``'s objective: the forward-KL distribution, or
    the tempered tilt (reverse KL is its eta = 0 member)."""
    if spec.kind == "forward":
        return forward_kl_target(s, spec.beta).distribution
    return generalized_target(s, spec.beta, spec.eta)
