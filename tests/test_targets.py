import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kllab
from conftest import make_scenario, random_scenario
from kllab import targets
from kllab.dist import RewardVector, Scenario, from_probs, normalize
from kllab.errors import (
    InvalidCoefficient, KllabError, NoFiniteFlip, SolverFailure, UndefinedRatio,
)
from kllab.harness import SCENARIO_CONFIGS, SweepSpec, scenario_by_name
from kllab.mara import Constant, MaraConfig, global_anchor, mara_target
from kllab.scenario_io import scenario_from_dict
from kllab.targets import (
    TargetSpec,
    analytic_target,
    flip_beta,
    forward_kl_target,
    generalized_target,
    log_prob_ratio,
    reverse_kl_target,
)
from kllab.trainer import TrainConfig

# sigmoid(1): optimal two-point mass on the rewarded index at beta = 1
SIG1 = 0.7310585786300049


def test_target_spec_validation():
    with pytest.raises(InvalidCoefficient):
        TargetSpec("reverse", 0.0)
    with pytest.raises(InvalidCoefficient):
        TargetSpec("forward", -1.0)
    with pytest.raises(InvalidCoefficient):
        TargetSpec("generalized", 0.0, 0.0)
    with pytest.raises(InvalidCoefficient):
        TargetSpec("sideways", 1.0)
    TargetSpec("generalized", 0.0, 1.0)  # entropy-only is admissible


def test_generalized_rejects_a_coefficient_sum_that_overflows():
    # each coefficient is finite, but beta + eta is inf, which once flattened
    # the tilt to uniform
    s = make_scenario([0.9, 0.1], [0.0, 1.0])
    with pytest.raises(InvalidCoefficient, match="finite sum"):
        generalized_target(s, 1e308, 1e308)


@pytest.mark.parametrize("beta, eta", [(0.5, 0.0), (0.0, 0.5), (0.25, 0.25)])
def test_generalized_tilt_of_a_reward_near_the_float_limit(beta, eta):
    # R / (beta + eta) overflows at index 0, whose reward dwarfs the others
    s = make_scenario([0.2, 0.3, 0.5], [1e308, 0.5, 1.0])
    np.testing.assert_array_equal(generalized_target(s, beta, eta).probs, [1.0, 0.0, 0.0])
    # off the reference support such a reward does not count, and the
    # target is the float it is with any other reward there
    masked = make_scenario([0.0, 0.4, 0.6], [1e308, 0.5, 1.0])
    plain = make_scenario([0.0, 0.4, 0.6], [0.0, 0.5, 1.0])
    assert (generalized_target(masked, 0.5, 0.0).log_weights.tobytes()
            == generalized_target(plain, 0.5, 0.0).log_weights.tobytes())


@pytest.mark.parametrize("kind", ["reverse", "forward"])
def test_target_spec_rejects_eta_outside_generalized(kind):
    # reverse KL is the generalized family at eta = 0; forward has no eta
    with pytest.raises(InvalidCoefficient):
        TargetSpec(kind, 0.5, 0.1)
    TargetSpec("generalized", 0.5, 0.1)


# every entry point of the coefficient rule, called with one coefficient
# ``c`` on two_point; forward_kl_target gets a test of its own below
COEFFICIENT_ENTRY_POINTS = {
    "TargetSpec-reverse": lambda s, c: TargetSpec("reverse", c),
    "TargetSpec-forward": lambda s, c: TargetSpec("forward", c),
    "TargetSpec-generalized-beta": lambda s, c: TargetSpec("generalized", c, 0.5),
    "TargetSpec-generalized-eta": lambda s, c: TargetSpec("generalized", 0.5, c),
    "reverse_kl_target": lambda s, c: reverse_kl_target(s, c),
    "generalized_target-beta": lambda s, c: generalized_target(s, c, 0.5),
    "generalized_target-eta": lambda s, c: generalized_target(s, 0.5, c),
    "log_prob_ratio": lambda s, c: log_prob_ratio(s, c, 0, 1),
    "MaraConfig": lambda s, c: MaraConfig(Constant(0.5), c),
    "mara_target": lambda s, c: mara_target(s, c, 0.5, 1),
    "SweepSpec": lambda s, c: SweepSpec(
        s, [TargetSpec("reverse", 1.0)], [c], [0],
        TrainConfig(TargetSpec("reverse", 1.0), steps=1),
    ),
}


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", sorted(COEFFICIENT_ENTRY_POINTS))
def test_every_entry_point_rejects_a_non_finite_coefficient(two_point, entry, value):
    assert issubclass(InvalidCoefficient, ValueError)
    with pytest.raises(InvalidCoefficient):
        COEFFICIENT_ENTRY_POINTS[entry](two_point, value)


def test_forward_solve_rejects_a_non_finite_beta_at_once():
    # the solve once never returned at beta = inf: a child process with a
    # timeout makes such a regression fail instead of hanging the suite
    script = (
        "import math\n"
        "from kllab.errors import InvalidCoefficient\n"
        "from kllab.harness import scenario_by_name\n"
        "from kllab.targets import forward_kl_target\n"
        "for beta in (math.inf, -math.inf, math.nan):\n"
        "    try:\n"
        "        forward_kl_target(scenario_by_name('two_point'), beta)\n"
        "    except InvalidCoefficient:\n"
        "        continue\n"
        "    raise SystemExit(f'beta = {beta} was accepted')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kllab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_forward_solve_fails_cleanly_near_the_float_limit(two_point):
    # F at the ceiling 1.5e308 is still >= 1, and doubling it gives inf,
    # where a Newton step would divide by zero; F overflows on the way, and
    # that warns nothing
    with pytest.raises(SolverFailure, match="not finite"):
        forward_kl_target(two_point, 1.5e308)


def test_forward_solve_near_the_float_limit_off_support_warns_nothing():
    # the best reward is off the support: F evaluated there overflows first
    with pytest.raises(SolverFailure, match="not finite"):
        forward_kl_target(make_scenario([1.0, 0.0], [0.0, 0.5]), 1e308)


def test_forward_target_of_a_bracket_near_the_float_limit():
    # the bracket's ends sit near 1.8e308, where 0.5 * (lo + hi) overflows:
    # a reward that dwarfs the others takes all the mass
    s = make_scenario([0.2, 0.3, 0.5], [1e308, 0.5, 1.0])
    sol = forward_kl_target(s, 0.5)
    assert sol.lam == 1e308 and not sol.boundary_case
    probs = sol.distribution.probs
    assert probs[0] == 1.0
    # subnormal: beta ref / (lam - R), to the few bits such floats keep
    np.testing.assert_allclose(probs[1:], [1.5e-309, 2.5e-309], rtol=1e-12)
    # a beta near the float limit leaves the reference about as it is
    s = make_scenario(np.linspace(1.0, 2.0, 10), np.linspace(0.0, 1.0, 10))
    sol = forward_kl_target(s, 1e308)
    assert np.isfinite(sol.lam)
    assert sol.distribution.log_weights.tobytes() == s.reference.log_weights.tobytes()


def test_reverse_two_point(two_point):
    g = reverse_kl_target(two_point, beta=1.0)
    np.testing.assert_allclose(g.probs, [1.0 - SIG1, SIG1], atol=1e-12)


def test_reverse_constant_reward_returns_reference():
    s = make_scenario([0.2, 0.3, 0.5], [0.7, 0.7, 0.7])
    g = reverse_kl_target(s, beta=0.25)
    np.testing.assert_allclose(g.probs, s.reference.probs, atol=1e-12)


def test_reverse_uniform_four():
    s = make_scenario([0.25] * 4, [1.0, 1.0, 0.0, 0.0])
    g = reverse_kl_target(s, beta=0.5)
    np.testing.assert_allclose(
        g.probs, [0.44039854, 0.44039854, 0.05960146, 0.05960146], atol=1e-7
    )


def test_reverse_preserves_mask():
    s = make_scenario([0.5, 0.5, 0.0], [0.0, 0.0, 100.0])
    g = reverse_kl_target(s, beta=0.1)
    assert g.probs[2] == 0.0


def test_reverse_small_beta_no_overflow():
    s = make_scenario([0.5, 0.5], [0.0, 900.0])
    g = reverse_kl_target(s, beta=1e-3)
    assert np.all(np.isfinite(g.probs))
    assert g.probs[1] == pytest.approx(1.0)


def test_generalized_eta_zero_is_reverse():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        s = random_scenario(rng)
        for beta in (0.05, 0.5, 2.0):
            a = generalized_target(s, beta, 0.0)
            b = reverse_kl_target(s, beta)
            np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)


def test_reverse_is_generalized_at_eta_zero_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(23))
    scenarios = [make_scenario([1.0], [0.7])]
    for _ in range(60):
        s = random_scenario(rng, n_max=40)
        scale = 10.0 ** rng.integers(-2, 4)
        rewards = RewardVector(s.rewards.values * scale)
        scenarios.append(Scenario(s.reference, rewards))
    masked = 0
    for s in scenarios:
        masked += not s.reference.support_mask.all()
        for beta in np.geomspace(1e-4, 1e3, 8):
            a = reverse_kl_target(s, beta)
            b = generalized_target(s, beta, 0.0)
            assert a.log_weights.tobytes() == b.log_weights.tobytes()
            np.testing.assert_array_equal(a.support_mask, b.support_mask)
    assert masked >= 10


def test_generalized_beta_zero_is_full_support_softmax():
    s = make_scenario([0.5, 0.5, 0.0], [0.0, 0.0, 1.0])
    g = generalized_target(s, beta=0.0, eta=1.0)
    # the tempered reference enters as ref^0 = 1 everywhere, so the
    # masked index regains mass under the entropy-only objective
    assert g.probs[2] > 0
    z = np.sum(np.exp(s.rewards.values))
    np.testing.assert_allclose(g.probs, np.exp(s.rewards.values) / z, atol=1e-12)


def test_generalized_mixed_coefficients():
    s = make_scenario([0.8, 0.2], [0.0, 1.0])
    g = generalized_target(s, beta=1.0, eta=1.0)
    np.testing.assert_allclose(g.probs, [0.54813724, 0.45186276], atol=1e-7)


def test_forward_two_point_lambda(two_point):
    sol = forward_kl_target(two_point, beta=1.0)
    assert sol.lam == pytest.approx(1.0 + np.sqrt(2) / 2, abs=1e-10)
    assert not sol.boundary_case
    assert sol.off_support_mass == 0.0
    assert sol.distribution.probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_forward_constant_reward():
    s = make_scenario([0.1, 0.6, 0.3], [2.0, 2.0, 2.0])
    sol = forward_kl_target(s, beta=0.5)
    assert sol.lam == pytest.approx(2.5, abs=1e-9)
    np.testing.assert_allclose(sol.distribution.probs, s.reference.probs, atol=1e-9)


def test_forward_boundary_case_exact():
    s = make_scenario([1.0, 0.0], [0.0, 2.0])
    sol = forward_kl_target(s, beta=1.0)
    assert sol.boundary_case
    assert sol.lam == 2.0
    assert sol.off_support_mass == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(sol.distribution.probs, [0.5, 0.5], atol=1e-15)


def test_forward_boundary_splits_ties_uniformly():
    s = make_scenario([1.0, 0.0, 0.0], [0.0, 2.0, 2.0])
    sol = forward_kl_target(s, beta=1.0)
    assert sol.boundary_case
    np.testing.assert_allclose(sol.distribution.probs, [0.5, 0.25, 0.25], atol=1e-15)


def test_forward_off_support_reward_without_boundary():
    # the off-support reward is best, but the on-support mass at that
    # level already exceeds 1, so the solution stays on-support
    s = make_scenario([0.9, 0.1, 0.0], [0.0, 0.5, 0.6])
    sol = forward_kl_target(s, beta=1.0)
    assert not sol.boundary_case
    assert sol.lam > 0.6
    assert sol.distribution.probs[2] == 0.0
    assert sol.distribution.probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_forward_rejects_nonpositive_beta(two_point):
    with pytest.raises(InvalidCoefficient):
        forward_kl_target(two_point, beta=0.0)


def test_forward_stationarity_random():
    rng = np.random.Generator(np.random.PCG64(99))
    checked = 0
    for _ in range(100):
        s = random_scenario(rng)
        beta = float(rng.uniform(0.05, 2.0))
        sol = forward_kl_target(s, beta=beta)
        assert sol.distribution.probs.sum() == pytest.approx(1.0, abs=1e-10)
        if sol.boundary_case:
            continue
        m = s.reference.support_mask
        g = sol.distribution.probs[m]
        # stationarity: R + beta * ref / G is constant and equals the multiplier
        stat = s.rewards.values[m] + beta * np.exp(s.reference.log_weights[m]) / g
        np.testing.assert_allclose(stat, sol.lam, atol=1e-8)
        assert sol.lam > np.max(s.rewards.values[m])
        checked += 1
    assert checked >= 50


def test_forward_lambda_within_a_float_of_the_best_reward():
    # beta * ref at the best reward is 1e-16, so lam - R rounds to 0 there:
    # that index takes the mass the others leave
    s = Scenario(from_probs([0.5, 0.5, 1e-12]), RewardVector([0.0, 0.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = forward_kl_target(s, beta=1e-4)
    g = sol.distribution.probs
    assert g.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(g, [5e-5, 5e-5, 0.9999], rtol=1e-9)
    stat = s.rewards.values[:2] + 1e-4 * s.reference.probs[:2] / g[:2]
    np.testing.assert_allclose(stat, sol.lam, rtol=0, atol=1e-8)


def test_forward_solve_bisects_where_newtons_slope_underflows():
    # at the best reward's open end the terms q / gap of Newton's derivative
    # underflow to 0; a bisection step takes the step's place, and the tie
    # at the best reward takes the mass the others leave
    s = Scenario(from_probs([1e-304, 1e-300, 1.0]), RewardVector([-1e300, -1.0, 1e300]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = forward_kl_target(s, 0.1)
    assert sol.lam == 1e300 and not sol.boundary_case
    assert sol.distribution.probs.tolist() == [0.0, 0.0, 1.0]


def _extreme_forward_case(rng):
    """Up to five indices, log-masses down to -1e5 (some 0 or -inf),
    rewards of either sign up to 1.7e308 and a beta from 1e-300 to 1e300."""
    n = int(rng.integers(1, 6))
    lw = -(10.0 ** rng.uniform(-3.0, 5.0, n))
    lw[rng.random(n) < 0.1] = 0.0
    lw[rng.random(n) < 0.15] = -np.inf
    if not np.isfinite(lw).any():
        lw[0] = 0.0
    rewards = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 308.23, n)
    s = Scenario(normalize(lw), RewardVector(np.clip(rewards, -1.7e308, 1.7e308)))
    return s, float(10.0 ** rng.uniform(-300.0, 300.0))


def test_forward_solves_at_the_float_extremes_end_in_a_target_or_a_documented_error():
    # on these cases Newton's derivative once underflowed to 0 in about 19 %
    # of the solves, which then ended in a bare ZeroDivisionError, and the
    # tie branch divided 0 by 0 in about 4 %; no warning may occur
    rng = np.random.Generator(np.random.PCG64(30))
    outcomes = {"target": 0, "error": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3000):
            s, beta = _extreme_forward_case(rng)
            try:
                sol = forward_kl_target(s, beta)
            except KllabError:
                outcomes["error"] += 1
                continue
            assert sol.distribution.probs.sum() == pytest.approx(1.0, abs=1e-12)
            outcomes["target"] += 1
    assert outcomes["target"] > 2500, outcomes


def test_a_tie_whose_reference_masses_all_underflow_shares_by_log_mass():
    # half_support at decay 1000 puts exp(-1000), 0 as a float, on index 1:
    # lam is the best reward, 1, and index 1 takes what index 0 leaves
    s = scenario_from_dict({"n": 4, "reference": {"shape": "half_support", "decay": 1000},
                            "rewards": [0, 1, 0, 0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = forward_kl_target(s, 0.1)
    assert sol.lam == 1.0
    np.testing.assert_allclose(sol.distribution.probs, [0.1, 0.9, 0.0, 0.0], rtol=0, atol=1e-15)
    assert sol.distribution.support_mask.tolist() == [True, True, False, False]


def test_a_tilt_weight_that_underflows_adds_nothing_without_a_warning():
    # beta / (beta + eta) is 0: the tilt is the rewards' alone, with 0 * -inf
    # off the support left out
    s = make_scenario([0.5, 0.5, 0.0], [0.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = generalized_target(s, 5e-324, 10.0)
    assert g.log_weights.tobytes() == normalize([0.0, 0.1, -np.inf]).log_weights.tobytes()


def test_a_reverse_tilt_spanning_the_float_range_normalizes_without_a_warning():
    # log-weights from 1e308 down to -1e308: lw - top overflows to -inf, an
    # exact zero term
    s = make_scenario([0.2, 0.3, 0.4, 0.0, 0.1], [1e308, 0.5, 1e308, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reverse_kl_target(s, 1.0)
    with np.errstate(over="ignore"):
        want = reverse_kl_target(s, 1.0)
    assert got.log_weights.tobytes() == want.log_weights.tobytes()
    np.testing.assert_array_equal(got.probs, [0.5, 0.0, 0.5, 0.0, 0.0])


def _mass(lam, beta, ref_probs, rewards):
    return float(np.sum(beta * ref_probs / (lam - rewards)))


def _bisect_lambda(beta, ref_probs, rewards, lower):
    """The bisection that the Newton solver replaced, kept as its oracle."""
    lo = lower
    hi = lower + beta + 1.0
    eps = 1e-12 * max(1.0, abs(lower))
    if np.any(rewards >= lower):
        lo = lower + eps
        tries = 0
        while _mass(lo, beta, ref_probs, rewards) < 1.0:
            eps *= 0.25
            lo = lower + eps
            tries += 1
            if tries > 60:
                raise SolverFailure("could not bracket the multiplier from below")
    if _mass(hi, beta, ref_probs, rewards) >= 1.0:
        tries = 0
        while _mass(hi, beta, ref_probs, rewards) >= 1.0:
            hi = lower + (hi - lower) * 2.0
            tries += 1
            if tries > 60:
                raise SolverFailure("could not bracket the multiplier from above")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _mass(mid, beta, ref_probs, rewards) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _multiplier_problem(s, beta):
    """``(ref_probs, rewards, lower)`` of the multiplier solve, or None in
    the boundary regime, where the multiplier is pinned."""
    m = s.reference.support_mask
    ref_probs, r_on = s.reference.probs[m], s.rewards.values[m]
    r_out = np.max(s.rewards.values[~m], initial=-np.inf)
    if r_out <= np.max(r_on):
        return ref_probs, r_on, float(np.max(r_on))
    if _mass(r_out, beta, ref_probs, r_on) < 1.0:
        return None
    return ref_probs, r_on, float(r_out)


def _forward_case(rng):
    n = 1 if rng.random() < 0.05 else int(rng.integers(2, 40))
    lw = rng.uniform(-30.0 if rng.random() < 0.3 else -4.0, 2.0, size=n)
    if n > 1 and rng.random() < 0.5:
        lw[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = -np.inf
    rewards = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(-2.0, 4.0)
    if rng.random() < 0.3:
        rewards = np.round(rewards)  # ties
    beta = float(10.0 ** rng.uniform(-4.0, 3.0))
    s = Scenario(normalize(lw), RewardVector(rewards))
    off = np.flatnonzero(~s.reference.support_mask)
    if off.size and rng.random() < 0.5:
        # put the best off-support reward at the on-support multiplier,
        # give or take a little: the boundary/interior switch
        on_only = Scenario(s.reference, RewardVector(np.where(
            s.reference.support_mask, rewards, np.min(rewards) - 1.0)))
        lam = forward_kl_target(on_only, beta).lam
        rewards = rewards.copy()
        rewards[off[0]] = lam + lam * 1e-15 * float(rng.integers(-3, 4))
        s = Scenario(s.reference, RewardVector(rewards))
    return s, beta


def test_forward_lambda_matches_bisection_and_brentq():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.Generator(np.random.PCG64(17))
    counts = {"interior": 0, "solved above an off-support reward": 0, "boundary": 0}
    for _ in range(1500):
        s, beta = _forward_case(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = forward_kl_target(s, beta)
        assert sol.distribution.probs.sum() == pytest.approx(1.0, abs=1e-12)
        problem = _multiplier_problem(s, beta)
        if problem is None:
            assert sol.boundary_case
            counts["boundary"] += 1
            continue
        ref_probs, rewards, lower = problem
        assert not sol.boundary_case
        open_end = np.any(rewards >= lower)

        def g(lam):
            # 1/F - 1 stays finite: -1 where F is infinite, at an open end
            if open_end and lam == lower:
                return -1.0
            return 1.0 / _mass(lam, beta, ref_probs, rewards) - 1.0

        root = optimize.brentq(g, lower, lower + beta + 1.0, xtol=1e-300,
                               rtol=4 * np.finfo(float).eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = _bisect_lambda(beta, ref_probs, rewards, lower)
        assert sol.lam == expected
        assert sol.lam == pytest.approx(root, rel=1e-12)
        counts["interior" if lower == np.max(rewards) else
               "solved above an off-support reward"] += 1
    assert min(counts.values()) >= 50, counts


def test_forward_solve_takes_the_boundary_evaluation_from_its_caller(monkeypatch):
    # the best reward sits off the support, where the on-support mass is
    # 2.9 >= 1: F(1.2) decides the regime and is also Newton's first point
    s = make_scenario([0.5, 0.5, 0.0], [0.0, 1.0, 1.2])
    seen = []
    mass_terms = targets._mass_terms

    def counted(lam, w, rewards):
        seen.append(lam)
        return mass_terms(lam, w, rewards)

    monkeypatch.setattr(targets, "_mass_terms", counted)
    sol = forward_kl_target(s, 1.0)
    assert not sol.boundary_case
    assert len(seen) == 8 and seen.count(1.2) == 1


def test_forward_lambda_is_unchanged_by_the_handed_over_evaluation():
    # a solve that evaluates F at the lower end itself returns the same float
    rng = np.random.Generator(np.random.PCG64(29))
    solved = 0
    while solved < 300:
        s, beta = _forward_case(rng)
        problem = _multiplier_problem(s, beta)
        if problem is None or problem[2] == np.max(problem[1]):
            continue  # pinned, or the lower end is the best on-support reward
        ref_probs, rewards, lower = problem
        w = beta * np.exp(s.reference.log_weights[s.reference.support_mask])
        assert forward_kl_target(s, beta).lam == targets._solve_lambda(
            beta, w, rewards, lower)
        solved += 1


def _forward_by_masses(s, beta, sol):
    """The forward target built as ``from_probs`` of a zero-filled n-wide
    mass array, the construction the direct log-masses replaced, at the
    solution's own multiplier."""
    mask = s.reference.support_mask
    ref_probs = np.exp(s.reference.log_weights[mask])
    w = beta * ref_probs
    gap = sol.lam - s.rewards.values[mask]
    tied = gap == 0.0
    if np.any(tied):
        on = np.zeros(gap.size)
        on[~tied] = w[~tied] / gap[~tied]
        leftover = max(0.0, 1.0 - float(np.sum(on)))
        on[tied] = leftover * ref_probs[tied] / np.sum(ref_probs[tied])
    else:
        on = w / gap
    masses = np.zeros(s.n)
    if sol.boundary_case:
        off = ~mask
        argmax_out = off & (s.rewards.values == np.max(s.rewards.values[off]))
        masses[argmax_out] = sol.off_support_mass / np.count_nonzero(argmax_out)
    masses[mask] = on
    return from_probs(masses)


def _assert_same_bytes(a, b):
    assert a.log_weights.tobytes() == b.log_weights.tobytes()
    assert a.support_mask.tobytes() == b.support_mask.tobytes()


def test_forward_target_equals_the_mass_construction_byte_for_byte():
    rng = np.random.Generator(np.random.PCG64(41))
    cases = [_forward_case(rng) for _ in range(600)]
    cases += [
        # lam - R rounds to 0 at the best reward: the tied path
        (make_scenario([0.5, 0.5, 1e-12], [0.0, 0.0, 1.0]), 1e-4),
        (make_scenario([0.2, 0.3, 0.5], [1e308, 0.5, 1.0]), 0.5),
        # boundary regime with a tied off-support argmax
        (make_scenario([0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 3.0, 3.0]), 1.0),
        (make_scenario([0.0, 0.3, 0.0, 0.7, 0.0], [2.0, 0.0, 2.0, 0.5, 1.0]), 0.1),
        (make_scenario([1.0], [0.3]), 0.5),
    ]
    for _ in range(40):
        # three indices whose beta * ref falls below the float spacing at the
        # best reward: they share the leftover mass
        tiny = rng.uniform(1.0, 4.0, size=3) * 1e-12
        cases.append((make_scenario([0.5, 0.5, *tiny], [0.0, 0.0, 1.0, 1.0, 1.0]),
                      float(rng.uniform(0.5, 2.0)) * 1e-5))
        # the best reward off the support at two to four tied indices
        ties = int(rng.integers(2, 5))
        cases.append((make_scenario([*rng.uniform(0.1, 1.0, size=3), *[0.0] * ties],
                                    [*rng.uniform(0.0, 1.0, size=3), *[3.0] * ties]),
                      float(rng.uniform(0.05, 1.0))))
    seen = {"interior": 0, "boundary": 0, "tied": 0, "masked": 0, "n = 1": 0}
    for s, beta in cases:
        sol = forward_kl_target(s, beta)
        _assert_same_bytes(sol.distribution, _forward_by_masses(s, beta, sol))
        mask = s.reference.support_mask
        seen["boundary" if sol.boundary_case else "interior"] += 1
        seen["tied"] += bool(np.any(sol.lam == s.rewards.values[mask]))
        seen["masked"] += not mask.all()
        seen["n = 1"] += s.n == 1
    assert min(seen.values()) >= 2, seen


def test_log_prob_ratio_extreme_is_exact(two_point):
    s = make_scenario([0.5, 0.5], [0.1, 0.0])
    assert log_prob_ratio(s, 1e-3, 0, 1) == 100.0


def test_log_prob_ratio_past_the_float_limit_is_inf_without_a_warning(two_point):
    # (R_i - R_j) / beta overflows; a Python float quotient is +-inf silently
    assert log_prob_ratio(two_point, 1e-320, 0, 1) == -np.inf
    assert log_prob_ratio(two_point, 1e-320, 1, 0) == np.inf


def test_log_prob_ratio_equal_rewards_beta_free():
    s = make_scenario([0.8, 0.2], [0.3, 0.3])
    expected = np.log(0.8 / 0.2)
    for beta in (1e-3, 0.1, 10.0):
        assert log_prob_ratio(s, beta, 0, 1) == pytest.approx(expected, abs=1e-12)


def test_log_prob_ratio_same_index_is_zero(two_point):
    assert log_prob_ratio(two_point, 0.5, 1, 1) == 0.0


def test_log_prob_ratio_rejects_masked_index():
    s = make_scenario([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(UndefinedRatio):
        log_prob_ratio(s, 1.0, 0, 1)


def test_flip_beta_simple():
    # log-ref gap 1, reward gap 0.5 in the opposite direction
    ref = np.exp([0.0, -1.0])
    s = make_scenario(ref / ref.sum(), [0.0, 0.5])
    assert flip_beta(s, 0, 1) == pytest.approx(0.5, abs=1e-12)
    assert log_prob_ratio(s, 0.5, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_flip_beta_sign_change():
    ref = np.exp([0.0, -1.0])
    s = make_scenario(ref / ref.sum(), [0.0, 0.5])
    bstar = flip_beta(s, 0, 1)
    lo = log_prob_ratio(s, 0.9 * bstar, 0, 1)
    hi = log_prob_ratio(s, 1.1 * bstar, 0, 1)
    assert lo * hi < 0


def test_flip_beta_names_a_negative_coefficient_as_a_plain_number():
    s = scenario_by_name("fig2_two_mode")
    with pytest.raises(NoFiniteFlip) as info:
        flip_beta(s, 18, 28)
    assert str(info.value) == "computed coefficient -0.7888557267380867 is not positive"
    ref = np.exp([0.0, -1.0])
    assert type(flip_beta(make_scenario(ref / ref.sum(), [0.0, 0.5]), 0, 1)) is float


def test_flip_beta_equal_reference_raises(two_point):
    with pytest.raises(NoFiniteFlip):
        flip_beta(two_point, 0, 1)


def test_flip_beta_negative_coefficient_raises():
    # the better-supported index also has the better reward: no trade
    ref = np.exp([0.0, -1.0])
    s = make_scenario(ref / ref.sum(), [0.5, 0.0])
    with pytest.raises(NoFiniteFlip):
        flip_beta(s, 0, 1)


def test_flip_beta_same_index_raises():
    ref = np.exp([0.0, -1.0])
    s = make_scenario(ref / ref.sum(), [0.0, 0.5])
    with pytest.raises(NoFiniteFlip):
        flip_beta(s, 1, 1)


def _same_bytes(a, b):
    return (a.log_weights.tobytes() == b.log_weights.tobytes()
            and a.support_mask.tobytes() == b.support_mask.tobytes())


def test_analytic_target_dispatch():
    # every family on every built-in scenario: the dispatch returns its
    # solver's distribution byte for byte, with the forward solve's
    # multiplier and regime, and no multiplier or off-support mass for a tilt
    regimes = set()
    for name in SCENARIO_CONFIGS:
        s = scenario_by_name(name)
        for beta in (0.1, 0.7):
            sol = analytic_target(s, TargetSpec("forward", beta))
            fwd = forward_kl_target(s, beta)
            assert isinstance(sol, targets.Solution)
            assert _same_bytes(sol.distribution, fwd.distribution)
            assert (sol.lam, sol.off_support_mass, sol.boundary_case) == (
                fwd.lam, fwd.off_support_mass, fwd.boundary_case)
            regimes.add(sol.boundary_case)
            tilts = [(TargetSpec("reverse", beta), reverse_kl_target(s, beta))]
            for b, eta in ((beta, 0.4), (0.0, beta)):
                tilts.append((TargetSpec("generalized", b, eta), generalized_target(s, b, eta)))
            for spec, dist in tilts:
                sol = analytic_target(s, spec)
                assert _same_bytes(sol.distribution, dist), (name, spec)
                assert sol.lam is None and sol.off_support_mass == 0.0
                assert sol.boundary_case is False
    # fwd_off_support at beta 0.1 is in the boundary regime, the rest interior
    assert regimes == {False, True}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ratio_consistency(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    s = random_scenario(rng, n_max=32)
    active = np.flatnonzero(s.reference.support_mask)
    if active.size < 2:
        return
    i, j = active[0], active[-1]
    for beta in (0.01, 0.1, 1.0):
        g = reverse_kl_target(s, beta)
        direct = g.log_weights[i] - g.log_weights[j]
        closed = log_prob_ratio(s, beta, int(i), int(j))
        assert closed == pytest.approx(direct, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------------
# the float-limit rule: RewardVector.scale decides where a tilt overflows


def _trapped_generalized(s, beta, eta):
    """generalized_target as it trapped the float limit before the rule:
    the oracle of the rule's tilt, bit for bit."""
    total = beta + eta
    r = s.rewards.values
    try:
        with np.errstate(over="raise"):
            tilt = r / total
    except FloatingPointError:
        support = s.reference.support_mask if beta > 0 else np.ones(s.n, dtype=bool)
        with np.errstate(over="ignore"):
            tilt = np.where(support, r / total, 0.0)
            if not np.all(np.isfinite(tilt)):
                tilt = np.where(support, (r - np.max(r[support])) / total, 0.0)
    if beta == 0:
        return normalize(tilt)
    tilt += (beta / total) * s.reference.log_weights
    tilt[~s.reference.support_mask] = -np.inf
    return normalize(tilt)


def _trapped_mara(s, beta, tau, anchor):
    """mara_target as it trapped the float limit before the rule."""
    r, lref = s.rewards.values, s.reference.log_weights
    treated = (r >= tau) & s.reference.support_mask
    try:
        with np.errstate(over="raise"):
            log_masses = np.divide(r, beta)
    except FloatingPointError:
        keep = s.reference.support_mask & ~treated
        with np.errstate(over="ignore"):
            log_masses = np.where(keep, r - r[anchor], 0.0) / beta
    log_masses += lref
    np.copyto(log_masses, log_masses[anchor], where=treated)
    return normalize(log_masses)


def _outcome(fn, *args):
    try:
        return fn(*args).log_weights.tobytes()
    except Exception as exc:  # the same error, type and message, on both sides
        return type(exc).__name__, str(exc)


LIMIT_CASES = [
    ([0.2, 0.3, 0.5], [1e308, 0.5, 1.0]),
    ([0.0, 0.4, 0.6], [1e308, 0.5, 1.0]),
    ([0.2, 0.3, 0.5], [1e308, 0.5, 1e308]),
    ([0.2, 0.3, 0.4, 0.0, 0.1], [1e308, 0.5, 1e308, 1e308, -1e308]),
    ([0.0, 1.0, 1.0, 1.0], [0.0, 1.7e308, 1.7e308, -1.7e308]),
]


def _oracle_scenarios():
    for name in list(SCENARIO_CONFIGS) + ["two_point"]:
        yield scenario_by_name(name)
    for masses, rewards in LIMIT_CASES:
        yield make_scenario(masses, rewards)
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(40):
        s = random_scenario(rng, n_max=24)
        # toward the limit, past it for the larger betas below
        r = np.clip(s.rewards.values * 10.0 ** rng.uniform(150, 308.3), -1.7e308, 1.7e308)
        yield Scenario(s.reference, RewardVector(r))


def test_the_rule_gives_the_trapped_tilts_bit_for_bit():
    checked = 0
    # normalize warns when log-weights span more than the float range (the
    # shift of the smallest by the largest overflows to -inf, a mass of 0
    # either way): the same on both sides, and not this rule's
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "overflow encountered in subtract", RuntimeWarning)
        for s in _oracle_scenarios():
            r = s.rewards.values
            tau = float(np.median(r))
            anchor = global_anchor(s, tau)
            for beta in (1e-6, 0.1, 1.0, 1e150, 1e300, 1.5e308):
                for eta in (0.0, 0.05, 1e300):
                    assert (_outcome(generalized_target, s, beta, eta)
                            == _outcome(_trapped_generalized, s, beta, eta))
                    checked += 1
                if anchor is not None:
                    assert (_outcome(mara_target, s, beta, tau, anchor)
                            == _outcome(_trapped_mara, s, beta, tau, anchor))
                    checked += 1
    assert checked > 900


EXTREME_LOG_MASSES = [0.0, -1.0, -30.0, -700.0, -745.5, -800.0, -1e5, -np.inf]
EXTREME_REWARDS = [0.0, 5e-324, -5e-324, 1e-310, 1e-200, 0.5, 1.0, -1.0, 1.0 + 2**-52, 1e16,
                   1e16 + 2, 1e150, -1e150, 1e300, -1e300, 1e308, 1.7e308, -1.7e308]
EXTREME_BETAS = [5e-324, 1e-300, 1e-20, 1e-6, 0.1, 1.0, 1e20, 1e150, 1e250, 1e286, 1e300,
                 1.5e308, 1.7e308]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(EXTREME_LOG_MASSES), st.sampled_from(EXTREME_REWARDS)),
                min_size=1, max_size=5),
       st.sampled_from(EXTREME_BETAS))
# Newton's w / (lam - R)**2 overflows where w / (lam - R) does not; the first
# step above an open end; a mass of 0 where lam is a float above the best reward
@example([(0.0, 0.0), (-np.inf, 1e-200)], 1.0)
@example([(0.0, 0.0)], 1e286)
@example([(-30.0, -1e150)], 1e-300)
def test_a_forward_solve_outside_the_float_limit_context_never_needs_it(cells, beta):
    # the rule's context, where it chooses one, ignores overflow and a log
    # of 0 inside the solve; without it, either would raise here
    lw = np.array([c[0] for c in cells])
    if not np.isfinite(lw).any():
        lw[0] = 0.0
    s = Scenario(normalize(lw), RewardVector(np.array([c[1] for c in cells])))
    with np.errstate(over="raise", divide="raise", invalid="ignore"):
        try:
            targets._forward_log_masses(s, beta)
        except SolverFailure:
            pass


def _count_errstate(monkeypatch):
    """The np.errstate contexts made from here on."""
    made, real = [], np.errstate

    def counted(**kwargs):
        made.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    return made


def test_no_solve_makes_an_errstate_context_below_the_float_limit(monkeypatch):
    # built first: a bump's formula and from_probs run in contexts of their own
    scenarios = [scenario_by_name(name) for name in list(SCENARIO_CONFIGS) + ["two_point"]]
    near = make_scenario([0.2, 0.3, 0.5], [1e308, 0.5, 1.0])
    made = _count_errstate(monkeypatch)
    for s in scenarios:
        anchor = global_anchor(s, 0.5)
        for beta in (0.01, 0.1, 1.0, 10.0):
            reverse_kl_target(s, beta)
            generalized_target(s, beta, 0.05)
            forward_kl_target(s, beta)
            if anchor is not None:
                mara_target(s, beta, 0.5, anchor)
    assert made == []
    # near the limit the branch that the rule selects keeps its context
    generalized_target(near, 0.5, 0.0)
    assert made == [{"over": "ignore"}]
    forward_kl_target(near, 0.5)
    # then the tie's: lam is the best reward, within a float
    assert made[1:] == [{"over": "ignore", "divide": "ignore"}, {"divide": "ignore"}]
