import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario, random_scenario
from kllab import mara, trainer
from kllab.dist import Categorical, RewardVector, Scenario, normalize
from kllab.errors import (
    InfiniteDivergence, InvalidDistribution, NonFiniteGradient, SolverFailure, UntrainableScale,
)
from kllab.harness import MARA_TOY_TAU, scenario_by_name
from kllab.mara import (
    BatchPercentile,
    Constant,
    MaraConfig,
    augment_ref_view,
    augment_rewards,
    global_anchor,
    mara_target,
    resolve_threshold,
)
from kllab.targets import (
    TargetSpec,
    analytic_target,
    forward_kl_target,
    generalized_target,
    reverse_kl_target,
)
from kllab.trainer import (
    BASELINES,
    AdamState,
    Exact,
    MonteCarlo,
    SoftmaxPolicy,
    Trace,
    TrainConfig,
    _apply_baseline,
    adam_step,
    exact_gradient,
    exact_objective,
    kl_gradient_to_target,
    mc_gradient,
    mc_gradient_forward,
    mc_gradient_reverse,
    reverse_coefficients,
    train,
    train_cells,
)


def fd_gradient(policy, s, spec, h=1e-5):
    g = np.zeros(policy.n)
    for k in range(policy.n):
        e = np.zeros(policy.n)
        e[k] = h
        jp = exact_objective(SoftmaxPolicy(policy.logits + e, policy.support_mask), s, spec)
        jm = exact_objective(SoftmaxPolicy(policy.logits - e, policy.support_mask), s, spec)
        g[k] = (jp - jm) / (2 * h)
    return g


def random_policy(rng, s, spec):
    mask = None
    if spec.kind == "reverse" or (spec.kind == "generalized" and spec.beta > 0):
        mask = np.asarray(s.reference.support_mask)
    return SoftmaxPolicy(rng.uniform(-2, 2, s.n), mask)


# --------------------------------------------------------------------------
# policy basics


def test_softmax_policy_masks_indices():
    p = SoftmaxPolicy(np.array([0.0, 5.0, 0.0]), np.array([True, False, True]))
    probs = p.probs()
    assert probs[1] == 0.0
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_policy_rejects_non_finite_logits():
    with pytest.raises(ValueError):
        SoftmaxPolicy(np.array([0.0, np.inf]))


@pytest.mark.parametrize("mask", [[True, False], [True, True, True, True, False]],
                         ids=["short", "long"])
def test_softmax_policy_rejects_a_mask_of_the_wrong_length(mask):
    # a short mask would silently mask the indices past its end
    with pytest.raises(InvalidDistribution, match="^length mismatch$"):
        SoftmaxPolicy(np.zeros(3), mask)


@pytest.mark.parametrize("args", [(np.zeros(3), [False] * 3), (np.zeros(0),)],
                         ids=["all-masked", "empty"])
def test_softmax_policy_rejects_an_empty_support(args):
    with pytest.raises(InvalidDistribution, match="^empty support$"):
        SoftmaxPolicy(*args)


def test_train_cells_of_no_cells_is_empty():
    assert train_cells(scenario_by_name("two_point"), []) == []


def test_a_problem_reads_its_row_count_from_its_objectives():
    # one objective gives plain values, several a column with one row each
    s = scenario_by_name("two_point")
    one = trainer._Problem(s, [TargetSpec("generalized", 0.1, 0.2)], None)
    assert (one.beta, one.eta) == (0.1, 0.2)
    two = trainer._Problem(s, [TargetSpec("generalized", 0.1, 0.2),
                               TargetSpec("generalized", 0.3, 0.4)], None)
    assert two.beta.tolist() == [[0.1], [0.3]] and two.eta.tolist() == [[0.2], [0.4]]


@pytest.mark.parametrize("mode", [Exact(), MonteCarlo(8)], ids=["exact", "mc"])
def test_train_rejects_augmented_rewards_that_overflow(mode):
    # at a beta near the float limit the reward view's correction overflows
    s = scenario_by_name("mara_toy")
    cfg = TrainConfig(TargetSpec("reverse", 1e308), gradient_mode=mode,
                      mara=MaraConfig(Constant(MARA_TOY_TAU), 1e308), steps=2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="rewards must be finite"):
        train(s, cfg)


def test_softmax_policy_arrays_are_computed_once_and_read_only():
    logits = np.array([0.3, -1.2, 2.0, 0.5])
    mask = np.array([True, True, False, True])
    policy = SoftmaxPolicy(logits, mask)
    lp, p = policy.log_probs(), policy.probs()
    assert policy.log_probs() is lp and policy.probs() is p
    # bit-equal to the softmax applied afresh
    lw = np.where(mask, logits, -np.inf)
    m = lw[mask].max()
    expected_lp = lw - (m + np.log(np.sum(np.exp(lw[mask] - m))))
    expected_p = np.zeros(4)
    expected_p[mask] = np.exp(expected_lp[mask])
    np.testing.assert_array_equal(lp, expected_lp)
    np.testing.assert_array_equal(p, expected_p)
    # the arrays passed in are frozen in place, so no handle can stale the cache
    for held in (lp, p, policy.logits, policy.support_mask, logits, mask):
        with pytest.raises(ValueError):
            held[0] = 0
    np.testing.assert_array_equal(policy.log_probs(), expected_lp)


def test_unpickled_policy_is_read_only_and_equal():
    policy = SoftmaxPolicy([0.1, 0.2, 0.3], [True, False, True])
    copy = pickle.loads(pickle.dumps(policy))
    pairs = [(policy.logits, copy.logits), (policy.support_mask, copy.support_mask),
             (policy.log_probs(), copy.log_probs()), (policy.probs(), copy.probs()),
             *zip(policy._rows[1:], copy._rows[1:])]
    for original, copied in pairs:
        np.testing.assert_array_equal(copied, original)
        with pytest.raises(ValueError):
            copied[0] = 5.0


def test_policy_table_is_built_once_and_read_only():
    policy = SoftmaxPolicy([0.3, -1.2, 2.0, 0.5], [True, True, False, True])
    table = policy._table
    assert policy._table is table
    active, cdf = table
    # column positions: no indices to gather through
    assert active is None
    want = np.cumsum(policy._rows[2])
    want[-1] = 1.0
    assert cdf.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        cdf[0] = 0.5


def test_training_and_the_softmax_arrays_never_build_the_policy_table(monkeypatch, two_point):
    policy = SoftmaxPolicy([0.3, -1.2, 2.0], [True, False, True])
    policy.log_probs(), policy.probs(), policy.distribution()
    assert "_table" not in vars(policy)

    def unread(self):
        raise AssertionError("the policy table was built")

    monkeypatch.setattr(SoftmaxPolicy, "_table", property(unread))
    for mode in (Exact(), MonteCarlo(8)):
        for spec in (TargetSpec("reverse", 0.5), TargetSpec("forward", 0.5)):
            train(two_point, TrainConfig(spec, mode, steps=5, learning_rate=0.05))


def test_policy_table_is_rebuilt_not_pickled():
    policy = SoftmaxPolicy([0.1, 0.2, 0.3], [True, False, True])
    before = pickle.dumps(policy)
    table = policy._table
    assert pickle.dumps(policy) == before
    copy = pickle.loads(pickle.dumps(policy))
    assert "_table" not in vars(copy)
    active, cdf = copy._table
    assert active is None and cdf.tobytes() == table[1].tobytes()
    assert not cdf.flags.writeable


# --------------------------------------------------------------------------
# exact objective and gradients


def test_objective_at_reference_is_expected_reward():
    s = make_scenario([0.3, 0.7], [1.0, 2.0])
    policy = SoftmaxPolicy(np.array(s.reference.log_weights))
    value = exact_objective(policy, s, TargetSpec("reverse", 0.5))
    assert value == pytest.approx(0.3 * 1.0 + 0.7 * 2.0, abs=1e-12)


def test_two_point_optimum_beats_grid(two_point):
    spec = TargetSpec("reverse", 1.0)
    target = reverse_kl_target(two_point, 1.0)
    best = exact_objective(
        SoftmaxPolicy(np.array(target.log_weights)), two_point, spec
    )
    for q in np.arange(1e-3, 1.0, 1e-3):
        policy = SoftmaxPolicy(np.log([1.0 - q, q]))
        assert exact_objective(policy, two_point, spec) <= best + 1e-12


def test_reverse_gradient_zero_at_target():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        s = random_scenario(rng)
        beta = float(rng.uniform(0.1, 2.0))
        target = reverse_kl_target(s, beta)
        lw = np.where(target.support_mask, target.log_weights, 0.0)
        policy = SoftmaxPolicy(lw, np.asarray(target.support_mask))
        g = exact_gradient(policy, s, TargetSpec("reverse", beta))
        np.testing.assert_allclose(g, 0.0, atol=1e-10)


def test_forward_gradient_zero_at_solution(two_point):
    sol = forward_kl_target(two_point, 1.0)
    policy = SoftmaxPolicy(np.array(sol.distribution.log_weights))
    g = exact_gradient(policy, two_point, TargetSpec("forward", 1.0))
    np.testing.assert_allclose(g, 0.0, atol=1e-9)


def test_reverse_objective_rejects_off_support_policy():
    s = make_scenario([1.0, 0.0], [0.0, 1.0])
    policy = SoftmaxPolicy(np.zeros(2))
    with pytest.raises(InfiniteDivergence):
        exact_objective(policy, s, TargetSpec("reverse", 1.0))
    with pytest.raises(InfiniteDivergence):
        exact_gradient(policy, s, TargetSpec("reverse", 1.0))


def test_estimators_reject_policy_mass_outside_the_reference_support_before_drawing():
    # the exact objective is infinite; a batch of 8 nearly always misses the
    # off-support index (mass 1.7e-4), so an estimator that only checked its
    # samples would return a finite estimate
    s = make_scenario([0.5, 0.5, 0.0], [0.0, 1.0, 0.5])
    policy = SoftmaxPolicy(np.array([0.0, 0.0, -8.0]))
    message = "^policy mass outside the reference support$"
    for spec in (TargetSpec("reverse", 0.5), TargetSpec("generalized", 0.5, 0.1)):
        with pytest.raises(InfiniteDivergence, match=message):
            exact_gradient(policy, s, spec)
        for seed in range(50):
            rng = np.random.Generator(np.random.PCG64(seed))
            with pytest.raises(InfiniteDivergence, match=message):
                mc_gradient(policy, s, spec, MonteCarlo(8, "none"), rng)
            # nothing was drawn
            assert rng.random() == np.random.Generator(np.random.PCG64(seed)).random()
    for seed in range(50):
        with pytest.raises(InfiniteDivergence, match=message):
            mc_gradient_reverse(policy, s, 0.5, 8, "none", seed)
    # without a reverse-KL term the reference plays no part
    g, _ = mc_gradient(policy, s, TargetSpec("generalized", 0.0, 0.1), MonteCarlo(8, "none"),
                       np.random.Generator(np.random.PCG64(0)))
    assert np.isfinite(g).all()


@st.composite
def _masked_reverse_kl_case(draw):
    """A scenario with a random reference support, a policy with a random
    support, an objective with a reverse-KL term and a seed."""
    n = draw(st.integers(1, 8))

    def support():
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mask[draw(st.integers(0, n - 1))] = True
        return mask

    on = support()
    # half the policies take the reference support, which a random one may
    # also lie inside
    policy_on = on if draw(st.booleans()) else support()
    floats = st.floats(-4.0, 2.0)
    lw = np.where(on, draw(st.lists(floats, min_size=n, max_size=n)), -np.inf)
    rewards = draw(st.lists(floats, min_size=n, max_size=n))
    logits = draw(st.lists(floats, min_size=n, max_size=n))
    beta = draw(st.floats(0.01, 2.0))
    spec = draw(st.sampled_from([TargetSpec("reverse", beta),
                                 TargetSpec("generalized", beta, draw(st.floats(0.01, 0.5)))]))
    s = Scenario(normalize(lw), RewardVector(np.array(rewards)))
    return s, SoftmaxPolicy(np.array(logits), policy_on), spec, draw(st.integers(0, 999))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_masked_reverse_kl_case(), st.sampled_from(BASELINES))
def test_the_support_rule_keeps_every_reverse_kl_sample_on_the_reference_support(case, baseline):
    # the support rule is the only one: the estimators raise before any draw
    # when the policy leaves the reference support, and otherwise, as in
    # training, whose columns are that support, every drawn index lies on it
    s, policy, spec, seed = case
    on = s.reference.support_mask
    drawn, real = [], trainer.draw
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "draw", lambda table, u: drawn.append(real(table, u)) or drawn[-1])
        mc = MonteCarlo(4, baseline)
        estimators = [lambda rng: mc_gradient(policy, s, spec, mc, rng)[0]]
        if spec.kind == "reverse":
            estimators.append(lambda rng: mc_gradient_reverse(policy, s, spec.beta, 4,
                                                              baseline, seed))
        cols = np.flatnonzero(policy.support_mask)
        for estimate in estimators:
            rng = np.random.Generator(np.random.PCG64(seed))
            if (policy.support_mask & ~on).any():
                with pytest.raises(InfiniteDivergence,
                                   match="^policy mass outside the reference support$"):
                    estimate(rng)
                assert drawn == []
                assert rng.random() == np.random.Generator(np.random.PCG64(seed)).random()
            else:
                assert np.isfinite(estimate(rng)).all()
                assert on[cols[drawn.pop()]].all() and drawn == []
        cfg = TrainConfig(spec, mc, steps=3, learning_rate=0.05, seed=seed)
        cells = trainer._Cells(s, [cfg])
        assert np.array_equal(np.arange(s.n) if cells.cols is None else cells.cols,
                              np.flatnonzero(on))
        result = cells.run()[0]
        assert len(drawn) == 3 and all(pos.max() < cells.k for pos in drawn)
        assert np.array_equal(result.final_policy.support_mask, on)


def test_reverse_coefficients_reject_an_index_off_the_reference_support():
    # the one caller whose indices and reference log-masses come from outside
    s = make_scenario([0.5, 0.5, 0.0], [0.0, 1.0, 0.5])
    policy = SoftmaxPolicy(np.array([0.3, -0.2, 0.1]))
    ys = np.array([0, 2, 1])
    r, lref = s.rewards.values[ys], s.reference.log_weights[ys]
    for bad in (lref, np.array([np.nan, -0.5, -0.5])):
        with pytest.raises(InfiniteDivergence,
                           match="^sampled index outside the reference support$"):
            reverse_coefficients(policy, ys, r, bad, 0.5)
    # at beta = 0 the reference plays no part
    np.testing.assert_array_equal(reverse_coefficients(policy, ys, r, lref, 0.0), r)
    on = np.array([0, 1, 1])
    np.testing.assert_array_equal(
        reverse_coefficients(policy, on, s.rewards.values[on], s.reference.log_weights[on], 0.5),
        s.rewards.values[on] - 0.5 * (policy.log_probs()[on] - s.reference.log_weights[on]))


def test_forward_objective_rejects_partial_policy():
    s = make_scenario([0.5, 0.5], [0.0, 1.0])
    policy = SoftmaxPolicy(np.zeros(2), np.array([True, False]))
    with pytest.raises(InfiniteDivergence):
        exact_objective(policy, s, TargetSpec("forward", 1.0))


@pytest.mark.parametrize("n", [1, 5, 200])
def test_public_functions_reject_a_policy_of_the_wrong_length(n):
    s = scenario_by_name("fig2_two_mode")
    assert s.n == 100
    policy = SoftmaxPolicy(np.zeros(n))
    calls = [
        lambda: exact_gradient(policy, s, TargetSpec("reverse", 0.1)),
        lambda: exact_gradient(policy, s, TargetSpec("forward", 0.1)),
        lambda: exact_gradient(policy, s, TargetSpec("generalized", 0.1, 0.05)),
        lambda: exact_objective(policy, s, TargetSpec("forward", 0.1)),
        lambda: mc_gradient(policy, s, TargetSpec("reverse", 0.1), MonteCarlo(8),
                            np.random.Generator(np.random.PCG64(0))),
        lambda: mc_gradient_reverse(policy, s, 0.1, 8, "none", 0),
        lambda: mc_gradient_forward(policy, s, 0.1, 8, 0, sampled_regularizer=True),
        lambda: kl_gradient_to_target(policy, reverse_kl_target(s, 0.1)),
    ]
    for call in calls:
        with pytest.raises(InvalidDistribution, match="^length mismatch$"):
            call()
    # the coefficients take one reward and one reference log-mass per sample
    ys = np.zeros(2, dtype=int)
    lref = s.reference.log_weights[ys]
    for rewards, ref in ((np.zeros(n), lref), (np.zeros(2), np.zeros(n))):
        with pytest.raises(InvalidDistribution, match="^length mismatch$"):
            reverse_coefficients(policy, ys, rewards, ref, 0.1)


@pytest.mark.parametrize(
    "spec",
    [
        TargetSpec("reverse", 0.5),
        TargetSpec("forward", 0.5),
        TargetSpec("generalized", 0.3, 0.7),
        TargetSpec("generalized", 0.0, 1.0),
    ],
)
def test_exact_gradient_matches_finite_differences(spec):
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(10):
        s = random_scenario(rng, n_max=8, allow_masked=spec.kind == "reverse")
        policy = random_policy(rng, s, spec)
        g = exact_gradient(policy, s, spec)
        fd = fd_gradient(policy, s, spec)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)


def test_gradient_identity_with_kl_to_target():
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(10):
        s = random_scenario(rng)
        beta = float(rng.uniform(0.1, 2.0))
        spec = TargetSpec("reverse", beta)
        policy = random_policy(rng, s, spec)
        g = exact_gradient(policy, s, spec)
        g_kl = kl_gradient_to_target(policy, reverse_kl_target(s, beta))
        np.testing.assert_allclose(g, -beta * g_kl, atol=1e-9)


def test_kl_gradient_to_target_rejects_policy_mass_off_the_target_support():
    # a full-support policy against fig2's reverse target, masked on its second half
    s = scenario_by_name("fig2_two_mode")
    with pytest.raises(InfiniteDivergence, match="^policy mass outside the target support$"):
        kl_gradient_to_target(SoftmaxPolicy(np.zeros(s.n)), reverse_kl_target(s, 0.1))


# --------------------------------------------------------------------------
# Monte-Carlo estimators


def test_baseline_variants_agree():
    # batch_mean is the leave-one-out baseline: c_i less the mean of the others
    rng = np.random.Generator(np.random.PCG64(4))
    coef = rng.normal(size=32)
    a = _apply_baseline(coef, "batch_mean")
    b = coef - (coef.sum() - coef) / (coef.size - 1)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_leave_one_out_is_no_second_baseline_name():
    assert BASELINES == ("none", "batch_mean")
    for call in (lambda: MonteCarlo(8, "leave_one_out"),
                 lambda: mc_gradient_reverse(SoftmaxPolicy(np.zeros(2)),
                                             make_scenario([0.5, 0.5], [0.0, 1.0]),
                                             0.5, 8, "leave_one_out", 0)):
        with pytest.raises(ValueError, match="^unknown baseline 'leave_one_out'$"):
            call()


def test_point_mass_policy_has_zero_mc_gradient():
    s = make_scenario([1.0, 0.0], [0.7, 0.0])
    policy = SoftmaxPolicy(np.zeros(2), np.array([True, False]))
    g = mc_gradient_reverse(policy, s, beta=0.5, batch=16, baseline="none", seed=0)
    # only accumulation round-off remains (sum of 16 identical terms / 16)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_mc_gradient_deterministic():
    s = make_scenario([0.2, 0.3, 0.5], [0.0, 1.0, 0.5])
    policy = SoftmaxPolicy(np.zeros(3))
    a = mc_gradient_reverse(policy, s, 0.5, 32, "batch_mean", seed=9)
    b = mc_gradient_reverse(policy, s, 0.5, 32, "batch_mean", seed=9)
    np.testing.assert_array_equal(a, b)


def test_mc_reverse_rejects_off_support_samples():
    s = make_scenario([0.0, 1.0], [1.0, 0.0])
    policy = SoftmaxPolicy(np.zeros(2))  # full support, can propose index 0
    with pytest.raises(InfiniteDivergence):
        mc_gradient_reverse(policy, s, 0.5, 64, "none", seed=1)


def _mean_mc(fn, trials):
    total = None
    for seed in range(trials):
        g = fn(seed)
        total = g if total is None else total + g
    return total / trials


def test_baselines_leave_expectation_unchanged():
    s = make_scenario([0.15, 0.25, 0.35, 0.25], [0.0, 1.0, 0.4, -0.3])
    rng = np.random.Generator(np.random.PCG64(33))
    policy = SoftmaxPolicy(rng.uniform(-1, 1, 4))
    spec = TargetSpec("reverse", 0.5)
    exact = exact_gradient(policy, s, spec)
    trials, batch = 8000, 16
    grads = np.array([
        mc_gradient_reverse(policy, s, 0.5, batch, "batch_mean", seed)
        for seed in range(trials)
    ])
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - exact) <= 3.5 * se + 1e-12)


def test_baseline_reduces_variance():
    s = make_scenario([0.15, 0.25, 0.35, 0.25], [0.0, 1.0, 0.4, -0.3])
    policy = SoftmaxPolicy(np.array([0.3, -0.2, 0.1, 0.0]))
    trials = 800
    var = {}
    for baseline in ("none", "batch_mean"):
        grads = np.array([
            mc_gradient_reverse(policy, s, 0.5, 16, baseline, seed)
            for seed in range(trials)
        ])
        var[baseline] = float(grads.var(axis=0).sum())
    assert var["batch_mean"] < var["none"]


def test_mc_forward_regularizer_variants():
    s = make_scenario([0.2, 0.3, 0.5], [0.0, 1.0, 0.5])
    policy = SoftmaxPolicy(np.array([0.1, -0.3, 0.2]))
    exact_reg = mc_gradient_forward(policy, s, 1.0, 64, seed=5)
    sampled = _mean_mc(
        lambda seed: mc_gradient_forward(
            policy, s, 1.0, 64, seed=seed, sampled_regularizer=True
        ),
        2000,
    )
    expectation = _mean_mc(
        lambda seed: mc_gradient_forward(policy, s, 1.0, 64, seed=seed), 2000
    )
    np.testing.assert_allclose(sampled, expectation, atol=0.02)
    assert np.all(np.isfinite(exact_reg))


@pytest.mark.parametrize(
    "spec,mc",
    [
        (TargetSpec("reverse", 0.5), MonteCarlo(16, "batch_mean")),
        (TargetSpec("forward", 0.5), MonteCarlo(16)),
        (TargetSpec("forward", 0.5), MonteCarlo(16, sampled_regularizer=True)),
        (TargetSpec("generalized", 0.5, 0.3), MonteCarlo(16, "batch_mean")),
    ],
    ids=["reverse", "forward", "forward-sampled", "generalized"],
)
def test_mc_gradient_is_unbiased(spec, mc):
    # one stream for every batch, as train() draws them
    rng = np.random.Generator(np.random.PCG64(910))
    s = make_scenario(rng.uniform(0.5, 2.0, 10), rng.uniform(-1, 1, 10))
    policy = SoftmaxPolicy(rng.uniform(-1, 1, 10))
    trials = 20_000
    grads = np.empty((trials, s.n))
    for i in range(trials):
        grads[i], anchor = mc_gradient(policy, s, spec, mc, rng)
        assert anchor is None
    se = grads.std(axis=0, ddof=1) / np.sqrt(trials)
    z = np.abs(grads.mean(axis=0) - exact_gradient(policy, s, spec)) / se
    assert np.all(z <= 3.5), z


def test_forward_estimators_reject_reference_mass_off_the_policy_support():
    # index 3 carries reference mass but no policy mass, so KL(ref || policy)
    # is infinite: the estimators raise as the exact gradient does, rather
    # than drop that mass
    s = make_scenario([0.25] * 4, [0.0, 1.0, 0.5, 0.2])
    policy = SoftmaxPolicy(np.zeros(4), np.array([True, True, True, False]))
    spec = TargetSpec("forward", 0.5)
    rng = np.random.Generator(np.random.PCG64(0))
    calls = [
        lambda: exact_gradient(policy, s, spec),
        lambda: mc_gradient(policy, s, spec, MonteCarlo(8), rng),
        lambda: mc_gradient(policy, s, spec, MonteCarlo(8), rng,
                            MaraConfig(Constant(0.5), 0.5)),
        lambda: mc_gradient_forward(policy, s, 0.5, 8, 0),
        lambda: mc_gradient_forward(policy, s, 0.5, 8, 0, sampled_regularizer=True),
    ]
    for call in calls:
        with pytest.raises(InfiniteDivergence,
                           match="^reference mass outside the policy support$"):
            call()


# --------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_identity():
    state = AdamState(np.zeros(3), np.zeros(3))
    params = np.array([1.0, -2.0, 0.5])
    state, new = adam_step(state, params, np.zeros(3), lr=0.1)
    np.testing.assert_array_equal(new, params)


def test_adam_first_step_magnitude():
    state = AdamState(np.zeros(2), np.zeros(2))
    g = np.array([3.0, -0.5])
    _, new = adam_step(state, np.zeros(2), g, lr=0.01)
    np.testing.assert_allclose(np.abs(new), 0.01, rtol=1e-6)
    assert np.sign(new[0]) == 1 and np.sign(new[1]) == -1


def test_adam_rejects_non_finite_gradient():
    state = AdamState(np.zeros(2), np.zeros(2))
    with pytest.raises(NonFiniteGradient):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]), lr=0.01)


def test_adam_step_leaves_its_inputs_and_equals_the_textbook_step():
    # the step runs in place, on copies: the caller's moments and params,
    # read-only ones included, keep their bytes
    rng = np.random.Generator(np.random.PCG64(41))
    for case in range(200):
        n = int(rng.integers(1, 50))
        m = rng.normal(size=n)
        v = rng.uniform(0.0, 2.0, n)
        params = rng.normal(size=n) * 10.0
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        t, lr = int(rng.integers(0, 5000)), 10.0 ** rng.uniform(-4, -1)
        inputs = (m, v, params)
        if case % 2:
            for a in inputs:
                a.setflags(write=False)
        before = [a.tobytes() for a in inputs]
        state, new = adam_step(AdamState(m, v, t), params, g, lr)
        assert [a.tobytes() for a in inputs] == before
        om, ov, ot, oparams = _oracle_adam(m, v, t, params, g, lr)
        assert state.t == ot
        assert state.m.tobytes() == om.tobytes() and state.v.tobytes() == ov.tobytes()
        assert new.tobytes() == oparams.tobytes()


# --------------------------------------------------------------------------
# training loop


def test_train_names_a_non_finite_gradient_over_all_indices(monkeypatch):
    # the policy's support is indices 1..3; the gradient turns NaN at index
    # 3, which is column 2 of the support
    s = make_scenario([0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, -1.0])
    cfg = TrainConfig(TargetSpec("reverse", 1.0), Exact(), steps=3)
    _poisoned_gradient(monkeypatch, "_gradient", 2, 2, np.nan)
    with pytest.raises(NonFiniteGradient, match=r"coordinates \[3\]$"):
        train(s, cfg)


@pytest.mark.parametrize("mode", [Exact(), MonteCarlo(8)], ids=["exact", "mc"])
@pytest.mark.parametrize("spec", [TargetSpec("reverse", 0.5), TargetSpec("forward", 0.5),
                                  TargetSpec("generalized", 0.5, 0.1)], ids=lambda sp: sp.kind)
def test_train_refuses_rewards_past_the_trainable_scale(mode, spec):
    # Adam's squared gradient could overflow (it did at 1e308, and those
    # logits stopped moving): the run is refused before its first step
    s = make_scenario([0.2, 0.3, 0.5], [1e308, 0.5, 1e308])
    with pytest.raises(UntrainableScale, match=r"^rewards reach 1e\+308 in absolute value, past"
                                               r" the trainable scale 2\*\*510"):
        train(s, TrainConfig(spec, mode, steps=5))
    s = make_scenario([0.0, 1.0, 1.0, 1.0], [0.0, 1.7e308, 1.7e308, -1.7e308])
    with pytest.raises(UntrainableScale, match="^rewards reach 1.7e"):
        train(s, TrainConfig(spec, mode, steps=5))


def test_the_trainable_scale_is_two_to_the_510():
    cfg = TrainConfig(TargetSpec("reverse", 0.5), Exact(), steps=5)
    train(make_scenario([0.5, 0.5], [-(2.0**510), 0.0]), cfg)
    past = make_scenario([0.5, 0.5], [-math.nextafter(2.0**510, math.inf), 0.0])
    with pytest.raises(UntrainableScale):
        train(past, cfg)


@pytest.mark.parametrize("mode", [Exact(), MonteCarlo(8)], ids=["exact", "mc"])
def test_a_reward_view_past_the_trainable_scale_refuses_its_row_alone(mode):
    # index 1 is treated: its view is the anchor's reward plus beta times
    # log(0.9 / 0.0999), past 2**510 at beta 2e153 though every raw reward is <= 1
    s = make_scenario([0.9, 0.0999, 0.0001], [1.0, 1.0, 0.0])
    cfgs = [TrainConfig(TargetSpec("reverse", b), mode, MaraConfig(Constant(0.5), b), steps=20,
                        learning_rate=0.05, seed=i) for i, b in enumerate([0.1, 2e153, 0.5])]
    outcomes = train_cells(s, cfgs)
    assert [type(o).__name__ for o in outcomes] == ["TrainResult", "UntrainableScale",
                                                    "TrainResult"]
    for outcome, cfg in zip(outcomes, cfgs):
        assert _fingerprint(outcome) == _fingerprint(_alone(s, cfg))


def _poisoned_gradient(monkeypatch, name, step, column, value):
    """Make ``trainer.<name>``, the exact or the Monte-Carlo gradient kernel,
    put ``value`` at ``column`` of its ``step``-th estimate."""
    real, calls = getattr(trainer, name), [0]

    def poisoned(*args):
        out = real(*args)
        g = out if name == "_gradient" else out[0]
        calls[0] += 1
        if calls[0] == step:
            g[column] = value
        return out

    monkeypatch.setattr(trainer, name, poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", [Exact(), MonteCarlo(8)], ids=["exact", "mc"])
def test_train_checks_the_gradient_once_the_logits_turn_non_finite(monkeypatch, mode, value):
    # the support is indices 0, 2, 3 and 4, so column 2 is index 3. Adam
    # turns a non-finite gradient into NaN logits, and only then is the
    # gradient checked, its coordinates named over all n; an infinite one
    # makes Adam divide inf by inf, whose warning is silenced here
    s = make_scenario([0.2, 0.0, 0.3, 0.1, 0.4], [0.5, 0.0, 1.0, -0.5, 0.2])
    cfg = TrainConfig(TargetSpec("reverse", 0.5), mode, steps=10, learning_rate=0.05)
    name = "_gradient" if isinstance(mode, Exact) else "_mc_gradient"
    _poisoned_gradient(monkeypatch, name, 6, 2, value)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteGradient, match=r"coordinates \[3\]$"):
            train(s, cfg)


def test_train_raises_on_overflowing_logits_with_a_finite_gradient(two_point):
    # at learning rate 1e308 the first step moves the logits to +-1e308. The
    # exact gradient is then NaN at step 2; the Monte-Carlo one stays finite,
    # and the logits overflow at step 3
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, steps in ((Exact(), 1), (MonteCarlo(8), 2)):
            train(two_point, TrainConfig(TargetSpec("reverse", 0.5), mode, steps=steps,
                                         learning_rate=1e308))
        with pytest.raises(NonFiniteGradient, match=r"coordinates \[0, 1\]$"):
            train(two_point, TrainConfig(TargetSpec("reverse", 0.5), Exact(), steps=2,
                                         learning_rate=1e308))
        with pytest.raises(ValueError, match="^logits must be finite$"):
            train(two_point, TrainConfig(TargetSpec("reverse", 0.5), MonteCarlo(8), steps=3,
                                         learning_rate=1e308))


def test_train_config_validation():
    spec = TargetSpec("generalized", 0.5, 0.5)
    with pytest.raises(ValueError):
        TrainConfig(spec, steps=0)
    for lr in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(spec, learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(spec, mara=MaraConfig(Constant(0.5), beta=0.5))
    with pytest.raises(ValueError):
        MonteCarlo(batch=1)
    with pytest.raises(ValueError):
        MonteCarlo(baseline="oracle")
    # augmentation anchors the full reference, so forward keeps the exact regularizer
    with pytest.raises(ValueError):
        TrainConfig(TargetSpec("forward", 0.5),
                    gradient_mode=MonteCarlo(sampled_regularizer=True),
                    mara=MaraConfig(Constant(0.5), beta=0.5))
    # the augmented rewards and the target tilt by one beta
    with pytest.raises(ValueError):
        TrainConfig(TargetSpec("reverse", 0.1), mara=MaraConfig(Constant(0.5), beta=1.0))
    # anything but an Exact or MonteCarlo instance would train in exact mode
    for mode in ("mc", MonteCarlo, None):
        with pytest.raises(ValueError, match="gradient_mode"):
            TrainConfig(TargetSpec("reverse", 0.1), gradient_mode=mode)


@pytest.mark.parametrize("spec,mc,mara", [
    (TargetSpec("generalized", 0.1, 0.05), MonteCarlo(8), MaraConfig(Constant(0.5), beta=0.1)),
    (TargetSpec("reverse", 0.1), MonteCarlo(8), MaraConfig(Constant(0.5), beta=1.0)),
    (TargetSpec("forward", 0.1), MonteCarlo(8, sampled_regularizer=True),
     MaraConfig(Constant(0.5), beta=0.1)),
], ids=["generalized", "unequal-beta", "forward-sampled-regularizer"])
def test_train_and_mc_gradient_reject_the_same_augmentations(spec, mc, mara):
    s = scenario_by_name("mara_toy")
    message = "^augmentation "
    with pytest.raises(ValueError, match=message):
        TrainConfig(spec, gradient_mode=mc, mara=mara)
    with pytest.raises(ValueError, match=message):
        mc_gradient(SoftmaxPolicy(np.zeros(s.n)), s, spec, mc,
                    np.random.Generator(np.random.PCG64(0)), mara)


def test_train_trace_length_matches_steps(two_point):
    cfg = TrainConfig(TargetSpec("reverse", 1.0), steps=1)
    trace = train(two_point, cfg).trace
    assert trace.objective_value.shape == trace.tv_to_target.shape == trace.entropy.shape == (1,)


def test_train_is_deterministic(two_point):
    cfg = TrainConfig(
        TargetSpec("reverse", 1.0), gradient_mode=MonteCarlo(batch=8),
        steps=50, seed=7,
    )
    a = train(two_point, cfg)
    b = train(two_point, cfg)
    np.testing.assert_array_equal(a.final_policy.probs, b.final_policy.probs)


def test_train_exact_reverse_converges():
    s = make_scenario([0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.5, -0.5])
    cfg = TrainConfig(TargetSpec("reverse", 0.25), steps=1500)
    result = train(s, cfg)
    assert result.trace.tv_to_target[-1] <= 0.02
    assert result.trace.tv_to_target[-1] < result.trace.tv_to_target[0]


def test_train_exact_forward_converges(two_point):
    cfg = TrainConfig(TargetSpec("forward", 1.0), steps=1500)
    result = train(two_point, cfg)
    assert result.trace.tv_to_target[-1] <= 0.02


def test_train_records_anchor_history():
    s = make_scenario([0.5, 0.3, 0.2], [1.0, 0.9, 0.0])
    cfg = TrainConfig(
        TargetSpec("reverse", 0.5),
        gradient_mode=MonteCarlo(batch=8),
        mara=MaraConfig(Constant(0.5), beta=0.5),
        steps=20,
    )
    result = train(s, cfg)
    assert len(result.anchor_history) == 20
    assert all(a in (0, 1, None) for a in result.anchor_history)
    assert result.trace.above_threshold_mass.shape == (20,)


def test_train_mara_reaches_uniform_above_threshold():
    s = make_scenario([0.6, 0.2, 0.2], [1.0, 0.9, 0.0])
    cfg = TrainConfig(
        TargetSpec("reverse", 0.3),
        mara=MaraConfig(Constant(0.5), beta=0.3),
        steps=2000,
    )
    result = train(s, cfg)
    p = result.final_policy.probs
    assert p[0] == pytest.approx(p[1], rel=0.05)


def test_train_mc_generalized_beta_zero_allows_masked_reference():
    # at beta = 0 the reference plays no part, so the policy may sample
    # indices the reference masks
    s = scenario_by_name("fig2_two_mode")
    assert not np.all(s.reference.support_mask)
    spec = TargetSpec("generalized", 0.0, 0.1)
    cfg = TrainConfig(spec, gradient_mode=MonteCarlo(batch=32), steps=300,
                      learning_rate=0.05)
    result = train(s, cfg)
    p = result.final_policy.probs
    assert np.all(np.isfinite(p))
    tv = 0.5 * np.sum(np.abs(p - generalized_target(s, 0.0, 0.1).probs))
    assert tv <= 0.05 < result.trace.tv_to_target[0]


# --------------------------------------------------------------------------
# the bit-for-bit oracle: the formulas of the full-length implementation
# that the support-column kernels replaced, written out here so that the
# oracle shares no code with the trainer; every sum runs over the policy's
# support, off which the policy carries no mass


def _oracle_softmax(logits, mask):
    lw = np.where(mask, logits, -np.inf)
    active = lw[mask]
    m = active.max()
    lp = lw - (m + np.log(np.sum(np.exp(active - m))))
    p = np.zeros(logits.size)
    p[mask] = np.exp(lp[mask])
    return lp, p


def _oracle_objective(lp, p, mask, s, spec):
    lref, r = s.reference.log_weights, s.rewards.values
    value = float(np.sum(p[mask] * r[mask]))
    if spec.kind == "forward":
        if np.any(s.reference.support_mask & ~mask):
            raise InfiniteDivergence("reference mass outside the policy support")
        m = s.reference.support_mask
        ref = s.reference.probs
        return value - spec.beta * float(np.sum(ref[m] * (lref[m] - lp[m])))
    m = mask
    if spec.beta > 0:
        if np.any(m & ~s.reference.support_mask):
            raise InfiniteDivergence("policy mass outside the reference support")
        value -= spec.beta * float(np.sum(p[m] * (lp[m] - lref[m])))
    if spec.eta > 0:
        value += spec.eta * float(-np.sum(p[m] * lp[m]))
    return value


def _oracle_gradient(lp, p, mask, s, spec):
    lref, r, m = s.reference.log_weights, s.rewards.values, mask
    g = np.zeros(p.size)
    if spec.kind == "forward":
        if np.any(s.reference.support_mask & ~m):
            raise InfiniteDivergence("reference mass outside the policy support")
        g[m] = p[m] * (r[m] - float(np.sum(p[m] * r[m])))
        g[m] += spec.beta * (s.reference.probs[m] - p[m])
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


def _oracle_draw(log_weights, mask, u):
    active = np.flatnonzero(mask)
    cdf = np.cumsum(np.exp(log_weights[active]))
    cdf[-1] = 1.0
    return active[np.searchsorted(cdf, u, side="right")]


def _oracle_coefficients(lp, ys, rewards, ref_lp, beta):
    if beta == 0:
        return np.array(rewards, dtype=float)
    if np.any(~np.isfinite(ref_lp)):
        raise InfiniteDivergence("sampled index outside the reference support")
    return rewards - beta * (lp[ys] - ref_lp)


def _oracle_baseline(coef, baseline):
    if baseline == "none":
        return coef
    b = coef.size
    return (coef - coef.mean()) * (b / (b - 1.0))


def _oracle_score(p, mask, ys, coef):
    g = np.bincount(ys, coef, p.size) / ys.size - p * float(coef.mean())
    g[~mask] = 0.0
    return g


def _oracle_treated(s, tau):
    return (s.rewards.values >= tau) & s.reference.support_mask


def _oracle_anchored_scenario(s, tau, anchor):
    """Forward MARA over the whole support: treated indices take the anchor's
    reward and reference log-mass, and the reference is renormalized."""
    r, lref = s.rewards.values, s.reference.log_weights
    treated = _oracle_treated(s, tau)
    return Scenario(normalize(np.where(treated, lref[anchor], lref)),
                    RewardVector(np.where(treated, r[anchor], r)))


def _oracle_mc_gradient(lp, p, mask, s, spec, mc, rng, mara):
    """One batch's estimate and anchor, as the full-length estimator made it."""
    ys = _oracle_draw(lp, mask, rng.random(mc.batch))
    anchor = None
    if spec.kind == "forward":
        if np.any(s.reference.support_mask & ~mask):
            raise InfiniteDivergence("reference mass outside the policy support")
        ref_s = s
        if mara is not None:
            aug = augment_ref_view(ys, s, mara)
            anchor = aug.anchor_index
            if anchor is not None:
                ref_s = _oracle_anchored_scenario(s, aug.threshold_used, anchor)
        rewards = ref_s.rewards.values[ys]
        if mc.sampled_regularizer:
            ref = ref_s.reference
            ws = _oracle_draw(ref.log_weights, ref.support_mask, rng.random(ys.size))
            ref_mass = np.bincount(ws, minlength=s.n) / ws.size
        else:
            ref_mass = ref_s.reference.probs
        reg = ref_mass - p
        reg[~mask] = 0.0
        return _oracle_score(p, mask, ys, rewards) + spec.beta * reg, anchor
    if spec.beta > 0 and np.any(mask & ~s.reference.support_mask):
        raise InfiniteDivergence("policy mass outside the reference support")
    rewards, ref_lp = s.rewards.values[ys], s.reference.log_weights[ys]
    if mara is not None:
        aug = augment_rewards(ys, s, mara)
        rewards, ref_lp = aug.augmented_rewards, aug.augmented_ref_logprobs
        anchor = aug.anchor_index
    coef = _oracle_coefficients(lp, ys, rewards, ref_lp, spec.beta)
    if spec.eta > 0:
        coef = coef - spec.eta * lp[ys]
    return _oracle_score(p, mask, ys, _oracle_baseline(coef, mc.baseline)), anchor


def _oracle_adam(m, v, t, params, g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    t += 1
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g**2
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return m, v, t, params + lr * m_hat / (np.sqrt(v_hat) + eps)


def _reference_train(s, cfg):
    """``train()`` written out over all n with the oracle formulas above.
    Returns (final distribution, trace columns by name, anchor history,
    target); the above-threshold column is None without augmentation."""
    spec = cfg.objective
    mc = cfg.gradient_mode if isinstance(cfg.gradient_mode, MonteCarlo) else None
    full = spec.kind == "forward" or (spec.kind == "generalized" and spec.beta == 0)
    mask = np.ones(s.n, bool) if full else np.asarray(s.reference.support_mask)
    logits = np.zeros(s.n)

    tau = anchor = None
    if cfg.mara is not None:
        r = s.rewards.values[s.reference.support_mask]
        tau = resolve_threshold(cfg.mara.threshold_rule, r)
        anchor = global_anchor(s, tau)
    if anchor is None:
        target, scenario = analytic_target(s, spec).distribution, s
    elif spec.kind == "reverse":
        target = mara_target(s, spec.beta, tau, anchor)
        r, lref = s.rewards.values, s.reference.log_weights
        bonus = r[anchor] + spec.beta * (lref[anchor] - lref)
        scenario = Scenario(s.reference,
                            RewardVector(np.where(_oracle_treated(s, tau), bonus, r)))
    else:
        scenario = _oracle_anchored_scenario(s, tau, anchor)
        target = forward_kl_target(scenario, spec.beta).distribution

    rng = np.random.Generator(np.random.PCG64(cfg.seed)) if mc is not None else None
    m, v, t = np.zeros(s.n), np.zeros(s.n), 0
    trace, anchors = {name: [] for name in _TRACE_COLUMNS}, []
    lp, p = _oracle_softmax(logits, mask)
    for _ in range(cfg.steps):
        if mc is None:
            g = _oracle_gradient(lp, p, mask, scenario, spec)
            if cfg.mara is not None:
                anchors.append(global_anchor(s, tau))
        else:
            g, batch_anchor = _oracle_mc_gradient(lp, p, mask, s, spec, mc, rng, cfg.mara)
            if cfg.mara is not None:
                anchors.append(batch_anchor)
        assert np.all(np.isfinite(g))
        m, v, t, logits = _oracle_adam(m, v, t, logits, g, cfg.learning_rate)
        lp, p = _oracle_softmax(logits, mask)
        trace["objective_value"].append(_oracle_objective(lp, p, mask, scenario, spec))
        trace["tv_to_target"].append(float(0.5 * np.sum(np.abs(p[mask] - target.probs[mask]))))
        trace["entropy"].append(float(-np.sum(p[mask] * lp[mask])))
        if tau is not None:
            above = mask & (s.rewards.values >= tau)
            trace["above_threshold_mass"].append(float(np.sum(p[above])))
    columns = {name: np.array(values) for name, values in trace.items()}
    if tau is None:
        columns["above_threshold_mass"] = None
    return normalize(lp), columns, anchors, target


_TRACE_COLUMNS = ("objective_value", "tv_to_target", "entropy", "above_threshold_mass")


def _assert_trace_equals(trace, columns):
    """Each column of ``trace`` equals the oracle's, float for float."""
    for name in _TRACE_COLUMNS:
        got, want = getattr(trace, name), columns[name]
        if want is None:
            assert got is None, name
        else:
            np.testing.assert_array_equal(got, want, strict=True, err_msg=name)


_MARA = MaraConfig(Constant(MARA_TOY_TAU), beta=0.1)


def _oracle_scenario(name):
    if name == "one_point":
        return make_scenario([1.0], [0.3], name="one_point")
    if name == "three_of_1000":
        # a heavily masked support: 3 of 1000 indices carry reference mass,
        # two of them, and many masked indices, at or above MARA_TOY_TAU
        ref = np.zeros(1000)
        ref[[17, 480, 912]] = [0.2, 0.5, 0.3]
        rewards = np.random.Generator(np.random.PCG64(1000)).uniform(-1.0, 1.0, 1000)
        rewards[[17, 480, 912]] = [0.9, 0.2, 0.7]
        return make_scenario(ref, rewards, name="three_of_1000")
    return scenario_by_name(name)


@pytest.mark.parametrize(
    "scenario,objective,mode,mara",
    [
        ("fig2_two_mode", TargetSpec("reverse", 0.1), Exact(), None),
        ("fig2_two_mode", TargetSpec("forward", 0.1), Exact(), None),
        ("fig2_two_mode", TargetSpec("generalized", 0.1, 0.05), Exact(), None),
        ("fig2_two_mode", TargetSpec("reverse", 0.1), MonteCarlo(32, "batch_mean"), None),
        ("fig2_two_mode", TargetSpec("forward", 0.1), MonteCarlo(32), None),
        ("fig2_two_mode", TargetSpec("forward", 0.1),
         MonteCarlo(32, sampled_regularizer=True), None),
        ("mara_toy", TargetSpec("reverse", 0.1), Exact(), _MARA),
        ("mara_toy", TargetSpec("forward", 0.1), Exact(), _MARA),
        ("mara_toy", TargetSpec("reverse", 0.1), MonteCarlo(32), _MARA),
        ("mara_toy", TargetSpec("forward", 0.1), MonteCarlo(32), _MARA),
        ("mara_toy", TargetSpec("forward", 0.1), MonteCarlo(32),
         MaraConfig(BatchPercentile(0.5), beta=0.1)),
        # batch_mean is the leave-one-out baseline
        ("fig2_two_mode", TargetSpec("generalized", 0.1, 0.05),
         MonteCarlo(32, "batch_mean"), None),
        ("fig2_two_mode", TargetSpec("generalized", 0.0, 0.1), Exact(), None),
        ("fig2_two_mode", TargetSpec("reverse", 0.1), MonteCarlo(32, "none"), None),
        ("mara_toy", TargetSpec("reverse", 0.1), MonteCarlo(32),
         MaraConfig(BatchPercentile(0.5), beta=0.1)),
        ("one_point", TargetSpec("reverse", 0.1), Exact(), None),
        ("one_point", TargetSpec("reverse", 0.1), MonteCarlo(8), None),
        ("three_of_1000", TargetSpec("reverse", 0.1), Exact(), None),
        ("three_of_1000", TargetSpec("reverse", 0.1), MonteCarlo(32), None),
        ("three_of_1000", TargetSpec("reverse", 0.1), Exact(), _MARA),
        ("three_of_1000", TargetSpec("reverse", 0.1), MonteCarlo(32), _MARA),
    ],
    ids=["exact-reverse", "exact-forward", "exact-generalized", "mc-reverse",
         "mc-forward", "mc-forward-sampled", "exact-mara", "exact-mara-forward",
         "mc-mara-reverse",
         "mc-mara-forward", "mc-mara-forward-percentile",
         "mc-generalized-leave-one-out", "exact-generalized-beta-zero",
         "mc-reverse-none", "mc-mara-reverse-percentile", "n1-exact", "n1-mc",
         "masked-3-of-1000-exact", "masked-3-of-1000-mc", "masked-3-of-1000-exact-mara",
         "masked-3-of-1000-mc-mara"],
)
def test_train_matches_fresh_policy_reference_bit_for_bit(scenario, objective, mode, mara):
    s = _oracle_scenario(scenario)
    cfg = TrainConfig(objective, gradient_mode=mode, mara=mara, steps=60,
                      learning_rate=0.05, seed=11)
    result = train(s, cfg)
    final, trace, anchors, target = _reference_train(s, cfg)
    np.testing.assert_array_equal(result.final_policy.log_weights, final.log_weights)
    np.testing.assert_array_equal(result.target.log_weights, target.log_weights)
    _assert_trace_equals(result.trace, trace)
    assert result.anchor_history == anchors


def test_monte_carlo_mara_runs_the_public_batch_views(monkeypatch):
    # training augments each row's batch through the public views that the
    # oracle above checks: one call per row per step, on one cell and on a
    # batch of three
    calls = {}

    def counted(name):
        real = getattr(mara, name)

        def view(*args):
            calls[name] += 1
            return real(*args)
        return view

    for name in ("augment_rewards", "augment_ref_view"):
        monkeypatch.setattr(mara, name, counted(name))
    s = scenario_by_name("mara_toy")
    for kind, view in (("reverse", "augment_rewards"), ("forward", "augment_ref_view")):
        for betas in ([0.1], [0.05, 0.1, 0.5]):
            cfgs = [TrainConfig(TargetSpec(kind, b), MonteCarlo(16),
                                MaraConfig(Constant(MARA_TOY_TAU), b), steps=7, seed=i)
                    for i, b in enumerate(betas)]
            calls.update(augment_rewards=0, augment_ref_view=0)
            outcomes = train_cells(s, cfgs)
            assert all(len(o.anchor_history) == 7 for o in outcomes)
            assert calls[view] == 7 * len(cfgs) and sum(calls.values()) == calls[view]


def test_a_block_of_one_step_is_traced_as_a_full_one():
    # the trace is computed a block of steps at a time, a block sized by the
    # support columns; one step past a full block, the last block holds a
    # single row
    s = scenario_by_name("fig2_two_mode")
    k = int(np.count_nonzero(s.reference.support_mask))
    steps = trainer._BLOCK_BYTES // (8 * k) + 1
    cfg = TrainConfig(TargetSpec("generalized", 0.1, 0.05), MonteCarlo(32), steps=steps,
                      learning_rate=0.05, seed=5)
    result = train(s, cfg)
    final, trace, anchors, target = _reference_train(s, cfg)
    np.testing.assert_array_equal(result.final_policy.log_weights, final.log_weights)
    assert trace["tv_to_target"].size == steps
    _assert_trace_equals(result.trace, trace)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except InfiniteDivergence as exc:
        return f"InfiniteDivergence: {exc}"


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_public_functions_equal_the_full_length_formulas_byte_for_byte():
    # random policies and scenarios with masked supports on either side,
    # n = 1..40, every objective family; each public function compresses to
    # the support columns, so each must give the full-length formula's bytes
    rng = np.random.Generator(np.random.PCG64(2024))
    checked = raised = 0
    for case in range(300):
        n = int(rng.integers(1, 41))
        lw = rng.uniform(-4.0, 2.0, n)
        if n > 1 and rng.random() < 0.5:
            lw[rng.choice(n, int(rng.integers(1, n)), replace=False)] = -np.inf
        s = Scenario(normalize(lw), RewardVector(rng.uniform(-2.0, 2.0, n)))
        mask = np.ones(n, bool)
        pick = rng.random()
        if pick < 0.35:
            mask = np.array(s.reference.support_mask)
        elif pick < 0.7 and n > 1:
            mask = rng.random(n) < 0.6
            mask[int(rng.integers(n))] = True
        policy = SoftmaxPolicy(rng.uniform(-3.0, 3.0, n), mask)
        lp, p = _oracle_softmax(policy.logits, mask)
        assert _same(policy.log_probs(), lp) and _same(policy.probs(), p)
        beta = float(rng.choice([0.0, 0.05, 0.5, 2.0]))
        eta = float(rng.choice([0.0, 0.3]))
        specs = [TargetSpec("generalized", beta, eta)] if beta + eta > 0 else []
        if beta > 0:
            specs += [TargetSpec("reverse", beta), TargetSpec("forward", beta)]
        for spec in specs:
            for public, oracle in ((exact_gradient, _oracle_gradient),
                                   (exact_objective, _oracle_objective)):
                got = _outcome(public, policy, s, spec)
                want = _outcome(oracle, lp, p, mask, s, spec)
                assert _same(got, want), (case, spec, public.__name__)
                checked += 1
                raised += isinstance(want, str)
            for mc in (MonteCarlo(6, "none"), MonteCarlo(6, "batch_mean"),
                       MonteCarlo(6, sampled_regularizer=True)):
                got = _outcome(mc_gradient, policy, s, spec, mc,
                               np.random.Generator(np.random.PCG64(case)))
                want = _outcome(_oracle_mc_gradient, lp, p, mask, s, spec, mc,
                                np.random.Generator(np.random.PCG64(case)), None)
                if isinstance(got, tuple):
                    assert got[1] is None and not isinstance(want, str)
                    got, want = got[0], want[0]
                assert _same(got, want), (case, spec, mc)
        ys = _oracle_draw(lp, mask, np.random.Generator(np.random.PCG64(case)).random(7))
        rng.normal(size=ys.size)  # keeps the stream that later cases draw from
        if beta > 0:
            r, lref = s.rewards.values[ys], s.reference.log_weights[ys]
            assert _same(_outcome(reverse_coefficients, policy, ys, r, lref, beta),
                         _outcome(_oracle_coefficients, lp, ys, r, lref, beta))
    # both outcomes occur: values and the support checks' raises
    assert checked > 500 and 20 < raised < checked


def test_seeded_estimators_equal_the_oracle_on_every_seed():
    # criterion 9's pattern: one policy, many seeds; every call draws through
    # the policy's one cached table, in column positions of a masked support
    rng = np.random.Generator(np.random.PCG64(909))
    lw = rng.uniform(-1.0, 1.0, 12)
    lw[[3, 8]] = -np.inf
    s = Scenario(normalize(lw), RewardVector(rng.uniform(-1.0, 1.0, 12)))
    reverse_mask = np.array(s.reference.support_mask)
    # forward needs the reference support; index 3 is on, index 8 off
    forward_mask = reverse_mask.copy()
    forward_mask[3] = True
    cases = [
        (reverse_mask, TargetSpec("reverse", 0.5), MonteCarlo(16, "none"),
         lambda policy, seed: mc_gradient_reverse(policy, s, 0.5, 16, "none", seed)),
        (forward_mask, TargetSpec("forward", 0.5), MonteCarlo(16, sampled_regularizer=True),
         lambda policy, seed: mc_gradient_forward(policy, s, 0.5, 16, seed,
                                                  sampled_regularizer=True)),
    ]
    for mask, spec, mc, estimate in cases:
        policy = SoftmaxPolicy(rng.uniform(-1.0, 1.0, 12), mask)
        lp, p = _oracle_softmax(policy.logits, mask)
        table = policy._table
        for seed in range(2000):
            want, _ = _oracle_mc_gradient(lp, p, mask, s, spec, mc,
                                          np.random.Generator(np.random.PCG64(seed)), None)
            assert _same(estimate(policy, seed), want), (spec.kind, seed)
        assert policy._table is table
    # the seeded forms build their objective and estimator once per argument
    # tuple; an invalid tuple is never kept, so it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="beta"):
            mc_gradient_reverse(policy, s, -0.5, 16, "none", 0)
        with pytest.raises(ValueError, match="needs batch >= 2"):
            mc_gradient_forward(policy, s, 0.5, 1, 0)


# --------------------------------------------------------------------------
# the columnar trace


def test_trace_has_no_above_threshold_column_without_augmentation():
    trace = train(scenario_by_name("mara_toy"), TrainConfig(TargetSpec("reverse", 0.1),
                                                            steps=3)).trace
    assert trace.above_threshold_mass is None
    assert trace.objective_value.shape == trace.tv_to_target.shape == trace.entropy.shape == (3,)


def test_trace_pickles_to_an_equal_read_only_trace():
    cfg = TrainConfig(TargetSpec("forward", 0.1), mara=_MARA, steps=4)
    trace = train(scenario_by_name("mara_toy"), cfg).trace
    copy = pickle.loads(pickle.dumps(trace))
    assert isinstance(copy, Trace)
    for name in _TRACE_COLUMNS:
        column = getattr(copy, name)
        np.testing.assert_array_equal(column, getattr(trace, name))
        with pytest.raises(ValueError):
            column[0] = 0.0


# --------------------------------------------------------------------------
# the batch engine: each row equals its cell trained alone


def _fingerprint(outcome):
    """Every byte of a run's outcome, or the type and message it raised."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    t = outcome.trace
    columns = (t.objective_value, t.tv_to_target, t.entropy, t.above_threshold_mass)
    return (outcome.final_policy.log_weights.tobytes(), outcome.target.log_weights.tobytes(),
            *[None if c is None else c.tobytes() for c in columns],
            tuple(outcome.anchor_history))


def _alone(s, cfg):
    try:
        return train(s, cfg)
    except Exception as exc:
        return exc


def _random_batch(rng):
    """A scenario and 1-8 configs on it that share a batch key."""
    pick = int(rng.integers(3))
    s = (scenario_by_name("fig2_two_mode") if pick == 0 else scenario_by_name("mara_toy")
         if pick == 1 else random_scenario(rng, n_max=12))
    kind = str(rng.choice(["reverse", "forward", "generalized", "generalized-beta-zero"]))
    if rng.random() < 0.4:
        mode = Exact()
    else:
        baseline = str(rng.choice(["none", "batch_mean"]))
        sampled = kind == "forward" and rng.random() < 0.5
        mode = MonteCarlo(int(rng.integers(2, 17)), baseline, sampled)
    rule = None
    if kind in ("reverse", "forward") and not getattr(mode, "sampled_regularizer", False):
        tau = float(np.quantile(s.rewards.values, 0.6))
        rule = (None, Constant(tau), BatchPercentile(0.7))[int(rng.integers(3))]
    cfgs = []
    for _ in range(int(rng.integers(1, 9))):
        beta = float(rng.choice([0.05, 0.1, 0.3, 1.0, float(rng.uniform(0.01, 2.0))]))
        if kind == "generalized":
            spec = TargetSpec(kind, beta, float(rng.uniform(0.01, 0.5)))
        elif kind == "generalized-beta-zero":
            spec = TargetSpec("generalized", 0.0, beta)
        else:
            spec = TargetSpec(kind, beta)
        mara = None if rule is None else MaraConfig(rule, beta=beta)
        cfgs.append(TrainConfig(spec, mode, mara, steps=25, learning_rate=0.05,
                                seed=int(rng.integers(0, 1000))))
    return s, cfgs


def test_every_row_of_a_batch_equals_its_cell_trained_alone():
    rng = np.random.Generator(np.random.PCG64(1212))
    sizes, seen = [], set()
    for _ in range(40):
        s, cfgs = _random_batch(rng)
        batched = train_cells(s, cfgs)
        assert len(batched) == len(cfgs)
        for cfg, outcome in zip(cfgs, batched):
            assert _fingerprint(outcome) == _fingerprint(_alone(s, cfg)), cfg
        spec, mode = cfgs[0].objective, cfgs[0].gradient_mode
        sizes.append(len(cfgs))
        seen |= {(spec.kind, spec.beta > 0), type(mode).__name__, cfgs[0].mara is not None}
    assert min(sizes) == 1 and max(sizes) == 8
    assert seen == {("reverse", True), ("forward", True), ("generalized", True),
                    ("generalized", False), "Exact", "MonteCarlo", True, False}


def test_a_batched_mara_run_equals_its_cells_trained_alone(monkeypatch):
    # the random batches above may miss some of these; a forward batch
    # builds its one anchored reference once, not once per row (a
    # Monte-Carlo step builds one per row and anchor)
    s = scenario_by_name("mara_toy")
    real, built = mara.anchored_reference, []
    monkeypatch.setattr(mara, "anchored_reference", lambda *a: built.append(a) or real(*a))
    runs = _count_runs(monkeypatch)
    for kind in ("reverse", "forward"):
        for mode in (Exact(), MonteCarlo(16)):
            cfgs = [TrainConfig(TargetSpec(kind, b), mode, MaraConfig(Constant(MARA_TOY_TAU), b),
                                steps=25, learning_rate=0.05, seed=i)
                    for i, b in enumerate((0.05, 0.1, 0.5))]
            built.clear()
            runs.clear()
            batched = train_cells(s, cfgs)
            assert runs == [3]  # one program, no retry cell by cell
            if kind == "forward" and isinstance(mode, Exact):
                assert len(built) == 1
            for cfg, outcome in zip(cfgs, batched):
                assert isinstance(outcome.final_policy, Categorical)
                assert _fingerprint(outcome) == _fingerprint(train(s, cfg)), cfg


def test_rows_that_raise_leave_the_others_bit_for_bit(monkeypatch):
    # the Monte-Carlo estimates of two rows turn NaN, each at a step of its
    # own, so each fails at that step, in the batch and alone
    n = 40
    s = make_scenario(np.linspace(1.0, 2.0, n), np.linspace(0.0, 1.0, n))
    cfgs = [TrainConfig(TargetSpec("reverse", 0.5 + 0.1 * seed), MonteCarlo(4, "none"),
                        steps=40, learning_rate=0.05, seed=seed) for seed in range(8)]
    faults = [(cfgs[2].objective.beta, 9, "nan"), (cfgs[5].objective.beta, 27, "nan")]
    monkeypatch.setattr(trainer, "_mc_gradient", _poisoned_mc_gradient(faults))
    batched = train_cells(s, cfgs)
    alone = []
    for cfg in cfgs:
        monkeypatch.setattr(trainer, "_mc_gradient", _poisoned_mc_gradient(faults))
        alone.append(_alone(s, cfg))
    assert [type(o).__name__ for o in alone] == [
        "TrainResult", "TrainResult", "NonFiniteGradient", "TrainResult",
        "TrainResult", "NonFiniteGradient", "TrainResult", "TrainResult"]
    for a, b in zip(batched, alone):
        assert _fingerprint(a) == _fingerprint(b)
    monkeypatch.undo()
    # forward's multiplier bracket overflows at a beta near the float limit,
    # so that row fails before the first step, without a warning
    s = make_scenario(np.linspace(1.0, 2.0, n), np.linspace(0.0, 1.0, n))
    cfgs = [TrainConfig(TargetSpec("forward", beta), MonteCarlo(4, "none"),
                        steps=40, learning_rate=0.05, seed=seed)
            for seed, beta in enumerate([0.5, 1e308, 1.0])]
    batched = train_cells(s, cfgs)
    alone = [_alone(s, cfg) for cfg in cfgs]
    assert [type(o).__name__ for o in alone] == ["TrainResult", "SolverFailure", "TrainResult"]
    for a, b in zip(batched, alone):
        assert _fingerprint(a) == _fingerprint(b)


def _poisoned_mc_gradient(faults):
    """``trainer._mc_gradient`` that, on the ``step``-th call of a run, turns
    the estimate of the rows at beta b NaN (fault "nan") or raises (fault
    "raise"), for each (b, step, fault) in ``faults``. A run is told apart by its list
    of generators, kept alive here so that its id is not reused."""
    real, runs = trainer._mc_gradient, {}

    def poisoned(prob, lp, p, mc, rngs, maras):
        g, anchors = real(prob, lp, p, mc, rngs, maras)
        run = runs.setdefault(id(rngs), [rngs, 0])
        run[1] += 1
        for beta, step, fault in faults:
            if run[1] == step:
                hit = np.reshape(prob.beta == beta, -1)
                if fault == "nan":
                    g.reshape(len(rngs), -1)[hit] = np.nan
                elif hit.any():
                    raise InfiniteDivergence("a stand-in failure mid-run")
        return g, anchors

    return poisoned


def test_rows_that_fail_mid_run_leave_their_anchors_and_targets_to_the_others(monkeypatch):
    s = scenario_by_name("mara_toy")
    betas = [0.05, 0.1, 0.2, 0.4, 0.8]
    cfgs = [TrainConfig(TargetSpec("reverse", b), MonteCarlo(16), MaraConfig(Constant(0.5), b),
                        steps=30, learning_rate=0.05, seed=i) for i, b in enumerate(betas)]
    faults = [(0.1, 5, "nan"), (0.4, 12, "raise")]
    monkeypatch.setattr(trainer, "_mc_gradient", _poisoned_mc_gradient(faults))
    batched = train_cells(s, cfgs)
    alone = []
    for cfg in cfgs:
        monkeypatch.setattr(trainer, "_mc_gradient", _poisoned_mc_gradient(faults))
        alone.append(_alone(s, cfg))
    assert [type(o).__name__ for o in alone] == [
        "TrainResult", "NonFiniteGradient", "TrainResult", "InfiniteDivergence", "TrainResult"]
    for a, b in zip(batched, alone):
        assert _fingerprint(a) == _fingerprint(b)


def _count_runs(monkeypatch):
    """The number of cells of each ``_Cells`` program built from here on."""
    runs = []

    class Counted(trainer._Cells):
        def __init__(self, s, cfgs):
            runs.append(len(cfgs))
            super().__init__(s, cfgs)

    monkeypatch.setattr(trainer, "_Cells", Counted)
    return runs


def test_a_failing_batch_costs_one_run_more_per_cell(two_point, monkeypatch):
    ok = [TrainConfig(TargetSpec("forward", b), steps=5) for b in (0.5, 1.0, 2.0)]
    failing = [TrainConfig(TargetSpec("forward", b), steps=5) for b in (0.5, 1e308, 2.0)]
    runs = _count_runs(monkeypatch)
    train_cells(two_point, ok)
    assert runs == [3]
    runs.clear()
    outcomes = train_cells(two_point, failing)
    assert runs == [3, 1, 1, 1]
    assert [type(o).__name__ for o in outcomes] == ["TrainResult", "SolverFailure", "TrainResult"]
    # a batch of one is its own run: it fails once, through either door
    runs.clear()
    (outcome,) = train_cells(two_point, failing[1:2])
    assert isinstance(outcome, SolverFailure) and runs == [1]
    runs.clear()
    with pytest.raises(SolverFailure):
        train(two_point, failing[1])
    assert runs == [1]
    # the keys are checked before anything runs
    runs.clear()
    with pytest.raises(ValueError, match="batch_key"):
        train_cells(two_point, [ok[0], TrainConfig(TargetSpec("reverse", 1.0), steps=5)])
    assert runs == []


def test_a_batch_rejects_cells_of_different_keys(two_point):
    cfgs = [TrainConfig(TargetSpec("reverse", 1.0)), TrainConfig(TargetSpec("forward", 1.0))]
    assert trainer.batch_key(cfgs[0]) != trainer.batch_key(cfgs[1])
    with pytest.raises(ValueError, match="batch_key"):
        train_cells(two_point, cfgs)
