import numpy as np
import pytest

from conftest import make_scenario, random_scenario
from kllab.dist import RewardVector, Scenario, normalize
from kllab.errors import InvalidAnchor, InvalidCoefficient
from kllab.harness import scenario_by_name
from kllab.mara import (
    BatchPercentile,
    Constant,
    MaraConfig,
    anchored_reference,
    anchored_rewards,
    augment_ref_view,
    augment_rewards,
    global_anchor,
    mara_target,
    resolve_threshold,
    reward_view,
    select_anchor,
)
from kllab.targets import reverse_kl_target
from kllab.trainer import SoftmaxPolicy, reverse_coefficients


def hand_scenario() -> Scenario:
    """Four tokens whose first three reference log-masses are exactly
    -2, -5, -3; the fourth absorbs the leftover mass."""
    masses = np.array([np.exp(-2.0), np.exp(-5.0), np.exp(-3.0), 0.0])
    masses[3] = 1.0 - masses.sum()
    return Scenario(
        normalize(np.log(masses)),
        RewardVector(np.array([1.0, 0.8, 0.2, 0.0])),
        name="hand",
    )


CFG = MaraConfig(Constant(0.5), beta=0.1)


def test_config_validation():
    with pytest.raises(InvalidCoefficient):
        MaraConfig(Constant(0.5), beta=0.0)
    with pytest.raises(ValueError):
        BatchPercentile(1.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_constant_threshold_must_be_finite(tau):
    # no reward is >= NaN, so a NaN threshold would switch augmentation off
    with pytest.raises(ValueError, match="threshold must be finite"):
        Constant(tau)


def test_resolve_threshold():
    assert resolve_threshold(Constant(0.4), np.array([0.0, 1.0])) == 0.4
    r = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert resolve_threshold(BatchPercentile(0.5), r) == 2.0
    assert resolve_threshold(BatchPercentile(0.75), r) == 3.0


def test_select_anchor_prefers_reference_mass():
    s = hand_scenario()
    # both 0 and 1 qualify; 0 carries more reference mass
    assert select_anchor([1, 0, 2], s, threshold=0.5) == 0
    # restricting the batch changes the anchor
    assert select_anchor([1, 2], s, threshold=0.5) == 1
    assert select_anchor([2, 3], s, threshold=0.5) is None


def test_select_anchor_tiebreaks():
    s = make_scenario([0.4, 0.4, 0.2], [0.6, 0.9, 0.1])
    assert select_anchor([0, 1], s, 0.5) == 0
    assert select_anchor([1, 0], s, 0.5) == 1


def _select_anchor_loop(batch_indices, s, threshold):
    """The anchor rule written out, independent of the code under test: a
    member is treated where its reward is >= the threshold and its reference
    mass > 0; one pass keeps the first treated member with the strictly
    largest reference log-mass, so ties go to the earliest position."""
    lref = s.reference.log_weights
    r = s.rewards.values
    best = best_key = None
    for y in batch_indices:
        y = int(y)
        if not (r[y] >= threshold and lref[y] > -np.inf):
            continue
        if best_key is None or lref[y] > best_key:
            best, best_key = y, lref[y]
    return best


def test_select_anchor_matches_reference_loop():
    # few distinct masses and rewards, so reference and reward ties are
    # common; zero masses are masked indices
    rng = np.random.Generator(np.random.PCG64(74))
    anchors = set()
    for _ in range(400):
        n = int(rng.integers(1, 13))
        masses = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
        masses[rng.integers(n)] = 1.0
        s = make_scenario(masses, rng.choice([0.0, 0.5, 1.0], size=n))
        batches = [rng.integers(0, n, size=int(rng.integers(1, 20))), np.arange(n)]
        for batch in batches:
            for tau in (0.0, 0.5, 1.0, 2.0):
                expected = _select_anchor_loop(batch, s, tau)
                assert select_anchor(batch, s, tau) == expected
                anchors.add(expected)
    assert None in anchors and len(anchors) > 5


def test_augment_rewards_hand_example():
    s = hand_scenario()
    batch = augment_rewards([0, 1, 2], s, CFG)
    assert batch.anchor_index == 0
    assert batch.threshold_used == 0.5
    np.testing.assert_allclose(batch.augmented_rewards, [1.0, 1.3, 0.2], atol=1e-12)
    # reward view keeps the true reference log-probs
    np.testing.assert_allclose(
        batch.augmented_ref_logprobs, s.reference.log_weights[[0, 1, 2]], atol=0
    )


def test_augment_ref_view_hand_example():
    s = hand_scenario()
    batch = augment_ref_view([0, 1, 2], s, CFG)
    assert batch.anchor_index == 0
    np.testing.assert_allclose(batch.augmented_rewards, [1.0, 1.0, 0.2], atol=1e-12)
    lref0 = s.reference.log_weights[0]
    np.testing.assert_allclose(
        batch.augmented_ref_logprobs,
        [lref0, lref0, s.reference.log_weights[2]],
        atol=0,
    )


def test_below_threshold_transparency():
    s = hand_scenario()
    cfg = MaraConfig(Constant(5.0), beta=0.1)
    batch = augment_rewards([0, 1, 2, 3], s, cfg)
    assert batch.anchor_index is None
    np.testing.assert_array_equal(batch.augmented_rewards, batch.raw_rewards)


def test_augment_leaves_off_support_members_raw():
    # index 68 of fwd_off_support has reward 0.726 >= tau but no reference
    # mass; like the whole-support views, both batch views keep its raw reward
    s = scenario_by_name("fwd_off_support")
    assert not s.reference.support_mask[68]
    assert s.rewards.values[68] == pytest.approx(0.726, abs=5e-4)
    cfg = MaraConfig(Constant(0.5), beta=0.1)
    ref_batch = augment_ref_view([18, 68], s, cfg)
    assert ref_batch.anchor_index == 18
    assert ref_batch.augmented_rewards[1] == s.rewards.values[68]
    assert ref_batch.augmented_ref_logprobs[1] == -np.inf
    assert augment_rewards([18, 68], s, cfg).augmented_rewards[1] == s.rewards.values[68]
    assert anchored_rewards(s, 0.5, 18, slice(None))[68] == ref_batch.augmented_rewards[1]
    assert reward_view(s, 0.1, 0.5, 18, slice(None))[68] == s.rewards.values[68]


def test_augment_duplicates_share_anchor():
    s = hand_scenario()
    batch = augment_rewards([1, 1, 0], s, CFG)
    assert batch.anchor_index == 0
    np.testing.assert_allclose(batch.augmented_rewards, [1.3, 1.3, 1.0], atol=1e-12)


def test_global_anchor():
    s = hand_scenario()
    assert global_anchor(s, tau=0.5) == 0
    assert global_anchor(s, tau=2.0) is None


def _tied_scenarios(rng, count):
    """Scenarios with few distinct masses and rewards, so that reference
    and reward ties are common; zero masses are masked indices."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        masses = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
        masses[rng.integers(n)] = 1.0
        yield make_scenario(masses, rng.choice([0.0, 0.5, 1.0], size=n))


def test_global_anchor_is_select_anchor_over_every_index():
    # both read mara._best, so each is checked against the rule written out
    # as a loop: global_anchor and select_anchor over every index, and
    # select_anchor over a shuffled batch with repeats, where ties go to the
    # earliest batch position
    rng = np.random.Generator(np.random.PCG64(75))
    anchors, masked = set(), 0
    for s in list(_tied_scenarios(rng, 400)) + [random_scenario(rng) for _ in range(200)]:
        every = np.arange(s.n)
        batch = rng.permutation(np.concatenate((every, rng.integers(0, s.n, size=s.n))))
        masked += not s.reference.support_mask.all()
        for tau in (0.0, 0.5, 1.0, 2.0, float(np.median(s.rewards.values))):
            expected = _select_anchor_loop(every, s, tau)
            assert global_anchor(s, tau) == expected
            assert select_anchor(every, s, tau) == expected
            assert select_anchor(batch, s, tau) == _select_anchor_loop(batch, s, tau)
            anchors.add(expected)
    assert None in anchors and len(anchors) > 5 and masked > 200


def test_global_anchor_tie_goes_to_the_earliest_index():
    # indices 1 and 3 tie on reference mass above tau; 0 is below it and
    # 4, masked, has the best reward
    s = make_scenario([0.4, 0.2, 0.2, 0.2, 0.0], [0.0, 1.0, 0.2, 1.0, 5.0])
    assert global_anchor(s, 0.5) == 1
    assert global_anchor(s, 4.0) is None


def test_mara_target_equals_the_where_formula_byte_for_byte():
    rng = np.random.Generator(np.random.PCG64(76))
    checked = 0
    for s in list(_tied_scenarios(rng, 150)) + [
        random_scenario(rng) for _ in range(150)
    ]:
        r, lref = s.rewards.values, s.reference.log_weights
        for tau in (0.0, 0.5, float(np.median(r))):
            anchor = global_anchor(s, tau)
            if anchor is None:
                continue
            for beta in (0.05, 0.5, 3.0):
                treated = (r >= tau) & s.reference.support_mask
                expected = normalize(np.where(
                    treated, lref[anchor] + r[anchor] / beta, lref + r / beta))
                got = mara_target(s, beta, tau, anchor)
                assert got.log_weights.tobytes() == expected.log_weights.tobytes()
                assert got.support_mask.tobytes() == expected.support_mask.tobytes()
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("masses, rewards, probs", [
    # the tilt of the treated indices 0 and 2 overflows
    ([0.2, 0.3, 0.5], [1e308, 0.5, 1e308], [0.5, 0.0, 0.5]),
    # ... with a masked index above tau and an untreated one far below
    ([0.2, 0.3, 0.4, 0.0, 0.1], [1e308, 0.5, 1e308, 1e308, -1e308], [0.5, 0.0, 0.5, 0.0, 0.0]),
])
def test_mara_target_of_rewards_near_the_float_limit(masses, rewards, probs):
    s = make_scenario(masses, rewards)
    anchor = global_anchor(s, 0.9)
    assert anchor == 2
    got = mara_target(s, 0.5, 0.9, anchor)
    np.testing.assert_allclose(got.probs, probs, rtol=1e-15, atol=0)


def test_mara_target_of_an_overflowing_tilt_that_the_anchor_replaces():
    # index 0's tilt overflows, but as a treated index it takes the anchor's
    # log-mass, so the target is that of finite rewards
    masses = [0.2, 0.3, 0.5]
    s = make_scenario(masses, [1e308, 0.5, 1.0])
    got = mara_target(s, 0.5, 0.9, 2)
    expected = np.array([0.5 * np.e**2, 0.3 * np.e, 0.5 * np.e**2])
    np.testing.assert_allclose(got.probs, expected / expected.sum(), rtol=1e-14)
    np.testing.assert_allclose(got.probs, [0.4503, 0.0994, 0.4503], atol=5e-5)


def test_whole_support_views_validate_the_anchor():
    # index 2's reward lies below tau, and index 3 of a masked scenario
    # carries no reference mass
    s = hand_scenario()
    with pytest.raises(InvalidAnchor, match="below threshold"):
        anchored_reference(s, tau=0.5, anchor=2)
    with pytest.raises(InvalidAnchor, match="below threshold"):
        mara_target(s, 0.1, tau=0.5, anchor=2)
    masked = make_scenario([0.5, 0.5, 0.0], [0.0, 1.0, 1.0])
    with pytest.raises(InvalidAnchor, match="no reference mass"):
        anchored_reference(masked, tau=0.5, anchor=2)
    with pytest.raises(InvalidAnchor, match="no reference mass"):
        mara_target(masked, 0.1, tau=0.5, anchor=2)


def test_mara_target_uniform_above_threshold():
    s = hand_scenario()
    g = mara_target(s, beta=0.1, tau=0.5, anchor=0)
    assert g.probs[0] == pytest.approx(g.probs[1], rel=1e-9)
    # below-threshold indices keep the plain tilt ordering
    assert g.probs[0] > g.probs[2]


def test_mara_target_matches_augmented_reverse_target():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(30):
        s = random_scenario(rng, allow_masked=False)
        beta = float(rng.uniform(0.05, 2.0))
        tau = float(np.quantile(s.rewards.values, 0.6))
        anchor = global_anchor(s, tau)
        if anchor is None:
            continue
        direct = mara_target(s, beta, tau, anchor)
        via_rewards = reverse_kl_target(
            Scenario(s.reference, RewardVector(reward_view(s, beta, tau, anchor, slice(None)))),
            beta,
        )
        np.testing.assert_allclose(direct.probs, via_rewards.probs, atol=1e-12)


def test_anchored_views_shape():
    s = hand_scenario()
    rewards = anchored_rewards(s, tau=0.5, anchor=0, idx=slice(None))
    # both qualifying indices now carry the anchor's reward and an equal
    # share of reference mass
    assert rewards[1] == 1.0
    assert rewards[2] == 0.2
    p = anchored_reference(s, tau=0.5, anchor=0).probs
    assert p[0] == pytest.approx(p[1], rel=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_estimator_views_agree_per_sample():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(50):
        s = random_scenario(rng, allow_masked=False)
        beta = float(rng.uniform(0.05, 2.0))
        cfg = MaraConfig(Constant(float(np.quantile(s.rewards.values, 0.5))), beta)
        ys = rng.integers(0, s.n, size=16)
        a1 = augment_rewards(ys, s, cfg)
        a2 = augment_ref_view(ys, s, cfg)
        policy = SoftmaxPolicy(np.zeros(s.n))
        c1 = reverse_coefficients(
            policy, ys, a1.augmented_rewards, a1.augmented_ref_logprobs, beta
        )
        c2 = reverse_coefficients(
            policy, ys, a2.augmented_rewards, a2.augmented_ref_logprobs, beta
        )
        np.testing.assert_allclose(c1, c2, atol=1e-12)


def test_batch_views_are_the_full_support_views_at_the_batch():
    # few distinct masses and rewards, so ties are common; zero masses are
    # masked indices
    rng = np.random.Generator(np.random.PCG64(31))
    anchored = 0
    for _ in range(300):
        n = int(rng.integers(1, 41))
        masses = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
        masses[rng.integers(n)] = 1.0
        s = make_scenario(masses, rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=n))
        rule = (Constant(float(rng.choice([0.0, 0.5, 1.0]))) if rng.random() < 0.5
                else BatchPercentile(float(rng.uniform(0.05, 0.95))))
        cfg = MaraConfig(rule, beta=float(rng.choice([0.05, 0.5, 3.0])))
        ys = rng.integers(0, n, size=int(rng.integers(1, 24)))
        by_rewards = augment_rewards(ys, s, cfg)
        by_ref = augment_ref_view(ys, s, cfg)
        tau, anchor = by_rewards.threshold_used, by_rewards.anchor_index
        assert (tau, anchor) == (by_ref.threshold_used, by_ref.anchor_index)
        assert tau == resolve_threshold(rule, s.rewards.values[ys])
        assert anchor == select_anchor(ys, s, tau)
        lref = s.reference.log_weights
        if anchor is not None:
            anchored += 1
            full = reward_view(s, cfg.beta, tau, anchor, slice(None))
            assert by_rewards.augmented_rewards.tobytes() == full[ys].tobytes()
            assert by_rewards.augmented_ref_logprobs.tobytes() == lref[ys].tobytes()
            full = anchored_rewards(s, tau, anchor, slice(None))
            assert by_ref.augmented_rewards.tobytes() == full[ys].tobytes()
            # the batch's anchored log-masses are the whole-support anchored
            # reference before its renormalization, which shifts every
            # supported index by one constant
            full = anchored_reference(s, tau, anchor).log_weights[ys]
            on = np.isfinite(full)
            np.testing.assert_array_equal(np.isfinite(by_ref.augmented_ref_logprobs), on)
            shift = by_ref.augmented_ref_logprobs[on] - full[on]
            np.testing.assert_allclose(shift, shift[0], rtol=0, atol=1e-12)
        support = np.flatnonzero(s.reference.support_mask)
        tau_s = resolve_threshold(rule, s.rewards.values[s.reference.support_mask])
        whole = augment_rewards(support, s, cfg)
        assert (whole.threshold_used, whole.anchor_index) == (tau_s, global_anchor(s, tau_s))
    assert 100 < anchored < 300
