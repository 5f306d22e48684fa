import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kllab.dist import (
    Categorical,
    RewardVector,
    Scenario,
    entropy,
    from_probs,
    kl,
    log_sum_exp,
    normalize,
    sample,
    tv_distance,
)
from kllab.errors import InfiniteDivergence, InvalidDistribution

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def test_normalize_uniform_pair():
    d = normalize(np.zeros(2))
    np.testing.assert_allclose(d.probs, [0.5, 0.5], atol=1e-15)


def test_normalize_with_masked_entry():
    d = normalize(np.array([0.0, -np.inf]))
    assert d.probs[0] == 1.0
    assert d.probs[1] == 0.0
    assert d.support_mask.tolist() == [True, False]


def test_normalize_quarters():
    d = normalize(np.log([1.0, 3.0]))
    np.testing.assert_allclose(d.probs, [0.25, 0.75], atol=1e-15)


def test_normalize_rejects_all_masked():
    with pytest.raises(InvalidDistribution):
        normalize(np.array([-np.inf, -np.inf]))


def test_normalize_rejects_nan_and_posinf():
    with pytest.raises(InvalidDistribution):
        normalize(np.array([0.0, np.nan]))
    with pytest.raises(InvalidDistribution):
        normalize(np.array([0.0, np.inf]))


def test_categorical_rejects_unnormalized():
    with pytest.raises(InvalidDistribution):
        Categorical(np.log([0.5, 0.4]))


def test_categorical_arrays_are_read_only():
    d = normalize(np.zeros(3))
    with pytest.raises(ValueError):
        d.log_weights[0] = 0.0


def test_log_sum_exp_all_masked():
    assert log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf


def test_entropy_uniform_and_point_mass():
    assert entropy(normalize(np.zeros(4))) == pytest.approx(LN4, abs=1e-12)
    assert entropy(from_probs([1.0, 0.0])) == 0.0


def test_entropy_quarter_three_quarter():
    assert entropy(from_probs([0.25, 0.75])) == pytest.approx(
        0.5623351446188083, abs=1e-15
    )


def test_kl_identical_is_zero():
    d = from_probs([0.3, 0.7])
    assert kl(d, d) == pytest.approx(0.0, abs=1e-15)


def test_kl_point_mass_vs_uniform():
    p = from_probs([1.0, 0.0])
    q = from_probs([0.5, 0.5])
    assert kl(p, q) == pytest.approx(LN2, abs=1e-12)


def test_kl_support_violation():
    p = from_probs([0.5, 0.5])
    q = from_probs([1.0, 0.0])
    with pytest.raises(InfiniteDivergence):
        kl(p, q)


def test_kl_zero_log_zero_convention():
    # p has a masked index where q is positive: contributes exactly zero
    p = from_probs([1.0, 0.0])
    q = from_probs([0.9, 0.1])
    assert np.isfinite(kl(p, q))


def test_tv_distance_values():
    u = from_probs([0.5, 0.5])
    assert tv_distance(u, u) == 0.0
    assert tv_distance(from_probs([1, 0]), from_probs([0, 1])) == 1.0
    assert tv_distance(u, from_probs([0.25, 0.75])) == pytest.approx(0.25)


def test_sample_point_mass():
    d = from_probs([0.0, 1.0, 0.0])
    assert np.all(sample(d, rng_seed=7, count=64) == 1)


def test_sample_deterministic():
    d = from_probs([0.2, 0.5, 0.3])
    a = sample(d, rng_seed=123, count=1000)
    b = sample(d, rng_seed=123, count=1000)
    np.testing.assert_array_equal(a, b)
    c = sample(d, rng_seed=124, count=1000)
    assert not np.array_equal(a, c)


def test_sample_frequencies():
    probs = np.array([0.1, 0.3, 0.6])
    d = from_probs(probs)
    count = 200_000
    ys = sample(d, rng_seed=2, count=count)
    for i, p in enumerate(probs):
        freq = np.mean(ys == i)
        se = np.sqrt(p * (1 - p) / count)
        assert abs(freq - p) <= 4 * se


def test_sample_never_emits_masked():
    d = from_probs([0.5, 0.0, 0.5])
    ys = sample(d, rng_seed=11, count=50_000)
    assert not np.any(ys == 1)


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sample(from_probs([1.0]), rng_seed=0, count=0)


def test_reward_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        RewardVector(np.array([0.0, np.inf]))


def test_scenario_reference_probs_is_cached_and_read_only():
    ref = normalize(np.array([0.0, -np.inf, -1.0, -3.0]))
    s = Scenario(ref, RewardVector(np.zeros(4)))
    p = s.reference_probs
    assert p.tobytes() == s.reference.probs.tobytes()
    assert s.reference_probs is p
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0] = 0.5
    with pytest.raises(AttributeError):
        s.reference_probs = np.zeros(4)
    assert s.reference_probs is p


def test_scenario_length_mismatch():
    with pytest.raises(ValueError):
        Scenario(from_probs([0.5, 0.5]), RewardVector(np.zeros(3)))


@settings(derandomize=True, max_examples=100)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16)
)
def test_normalization_tolerance(lw):
    d = normalize(np.array(lw))
    assert abs(d.probs.sum() - 1.0) <= 1e-12


@settings(derandomize=True, max_examples=100)
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kl_non_negative(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = normalize(rng.uniform(-5, 5, n))
    q = normalize(rng.uniform(-5, 5, n))
    assert kl(p, q) >= -1e-12


@settings(derandomize=True, max_examples=50)
@given(
    st.lists(
        st.floats(min_value=-700, max_value=700), min_size=2, max_size=8
    )
)
def test_extreme_log_weights_do_not_overflow(lw):
    d = normalize(np.array(lw))
    assert np.all(np.isfinite(d.log_weights[d.support_mask]))
    assert abs(d.probs.sum() - 1.0) <= 1e-12
