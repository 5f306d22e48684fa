import contextlib
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kllab.dist import (
    NORMALIZATION_TOL,
    Categorical,
    RewardVector,
    Scenario,
    draw,
    entropy,
    from_probs,
    kl,
    normalize,
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


def _normalize_formula(lw):
    """``normalize``'s arithmetic written out with fresh arrays: the
    log-sum-exp shift, then one renormalization over the finite entries."""
    lw = np.array(lw, dtype=float)
    m = np.max(lw)
    shifted = lw - float(m + np.log(np.sum(np.exp(lw - m))))
    mask = np.isfinite(shifted)
    shifted[mask] -= np.log(np.sum(np.exp(shifted[mask])))
    return shifted, mask


def _seeded_log_weights():
    rng = np.random.Generator(np.random.PCG64(2024))
    for case in range(400):
        n = 1 if case % 10 == 0 else int(rng.integers(2, 300))
        lw = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 300)
        if case % 4 == 1:  # masked
            lw[rng.random(n) < 0.4] = -np.inf
            lw[rng.integers(n)] = rng.normal()
        elif case % 4 == 2 and n > 1:  # all but one index masked
            keep = rng.integers(n)
            lw[:] = -np.inf
            lw[keep] = rng.normal() * 1e3
        yield lw


def test_normalize_equals_its_formula_byte_for_byte():
    # masked and full supports, n = 1, a single finite entry, magnitudes up
    # to 1e300; the input itself is not written
    seen = set()
    for lw in _seeded_log_weights():
        before = lw.tobytes()
        d = normalize(lw)
        shifted, mask = _normalize_formula(lw)
        assert lw.tobytes() == before
        assert d.log_weights.tobytes() == shifted.tobytes()
        assert d.support_mask.tobytes() == mask.tobytes()
        seen.add((lw.size == 1, bool(mask.all()), int(mask.sum()) == 1,
                  bool(np.abs(lw[mask]).max() > 1e200)))
    assert {(True, True, True, False), (False, True, False, True),
            (False, False, False, False), (False, False, True, False)} <= seen


def _oracle_normalize(log_weights):
    """``normalize`` as written before the support index: every entry
    exponentiated, then ``Categorical``'s checks, which find the support
    again from the result. Returns the log-masses and the support mask, or
    raises what ``normalize`` raises. The one change: the test for a finite
    entry reduces over every axis, so that a 2-d input with no finite entry
    is an ``InvalidDistribution``, not NumPy's ambiguous-truth ValueError."""
    lw = np.asarray(log_weights, dtype=float)
    top = np.maximum.reduce(lw, axis=None) if lw.size else math.nan
    if not math.isfinite(top):
        if not np.logical_or.reduce(np.isfinite(lw), axis=None):
            raise InvalidDistribution("no finite log-weight to normalize")
        raise InvalidDistribution("log_weights must be finite or -inf")
    if lw.ndim == 0:
        raise InvalidDistribution("log_weights must be a non-empty 1-d vector")
    edge = not math.isfinite(-sys.float_info.max - float(top))
    with np.errstate(over="ignore") if edge else contextlib.nullcontext():
        shifted = np.subtract(lw, top)
        lse = top + np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=None))
        np.subtract(lw, lse, out=shifted)
    terms = shifted[np.isfinite(shifted)]
    shifted -= np.log(np.add.reduce(np.exp(terms, out=terms)))
    if shifted.ndim != 1:
        raise InvalidDistribution("log_weights must be a non-empty 1-d vector")
    mask = np.isfinite(shifted)
    total = np.add.reduce(np.exp(shifted[mask]))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidDistribution(f"masses sum to {total!r}, not 1")
    return shifted, mask


SHAPES = ("contiguous", "scattered", "full", "single", "all -inf", "nan", "+inf",
          "0-d", "2-d", "edge")
# the largest floats, where lw - top and lw - lse can overflow to -inf
NEAR_LIMIT = st.one_of(st.floats(min_value=1.7e308, max_value=sys.float_info.max),
                       st.floats(min_value=-sys.float_info.max, max_value=-1.7e308))


@st.composite
def log_weight_inputs(draw):
    """A log-weight input of one of ``SHAPES``, with its shape. Up to 300
    entries, so that the log-sum-exp's pairwise sum runs in blocks: a sum
    over the span alone would differ from the sum over all n in the last
    bit."""
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lw = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3, 1e300]))
    at = draw(st.integers(min_value=0, max_value=n - 1))
    if shape == "contiguous":
        lo, hi = sorted((at, draw(st.integers(min_value=0, max_value=n - 1))))
        lw[:lo] = -np.inf
        lw[hi + 1:] = -np.inf
    elif shape == "scattered":
        lw[rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))] = -np.inf
    elif shape in ("single", "all -inf"):
        kept = lw[at]
        lw[:] = -np.inf
        if shape == "single":
            lw[at] = kept
    elif shape in ("nan", "+inf"):
        lw[at] = np.nan if shape == "nan" else np.inf
    elif shape == "0-d":
        lw = np.array(draw(st.sampled_from([lw[0], -np.inf, np.inf, np.nan])))
    elif shape == "2-d":
        lw = np.array([lw, rng.permutation(lw)])
        lw[0, at] = draw(st.sampled_from([lw[0, at], -np.inf, np.nan]))
    elif shape == "edge":
        entry = NEAR_LIMIT | st.sampled_from([0.0, -np.inf, -1e308, 1e308])
        lw = np.array(draw(st.lists(entry, min_size=1, max_size=24)))
    return shape, lw


@settings(derandomize=True, max_examples=300)
@given(log_weight_inputs())
# one input of each shape, drawn or not: the edge case loses its two lowest
# entries, which lw - lse takes to -inf
@example(("contiguous", np.array([-np.inf, 0.5, -2.0, -np.inf])))
@example(("scattered", np.array([-1.0, -np.inf, 3.0, -np.inf, 0.0])))
@example(("full", np.array([1e300, -1e300, 0.0])))
@example(("single", np.array([-np.inf, 7.0, -np.inf])))
@example(("all -inf", np.array([-np.inf, -np.inf])))
@example(("nan", np.array([0.0, np.nan, -np.inf])))
@example(("+inf", np.array([0.0, np.inf])))
@example(("0-d", np.array(0.5)))
@example(("0-d", np.array(np.nan)))
@example(("2-d", np.zeros((2, 3))))
@example(("2-d", np.array([[np.nan, 1.0], [-np.inf, 0.0]])))
@example(("2-d", np.full((2, 2), -np.inf)))
@example(("edge", np.array([1.7e308, -1.7e308, -1.79e308, 0.0, -np.inf])))
def test_normalize_matches_the_algorithm_before_the_support_index(case):
    # the log-masses, the support and each error, to the byte and the
    # message; the result is what Categorical makes of its log-masses
    shape, lw = case
    before = lw.tobytes()
    try:
        want = _oracle_normalize(lw)
    except InvalidDistribution as exc:
        with pytest.raises(InvalidDistribution) as info:
            normalize(lw)
        assert str(info.value) == str(exc)
        assert lw.tobytes() == before
        return
    d = normalize(lw)
    assert lw.tobytes() == before
    assert d.log_weights.tobytes() == want[0].tobytes()
    assert d.support_mask.tobytes() == want[1].tobytes()
    again = Categorical(d.log_weights)
    assert again.log_weights.tobytes() == d.log_weights.tobytes()
    assert again.support_mask.tobytes() == d.support_mask.tobytes()
    finite = np.flatnonzero(d.support_mask)
    run = finite[-1] - finite[0] + 1 == finite.size
    for c in (d, again):
        if run:
            assert c.support == slice(int(finite[0]), int(finite[-1]) + 1)
        else:
            assert c.support is c.support_mask


@pytest.mark.parametrize("lw, message", [
    ([0.0, np.nan], "log_weights must be finite or -inf"),
    ([0.0, np.inf], "log_weights must be finite or -inf"),
    ([np.inf, np.nan, 1.0], "log_weights must be finite or -inf"),
    ([-np.inf, -np.inf], "no finite log-weight to normalize"),
    ([], "no finite log-weight to normalize"),
    # with no finite entry, that fault is named first
    ([np.nan, -np.inf], "no finite log-weight to normalize"),
    ([np.inf], "no finite log-weight to normalize"),
])
def test_normalize_names_the_first_fault(lw, message):
    with pytest.raises(InvalidDistribution) as info:
        normalize(np.array(lw, dtype=float))
    assert str(info.value) == message


@pytest.mark.parametrize("build, value", [
    (normalize, 3.0), (normalize, np.array(0.5)), (from_probs, 3.0), (from_probs, np.array(0.5)),
])
def test_normalize_and_from_probs_reject_a_0d_input(build, value):
    # as an input of two dimensions is, by Categorical's rule
    with pytest.raises(InvalidDistribution, match="^log_weights must be a non-empty 1-d vector$"):
        build(value)
    with pytest.raises(InvalidDistribution, match="^log_weights must be a non-empty 1-d vector$"):
        build(np.full((1, 2), value))


@pytest.mark.parametrize("lw, message", [
    ([0.0, np.nan], "log_weights must be finite or -inf"),
    ([0.0, np.inf], "log_weights must be finite or -inf"),
    ([-np.inf, -np.inf], "empty support"),
    ([], "log_weights must be a non-empty 1-d vector"),
])
def test_categorical_names_each_fault(lw, message):
    with pytest.raises(InvalidDistribution) as info:
        Categorical(np.array(lw, dtype=float))
    assert str(info.value) == message


def test_categorical_checks_its_mass_sum_against_the_tolerance():
    off = np.log([0.5, 0.5 + 10 * NORMALIZATION_TOL])
    with pytest.raises(InvalidDistribution, match=r"^masses sum to \S*1\.0000000000\d+\)?, not 1$"):
        Categorical(off)
    inside = np.log([0.5, 0.5 + 0.5 * NORMALIZATION_TOL])
    assert Categorical(inside).support_mask.tolist() == [True, True]
    masked = Categorical(np.array([np.log(0.25), -np.inf, np.log(0.75)]))
    assert masked.support_mask.tolist() == [True, False, True]


def test_categorical_rejects_unnormalized():
    with pytest.raises(InvalidDistribution):
        Categorical(np.log([0.5, 0.4]))


def test_categorical_arrays_are_read_only():
    d = normalize(np.zeros(3))
    with pytest.raises(ValueError):
        d.log_weights[0] = 0.0


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


def _reference_draws(probs, seed: int, count: int) -> np.ndarray:
    """``count`` draws through the reference table of a scenario whose
    reference has the masses ``probs``, from PCG64 uniforms of ``seed``."""
    s = Scenario(from_probs(probs), RewardVector(np.zeros(len(probs))))
    return draw(s.reference_table, np.random.Generator(np.random.PCG64(seed)).random(count))


def test_sample_point_mass():
    assert np.all(_reference_draws([0.0, 1.0, 0.0], 7, 64) == 1)


def test_sample_frequencies():
    probs = np.array([0.1, 0.3, 0.6])
    count = 200_000
    ys = _reference_draws(probs, 2, count)
    for i, p in enumerate(probs):
        freq = np.mean(ys == i)
        se = np.sqrt(p * (1 - p) / count)
        assert abs(freq - p) <= 4 * se


def test_sample_never_emits_masked():
    ys = _reference_draws([0.5, 0.0, 0.5], 11, 50_000)
    assert not np.any(ys == 1)


def test_from_probs_rejects_a_negative_mass():
    with pytest.raises(InvalidDistribution, match="^negative mass$"):
        from_probs([0.5, -0.1, 0.6])


@pytest.mark.parametrize("measure", [kl, tv_distance])
def test_measures_reject_unequal_lengths(measure):
    with pytest.raises(InvalidDistribution, match="^length mismatch$"):
        measure(from_probs([0.5, 0.5]), from_probs([0.2, 0.3, 0.5]))


def test_reward_vector_rejects_a_2d_array():
    with pytest.raises(ValueError, match="^rewards must be a non-empty 1-d vector$"):
        RewardVector(np.zeros((2, 2)))


def test_reward_vector_rejects_non_finite():
    for values in ([0.0, np.inf], [-np.inf, 0.0], [np.nan], [1.0, np.nan, 2.0],
                   [np.nan, np.inf], [-np.inf, np.inf], [1e308, np.nan, -1e308]):
        with pytest.raises(ValueError, match="^rewards must be finite$"):
            RewardVector(np.array(values))


@pytest.mark.parametrize("values, scale", [
    ([0.0], 0.0), ([-3.0, 2.0], 3.0), ([2.0, 0.5], 2.0), ([-1e-300], 1e-300),
    ([1e308, 0.5, -1.7e308], 1.7e308), ([sys.float_info.max], sys.float_info.max),
])
def test_reward_vector_scale_is_the_largest_magnitude_as_a_python_float(values, scale):
    rewards = RewardVector(np.array(values))
    assert type(rewards.scale) is float and rewards.scale == scale
    # derived from the values alone: no caller sets it
    with pytest.raises(TypeError):
        RewardVector(np.array(values), scale=0.0)


def test_reward_vector_scale_survives_pickling():
    rewards = RewardVector(np.array([0.5, -1.7e308, 2.0]))
    # unpickling calls the constructor on the values, which derives the scale again
    assert rewards.__reduce__() == (RewardVector, (rewards.values,))
    copy = pickle.loads(pickle.dumps(rewards))
    assert copy.scale == rewards.scale == 1.7e308
    assert copy.values.tobytes() == rewards.values.tobytes()
    s = Scenario(from_probs([0.5, 0.5, 0.0]), rewards)
    assert pickle.loads(pickle.dumps(s)).rewards.scale == 1.7e308


def _rule_matches_numpy(r, total):
    with np.errstate(over="ignore"):
        quotients = np.array(r) / total
    return math.isfinite(RewardVector(np.array(r)).scale / total) == bool(
        np.isfinite(quotients).all())


FINITE = st.floats(min_value=-1.7e308, max_value=1.7e308, allow_nan=False)


@settings(derandomize=True, max_examples=200)
@given(st.lists(FINITE, min_size=1, max_size=20), st.floats(min_value=1e-300, max_value=1e308))
def test_the_scale_rule_decides_overflow_as_numpy_does(r, total):
    # the premise of the float-limit rule: one Python division by a positive
    # total overflows exactly when some reward's NumPy division does
    assert _rule_matches_numpy(r, total)


@settings(derandomize=True, max_examples=200)
@given(st.lists(FINITE, min_size=1, max_size=20),
       st.floats(min_value=1e8, max_value=1.7e308), st.integers(min_value=-4, max_value=4))
def test_the_scale_rule_decides_overflow_at_its_boundary(r, top, ulps):
    # totals a few floats either side of the one at which the largest
    # reward's quotient reaches the float limit
    r = r + [top]
    total = max(r, key=abs) / sys.float_info.max
    total = abs(total)
    for _ in range(abs(ulps)):
        total = math.nextafter(total, math.inf if ulps > 0 else 0.0)
    if 1e-300 <= total <= 1e308:
        assert _rule_matches_numpy(r, total)


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


def test_unpickled_scenario_arrays_stay_read_only():
    ref = normalize(np.array([0.0, -np.inf, -1.0, -3.0]))
    s = Scenario(ref, RewardVector(np.array([0.5, 1.0, -2.0, 0.0])), name="pickled")
    s.reference_probs  # cached before pickling; the copy recomputes it
    t = pickle.loads(pickle.dumps(s))
    assert t.name == "pickled"
    for before, after in [
        (s.reference.log_weights, t.reference.log_weights),
        (s.reference.support_mask, t.reference.support_mask),
        (s.rewards.values, t.rewards.values),
        (s.reference_probs, t.reference_probs),
    ]:
        assert after.tobytes() == before.tobytes() and after.dtype == before.dtype
        assert not after.flags.writeable


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
