import json
import math

import numpy as np
import pytest

from kllab.scenario_io import (
    ScenarioFormatError,
    _bump_sum,
    dump_scenario,
    load_scenario,
    reference_half_support,
    reference_mixture,
    reference_uniform,
    rewards_two_mode,
    scenario_from_dict,
)
from conftest import make_scenario


def test_uniform_reference():
    d = reference_uniform(10)
    np.testing.assert_allclose(d.probs, np.full(10, 0.1), atol=1e-14)


def test_half_support_masks_second_half():
    d = reference_half_support(100, decay=0.1)
    assert d.support_mask[:50].all()
    assert not d.support_mask[50:].any()
    # geometric decay: constant log-mass step on the supported half
    steps = np.diff(d.log_weights[:50])
    np.testing.assert_allclose(steps, -0.1, atol=1e-12)


def test_half_support_odd_n():
    d = reference_half_support(7)
    assert d.support_mask.sum() == 4


def test_mixture_full_support():
    d = reference_mixture(50, centers=[10, 40], widths=[3, 3], weights=[0.7, 0.3])
    assert d.support_mask.all()
    assert np.argmax(d.probs) == 10


def test_mixture_length_mismatch():
    with pytest.raises(ScenarioFormatError):
        reference_mixture(10, centers=[1, 2], widths=[1], weights=[0.5, 0.5])


def test_two_mode_rewards_peaks():
    r = rewards_two_mode(100, centers=[20, 70], widths=[2, 2], heights=[0.5, 1.0])
    assert r.values[20] == pytest.approx(0.5, abs=1e-6)
    assert r.values[70] == pytest.approx(1.0, abs=1e-6)
    assert np.argmax(r.values) == 70


def _broadcast_bump_sum(n, centers, widths, scales):
    """The bump formula as one (n, bumps) expression summed along its bump
    axis, as the shapes computed it before :func:`_bump_sum`: the oracle."""
    x = np.arange(n)[:, None]
    return np.sum(scales * np.exp(-((x - centers) ** 2) / (2.0 * widths**2)), axis=1)


def _random_bumps(rng, n, bumps):
    """Centers on and off the index line, widths from 0.01 to 2n (narrow ones
    underflow to 0, signed -0.0 under a negative scale), scales of both signs."""
    centers = rng.uniform(-0.5 * n, 1.5 * n, bumps)
    widths = np.exp(rng.uniform(math.log(0.01), math.log(2.0 * n), bumps))
    scales = rng.uniform(-2.0, 2.0, bumps)
    return centers, widths, scales


@pytest.mark.parametrize("n", [1, 2, 100, 65536])
@pytest.mark.parametrize("bumps", range(8))
def test_bump_sum_matches_the_broadcast_formula_bit_for_bit(bumps, n):
    rng = np.random.default_rng(1000 * bumps + n)
    for trial in range(6):
        centers, widths, scales = _random_bumps(rng, n, bumps)
        if trial % 2:
            scales = -np.abs(scales)  # every underflowed term is -0.0
        got = _bump_sum(n, centers, widths, scales)
        assert got.tobytes() == _broadcast_bump_sum(n, centers, widths, scales).tobytes()


# From eight bumps on, NumPy sums the bump axis in pairwise blocks of eight,
# and _bump_sum adds its rows in order. Over 7800 random cases of 8 to 20
# bumps at n up to 1000 they differed by at most 2.27 eps times the sum of
# the terms' magnitudes.
BUMP_SUM_TOL = 2.5 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 100, 65536])
@pytest.mark.parametrize("bumps", [8, 9, 13, 16, 20])
def test_bump_sum_of_eight_or_more_bumps_is_within_rounding(bumps, n):
    rng = np.random.default_rng(1000 * bumps + n)
    for _ in range(6):
        centers, widths, scales = _random_bumps(rng, n, bumps)
        got = _bump_sum(n, centers, widths, scales)
        magnitude = _broadcast_bump_sum(n, centers, widths, np.abs(scales))
        err = np.abs(got - _broadcast_bump_sum(n, centers, widths, scales))
        assert np.all(err <= BUMP_SUM_TOL * magnitude)


def test_a_far_center_or_a_huge_width_is_exact_without_a_warning():
    # the suite turns a RuntimeWarning into an error: (x - 1e200)**2 and
    # (1e200)**2 overflow to inf, which the bump formula takes exactly
    near = rewards_two_mode(4, centers=[1], widths=[1], heights=[1.0]).values
    far = rewards_two_mode(4, centers=[1, 1e200], widths=[1, 2], heights=[1.0, 2.0]).values
    assert far.tobytes() == near.tobytes()  # the far bump adds exact zeros
    flat = rewards_two_mode(4, centers=[1, 2], widths=[1e200, 1], heights=[1.0, 2.0]).values
    peak = rewards_two_mode(4, centers=[2], widths=[1], heights=[2.0]).values
    assert flat.tobytes() == (1.0 + peak).tobytes()  # the wide bump adds its height
    d = reference_mixture(4, centers=[1, 1e200], widths=[1e200, 1], weights=[1.0, 2.0])
    np.testing.assert_array_equal(d.probs, np.full(4, 0.25))


@pytest.mark.parametrize("shape", ["mixture", "two_mode"])
@pytest.mark.parametrize("width", [1e-200, 1.5717277847026285e-162],
                         ids=["tiny", "largest-too-small"])
def test_a_width_whose_square_underflows_is_a_usage_error(shape, width):
    bumps = {"centers": [1, 2], "widths": [width, 1.0]}
    if shape == "mixture":
        reference = {"shape": "mixture", **bumps, "weights": [1.0, 2.0]}
        rewards = [0.0] * 4
    else:
        reference = {"shape": "uniform"}
        rewards = {"shape": "two_mode", **bumps, "heights": [1.0, 2.0]}
    with pytest.raises(ScenarioFormatError, match=f"^{shape} widths must be large enough"):
        scenario_from_dict({"n": 4, "reference": reference, "rewards": rewards})


def _bump_config(shape, bumps):
    if shape == "mixture":
        return {"n": 4, "reference": {"shape": "mixture", **bumps, "weights": [1.0, 2.0]},
                "rewards": [0.0] * 4}
    return {"n": 4, "reference": {"shape": "uniform"},
            "rewards": {"shape": "two_mode", **bumps, "heights": [1.0, 2.0]}}


@pytest.mark.parametrize("shape", ["mixture", "two_mode"])
@pytest.mark.parametrize("center, width", [(1e200, 1e200), (-1e200, 1e200), (1e308, 1e308),
                                           (1.3407807929942598e154, 9.481e153)])
def test_a_bump_both_far_and_wide_is_a_usage_error(shape, center, width):
    # (x - c)**2 and 2*w**2 both overflow, so each of its terms is inf / inf
    cfg = _bump_config(shape, {"centers": [1, center], "widths": [1.0, width]})
    with pytest.raises(ScenarioFormatError,
                       match=f"^{shape} centers and widths must not both overflow on one bump"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("shape", ["mixture", "two_mode"])
def test_a_bump_just_inside_either_limit_builds(shape):
    # the largest center whose square is finite, with a huge width; and the
    # largest width whose 2*w**2 is finite, with a far center
    for center, width in [(1.3407807929942596e154, 1e200), (1e200, 9.48e153)]:
        s = scenario_from_dict(_bump_config(shape, {"centers": [1, center], "widths": [1.0, width]}))
        assert np.isfinite(s.rewards.values).all() and s.reference.support_mask.any()


def test_the_smallest_width_that_squares_builds_a_spike():
    # 2 w**2 is subnormal; every index but the center divides to -inf
    r = rewards_two_mode(4, centers=[1], widths=[1.5717277847026288e-162], heights=[3.0])
    np.testing.assert_array_equal(r.values, [0.0, 3.0, 0.0, 0.0])


@pytest.mark.parametrize("shape, key", [
    ("mixture", "centers"), ("mixture", "widths"), ("mixture", "weights"),
    ("two_mode", "centers"), ("two_mode", "widths"), ("two_mode", "heights"),
])
@pytest.mark.parametrize("value", ["2", 1, None, ["a"], [1, "a"], [[1, 2]], [True, False],
                                   [True, 7], [1.5, True], [1.0, math.inf]],
                         ids=["string", "number", "null", "string-entry", "mixed-entries",
                              "nested", "booleans", "boolean-and-integer", "float-and-boolean",
                              "infinite-entry"])
def test_bump_parameters_must_be_lists_of_numbers(shape, key, value):
    bumps = {"centers": [2, 7], "widths": [1.0, 2.0]}
    if shape == "mixture":
        reference = {"shape": "mixture", **bumps, "weights": [0.5, 0.5], key: value}
        rewards = [0.0] * 10
    else:
        reference = {"shape": "uniform"}
        rewards = {"shape": "two_mode", **bumps, "heights": [1.0, 2.0], key: value}
    with pytest.raises(ScenarioFormatError, match="lists of numbers"):
        scenario_from_dict({"n": 10, "reference": reference, "rewards": rewards})


def test_scenario_from_dict_explicit_lists():
    s = scenario_from_dict(
        {"name": "tiny", "n": 2, "reference": [0.5, 0.5], "rewards": [0.0, 1.0]}
    )
    assert s.name == "tiny"
    np.testing.assert_allclose(s.reference.probs, [0.5, 0.5])


def test_scenario_from_dict_rejects_length_mismatch():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(
            {"n": 3, "reference": [0.5, 0.5], "rewards": [0, 0, 0]}
        )
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(
            {"n": 2, "reference": [0.5, 0.5], "rewards": [0, 0, 0]}
        )


def test_scenario_from_dict_missing_field():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict({"n": 2, "reference": [0.5, 0.5]})


def test_scenario_from_dict_unknown_shape():
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(
            {"n": 2, "reference": {"shape": "zipf"}, "rewards": [0, 1]}
        )


@pytest.mark.parametrize("n", [None, 2.5, True, "2", float("inf"), float("nan"), -1, 0.0],
                         ids=["null", "fractional", "boolean", "string", "inf", "nan",
                              "negative", "zero"])
def test_n_must_be_a_positive_integer(n):
    with pytest.raises(ScenarioFormatError, match="^n must be a"):
        scenario_from_dict({"n": n, "reference": {"shape": "uniform"}, "rewards": [0.0, 1.0]})


def test_an_integral_float_n_is_accepted():
    s = scenario_from_dict({"n": 2.0, "reference": {"shape": "uniform"}, "rewards": [0.0, 1.0]})
    assert s.n == 2 and type(s.n) is int


@pytest.mark.parametrize("decay", [None, "0.1", True, [0.1], 10**400],
                         ids=["null", "string", "boolean", "list", "too-large-integer"])
def test_half_support_decay_must_be_a_number(decay):
    reference = {"shape": "half_support", "decay": decay}
    with pytest.raises(ScenarioFormatError, match="decay must be a number"):
        scenario_from_dict({"n": 4, "reference": reference, "rewards": [0.0] * 4})


@pytest.mark.parametrize("cfg", [[1, 2], None, "scenario", 3], ids=["array", "null", "string",
                                                                    "number"])
def test_a_scenario_must_be_an_object(cfg):
    with pytest.raises(ScenarioFormatError, match="must be a JSON object"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "a\\b", "", ".", ".."],
                         ids=["parent", "slash", "absolute", "backslash", "empty", "dot",
                              "dot-dot"])
def test_scenario_name_must_be_a_plain_file_name(name):
    with pytest.raises(ScenarioFormatError, match="plain file name"):
        scenario_from_dict({"name": name, "n": 2, "reference": {"shape": "uniform"},
                            "rewards": [0.0, 1.0]})


def test_a_name_with_dots_inside_is_accepted():
    s = scenario_from_dict({"name": "..v2.run..", "n": 2, "reference": {"shape": "uniform"},
                            "rewards": [0.0, 1.0]})
    assert s.name == "..v2.run.."


def test_round_trip(tmp_path):
    s = make_scenario([0.2, 0.3, 0.5], [1.0, -0.5, math.pi], name="rt")
    path = tmp_path / "rt.json"
    dump_scenario(s, path)
    back = load_scenario(path)
    assert back.name == "rt"
    np.testing.assert_allclose(back.reference.probs, s.reference.probs, atol=1e-15)
    np.testing.assert_array_equal(back.rewards.values, s.rewards.values)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_scenario(path)
