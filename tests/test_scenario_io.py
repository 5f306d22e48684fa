import json
import math

import numpy as np
import pytest

from kllab.scenario_io import (
    ScenarioFormatError,
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
