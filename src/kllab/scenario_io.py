"""Scenario (de)serialization and named reference/reward shapes.

Config format (JSON)::

    {
      "name": "my_scenario",
      "n": 100,
      "reference": [0.5, 0.5, ...]                  # explicit masses, or
      "reference": {"shape": "uniform"},
      "reference": {"shape": "half_support", "decay": 0.095},
      "reference": {"shape": "mixture", "centers": [...], "widths": [...],
                    "weights": [...]},
      "rewards": [0.0, 1.0, ...]                    # explicit values, or
      "rewards": {"shape": "two_mode", "centers": [c1, c2],
                  "widths": [w1, w2], "heights": [h1, h2]}
    }

``half_support`` puts geometrically decaying mass on the first ``ceil(n/2)``
indices and exact zeros elsewhere. ``mixture`` is a full-support mixture of
Gaussian bumps. ``two_mode`` rewards are a sum of Gaussian bumps (any number
of modes, despite the name).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

# _all and _sum are NumPy's reductions without the Python wrappers of np.all and
# np.sum, which cost more than reducing a hundred floats
from .dist import Categorical, RewardVector, Scenario, _all, _sum, from_probs, normalize
from .errors import InvalidDistribution


class ScenarioFormatError(ValueError):
    """Scenario config is malformed (wrong shapes, length mismatches)."""


def check_name(name: str) -> str:
    """``name`` if it is a plain file name: not ``.``, ``..`` or empty, no ``/`` or ``\\``."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ScenarioFormatError(f"scenario name must be a plain file name, not {name!r}")
    return name


def _is_number(value) -> bool:
    """Whether ``value`` is a finite number: not a boolean (though a Python
    int), NaN, an infinity or an integer past the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(value, field: str):
    """``value`` if it is a number (:func:`_is_number`)."""
    if not _is_number(value):
        raise ScenarioFormatError(f"{field} must be a number, not {value!r}")
    return value


def _numbers(values, message: str) -> np.ndarray:
    """``values`` as floats if it is a list of numbers (:func:`_is_number`),
    not a string, a number, null or a nested list; else raise ``message``."""
    if not isinstance(values, (list, tuple, np.ndarray)) or not all(map(_is_number, values)):
        raise ScenarioFormatError(message)
    return np.array(values, dtype=float)


def _bumps(shape: str, centers, widths, scales):
    """The bump parameters as float arrays: lists of numbers of equal length,
    every width positive (a zero width divides by zero)."""
    message = f"{shape} parameters must be lists of numbers"
    centers, widths, scales = (_numbers(a, message) for a in (centers, widths, scales))
    if not (len(centers) == len(widths) == len(scales)):
        raise ScenarioFormatError(f"{shape} parameter lists must have equal length")
    if not _all(widths > 0):
        raise ScenarioFormatError(f"{shape} widths must be positive")
    return centers, widths, scales


def reference_uniform(n: int) -> Categorical:
    return normalize(np.zeros(n))


def reference_half_support(n: int, decay: float = 0.095) -> Categorical:
    """Support over the first half of the index space, geometric decay."""
    k = math.ceil(n / 2)
    lw = np.full(n, -np.inf)
    lw[:k] = -decay * np.arange(k)
    return normalize(lw)


def reference_mixture(n: int, centers, widths, weights) -> Categorical:
    """Full-support mixture of Gaussian bumps on the index line."""
    centers, widths, weights = _bumps("mixture", centers, widths, weights)
    x = np.arange(n)[:, None]
    masses = _sum(
        weights * np.exp(-((x - centers) ** 2) / (2.0 * widths**2)), axis=1
    )
    return from_probs(masses)


def rewards_two_mode(n: int, centers, widths, heights) -> RewardVector:
    """Sum of Gaussian reward bumps over the index line."""
    centers, widths, heights = _bumps("two_mode", centers, widths, heights)
    x = np.arange(n)[:, None]
    values = _sum(
        heights * np.exp(-((x - centers) ** 2) / (2.0 * widths**2)), axis=1
    )
    return RewardVector(values)


def _build_reference(n: int, spec) -> Categorical:
    if isinstance(spec, list):
        if len(spec) != n:
            raise ScenarioFormatError(f"reference has {len(spec)} masses, n={n}")
        return from_probs(_numbers(spec, "reference masses must be finite numbers"))
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ScenarioFormatError("reference must be a mass list or a shape object")
    shape = spec["shape"]
    if shape == "uniform":
        return reference_uniform(n)
    if shape == "half_support":
        decay = float(_number(spec.get("decay", 0.095), "half_support decay"))
        return reference_half_support(n, decay=decay)
    if shape == "mixture":
        return reference_mixture(n, spec["centers"], spec["widths"], spec["weights"])
    raise ScenarioFormatError(f"unknown reference shape {shape!r}")


def _build_rewards(n: int, spec) -> RewardVector:
    if isinstance(spec, list):
        if len(spec) != n:
            raise ScenarioFormatError(f"rewards has {len(spec)} values, n={n}")
        return RewardVector(_numbers(spec, "rewards must be finite numbers"))
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ScenarioFormatError("rewards must be a value list or a shape object")
    if spec["shape"] == "two_mode":
        return rewards_two_mode(n, spec["centers"], spec["widths"], spec["heights"])
    raise ScenarioFormatError(f"unknown rewards shape {spec['shape']!r}")


def scenario_from_dict(cfg: dict) -> Scenario:
    if not isinstance(cfg, dict):
        raise ScenarioFormatError(f"a scenario must be a JSON object, not {type(cfg).__name__}")
    try:
        n = _number(cfg["n"], "n")
        # 2.0 is an integer; 2.5, inf and NaN leave a nonzero (or NaN) remainder
        if n % 1 or n < 1:
            raise ScenarioFormatError(f"n must be an integer >= 1, not {n!r}")
        n = int(n)
        name = check_name(str(cfg.get("name", "scenario")))
        reference = _build_reference(n, cfg["reference"])
        rewards = _build_rewards(n, cfg["rewards"])
    except KeyError as exc:
        raise ScenarioFormatError(f"missing field {exc.args[0]!r}") from exc
    except InvalidDistribution as exc:  # e.g. an all-zero mass list
        raise ScenarioFormatError(f"reference: {exc}") from exc
    return Scenario(reference=reference, rewards=rewards, name=name)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        cfg = json.load(fh)
    return scenario_from_dict(cfg)


def dump_scenario(s: Scenario, path) -> None:
    cfg = {
        "name": s.name,
        "n": s.n,
        "reference": s.reference_probs.tolist(),
        "rewards": s.rewards.values.tolist(),
    }
    Path(path).write_text(json.dumps(cfg, indent=2) + "\n")
