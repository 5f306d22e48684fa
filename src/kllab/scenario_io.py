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

import math
import numbers
import sys
from pathlib import Path

import numpy as np

# _all and _any are NumPy's reductions without the Python wrappers of np.all
# and np.any, which cost more than reducing a hundred booleans
from .dist import Categorical, RewardVector, Scenario, _all, _any, from_probs, normalize
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
    every width positive and large enough that 2*w**2 is not 0 (a bump
    divides by it)."""
    message = f"{shape} parameters must be lists of numbers"
    centers, widths, scales = (_numbers(a, message) for a in (centers, widths, scales))
    if not (len(centers) == len(widths) == len(scales)):
        raise ScenarioFormatError(f"{shape} parameter lists must have equal length")
    if not _all(widths > 0):
        raise ScenarioFormatError(f"{shape} widths must be positive")
    # a width past 1e154 squares to inf, and its bump is flat at its scale
    with np.errstate(over="ignore"):
        den = 2.0 * widths**2
        if not _all(den > 0):
            raise ScenarioFormatError(f"{shape} widths must be large enough that 2*w**2 "
                                      "is not 0 (w >= about 1.57e-162)")
        # a center whose square is inf makes (x - c)**2 inf at every index
        # (n is far below its float spacing): with a width whose 2*w**2 is inf
        # too, the bump's terms would be inf / inf
        if _any((centers**2 == np.inf) & (den == np.inf)):
            raise ScenarioFormatError(
                f"{shape} centers and widths must not both overflow on one bump (a center"
                " past about 1.34e154 with a width past about 9.48e153): its terms are inf / inf")
    return centers, widths, scales


def _bump_sum(n: int, centers, widths, scales) -> np.ndarray:
    """``sum_b scales[b] * exp(-(x - centers[b])**2 / (2 * widths[b]**2))`` at
    each index x of 0..n-1, one n-wide row per bump added in bump order.

    Each row is computed in place, stage by stage. The terms are those of
    the broadcast formula ``scales * np.exp(-((x - centers) ** 2) / (2.0 *
    widths**2))`` and, below eight bumps, so is their sum along the bump
    axis, bit for bit. An overflow is exact here: a far center's square is
    inf and its term 0, a huge width's square is inf and its term the scale.
    """
    x = np.arange(n, dtype=float)
    rows = np.empty((len(centers), n))
    with np.errstate(over="ignore"):
        for row, c, den, scale in zip(rows, centers.tolist(), (-2.0 * widths**2).tolist(),
                                      scales.tolist()):
            np.subtract(x, c, out=row)
            np.square(row, out=row)
            np.divide(row, den, out=row)
            np.exp(row, out=row)
            np.multiply(row, scale, out=row)
    # from 0.0, as NumPy's sum starts (a -0.0 term sums to 0.0), into a fresh
    # array, so that the rows' block is freed on return: glibc's mmap
    # threshold follows the largest freed block, and at large n this one
    # keeps the solvers' later arrays on the heap (see README, Library)
    total = np.zeros(n)
    for row in rows:
        total += row
    return total


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
    return from_probs(_bump_sum(n, *_bumps("mixture", centers, widths, weights)))


def rewards_two_mode(n: int, centers, widths, heights) -> RewardVector:
    """Sum of Gaussian reward bumps over the index line."""
    return RewardVector(_bump_sum(n, *_bumps("two_mode", centers, widths, heights)))


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
    import json

    with open(path) as fh:
        cfg = json.load(fh)
    return scenario_from_dict(cfg)


def dump_scenario(s: Scenario, path) -> None:
    import json

    cfg = {
        "name": s.name,
        "n": s.n,
        "reference": s.reference_probs.tolist(),
        "rewards": s.rewards.values.tolist(),
    }
    Path(path).write_text(json.dumps(cfg, indent=2) + "\n")
