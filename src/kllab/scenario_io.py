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
from pathlib import Path

import numpy as np

from .dist import Categorical, RewardVector, Scenario, from_probs, normalize
from .errors import InvalidDistribution


class ScenarioFormatError(ValueError):
    """Scenario config is malformed (wrong shapes, length mismatches)."""


def _check_bumps(shape: str, centers, widths, scales) -> None:
    """Reject bump parameter lists of unequal length or a width that is not
    positive (a zero width divides by zero)."""
    if not (len(centers) == len(widths) == len(scales)):
        raise ScenarioFormatError(f"{shape} parameter lists must have equal length")
    if not np.all(widths > 0):
        raise ScenarioFormatError(f"{shape} widths must be positive")


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
    centers, widths, weights = map(np.asarray, (centers, widths, weights))
    _check_bumps("mixture", centers, widths, weights)
    x = np.arange(n)[:, None]
    masses = np.sum(
        weights * np.exp(-((x - centers) ** 2) / (2.0 * widths**2)), axis=1
    )
    return from_probs(masses)


def rewards_two_mode(n: int, centers, widths, heights) -> RewardVector:
    """Sum of Gaussian reward bumps over the index line."""
    centers, widths, heights = map(np.asarray, (centers, widths, heights))
    _check_bumps("two_mode", centers, widths, heights)
    x = np.arange(n)[:, None]
    values = np.sum(
        heights * np.exp(-((x - centers) ** 2) / (2.0 * widths**2)), axis=1
    )
    return RewardVector(values)


def _build_reference(n: int, spec) -> Categorical:
    if isinstance(spec, list):
        if len(spec) != n:
            raise ScenarioFormatError(f"reference has {len(spec)} masses, n={n}")
        return from_probs(spec)
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ScenarioFormatError("reference must be a mass list or a shape object")
    shape = spec["shape"]
    if shape == "uniform":
        return reference_uniform(n)
    if shape == "half_support":
        return reference_half_support(n, decay=float(spec.get("decay", 0.095)))
    if shape == "mixture":
        return reference_mixture(n, spec["centers"], spec["widths"], spec["weights"])
    raise ScenarioFormatError(f"unknown reference shape {shape!r}")


def _build_rewards(n: int, spec) -> RewardVector:
    if isinstance(spec, list):
        if len(spec) != n:
            raise ScenarioFormatError(f"rewards has {len(spec)} values, n={n}")
        return RewardVector(np.asarray(spec, dtype=float))
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ScenarioFormatError("rewards must be a value list or a shape object")
    if spec["shape"] == "two_mode":
        return rewards_two_mode(n, spec["centers"], spec["widths"], spec["heights"])
    raise ScenarioFormatError(f"unknown rewards shape {spec['shape']!r}")


def scenario_from_dict(cfg: dict) -> Scenario:
    try:
        n = int(cfg["n"])
        if n < 1:
            raise ScenarioFormatError(f"n must be >= 1, not {n}")
        name = str(cfg.get("name", "scenario"))
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
