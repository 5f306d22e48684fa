"""Peak traced allocation of the analytic solvers and the bump shapes at large n.

Each bound is in n-wide float arrays (8 n bytes) of the call's peak
``tracemalloc`` allocation, its returned arrays included, at n = 65536. The
solvers that build these targets once held up to seven such arrays at once
(forward interior 5.9, forward boundary 7.0, ``global_anchor`` 2.1); these
bounds keep them lean.
"""

import tracemalloc

import pytest

from kllab import dist, mara, scenario_io, targets
from kllab.scenario_io import scenario_from_dict

N = 65536
# the built-in 100-index shapes stretched to N indices
STRETCH = N / 100


def _two_mode(centers, heights):
    return {"shape": "two_mode", "centers": [c * STRETCH for c in centers],
            "widths": [2.5 * STRETCH] * 2, "heights": heights}


def _scenario(reference, rewards):
    return scenario_from_dict({"n": N, "reference": reference, "rewards": rewards})


# half the indices masked; the best reward on the support (interior) or off
# it (boundary regime)
FIG2_REWARDS = _two_mode([18, 38], [0.75, 1.0])
INTERIOR = _scenario({"shape": "half_support", "decay": 0.095 / STRETCH}, FIG2_REWARDS)
BOUNDARY = _scenario({"shape": "half_support", "decay": 0.05 / STRETCH},
                     _two_mode([20, 70], [0.8, 1.0]))
# full support, two treated modes above tau = 0.5
MIXTURE = {"shape": "mixture", "centers": [15 * STRETCH, 35 * STRETCH],
           "widths": [4.0 * STRETCH] * 2, "weights": [0.88, 0.12]}
MARA = _scenario(MIXTURE, _two_mode([15, 35], [1.0, 1.0]))
TAU = 0.5


def _peak_arrays(fn, *args):
    """The peak allocation of ``fn(*args)``, in n-wide float arrays."""
    fn(*args)  # a first call settles any lazily built state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * N)


def test_the_scenarios_are_in_their_regimes():
    assert not targets.forward_kl_target(INTERIOR, 0.1).boundary_case
    assert targets.forward_kl_target(BOUNDARY, 0.1).boundary_case
    assert mara.global_anchor(MARA, TAU) is not None


@pytest.mark.parametrize("fn, args, bound", [
    (targets.forward_kl_target, (INTERIOR, 0.1), 4.5),
    (targets.forward_kl_target, (BOUNDARY, 0.1), 5.0),
    (mara.global_anchor, (MARA, TAU), 0.5),
    (mara.mara_target, (MARA, 0.1, TAU, mara.global_anchor(MARA, TAU)), 3.5),
    # measured at 2.63, 2.63, 3.13, 1.63, 2.13 and 3.13 arrays, rounded up
    (targets.reverse_kl_target, (INTERIOR, 0.1), 2.75),
    (targets.generalized_target, (INTERIOR, 0.1, 0.05), 2.75),
    (targets.generalized_target, (MARA, 0.1, 0.05), 3.25),
    (dist.normalize, (INTERIOR.reference.log_weights,), 1.75),
    (dist.normalize, (MARA.reference.log_weights,), 2.25),
    (mara.anchored_reference, (MARA, TAU, mara.global_anchor(MARA, TAU)), 3.25),
    # measured at 4.00 and 4.13 arrays: the index line, the two bumps' rows
    # and their sum (a broadcast (n, 2) formula peaked at 5.13)
    (scenario_io.rewards_two_mode,
     (N, FIG2_REWARDS["centers"], FIG2_REWARDS["widths"], FIG2_REWARDS["heights"]), 4.25),
    (scenario_io.reference_mixture,
     (N, MIXTURE["centers"], MIXTURE["widths"], MIXTURE["weights"]), 4.25),
], ids=["forward-interior", "forward-boundary", "global-anchor", "mara-target",
        "reverse-interior", "generalized-interior", "generalized-mara",
        "normalize-interior", "normalize-mara", "anchored-reference",
        "two-mode-rewards", "mixture-reference"])
def test_solver_peak_allocation(fn, args, bound):
    assert _peak_arrays(fn, *args) <= bound
