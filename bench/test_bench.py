"""Tests of the benchmark's own arithmetic and of the tracer's clean-up.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json

import numpy as np
import pytest

import run
import tracer as tracing
import workloads
from kllab import dist, harness, svg, targets, trainer


TWO_POINT = harness.scenario_by_name("two_point")


def _tiny_train():
    cfg = trainer.TrainConfig(objective=targets.TargetSpec("reverse", 1.0), steps=3,
                              seed=harness.EXACT_SEED)
    return trainer.train(TWO_POINT, cfg)


def _bindings():
    """Every kllab module attribute and traced class attribute, by identity."""
    import sys

    out = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "kllab" or name.startswith("kllab."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (trainer.SoftmaxPolicy, dist.Categorical, svg.Chart):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parents = np.array([tracing.NO_PARENT, 0, 1, 0])
    durations = np.array([10.0, 3.0, 1.0, 4.0])
    assert tracing.self_times(parents, durations).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_nested_wrapped_calls():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _tiny_train()
    finally:
        tracer.uninstall()
    ids, parents, starts, ends = tracer.arrays()
    names = np.array(tracer.names)[ids]
    durations = ends - starts
    own = tracing.self_times(parents, durations)

    (root,) = np.flatnonzero(names == "trainer.train")
    assert parents[root] == tracing.NO_PARENT
    log_probs = np.flatnonzero(names == "trainer.log_probs")
    assert log_probs.size > 0
    for i in log_probs:
        while parents[i] != tracing.NO_PARENT:
            i = parents[i]
        assert i == root
    children = np.flatnonzero(parents == root)
    assert own[root] == pytest.approx(durations[root] - durations[children].sum(), abs=1e-12)
    assert np.all(own >= 0)
    # train is the only root, so the self times partition its duration
    assert own.sum() == pytest.approx(durations[root], rel=1e-9)
    summary = tracer.summary()
    assert summary["trainer.train"]["self_s"] == pytest.approx(own[root], abs=1e-12)
    assert summary["trainer.log_probs"]["calls"] == log_probs.size


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    original = trainer.train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.train is not original
        assert harness.train is trainer.train
        assert trainer.SoftmaxPolicy.log_probs is not before[("SoftmaxPolicy", "log_probs")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    recorded = len(tracer.name_ids)
    _tiny_train()
    assert len(tracer.name_ids) == recorded


def test_traced_run_removes_wrappers_when_a_pass_fails():
    class Failing(workloads.Workload):
        name = "failing"

        def setup(self, seed):
            return None

        def run_pass(self, state, ops, tracer=None):
            if tracer is not None:
                raise RuntimeError("traced pass failed")
            return workloads.Pass(wall_s=1.0)

    before = _bindings()
    with pytest.raises(RuntimeError):
        run.per_layer(Failing(), None, 0, 0.0, workloads.Ops())
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


class Scripted(workloads.Workload):
    """Passes with the given (wall, call latencies, fingerprint)."""

    name = "scripted"

    def __init__(self, script):
        self.script = iter(script)

    def setup(self, seed):
        return None

    def run_pass(self, state, ops, tracer=None):
        wall, calls, fingerprint = next(self.script)
        return workloads.Pass(wall_s=wall, calls_ms=np.array(calls, dtype=float),
                              fingerprint=fingerprint)


def test_passes_keep_each_call_at_its_fastest():
    ops = workloads.Ops()
    passes = run.Passes(Scripted([(3.0, [5, 1, 4], "a"), (2.0, [2, 3, 6], "a"),
                                  (4.0, [4, 2, 1], "a")]), None, ops, "scripted")
    for _ in range(3):
        passes.run()
    assert passes.best_ms.tolist() == [2.0, 1.0, 1.0]
    assert passes.walls == [3.0, 2.0, 4.0]
    # the rest of a pass is its wall minus its calls: 2.990, 1.989, 3.993 s
    assert passes.best_rest_s == pytest.approx(1.989)
    # a result check on every pass, a call-count check on every later one
    assert (ops.attempted, ops.failed) == (5, 0)


def test_passes_count_a_changed_result_or_call_count_as_failed():
    ops = workloads.Ops()
    passes = run.Passes(Scripted([(1.0, [1, 1], "a"), (1.0, [1, 1], "b"),
                                  (1.0, [1, 1, 1], "a")]), None, ops, "scripted")
    for _ in range(3):
        passes.run()
    assert ops.failed == 2
    assert passes.best_ms.tolist() == [1.0, 1.0]


def test_run_for_makes_at_least_the_minimum_number_of_passes():
    ops = workloads.Ops()
    passes = run.Passes(Scripted([(1.0, [1], "a")] * run.MIN_PASSES), None, ops, "scripted")
    passes.run_for(0.0)
    assert len(passes.walls) == run.MIN_PASSES


@pytest.mark.parametrize("n", [0, 1, 5, 9, 10, 19])
def test_tail_is_omitted_below_ten_samples_beyond_p50(n):
    assert run.tail_percentile(list(range(n))) is None


@pytest.mark.parametrize("n, pct", [(20, 50.0), (72, 50.0), (99, 50.0), (100, 90.0),
                                    (999, 90.0), (1000, 99.0), (120_000, 99.0)])
def test_tail_takes_the_highest_ladder_step_with_ten_samples_beyond(n, pct):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    got_pct, value = run.tail_percentile(samples)
    assert got_pct == pct
    beyond = n - 1 - value  # the samples are 0 .. n-1
    assert beyond >= 10
    assert value == int((n - 1) * pct / 100)


def test_tail_of_twenty_samples_leaves_exactly_ten_beyond():
    assert run.tail_percentile(list(range(20))) == (50.0, 9)


def test_benchmark_json_lists_what_the_runs_emit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
