import copy
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_scenario
from kllab import harness, svg
from kllab.errors import InvalidPartition
from kllab.harness import (
    CSV_COLUMNS,
    SCENARIO_CONFIGS,
    EXACT_SEED,
    RunRecord,
    SweepSpec,
    _run_batch,
    answer_entropy,
    emit_report,
    equal_reward_gate,
    exact_tv_gate,
    flip_gates,
    mara_balance_gate,
    mara_imbalance_gate,
    mc_tv_gate,
    mode_sets,
    records_from_csv,
    records_to_csv,
    run_sweep,
    scenario_by_name,
    sort_records,
    summary_checks,
)
from kllab.mara import BatchPercentile, Constant, MaraConfig
from kllab.scenario_io import scenario_from_dict
from kllab.targets import TargetSpec, flip_beta
from kllab.trainer import Exact, MonteCarlo, TrainConfig

LN2 = 0.6931471805599453


def test_builtin_scenarios_are_valid():
    scenarios = [scenario_by_name(name) for name in SCENARIO_CONFIGS]
    assert len(scenarios) == 6
    for s in scenarios:
        assert s.n == (2 if s.name == "two_point" else 100)
        assert abs(s.reference.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(s.rewards.values))


def test_equal_reward_scenario_mode_rewards_exactly_equal():
    s = scenario_by_name("equal_reward_unequal_support")
    modes = mode_sets(s)
    assert len(modes) == 2
    peaks = [int(m[np.argmax(s.rewards.values[m])]) for m in modes]
    assert s.rewards.values[peaks[0]] == s.rewards.values[peaks[1]]


def test_fig2_mode_reference_logprobs():
    s = scenario_by_name("fig2_two_mode")
    modes = mode_sets(s)
    peaks = [int(m[np.argmax(s.rewards.values[m])]) for m in modes]
    lref = s.reference.log_weights
    assert lref[peaks[0]] == pytest.approx(-4.05, abs=0.15)
    assert lref[peaks[1]] == pytest.approx(-5.95, abs=0.15)
    assert s.rewards.values[peaks[0]] == pytest.approx(0.75, abs=1e-6)
    assert s.rewards.values[peaks[1]] == pytest.approx(1.0, abs=1e-6)


def test_fig2_flip_coefficient():
    s = scenario_by_name("fig2_two_mode")
    modes = mode_sets(s)
    peaks = [int(m[np.argmax(s.rewards.values[m])]) for m in modes]
    assert flip_beta(s, peaks[0], peaks[1]) == pytest.approx(0.1316, abs=0.0005)


def test_mode_sets_are_disjoint_index_runs():
    s = scenario_by_name("fig2_two_mode")
    modes = mode_sets(s)
    assert len(modes) == 2
    assert 18 in modes[0] and 38 in modes[1]
    assert not set(modes[0].tolist()) & set(modes[1].tolist())


def _loop_mode_sets(s, floor_frac=0.3):
    """The per-index loop that mode_sets replaced, kept as its oracle."""
    r = s.rewards.values
    floor = floor_frac * float(np.max(r))
    peaks = []
    for i in range(r.size):
        left = r[i - 1] if i > 0 else -np.inf
        right = r[i + 1] if i < r.size - 1 else -np.inf
        if r[i] >= floor and r[i] >= left and r[i] > right:
            peaks.append(i)
    sets = []
    for p in peaks:
        cut = 0.5 * r[p]
        lo = p
        while lo > 0 and r[lo - 1] > cut:
            lo -= 1
        hi = p
        while hi < r.size - 1 and r[hi + 1] > cut:
            hi += 1
        sets.append(np.arange(lo, hi + 1))
    merged = []
    for run in sets:
        if merged and run[0] <= merged[-1][-1]:
            merged[-1] = np.arange(merged[-1][0], max(merged[-1][-1], run[-1]) + 1)
        else:
            merged.append(run)
    return merged


def _assert_same_sets(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_mode_sets_matches_reference_loop():
    rng = np.random.Generator(np.random.PCG64(4))
    seen = {"no modes": 0, "three or more": 0, "edge peak": 0, "run over 32": 0}
    for trial in range(3000):
        n = int(rng.integers(1, 61))
        kind = trial % 5
        if kind == 0:  # integers: plateaus and ties
            r = rng.integers(-2, 5, size=n).astype(float)
        elif kind == 1:  # runs of repeated values
            r = np.repeat(rng.integers(-1, 4, size=n), rng.integers(1, 6, size=n))
            r = r[:n].astype(float)
        elif kind == 2:  # smooth bumps, wide or wholly negative ones too
            r = np.sin(np.arange(n) / rng.uniform(0.3, 20.0)) * rng.uniform(0.1, 5.0)
            r += rng.uniform(-6.0, 6.0)
        elif kind == 3:
            r = rng.normal(size=n) - rng.uniform(0.0, 2.0)
        else:  # positive noise: runs of low peaks that swallow higher ones
            r = rng.random(size=n)
        if rng.random() < 0.2:
            r[0] = r[-1] = np.max(r) + 1.0
        s = make_scenario(np.full(n, 1.0 / n), r)
        expected = _loop_mode_sets(s)
        _assert_same_sets(mode_sets(s), expected)
        seen["no modes"] += not expected
        seen["three or more"] += len(expected) >= 3
        seen["edge peak"] += any(m[0] == 0 or m[-1] == n - 1 for m in expected)
        seen["run over 32"] += any(m.size > 32 for m in expected)
    assert min(seen.values()) >= 20, seen


def test_mode_sets_matches_reference_loop_on_wide_fig2():
    cfg = copy.deepcopy(SCENARIO_CONFIGS["fig2_two_mode"])
    k = 32768 / cfg["n"]
    cfg["n"] = 32768
    cfg["reference"]["decay"] /= k
    for key in ("centers", "widths"):
        cfg["rewards"][key] = [x * k for x in cfg["rewards"][key]]
    s = scenario_from_dict(cfg)
    modes = mode_sets(s)
    assert len(modes) == 2 and min(m.size for m in modes) > 1000
    _assert_same_sets(modes, _loop_mode_sets(s))


def test_answer_entropy_values():
    d = make_scenario([0.25, 0.25, 0.25, 0.25], [0, 0, 0, 0]).reference
    halves = [np.array([0, 1]), np.array([2, 3])]
    assert answer_entropy(d, halves) == pytest.approx(LN2, abs=1e-12)
    point = make_scenario([1.0, 0.0, 0.0, 0.0], [0, 0, 0, 0]).reference
    assert answer_entropy(point, halves) == 0.0
    skew = make_scenario([0.25, 0.0, 0.75, 0.0], [0, 0, 0, 0]).reference
    assert answer_entropy(skew, halves) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )


def test_answer_entropy_rejects_overlap():
    d = make_scenario([0.5, 0.5], [0, 0]).reference
    with pytest.raises(InvalidPartition):
        answer_entropy(d, [np.array([0, 1]), np.array([1])])


def test_sweep_spec_validation(two_point):
    cfg = TrainConfig(TargetSpec("reverse", 1.0), steps=1)
    with pytest.raises(ValueError):
        SweepSpec(two_point, [TargetSpec("reverse", 1.0)], [0.5], [], cfg)
    with pytest.raises(ValueError):
        SweepSpec(two_point, [TargetSpec("reverse", 1.0)], [0.0], [0], cfg)


def test_sweep_spec_admits_the_entropy_only_objective(two_point):
    # generalized at beta = 0 is admissible, as it is for TargetSpec
    cfg = TrainConfig(TargetSpec("generalized", 0.5, 0.3), steps=2)
    spec = SweepSpec(
        two_point, [TargetSpec("generalized", 0.5, 0.3)], [0.0], [EXACT_SEED], cfg
    )
    (record,) = run_sweep(spec)
    assert record.status == "ok" and record.beta == 0.0


def test_sweep_cells_take_mara_from_the_train_config(two_point):
    cfg = TrainConfig(
        TargetSpec("reverse", 1.0), mara=MaraConfig(Constant(0.5), beta=1.0),
        steps=2,
    )
    spec = SweepSpec(
        two_point, [TargetSpec("reverse", 1.0)], [0.25, 0.5], [EXACT_SEED], cfg
    )
    records = run_sweep(spec)
    assert [r.beta for r in records] == [0.25, 0.5]
    assert all(r.status == "ok" for r in records)
    assert all(r.mara_enabled and r.tau_rule == "constant:0.5" for r in records)


def _tiny_spec(two_point):
    cfg = TrainConfig(
        TargetSpec("reverse", 1.0), gradient_mode=MonteCarlo(batch=8), steps=40
    )
    return SweepSpec(
        two_point, [TargetSpec("reverse", 1.0)], [0.5, 1.0], [0, 1], cfg
    )


def _mask_wall(records):
    return [replace(r, wall_ms=0) for r in records]


def _two_batches(two_point):
    """``_tiny_spec``'s cells as two batches: its beta = 1.0 cells run on a
    copy of the scenario, and cells on different scenario objects never
    share a batch."""
    spec = _tiny_spec(two_point)
    return replace(spec, betas=[0.5]), replace(spec, scenario=copy.copy(two_point), betas=[1.0])


def _batch_coords(*specs):
    cells = [c for spec in specs for c in harness._sweep_cells(spec)]
    return [[(cfg.objective.beta, cfg.seed) for cfg in cfgs]
            for _, cfgs in harness._batches(cells)]


def test_run_sweep_worker_count_is_invisible(two_point):
    specs = _two_batches(two_point)
    assert _batch_coords(*specs) == [[(0.5, 0), (0.5, 1)], [(1.0, 0), (1.0, 1)]]
    serial = run_sweep(*specs, workers=1)
    parallel = run_sweep(*specs, workers=2)
    assert _mask_wall(serial) == _mask_wall(parallel)


def test_one_sweep_runs_the_cells_of_every_spec(two_point):
    spec_a = _tiny_spec(two_point)
    spec_b = SweepSpec(
        make_scenario([0.2, 0.3, 0.5], [1.0, 0.0, 0.5], name="three_point"),
        [TargetSpec("reverse", 1.0), TargetSpec("forward", 1.0)], [0.5, 2.0],
        [EXACT_SEED], TrainConfig(TargetSpec("reverse", 1.0), steps=20),
    )
    serial = run_sweep(spec_a, spec_b, workers=1)
    assert len(serial) == 8
    assert _mask_wall(serial) == _mask_wall(run_sweep(spec_a, spec_b, workers=2))
    apart = sort_records(run_sweep(spec_a) + run_sweep(spec_b))
    assert _mask_wall(serial) == _mask_wall(apart)


def test_sweep_packs_the_paper_preset_into_ten_batches():
    cells = [c for spec in harness.paper_sweeps() for c in harness._sweep_cells(spec)]
    assert [len(cfgs) for _, cfgs in harness._batches(cells)] == [
        7, 7, 21, 21, 7, 5, 1, 1, 1, 1]


_real_run_batch = harness._run_batch


def _crash_at_beta_one(batch):
    # the worker dies outright, as on a segfault or an out-of-memory kill
    if any(cfg.objective.beta == 1.0 for cfg in batch[1]):
        os._exit(1)
    return _real_run_batch(batch)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched batch reaches the workers only by fork")
def test_crashed_worker_gives_failed_records(two_point, monkeypatch):
    monkeypatch.setattr(harness, "_run_batch", _crash_at_beta_one)
    records = run_sweep(*_two_batches(two_point), workers=2)
    assert len(records) == 4
    crashed = [r for r in records if r.beta == 1.0]
    assert len(crashed) == 2
    for r in crashed:
        assert r.status.startswith("failed: BrokenProcessPool")
        assert r.final_tv == float("inf") and r.wall_ms == 0
    # cells the dead worker took down with it run again, each alone
    assert all(r.status == "ok" for r in records if r.beta == 0.5)


def _crash_first_cell_late(batch):
    # the batch of the first cell kills its worker while the second worker
    # is still busy with the other batch; alone, only the first cell does
    coords = [(cfg.objective.beta, cfg.seed) for cfg in batch[1]]
    if (1.0, 0) in coords:
        time.sleep(0.2)
        os._exit(1)
    time.sleep(0.5)
    return _real_run_batch(batch)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched batch reaches the workers only by fork")
def test_dead_worker_fails_only_its_own_cell(two_point, monkeypatch):
    monkeypatch.setattr(harness, "_run_batch", _crash_first_cell_late)
    spec = _tiny_spec(two_point)
    specs = (replace(spec, scenario=copy.copy(two_point), betas=[1.0]),
             replace(spec, betas=[0.5]))
    assert _batch_coords(*specs) == [[(1.0, 0), (1.0, 1)], [(0.5, 0), (0.5, 1)]]
    records = run_sweep(*specs, workers=2)
    failed = [(r.beta, r.seed) for r in records if r.status != "ok"]
    assert failed == [(1.0, 0)]
    assert records[2].status.startswith("failed: BrokenProcessPool")
    # the others equal their records from an undisturbed run
    cells = [c for s in specs for c in harness._sweep_cells(s)
             if (c[1].objective.beta, c[1].seed) != (1.0, 0)]
    want = sort_records([r for s, cfg in cells for r in _real_run_batch((s, [cfg]))])
    assert _mask_wall(records[:2] + records[3:]) == _mask_wall(want)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched batch reaches the workers only by fork")
def test_a_cell_that_kills_its_batch_fails_alone(two_point, monkeypatch):
    spec = replace(_tiny_spec(two_point), betas=[0.25, 0.5, 1.0], seeds=[0])
    other = replace(spec, scenario=copy.copy(two_point), betas=[2.0])
    assert _batch_coords(spec, other) == [[(0.25, 0), (0.5, 0), (1.0, 0)], [(2.0, 0)]]
    undisturbed = run_sweep(spec, other, workers=2)
    monkeypatch.setattr(harness, "_run_batch", _crash_at_beta_one)
    records = run_sweep(spec, other, workers=2)
    assert [(r.beta, r.status.startswith("failed: BrokenProcessPool")) for r in records] == [
        (0.25, False), (0.5, False), (1.0, True), (2.0, False)]
    # the batch's other cells, run again alone, equal their batched records
    assert _mask_wall(records[:2] + records[3:]) == _mask_wall(undisturbed[:2] + undisturbed[3:])


def test_paper_preset_expands_to_72_cells():
    counts = Counter(
        (s.name, type(cfg.gradient_mode).__name__, cfg.mara is not None, cfg.steps)
        for spec in harness.paper_sweeps() for s, cfg in harness._sweep_cells(spec)
    )
    assert counts == {
        ("fig2_two_mode", "Exact", False, 3000): 14,
        ("fig2_two_mode", "MonteCarlo", False, 3000): 42,
        ("equal_reference", "Exact", False, 3000): 7,
        ("equal_reward_unequal_support", "Exact", False, 10_000): 5,
        ("mara_toy", "Exact", False, 3000): 2,
        ("mara_toy", "Exact", True, 3000): 2,
    }
    assert sum(counts.values()) == 72


def test_run_sweep_one_record_per_cell(two_point):
    records = run_sweep(_tiny_spec(two_point), workers=1)
    coords = {(r.objective, r.beta, r.seed) for r in records}
    assert len(records) == len(coords) == 4
    for r in records:
        assert r.status == "ok"
        assert np.isfinite(r.final_tv)


def test_exact_cells_accept_marker_seed(two_point):
    # exact cells carry the sentinel seed; no generator is built from it
    cfg = TrainConfig(
        TargetSpec("reverse", 1.0), gradient_mode=Exact(), steps=5,
        seed=EXACT_SEED,
    )
    (rec,) = _run_batch((two_point, [cfg]))
    assert rec.status == "ok"


def test_failed_cell_is_recorded_not_raised(two_point):
    # forward's multiplier bracket overflows at a beta near the float limit
    cfg = TrainConfig(TargetSpec("forward", 1e308), gradient_mode=Exact(), steps=5)
    (rec,) = _run_batch((two_point, [cfg]))
    assert rec.status.startswith("failed:")
    assert rec.final_tv == float("inf")


def test_records_csv_round_trip(two_point):
    records = run_sweep(_tiny_spec(two_point), workers=1)
    text = records_to_csv(records)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    back = records_from_csv(text)
    assert back == records


def test_records_from_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        records_from_csv("nope,nope\n1,2\n")


def test_records_from_csv_rejects_a_short_row():
    text = records_to_csv([_record()]).rstrip("\n")
    with pytest.raises(ValueError, match="line 2: 14 fields"):
        records_from_csv(text.rsplit(",", 1)[0] + "\n")


@pytest.mark.parametrize("value", ["True", "yes", "1", "", "FALSE"])
def test_records_from_csv_rejects_a_malformed_boolean(value):
    text = records_to_csv([_record()]).replace(",false,", f",{value},", 1)
    with pytest.raises(ValueError, match=f"line 2, mara_enabled: expected true or false, "
                                         f"not '{value}'"):
        records_from_csv(text)


@pytest.mark.parametrize("scenario", ["../evil", "a/b", "a\\b", ".", ".."])
def test_records_from_csv_rejects_a_scenario_that_is_no_plain_file_name(scenario):
    text = records_to_csv([_record(), _record(scenario=scenario)])
    with pytest.raises(ValueError, match="line 3, scenario: scenario name must be a plain"):
        records_from_csv(text)


def test_records_from_csv_rejects_an_unknown_objective():
    text = records_to_csv([_record(objective="sideways")])
    with pytest.raises(ValueError, match="line 2, objective: unknown objective 'sideways'"):
        records_from_csv(text)


def test_records_from_csv_names_the_column_of_a_bad_number():
    text = records_to_csv([_record()]).replace(",0.10000000000000001,", ",x,", 1)
    with pytest.raises(ValueError, match="line 2, beta: could not convert"):
        records_from_csv(text)


def test_records_csv_bytes_are_pinned():
    records = [
        _record(final_tv=0.042130926411431046, answer_entropy=0.6931471805599453,
                mode1_mass=1 / 3, mode2_mass=2 / 3, steps=3000, wall_ms=95),
        _record(scenario="mara_toy", objective="forward", mara_enabled=True,
                tau_rule="constant:0.5", final_tv=1e-9,
                mode1_mass=0.49999999999999994, mode2_mass=0.5, anchor_churn=2,
                steps=3000, wall_ms=130),
        _record(scenario="equal_reference", beta=0.25, seed=2,
                final_tv=float("inf"), answer_entropy=0.0, mode1_mass=0.0,
                mode2_mass=0.0, wall_ms=0, status='failed: ValueError: bad "x", or y'),
    ]
    text = records_to_csv(records)
    assert text == (
        "scenario,objective,beta,eta,seed,mara_enabled,tau_rule,final_tv,"
        "answer_entropy,mode1_mass,mode2_mass,anchor_churn,steps,wall_ms,status\n"
        "fig2_two_mode,reverse,0.10000000000000001,0,-1,false,,"
        "0.042130926411431048,0.69314718055994529,0.33333333333333331,"
        "0.66666666666666663,0,3000,95,ok\n"
        "mara_toy,forward,0.10000000000000001,0,-1,true,constant:0.5,"
        "1.0000000000000001e-09,0.5,0.49999999999999994,0.5,2,3000,130,ok\n"
        "equal_reference,reverse,0.25,0,2,false,,inf,0,0,0,0,10,0,"
        '"failed: ValueError: bad ""x"", or y"\n'
    )
    assert records_from_csv(text) == records


def test_emit_report_files_and_determinism(two_point, tmp_path):
    records = run_sweep(_tiny_spec(two_point), workers=1)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    manifest1 = emit_report(records, out1)
    manifest2 = emit_report(records_from_csv(records_to_csv(records)), out2)
    names1 = sorted(p.name for p in manifest1)
    assert "records.csv" in names1 and "summary.md" in names1
    assert any(p.suffix == ".svg" for p in manifest1)
    assert names1 == sorted(p.name for p in manifest2)
    for p1, p2 in zip(sorted(manifest1), sorted(manifest2)):
        assert p1.read_bytes() == p2.read_bytes()


def _record(**kw):
    base = dict(
        scenario="fig2_two_mode", objective="reverse", beta=0.1, eta=0.0,
        seed=EXACT_SEED, mara_enabled=False, tau_rule="", final_tv=0.01,
        answer_entropy=0.5, mode1_mass=0.5, mode2_mass=0.3, anchor_churn=0,
        steps=10, wall_ms=1,
    )
    base.update(kw)
    return RunRecord(**base)


def test_chart_points_never_average_augmentation_settings(tmp_path, monkeypatch):
    # one beta, three augmentation settings with different mode-1 masses:
    # each plotted point is the mean of one setting's runs
    plotted = []
    add_line = svg.Chart.add_line

    def spy(self, label, xs, ys, color=None):
        plotted.append((label, list(ys)))
        add_line(self, label, xs, ys, color)

    monkeypatch.setattr(svg.Chart, "add_line", spy)
    common = dict(scenario="mara_toy", beta=0.1)
    records = [
        _record(seed=0, mode1_mass=0.9, **common),
        _record(seed=1, mode1_mass=0.8, **common),
        _record(mara_enabled=True, tau_rule="constant:0.5", mode1_mass=0.5, **common),
        _record(mara_enabled=True, tau_rule="percentile:0.75", mode1_mass=0.3,
                **common),
    ]
    emit_report(records, tmp_path)
    mode1 = sorted(ys for label, ys in plotted if label.endswith("mode 1 mass"))
    assert mode1 == [[0.3], [0.5], [pytest.approx(0.85)]]
    assert [ys for label, ys in plotted if label == "mode 1 mass"] == [[pytest.approx(0.85)]]
    # the target lines belong to the unaugmented objective
    assert any(label == "target mode 1" for label, _ in plotted)


def _two_eta_mc_records():
    """Generalized Monte Carlo cells that differ only in eta: three seeds at
    eta 0.05 end at TV 0.02, three at eta 2 at TV 0.25."""
    return [_record(objective="generalized", beta=0.1, eta=eta, seed=seed, final_tv=tv)
            for eta, tv in ((0.05, 0.02), (2.0, 0.25)) for seed in (0, 1, 2)]


def test_mc_tv_gate_keeps_cells_of_another_eta_apart():
    # merged, the six seeds average to 0.135 and pass; the eta = 2 cells fail alone
    records = _two_eta_mc_records()
    (check,) = mc_tv_gate(records)
    assert check.measured == "max seed-mean TV 0.2500" and not check.passed
    (check,) = mc_tv_gate([r for r in records if r.eta == 0.05])
    assert check.measured == "max seed-mean TV 0.0200" and check.passed


def test_chart_draws_a_series_for_each_eta(tmp_path):
    records = [replace(r, beta=beta) for r in _two_eta_mc_records() for beta in (0.1, 0.5)]
    emit_report(records, tmp_path)
    text = (tmp_path / "fig2_two_mode_generalized.svg").read_text()
    # mode 1, mode 2 and TV for each eta, and a pair of analytic target lines
    # for each eta
    assert text.count("<polyline") == 10
    for eta in ("0.05", "2"):
        assert f">mode 1 mass eta={eta}</text>" in text
        assert f">TV to target eta={eta}</text>" in text
        assert f">target mode 1 eta={eta}</text>" in text
        assert f">target mode 2 eta={eta}</text>" in text
    # trained lines first; then mode 1 and mode 2 of eta 0.05, then of eta 2
    lines = text.split("<polyline")[1:]
    assert lines[6] != lines[8] and lines[7] != lines[9]


def test_reporting_failure_paths(tmp_path):
    with pytest.raises(KeyError, match="unknown scenario 'nope'"):
        scenario_by_name("nope")
    with pytest.raises(ValueError, match="^no records to report$"):
        emit_report([], tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="^chart has no data$"):
        svg.Chart("empty", "x", "y").render()


def test_a_batch_percentile_rule_survives_the_records_round_trip():
    mara = MaraConfig(BatchPercentile(0.7), beta=0.1)
    cfg = TrainConfig(TargetSpec("reverse", 0.1), gradient_mode=Exact(), steps=2,
                      seed=EXACT_SEED, mara=mara)
    spec = SweepSpec(scenario_by_name("mara_toy"), [TargetSpec("reverse", 0.1)], [0.1],
                     [EXACT_SEED], cfg)
    records = run_sweep(spec)
    assert [(r.tau_rule, r.status) for r in records] == [("percentile:0.7", "ok")]
    assert records_from_csv(records_to_csv(records)) == records


def test_summary_checks_flag_failures():
    good = summary_checks([_record()])
    assert all(c.passed for c in good)
    bad = summary_checks([_record(final_tv=0.5), _record(status="failed: x")])
    assert any(not c.passed for c in bad)


def _passes(checks):
    return bool(checks) and all(c.passed for c in checks)


def _mode_ratio(x, **kw):
    """One record whose mode masses stand in ratio ``x`` (scaling by 0.25 is exact)."""
    return [_record(mode1_mass=0.25 * x, mode2_mass=0.25, **kw)]


# gate, its records for one input x, the last x that passes, the way past it
GATE_EDGES = {
    "exact-tv-0.05": (exact_tv_gate, lambda x: [_record(final_tv=x)], 0.05, np.inf),
    # the seed mean (0 + 0.3) / 2 is 0.15 exactly
    "mc-seed-mean-tv-0.15": (
        mc_tv_gate, lambda x: [_record(seed=0, final_tv=0.0), _record(seed=1, final_tv=x)],
        0.3, np.inf,
    ),
    # 1.1 - 1 rounds above 0.1: the last ratio within 10% is the float below 1.1
    "balance-10%-above": (
        mara_balance_gate, lambda x: _mode_ratio(x, scenario="mara_toy", mara_enabled=True),
        float(np.nextafter(1.1, 0)), np.inf,
    ),
    "balance-10%-below": (
        mara_balance_gate, lambda x: _mode_ratio(x, scenario="mara_toy", mara_enabled=True),
        0.9, 0.0,
    ),
    "imbalance-3x": (
        mara_imbalance_gate, lambda x: _mode_ratio(x, scenario="mara_toy"), 3.0, 0.0,
    ),
}


@pytest.mark.parametrize("tvs", [[0.01, np.nan], [np.nan, 0.01]], ids=["nan-last", "nan-first"])
def test_tv_gates_fail_on_a_nan_tv_in_either_position(tvs):
    # Python's max passes [0.01, nan] and fails [nan, 0.01]; both must fail
    exact = [_record(beta=beta, final_tv=tv) for beta, tv in zip((0.1, 0.2), tvs)]
    mc = [_record(beta=beta, seed=seed, final_tv=tv)
          for beta, tv in zip((0.1, 0.2), tvs) for seed in (0, 1)]
    for gate, records in ((exact_tv_gate, exact), (mc_tv_gate, mc)):
        (check,) = gate(records)
        assert not check.passed and "nan" in check.measured, gate.__name__
        assert not _passes(gate(sort_records(records)))


@pytest.mark.parametrize("case", sorted(GATE_EDGES))
def test_gate_passes_at_its_threshold_and_fails_one_float_past(case):
    gate, records, edge, past = GATE_EDGES[case]
    assert _passes(gate(records(edge)))
    assert not _passes(gate(records(float(np.nextafter(edge, past)))))


@pytest.mark.parametrize("edge, past", [(0.1316 + 0.0005, np.inf), (0.1316 - 0.0005, 0.0)],
                         ids=["above", "below"])
def test_flip_gate_passes_at_its_threshold_and_fails_one_float_past(monkeypatch, edge, past):
    s = scenario_by_name("fig2_two_mode")
    monkeypatch.setattr(harness, "flip_beta", lambda *_: edge)
    assert flip_gates(s)[0].passed
    monkeypatch.setattr(harness, "flip_beta", lambda *_: float(np.nextafter(edge, past)))
    assert not flip_gates(s)[0].passed


def test_equal_reward_gate_edges_sit_ten_percent_from_the_reference_ratio():
    s = scenario_by_name("equal_reward_unequal_support")
    modes = mode_sets(s)
    ref = s.reference_probs
    ref_ratio = float(np.sum(ref[modes[0]]) / np.sum(ref[modes[1]]))

    def passes(x):
        return _passes(equal_reward_gate(_mode_ratio(x, scenario=s.name)))

    for bound, past in ((1.1 * ref_ratio, np.inf), (0.9 * ref_ratio, 0.0)):
        # from the bound, the last ratio that passes before one that fails
        edge = bound
        while not passes(edge):
            edge = float(np.nextafter(edge, ref_ratio))
        while passes(float(np.nextafter(edge, past))):
            edge = float(np.nextafter(edge, past))
        assert edge == pytest.approx(bound, rel=1e-15)
