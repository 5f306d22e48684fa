import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kllab
from kllab import harness
from kllab.cli import main
from kllab.dist import Categorical
from kllab.harness import (
    EXACT_SEED, RunRecord, SweepSpec, mode_sets, records_to_csv, scenario_by_name,
)
from kllab.mara import BatchPercentile, Constant, MaraConfig
from kllab.targets import (
    TargetSpec, forward_kl_target, generalized_target, reverse_kl_target,
)
from kllab.trainer import MonteCarlo, TrainConfig, train


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_target_two_point_reverse(capsys):
    code, out, _ = run(
        capsys, "target", "--scenario", "two_point", "--kind", "reverse",
        "--beta", "1",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    masses = [float(r[1]) for r in rows]
    assert masses[0] == pytest.approx(0.2689, abs=1e-4)
    assert masses[1] == pytest.approx(0.7311, abs=1e-4)


def test_target_forward_prints_multiplier(capsys):
    code, out, _ = run(
        capsys, "target", "--scenario", "two_point", "--kind", "forward",
        "--beta", "1",
    )
    assert code == 0
    assert "# lambda = " in out
    lam = float(out.splitlines()[0].split("=")[1])
    assert lam == pytest.approx(1.0 + np.sqrt(2) / 2, abs=1e-9)


def _target_stdout(s, kind, beta, eta):
    """What ``kllab target`` prints, built from the family's own solver: the
    forward solve's multiplier, regime and off-support mass as ``#`` lines,
    then the distribution beside the rewards."""
    lines = []
    if kind == "forward":
        sol = forward_kl_target(s, beta)
        lines += [f"# lambda = {sol.lam:.12g}",
                  f"# boundary_case = {str(sol.boundary_case).lower()}",
                  f"# off_support_mass = {sol.off_support_mass:.12g}"]
        dist = sol.distribution
    elif kind == "reverse":
        dist = reverse_kl_target(s, beta)
    else:
        dist = generalized_target(s, beta, eta)
    lines.append("index,mass,log_mass,reward")
    lines += [f"{i},{m:.12g},{lw:.12g},{r:.12g}" for i, (m, lw, r) in
              enumerate(zip(dist.probs, dist.log_weights, s.rewards.values))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind, eta", [("reverse", 0.0), ("forward", 0.0), ("generalized", 0.4)])
def test_target_stdout_of_each_kind_on_every_builtin(capsys, kind, eta):
    for name in harness.SCENARIO_CONFIGS:
        s = scenario_by_name(name)
        for beta in (0.1, 1.0):
            code, out, err = run(capsys, "target", "--scenario", name, "--kind", kind,
                                 "--beta", repr(beta), "--eta", repr(eta))
            assert (code, err) == (0, ""), name
            assert out == _target_stdout(s, kind, beta, eta), (name, beta)
            # only the forward solve has a multiplier to print
            assert out.startswith("#") is (kind == "forward")
    if kind == "forward":
        _, out, _ = run(capsys, "target", "--scenario", "two_point", "--kind", "forward",
                        "--beta", "1")
        assert out.splitlines()[:3] == [
            "# lambda = 1.70710678119", "# boundary_case = false", "# off_support_mass = 0"]


@pytest.mark.parametrize("kind, eta, title", [
    ("reverse", "0", "two_point / reverse beta=1"),
    ("generalized", "0.4", "two_point / generalized beta=1 eta=0.4"),
])
def test_target_chart_title_names_a_nonzero_eta(capsys, tmp_path, kind, eta, title):
    path = tmp_path / "t.svg"
    code, _, _ = run(capsys, "target", "--scenario", "two_point", "--kind", kind,
                     "--beta", "1", "--eta", eta, "--out", str(path))
    assert code == 0
    assert f">{title}</text>" in path.read_text()


def test_target_forward_beta_zero_is_usage_error(capsys):
    code, _, err = run(
        capsys, "target", "--scenario", "two_point", "--kind", "forward",
        "--beta", "0",
    )
    assert code == 2
    assert err


@pytest.mark.parametrize("argv", [
    ("target", "--scenario", "two_point", "--kind", "reverse", "--beta", "inf"),
    ("target", "--scenario", "two_point", "--kind", "reverse", "--beta=-inf"),
    ("target", "--scenario", "two_point", "--kind", "generalized", "--beta", "nan",
     "--eta", "1"),
    ("target", "--scenario", "two_point", "--kind", "generalized", "--beta", "1",
     "--eta", "inf"),
    ("target", "--scenario", "two_point", "--kind", "generalized", "--beta", "1e308",
     "--eta", "1e308"),
    ("ratio", "--scenario", "two_point", "--beta", "inf", "--i", "0", "--j", "1"),
    ("augment", "--scenario", "two_point", "--beta", "inf", "--tau", "0.5",
     "--indices", "0,1"),
    ("augment", "--scenario", "mara_toy", "--beta", "0.1", "--tau", "nan",
     "--indices", "12,15,34"),
    ("train", "--scenario", "mara_toy", "--beta", "0.1", "--tau", "nan", "--steps", "20"),
], ids=["reverse-inf", "reverse-minus-inf", "generalized-beta-nan",
        "generalized-eta-inf", "generalized-sum-inf", "ratio-inf", "augment-beta-inf",
        "augment-tau-nan", "train-tau-nan"])
def test_non_finite_coefficient_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    # a run that wrongly went ahead would write below the working directory
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


def test_target_of_a_reward_near_the_float_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "n": 3, "reference": [0.2, 0.3, 0.5],
                                "rewards": [1e308, 0.5, 1.0]}))
    code, out, err = run(capsys, "target", "--scenario", str(path), "--kind", "reverse",
                         "--beta", "0.5")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(row[1]) for row in rows] == [1.0, 0.0, 0.0]


def test_target_forward_of_a_reward_near_the_float_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "n": 3, "reference": [0.2, 0.3, 0.5],
                                "rewards": [1e308, 0.5, 1.0]}))
    code, out, err = run(capsys, "target", "--scenario", str(path), "--kind", "forward",
                         "--beta", "0.5")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert float(lines[0].split("=")[1]) == 1e308
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert float(rows[0][1]) == 1.0 and all(float(row[1]) < 1e-300 for row in rows[1:])


@pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
def test_train_rejects_a_learning_rate_that_is_not_positive_and_finite(capsys, tmp_path, lr):
    code, out, err = run(capsys, "train", "--scenario", "two_point", "--beta", "1",
                         "--steps", "300", f"--lr={lr}", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "learning_rate" in err
    assert list(tmp_path.iterdir()) == []


def test_target_forward_infinite_beta_exits_2_at_once():
    # this solve once never returned: a child process with a timeout makes
    # such a regression fail instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(Path(kllab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kllab.cli", "target", "--scenario", "two_point",
         "--kind", "forward", "--beta", "inf"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "finite" in proc.stderr


def test_target_forward_solver_failure_prints_only_its_error():
    # a child process, so that no warning filter of the test run hides a
    # warning printed beside the error
    env = {**os.environ, "PYTHONPATH": str(Path(kllab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kllab.cli", "target", "--scenario", "two_point",
         "--kind", "forward", "--beta", "1.5e308"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: the multiplier's bracket ceiling is not finite\n"


def _cli_with_warnings_as_errors(*argv):
    """The CLI in a child process where a RuntimeWarning is an error, so that
    no warning filter of the test run hides one printed beside the output."""
    env = {**os.environ, "PYTHONPATH": str(Path(kllab.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "kllab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_train_past_the_trainable_scale_exits_3_with_only_its_error(tmp_path):
    # Adam's second moment once overflowed here: a warning, then exit 0 at
    # final TV 0.38
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"name": "f", "n": 3, "reference": [0.2, 0.3, 0.5],
                                "rewards": [1e308, 0.5, 1e308]}))
    out = tmp_path / "out"
    proc = _cli_with_warnings_as_errors("train", "--scenario", str(path), "--beta", "0.5",
                                        "--out", str(out))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("error: rewards reach 1e+308 in absolute value, past the trainable"
                           " scale 2**510 (about 3.35e+153): Adam's squared gradient could"
                           " overflow\n")
    assert not out.exists()


def test_a_bump_both_far_and_wide_exits_2_with_only_its_error(tmp_path):
    path = tmp_path / "far-wide.json"
    path.write_text(json.dumps({"n": 4, "reference": {"shape": "uniform"},
                                "rewards": {"shape": "two_mode", "centers": [1e200],
                                            "widths": [1e200], "heights": [1]}}))
    proc = _cli_with_warnings_as_errors("target", "--scenario", str(path), "--kind", "reverse",
                                        "--beta", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: two_mode centers and widths must not both overflow")
    assert proc.stderr.count("\n") == 1


def test_a_reward_view_past_the_float_range_is_untrainable_and_augments_to_inf(tmp_path):
    # the bonus of the treated index 0, 1 + 1e306 * (log 0.5 - log 1e-300),
    # is past the float limit at this admissible beta
    path = tmp_path / "view-limit.json"
    path.write_text(json.dumps({"n": 3, "reference": [1e-300, 0.5, 0.5], "rewards": [1, 1, 0]}))
    for mode in ("exact", "mc"):
        proc = _cli_with_warnings_as_errors("train", "--scenario", str(path), "--beta", "1e306",
                                            "--tau", "0.5", "--mode", mode,
                                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: rewards reach inf in absolute value")
        assert proc.stderr.count("\n") == 1
    proc = _cli_with_warnings_as_errors("augment", "--scenario", str(path), "--beta", "1e306",
                                        "--tau", "0.5", "--indices", "0,1,2")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-3:] == ["0,1,inf", "1,1,1", "2,0,0"]


def test_generalized_eta_zero_matches_reverse(capsys):
    code_g, out_g, _ = run(
        capsys, "target", "--scenario", "two_point", "--kind", "generalized",
        "--beta", "1", "--eta", "0",
    )
    code_r, out_r, _ = run(
        capsys, "target", "--scenario", "two_point", "--kind", "reverse",
        "--beta", "1",
    )
    assert code_g == code_r == 0
    assert out_g == out_r


@pytest.mark.parametrize("kind", ["reverse", "forward"])
def test_target_eta_outside_generalized_is_usage_error(capsys, kind):
    code, _, err = run(
        capsys, "target", "--scenario", "two_point", "--kind", kind,
        "--beta", "1", "--eta", "0.5",
    )
    assert code == 2
    assert "eta" in err


def test_target_reads_masses_a_fixed_number_of_times(
    capsys, tmp_path, monkeypatch
):
    reads = []
    probs = Categorical.probs
    monkeypatch.setattr(
        Categorical, "probs",
        property(lambda self: reads.append(self.n) or probs.fget(self)),
    )
    counts = []
    for n in (10, 300):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({
            "name": f"n{n}", "n": n, "reference": [1.0] * n,
            "rewards": np.linspace(0.0, 1.0, n).tolist(),
        }))
        reads.clear()
        code, out, _ = run(
            capsys, "target", "--scenario", str(path), "--kind", "reverse",
            "--beta", "1", "--out", str(tmp_path / f"n{n}.svg"),
        )
        assert code == 0
        assert len(out.strip().splitlines()) == n + 1
        counts.append(len(reads))
    assert counts[0] == counts[1]


def test_ratio_extreme_value(capsys):
    code, out, _ = run(
        capsys, "ratio", "--scenario", "two_point", "--beta", "0.001",
        "--i", "1", "--j", "0",
    )
    assert code == 0
    assert float(out.split()[1]) == 1000.0


def test_flip_beta_fig2(capsys):
    s = scenario_by_name("fig2_two_mode")
    modes = mode_sets(s)
    peaks = [int(m[np.argmax(s.rewards.values[m])]) for m in modes]
    code, out, _ = run(
        capsys, "flip-beta", "--scenario", "fig2_two_mode",
        "--i", str(peaks[0]), "--j", str(peaks[1]),
    )
    assert code == 0
    assert float(out.split()[1]) == pytest.approx(0.1316, abs=0.0005)


def test_ratio_past_the_float_limit_prints_inf_without_a_warning(capsys):
    code, out, err = run(
        capsys, "ratio", "--scenario", "two_point", "--beta", "1e-320", "--i", "0", "--j", "1",
    )
    assert (code, out.split(), err) == (0, ["log_ratio", "-inf"], "")


def test_flip_beta_negative_coefficient_exits_3_with_a_plain_number(capsys):
    code, _, err = run(
        capsys, "flip-beta", "--scenario", "fig2_two_mode", "--i", "18", "--j", "28",
    )
    assert code == 3
    assert "computed coefficient -0.7888557267380867 is not positive" in err
    assert "np.float64" not in err


def test_flip_beta_equal_reference_exits_3(capsys):
    code, _, err = run(
        capsys, "flip-beta", "--scenario", "equal_reference",
        "--i", "30", "--j", "70",
    )
    assert code == 3
    assert "no finite flip" in err


def test_flip_beta_same_index_exits_3(capsys):
    code, _, err = run(
        capsys, "flip-beta", "--scenario", "two_point", "--i", "1", "--j", "1"
    )
    assert code == 3
    assert "identical indices" in err


@pytest.mark.parametrize("argv", [
    ["ratio", "--scenario", "fig2_two_mode", "--beta", "1", "--i", "60", "--j", "18"],
    ["flip-beta", "--scenario", "fig2_two_mode", "--i", "18", "--j", "60"],
], ids=["ratio", "flip-beta"])
def test_a_masked_index_exits_3(capsys, argv):
    # fig2's reference masks its second half, index 60 among it
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: both indices must carry reference mass\n")


@pytest.mark.parametrize("argv, message", [
    (["train", "--scenario", "two_point", "--beta", "1", "--mode", "mc", "--batch", "0",
      "--steps", "1"], "batch must be >= 1"),
    (["augment", "--scenario", "mara_toy", "--beta", "1", "--tau", "0.5", "--indices", ","],
     "batch must be nonempty"),
    (["sweep", "--workers", "0"], "workers must be >= 1"),
], ids=["train-batch-0", "augment-no-indices", "sweep-workers-0"])
def test_an_empty_batch_or_pool_exits_2_before_any_file(capsys, tmp_path, monkeypatch,
                                                        argv, message):
    monkeypatch.setenv("KLLAB_OUT", str(tmp_path / "out"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(
        capsys, "target", "--scenario", "two_point", "--kind", "reverse",
        "--beta", "1", "--frobnicate",
    )
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(capsys, "dance")
    assert code == 2


def test_missing_scenario_exits_2(capsys):
    code, _, err = run(
        capsys, "target", "--scenario", "nope.json", "--kind", "reverse",
        "--beta", "1",
    )
    assert code == 2
    assert "nope.json" in err


def test_malformed_config_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "n": }')
    code, _, err = run(
        capsys, "target", "--scenario", str(path), "--kind", "reverse",
        "--beta", "1",
    )
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("cfg", [
    {"n": 0, "reference": {"shape": "uniform"}, "rewards": []},
    {"n": 2, "reference": [0.0, 0.0], "rewards": [0.0, 1.0]},
    {"n": 3, "reference": {"shape": "mixture", "centers": [1], "widths": [0], "weights": [1]},
     "rewards": [0.0, 1.0, 2.0]},
    {"n": 3, "reference": {"shape": "uniform"},
     "rewards": {"shape": "two_mode", "centers": [1], "widths": [-1.0], "heights": [1]}},
    {"n": 3, "reference": {"shape": "uniform"},
     "rewards": {"shape": "two_mode", "centers": [1], "widths": "2", "heights": [1]}},
    {"n": 3, "reference": {"shape": "uniform"},
     "rewards": {"shape": "two_mode", "centers": 1, "widths": [2], "heights": [1]}},
    {"n": 3, "reference": {"shape": "uniform"},
     "rewards": {"shape": "two_mode", "centers": [1], "widths": [2], "heights": None}},
    {"n": 3, "reference": {"shape": "mixture", "centers": [1], "widths": ["a"], "weights": [1]},
     "rewards": [0.0, 1.0, 2.0]},
    {"n": None, "reference": {"shape": "uniform"}, "rewards": [0.0, 1.0]},
    {"n": 2.5, "reference": {"shape": "uniform"}, "rewards": [0.0, 1.0]},
    {"n": True, "reference": {"shape": "uniform"}, "rewards": [0.0]},
    {"n": 2, "reference": {"shape": "half_support", "decay": None}, "rewards": [0.0, 1.0]},
    [1, 2],
    # a number too large for a float, or a boolean, in a number field
    {"n": 2, "reference": {"shape": "half_support", "decay": 10**400}, "rewards": [0.0, 1.0]},
    {"n": 2, "reference": {"shape": "uniform"}, "rewards": [10**400, 1.0]},
    {"n": 2, "reference": [10**400, 1.0], "rewards": [0.0, 1.0]},
    {"n": 2, "reference": [True, 1], "rewards": [0.0, 1.0]},
    {"n": 10, "reference": {"shape": "uniform"},
     "rewards": {"shape": "two_mode", "centers": [True, 7], "widths": [1, 2], "heights": [1, 2]}},
    {"n": 10, "reference": {"shape": "mixture", "centers": [2, 7], "widths": [1, 2],
                            "weights": [1.5, True]},
     "rewards": [0.0] * 10},
    # neither a list nor a shape object, or a shape that is not known
    {"n": 2, "reference": "uniform", "rewards": [0.0, 1.0]},
    {"n": 2, "reference": {"decay": 0.1}, "rewards": [0.0, 1.0]},
    {"n": 2, "reference": {"shape": "uniform"}, "rewards": 1.0},
    {"n": 2, "reference": {"shape": "uniform"}, "rewards": {"shape": "zipf"}},
], ids=["n-zero", "all-zero-reference", "mixture-zero-width", "two-mode-negative-width",
        "two-mode-string-widths", "two-mode-number-centers", "two-mode-null-heights",
        "mixture-string-width-entry", "n-null", "n-fractional", "n-boolean",
        "half-support-null-decay", "top-level-array", "half-support-too-large-decay",
        "rewards-too-large-entry", "reference-too-large-entry", "reference-boolean-entry",
        "two-mode-boolean-center", "mixture-boolean-weight", "reference-string",
        "reference-without-shape", "rewards-number", "rewards-unknown-shape"])
@pytest.mark.filterwarnings("error")  # a zero width must not reach NumPy's division
def test_malformed_scenario_values_are_usage_errors(capsys, tmp_path, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(
        capsys, "target", "--scenario", str(path), "--kind", "reverse", "--beta", "1",
    )
    assert code == 2 and not out
    assert err.startswith("error: ")


def test_target_from_config_file(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny", "n": 2, "reference": [0.5, 0.5], "rewards": [0.0, 1.0],
    }))
    code, out, _ = run(
        capsys, "target", "--scenario", str(path), "--kind", "reverse",
        "--beta", "1",
    )
    assert code == 0
    assert "0.73105857" in out


def test_augment_prints_anchor_and_rewards(capsys):
    code, out, _ = run(
        capsys, "augment", "--scenario", "two_point", "--beta", "0.5",
        "--tau", "0.5", "--indices", "0,1",
    )
    assert code == 0
    assert "# anchor = 1" in out
    assert "# threshold = 0.5" in out


def test_augment_with_a_batch_percentile(capsys):
    code, out, _ = run(
        capsys, "augment", "--scenario", "mara_toy", "--beta", "0.1",
        "--percentile", "0.5", "--indices", "15,16,35,60",
    )
    assert code == 0
    rewards = scenario_by_name("mara_toy").rewards.values[[15, 16, 35, 60]]
    assert f"# threshold = {np.quantile(rewards, 0.5):.12g}" in out
    assert "# anchor = 15" in out


def test_augment_without_threshold_is_usage_error(capsys):
    code, _, err = run(
        capsys, "augment", "--scenario", "two_point", "--beta", "0.5",
        "--indices", "0,1",
    )
    assert code == 2
    assert "--tau or --percentile" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ratio", "--scenario", "two_point", "--beta", "1", "--i", "5", "--j", "0"),
        ("ratio", "--scenario", "two_point", "--beta", "1", "--i", "0", "--j", "-1"),
        ("flip-beta", "--scenario", "fig2_two_mode", "--i", "18", "--j", "100"),
        ("flip-beta", "--scenario", "fig2_two_mode", "--i", "-63", "--j", "18"),
        ("augment", "--scenario", "mara_toy", "--beta", "0.1", "--tau", "0.5",
         "--indices", "12,100"),
        ("augment", "--scenario", "mara_toy", "--beta", "0.1", "--tau", "0.5",
         "--indices=-1,12"),
    ],
    ids=["ratio-high", "ratio-negative", "flip-beta-high", "flip-beta-negative",
         "augment-high", "augment-negative"],
)
def test_index_out_of_range_is_usage_error(capsys, argv):
    # a negative index would otherwise wrap around to the end of the vector
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: index ") and "out of range" in err


@pytest.mark.parametrize("command,extra", [
    ("train", ["--steps", "1"]),
    ("augment", ["--indices", "0,1"]),
], ids=["train", "augment"])
def test_tau_and_percentile_are_exclusive(capsys, tmp_path, monkeypatch, command, extra):
    # a run that wrongly went ahead would write below the working directory
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys, command, "--scenario", "two_point", "--beta", "1", "--tau", "0.5",
        "--percentile", "0.3", *extra,
    )
    assert code == 2
    assert "not allowed with" in err


def test_train_single_step_trace(capsys, tmp_path):
    code, out, _ = run(
        capsys, "train", "--scenario", "two_point", "--kind", "reverse",
        "--beta", "1", "--steps", "1", "--out", str(tmp_path),
    )
    assert code == 0
    trace = (tmp_path / "two_point_reverse_trace.csv").read_text().splitlines()
    assert len(trace) == 2  # header + one step
    assert (tmp_path / "two_point_reverse_policy.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--tau", "0.5"], ["--percentile", "0.5"]],
                         ids=["plain", "mara", "mara-percentile"])
def test_train_trace_csv_rows_are_the_trace_records(capsys, tmp_path, extra):
    code, _, _ = run(capsys, "train", "--scenario", "mara_toy", "--beta", "0.1",
                     "--mode", "mc", "--steps", "30", "--out", str(tmp_path), *extra)
    assert code == 0
    mara = None
    if extra:
        rule = Constant(0.5) if extra[0] == "--tau" else BatchPercentile(0.5)
        mara = MaraConfig(rule, beta=0.1)
    cfg = TrainConfig(TargetSpec("reverse", 0.1), MonteCarlo(32), mara, steps=30)
    trace = train(scenario_by_name("mara_toy"), cfg).trace
    with open(tmp_path / "mara_toy_reverse_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "objective", "tv_to_target", "entropy", "above_threshold_mass"]
    assert len(rows) == 1 + trace.tv_to_target.size == 31
    above = trace.above_threshold_mass
    for t, row in enumerate(rows[1:], start=1):
        assert row == [str(t), f"{trace.objective_value[t - 1]:.17g}",
                       f"{trace.tv_to_target[t - 1]:.17g}", f"{trace.entropy[t - 1]:.17g}",
                       "" if above is None else f"{above[t - 1]:.17g}"]
    assert (rows[1][4] == "") == (not extra)


def test_train_mc_generalized_beta_zero(capsys, tmp_path):
    code, out, err = run(
        capsys, "train", "--scenario", "fig2_two_mode", "--kind", "generalized",
        "--beta", "0", "--eta", "0.1", "--mode", "mc", "--steps", "50",
        "--out", str(tmp_path),
    )
    assert code == 0, err
    assert "final TV to target" in out


def test_kllab_out_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KLLAB_OUT", str(tmp_path / "env_out"))
    code, _, _ = run(
        capsys, "train", "--scenario", "two_point", "--kind", "reverse",
        "--beta", "1", "--steps", "1",
    )
    assert code == 0
    assert (tmp_path / "env_out" / "two_point_reverse_trace.csv").exists()


def test_report_missing_records_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "report", "--records", str(tmp_path / "missing.csv"),
        "--out", str(tmp_path / "report"),
    )
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_train_out_below_a_file_exits_1(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(
        capsys, "train", "--scenario", "two_point", "--beta", "1", "--steps", "1",
        "--out", str(blocker / "out"),
    )
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_report_out_below_a_file_exits_1(capsys, tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv([RunRecord(
        scenario="two_point", objective="reverse", beta=1.0, eta=0.0, seed=-1,
        mara_enabled=False, tau_rule="", final_tv=0.01, answer_entropy=0.5,
        mode1_mass=0.5, mode2_mass=0.5, anchor_churn=0, steps=1, wall_ms=0,
    )]))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(
        capsys, "report", "--records", str(records), "--out", str(blocker / "out"),
    )
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_scenario_names_cannot_leave_the_output_directory(capsys, tmp_path):
    config = tmp_path / "f.json"
    config.write_text(json.dumps({"name": "../escaped", "n": 2,
                                  "reference": {"shape": "uniform"}, "rewards": [0, 1]}))
    code, out, err = run(capsys, "train", "--scenario", str(config), "--beta", "1",
                         "--steps", "1", "--out", str(tmp_path / "out"))
    assert code == 2 and not out and "plain file name" in err
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv([RunRecord(
        scenario="../evil", objective="reverse", beta=1.0, eta=0.0, seed=-1,
        mara_enabled=False, tau_rule="", final_tv=0.01, answer_entropy=0.5,
        mode1_mass=0.5, mode2_mass=0.5, anchor_churn=0, steps=1, wall_ms=0,
    )]))
    code, out, err = run(capsys, "report", "--records", str(records),
                         "--out", str(tmp_path / "out"))
    assert code == 2 and not out and "plain file name" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "records.csv"]


def test_report_on_a_malformed_boolean_exits_2(capsys, tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv([RunRecord(
        scenario="two_point", objective="reverse", beta=1.0, eta=0.0, seed=-1,
        mara_enabled=False, tau_rule="", final_tv=0.01, answer_entropy=0.5,
        mode1_mass=0.5, mode2_mass=0.5, anchor_churn=0, steps=1, wall_ms=0,
    )]).replace(",false,", ",True,"))
    code, _, err = run(capsys, "report", "--records", str(records),
                       "--out", str(tmp_path / "out"))
    assert code == 2 and "line 2, mara_enabled" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("objective, beta, eta, message", [
    ("reverse", 0.5, 0.3, "reverse takes no eta"),
    ("generalized", 0.0, 0.0, "beta + eta must be > 0"),
])
def test_report_on_coefficients_that_no_objective_admits_exits_2(
        capsys, tmp_path, objective, beta, eta, message):
    # the chart's analytic target is solved at each record's own beta and eta
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv([RunRecord(
        scenario="fig2_two_mode", objective=objective, beta=beta, eta=eta, seed=-1,
        mara_enabled=False, tau_rule="", final_tv=0.01, answer_entropy=0.5,
        mode1_mass=0.5, mode2_mass=0.5, anchor_churn=0, steps=1, wall_ms=0,
    )]))
    code, _, err = run(capsys, "report", "--records", str(records),
                       "--out", str(tmp_path / "out"))
    assert code == 2 and err == f"error: {message}\n"


def test_sweep_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--preset", "nope")
    assert code == 2
    assert "invalid choice: 'nope'" in err


def test_train_rejects_leave_one_out_as_a_baseline_name(capsys, tmp_path):
    # batch_mean is the leave-one-out baseline, under one name
    code, out, err = run(capsys, "train", "--scenario", "two_point", "--beta", "1",
                         "--mode", "mc", "--baseline", "leave_one_out", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "invalid choice: 'leave_one_out' (choose from" in err
    assert list(tmp_path.iterdir()) == []


# solves at the edges of the float range, each once ending in a traceback
# or a RuntimeWarning: (reference, rewards, target arguments, masses)
FLOAT_EDGE_TARGETS = {
    "newton-slope-underflows": ([1e-304, 1e-300, 1], [-1e300, -1, 1e300],
                                ["--kind", "forward", "--beta", "0.1"], [0.0, 0.0, 1.0]),
    "tilt-spans-the-float-range": ([0.2, 0.3, 0.4, 0, 0.1], [1e308, 0.5, 1e308, 1e308, -1e308],
                                   ["--kind", "reverse", "--beta", "1"],
                                   [0.5, 0.0, 0.5, 0.0, 0.0]),
    "tilt-weight-underflows": ([0.5, 0.5, 0], [0, 1, 0.5],
                               ["--kind", "generalized", "--beta", "5e-324", "--eta", "10"],
                               [0.475020812521, 0.524979187479, 0.0]),
    "tied-masses-underflow": ({"shape": "half_support", "decay": 1000}, [0, 1, 0, 0],
                              ["--kind", "forward", "--beta", "0.1"], [0.1, 0.9, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", FLOAT_EDGE_TARGETS)
def test_targets_at_the_float_edges_exit_0_without_a_warning(capsys, tmp_path, name):
    reference, rewards, args, masses = FLOAT_EDGE_TARGETS[name]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"n": len(rewards), "reference": reference, "rewards": rewards}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "target", "--scenario", str(path), *args)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    assert [float(row[1]) for row in rows] == masses


def _summary_rows(out_dir):
    """The (check, threshold, verdict) rows of a report's summary.md."""
    lines = (out_dir / "summary.md").read_text().splitlines()
    return [(cells[1].strip(), cells[3].strip(), cells[4].strip())
            for cells in (line.split("|") for line in lines if line.startswith("| "))
            if cells[1].strip() != "check"]


def _preset_records():
    """One record per paper preset cell, untrained, with mode masses that
    pass every summary check."""
    s = scenario_by_name("equal_reward_unequal_support")
    modes = mode_sets(s)
    ref = s.reference_probs
    ref_ratio = float(np.sum(ref[modes[0]]) / np.sum(ref[modes[1]]))
    records = []
    for spec in harness.paper_sweeps():
        for cell in harness._sweep_cells(spec):
            name, cfg = cell[0].name, cell[1]
            if name == "mara_toy":
                masses = (0.45, 0.45) if cfg.mara else (0.8, 0.1)
            elif name == "equal_reward_unequal_support":
                masses = (0.1 * ref_ratio, 0.1)
            else:
                masses = (0.6, 0.3)
            records.append(harness._cell_record(
                cell, 0, final_tv=0.01, answer_entropy=0.5, mode1_mass=masses[0],
                mode2_mass=masses[1], anchor_churn=0,
            ))
    return records


def test_report_on_the_paper_preset(capsys, tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv(_preset_records()))
    code, out, _ = run(capsys, "report", "--records", str(records),
                       "--out", str(tmp_path / "a"))
    assert code == 0
    assert out.count("wrote ") == 8
    svgs = sorted(p.name for p in (tmp_path / "a").glob("*.svg"))
    assert svgs == [
        "equal_reference_reverse.svg", "equal_reward_unequal_support_reverse.svg",
        "fig2_two_mode_forward.svg", "fig2_two_mode_reverse.svg",
        "mara_toy_forward.svg", "mara_toy_reverse.svg",
    ]
    # the analytic target lines go on every chart; augmented runs, which
    # only mara_toy has, get lines of their own
    for name in svgs:
        text = (tmp_path / "a" / name).read_text()
        assert "target mode 1" in text
        assert ("MARA mode 1 mass" in text) == name.startswith("mara_toy")
    # every threshold of the gate table, pinned
    assert _summary_rows(tmp_path / "a") == [
        ("exact-mode convergence", "TV <= 0.05", "PASS"),
        ("monte-carlo convergence", "mean TV <= 0.15", "PASS"),
        ("preference flip coefficient", "0.1316 +/- 0.0005", "PASS"),
        ("mode preference flips across beta*", "opposite signs", "PASS"),
        ("equal-reward mode ratio matches reference", "within 10%", "PASS"),
        ("augmented mode balance (forward, beta=0.1, seed=-1)", "within 10%", "PASS"),
        ("augmented mode balance (reverse, beta=0.1, seed=-1)", "within 10%", "PASS"),
        ("unaugmented imbalance (forward, beta=0.1, seed=-1)", ">= 3x", "PASS"),
        ("unaugmented imbalance (reverse, beta=0.1, seed=-1)", ">= 3x", "PASS"),
    ]
    # a report re-emitted from the records.csv it wrote is the same bytes
    code, _, _ = run(capsys, "report", "--records", str(tmp_path / "a" / "records.csv"),
                     "--out", str(tmp_path / "b"))
    assert code == 0
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_report_on_a_nan_tv_says_fail(capsys, tmp_path):
    # a hand-edited records.csv whose second exact cell has final_tv nan:
    # the gate fails wherever the nan sits after sorting
    records = harness.sort_records(_preset_records())
    exact = [i for i, r in enumerate(records) if r.seed == EXACT_SEED and not r.mara_enabled]
    records[exact[1]] = dataclasses.replace(records[exact[1]], final_tv=float("nan"))
    (tmp_path / "records.csv").write_text(records_to_csv(records))
    run(capsys, "report", "--records", str(tmp_path / "records.csv"),
        "--out", str(tmp_path / "report"))
    assert ("exact-mode convergence", "TV <= 0.05", "FAIL") in _summary_rows(tmp_path / "report")
    assert (tmp_path / "report" / "summary.md").read_text().splitlines()[-1] == "overall: FAIL"


def test_every_check_verdict_is_a_python_bool():
    checks = harness.summary_checks(_preset_records())
    assert len(checks) == 9
    assert all(type(c.passed) is bool for c in checks)


def test_report_checks_empty_modes(capsys, tmp_path):
    # masses read from a file may be 0 where a check divides by them
    base = dict(eta=0.0, seed=EXACT_SEED, final_tv=0.01, answer_entropy=0.0,
                anchor_churn=0, steps=1, wall_ms=0)
    records = tmp_path / "records.csv"
    records.write_text(records_to_csv([
        RunRecord(scenario="mara_toy", objective="reverse", beta=0.1,
                  mara_enabled=True, tau_rule="constant:0.5", mode1_mass=0.5,
                  mode2_mass=0.0, **base),
        RunRecord(scenario="equal_reward_unequal_support", objective="reverse",
                  beta=0.1, mara_enabled=False, tau_rule="", mode1_mass=0.5,
                  mode2_mass=0.0, **base),
        RunRecord(scenario="mara_toy", objective="reverse", beta=0.1,
                  mara_enabled=False, tau_rule="", mode1_mass=0.0,
                  mode2_mass=0.5, **base),
    ]))
    code, _, err = run(capsys, "report", "--records", str(records),
                       "--out", str(tmp_path / "report"))
    assert code == 0 and err == ""
    assert _summary_rows(tmp_path / "report") == [
        ("exact-mode convergence", "TV <= 0.05", "PASS"),
        ("equal-reward mode ratio matches reference", "within 10%", "FAIL"),
        ("augmented mode balance (reverse, beta=0.1, seed=-1)", "within 10%", "FAIL"),
        # one mode empty and the other not: as imbalanced as it gets
        ("unaugmented imbalance (reverse, beta=0.1, seed=-1)", ">= 3x", "PASS"),
    ]


def _tiny_preset(steps):
    cfg = TrainConfig(TargetSpec("reverse", 1.0), steps=steps, learning_rate=0.1,
                      seed=EXACT_SEED)
    return lambda: [SweepSpec(scenario_by_name("two_point"), [TargetSpec("reverse", 1.0)],
                              [1.0], [EXACT_SEED], cfg)]


def test_sweep_exits_by_its_checks(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "paper_sweeps", _tiny_preset(200))
    code, out, _ = run(capsys, "sweep", "--workers", "1", "--out", str(tmp_path / "a"))
    assert code == 0
    assert "PASS  exact-mode convergence" in out and "FAIL" not in out
    assert (tmp_path / "a" / "summary.md").exists()
    # one step leaves the policy far from its target
    monkeypatch.setattr(harness, "paper_sweeps", _tiny_preset(1))
    code, out, _ = run(capsys, "sweep", "--workers", "1", "--out", str(tmp_path / "b"))
    assert code == 1
    assert "FAIL  exact-mode convergence" in out


def test_sweep_evaluates_the_gate_table_once(capsys, tmp_path, monkeypatch):
    # run_sweep's records come back sorted
    records = harness.sort_records(_preset_records())
    monkeypatch.setattr(harness, "run_sweep", lambda *specs, workers: records)
    calls = []
    flip_gates = harness.flip_gates
    monkeypatch.setattr(harness, "flip_gates",
                        lambda s: calls.append(s.name) or flip_gates(s))
    code, out, _ = run(capsys, "sweep", "--workers", "1", "--out", str(tmp_path / "a"))
    assert code == 0 and calls == ["fig2_two_mode"]
    # stdout prints the verdicts of summary.md, which equals the report's
    printed = [line.split("  ", 1) for line in out.splitlines() if " (threshold " in line]
    assert [(name.split(":")[0], verdict) for verdict, name in printed] == [
        (name, verdict) for name, _, verdict in _summary_rows(tmp_path / "a")]
    (tmp_path / "records.csv").write_text(records_to_csv(records))
    code, _, _ = run(capsys, "report", "--records", str(tmp_path / "records.csv"),
                     "--out", str(tmp_path / "b"))
    assert code == 0 and len(calls) == 2
    assert (tmp_path / "a" / "summary.md").read_bytes() == (
        tmp_path / "b" / "summary.md").read_bytes()
