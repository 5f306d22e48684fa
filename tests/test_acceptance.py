"""End-to-end acceptance checks.

Each test covers one headline claim of the package and prints a single
PASS/FAIL line with the measured value, so a plain ``pytest -v -s
tests/test_acceptance.py`` doubles as a readable scorecard.
"""

from dataclasses import replace

import numpy as np

from conftest import make_scenario, random_scenario
from kllab.harness import (
    EQUAL_REWARD_BETAS,
    FIG2_BETAS,
    MARA_TOY_TAU,
    SweepSpec,
    equal_reward_gate,
    exact_tv_gate,
    flip_gates,
    mara_balance_gate,
    mara_imbalance_gate,
    mc_tv_gate,
    mode_sets,
    paper_sweeps,
    run_sweep,
    scenario_by_name,
)
from kllab.mara import (
    Constant,
    MaraConfig,
    augment_ref_view,
    augment_rewards,
    global_anchor,
    mara_target,
)
from kllab.targets import (
    TargetSpec,
    forward_kl_target,
    log_prob_ratio,
    reverse_kl_target,
)
from kllab.trainer import (
    SoftmaxPolicy,
    TrainConfig,
    exact_gradient,
    exact_objective,
    kl_gradient_to_target,
    mc_gradient_reverse,
    reverse_coefficients,
)


def verdict(number: int, name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}",
          flush=True)
    assert passed, f"criterion {number} ({name}): {detail}"


def gate_verdict(number: int, name: str, gates, ok: bool = True, detail: str = ""):
    """The verdict on harness gates, each of which must yield a check, and
    on what the criterion measures itself."""
    checks = [c for gate in gates for c in gate]
    details = [detail] + [f"{c.name}: {c.measured} (want {c.threshold})" for c in checks]
    ok = ok and all(gates) and all(c.passed for c in checks)
    verdict(number, name, ok, "; ".join(filter(None, details)))


def preset_records(scenario: str):
    """The records of the paper preset's cells on one scenario."""
    return run_sweep(*[s for s in paper_sweeps() if s.scenario.name == scenario], workers=2)


def test_criterion_1_preference_flip():
    gate_verdict(1, "preference flip", [flip_gates(scenario_by_name("fig2_two_mode"))])


def test_criterion_2_extreme_ratio():
    s = make_scenario([0.5, 0.5], [0.1, 0.0])
    value = log_prob_ratio(s, 1e-3, 0, 1)
    ok = value == 100.0
    verdict(2, "extreme ratio", ok,
            f"log ratio = {value!r} nats (want exactly 100.0, no overflow)")


def test_criterion_3_equal_reward_invariance():
    s = scenario_by_name("equal_reward_unequal_support")
    modes = mode_sets(s)
    ref = s.reference.probs
    ref_ratio = float(np.sum(ref[modes[0]]) / np.sum(ref[modes[1]]))
    worst_analytic = 0.0
    for beta in EQUAL_REWARD_BETAS:
        g = reverse_kl_target(s, beta).probs
        analytic_ratio = float(np.sum(g[modes[0]]) / np.sum(g[modes[1]]))
        worst_analytic = max(worst_analytic, abs(analytic_ratio / ref_ratio - 1.0))
    # smaller beta means a sharper target; the two smallest betas get a
    # budget that scales with the sharpness
    objective = [TargetSpec("reverse", 1.0)]
    cfg = TrainConfig(objective[0], steps=3000)
    records = run_sweep(
        SweepSpec(s, objective, EQUAL_REWARD_BETAS[:2], [0], replace(cfg, steps=10_000)),
        SweepSpec(s, objective, EQUAL_REWARD_BETAS[2:], [0], cfg),
        workers=2,
    )
    gate_verdict(
        3, "equal-reward invariance", [equal_reward_gate(records)],
        worst_analytic <= 1e-9,
        f"analytic mode-ratio deviation {worst_analytic:.2e} (want <= 1e-9)",
    )


def test_criterion_4_target_family_convergence():
    s = scenario_by_name("fig2_two_mode")
    for beta in FIG2_BETAS:
        assert not forward_kl_target(s, beta).boundary_case
    # exact and 3-seed Monte Carlo cells, reverse and forward, at every beta
    records = preset_records("fig2_two_mode")
    assert len(records) == 2 * len(FIG2_BETAS) * 4
    gate_verdict(4, "target-family convergence",
                 [exact_tv_gate(records), mc_tv_gate(records)])


def test_criterion_5_forward_solver():
    two_point = make_scenario([0.5, 0.5], [0.0, 1.0])
    lam = forward_kl_target(two_point, 1.0).lam
    lam_err = abs(lam - (1.0 + np.sqrt(2) / 2))
    rng = np.random.Generator(np.random.PCG64(404))
    worst_resid = 0.0
    for _ in range(100):
        sc = random_scenario(rng)
        beta = float(rng.uniform(0.05, 2.0))
        sol = forward_kl_target(sc, beta)
        if sol.boundary_case:
            continue
        m = sc.reference.support_mask
        g = sol.distribution.probs[m]
        stat = sc.rewards.values[m] + beta * np.exp(sc.reference.log_weights[m]) / g
        worst_resid = max(worst_resid, float(np.max(np.abs(stat - sol.lam))))
    boundary = forward_kl_target(make_scenario([1.0, 0.0], [0.0, 2.0]), 1.0)
    boundary_exact = np.array_equal(boundary.distribution.probs, [0.5, 0.5])
    ok = lam_err <= 1e-10 and worst_resid <= 1e-8 and boundary_exact
    verdict(
        5, "forward solver", ok,
        f"two-point multiplier error {lam_err:.2e} (want <= 1e-10); "
        f"worst stationarity residual {worst_resid:.2e} (want <= 1e-8); "
        f"leftover-mass case exact: {boundary_exact}",
    )


def test_criterion_6_gradient_identity():
    rng = np.random.Generator(np.random.PCG64(606))
    worst_identity = 0.0
    for _ in range(50):
        sc = random_scenario(rng)
        beta = float(rng.uniform(0.05, 2.0))
        mask = np.asarray(sc.reference.support_mask)
        policy = SoftmaxPolicy(rng.uniform(-2, 2, sc.n), mask)
        g = exact_gradient(policy, sc, TargetSpec("reverse", beta))
        g_kl = kl_gradient_to_target(policy, reverse_kl_target(sc, beta))
        worst_identity = max(worst_identity, float(np.max(np.abs(g + beta * g_kl))))

    worst_fd = 0.0
    h = 1e-5
    specs = [TargetSpec("reverse", 0.5), TargetSpec("forward", 0.5),
             TargetSpec("generalized", 0.3, 0.7)]
    for spec in specs:
        for _ in range(8):
            sc = random_scenario(rng, n_max=8, allow_masked=spec.kind == "reverse")
            mask = (
                np.asarray(sc.reference.support_mask)
                if spec.kind != "forward" else None
            )
            policy = SoftmaxPolicy(rng.uniform(-2, 2, sc.n), mask)
            g = exact_gradient(policy, sc, spec)
            fd = np.zeros(sc.n)
            for k in range(sc.n):
                e = np.zeros(sc.n)
                e[k] = h
                jp = exact_objective(
                    SoftmaxPolicy(policy.logits + e, policy.support_mask), sc, spec
                )
                jm = exact_objective(
                    SoftmaxPolicy(policy.logits - e, policy.support_mask), sc, spec
                )
                fd[k] = (jp - jm) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst_fd = max(worst_fd, float(np.max(np.abs(g - fd))) / scale)
    ok = worst_identity <= 1e-9 and worst_fd <= 1e-6
    verdict(
        6, "gradient identity", ok,
        f"worst |grad J + beta * grad KL| = {worst_identity:.2e} (want <= 1e-9); "
        f"worst finite-difference relative error {worst_fd:.2e} (want <= 1e-6)",
    )


def test_criterion_7_mara_uniformity():
    # reverse and forward at one beta, with and without augmentation
    records = preset_records("mara_toy")
    (beta,) = {r.beta for r in records}
    s = scenario_by_name("mara_toy")
    target = mara_target(s, beta, MARA_TOY_TAU, global_anchor(s, MARA_TOY_TAU))
    above = np.flatnonzero(s.rewards.values >= MARA_TOY_TAU)
    masses = target.probs[above]
    uniform_dev = float(np.max(masses) / np.min(masses) - 1.0)
    gate_verdict(
        7, "anchored-augmentation uniformity",
        [mara_balance_gate(records), mara_imbalance_gate(records)],
        uniform_dev <= 1e-9,
        f"analytic above-threshold spread {uniform_dev:.2e} (want <= 1e-9)",
    )


def test_criterion_8_estimator_equivalence():
    rng = np.random.Generator(np.random.PCG64(808))
    worst = 0.0
    qualifying = 0
    while qualifying < 10_000:
        sc = random_scenario(rng, allow_masked=False)
        beta = float(rng.uniform(0.05, 2.0))
        cfg = MaraConfig(Constant(float(np.quantile(sc.rewards.values, 0.5))), beta)
        ys = rng.integers(0, sc.n, size=64)
        a1 = augment_rewards(ys, sc, cfg)
        a2 = augment_ref_view(ys, sc, cfg)
        if a1.anchor_index is None:
            continue
        policy = SoftmaxPolicy(rng.uniform(-2, 2, sc.n))
        c1 = reverse_coefficients(
            policy, ys, a1.augmented_rewards, a1.augmented_ref_logprobs, beta
        )
        c2 = reverse_coefficients(
            policy, ys, a2.augmented_rewards, a2.augmented_ref_logprobs, beta
        )
        mask = a1.raw_rewards >= a1.threshold_used
        worst = max(worst, float(np.max(np.abs(c1[mask] - c2[mask]))))
        qualifying += int(np.count_nonzero(mask))
    ok = worst <= 1e-12
    verdict(
        8, "estimator equivalence", ok,
        f"max coefficient gap between the two views {worst:.2e} over "
        f"{qualifying} qualifying samples (want <= 1e-12)",
    )


def test_criterion_9_unbiasedness():
    rng = np.random.Generator(np.random.PCG64(909))
    s = make_scenario(rng.uniform(0.5, 2.0, 10), rng.uniform(-1, 1, 10))
    policy = SoftmaxPolicy(rng.uniform(-1, 1, 10))
    beta, batch, trials = 0.5, 16, 100_000
    exact = exact_gradient(policy, s, TargetSpec("reverse", beta))
    total = np.zeros(10)
    total_sq = np.zeros(10)
    for seed in range(trials):
        g = mc_gradient_reverse(policy, s, beta, batch, "none", seed)
        total += g
        total_sq += g * g
    mean = total / trials
    var = (total_sq / trials - mean**2) * trials / (trials - 1)
    se = np.sqrt(var / trials)
    z = np.abs(mean - exact) / se
    ok = bool(np.all(z <= 3.0))
    verdict(
        9, "estimator unbiasedness", ok,
        f"max |mean - exact| / SE = {float(np.max(z)):.2f} over {trials} "
        f"batches (want <= 3 per coordinate)",
    )
