"""The four benchmark workloads and their correctness gates.

Each workload is a closed loop driven from one process: the next call
starts when the previous one has returned. A run repeats the workload's
pass for as long as it measures, and every pass makes the same calls in the
same order, so ``run.py`` can take each call at its fastest over the run.

* ``paper_cells``: the 72 cells of the paper preset at n = 100, cut to a
  hundredth of their steps, each through ``harness.run_sweep`` in-process,
  then ``kllab report`` on their records. Its time goes to per-step
  interpreter overhead in ``trainer`` and to the harness around it.
* ``wide_train``: ``train()`` on the fig2 shapes scaled to n = 32768, where a
  step is array work over n rather than interpreter overhead.
* ``target_scan``: the analytic solvers at n = 100, 32768 and 262144, with
  no training.
* ``estimator_trials``: standalone reverse-KL estimator calls, about 100k
  in 10 seconds (the criterion-9 load), plus forward-KL calls; per-call
  set-up dominates.

A workload builds its inputs in ``setup(seed)`` and runs one timed pass in
``run_pass``. Every unit call and every gate check counts as one operation;
a miss counts as a failed one.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))
import kllab  # noqa: E402

if not Path(kllab.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"kllab was imported from {kllab.__file__}, not from {SRC}")

from kllab import cli, dist, harness, mara, scenario_io, targets, trainer  # noqa: E402

# Every call into the package goes through a module attribute (for example
# ``targets.forward_kl_target``), so that the tracer's wrappers see it.

PAPER_CELLS = 72
# the preset's 3000- and 10000-step cells become 30- and 100-step ones:
# the per-step cost is the preset's, and a pass is short enough to repeat
PAPER_STEP_DIVISOR = 100

BETA = 0.1
ETA = 0.05
TAU = 0.5  # between the zero-reward background and the reward peaks
FIG2_FLIP = 0.1316
FIG2_FLIP_TOL = 0.0005
STATIONARITY_TOL = 1e-8  # criterion 5's bar
Z_MAX = 5.0

WIDE_N = 32768
WIDE_STEPS = 10
WIDE_BETAS = (0.05, 0.1, 0.25, 0.5)
SCAN_SIZES = (100, 32768, 262144)
EST_BETA = 0.5
EST_BATCH = 16
# per pass; a pass takes about a tenth of a second
EST_REVERSE_CALLS = 1_250
EST_FORWARD_CALLS = 250
PROBE_STEPS = 3000


class Ops:
    """Operations attempted and failed, with a line for each failure."""

    MAX_PROBLEMS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def tally(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.extend(problems[: self.MAX_PROBLEMS - len(self.problems)])

    def check(self, ok: bool, what: str) -> bool:
        self.tally(1, 0 if ok else 1, [what])
        return ok

    @contextlib.contextmanager
    def call(self, what: str):
        """Count one unit call; an exception from it is a failed operation."""
        try:
            yield
        except Exception as exc:  # a failed call is counted, not fatal
            self.tally(1, 1, [f"{what}: {type(exc).__name__}: {exc}"])
        else:
            self.tally(1, 0, [])


@dataclass
class Pass:
    """One timed pass of a workload."""

    wall_s: float
    # latency of each unit call, in the pass's fixed call order
    calls_ms: Optional[np.ndarray] = None
    train_s: float = 0.0
    steps: int = 0
    max_tv: Optional[float] = None
    # digest of the pass's results, equal across passes when deterministic
    fingerprint: str = ""


def scaled_scenario(name: str, n: int):
    """A built-in 100-token scenario stretched to ``n`` indices, so that its
    modes and decay keep their shape; at n = 100 it is the built-in one."""
    cfg = copy.deepcopy(harness.SCENARIO_CONFIGS[name])
    k = n / cfg["n"]
    ref, rewards = cfg["reference"], cfg["rewards"]
    if "decay" in ref:
        ref["decay"] = ref["decay"] / k
    for spec in (ref, rewards):
        for key in ("centers", "widths"):
            if key in spec:
                spec[key] = [x * k for x in spec[key]]
    cfg.update(name=f"{name}_n{n}", n=n)
    return scenario_io.scenario_from_dict(cfg)


def derived_seeds(seed: int, count: int) -> List[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.sum(np.abs(p - q)))


def check_distribution(ops: Ops, d, what: str) -> None:
    p = d.probs
    ok = bool(np.all(np.isfinite(p))) and abs(float(np.sum(p)) - 1.0) <= dist.NORMALIZATION_TOL
    ops.check(ok, f"{what}: not finite and normalized (sum {float(np.sum(p))!r})")


def probe_tv(s, cfg) -> float:
    """Final TV to the analytic target of one fixed, untimed training run."""
    result = trainer.train(s, cfg)
    return tv(result.final_policy.probs, result.target.probs)


class Workload:
    name = ""

    def setup(self, seed: int):
        raise NotImplementedError

    def run_pass(self, state, ops: Ops, tracer=None) -> Pass:
        """One timed pass; ``tracer`` is set while the wrappers are installed."""
        raise NotImplementedError

    def finish(self, state, ops: Ops) -> None:
        """Gates over all the passes made with ``state``."""

    def probe_tv(self, state) -> Optional[float]:
        """The workload's TV to target when its passes train nothing."""
        return None

    def untraced_extras(self, state, ops: Ops, untraced) -> Dict[str, float]:
        """Per-layer figures measured without the tracer; ``untraced`` is the
        run's ``run.Passes``."""
        return {}


# ---------------------------------------------------------------------------


def paper_cells() -> List[harness.SweepSpec]:
    """The paper preset's cells, one single-cell sweep each, with their step
    counts divided by ``PAPER_STEP_DIVISOR``."""
    cells = []
    for spec in harness.paper_sweeps():
        short = replace(spec, train=replace(
            spec.train, steps=max(1, spec.train.steps // PAPER_STEP_DIVISOR)))
        for objective in short.objectives:
            for beta in short.betas:
                for seed in short.seeds:
                    cells.append(replace(short, objectives=[objective], betas=[beta],
                                         seeds=[seed]))
    return cells


class PaperCells(Workload):
    name = "paper_cells"

    def setup(self, seed: int):
        # the preset's own seeds are fixed; the workload seed changes nothing
        return {"cells": paper_cells()}

    def run_pass(self, state, ops, tracer=None):
        records: List[harness.RunRecord] = []
        calls = []
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="paper-", dir=OUT_DIR))
        try:
            t_pass = time.perf_counter()
            for spec in state["cells"]:
                t0 = time.perf_counter()
                with ops.call(f"cell {spec.scenario.name}/{spec.objectives[0].kind}/"
                              f"{spec.betas[0]}/{spec.seeds[0]}"):
                    records += harness.run_sweep(spec, workers=1)
                calls.append((time.perf_counter() - t0) * 1000.0)
            t_sweep = time.perf_counter() - t_pass
            # what a user runs next: write the records, then `kllab report`
            records = harness.sort_records(records)
            (out / "records.csv").write_text(harness.records_to_csv(records))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["report", "--records", str(out / "records.csv"),
                               "--out", str(out / "report")])
            checks = harness.summary_checks(records)
            wall = time.perf_counter() - t_pass
            reported = (out / "report" / "summary.md").exists()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ops.check(rc == 0, f"kllab report exited with {rc}")
        ops.check(reported, "kllab report wrote no summary.md")
        ops.check(len(records) == PAPER_CELLS, f"{len(records)} records, want {PAPER_CELLS}")
        for r in records:
            ops.check(r.status == "ok",
                      f"cell {r.scenario}/{r.objective}/{r.beta}/{r.seed}: {r.status}")
        # the cells stop short of the preset's thresholds, so the verdicts
        # are compared between passes, not required to pass
        untimed = [replace(r, wall_ms=0) for r in records]
        verdicts = [(c.name, c.measured, c.passed) for c in checks]
        return Pass(
            wall_s=wall, calls_ms=np.array(calls), train_s=t_sweep,
            steps=sum(r.steps for r in records),
            max_tv=max((r.final_tv for r in records), default=None),
            fingerprint=digest([repr(untimed).encode(), repr(verdicts).encode()]),
        )

    def untraced_extras(self, state, ops, untraced):
        """The cost per cell-step of the pass's 72 cells (C = 72), each cell
        at its fastest, and of fig2 exact reverse with all seven betas
        (C = 7) or the first (C = 1) at the same step count, the fastest of
        five runs."""
        steps_per_pass = untraced.steps / len(untraced.walls)
        out = {"harness.cell_step_us.C72":
               float(np.sum(untraced.best_ms)) * 1e3 / steps_per_pass}
        s = harness.scenario_by_name("fig2_two_mode")
        spec = targets.TargetSpec("reverse", 1.0)
        cfg = trainer.TrainConfig(objective=spec, gradient_mode=trainer.Exact(),
                                  steps=3000 // PAPER_STEP_DIVISOR, seed=harness.EXACT_SEED)
        for label, betas in (("C1", harness.FIG2_BETAS[:1]), ("C7", harness.FIG2_BETAS)):
            sweep = harness.SweepSpec(s, [spec], betas, [harness.EXACT_SEED], cfg)
            walls = []
            for _ in range(5):
                t0 = time.perf_counter()
                with ops.call(f"run_sweep {label}"):
                    records = harness.run_sweep(sweep, workers=1)
                    ops.check(all(r.status == "ok" for r in records), f"{label} cell failed")
                walls.append(time.perf_counter() - t0)
            out[f"harness.cell_step_us.{label}"] = min(walls) * 1e6 / (len(betas) * cfg.steps)
        return out


# ---------------------------------------------------------------------------


class WideTrain(Workload):
    name = "wide_train"

    def setup(self, seed: int):
        s = scaled_scenario("fig2_two_mode", WIDE_N)
        mc = trainer.MonteCarlo(batch=32)
        mc_seeds = iter(derived_seeds(seed, 3 * len(WIDE_BETAS)))
        exact = dict(gradient_mode=trainer.Exact(), steps=WIDE_STEPS, seed=harness.EXACT_SEED)
        cells = {}
        for beta in WIDE_BETAS:
            reverse = targets.TargetSpec("reverse", beta)
            cells.update({
                f"exact_reverse/{beta}": trainer.TrainConfig(objective=reverse, **exact),
                f"exact_forward/{beta}": trainer.TrainConfig(
                    objective=targets.TargetSpec("forward", beta), **exact),
                f"mc_reverse/{beta}": trainer.TrainConfig(
                    objective=reverse, gradient_mode=mc, steps=WIDE_STEPS,
                    seed=next(mc_seeds)),
                f"mc_generalized/{beta}": trainer.TrainConfig(
                    objective=targets.TargetSpec("generalized", beta, ETA),
                    gradient_mode=mc, steps=WIDE_STEPS, seed=next(mc_seeds)),
                f"mc_reverse_mara/{beta}": trainer.TrainConfig(
                    objective=reverse, gradient_mode=mc,
                    mara=mara.MaraConfig(mara.Constant(TAU), beta=beta),
                    steps=WIDE_STEPS, seed=next(mc_seeds)),
            })
        return {"scenario": s, "cells": cells}

    def run_pass(self, state, ops, tracer=None):
        s = state["scenario"]
        calls, results = [], {}
        t_pass = time.perf_counter()
        for label, cfg in state["cells"].items():
            t0 = time.perf_counter()
            with ops.call(f"train {label}"):
                results[label] = trainer.train(s, cfg)
            calls.append((time.perf_counter() - t0) * 1000.0)
        wall = time.perf_counter() - t_pass
        finals, tvs = [], []
        for label, result in results.items():
            check_distribution(ops, result.final_policy, f"{label} final policy")
            finals.append(result.final_policy.probs.tobytes())
            tvs.append(tv(result.final_policy.probs, result.target.probs))
        return Pass(
            wall_s=wall, calls_ms=np.array(calls), train_s=sum(calls) / 1000.0,
            steps=WIDE_STEPS * len(state["cells"]),
            max_tv=max(tvs, default=None), fingerprint=digest(finals),
        )


# ---------------------------------------------------------------------------


class TargetScan(Workload):
    name = "target_scan"

    def setup(self, seed: int):
        # the solvers take no random input; the workload seed changes nothing
        sizes = {}
        for n in SCAN_SIZES:
            sizes[n] = {
                "fig2": scaled_scenario("fig2_two_mode", n),
                "off_support": scaled_scenario("fwd_off_support", n),
                "mara": scaled_scenario("mara_toy", n),
            }
        return {"sizes": sizes}

    def run_pass(self, state, ops, tracer=None):
        calls: List[float] = []
        outputs: List[bytes] = []

        def timed(label, fn, *args):
            t0 = time.perf_counter()
            out = None
            span = tracer.span(label) if tracer is not None else contextlib.nullcontext()
            with ops.call(label), span:
                out = fn(*args)
            calls.append((time.perf_counter() - t0) * 1000.0)
            return out

        results = []
        t_pass = time.perf_counter()
        for n, sc in state["sizes"].items():
            f2, off, mt = sc["fig2"], sc["off_support"], sc["mara"]
            rev = timed(f"targets.reverse_kl_target.ms.n{n}",
                        targets.reverse_kl_target, f2, BETA)
            fwd = timed(f"targets.forward_kl_target.ms.n{n}",
                        targets.forward_kl_target, f2, BETA)
            fwd_b = timed(f"targets.forward_kl_target_boundary.ms.n{n}",
                          targets.forward_kl_target, off, BETA)
            gen = timed(f"targets.generalized_target.ms.n{n}",
                        targets.generalized_target, f2, BETA, ETA)
            anchor = timed(f"mara.global_anchor.ms.n{n}", mara.global_anchor, mt, TAU)
            mt_target = None
            if anchor is not None:
                mt_target = timed(f"mara.mara_target.ms.n{n}",
                                  mara.mara_target, mt, BETA, TAU, anchor)
            modes = timed(f"harness.mode_sets.ms.n{n}", harness.mode_sets, f2)
            peaks = []
            if modes is not None and len(modes) >= 2:
                r = f2.rewards.values
                peaks = [int(m[np.argmax(r[m])]) for m in modes[:2]]
            beta_star = ratio = None
            if peaks:
                beta_star = timed(f"targets.flip_beta.n{n}", targets.flip_beta, f2, *peaks)
                ratio = timed(f"targets.log_prob_ratio.n{n}",
                              targets.log_prob_ratio, f2, BETA, *peaks)
            results.append((n, f2, rev, fwd, fwd_b, gen, mt, anchor, mt_target,
                            peaks, beta_star, ratio))
        wall = time.perf_counter() - t_pass
        for n, f2, rev, fwd, fwd_b, gen, mt, anchor, mt_target, *rest in results:
            self._gates(ops, n, f2, rev, fwd, fwd_b, gen, mt, anchor, mt_target, *rest)
            outputs += [d.log_weights.tobytes() for d in (rev, gen, mt_target) if d is not None]
            outputs += [sol.distribution.log_weights.tobytes()
                        for sol in (fwd, fwd_b) if sol is not None]
        return Pass(wall_s=wall, calls_ms=np.array(calls), fingerprint=digest(outputs))

    @staticmethod
    def _gates(ops, n, f2, rev, fwd, fwd_b, gen, mt, anchor, mt_target,
               peaks, beta_star, ratio):
        for label, d in (("reverse", rev), ("generalized", gen), ("mara", mt_target)):
            if d is not None:
                check_distribution(ops, d, f"n={n} {label} target")
        ops.check(anchor is not None, f"n={n} mara_toy has no anchor at tau={TAU}")
        if fwd is not None:
            check_distribution(ops, fwd.distribution, f"n={n} forward target")
            ops.check(not fwd.boundary_case, f"n={n} fig2 forward is not interior")
            m = f2.reference.support_mask
            g = fwd.distribution.probs[m]
            stat = f2.rewards.values[m] + BETA * np.exp(f2.reference.log_weights[m]) / g
            resid = float(np.max(np.abs(stat - fwd.lam)))
            ops.check(resid <= STATIONARITY_TOL,
                      f"n={n} forward stationarity residual {resid:.3e}")
        if fwd_b is not None:
            check_distribution(ops, fwd_b.distribution, f"n={n} boundary forward target")
            ops.check(fwd_b.boundary_case, f"n={n} fwd_off_support forward is not boundary")
        if mt_target is not None:
            r = mt.rewards.values
            lw = mt_target.log_weights[(r >= TAU) & mt.reference.support_mask]
            ops.check(float(np.ptp(lw)) <= 1e-9, f"n={n} mara target unequal above tau")
        ops.check(len(peaks) == 2, f"n={n} fig2 has fewer than two modes")
        if ratio is not None and rev is not None:
            i, j = peaks
            lw = rev.log_weights
            ops.check(abs(ratio - (lw[i] - lw[j])) <= 1e-8, f"n={n} log_prob_ratio off")
        if n == 100 and beta_star is not None:
            ops.check(abs(beta_star - FIG2_FLIP) <= FIG2_FLIP_TOL,
                      f"fig2 flip_beta {beta_star:.5f}, want {FIG2_FLIP} +/- {FIG2_FLIP_TOL}")

    def probe_tv(self, state):
        # training converges to the forward target the scan solves
        cfg = trainer.TrainConfig(objective=targets.TargetSpec("forward", BETA),
                                  gradient_mode=trainer.Exact(), steps=PROBE_STEPS,
                                  seed=harness.EXACT_SEED)
        return probe_tv(state["sizes"][100]["fig2"], cfg)


# ---------------------------------------------------------------------------


class EstimatorTrials(Workload):
    name = "estimator_trials"

    def setup(self, seed: int):
        # the criterion-9 problem; only the estimator seeds vary with the seed
        rng = np.random.Generator(np.random.PCG64(909))
        s = dist.Scenario(dist.from_probs(rng.uniform(0.5, 2.0, 10)),
                          dist.RewardVector(rng.uniform(-1, 1, 10)), name="criterion9")
        policy = trainer.SoftmaxPolicy(rng.uniform(-1, 1, 10))
        exact = {
            kind: trainer.exact_gradient(policy, s, targets.TargetSpec(kind, EST_BETA))
            for kind in ("reverse", "forward")
        }
        base = derived_seeds(seed, 1)[0] << 20
        # per kind: calls, sum and sum of squares of the gradients, so that
        # memory does not grow with the number of passes
        moments = {kind: [0, np.zeros(s.n), np.zeros(s.n)] for kind in exact}
        return {"scenario": s, "policy": policy, "exact": exact, "base": base,
                "next_pass": 0, "moments": moments}

    def run_pass(self, state, ops, tracer=None):
        s, policy = state["scenario"], state["policy"]
        per_pass = EST_REVERSE_CALLS + EST_FORWARD_CALLS
        first_seed = state["base"] + state["next_pass"] * per_pass
        state["next_pass"] += 1
        lat = np.empty(per_pass)
        grads = np.empty((per_pass, s.n))
        errors: List[str] = []
        reverse, forward = trainer.mc_gradient_reverse, trainer.mc_gradient_forward
        clock = time.perf_counter
        t_pass = clock()
        for i in range(per_pass):
            seed = first_seed + i
            t0 = clock()
            try:
                if i < EST_REVERSE_CALLS:
                    grads[i] = reverse(policy, s, EST_BETA, EST_BATCH, "none", seed)
                else:
                    grads[i] = forward(policy, s, EST_BETA, EST_BATCH, seed,
                                       sampled_regularizer=True)
            except Exception as exc:  # a failed call is counted, not fatal
                grads[i] = np.nan
                errors.append(f"estimator seed {seed}: {type(exc).__name__}: {exc}")
            lat[i] = clock() - t0
        wall = clock() - t_pass
        good = np.all(np.isfinite(grads), axis=1)
        ops.tally(per_pass, int((~good).sum()), errors or ["non-finite estimator output"])
        split = EST_REVERSE_CALLS
        for kind, part in (("reverse", slice(None, split)), ("forward", slice(split, None))):
            g = grads[part][good[part]]
            m = state["moments"][kind]
            m[0] += len(g)
            m[1] += g.sum(axis=0)
            m[2] += np.square(g).sum(axis=0)
        return Pass(wall_s=wall, calls_ms=lat * 1000.0)

    def finish(self, state, ops):
        """Unbiasedness over every call of the run: at most Z_MAX standard
        errors per coordinate (a correct estimator misses with probability
        about 6e-6 over 10 coordinates)."""
        for kind, (n, total, squares) in state["moments"].items():
            mean = total / n
            var = (squares - n * np.square(mean)) / (n - 1)
            worst = float(np.max(np.abs(mean - state["exact"][kind]) / np.sqrt(var / n)))
            ops.check(worst <= Z_MAX, f"{kind} estimator over {n} calls: "
                                      f"max |mean - exact| / SE = {worst:.2f}")

    def probe_tv(self, state):
        # training through the estimator's configuration converges too
        cfg = trainer.TrainConfig(
            objective=targets.TargetSpec("reverse", EST_BETA),
            gradient_mode=trainer.MonteCarlo(batch=EST_BATCH, baseline="none"),
            steps=PROBE_STEPS, seed=0)
        return probe_tv(state["scenario"], cfg)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PaperCells(), WideTrain(), TargetScan(), EstimatorTrials())
}
