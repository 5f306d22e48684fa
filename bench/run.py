"""kllab benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload paper_cells --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's pass for ``--seconds`` with nothing
wrapped and reports the end-to-end metrics. ``--trace 1`` spends half the
time on untraced passes and half on passes with the tracer's wrappers
installed, and reports the per-layer metrics. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it carries the environment stamp and the sample count behind each metric.
Both are also written to ``bench/out/``. See ``bench/NOTES.md`` for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
# each set-up is timed as the fastest of this many back-to-back starts, so
# that, as for the passes, a spell of host contention does not decide it
SETUP_STARTS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10
TAIL_LADDER = (50.0, 90.0, 99.0)

# (metric, unit); the order and names match BENCHMARK.json
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("call_ms_p50", "ms"),
    ("call_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("max_tv_to_target", "TV"),
)

SELF_MS = (
    "trainer.log_probs", "trainer.policy_init", "trainer.train",
    "trainer.exact_gradient", "trainer.exact_objective", "trainer.adam_step",
    "trainer.sample_policy", "trainer.reverse_coefficients",
    "trainer.score_function_gradient", "mara.global_anchor",
    "targets.analytic_target", "harness.mode_sets", "mara.augment_rewards",
    "dist.normalize", "dist.Categorical.init", "svg.Chart.render",
    "scenario_io.scenario_from_dict", "cli.main",
)
SETUP_SPANS = ("scenario_io.scenario_from_dict",)
US_PER_CALL = ("trainer.mc_gradient_reverse", "trainer.mc_gradient_forward", "dist.sample")
CALLS = ("mara.global_anchor", "dist.normalize", "harness.run_sweep")
TOTAL_MS = ("harness.emit_report", "harness.summary_checks")
SCAN_SIZES = (100, 32768, 262144)
SCAN_CALLS = (
    "targets.reverse_kl_target", "targets.forward_kl_target",
    "targets.forward_kl_target_boundary", "targets.generalized_target",
    "mara.mara_target", "mara.global_anchor", "harness.mode_sets",
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = [("trainer.step_us", "us"), ("trainer.log_probs.calls_per_step", "count")]
    out += [(f"{name}.self_ms", "ms") for name in SELF_MS]
    out += [(f"{name}.us_per_call", "us") for name in US_PER_CALL]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [(f"{name}.ms", "ms") for name in TOTAL_MS]
    out += [(f"{name}.ms.n{n}", "ms") for name in SCAN_CALLS for n in SCAN_SIZES]
    out += [(f"harness.cell_step_us.C{c}", "us") for c in (1, 7, 72)]
    out += [("trace_overhead_s", "s")]
    return out


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest of p50, p90 and p99 that has at
    least ten samples beyond it; None when even p50 has fewer.

    The value is the order statistic at index floor((n - 1) * p / 100),
    which leaves at least ten samples above it. The ladder stops at p99
    and moves in coarse steps because, on a shared 2-core machine, the
    order statistic ten from the top of a few hundred samples measures host
    interruptions more than the program.
    """
    n = len(samples)
    fitting = [p for p in TAIL_LADDER if n * (100.0 - p) >= TAIL_BEYOND * 100.0]
    if not fitting:
        return None
    pct = fitting[-1]
    return pct, sorted(samples)[int((n - 1) * pct / 100.0)]


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_seconds() -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu_self_s": own.ru_utime + own.ru_stime,
            "cpu_children_s": kids.ru_utime + kids.ru_stime}


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's max RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kllab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp_start() -> dict:
    commit = _git("rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "commit": commit, "dirty": dirty, "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported kllab
    and built the workload's inputs."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), workload,
                           str(seed)], stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def measure_setup(workload: str, seed: int) -> float:
    """One set-up time: the fastest of ``SETUP_STARTS`` back-to-back probes."""
    return min(probe_setup(workload, seed) for _ in range(SETUP_STARTS))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Passes:
    """Repeats a workload's pass and keeps what the metrics need.

    Every pass of a workload makes the same unit calls in the same order, so
    each call keeps its fastest time over the passes, and so does the rest of
    the pass (its time outside the unit calls). On a shared host, contention
    only ever adds time and comes in spells; the fastest of many repeats
    spread over a run is the program's own cost. Of each pass only its wall
    time is kept, so memory hardly grows with the number of passes.
    """

    def __init__(self, wl, state, ops, what: str):
        self.wl, self.state, self.ops, self.what = wl, state, ops, what
        self.walls: List[float] = []
        self.best_ms: Optional[np.ndarray] = None
        self.best_rest_s = float("inf")
        self.max_tv: Optional[float] = None
        self.train_s = 0.0
        self.steps = 0
        self.fingerprint: Optional[str] = None

    def run(self, tracer=None):
        p = self.wl.run_pass(self.state, self.ops, tracer=tracer)
        self.walls.append(p.wall_s)
        self.train_s += p.train_s
        self.steps += p.steps
        if p.max_tv is not None:
            self.max_tv = p.max_tv if self.max_tv is None else max(self.max_tv, p.max_tv)
        if self.fingerprint is None:
            self.fingerprint = p.fingerprint
        self.ops.check(p.fingerprint == self.fingerprint,
                       f"{self.what}: pass {len(self.walls)} differs from pass 1")
        calls = np.asarray(p.calls_ms if p.calls_ms is not None else [], dtype=float)
        self.best_rest_s = min(self.best_rest_s, p.wall_s - float(np.sum(calls)) / 1e3)
        if self.best_ms is None:
            self.best_ms = calls
        elif self.ops.check(calls.shape == self.best_ms.shape,
                            f"{self.what}: pass {len(self.walls)} made {calls.size} "
                            f"calls, pass 1 {self.best_ms.size}"):
            np.minimum(self.best_ms, calls, out=self.best_ms)
        return p

    def run_for(self, seconds: float, between=None, tracer=None) -> None:
        """Run passes until ``seconds`` have gone by and at least
        ``MIN_PASSES`` were made; ``between(elapsed)`` runs before each."""
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if between is not None:
                between(elapsed)
            if len(self.walls) >= MIN_PASSES and elapsed >= seconds:
                return
            self.run(tracer=tracer)


def end_to_end(wl, state, seed: int, seconds: float, ops) -> Tuple[dict, dict]:
    passes = Passes(wl, state, ops, f"{wl.name} outputs")
    setup: List[float] = []

    def probe_when_due(elapsed: float) -> None:
        # set-up probes are spread over the run, so that a spell of host
        # contention weighs on them as on the passes
        while len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup(wl.name, seed))

    passes.run_for(seconds, between=probe_when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(wl.name, seed))
    wl.finish(state, ops)
    tvs = [] if passes.max_tv is None else [passes.max_tv]
    probe = wl.probe_tv(state)
    if probe is not None:
        tvs.append(probe)
    calls = passes.best_ms.tolist()
    values = {
        "pass_s": float(np.sum(passes.best_ms)) / 1e3 + passes.best_rest_s,
        "setup_s": statistics.median(setup),
        "call_ms_p50": statistics.median(calls),
        "peak_rss_mb": peak_rss_mb(),
        "max_tv_to_target": max(tvs),
    }
    samples = {"passes": len(passes.walls), "pass_wall_s": passes.walls,
               "pass_rest_s": passes.best_rest_s,
               "setup_s": len(setup), "call_ms_p50": len(calls),
               "max_tv_to_target": len(tvs), "setup_each_s": setup}
    tail = tail_percentile(calls)
    if tail is not None:
        values["call_ms_tail"] = tail[1]
        samples["call_ms_tail"] = {"samples": len(calls), "percentile": tail[0]}
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END
               if name in values}
    return metrics, samples


def per_layer(wl, state, seed: int, seconds: float, ops) -> Tuple[dict, dict]:
    from tracer import Tracer

    # the run's time is split between untraced and traced passes
    untraced = Passes(wl, state, ops, f"{wl.name} outputs, untraced")
    untraced.run_for(seconds / 2)
    wl.finish(state, ops)
    values: Dict[str, float] = {name: 0.0 for name, _ in per_layer_metrics()}
    values.update(wl.untraced_extras(state, ops, untraced))
    tracer = Tracer()
    tracer.install()
    try:
        traced = Passes(wl, wl.setup(seed), ops, f"{wl.name} outputs, traced")
        traced.fingerprint = untraced.fingerprint
        traced.run_for(seconds / 2, tracer=tracer)
        wl.finish(traced.state, ops)
    finally:
        tracer.uninstall()
    k = len(traced.walls)

    spans = tracer.summary()
    for name, stats in spans.items():
        if name in SELF_MS:
            # set-up runs once in the traced phase, the rest once a pass
            per = 1 if name in SETUP_SPANS else k
            values[f"{name}.self_ms"] = stats["self_s"] * 1e3 / per
        if name in US_PER_CALL and stats["calls"]:
            values[f"{name}.us_per_call"] = stats["total_s"] / stats["calls"] * 1e6
        if name in CALLS:
            values[f"{name}.calls"] = stats["calls"] / k
        if name in TOTAL_MS:
            values[f"{name}.ms"] = stats["total_s"] * 1e3 / k
        if ".ms.n" in name and name in values:
            values[name] = statistics.median(stats["durations"]) * 1e3
    if traced.steps and "trainer.log_probs" in spans:
        values["trainer.log_probs.calls_per_step"] = (
            spans["trainer.log_probs"]["calls"] / traced.steps)
    if untraced.steps:
        values["trainer.step_us"] = untraced.train_s * 1e6 / untraced.steps
    values["trace_overhead_s"] = min(traced.walls) - min(untraced.walls)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.npz")
    units = dict(per_layer_metrics())
    metrics = {name: _metric(values[name], units[name]) for name in units}
    samples = {"untraced_passes": len(untraced.walls), "traced_passes": k,
               "spans": len(tracer.name_ids),
               "traced_steps": traced.steps, "untraced_steps": untraced.steps}
    return metrics, samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import kllab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    stamp = stamp_start()
    ops = workloads.Ops()
    state = wl.setup(args.seed)
    run = end_to_end if args.trace == 0 else per_layer
    metrics, samples = run(wl, state, args.seed, args.seconds, ops)

    stamp.update(_cpu_seconds())
    stamp["wall_s"] = time.perf_counter() - t_start
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp, "samples": samples,
              "problems": ops.problems}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{wl.name}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    for line in ops.problems:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
