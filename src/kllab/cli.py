"""Command-line surface.

Exit codes: 0 success, 1 internal failure or a file error, 2 usage or config
parse error, 3 domain-negative result (e.g. no finite flip coefficient, or
rewards past the scale that training can take).
"""

from __future__ import annotations

import csv
import os
import sys
from pathlib import Path

from . import harness
from .errors import KllabError, NoFiniteFlip, UndefinedRatio, UntrainableScale
from .mara import BatchPercentile, Constant, MaraConfig, augment_rewards
from .scenario_io import ScenarioFormatError, load_scenario
from .targets import (
    KINDS,
    TargetSpec,
    analytic_target,
    flip_beta,
    forward_kl_target,
    log_prob_ratio,
)
from .trainer import BASELINES, Exact, MonteCarlo, TrainConfig, train

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _resolve_scenario(ref: str):
    if ref in harness.SCENARIO_CONFIGS:
        return harness.scenario_by_name(ref)
    path = Path(ref)
    if not path.exists():
        raise ScenarioFormatError(f"no builtin scenario or file named {ref!r}")
    import json

    try:
        return load_scenario(path)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _out_dir(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(os.environ.get("KLLAB_OUT", "out"))


def _mara_from_args(args):
    if getattr(args, "tau", None) is not None:
        rule = Constant(args.tau)
    elif getattr(args, "percentile", None) is not None:
        rule = BatchPercentile(args.percentile)
    else:
        return None
    return MaraConfig(rule, beta=args.beta)


def _print_distribution(dist, rewards=None):
    print("index,mass,log_mass" + (",reward" if rewards is not None else ""))
    for i, (mass, lw) in enumerate(zip(dist.probs, dist.log_weights)):
        row = f"{i},{mass:.12g},{lw:.12g}"
        if rewards is not None:
            row += f",{rewards[i]:.12g}"
        print(row)


def cmd_target(args) -> int:
    s = _resolve_scenario(args.scenario)
    spec = TargetSpec(args.kind, args.beta, args.eta)
    if args.kind == "forward":
        sol = forward_kl_target(s, args.beta)
        print(f"# lambda = {sol.lam:.12g}")
        print(f"# boundary_case = {str(sol.boundary_case).lower()}")
        print(f"# off_support_mass = {sol.off_support_mass:.12g}")
        dist = sol.distribution
    else:
        dist = analytic_target(s, spec)
    _print_distribution(dist, s.rewards.values)
    if args.out:
        from .svg import Chart

        chart = Chart(f"{s.name} / {args.kind} beta={args.beta:g}", "index", "mass")
        xs = list(range(s.n))
        chart.add_bars("target", xs, dist.probs.tolist())
        chart.add_line("reference", xs, s.reference_probs.tolist())
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(chart.render())
        print(f"# wrote {path}", file=sys.stderr)
    return EXIT_OK


def _check_indices(s, indices) -> None:
    """Reject an index outside 0..n-1, a negative one included (numpy
    would wrap it around to the end)."""
    for i in indices:
        if not 0 <= i < s.n:
            raise ValueError(f"index {i} out of range for a scenario of n = {s.n}")


def cmd_ratio(args) -> int:
    s = _resolve_scenario(args.scenario)
    _check_indices(s, (args.i, args.j))
    value = log_prob_ratio(s, args.beta, args.i, args.j)
    print(f"log_ratio {value:.12g}")
    return EXIT_OK


def cmd_flip_beta(args) -> int:
    s = _resolve_scenario(args.scenario)
    _check_indices(s, (args.i, args.j))
    try:
        value = flip_beta(s, args.i, args.j)
    except NoFiniteFlip as exc:
        print(f"no finite flip: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"flip_beta {value:.12g}")
    return EXIT_OK


def cmd_augment(args) -> int:
    s = _resolve_scenario(args.scenario)
    cfg = _mara_from_args(args)
    if cfg is None:
        print("augment requires --tau or --percentile", file=sys.stderr)
        return EXIT_USAGE
    indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
    _check_indices(s, indices)
    batch = augment_rewards(indices, s, cfg)
    print(f"# threshold = {batch.threshold_used:.12g}")
    print(f"# anchor = {batch.anchor_index}")
    print("index,raw_reward,augmented_reward")
    for i, raw, aug in zip(batch.indices, batch.raw_rewards, batch.augmented_rewards):
        print(f"{i},{raw:.12g},{aug:.12g}")
    return EXIT_OK


def cmd_train(args) -> int:
    s = _resolve_scenario(args.scenario)
    spec = TargetSpec(args.kind, args.beta, args.eta)
    if args.mode == "exact":
        mode = Exact()
    else:
        mode = MonteCarlo(batch=args.batch, baseline=args.baseline)
    cfg = TrainConfig(
        objective=spec, gradient_mode=mode, mara=_mara_from_args(args),
        steps=args.steps, learning_rate=args.lr, seed=args.seed,
    )
    result = train(s, cfg)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{s.name}_{args.kind}_trace.csv"
    trace = result.trace
    steps = trace.tv_to_target.size
    above = trace.above_threshold_mass
    columns = [trace.objective_value, trace.tv_to_target, trace.entropy]
    columns = [[f"{v:.17g}" for v in c.tolist()] for c in columns]
    columns.append([""] * steps if above is None else [f"{v:.17g}" for v in above.tolist()])
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "objective", "tv_to_target", "entropy",
                         "above_threshold_mass"])
        writer.writerows(zip(range(1, steps + 1), *columns))
    policy_path = out / f"{s.name}_{args.kind}_policy.csv"
    with open(policy_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "mass"])
        for i, mass in enumerate(result.final_policy.probs):
            writer.writerow([i, f"{mass:.17g}"])
    print(f"final TV to target: {trace.tv_to_target[-1]:.6g}")
    print(f"wrote {trace_path} and {policy_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    records = harness.run_sweep(*harness.paper_sweeps(), workers=args.workers)
    checks = harness.summary_checks(records)
    manifest = harness.emit_report(records, _out_dir(args), checks)
    for path in manifest:
        print(f"wrote {path}")
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.measured}"
              f" (threshold {c.threshold})")
    return EXIT_OK if not failed else EXIT_INTERNAL


def cmd_report(args) -> int:
    text = Path(args.records).read_text()
    records = harness.records_from_csv(text)
    manifest = harness.emit_report(records, _out_dir(args))
    for path in manifest:
        print(f"wrote {path}")
    # exit 0 says the report was written, whatever it found: its verdict is
    # summary.md's last line, and records that are not meant to pass (cells
    # cut short) are reported too
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # argparse loads only when a command line is parsed, not on import
    import argparse

    class _CliParser(argparse.ArgumentParser):
        def error(self, message):
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _CliParser(prog="kllab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True,
                       help="builtin scenario name or config file path")

    def add_threshold(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--tau", type=float)
        group.add_argument("--percentile", type=float)

    p = sub.add_parser("target", help="print an analytic target distribution")
    add_common(p)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--out", help="optional SVG output path")
    p.set_defaults(func=cmd_target)

    p = sub.add_parser("ratio", help="closed-form log probability ratio")
    add_common(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("flip-beta", help="coefficient equalizing two indices")
    add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_flip_beta)

    p = sub.add_parser("augment", help="augment a batch of sampled indices")
    add_common(p)
    p.add_argument("--beta", type=float, required=True)
    add_threshold(p)
    p.add_argument("--indices", required=True, help="comma-separated indices")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a policy and write its trace")
    add_common(p)
    p.add_argument("--kind", choices=KINDS, default="reverse")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--baseline", choices=BASELINES, default="batch_mean")
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--seed", type=int, default=0)
    add_threshold(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run a sweep preset and emit its report")
    p.add_argument("--preset", choices=["paper"], default="paper")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-emit a report from records.csv")
    p.add_argument("--records", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # InvalidCoefficient and ScenarioFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoFiniteFlip, UndefinedRatio, UntrainableScale) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (KllabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
