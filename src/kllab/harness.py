"""Scenario library, sweep executor, metrics, and report emission."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, get_type_hints

import numpy as np

# _any, _max and _sum are NumPy's reductions without the Python wrappers of np.any,
# np.max and np.sum, which cost more than reducing a hundred floats
from .dist import Categorical, Scenario, _any, _max, _sum
from .errors import InvalidPartition
from .mara import Constant, MaraConfig
from .scenario_io import check_name, scenario_from_dict
from .targets import KINDS, TargetSpec, analytic_target, check_coefficients, flip_beta
# the sweep trains through train_cells; train stays importable as
# harness.train, which the benchmark's tracer wraps
from .trainer import (  # noqa: F401
    Exact, MonteCarlo, TrainConfig, batch_key, train, train_cells,
)

# ---------------------------------------------------------------------------
# built-in scenarios

N_TOKENS = 100

# Shapes chosen so the two reward modes of `fig2_two_mode` sit at reference
# log-probs near -4.1 and -6.0 (difference exactly 1.9), putting the
# preference flip at beta = 0.25 / 1.9, FLIP_BETA below.
SCENARIO_CONFIGS: Dict[str, dict] = {
    "fig2_two_mode": {
        "name": "fig2_two_mode",
        "n": N_TOKENS,
        "reference": {"shape": "half_support", "decay": 0.095},
        "rewards": {
            "shape": "two_mode",
            "centers": [18, 38],
            "widths": [2.5, 2.5],
            "heights": [0.75, 1.0],
        },
    },
    "equal_reference": {
        "name": "equal_reference",
        "n": N_TOKENS,
        "reference": {"shape": "uniform"},
        "rewards": {
            "shape": "two_mode",
            "centers": [30, 70],
            "widths": [4.0, 4.0],
            "heights": [0.7, 1.0],
        },
    },
    "equal_reward_unequal_support": {
        "name": "equal_reward_unequal_support",
        "n": N_TOKENS,
        "reference": {
            "shape": "mixture",
            "centers": [25, 75],
            "widths": [6.0, 6.0],
            "weights": [0.9, 0.1],
        },
        "rewards": {
            "shape": "two_mode",
            "centers": [25, 75],
            "widths": [4.0, 4.0],
            "heights": [1.0, 1.0],
        },
    },
    "fwd_off_support": {
        "name": "fwd_off_support",
        "n": N_TOKENS,
        "reference": {"shape": "half_support", "decay": 0.05},
        "rewards": {
            "shape": "two_mode",
            "centers": [20, 70],
            "widths": [2.5, 2.5],
            "heights": [0.8, 1.0],
        },
    },
    "mara_toy": {
        "name": "mara_toy",
        "n": N_TOKENS,
        "reference": {
            "shape": "mixture",
            "centers": [15, 35],
            "widths": [4.0, 4.0],
            "weights": [0.88, 0.12],
        },
        "rewards": {
            "shape": "two_mode",
            "centers": [15, 35],
            "widths": [2.5, 2.5],
            "heights": [1.0, 1.0],
        },
    },
    # small hand-checkable instance for the CLI
    "two_point": {
        "name": "two_point",
        "n": 2,
        "reference": [0.5, 0.5],
        "rewards": [0.0, 1.0],
    },
}

# default threshold for the mara_toy scenario, between the zero reward
# background and the mode peaks
MARA_TOY_TAU = 0.5


def scenario_by_name(name: str) -> Scenario:
    if name not in SCENARIO_CONFIGS:
        raise KeyError(f"unknown scenario {name!r}")
    return scenario_from_dict(SCENARIO_CONFIGS[name])


MODE_FLOOR_FRAC = 0.3

# every peak's run is first searched this deep on each side in one gather;
# the few runs that reach further are finished one peak at a time
_RUN_WINDOW = 16
_RUN_STEPS = np.array([[-1], [1]]) * np.arange(1, _RUN_WINDOW + 1)
# the -inf entries that pad the rewards on each side
_RUN_PAD = np.full(_RUN_WINDOW, -np.inf)
_RUN_PAD.setflags(write=False)


def _run_reach(padded: np.ndarray, peaks: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """How many indices left and right of each peak stay above its cut.

    ``padded`` carries ``_RUN_WINDOW`` entries of ``-inf`` on each side,
    so every run stops inside it. A run longer than the window is
    searched in windows that double, so a peak costs in proportion to
    its run's length, not to the size of the array.
    """
    stops = padded[peaks[:, None, None] + _RUN_STEPS] <= cut[:, None, None]
    reach = stops.argmax(axis=2)
    # the (peak, side) pairs whose run outlasts the window, in row order
    for k, side in zip(*(~_any(stops, axis=2)).nonzero()):
        p = peaks[k]
        beyond = padded[p + 1:] if side else padded[p - 1::-1]
        width = _RUN_WINDOW
        while True:
            width *= 2
            below = (beyond[:width] <= cut[k]).nonzero()[0]
            if below.size:
                reach[k, side] = below[0]
                break
    return reach


def mode_sets(s: Scenario) -> List[np.ndarray]:
    """Index sets of the reward modes, in index order.

    A mode is a local reward maximum at or above ``MODE_FLOOR_FRAC`` of
    the global maximum; membership is the contiguous run around the peak
    where the reward exceeds half the peak height.
    """
    r = s.rewards.values
    floor = MODE_FLOOR_FRAC * float(_max(r))
    w = _RUN_WINDOW
    padded = np.concatenate((_RUN_PAD, r, _RUN_PAD))
    left, right = padded[w - 1:w - 1 + r.size], padded[w + 1:w + 1 + r.size]
    peaks = ((r >= floor) & (r >= left) & (r > right)).nonzero()[0]
    if peaks.size == 0:
        return []
    reach = _run_reach(padded, peaks + w, 0.5 * r[peaks])
    lo, hi = peaks - reach[:, 0], peaks + reach[:, 1]
    # merge overlapping runs (plateaus produce duplicate peaks): a run
    # opens a new set when it starts past the end of every earlier run
    past = lo[1:] > np.maximum.accumulate(hi)[:-1]
    opens = np.concatenate(([True], past)).nonzero()[0]
    ends = np.maximum.reduceat(hi, opens)
    return [np.arange(a, b + 1) for a, b in zip(lo[opens].tolist(), ends.tolist())]


def answer_entropy(policy: Categorical, partition: Sequence[np.ndarray]) -> float:
    """Shannon entropy of the policy mass aggregated over partition cells."""
    seen: set = set()
    for cell in partition:
        cell_set = set(int(i) for i in cell)
        if seen & cell_set:
            raise InvalidPartition("partition cells overlap")
        seen |= cell_set
    p = policy.probs
    masses = np.array([float(_sum(p[np.asarray(cell, int)])) for cell in partition])
    total = _sum(masses)
    if total <= 0:
        return 0.0
    masses = masses / total
    nz = masses[masses > 0]
    return float(-_sum(nz * np.log(nz)))


# ---------------------------------------------------------------------------
# sweep execution


@dataclass(frozen=True)
class SweepSpec:
    scenario: Scenario
    objectives: Sequence[TargetSpec]
    betas: Sequence[float]
    seeds: Sequence[int]
    train: TrainConfig

    def __post_init__(self):
        if not self.objectives or not self.betas or not self.seeds:
            raise ValueError("objectives, betas, and seeds must be nonempty")
        for obj in self.objectives:  # a cell for each objective at each beta
            for b in self.betas:
                check_coefficients(obj.kind, b, obj.eta)


@dataclass(frozen=True)
class RunRecord:
    scenario: str
    objective: str
    beta: float
    eta: float
    seed: int
    mara_enabled: bool
    tau_rule: str
    final_tv: float
    answer_entropy: float
    mode1_mass: float
    mode2_mass: float
    anchor_churn: int
    steps: int
    wall_ms: int
    status: str = "ok"


# the records.csv header, and the type each column is written and read as
CSV_COLUMNS = [f.name for f in fields(RunRecord)]
_COLUMN_TYPES = get_type_hints(RunRecord)


def _tau_rule_str(cfg: Optional[MaraConfig]) -> str:
    if cfg is None:
        return ""
    rule = cfg.threshold_rule
    if isinstance(rule, Constant):
        return f"constant:{rule.tau:g}"
    return f"percentile:{rule.q:g}"


def _cell_record(cell, wall_ms: int, **outcome) -> RunRecord:
    scenario, cfg = cell
    return RunRecord(
        scenario=scenario.name, objective=cfg.objective.kind,
        beta=cfg.objective.beta, eta=cfg.objective.eta, seed=cfg.seed,
        mara_enabled=cfg.mara is not None, tau_rule=_tau_rule_str(cfg.mara),
        steps=cfg.steps, wall_ms=wall_ms, **outcome,
    )


def _failed_record(cell, exc: BaseException, wall_ms: int) -> RunRecord:
    """The record of a cell whose training raised or whose worker died."""
    return _cell_record(
        cell, wall_ms, final_tv=float("inf"), answer_entropy=0.0,
        mode1_mass=0.0, mode2_mass=0.0, anchor_churn=0,
        status=f"failed: {type(exc).__name__}: {exc}",
    )


def _trained_record(cell, result, wall_ms: int, modes) -> RunRecord:
    """The record of a cell that trained; ``modes`` are its scenario's."""
    policy = result.final_policy
    p = policy.probs
    mode_masses = [float(_sum(p[m])) for m in modes[:2]]
    while len(mode_masses) < 2:
        mode_masses.append(0.0)
    churn = sum(
        1
        for a, b in zip(result.anchor_history, result.anchor_history[1:])
        if a != b
    )
    return _cell_record(
        cell, wall_ms, final_tv=float(result.trace.tv_to_target[-1]),
        answer_entropy=answer_entropy(policy, modes),
        mode1_mass=mode_masses[0], mode2_mass=mode_masses[1],
        anchor_churn=churn,
    )


def _run_batch(batch) -> List[RunRecord]:
    """Train one batch, a scenario and the configs of its cells, as one
    program and measure each cell; a cell's ``wall_ms`` is the batch's
    training time over its number of cells."""
    scenario, cfgs = batch
    modes = mode_sets(scenario)
    t0 = time.perf_counter()
    try:
        outcomes = train_cells(scenario, cfgs)
    except Exception as exc:  # cell failures never abort the sweep
        outcomes = [exc] * len(cfgs)
    wall_ms = int((time.perf_counter() - t0) * 1000 / len(cfgs))
    records = []
    for cfg, outcome in zip(cfgs, outcomes):
        cell = (scenario, cfg)
        if isinstance(outcome, Exception):
            records.append(_failed_record(cell, outcome, wall_ms))
        else:
            records.append(_trained_record(cell, outcome, wall_ms, modes))
    return records


def _sweep_cells(spec: SweepSpec):
    for objective in spec.objectives:
        for beta in spec.betas:
            obj = replace(objective, beta=float(beta))
            mara = spec.train.mara
            if mara is not None:
                mara = replace(mara, beta=float(beta))
            for seed in spec.seeds:
                cfg = replace(spec.train, objective=obj, seed=int(seed), mara=mara)
                yield (spec.scenario, cfg)


def _batches(cells) -> List[tuple]:
    """The cells as batches that train as one program, in the order they
    first appear: a scenario and the configs on it that share a
    :func:`trainer.batch_key`."""
    batches: Dict[tuple, tuple] = {}
    for scenario, cfg in cells:
        key = (id(scenario), batch_key(cfg))
        batches.setdefault(key, (scenario, []))[1].append(cfg)
    return list(batches.values())


def _run_alone(batch) -> List[RunRecord]:
    """``batch`` in a process of its own, whose death fails the batch."""
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as alone:
        try:
            return alone.submit(_run_batch, batch).result()
        except concurrent.futures.BrokenExecutor as exc:
            scenario, cfgs = batch
            return [_failed_record((scenario, cfg), exc, 0) for cfg in cfgs]


def _collect(future, batch) -> List[RunRecord]:
    """The batch's records; a dead worker (BrokenProcessPool) breaks the
    whole pool, so each cell of a batch it took down runs again alone, and
    only a cell that kills its own worker too fails."""
    import concurrent.futures

    try:
        return future.result()
    except concurrent.futures.BrokenExecutor:
        scenario, cfgs = batch
        return [r for cfg in cfgs for r in _run_alone((scenario, [cfg]))]


def run_sweep(*specs: SweepSpec, workers: int = 1) -> List[RunRecord]:
    """Execute every (objective, beta, seed) cell of every spec, the cells
    packed into batches (see :func:`_batches`), on one process pool, or
    serially with one worker or one batch; deterministic per cell regardless
    of worker count; records come back canonically sorted."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    batches = _batches(cell for spec in specs for cell in _sweep_cells(spec))
    if workers == 1 or len(batches) == 1:
        parts = [_run_batch(b) for b in batches]
    else:
        # the pool's modules load only when a sweep uses one
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_batch, b) for b in batches]
            parts = [_collect(f, b) for f, b in zip(futures, batches)]
    return sort_records([r for part in parts for r in part])


def sort_records(records: List[RunRecord]) -> List[RunRecord]:
    return sorted(
        records,
        key=lambda r: (r.scenario, r.objective, r.beta, r.eta, r.mara_enabled, r.seed),
    )


# ---------------------------------------------------------------------------
# report emission


def _format(value, kind) -> str:
    if kind is float:
        return f"{value:.17g}"
    if kind is bool:
        return "true" if value else "false"
    return str(value)


def _parse(text: str, column: str):
    """A field of ``column`` as the column's type, once it is checked."""
    kind = _COLUMN_TYPES[column]
    if kind is bool and text not in ("true", "false"):
        raise ValueError(f"expected true or false, not {text!r}")
    if column == "objective" and text not in KINDS:
        raise ValueError(f"unknown objective {text!r}")
    if column == "scenario":
        check_name(text)
    return text == "true" if kind is bool else kind(text)


def records_to_csv(records: Sequence[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([
            _format(getattr(r, c), _COLUMN_TYPES[c]) for c in CSV_COLUMNS
        ])
    return buf.getvalue()


def records_from_csv(text: str) -> List[RunRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError("unrecognized records header")
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"records line {line}: {len(row)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        values = {}
        for column, text in zip(CSV_COLUMNS, row):
            try:
                values[column] = _parse(text, column)
            except ValueError as exc:
                raise ValueError(f"records line {line}, {column}: {exc}") from None
        out.append(RunRecord(**values))
    return out


# ---------------------------------------------------------------------------
# the gate table: each threshold of the sweep summary and acceptance criteria 1, 3, 4, 7

EXACT_TV_MAX = 0.05  # final TV to the target, exact-gradient cells
MC_MEAN_TV_MAX = 0.15  # final TV to the target, Monte Carlo cells' mean over seeds
FLIP_BETA, FLIP_BETA_TOL = 0.1316, 0.0005  # fig2's preference-flip coefficient
FLIP_BRACKET = (0.10, 0.15)  # fig2's reverse-KL targets prefer opposite modes here
EQUAL_REWARD_DEV_MAX = 0.10  # equal rewards: trained mode ratio vs the reference's
BALANCE_DEV_MAX = 0.10  # MARA: trained mode ratio vs 1
IMBALANCE_MIN = 3.0  # no MARA: the larger mode's mass over the smaller's


@dataclass(frozen=True)
class SummaryCheck:
    name: str
    measured: str
    threshold: str
    passed: bool


def _group(records, **filters):
    return [r for r in records if all(getattr(r, k) == v for k, v in filters.items())]


def _ratio(num: float, den: float) -> float:
    """``num / den`` for masses read back from a file, where a mode can be
    empty: inf over an empty denominator, nan when both are empty."""
    if den == 0:
        return float("inf") if num != 0 else float("nan")
    return num / den


def exact_tv_gate(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """Unaugmented exact-gradient cells end within ``EXACT_TV_MAX``."""
    tvs = [r.final_tv for r in records if r.seed == EXACT_SEED and not r.mara_enabled]
    # np.max, unlike max, returns nan whenever one TV is nan, and nan fails
    worst = float(np.max(tvs)) if tvs else None
    return [SummaryCheck("exact-mode convergence", f"max TV {worst:.4f}",
                         f"TV <= {EXACT_TV_MAX:g}", worst <= EXACT_TV_MAX)] if tvs else []


def mc_tv_gate(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """Unaugmented Monte Carlo cells end within ``MC_MEAN_TV_MAX``, in the seed mean:
    the mean over the seeds of one scenario, objective, beta and eta."""
    tvs: Dict[tuple, List[float]] = {}
    for r in records:
        if r.seed != EXACT_SEED and not r.mara_enabled:
            tvs.setdefault((r.scenario, r.objective, r.beta, r.eta), []).append(r.final_tv)
    worst = float(np.max([np.mean(v) for v in tvs.values()])) if tvs else None
    return [SummaryCheck("monte-carlo convergence", f"max seed-mean TV {worst:.4f}",
                         f"mean TV <= {MC_MEAN_TV_MAX:g}", worst <= MC_MEAN_TV_MAX)] if tvs else []


def flip_gates(s: Scenario) -> List[SummaryCheck]:
    """``s``'s two reward modes trade places at ``FLIP_BETA``: the reverse-KL
    targets at the ``FLIP_BRACKET`` betas prefer opposite ones."""
    modes = mode_sets(s)[:2]
    peaks = [int(m[s.rewards.values[m].argmax()]) for m in modes]
    beta_star = flip_beta(s, *peaks)
    prefs = []
    for beta in FLIP_BRACKET:
        t = analytic_target(s, TargetSpec("reverse", beta)).distribution.probs
        prefs.append(float(_sum(t[modes[0]]) - _sum(t[modes[1]])))
    (lo, hi), (lo_pref, hi_pref) = FLIP_BRACKET, prefs
    return [
        SummaryCheck("preference flip coefficient", f"beta* = {beta_star:.4f}",
                     f"{FLIP_BETA:g} +/- {FLIP_BETA_TOL:g}",
                     FLIP_BETA - FLIP_BETA_TOL <= beta_star <= FLIP_BETA + FLIP_BETA_TOL),
        SummaryCheck("mode preference flips across beta*",
                     f"pref({lo:.2f}) = {lo_pref:+.3f}, pref({hi:.2f}) = {hi_pref:+.3f}",
                     "opposite signs", lo_pref * hi_pref < 0),
    ]


def _fig2_gates(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """:func:`flip_gates` on fig2, when fig2 was swept."""
    swept = any(r.scenario == "fig2_two_mode" for r in records)
    return flip_gates(scenario_by_name("fig2_two_mode")) if swept else []


def equal_reward_gate(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """Equal-reward reverse-KL cells without MARA keep the reference's mode-mass ratio."""
    eq = _group(records, scenario="equal_reward_unequal_support",
                objective="reverse", mara_enabled=False)
    if not eq:
        return []
    s = scenario_by_name("equal_reward_unequal_support")
    modes = mode_sets(s)
    ref = s.reference_probs
    ref_ratio = float(_sum(ref[modes[0]]) / _sum(ref[modes[1]]))
    # np.max, unlike max, returns nan whenever one deviation is nan
    worst = float(np.max([
        abs(_ratio(r.mode1_mass, r.mode2_mass) - ref_ratio) / ref_ratio for r in eq
    ]))
    return [SummaryCheck(
        "equal-reward mode ratio matches reference", f"max relative deviation {worst:.4f}",
        f"within {EQUAL_REWARD_DEV_MAX:.0%}", worst <= EQUAL_REWARD_DEV_MAX,
    )]


def mara_balance_gate(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """Each augmented ``mara_toy`` cell's mode masses are 1:1, to ``BALANCE_DEV_MAX``."""
    checks = []
    for r in _group(records, scenario="mara_toy", mara_enabled=True):
        dev = abs(_ratio(r.mode1_mass, r.mode2_mass) - 1.0)
        checks.append(SummaryCheck(
            f"augmented mode balance ({r.objective}, beta={r.beta:g}, seed={r.seed})",
            f"mass ratio deviation {dev:.4f}", f"within {BALANCE_DEV_MAX:.0%}",
            dev <= BALANCE_DEV_MAX,
        ))
    return checks


def mara_imbalance_gate(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """Each unaugmented ``mara_toy`` cell prefers one mode at least ``IMBALANCE_MIN``-fold."""
    checks = []
    for r in _group(records, scenario="mara_toy", mara_enabled=False):
        # an empty mode beside a full one is infinitely imbalanced
        ratio = _ratio(r.mode1_mass, r.mode2_mass)
        imbalance = max(ratio, _ratio(1.0, ratio))
        checks.append(SummaryCheck(
            f"unaugmented imbalance ({r.objective}, beta={r.beta:g}, seed={r.seed})",
            f"imbalance {imbalance:.2f}x", f">= {IMBALANCE_MIN:g}x",
            imbalance >= IMBALANCE_MIN,
        ))
    return checks


# in the order summary.md lists them
GATES = (exact_tv_gate, mc_tv_gate, _fig2_gates, equal_reward_gate,
         mara_balance_gate, mara_imbalance_gate)


def summary_checks(records: Sequence[RunRecord]) -> List[SummaryCheck]:
    """A failed check when cells failed, then every gate on the cells that ran."""
    checks = []
    failed = sum(r.status != "ok" for r in records)
    if failed:
        checks.append(SummaryCheck("no failed cells", f"{failed} failed", "0 failed", False))
    ok_records = [r for r in records if r.status == "ok"]
    return checks + [c for gate in GATES for c in gate(ok_records)]


def emit_report(records: Sequence[RunRecord], out_dir,
                checks: Optional[Sequence[SummaryCheck]] = None) -> List[Path]:
    """Write records.csv, per-(scenario, objective) SVG charts, and a
    summary.md with threshold verdicts: ``checks``, which a caller that
    has computed ``summary_checks(records)`` already hands in, or else
    computed here. Returns the file manifest."""
    from .svg import Chart

    if not records:
        raise ValueError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = sort_records(list(records))
    manifest = []

    csv_path = out / "records.csv"
    csv_path.write_text(records_to_csv(records))
    manifest.append(csv_path)

    for scenario, objective in sorted({(r.scenario, r.objective) for r in records}):
        group = _group(records, scenario=scenario, objective=objective, status="ok")
        if not group:
            continue
        chart = Chart(
            f"{scenario} / {objective}", "beta", "mass / distance"
        )
        # a point averages the runs of one augmentation setting and one eta,
        # unaugmented first; a nonzero eta names its series
        for tau_rule, eta in sorted({(r.tau_rule, r.eta) for r in group}):
            runs = _group(group, tau_rule=tau_rule, eta=eta)
            prefix = "MARA " if tau_rule else ""
            suffix = f" eta={eta:g}" if eta else ""
            betas = sorted({r.beta for r in runs})
            for label, attr in (("mode 1 mass", "mode1_mass"),
                                ("mode 2 mass", "mode2_mass"),
                                ("TV to target", "final_tv")):
                ys = [
                    float(np.mean([getattr(r, attr) for r in runs if r.beta == b]))
                    for b in betas
                ]
                chart.add_line(prefix + label + suffix, betas, ys)
        # the analytic targets are those of the unaugmented objective: a
        # pair for each eta, named as its trained series are
        plain = [r for r in group if not r.mara_enabled]
        if plain and scenario in SCENARIO_CONFIGS:
            s = scenario_by_name(scenario)
            modes = mode_sets(s)[:2]
            if len(modes) == 2:
                for eta in sorted({r.eta for r in plain}):
                    betas = sorted({r.beta for r in plain if r.eta == eta})
                    suffix = f" eta={eta:g}" if eta else ""
                    t1, t2 = [], []
                    for b in betas:
                        t = analytic_target(s, TargetSpec(objective, b, eta)).distribution.probs
                        t1.append(float(_sum(t[modes[0]])))
                        t2.append(float(_sum(t[modes[1]])))
                    chart.add_line("target mode 1" + suffix, betas, t1, color="#17becf")
                    chart.add_line("target mode 2" + suffix, betas, t2, color="#bcbd22")
        path = out / f"{scenario}_{objective}.svg"
        path.write_text(chart.render())
        manifest.append(path)

    if checks is None:
        checks = summary_checks(records)
    verdict = {True: "PASS", False: "FAIL"}
    lines = ["# Sweep summary", "", f"records: {len(records)}", "",
             "| check | measured | threshold | verdict |", "|---|---|---|---|"]
    lines += [f"| {c.name} | {c.measured} | {c.threshold} | {verdict[c.passed]} |"
              for c in checks]
    lines += ["", f"overall: {verdict[all(c.passed for c in checks)]}"]
    summary_path = out / "summary.md"
    summary_path.write_text("\n".join(lines) + "\n")
    manifest.append(summary_path)
    return manifest


# ---------------------------------------------------------------------------
# the "paper" preset: the full didactic sweep grid

# seed value marking exact-gradient cells in the records
EXACT_SEED = -1

FIG2_BETAS = [0.01, 0.05, 0.10, 0.132, 0.15, 0.25, 0.5]
EQUAL_REWARD_BETAS = [0.01, 0.05, 0.1, 0.5, 1.0]


def paper_sweeps() -> List[SweepSpec]:
    """Sweep grid reproducing the didactic figures."""
    exact_cfg = TrainConfig(
        objective=TargetSpec("reverse", 1.0), gradient_mode=Exact(), seed=EXACT_SEED
    )
    mc_cfg = replace(exact_cfg, gradient_mode=MonteCarlo(batch=32))
    both = [TargetSpec("reverse", 1.0), TargetSpec("forward", 1.0)]
    reverse_only = [TargetSpec("reverse", 1.0)]
    mara = MaraConfig(Constant(MARA_TOY_TAU), beta=1.0)
    sweeps = [
        SweepSpec(scenario_by_name("fig2_two_mode"), both, FIG2_BETAS,
                  [EXACT_SEED], exact_cfg),
        SweepSpec(scenario_by_name("fig2_two_mode"), both, FIG2_BETAS,
                  [0, 1, 2], mc_cfg),
        SweepSpec(scenario_by_name("equal_reference"), reverse_only,
                  FIG2_BETAS, [EXACT_SEED], exact_cfg),
        # the grid reaches beta = 0.01, where the target is sharp enough
        # that the default budget stops short of EXACT_TV_MAX
        SweepSpec(scenario_by_name("equal_reward_unequal_support"),
                  reverse_only, EQUAL_REWARD_BETAS, [EXACT_SEED],
                  replace(exact_cfg, steps=10_000)),
        SweepSpec(scenario_by_name("mara_toy"), both, [0.1], [EXACT_SEED],
                  exact_cfg),
        SweepSpec(scenario_by_name("mara_toy"), both, [0.1], [EXACT_SEED],
                  replace(exact_cfg, mara=mara)),
    ]
    return sweeps

