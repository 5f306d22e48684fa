"""In-memory span recorder that wraps kllab's public functions from outside.

The benchmark never edits the package. Instead it replaces selected module
attributes and class methods with timing wrappers for the traced half of a
run, then puts every original object back. A function is wrapped
wherever it is looked up: ``kllab.harness`` binds ``train`` at import, so
``kllab.harness.train`` is replaced as well as ``kllab.trainer.train``.

Each span holds a name id, a start, an end and the index of the span that
was open when it began (its parent). Spans live in flat ``array`` buffers
(24 bytes each) so that a traced run, about a million spans, stays small
enough to keep in memory and to write out at the end.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

# (module, attribute path, span name). A dotted attribute path names a
# method; a missing attribute is skipped, so the benchmark keeps running on
# commits that rename or remove a function (its metrics then read 0).
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("kllab.trainer", "train", "trainer.train"),
    ("kllab.trainer", "SoftmaxPolicy.__post_init__", "trainer.policy_init"),
    ("kllab.trainer", "SoftmaxPolicy.log_probs", "trainer.log_probs"),
    ("kllab.trainer", "exact_gradient", "trainer.exact_gradient"),
    ("kllab.trainer", "exact_objective", "trainer.exact_objective"),
    ("kllab.trainer", "adam_step", "trainer.adam_step"),
    ("kllab.trainer", "sample_policy", "trainer.sample_policy"),
    ("kllab.trainer", "reverse_coefficients", "trainer.reverse_coefficients"),
    ("kllab.trainer", "score_function_gradient", "trainer.score_function_gradient"),
    ("kllab.trainer", "mc_gradient_reverse", "trainer.mc_gradient_reverse"),
    ("kllab.trainer", "mc_gradient_forward", "trainer.mc_gradient_forward"),
    ("kllab.dist", "sample", "dist.sample"),
    ("kllab.dist", "normalize", "dist.normalize"),
    ("kllab.dist", "Categorical.__post_init__", "dist.Categorical.init"),
    ("kllab.targets", "reverse_kl_target", "targets.reverse_kl_target"),
    ("kllab.targets", "forward_kl_target", "targets.forward_kl_target"),
    ("kllab.targets", "generalized_target", "targets.generalized_target"),
    ("kllab.targets", "analytic_target", "targets.analytic_target"),
    ("kllab.mara", "mara_target", "mara.mara_target"),
    ("kllab.mara", "global_anchor", "mara.global_anchor"),
    ("kllab.mara", "augment_rewards", "mara.augment_rewards"),
    ("kllab.harness", "mode_sets", "harness.mode_sets"),
    ("kllab.harness", "run_sweep", "harness.run_sweep"),
    ("kllab.harness", "emit_report", "harness.emit_report"),
    ("kllab.harness", "summary_checks", "harness.summary_checks"),
    ("kllab.svg", "Chart.render", "svg.Chart.render"),
    ("kllab.scenario_io", "scenario_from_dict", "scenario_io.scenario_from_dict"),
    ("kllab.cli", "main", "cli.main"),
)

NO_PARENT = -1


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's children are disjoint intervals
    inside it and the time they cover is the sum of their durations.
    """
    covered = np.zeros(durations.size)
    has_parent = parents != NO_PARENT
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [NO_PARENT]
        self._patches: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records one span."""
        name_id = self._name_id(name)
        open_span, stack = self._open, self._stack
        starts, ends, clock = self.starts, self.ends, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. to label a call."""
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = t0
            self._stack.pop()

    def install(self) -> None:
        """Wrap every ``TRACED`` callable wherever a ``kllab`` module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self.wrap(original, span_name)
            if path:
                self._patch(owner, leaf, wrapped)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "kllab" and not mod_name.startswith("kllab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, key: str, wrapped) -> None:
        if key not in vars(owner):
            return
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of patching."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def arrays(self):
        """Spans as numpy views: (name ids, parents, starts, ends)."""
        return (
            np.frombuffer(self.name_ids, dtype=np.int32),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds, and the
        durations of its spans in order."""
        ids, parents, starts, ends = self.arrays()
        durations = ends - starts
        own = self_times(parents, durations)
        k = len(self.names)
        counts = np.bincount(ids, minlength=k)
        totals = np.bincount(ids, weights=durations, minlength=k)
        selfs = np.bincount(ids, weights=own, minlength=k)
        return {
            name: {
                "calls": int(counts[i]),
                "total_s": float(totals[i]),
                "self_s": float(selfs[i]),
                "durations": durations[ids == i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span to ``path`` as an uncompressed ``.npz``."""
        ids, parents, starts, ends = self.arrays()
        np.savez(path, names=np.array(self.names), name_ids=ids, parents=parents,
                 starts=starts, ends=ends)
