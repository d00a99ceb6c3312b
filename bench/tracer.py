"""Spans around the public functions of each ctrd module, installed from
outside the package.

A wrapper replaces a function under every name it is looked up by (cli
imports `record`, `run` and `explore` by name; runtime_cloud imports
`decompose` and `step_local`), records one span per call and, for a few
calls, a count taken from the arguments or the result. Spans are kept in
parallel arrays in memory and written out once, when the run ends.
Collector pauses become spans of their own through `gc.callbacks`, so they
are not charged to the layer that happened to allocate.

Everything runs on one thread, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

ROOT_SPAN = "cli"
GC_SPAN = "gc.pause"

# (span name, module that owns the function, attribute path, modules or
# classes that look it up by name). Counted calls are handled in _COUNTS.
_WRAPPED = [
    ("parser.parse", "ctrd.parser", "parse_program", ["ctrd.cli"]),
    ("typecheck.check", "ctrd.typecheck", "check_program", []),
    ("runtime_cloud.run", "ctrd.runtime_cloud", "run", ["ctrd.cli"]),
    ("runtime_cloud.explore", "ctrd.runtime_cloud", "explore", ["ctrd.cli"]),
    ("runtime_cloud.enabled", "ctrd.runtime_cloud", "enabled", []),
    ("runtime_cloud.step_cloud", "ctrd.runtime_cloud", "step_cloud", []),
    ("runtime_cloud.config_copy", "ctrd.runtime_cloud", "CloudConfig.copy", []),
    ("runtime_cloud.config_key", "ctrd.runtime_cloud", "CloudConfig.key", []),
    ("runtime_local.decompose", "ctrd.runtime_local", "decompose", ["ctrd.runtime_cloud"]),
    ("runtime_local.step_local", "ctrd.runtime_local", "step_local", ["ctrd.runtime_cloud"]),
    ("runtime_local.subst", "ctrd.runtime_local", "subst", []),
    ("clone.clone_step", "ctrd.clone", "clone_step", ["ctrd.runtime_cloud"]),
    ("abstract_exec.record", "ctrd.abstract_exec", "record", ["ctrd.cli"]),
    ("abstract_exec.fold_entry", "ctrd.abstract_exec", "fold_entry", []),
    ("abstract_exec.exec_key", "ctrd.abstract_exec", "AbstractExecution.key", []),
    ("abstract_exec.exec_copy", "ctrd.abstract_exec", "AbstractExecution.copy", []),
    ("abstract_exec.check_sc", "ctrd.abstract_exec", "check_sc", ["ctrd.cli"]),
    ("abstract_exec.project", "ctrd.abstract_exec", "project", []),
    ("abstract_exec.check_ec", "ctrd.abstract_exec", "check_ec", ["ctrd.cli"]),
    ("cli.trace_json", "ctrd.cli", "trace_json", []),
]

# Functions that call themselves through their module global: a nested
# call runs unwrapped, so one span covers the whole recursion.
_RECURSIVE = frozenset(["runtime_local.subst"])

# Counts taken per call: span name -> (counter, function of args and result).
_COUNTS: dict[str, tuple[str, Callable]] = {
    "runtime_cloud.explore": ("states", lambda args, result: result.states),
    "abstract_exec.check_sc": ("sc_events", lambda args, result: len(args[0].op)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: list[dict[str, int]] = []   # one per job
        self.jobs: list[tuple[int, int]] = []    # span index range per job
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.kinds)
        self.kinds.append(nid)
        self.parents.append(self.stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        recursive = name in _RECURSIVE
        count = _COUNTS.get(name)
        kinds, stack = self.kinds, self.stack

        def traced(*args, **kwargs):
            if recursive and stack[-1] >= 0 and kinds[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None and self.counts:
                counter, of = count
                self.counts[-1][counter] = self.counts[-1].get(counter, 0) + of(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open(self._gc_id)
        elif self.stack[-1] >= 0 and self.kinds[self.stack[-1]] == self._gc_id:
            self._close(self.stack[-1])

    def _count_tokens(self, tokenize: Callable) -> Callable:
        def counted(src):
            toks = tokenize(src)
            if self.counts:
                self.counts[-1]["tokens"] = self.counts[-1].get("tokens", 0) + len(toks)
            return toks
        counted.__wrapped__ = tokenize
        return counted

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function under each name it is looked up by."""
        for name, module, path, importers in _WRAPPED:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            traced = self.wrap(name, getattr(owner, attr))
            self._set(owner, attr, traced)
            for imp in importers:
                self._set(sys.modules[imp], attr, traced)
        parser = sys.modules["ctrd.parser"]
        self._set(parser, "tokenize", self._count_tokens(parser.tokenize))
        self._gc_id = self._id(GC_SPAN)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def job(self, fn: Callable, *args):
        """Run one job under a root span; returns fn's result."""
        first = len(self.kinds)
        self.counts.append({})
        idx = self._open(self._id(ROOT_SPAN))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.jobs.append((first, len(self.kinds)))

    # -- reporting ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def busy_times(self) -> list[float]:
        """Each span's duration less the collector pauses inside it; a pause
        lands in whichever call happened to allocate."""
        gc_id = self.names.index(GC_SPAN) if GC_SPAN in self.names else -1
        paused = [0.0] * len(self.kinds)
        for i in range(len(self.kinds) - 1, -1, -1):     # children after parents
            p = self.parents[i]
            if p >= 0:
                own = self.ends[i] - self.starts[i] if self.kinds[i] == gc_id else 0.0
                paused[p] += paused[i] + own
        return [e - s - g for s, e, g in zip(self.starts, self.ends, paused)]

    def per_job(self) -> list[dict]:
        """Per job and span name: self seconds, busy seconds (see
        busy_times) and calls; calls per (span, parent span) pair; and the
        job's counters."""
        own, busy = self.self_times(), self.busy_times()
        out = []
        for (first, last), counts in zip(self.jobs, self.counts):
            self_s: dict[str, float] = {}
            busy_s: dict[str, float] = {}
            calls: dict[str, int] = {}
            under: dict[tuple[str, str], int] = {}
            for i in range(first, last):
                name = self.names[self.kinds[i]]
                self_s[name] = self_s.get(name, 0.0) + own[i]
                busy_s[name] = busy_s.get(name, 0.0) + busy[i]
                calls[name] = calls.get(name, 0) + 1
                p = self.parents[i]
                if p >= first:
                    key = (name, self.names[self.kinds[p]])
                    under[key] = under.get(key, 0) + 1
            out.append({"self": self_s, "busy": busy_s, "calls": calls,
                        "under": under, "counts": counts})
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "jobs": self.jobs, "counts": self.counts,
                  "arrays": ["kinds:i", "parents:i", "starts:d", "ends:d"],
                  "length": len(self.kinds)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.kinds, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """The per-layer metrics from per-job span summaries.

    Each `_s` metric is the median over jobs of the self time per job;
    rates divide a total count by the total busy time of the call they
    name.
    """
    def self_s(name: str) -> float:
        return _median([j["self"].get(name, 0.0) for j in jobs])

    def total(key: str, name: str) -> float:
        return sum(j[key].get(name, 0) for j in jobs)

    def count(name: str) -> float:
        return sum(j["counts"].get(name, 0) for j in jobs)

    def under(name: str, parent: str) -> float:
        return sum(j["under"].get((name, parent), 0) for j in jobs)

    explore_steps = under("runtime_cloud.step_cloud", "runtime_cloud.explore")
    explored = sum(max(j["counts"].get("states", 0) - 1, 0) for j in jobs
                   if "states" in j["counts"])
    return {
        "parser.parse_s": self_s("parser.parse"),
        "parser.tokens_per_s": _ratio(count("tokens"), total("busy", "parser.parse")),
        "typecheck.check_s": self_s("typecheck.check"),
        "runtime_local.step_local_s": self_s("runtime_local.step_local"),
        "runtime_local.decompose_s": self_s("runtime_local.decompose"),
        "runtime_local.subst_s": self_s("runtime_local.subst"),
        "runtime_local.decompose_per_step": _ratio(
            total("calls", "runtime_local.decompose"),
            total("calls", "runtime_cloud.step_cloud")),
        "runtime_cloud.steps_per_s": _ratio(
            under("runtime_cloud.step_cloud", "runtime_cloud.run"),
            total("busy", "runtime_cloud.run")),
        "runtime_cloud.enabled_s": self_s("runtime_cloud.enabled"),
        "runtime_cloud.step_cloud_s": self_s("runtime_cloud.step_cloud"),
        "runtime_cloud.config_copy_s": self_s("runtime_cloud.config_copy"),
        "runtime_cloud.states": _median([j["counts"].get("states", 0) for j in jobs]),
        "runtime_cloud.states_per_s": _ratio(count("states"),
                                             total("busy", "runtime_cloud.explore")),
        "runtime_cloud.new_state_ratio": _ratio(explored, explore_steps),
        "runtime_cloud.config_key_s": self_s("runtime_cloud.config_key"),
        "clone.clone_step_s": self_s("clone.clone_step"),
        "abstract_exec.check_sc_s": self_s("abstract_exec.check_sc"),
        "abstract_exec.sc_events_per_s": _ratio(count("sc_events"),
                                                total("busy", "abstract_exec.check_sc")),
        "abstract_exec.project_s": self_s("abstract_exec.project"),
        "abstract_exec.check_ec_s": self_s("abstract_exec.check_ec"),
        "abstract_exec.record_s": self_s("abstract_exec.record"),
        "abstract_exec.fold_entry_s": self_s("abstract_exec.fold_entry"),
        "abstract_exec.exec_key_s": self_s("abstract_exec.exec_key"),
        "abstract_exec.exec_copy_s": self_s("abstract_exec.exec_copy"),
        "cli.trace_json_s": self_s("cli.trace_json"),
        "cli.self_s": self_s(ROOT_SPAN),
        "gc.pause_s": self_s(GC_SPAN),
    }
