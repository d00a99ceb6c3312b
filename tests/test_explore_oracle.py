"""explore against the structural-key explorer of tests/explore_oracle.py:
the same states, traces, truncated traces and checker violation counts."""

from __future__ import annotations

import pytest

import explore_oracle
from conftest import CORPUS, checked_config, load
from ctrd.cli import CHECKS
from ctrd.runtime_cloud import explore

RUNNABLE = sorted(p for p in CORPUS.rglob("*.ctrd") if p.parent.name != "reject")

# (program, --servers, --max-depth): every runnable corpus program at the
# default depth, and the two largest state spaces the benchmark and the
# baselines use
CASES = ([(p, None, 12) for p in RUNNABLE]
         + [(CORPUS / "ava" / "nat_race.ctrd", None, 14),
            (CORPUS / "anomaly" / "mixed.ctrd", 5, 24)])


def _outcome(explore_fn, path, servers: int | None, depth: int):
    _, _, cfg = checked_config(load(path), servers)
    violations = {name: 0 for name in ("sc", "sc-con", "ec")}

    def on_trace(exec_, final, truncated):
        # as ctrd explore counts them: ec only judges untruncated traces
        for name in violations:
            if not (name == "ec" and truncated):
                violations[name] += not CHECKS[name](exec_, final).ok

    summary = explore_fn(cfg, depth, on_trace=on_trace)
    return summary.states, summary.traces, summary.truncated, violations


def test_the_cases_cover_the_corpus():
    assert len(RUNNABLE) == 45


@pytest.mark.parametrize(
    "path,servers,depth", CASES,
    ids=[f"{p.parent.name}/{p.stem}-s{s or 'p'}-d{d}" for p, s, d in CASES])
def test_explore_agrees_with_the_structural_oracle(path, servers, depth):
    assert (_outcome(explore, path, servers, depth)
            == _outcome(explore_oracle.explore, path, servers, depth))
