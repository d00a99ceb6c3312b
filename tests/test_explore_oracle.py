"""explore against the structural-key explorer of tests/explore_oracle.py:
the same states, traces, truncated traces and checker violation counts."""

from __future__ import annotations

import pytest

import explore_oracle
from conftest import CORPUS, RUNNABLE, checked_config, load
from ctrd.cli import CHECKS
from ctrd.runtime_cloud import explore

MIXED = CORPUS / "anomaly" / "mixed.ctrd"

# (program, --servers, --max-depth): every runnable corpus program at the
# default depth, the two largest state spaces the benchmark and the
# baselines use, and mixed.ctrd on 2 to 6 servers, so that orbits of every
# size from 2! to 6! are counted
CASES = ([(p, None, 12) for p in RUNNABLE]
         + [(CORPUS / "ava" / "nat_race.ctrd", None, 14)]
         + [(MIXED, n, 24) for n in (2, 3, 4, 5, 6)])


def _outcome(explore_fn, path, servers: int | None, depth: int, **options):
    _, _, cfg = checked_config(load(path), servers)
    violations = {name: 0 for name in ("sc", "sc-con", "ec")}

    def on_trace(exec_, final, truncated, weight):
        # as ctrd explore counts them: ec only judges untruncated traces
        for name in violations:
            if not (name == "ec" and truncated):
                violations[name] += weight * (not CHECKS[name](exec_, final).ok)

    summary = explore_fn(cfg, depth, on_trace=on_trace, **options)
    return (summary.states, summary.traces, summary.truncated, violations), summary.orbits


def test_the_cases_cover_the_corpus():
    assert len(RUNNABLE) == 45


@pytest.mark.parametrize(
    "path,servers,depth", CASES,
    ids=[f"{p.parent.name}/{p.stem}-s{s or 'p'}-d{d}" for p, s, d in CASES])
def test_explore_agrees_with_the_structural_oracle(path, servers, depth):
    # the oracle explores every concrete state and also checks that a
    # configuration is always reached at the same depth
    outcome, orbits = _outcome(explore, path, servers, depth)
    assert outcome == _outcome(explore_oracle.explore, path, servers, depth,
                               check_depth=True)[0]
    if (path, servers) == (MIXED, 5):
        # the reduction visits at most one state in eight
        assert outcome[0] == 2593 and orbits <= 2593 // 8
