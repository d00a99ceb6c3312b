"""explore against the structural-key explorer of tests/explore_oracle.py:
the same states, traces, truncated traces and checker violation counts,
and interned keys that are equal exactly where structural keys are."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

import explore_oracle
from conftest import CORPUS, RUNNABLE, checked_config, load
from ctrd.abstract_exec import AbstractExecution
from ctrd.cli import CHECKS
from ctrd.runtime_cloud import CloudConfig, explore
from ctrd.runtime_local import Update

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


def _orbit_key(cfg) -> tuple:
    """The structural key of cfg's server-permutation orbit: the servers as
    a multiset and the mailbox without delivered sets."""
    clients, mailbox, servers, ids, typing = explore_oracle.structural_key(cfg)
    mailbox = tuple((k, replace(m, delivered=frozenset()) if isinstance(m, Update) else m)
                    for k, m in mailbox)
    return clients, mailbox, frozenset(Counter(servers).items()), ids, typing


def _one_to_one(pairs: list) -> bool:
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(set(pairs))


def test_interned_keys_are_equal_exactly_when_structural_keys_are(monkeypatch):
    # every key explore builds, on arrivals that deduplication cuts too,
    # against the structural key of the same configuration or execution
    configs, execs = [], []
    config_key, exec_key_id = CloudConfig.key, AbstractExecution.key_id

    def key(cfg, table):
        configs.append((config_key(cfg, table), cfg))
        return configs[-1][0]

    def key_id(ex, table):
        execs.append((exec_key_id(ex, table), ex))
        return execs[-1][0]

    monkeypatch.setattr(CloudConfig, "key", key)
    monkeypatch.setattr(AbstractExecution, "key_id", key_id)
    for path, servers, depth in [(p, None, 12) for p in RUNNABLE] + [(MIXED, 3, 24)]:
        configs.clear()
        execs.clear()
        _, _, cfg = checked_config(load(path), servers)
        summary = explore(cfg, depth)
        assert len(configs) == len(execs) >= summary.orbits
        assert _one_to_one([(k, _orbit_key(c)) for k, c in configs]), path
        # the mailbox on its own: its int follows the messages less delivered
        assert _one_to_one([(k[len(c.clients)], _orbit_key(c)[1]) for k, c in configs]), path
        assert _one_to_one([(i, ex.key()) for i, ex in execs]), path
