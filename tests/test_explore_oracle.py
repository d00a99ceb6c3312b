"""explore against the structural-key explorer of tests/explore_oracle.py:
the same set of terminal outcomes from fewer states, and interned keys
that are equal exactly where structural keys of the orbit are; and explore
against itself stepping every choice in every order, which it must match
but in steps."""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

import pytest

import explore_oracle
from conftest import CORPUS, RUNNABLE, checked_config, load
from ctrd import runtime_cloud
from ctrd.abstract_exec import AbstractExecution
from ctrd.runtime_cloud import CloudConfig, StateSpaceLimit, explore

MIXED = CORPUS / "anomaly" / "mixed.ctrd"
NAT_RACE = CORPUS / "ava" / "nat_race.ctrd"
TWO_CELLS = CORPUS / "ava" / "two_cells.ctrd"

# (program, --servers, --max-depth): every runnable corpus program at the
# default depth, the two largest state spaces the benchmark and the
# baselines use, and mixed.ctrd on 2 to 6 servers
CASES = ([(p, None, 12) for p in RUNNABLE]
         + [(CORPUS / "ava" / "nat_race.ctrd", None, 14)]
         + [(MIXED, n, 24) for n in (2, 3, 4, 5, 6)])


def test_the_cases_cover_the_corpus():
    assert len(RUNNABLE) == 46


@pytest.mark.parametrize(
    "path,servers,depth", CASES,
    ids=[f"{p.parent.name}/{p.stem}-s{s or 'p'}-d{d}" for p, s, d in CASES])
def test_explore_agrees_with_the_structural_oracle(path, servers, depth):
    # the oracle explores every concrete state and also checks that each
    # class explore merges is always reached at the same depth
    _, _, cfg = checked_config(load(path), servers)
    outcomes, summary = explore_oracle.terminal_outcomes(cfg, depth, explore)
    want, every = explore_oracle.terminal_outcomes(cfg, depth, check_depth=True)
    assert outcomes == want
    assert summary.states <= every.states and len(outcomes) <= summary.traces
    if (path, servers) == (MIXED, 5):
        # one state in twelve, and one trace per outcome
        assert (every.states, summary.states) == (2593, 216)
        assert summary.traces == len(outcomes) == 9


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
        assert len(configs) == len(execs) >= summary.states
        orbit_key = explore_oracle.orbit_key
        assert _one_to_one([(k, orbit_key(c)) for k, c in configs]), path
        # the mailbox and both maps share one int, which follows their contents
        shared = itemgetter(1, 3, 4)        # the mailbox, ids and typing parts
        assert _one_to_one([(k[len(c.clients)], shared(orbit_key(c))) for k, c in configs]), path
        assert _one_to_one([(i, ex.key()) for i, ex in execs]), path


# (program, --servers, --max-depth): every runnable corpus program, mixed.ctrd
# on 2 to 6 servers, and nat_race and two_cells to quiescence on 2
EXACT_CASES = ([(p, None, 12) for p in RUNNABLE]
               + [(MIXED, n, 24) for n in (2, 3, 4, 5, 6)]
               + [(NAT_RACE, 2, 40), (TWO_CELLS, 2, 40)])


def _traced(cfg, depth: int, table: dict):
    """explore's summary, None if the state budget stopped it, and its
    on_trace calls as (configuration key, execution int, truncated) from
    the given table."""
    calls = []

    def on_trace(exec_, final, truncated):
        calls.append((final.key(table), exec_.key_id(table), truncated))

    try:
        summary = explore(cfg, depth, on_trace=on_trace)
    except StateSpaceLimit:
        summary = None
    return summary, calls


def _each_reduction_off(cfg, depth: int, monkeypatch) -> dict:
    """_traced with both reductions, then with each one turned off: every
    choice stepped on every server, and every pair of choices dependent
    (no sleep set keeps a choice)."""
    table: dict = {}
    out = {"reduced": _traced(cfg, depth, table)}
    with monkeypatch.context() as m:
        m.setattr(runtime_cloud, "_one_per_server_class", lambda choices, servers: choices)
        out["every server"] = _traced(cfg, depth, table)
    with monkeypatch.context() as m:
        m.setattr(runtime_cloud, "footprint", lambda config, ch, entry: frozenset({"all"}))
        out["no sleep sets"] = _traced(cfg, depth, table)
    return out


@pytest.mark.parametrize(
    "path,servers,depth", EXACT_CASES,
    ids=[f"{p.parent.name}/{p.stem}-s{s or 'p'}-d{d}" for p, s, d in EXACT_CASES])
def test_stepping_one_server_per_class_changes_nothing_but_the_steps(
        path, servers, depth, monkeypatch):
    # and so does stepping each commuting diamond once (sleep sets)
    _, _, cfg = checked_config(load(path), servers)
    runs = _each_reduction_off(cfg, depth, monkeypatch)
    reduced, reduced_calls = runs["reduced"]
    for name, (summary, calls) in runs.items():
        assert calls == reduced_calls, name
        assert replace(summary, steps=0) == replace(reduced, steps=0), name
    if path == MIXED and len(cfg.servers) >= 3:
        assert reduced.steps < runs["every server"][0].steps
    if path == MIXED:
        assert reduced.steps < runs["no sleep sets"][0].steps


def test_the_state_budget_stops_both_at_the_same_trace(monkeypatch):
    _, _, cfg = checked_config(load(MIXED), 6)
    monkeypatch.setenv("CTRD_MAX_STATES", "100")
    runs = _each_reduction_off(cfg, 24, monkeypatch)
    reduced, reduced_calls = runs["reduced"]
    assert reduced_calls != []
    for name, (summary, calls) in runs.items():
        assert summary is None and calls == reduced_calls, name


@pytest.mark.parametrize("servers", [2, 3, 4, 5, 6])
def test_mixed_takes_under_1_3_steps_per_visited_state(servers):
    # sleep sets step each commuting pair of choices in one order; stepping
    # every order took 1.75 to 1.86 steps per state here
    _, _, cfg = checked_config(load(MIXED), servers)
    summary = explore(cfg, 24)
    assert summary.steps < 1.3 * summary.states
