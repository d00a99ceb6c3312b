"""explore against the structural-key explorer of tests/explore_oracle.py:
the same set of terminal outcomes from fewer states, and interned keys
that are equal exactly where structural keys of the orbit are; and explore
against itself with each reduction turned off, which it must match but in
steps; stepping one choice alone may also change, where no trace is cut,
the states and the order of the on_trace calls."""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

import pytest

import explore_oracle
from conftest import CORPUS, RUNNABLE, RUNNABLE_COUNT, checked_config, load
from ctrd import runtime_cloud
from ctrd.abstract_exec import AbstractExecution
from ctrd.runtime_cloud import CloudConfig, StateSpaceLimit, explore

MIXED = CORPUS / "anomaly" / "mixed.ctrd"
NAT_RACE = CORPUS / "ava" / "nat_race.ctrd"
TWO_CELLS = CORPUS / "ava" / "two_cells.ctrd"

# the programs whose complete search on 2 or 3 servers takes the oracle
# more than COMPLETE_BUDGET states
OVER_BUDGET = {(NAT_RACE, 2), (NAT_RACE, 3), (TWO_CELLS, 2), (TWO_CELLS, 3),
               (CORPUS / "run" / "r08_ava_deref.ctrd", 3)}
COMPLETE_BUDGET = 20_000
# (program, --servers, --max-depth): every runnable corpus program at the
# default depth, the two largest state spaces the benchmark and the
# baselines use, mixed.ctrd on 2 to 6 servers, and every runnable program
# on 2 and 3 servers at a depth that cuts no trace, where the oracle's
# search fits in COMPLETE_BUDGET
CASES = ([(p, None, 12) for p in RUNNABLE]
         + [(CORPUS / "ava" / "nat_race.ctrd", None, 14)]
         + [(MIXED, n, 24) for n in (2, 3, 4, 5, 6)]
         + [(p, n, 40) for p in RUNNABLE for n in (2, 3) if (p, n) not in OVER_BUDGET])


def test_the_cases_cover_the_corpus():
    assert len(RUNNABLE) == RUNNABLE_COUNT


@pytest.mark.parametrize(
    "path,servers,depth", CASES,
    ids=[f"{p.parent.name}/{p.stem}-s{s or 'p'}-d{d}" for p, s, d in CASES])
def test_explore_agrees_with_the_structural_oracle(path, servers, depth):
    # the oracle explores every concrete state and also checks that each
    # class explore merges is always reached at the same depth
    _, _, cfg = checked_config(load(path), servers)
    outcomes, summary = explore_oracle.terminal_outcomes(cfg, depth, explore)
    budget = COMPLETE_BUDGET if depth == 40 else 500_000
    want, every = explore_oracle.terminal_outcomes(cfg, depth, check_depth=True,
                                                   max_states=budget)
    assert outcomes == want
    assert summary.states <= every.states and len(outcomes) <= summary.traces
    if depth == 40:
        assert summary.truncated == every.truncated == 0
    if (path, servers) == (MIXED, 5):
        # one state in twenty-two, and one trace per outcome
        assert (every.states, summary.states) == (2593, 117)
        assert summary.traces == len(outcomes) == 9


def _one_to_one(pairs: list) -> bool:
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(set(pairs))


def test_interned_keys_are_equal_exactly_when_structural_keys_are(monkeypatch):
    # every key explore builds, on arrivals that deduplication cuts too,
    # against the structural key of the same configuration or execution,
    # within the one intern table of each search (a search that cuts a
    # trace runs again without stepping one choice alone)
    configs, execs = [], []
    config_key, exec_key_id = CloudConfig.key, AbstractExecution.key_id

    def key(cfg, table):
        configs.append((table, config_key(cfg, table), cfg))
        return configs[-1][1]

    def key_id(ex, table):
        execs.append((table, exec_key_id(ex, table), ex))
        return execs[-1][1]

    monkeypatch.setattr(CloudConfig, "key", key)
    monkeypatch.setattr(AbstractExecution, "key_id", key_id)
    for path, servers, depth in [(p, None, 12) for p in RUNNABLE] + [(MIXED, 3, 24)]:
        configs.clear()
        execs.clear()
        _, _, cfg = checked_config(load(path), servers)
        summary = explore(cfg, depth)
        assert len(configs) == len(execs) >= summary.states
        orbit_key = explore_oracle.orbit_key
        # the mailbox and both maps share one int, which follows their contents
        shared = itemgetter(1, 3, 4)        # the mailbox, ids and typing parts
        for table in {id(t): t for t, _, _ in configs}.values():
            keyed = [(k, c) for t, k, c in configs if t is table]
            assert _one_to_one([(k, orbit_key(c)) for k, c in keyed]), path
            assert _one_to_one([(k[len(c.clients)], shared(orbit_key(c))) for k, c in keyed]), path
            assert _one_to_one([(i, ex.key()) for t, i, ex in execs if t is table]), path


# (program, --servers, --max-depth): every runnable corpus program, mixed.ctrd
# on 2 to 6 servers, and nat_race and two_cells to quiescence on 2
EXACT_CASES = ([(p, None, 12) for p in RUNNABLE]
               + [(MIXED, n, 24) for n in (2, 3, 4, 5, 6)]
               + [(NAT_RACE, 2, 40), (TWO_CELLS, 2, 40)])


def _traced(cfg, depth: int, table: dict, wf: bool):
    """explore's summary, None if the state budget stopped it, and its
    on_trace calls as (configuration key, execution int, truncated) from
    the given table; with wf, checking wf at every state."""
    calls = []

    def on_trace(exec_, final, truncated):
        calls.append((final.key(table), exec_.key_id(table), truncated))

    try:
        summary = explore(cfg, depth, on_trace=on_trace, check_wf_each=wf)
    except StateSpaceLimit:
        summary = None
    return summary, calls


def _each_reduction_off(cfg, depth: int, monkeypatch, wf: bool = False) -> dict:
    """_traced with every reduction, then with no choice stepped alone, and
    with that and each other reduction turned off: every choice stepped on
    every server, and every pair of choices dependent (no sleep set keeps
    a choice)."""
    table: dict = {}
    out = {"reduced": _traced(cfg, depth, table, wf)}
    with monkeypatch.context() as m:
        m.setattr(runtime_cloud, "_alone", lambda config, choices: None)
        out["no selection"] = _traced(cfg, depth, table, wf)
        for name, part, off in [
                ("every server", "_one_per_server_class", lambda choices, servers: choices),
                ("no sleep sets", "footprint", lambda config, ch: frozenset({"all"}))]:
            with monkeypatch.context() as each:
                each.setattr(runtime_cloud, part, off)
                out[name] = _traced(cfg, depth, table, wf)
    return out


@pytest.mark.parametrize(
    "path,servers,depth", EXACT_CASES,
    ids=[f"{p.parent.name}/{p.stem}-s{s or 'p'}-d{d}" for p, s, d in EXACT_CASES])
def test_stepping_one_server_per_class_changes_nothing_but_the_steps(
        path, servers, depth, monkeypatch):
    # and so does stepping each commuting diamond once (sleep sets). Stepping
    # one choice alone also changes, where no trace is cut, the states and
    # the order of the on_trace calls; where one is, explore reports what
    # the search without it reports
    _, _, cfg = checked_config(load(path), servers)
    runs = _each_reduction_off(cfg, depth, monkeypatch)
    reduced, reduced_calls = runs.pop("reduced")
    plain, plain_calls = runs["no selection"]
    for name, (summary, calls) in runs.items():
        assert calls == plain_calls, name
        assert replace(summary, steps=0) == replace(plain, steps=0), name
    if reduced.truncated:
        assert reduced == plain and reduced_calls == plain_calls
    else:
        assert sorted(reduced_calls) == sorted(plain_calls)
        assert replace(reduced, steps=0, states=0) == replace(plain, steps=0, states=0)
        assert reduced.states <= plain.states
    if depth >= 24:     # mixed.ctrd, nat_race and two_cells, to quiescence
        assert not reduced.truncated and reduced.states < plain.states
    if path == MIXED and len(cfg.servers) >= 3:
        assert plain.steps < runs["every server"][0].steps
    if path == MIXED:
        assert plain.steps < runs["no sleep sets"][0].steps


def test_the_state_budget_stops_both_at_the_same_trace(monkeypatch):
    # every search stops, and explore, which holds its on_trace calls back
    # until it completes, makes none; checking wf, it makes them as it goes
    # (no choice stepped alone), at the same traces with each reduction off
    _, _, cfg = checked_config(load(MIXED), 6)
    monkeypatch.setenv("CTRD_MAX_STATES", "100")
    runs = _each_reduction_off(cfg, 24, monkeypatch)
    assert runs == dict.fromkeys(runs, (None, []))
    runs = _each_reduction_off(cfg, 24, monkeypatch, wf=True)
    calls = runs["reduced"][1]
    assert calls != [] and runs == dict.fromkeys(runs, (None, calls))


def test_the_state_budget_counts_the_states_of_the_search_that_reports(monkeypatch):
    # mixed.ctrd on 6 servers visits 133 states stepping one choice alone
    # where it can, and 244 without
    _, _, cfg = checked_config(load(MIXED), 6)
    monkeypatch.setenv("CTRD_MAX_STATES", "133")
    assert explore(cfg, 24).states == 133
    monkeypatch.setattr(runtime_cloud, "_alone", lambda config, choices: None)
    with pytest.raises(StateSpaceLimit):
        explore(cfg, 24)


@pytest.mark.parametrize("servers", [2, 3, 4, 5, 6])
def test_mixed_takes_under_1_3_steps_per_visited_state(servers, monkeypatch):
    # sleep sets step each commuting pair of choices in one order; stepping
    # every order took 1.75 to 1.86 steps per state here. A state that steps
    # one choice alone takes one step, so the steps that reach a visited
    # state (steps - states + 1) fall with the states: 21..65 -> 13..45
    _, _, cfg = checked_config(load(MIXED), servers)
    summary = explore(cfg, 24)
    monkeypatch.setattr(runtime_cloud, "_alone", lambda config, choices: None)
    plain = explore(cfg, 24)
    assert plain.steps < 1.3 * plain.states
    assert summary.states < plain.states
    assert summary.steps - summary.states < plain.steps - plain.states


def test_a_search_that_checks_wf_steps_no_choice_alone(monkeypatch):
    # check_wf judges every state, so that search visits every state the
    # search without the selection visits: 160 here, against 85
    _, _, cfg = checked_config(load(MIXED), 3)
    checked = explore(cfg, 24, check_wf_each=True)
    assert checked.wf_problems == 0 and explore(cfg, 24).states == 85
    monkeypatch.setattr(runtime_cloud, "_alone", lambda config, choices: None)
    assert checked == explore(cfg, 24) and checked.states == 160
