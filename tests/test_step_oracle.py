"""Pruned substitution, and the log cells and the common log mask,
against the oracles in step_oracle.py."""

from __future__ import annotations

from functools import reduce
from operator import or_

from hypothesis import given, settings, strategies as st

import step_oracle
from conftest import (CORPUS, RUNNABLE, RUNNABLE_COUNT, checked_config, load, log_events,
                      subterms)
from ctrd.lattice import NatMax
import ctrd.abstract_exec
import ctrd.runtime_cloud
from ctrd.abstract_exec import AbstractExecution, fold_entry
from ctrd.runtime_cloud import enabled, explore, make_scheduler, run, step_cloud
from ctrd.runtime_local import CtrdRuntimeError, free_names, subst
from ctrd.syntax import (
    App, CON, Closure, Deref, Duplicated, FlexWrite, If, LABELS, LOC, LatOp,
    LatType, Let, Lit, Plain, Proj, Record, RecordVal, Restrict, Var,
)

# ---------------------------------------------------------------------------
# substitution

_names = st.sampled_from(["x", "y", "z"])
_nat = st.builds(lambda n: Lit(Plain(NatMax(n), LOC)), st.integers(0, 3))


def _closure(param: str, body) -> Lit:
    return Lit(Plain(Closure(LOC, param, LatType(LOC), body), LOC))


def _spine(lets, body):
    for name, bound in reversed(lets):
        body = Let(name, bound, body)
    return body


def _forms(term):
    return st.one_of(
        # a let spine: names shadowed part way down, and used deep down;
        # short enough for the oracle's recursion
        st.builds(_spine, st.lists(st.tuples(_names, term), min_size=2, max_size=40), term),
        st.builds(Let, _names, term, term),                # shadows when it binds the name
        st.builds(_closure, _names, term),                 # param is or is not the name
        st.builds(lambda a, b: LatOp("join", a, b), term, term),
        st.builds(App, term, term),
        st.builds(If, term, term, term),
        st.builds(Restrict, term, st.sampled_from(LABELS)),
        st.builds(lambda a, b: Record((("a", a), ("b", b)), LOC), term, term),
        st.builds(lambda t: Proj(t, "a"), term),
        st.builds(Deref, term),
        st.builds(lambda a, b: FlexWrite(CON, a, b), term, term),
        # subst enters neither a duplicated marker nor a record value
        st.builds(lambda t: Lit(Duplicated(t)), term),
        st.builds(lambda p, t: Lit(Plain(RecordVal((("f", _closure(p, t).value),)), LOC)),
                  _names, term),
    )


_terms = st.recursive(st.one_of(_nat, st.builds(Var, _names)), _forms, max_leaves=16)
_values = st.one_of(_nat, st.just(_closure("w", Var("w"))))
_envs = st.dictionaries(_names, _values, min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_terms, _envs, st.data())
def test_pruned_subst_equals_the_full_walk(t, env, data):
    # one of env's names rebound above t, by a let or a closure parameter,
    # or not; the drawn terms rebind names further down
    x = data.draw(st.sampled_from(sorted(env)))
    t = data.draw(st.sampled_from([t, Let(x, t, t), App(_closure(x, t), t)]))
    want = t
    for name, value in env.items():     # the single-name reference, name by name
        want = step_oracle.subst(want, name, value)
    got = subst(t, env)
    assert got == want
    if step_oracle.free_names(t).isdisjoint(env):
        assert got is t
    # the cached sets agree with the uncached reference, on the input's
    # nodes and on the nodes subst built
    for s in subterms(t) + subterms(got):
        assert free_names(s) == step_oracle.free_names(s), s


def test_a_long_spine_is_substituted_in_a_loop():
    # far deeper than the recursion limit, and every let rebinds y, one of
    # the two names put in: the first let's bound gets both values, the
    # lets below it w's alone
    one, two = Lit(Plain(NatMax(1), LOC)), Lit(Plain(NatMax(2), LOC))
    read = LatOp("join", Var("y"), Var("w"))
    t = _spine([("y", read)] * 5000, read)
    assert free_names(t) == {"y", "w"}
    got = subst(t, {"y": one, "w": two})
    assert got.name == "y" and got.bound == LatOp("join", one, two)
    for _ in range(4999):
        got = got.body
        assert got.name == "y" and got.bound == LatOp("join", Var("y"), two)
    assert got.body == LatOp("join", Var("y"), two)
    assert subst(t, {"z": one}) is t


def test_free_names_is_cached_on_the_node():
    t = Let("x", Var("y"), LatOp("join", Var("x"), Var("z")))
    first = free_names(t)
    assert first == {"y", "z"}
    assert free_names(t) is first
    # the cache is outside the record fields: equality, hash and repr
    # are those of an uncached copy
    fresh = Let("x", Var("y"), LatOp("join", Var("x"), Var("z")))
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


# ---------------------------------------------------------------------------
# server logs and the common log

def _check_logs(cfg, logs, where) -> None:
    """Each server log, listed newest first, is its tuple log, and the
    common log, listed in (client, n) order, is their intersection."""
    assert [tuple(log_events(s.seq)) for s in cfg.servers] == list(logs), where
    assert [s.seq.len for s in cfg.servers] == list(map(len, logs)), where
    assert tuple(log_events(cfg.common)) == step_oracle.common_seq(logs), where


def _check_snapshot(exec_, entry, logs, where) -> None:
    """The log an entry records is the tuple log its rule saw, and its mask
    is the OR of the events it lists."""
    snap = entry.action.snapshot
    if snap is None:
        return
    if entry.rule in step_oracle.COMMON_LOG_RULES:
        want = step_oracle.common_seq(logs)
    elif entry.rule == "E-PROCESS-UPDATE" or entry.action.source[0] == "server":
        want = logs[entry.server]
    else:
        want = ()                       # served from the client's own store
    assert tuple(log_events(snap)) == want, where
    assert exec_.history_mask(snap, "snapshot") == \
        reduce(or_, (1 << exec_.index(e) for e in log_events(snap)), 0), where


def test_common_log_matches_the_server_logs_on_every_run_step():
    # each step of a seeded run of every runnable corpus program keeps each
    # server's log cells equal to its tuple log and CloudConfig.common equal
    # to the intersection of the server logs, and each rule that records a
    # log records it as it stood before the step, with the mask of the
    # events it lists
    assert len(RUNNABLE) == RUNNABLE_COUNT
    for path in RUNNABLE:
        _, _, initial = checked_config(load(path))
        for seed in range(3):
            cfg, sched = initial, make_scheduler("random", seed)
            logs = ((),) * len(cfg.servers)
            exec_ = AbstractExecution(cfg.clients)
            choices = enabled(cfg)
            while choices:
                try:
                    cfg, entry = step_cloud(cfg, sched.pick(choices))
                except CtrdRuntimeError:
                    break
                where = (path.relative_to(CORPUS), seed, entry.rule)
                _check_snapshot(exec_, entry, logs, where)
                fold_entry(exec_, entry)
                logs = step_oracle.logs_after(logs, entry)
                _check_logs(cfg, logs, where)
                choices = enabled(cfg)


def test_log_cells_match_the_tuple_logs_in_every_explored_state(monkeypatch):
    _, _, initial = checked_config(load(CORPUS / "anomaly" / "mixed.ctrd"), servers=3)
    # the tuple logs of each configuration and of the step behind each
    # entry, keyed by id and kept alive beside it
    logs = {id(initial): (initial, ((),) * 3)}
    before = {}
    step, fold = ctrd.runtime_cloud.step_cloud, ctrd.abstract_exec.fold_entry
    seen = {"steps": 0, "snapshots": 0}

    def checked_step(cfg, choice):
        nxt, entry = step(cfg, choice)
        prior = logs[id(cfg)][1]
        after = step_oracle.logs_after(prior, entry)
        _check_logs(nxt, after, entry.rule)
        logs[id(nxt)], before[id(entry)] = (nxt, after), (entry, prior)
        seen["steps"] += 1
        return nxt, entry

    def checked_fold(exec_, entry):
        if entry.action.snapshot is not None:
            _check_snapshot(exec_, entry, before[id(entry)][1], entry.rule)
            seen["snapshots"] += 1
        fold(exec_, entry)

    monkeypatch.setattr(ctrd.runtime_cloud, "step_cloud", checked_step)
    monkeypatch.setattr(ctrd.abstract_exec, "fold_entry", checked_fold)
    # every state and step of the search, none stepped alone: 191 steps
    # here, 105 with the selection
    monkeypatch.setattr(ctrd.runtime_cloud, "_alone", lambda config, choices: None)
    explore(initial, 24)
    assert seen["steps"] > 100 and seen["snapshots"] > 50


# ---------------------------------------------------------------------------
# enabled choices, from the clients' kept lists

def test_enabled_equals_the_from_scratch_choices_at_every_configuration(monkeypatch):
    # every configuration of seeded runs and of explore on every runnable
    # corpus program, and of mixed.ctrd explored on 3 servers, with no
    # choice stepped alone so that explore visits each: the choices
    # enabled builds from each client's kept list and the mailbox in event
    # order equal the oracle's, rebuilt and fully sorted, order included
    monkeypatch.setattr(ctrd.runtime_cloud, "_alone", lambda config, choices: None)
    calls = {"configs": 0}
    kept = ctrd.runtime_cloud.enabled

    def checked(cfg):
        got = kept(cfg)
        assert got == step_oracle.enabled(cfg)
        calls["configs"] += 1
        return got

    monkeypatch.setattr(ctrd.runtime_cloud, "enabled", checked)
    for path in RUNNABLE:
        _, _, cfg = checked_config(load(path))
        for seed in range(3):
            try:
                run(cfg, make_scheduler("random", seed))
            except CtrdRuntimeError:
                pass
        try:
            explore(cfg, 12)
        except CtrdRuntimeError:
            pass
    _, _, cfg = checked_config(load(CORPUS / "anomaly" / "mixed.ctrd"), servers=3)
    explore(cfg, 24)
    assert calls["configs"] > 10_000
