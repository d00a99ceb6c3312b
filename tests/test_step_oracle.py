"""Pruned substitution and the incremental common log against the
oracles in step_oracle.py."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import step_oracle
from conftest import CORPUS, RUNNABLE, checked_config, load, subterms
from ctrd.lattice import NatMax
from ctrd.runtime_cloud import enabled, make_scheduler, step_cloud
from ctrd.runtime_local import CtrdRuntimeError, free_names, subst
from ctrd.syntax import (
    App, CON, Closure, Deref, Duplicated, FlexWrite, If, LABELS, LOC, LatOp,
    LatType, Let, Lit, Plain, Proj, Record, RecordVal, Restrict, Var,
)

# ---------------------------------------------------------------------------
# substitution

_names = st.sampled_from(["x", "y"])
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
_values = st.one_of(_nat, st.just(_closure("z", Var("z"))))


@settings(max_examples=300, deadline=None)
@given(_terms, _names, _values)
def test_pruned_subst_equals_the_full_walk(t, name, value):
    want = step_oracle.subst(t, name, value)
    got = subst(t, name, value)
    assert got == want
    if name not in step_oracle.free_names(t):
        assert got is t
    # the cached sets agree with the uncached reference, on the input's
    # nodes and on the nodes subst built
    for s in subterms(t) + subterms(got):
        assert free_names(s) == step_oracle.free_names(s), s


def test_a_long_spine_is_substituted_in_a_loop():
    # far deeper than the recursion limit: the lets above the one that
    # rebinds y get the value, the ones below it come back untouched
    one = Lit(Plain(NatMax(1), LOC))
    lets = [(f"x{i}", Var("y")) for i in range(3000)]
    lets[2000] = ("y", Var("y"))
    t = _spine(lets, Var("y"))
    assert free_names(t) == {"y"}
    got, below = subst(t, "y", one), t
    for i in range(2001):
        assert got.name == lets[i][0] and got.bound is one
        got, below = got.body, below.body
    assert got is below
    assert subst(t, "z", one) is t


def test_free_names_is_cached_on_the_node():
    t = Let("x", Var("y"), LatOp("join", Var("x"), Var("z")))
    first = free_names(t)
    assert first == {"y", "z"}
    assert free_names(t) is first
    # the cache is outside the dataclass fields: equality, hash and repr
    # are those of an uncached copy
    fresh = Let("x", Var("y"), LatOp("join", Var("x"), Var("z")))
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


# ---------------------------------------------------------------------------
# the common log

def test_common_log_matches_the_server_logs_on_every_run_step():
    # each step of a seeded run of every runnable corpus program keeps
    # CloudConfig.common equal to the intersection of the server logs, and
    # each rule that records it records it as it stood before the step
    assert len(RUNNABLE) == 45
    for path in RUNNABLE:
        _, _, initial = checked_config(load(path))
        name = path.relative_to(CORPUS)
        for seed in range(3):
            cfg, sched = initial, make_scheduler("random", seed)
            choices = enabled(cfg)
            while choices:
                try:
                    nxt, entry = step_cloud(cfg, sched.pick(choices))
                except CtrdRuntimeError:
                    break
                if entry.rule in step_oracle.COMMON_LOG_RULES:
                    assert entry.action.snapshot == step_oracle.common_seq(cfg.servers), \
                        (name, seed, entry.rule)
                cfg = nxt
                assert cfg.common == step_oracle.common_seq(cfg.servers), (name, seed, entry.rule)
                choices = enabled(cfg)
