"""Local reduction: decomposition, the per-client rules, and effect frames."""

from __future__ import annotations

import pytest

from conftest import checked_config
from ctrd.abstract_exec import con_observation
from ctrd.lattice import GSet, NatMax
from explore_oracle import client_key
from ctrd.runtime_cloud import _await_resolve, _cloud_redex, _route, make_scheduler, run
from ctrd.parser import parse_term
from ctrd.runtime_local import (
    CtrdRuntimeError, Redex, Update, Req, decompose, eps, initial_client,
    merge_values, step_local,
)
from ctrd.syntax import (
    AVA, Await, CON, Duplicated, FlexRead, Identifier, LatOp, Lit, Location, LOC,
    OAC, OrdOp, Plain, Ref, Restrict, UNIT,
)


def client_at(src: str, cid: int = 1):
    return initial_client(cid, parse_term(src))


def refused(c) -> bool:
    """Whether step_local finds no rule at the client's redex, Stuck, and
    leaves the client as it was."""
    before = client_key(c)
    with pytest.raises(CtrdRuntimeError) as exc:
        step_local(c)
    return exc.value.kind == "Stuck" and client_key(c) == before


def run_locally(src: str, max_steps: int = 100):
    c = client_at(src)
    actions = []
    for _ in range(max_steps):
        if c.redex is None:
            return c, c.term.value, actions
        fired = step_local(c)
        assert fired is not None, c.redex
        actions.append(fired)
        assert c.redex == decompose(c.term)
    raise AssertionError("did not finish")


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_leftmost_innermost():
    t = parse_term("(nat 1 @loc \\/ nat 2 @loc) <= nat 3 @loc")
    d = decompose(t)
    assert isinstance(d, Redex)
    assert isinstance(d.term, LatOp)
    rebuilt = d.rebuild(Lit(Plain(NatMax(9), LOC)))
    assert isinstance(rebuilt, OrdOp)


def test_decompose_value():
    assert decompose(parse_term("unit @con")) is None


def test_decompose_blocked_await():
    # whether an await is blocked depends on the identifier maps, which the
    # decomposition does not see: the redex is the await either way, and
    # an await on an identifier the client has not bound is resolved from
    # the global map, not by step_local
    c = client_at("!await((ava,1))")
    assert c.redex == decompose(c.term)
    assert c.redex.term == Await(Identifier(AVA, 1))
    assert _route(c) is _await_resolve
    assert refused(c)


def test_decompose_effect_accumulates_through_frames():
    t = Restrict(Restrict(parse_term("nat 1 @loc \\/ nat 2 @loc"), CON), AVA)
    d = decompose(t)
    assert isinstance(d, Redex)
    assert d.effect == AVA


# ---------------------------------------------------------------------------
# pure rules

def test_latop_joins_values_and_labels():
    _, v, _ = run_locally("nat 1 @loc \\/ nat 2 @con")
    assert v == Plain(NatMax(2), CON)


def test_ordop_comparison():
    _, v, _ = run_locally("nat 3 @loc <= nat 3 @loc")
    assert v.raw.value is True and v.label == LOC


@pytest.mark.parametrize("right,kind", [
    (Plain(GSet(frozenset({"a"})), LOC), "DomainMismatch"),
    (Plain(UNIT, LOC), "Stuck"),
    (Duplicated(Ref(LOC, Lit(Plain(UNIT, LOC)), Identifier(LOC, 1))), "DuplicatedIdentifier"),
])
def test_lattice_faults_are_the_same_for_operators_and_merges(right, kind):
    left = Plain(NatMax(1), LOC)
    with pytest.raises(CtrdRuntimeError) as exc:
        merge_values(left, right)
    assert exc.value.kind == kind
    for op in (LatOp("join", Lit(left), Lit(right)), OrdOp("le", Lit(left), Lit(right))):
        with pytest.raises(CtrdRuntimeError) as exc:
            step_local(initial_client(1, op))
        assert exc.value.kind == kind, op


def test_root_lets_leave_the_rest_of_the_spine_as_parsed():
    # a root E-LET closes only the next let's bound term, so the spine
    # below it is the parsed program's own node, not a rebuilt copy, and
    # the client keeps just the values the rest of the spine reads
    t = parse_term("let a = nat 1 @loc in let b = nat 2 @loc in let x0 = a \\/ b in "
                   "let x1 = x0 \\/ a in let x2 = x1 \\/ b in x2")
    c = initial_client(1, t)
    assert step_local(c)[0] == "E-LET"
    assert c.term.body is t.body.body and [n for n, _ in c.pending] == ["a"]
    assert step_local(c)[0] == "E-LET"
    assert c.term.body is t.body.body.body and [n for n, _ in c.pending] == ["a", "b"]
    assert c.term.bound == parse_term("nat 1 @loc \\/ nat 2 @loc")
    assert [step_local(c)[0] for _ in range(2)] == ["E-LATOP", "E-LET"]
    # x0 and a are read by the next let's bound term alone
    assert c.term.body is t.body.body.body.body and [n for n, _ in c.pending] == ["b"]
    while c.redex is not None:
        step_local(c)
    assert c.term.value == Plain(NatMax(2), LOC) and c.pending == ()


def _con_cell_after_run(body: str):
    _, _, cfg = checked_config(
        f"servers 2; client 1 {{ let c = ref@con(nat 0 @con, (con,1)) in {body} }}")
    res = run(cfg, make_scheduler("drain-fair"))
    assert res.status == "quiescent"
    return con_observation(res.config)["(con,1)"]


def test_a_closure_keeps_the_value_of_a_name_rebound_after_it():
    assert _con_cell_after_run(
        "let x = nat 5 @con in let f = fn@con(y: Lat@con) => y \\/ x in "
        "let x = nat 1 @con in c := f (x) \\/ x") == {"nat": 5}


def test_a_rebinding_let_reads_the_old_value():
    assert _con_cell_after_run(
        "let x = nat 3 @con in let x = x \\/ nat 1 @con in let y = x in "
        "let x = x \\/ nat 2 @con in c := x \\/ y") == {"nat": 3}


def test_beta_wraps_body_in_own_label_frame():
    c = client_at("(fn@ava(x: Lat@loc) => x)[con] (nat 1 @loc)")
    # one step collapses the restriction onto the closure value
    step_local(c)
    rule, _ = step_local(c)
    assert rule == "E-BETA"
    assert isinstance(c.term, Restrict) and c.term.label == CON
    _, v, _ = run_locally("(fn@ava(x: Lat@loc) => x)[con] (nat 1 @loc)")
    assert v == Plain(NatMax(1), CON)   # result joined with the closure label


def test_if_branch_runs_under_guard_label():
    c = client_at("if true @ava then { nat 1 @loc } else { nat 0 @loc }")
    rule, _ = step_local(c)
    assert rule == "E-IF-TRUE"
    assert isinstance(c.term, Restrict) and c.term.label == AVA
    _, v, _ = run_locally("if true @ava then { nat 1 @loc } else { nat 0 @loc }")
    assert v == Plain(NatMax(1), AVA)


def test_restriction_joins_label():
    _, v, _ = run_locally("(nat 2 @con)[oac]")
    assert v == Plain(NatMax(2), OAC)


def test_record_and_projection():
    _, v, _ = run_locally("{b = nat 2 @loc, a = nat 1 @loc}@con . a")
    assert v == Plain(NatMax(1), CON)


# ---------------------------------------------------------------------------
# local references

def test_local_ref_stamps_effect_and_binds_id():
    c, v, _ = run_locally("ref@loc(nat 3 @loc, (loc,1))")
    assert Identifier(LOC, 1) in c.idmap
    o = c.idmap[Identifier(LOC, 1)]
    assert c.store[o] == Plain(NatMax(3), LOC)


def test_local_ref_under_frame_joins_effect():
    # a restriction frame raises the running effect, which stamps the store
    c, _, _ = run_locally("(ref@loc(nat 3 @loc, (loc,1)))[con]")
    o = c.idmap[Identifier(LOC, 1)]
    assert c.store[o] == Plain(NatMax(3), CON)


def test_ref_dup_on_taken_identifier():
    src = "let a = ref@loc(nat 1 @loc, (loc,1)) in ref@loc(nat 2 @loc, (loc,1))"
    _, v, actions = run_locally(src)
    assert isinstance(v, Duplicated)
    assert any(rule == "E-REF-DUP" for rule, _ in actions)


def test_ava_ref_buffers_update_and_stamps_ava():
    c, v, actions = run_locally("ref@ava(nat 3 @loc, (ava,1))")
    assert isinstance(v.raw, Location) and v.label == AVA
    o = v.raw
    assert c.store[o] == Plain(NatMax(3), AVA)
    assert len(c.buffer) == 1
    (m,) = c.buffer
    assert isinstance(m, Update)
    assert m.value == Plain(NatMax(3), LOC)          # payload is unstamped
    (ref_act,) = [a for r, a in actions if r == "E-AVAREF"]
    assert ref_act.kind == "ref" and ref_act.label == AVA


def test_ava_deref_local_merges_and_requests():
    src = ("let a = ref@ava(nat 5 @ava, (ava,1)) in !a")
    c, v, actions = run_locally(src)
    assert v == Plain(NatMax(5), AVA)
    kinds = [type(m) for m in c.buffer]
    assert kinds == [Update, Req]
    (rd,) = [a for r, a in actions if r == "E-AVADEREF1"]
    assert rd.source == ("local", 1) and list(rd.snapshot) == []


def test_ava_assign_merges_with_store():
    # merge keeps the lattice maximum of the held and written values
    src = "let a = ref@ava(nat 5 @ava, (ava,1)) in a := nat 3 @ava"
    c, v, actions = run_locally(src)
    o = c.idmap[Identifier(AVA, 1)]
    assert c.store[o] == Plain(NatMax(5), AVA)
    updates = [m for m in c.buffer if isinstance(m, Update)]
    assert len(updates) == 2 and updates[1].value == Plain(NatMax(3), AVA)


def test_await_resolves_locally():
    src = "let a = ref@loc(nat 1 @loc, (loc,1)) in await((loc,1))"
    c, v, _ = run_locally(src)
    assert v == Plain(c.idmap[Identifier(LOC, 1)], LOC)


def test_await_on_own_identifier_fires_await1():
    c = client_at("let a = ref@ava(nat 1 @ava, (ava,1)) in (await((ava,1)))[con]")
    step_local(c)   # E-AVAREF
    step_local(c)   # E-LET
    o = c.idmap[Identifier(AVA, 1)]
    store, buffer = dict(c.store), c.buffer
    assert step_local(c) == ("E-AWAIT1", eps(CON))   # under the frame's effect
    assert c.term == Restrict(Lit(Plain(o, AVA)), CON)
    assert (c.store, c.buffer, c.event_counter) == (store, buffer, 1)


def test_deref_duplicated_raises():
    src = ("let a = ref@loc(nat 1 @loc, (loc,1)) in "
           "let b = ref@loc(nat 2 @loc, (loc,1)) in !b")
    with pytest.raises(CtrdRuntimeError) as exc:
        run_locally(src)
    assert exc.value.kind == "DuplicatedIdentifier"


def test_con_redex_is_a_cloud_matter():
    c = client_at("ref@con(nat 1 @con, (con,1))")
    assert isinstance(c.redex.term, Ref)
    assert _route(c) is _cloud_redex
    assert refused(c)


def test_flexread_ava_without_a_replica_is_a_cloud_matter():
    # a hand-built client at flexread@ava of an oac cell it holds no
    # replica of: a server must install one, so nothing fires locally;
    # with the replica, the read is local
    o = Location(2, 1, True)
    c = initial_client(1, FlexRead(AVA, Lit(Plain(o, OAC))))
    assert _route(c) == (AVA, o, "E-FLEXRD-AVA")
    assert refused(c)
    c.store[o] = Plain(NatMax(3), AVA)
    assert _route(c) is step_local
    rule, act = step_local(c)
    assert (rule, act.source, c.term) == ("E-FLEXRD-AVA", ("local", 1),
                                          Lit(Plain(NatMax(3), AVA)))
