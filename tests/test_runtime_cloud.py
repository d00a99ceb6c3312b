"""Configuration-level stepping: enabled choices, the distributed rules,
schedulers, quiescence, and well-formedness."""

from __future__ import annotations

from types import MappingProxyType

import pytest

import ctrd.runtime_cloud
import explore_oracle
import step_oracle
from conftest import CORPUS, RUNNABLE, checked_config, corpus_files, load
from ctrd.abstract_exec import check_ec, record
from ctrd.lattice import NatMax
from ctrd.parser import parse_term
from ctrd.record import replace
from ctrd.runtime_cloud import (
    Choice, CloudConfig, IllegalChoice, Kind, Server, SplitMix64, _await_resolve,
    _cloud_redex, _route, check_wf, enabled, explore, make_scheduler, quiescent, run,
    step_cloud,
)
from ctrd.runtime_local import (Action, CtrdRuntimeError, EventId, Req, Update, decompose, eps,
                                initial_client, message_id, step_local)
from ctrd.syntax import (Assign, AVA, Await, BoolVal, Clone, CON, Deref, Duplicated, FlexRead,
                         FlexWrite, Identifier, LABELS, Lit, LOC, Location, OAC, Plain, Ref)


def drive(cfg, rules, max_steps=200, sched=None):
    sched = sched or make_scheduler("drain-fair")
    res = run(cfg, sched, max_steps)
    got = [e.rule for e in res.trace]
    for rule in rules:
        assert rule in got, (rule, got)
    return res


# ---------------------------------------------------------------------------
# enabled()

def test_enabled_empty_when_done():
    _, _, cfg = checked_config("servers 3; client 1 { unit @loc }")
    res = run(cfg, make_scheduler("drain-fair"), 10)
    assert enabled(res.config) == []
    assert quiescent(res.config)


def _partly_delivered(server: int = 0):
    """An ava update delivered to one server of 3, and the update."""
    _, _, cfg = checked_config("servers 3; client 1 { ref@ava(nat 1 @ava, (ava,1)) }")
    res = run(cfg, make_scheduler("drain-fair"), 2)   # avaref + send
    (m,) = res.config.mailbox
    cfg2, _ = step_cloud(res.config, Choice(Kind.DELIVER_UPDATE, message=m, server=server))
    return cfg2, cfg2.mailbox[0]


def test_enabled_partial_delivery_choices():
    cfg2, _ = _partly_delivered()
    choices = enabled(cfg2)
    delivers = [c for c in choices if c.kind == Kind.DELIVER_UPDATE]
    assert {c.server for c in delivers} == {1, 2}
    assert not any(c.kind == Kind.GC_UPDATE for c in choices)


def test_only_an_oac_cell_is_read_remotely_by_flexread_ava():
    # hand-built clients at flexread@ava of a cell they hold no replica of:
    # the typechecker admits only oac cells, and only those go to a server;
    # the other labels go to step_local, which finds no rule. Beside them,
    # the route of each other redex that a replica, an identifier binding
    # or a label sends elsewhere than step_local
    o = Location(2, 1, True)
    one, ident = Lit(Plain(NatMax(1), AVA)), Identifier(CON, 1)

    def cell(lab):
        return Lit(Plain(o, lab))

    cases = [
        (FlexRead(AVA, cell(OAC)), False, (AVA, o, "E-FLEXRD-AVA")),
        (FlexRead(AVA, cell(OAC)), True, step_local),
        *[(FlexRead(AVA, cell(lab)), False, step_local) for lab in (AVA, CON, LOC)],
        (FlexRead(CON, cell(OAC)), False, _cloud_redex),
        (Deref(cell(CON)), True, (CON, o, "E-CONDEREF")),
        (Deref(cell(AVA)), False, (AVA, o, "E-AVADEREF2")),
        (Deref(cell(AVA)), True, step_local),
        (Deref(Lit(Duplicated(Ref(CON, one, ident)))), False, step_local),
        (Assign(cell(CON), one), True, _cloud_redex),
        (Assign(cell(AVA), one), True, step_local),
        (FlexWrite(CON, cell(AVA), one), True, _cloud_redex),
        (FlexWrite(AVA, cell(CON), one), True, step_local),
        (Ref(CON, one, ident), False, _cloud_redex),
        (Ref(OAC, one, ident), False, _cloud_redex),
        (Ref(AVA, one, Identifier(AVA, 1)), False, step_local),
        (Clone(CON, cell(CON), ident), False, _cloud_redex),
        (Await(ident), False, _await_resolve),
    ]
    for term, replica, route in cases:
        client = initial_client(1, term)
        if replica:
            client.store[o] = one.value
        assert _route(client) == route, term
        if route is not step_local:
            # step_local finds no rule and leaves the client as it was
            before = explore_oracle.client_key(client)
            with pytest.raises(CtrdRuntimeError, match="^Stuck: no rule applies"):
                step_local(client)
            assert explore_oracle.client_key(client) == before
    bound = initial_client(1, Await(ident))
    bound.idmap[ident] = o
    assert _route(bound) is step_local


def test_enabled_con_read_per_server():
    src = """servers 3;
    client 1 { let c = ref@con(nat 1 @con, (con,1)) in !c }"""
    _, _, cfg = checked_config(src)
    cfg, _ = step_cloud(cfg, Choice(Kind.CLIENT_STEP, 1))   # conref
    cfg, _ = step_cloud(cfg, Choice(Kind.CLIENT_STEP, 1))   # let
    reads = [c for c in enabled(cfg) if c.kind == Kind.CON_READ]
    assert {c.server for c in reads} == {0, 1, 2}
    # the redex decides the read's label; a choice claiming another is refused
    with pytest.raises(IllegalChoice):
        step_cloud(cfg, reads[0]._replace(kind=Kind.AVA_REMOTE_READ))


def test_illegal_choice_rejected():
    _, _, cfg = checked_config("servers 3; client 1 { unit @loc }")
    with pytest.raises(IllegalChoice):
        step_cloud(cfg, Choice(Kind.CLIENT_STEP, 1))


# ---------------------------------------------------------------------------
# distributed rules

def test_conref_atomic_across_servers():
    _, _, cfg = checked_config("servers 3; client 1 { ref@con(nat 1 @con, (con,1)) }")
    res = run(cfg, make_scheduler("drain-fair"), 10)
    assert res.status == "quiescent" and res.steps <= 3
    assert len(res.config.global_ids) == 1
    o = res.config.global_ids[Identifier(CON, 1)]
    nus = {s.seq.event for s in res.config.servers}
    assert len(nus) == 1                        # one shared event at every head
    assert all(s.store[o] == Plain(NatMax(1), CON) for s in res.config.servers)


def test_conassign_updates_all_servers_in_one_step():
    src = "servers 3; client 1 { let c = ref@con(nat 1 @con, (con,1)) in c := nat 9 @con }"
    _, _, cfg = checked_config(src)
    res = drive(cfg, ["E-CONASSIGN"])
    o = res.config.global_ids[Identifier(CON, 1)]
    assert all(s.store[o] == Plain(NatMax(9), CON) for s in res.config.servers)
    heads = {s.seq.event for s in res.config.servers}
    assert len(heads) == 1


def test_process_update_joins_into_server_state():
    # a stale write merges by join: the larger value is kept
    src = """servers 3;
    client 1 { let a = ref@ava(nat 7 @ava, (ava,1)) in a := nat 2 @ava }"""
    _, _, cfg = checked_config(src)
    res = drive(cfg, ["E-PROCESS-UPDATE", "E-GC"])
    assert res.status == "quiescent"
    o = res.config.global_ids[Identifier(AVA, 1)]
    assert all(s.store[o].raw == NatMax(7) for s in res.config.servers)
    assert res.config.mailbox == ()


def test_gc_only_after_full_delivery():
    _, _, cfg = checked_config("servers 3; client 1 { ref@ava(nat 1 @ava, (ava,1)) }")
    res = run(cfg, make_scheduler("drain-fair"), 2)
    (m,) = res.config.mailbox
    with pytest.raises(IllegalChoice):
        step_cloud(res.config, Choice(Kind.GC_UPDATE, message=m))
    deliveries = 0
    cfg2 = res.config
    while True:
        delivers = [c for c in enabled(cfg2) if c.kind == Kind.DELIVER_UPDATE]
        if not delivers:
            break
        cfg2, _ = step_cloud(cfg2, delivers[0])
        deliveries += 1
    assert deliveries == 3                      # one per server, never more
    cfg2, entry = step_cloud(cfg2, Choice(Kind.GC_UPDATE, message=m))
    assert entry.rule == "E-GC" and cfg2.mailbox == ()


def test_process_request_pushes_state_back():
    src = """servers 3;
    client 1 { let a = ref@ava(nat 1 @ava, (ava,1)) in !a }"""
    _, _, cfg = checked_config(src)
    res = drive(cfg, ["E-AVADEREF1", "E-PROCESS-REQUEST"])
    assert res.status == "quiescent"


def test_process_request_never_rolls_the_local_replica_back():
    # a request answered by a server that has not yet seen the client's own
    # write joins into the local replica instead of overwriting it
    src = """servers 2;
    client 1 { let n = ref@ava(nat 1 @ava, (ava,1)) in let a = (n := nat 4 @ava) in
               let x = !n in let y = !n in !n }"""
    answered_early = 0
    for seed in range(31):
        _, _, cfg = checked_config(src)
        res = run(cfg, make_scheduler("random", seed), 1000)
        assert res.status == "quiescent", seed
        reads = [e.action.value.raw.n for e in res.trace if e.action.kind == "rd"]
        assert reads == [4, 4, 4], (seed, reads)
        assert check_ec(record(res.trace), res.config).ok, seed
        assert check_wf(res.config).ok, seed
        rules = [e.rule for e in res.trace]
        last_delivery = max(i for i, r in enumerate(rules) if r == "E-PROCESS-UPDATE")
        answered_early += "E-PROCESS-REQUEST" in rules[:last_delivery]
    assert answered_early   # some schedules answer a request from a lagging server


def test_oacref_lands_locally_and_remotely():
    from ctrd.syntax import OAC
    _, _, cfg = checked_config("servers 3; client 1 { ref@oac(nat 1 @con, (oac,1)) }")
    res = drive(cfg, ["E-OACREF"])
    o = res.config.global_ids[Identifier(OAC, 1)]
    assert o in res.config.clients[1].store
    assert all(o in s.store for s in res.config.servers)


@pytest.mark.parametrize("second", ["ref@con(nat 2 @con, (con,1))",
                                    "clone@con(ref@loc(nat 2 @loc, (loc,1)), (con,1))"])
def test_con_creation_on_a_taken_identifier_is_a_duplicate(second):
    src = f"servers 2; client 1 {{ let a = ref@con(nat 1 @con, (con,1)) in {second} }}"
    _, _, cfg = checked_config(src)
    taken = None
    while not (isinstance(taken, (Ref, Clone)) and taken.label == CON
               and Identifier(CON, 1) in cfg.global_ids):
        cfg, _ = step_cloud(cfg, Choice(Kind.CLIENT_STEP, 1))
        taken = cfg.clients[1].redex.term
    nxt, entry = step_cloud(cfg, Choice(Kind.CLIENT_STEP, 1))
    assert (entry.rule, entry.action) == ("E-CONREF-DUP", eps(LOC))
    assert nxt.clients[1].term == Lit(Duplicated(taken))
    # nothing is allocated, logged or published
    assert nxt.global_ids == cfg.global_ids and nxt.common.mask == cfg.common.mask
    assert [s.key() for s in nxt.servers] == [s.key() for s in cfg.servers]
    assert nxt.clients[1].event_counter == cfg.clients[1].event_counter


def test_await2_resolves_via_global_map():
    src = """servers 3;
    client 1 { ref@con(nat 1 @con, (con,1)) }
    client 2 { let p = await((con,1)) in !p }"""
    _, _, cfg = checked_config(src)
    res = drive(cfg, ["E-AWAIT2", "E-CONDEREF"])
    assert res.status == "quiescent"


def test_a_lost_creation_race_is_eventually_consistent():
    # both clients create (ava,1); the update delivered first publishes
    # its own location and the other joins into it there, so every server
    # holds nat 2 at the published location and none at the loser's own
    src = ("servers 2; client 1 { ref@ava(nat 1 @ava, (ava,1)) } "
           "client 2 { ref@ava(nat 2 @ava, (ava,1)) }")
    _, _, cfg = checked_config(src)
    for seed in range(6):
        res = run(cfg, make_scheduler("random", seed), 100)
        assert res.status == "quiescent", seed
        o = res.config.global_ids[Identifier(AVA, 1)]
        assert all(list(s.store) == [o] and s.store[o].raw == NatMax(2)
                   for s in res.config.servers), seed
        assert check_ec(record(res.trace), res.config).ok, seed
    verdicts = []
    summary = explore(cfg, 30, on_trace=lambda exec_, final, truncated:
                      verdicts.append(check_ec(exec_, final).ok))
    assert summary.truncated == 0 and len(verdicts) == 4 and all(verdicts)


def test_flexrd_con_merges_replicas():
    src = """servers 3;
    client 1 { let p = ref@oac(nat 1 @con, (oac,1)) in
               let w = flexwrite@ava(p, nat 6 @con) in
               flexread@con(p) }"""
    _, _, cfg = checked_config(src)
    res = drive(cfg, ["E-FLEXRD-CON"])
    assert res.status == "quiescent"
    final = res.config.clients[1].term.value
    assert final.raw == NatMax(6) and final.label == CON
    o = res.config.global_ids[list(res.config.global_ids)[0]]
    assert all(s.store[o].raw == NatMax(6) for s in res.config.servers)


def test_flexwrite_con_keeps_a_flexwrite_ava_in_flight():
    # flexwrite@con installs the join of every replica and its payload, so
    # an earlier flexwrite@ava delivered afterwards changes no replica's
    # state and every schedule converges
    _, _, cfg = checked_config(load(CORPUS / "accept" / "flex_both.ctrd"))
    for seed in range(10):
        res = run(cfg, make_scheduler("random", seed), 200)
        assert res.status == "quiescent", seed
        assert check_ec(record(res.trace), res.config).ok, seed
    verdicts = []
    summary = explore(cfg, 40, on_trace=lambda exec_, final, truncated:
                      verdicts.append(check_ec(exec_, final).ok))
    assert summary.truncated == 0 and verdicts and all(verdicts)


def test_flexread_ava_reads_its_own_earlier_flexwrite_ava():
    # flexwrite@con and flexread@con join the servers' state into the
    # client's replica; installing it over the replica dropped the client's
    # own flexwrite@ava still buffered or in flight (flex_both.ctrd under
    # seeds 6 and 8 read 2)
    from ctrd.lattice import lat_join, lat_leq
    flexread_con = """servers 3;
    client 1 {
      let p = ref@oac(nat 1 @con, (oac,1)) in
      let w = flexwrite@ava(p, nat 4 @loc) in
      let r = flexread@con(p) in
      flexread@ava(p)
    }"""
    for src in (load(CORPUS / "accept" / "flex_both.ctrd"), flexread_con):
        _, _, cfg = checked_config(src)
        for seed in range(10):
            res = run(cfg, make_scheduler("random", seed), 200)
            own: dict = {}
            reads = 0
            for e in res.trace:
                act = e.action
                key = (e.client, act.location)
                if e.rule == "E-FLEXWRT-AVA":
                    own[key] = lat_join(own[key], act.value.raw) if key in own else act.value.raw
                elif e.rule == "E-FLEXRD-AVA" and key in own:
                    reads += 1
                    assert lat_leq(own[key], act.value.raw), (seed, act.value, own[key])
            assert reads == 1, seed


# ---------------------------------------------------------------------------
# stepping is pure

def test_step_cloud_does_not_mutate_input():
    _, _, cfg = checked_config("servers 3; client 1 { ref@con(nat 1 @con, (con,1)) }")
    before = explore_oracle.structural_key(cfg)
    step_cloud(cfg, Choice(Kind.CLIENT_STEP, 1))
    assert explore_oracle.structural_key(cfg) == before


def _replaced(cfg, nxt):
    """The clients, servers and maps of nxt that are not cfg's own objects."""
    return ({cid for cid in cfg.clients if nxt.clients[cid] is not cfg.clients[cid]},
            {r for r, s in enumerate(cfg.servers) if nxt.servers[r] is not s},
            {name for name in ("global_ids", "store_typing")
             if getattr(nxt, name) is not getattr(cfg, name)})


def _rebuilt(cfg):
    """cfg rebuilt from freshly copied components, none of them keyed."""
    return CloudConfig({cid: c.copy() for cid, c in cfg.clients.items()}, cfg.mailbox,
                       [Server(dict(s.store), s.seq) for s in cfg.servers], dict(cfg.global_ids),
                       dict(cfg.store_typing), cfg.id_typing)


def _expected_replacements(cfg, choice, entry):
    """The clients and servers a step of this choice replaces."""
    everyone = set(range(len(cfg.servers)))
    match choice.kind:
        case Kind.CLIENT_STEP:
            synced = entry.action.synced or entry.rule == "E-FLEXRD-CON"
            return {choice.client}, everyone if synced else set()
        case Kind.DELIVER_UPDATE:
            return set(), {choice.server}
        case Kind.PROCESS_REQ:
            return {choice.message.event.client}, set()     # the requesting client
        case Kind.GC_UPDATE:
            return set(), set()
        case _:
            return {choice.client}, set()


def _reachable_choices(program: str, max_depth: int = 10):
    """(configuration, choice) for every choice of every configuration
    within max_depth steps of the program's initial one, each
    configuration once by its structural key."""
    _, _, cfg = checked_config(load(CORPUS / (program + ".ctrd")))
    seen, todo = set(), [(cfg, 0)]
    while todo:
        cfg, depth = todo.pop()
        key = explore_oracle.structural_key(cfg)
        if key in seen:
            continue
        seen.add(key)
        for choice in enabled(cfg) if depth < max_depth else ():
            yield cfg, choice
            todo.append((step_cloud(cfg, choice)[0], depth + 1))


_WALKED = ["anomaly/mixed", "clone/chain3_clone", "accept/await_pair", "ava/nat_race",
           "accept/ava_gset", "con/two_writers", "accept/flex_both"]


@pytest.mark.parametrize("program", _WALKED)
def test_every_step_keeps_its_input_and_each_client_decomposition(program):
    # step_cloud shares every component of its input with its output, and a
    # handler copies only what it changes; every choice of every
    # configuration reachable in a few steps must leave the input as it was
    # (compared on the structural key, which no cached key can hide), copy
    # exactly the components its kind changes, keep every client's cached
    # redex equal to the decomposition of its term, and leave no stale
    # interned key in its output
    steps = 0
    table: dict = {}
    for cfg, choice in _reachable_choices(program):
        before = explore_oracle.structural_key(cfg)
        # keyed first, as explore keys every state
        assert cfg.key(table) == _rebuilt(cfg).key(table), (program, choice)
        nxt, entry = step_cloud(cfg, choice)
        assert explore_oracle.structural_key(cfg) == before, (program, choice)
        clients, servers, maps = _replaced(cfg, nxt)
        assert (clients, servers) == _expected_replacements(cfg, choice, entry), \
            (program, choice, entry.rule)
        # a map is copied exactly when it changes
        assert maps == {name for name in ("global_ids", "store_typing")
                        if getattr(nxt, name) != getattr(cfg, name)}, (program, choice)
        for c in (*cfg.clients.values(), *nxt.clients.values()):
            assert c.redex == decompose(c.term), (program, choice, c.cid)
        # the ints kept by the components nxt shares with cfg are not stale
        assert nxt.key(table) == _rebuilt(nxt).key(table), (program, choice)
        steps += 1
    assert steps > 6


@pytest.mark.parametrize("program", _WALKED)
def test_common_log_is_what_every_server_log_holds(program):
    # CloudConfig.common is the AND of the server log masks; on every
    # reachable configuration it must list the intersection of the server
    # logs, and a rule that records it must record it as it stood before
    # the step
    grew = False
    for cfg, choice in _reachable_choices(program):
        common = step_oracle.common_seq([s.seq for s in cfg.servers])
        assert tuple(cfg.common) == common, (program, choice)
        nxt, entry = step_cloud(cfg, choice)
        assert tuple(nxt.common) == step_oracle.common_seq([s.seq for s in nxt.servers]), \
            (program, choice, entry.rule)
        if entry.rule in step_oracle.COMMON_LOG_RULES:
            assert tuple(entry.action.snapshot) == common, (program, choice, entry.rule)
        grew |= len(nxt.common) > len(cfg.common)
    assert grew, program


@pytest.mark.parametrize("program", ["anomaly/mixed", "ava/nat_race", "clone/chain3_clone",
                                     "accept/ava_gset", "con/two_writers"])
def test_step_cloud_steps_exactly_what_enabled_offers(program):
    # enabled states each rule's premises once and step_cloud refuses the
    # rest: every offered choice steps, and a variant of one (another
    # server index, another kind, or a message of another configuration)
    # steps just when enabled offers it too
    pairs = list(_reachable_choices(program))
    messages = list({id(ch.message): ch.message for _, ch in pairs}.values())
    variants = 0
    for cfg, choice in pairs:
        offered = enabled(cfg)
        assert offered is enabled(cfg) and choice in offered
        fresh = cfg.copy()
        assert enabled(fresh) is not offered and enabled(fresh) == offered
        step_cloud(cfg, choice)
        for other in ([choice._replace(server=r) for r in range(len(cfg.servers) + 1)]
                      + [choice._replace(kind=k) for k in Kind]
                      + [choice._replace(message=m) for m in messages]):
            if other in offered:
                step_cloud(cfg, other)
            else:
                with pytest.raises(IllegalChoice):
                    step_cloud(cfg, other)
                variants += 1
        if choice.message is not None:
            # an equal message that is not the mailbox's own steps as the
            # mailbox's does: the handler gets the offered choice
            twin, _ = step_cloud(cfg, choice._replace(message=replace(choice.message)))
            assert explore_oracle.structural_key(twin) == \
                explore_oracle.structural_key(step_cloud(cfg, choice)[0])
    assert variants > len(pairs)


def test_the_purity_programs_reach_every_kind_of_step():
    # mixed reaches six kinds, ava_gset adds PROCESS_REQ and two_writers
    # CON_READ, so every row of _expected_replacements is exercised above
    kinds = {choice.kind for program in ("anomaly/mixed", "accept/ava_gset", "con/two_writers")
             for _, choice in _reachable_choices(program)}
    assert kinds == set(Kind)


def test_the_kept_route_is_the_route():
    # enabled keeps each client's route with its choices, and _client_step,
    # _server_read, footprint and _alone read it in place of _route: on
    # every reachable configuration, once enabled has run, each client's
    # kept route is _route's (None for a value), and the walk meets every
    # route there is
    routes = set()
    for program in ("anomaly/mixed", "clone/chain3_clone", "accept/await_pair",
                    "con/two_writers"):
        for cfg, _ in _reachable_choices(program):
            for c in cfg.clients.values():
                route = c._choices[2]
                assert route == (None if c.redex is None else _route(c)), (program, c.cid)
                routes.add("server read" if route.__class__ is tuple else route)
    assert routes == {"server read", _cloud_redex, _await_resolve, step_local, None}


def test_a_run_routes_each_client_state_once(monkeypatch):
    # a step reads the route enabled kept on the client it steps from, so
    # no client object is routed twice (routed keeps each alive, so no id
    # is reused)
    routed = []
    route = ctrd.runtime_cloud._route
    monkeypatch.setattr(ctrd.runtime_cloud, "_route", lambda c: routed.append(c) or route(c))
    for program in ("anomaly/mixed", "clone/chain3_clone", "accept/await_pair",
                    "con/two_writers"):
        _, _, cfg = checked_config(load(CORPUS / (program + ".ctrd")))
        for sched in ("random", "drain-fair"):
            assert run(cfg, make_scheduler(sched, 0)).status == "quiescent", program
    assert len(routed) > 40 and len({id(c) for c in routed}) == len(routed)


def test_shared_internal_actions_stay_unwritten():
    # eps gives every internal step under one label the same Action, which
    # is safe while nothing writes an action after its step: once every
    # runnable program has run and its history has been recorded, and
    # mixed has been explored, each shared action still equals a fresh one
    internal = []
    for path in RUNNABLE:
        _, _, cfg = checked_config(load(path))
        res = run(cfg, make_scheduler("random", 0))
        record(res.trace)
        internal += [e.action for e in res.trace if e.action.kind == "eps"]
    _, _, cfg = checked_config(load(CORPUS / "anomaly" / "mixed.ctrd"), 3)
    explore(cfg, 24)
    assert [eps(lab) for lab in LABELS] == [Action(lab) for lab in LABELS]
    assert all(a is eps(a.effect) for a in internal)
    assert len(internal) > len({a.effect for a in internal})


# ---------------------------------------------------------------------------
# schedulers and runs

def test_run_deadlock_on_unresolvable_await():
    # (loc,9) is another client's local identifier: it never reaches the
    # global map, so client 2 blocks forever
    _, _, cfg = checked_config("""servers 3;
    client 1 { ref@loc(nat 1 @loc, (loc,9)) }
    client 2 { await((loc,9)) }""")
    res = run(cfg, make_scheduler("drain-fair"), 100)
    assert res.status == "deadlock"


def test_run_step_limit():
    _, _, cfg = checked_config("servers 3; client 1 { ref@con(nat 1 @con, (con,1)) }")
    res = run(cfg, make_scheduler("drain-fair"), 0)
    assert res.status == "step-limit"


def test_drain_fair_terminates_cross_client_await():
    src = """servers 3;
    client 1 { await((ava,1)) }
    client 2 { ref@ava(nat 1 @ava, (ava,1)) }"""
    _, _, cfg = checked_config(src)
    for name in ("drain-fair", "round-robin"):
        _, _, cfg = checked_config(src)
        res = run(cfg, make_scheduler(name), 200)
        assert res.status == "quiescent", name


def test_seeded_runs_reproducible():
    src = load(corpus_files("run")[2])
    for seed in (0, 42, 7):
        _, _, cfg_a = checked_config(src)
        _, _, cfg_b = checked_config(src)
        res_a = run(cfg_a, make_scheduler("random", seed), 500)
        res_b = run(cfg_b, make_scheduler("random", seed), 500)
        assert [e.rule for e in res_a.trace] == [e.rule for e in res_b.trace]
        assert (explore_oracle.structural_key(res_a.config)
                == explore_oracle.structural_key(res_b.config))


def test_splitmix_reference_values():
    rng = SplitMix64(0)
    first = [rng.next() for _ in range(3)]
    rng2 = SplitMix64(0)
    assert first == [rng2.next() for _ in range(3)]
    assert all(0 <= x < 2 ** 64 for x in first)
    assert len(set(first)) == 3


# ---------------------------------------------------------------------------
# explore

def test_explore_single_deterministic_trace():
    src = "servers 3; client 1 { nat 1 @loc \\/ nat 2 @loc }"
    _, _, cfg = checked_config(src)
    s = explore(cfg, 10)
    assert s.traces == 1 and s.truncated == 0


def test_explore_depth_zero():
    _, _, cfg = checked_config("servers 3; client 1 { ref@con(nat 1 @con, (con,1)) }")
    s = explore(cfg, 0)
    assert s.traces == 1 and s.truncated == 1


def test_explore_counts_wf_problems_in_visited_states():
    # an untyped cell at every server stays there: each visited state has
    # one problem per server
    _, _, cfg = checked_config(load(CORPUS / "anomaly" / "mixed.ctrd"))
    cfg.servers = [Server({**s.store, Location(9, 9, True): Plain(NatMax(1), CON)}, s.seq)
                   for s in cfg.servers]
    s = explore(cfg, 24, check_wf_each=True)
    assert s.wf_problems == 3 * s.states > 0


def test_explore_steps_one_delivery_to_identical_servers(monkeypatch):
    # enabled offers and step_cloud takes a delivery to each of 5 identical
    # servers; explore steps the first alone, as the rest reach its class,
    # and so on down to the last server that lacks the update
    _, _, initial = checked_config("servers 5; client 1 { ref@ava(nat 1 @ava, (ava,1)) }")
    cfg = run(initial, make_scheduler("drain-fair"), 2).config   # avaref + send
    (m,) = cfg.mailbox
    choices = enabled(cfg)
    assert choices == [Choice(Kind.DELIVER_UPDATE, message=m, server=r) for r in range(5)]
    for choice in choices:
        step_cloud(cfg, choice)
    stepped = []

    def recorded(config, choice):
        stepped.append(choice)
        return step_cloud(config, choice)

    monkeypatch.setattr(ctrd.runtime_cloud, "step_cloud", recorded)
    summary = explore(initial, 8)
    assert [c.kind for c in stepped] == [Kind.CLIENT_STEP, Kind.SEND, *[Kind.DELIVER_UPDATE] * 5,
                                         Kind.GC_UPDATE]
    assert stepped[2] == choices[0] and [c.server for c in stepped[2:7]] == [0, 1, 2, 3, 4]
    assert (summary.steps, summary.states, summary.truncated) == (8, 9, 0)


# ---------------------------------------------------------------------------
# well-formedness

def test_wf_initial_and_final():
    for path in corpus_files("run"):
        _, _, cfg = checked_config(load(path))
        assert check_wf(cfg).ok, path.name
        res = run(cfg, make_scheduler("drain-fair"), 500)
        assert check_wf(res.config).ok, path.name


def test_wf_detects_corrupted_store():
    _, _, cfg = checked_config("servers 3; client 1 { ref@con(nat 1 @con, (con,1)) }")
    res = run(cfg, make_scheduler("drain-fair"), 10)
    bad = res.config.copy()
    o = bad.global_ids[Identifier(CON, 1)]
    first = bad.servers[0]
    # a Bool at a Lat cell
    bad.servers = [Server({**first.store, o: Plain(BoolVal(True), CON)}, first.seq),
                   *bad.servers[1:]]
    report = check_wf(bad)
    assert not report.ok
    assert any("server 0" in p for p in report.problems)
    assert check_wf(res.config).ok


def test_wf_types_residuals_against_a_copy_of_the_identifier_typing():
    # typing a ref records its identifier; the map every configuration
    # shares must not learn one a residual term names
    _, _, cfg = checked_config("servers 2; client 1 { ref@con(nat 1 @con, (con,1)) }")
    before = dict(cfg.id_typing)
    cfg.clients[1] = initial_client(1, parse_term("ref@con(nat 2 @con, (con,9))"))
    assert check_wf(cfg).ok
    assert cfg.id_typing == before and Identifier(CON, 9) not in cfg.id_typing


# A con Lat cell c1.r1 at (con,1) and a con Bool cell c1.r2 at (con,2), both
# on every server; c9.r9 and (con,9) are typed nowhere.
_WF_BASE = ("servers 2; client 1 { let a = ref@con(nat 1 @con, (con,1)) in "
            "let b = ref@con(true @con, (con,2)) in unit @loc }")
_LAT, _BOOL, _UNTYPED = Location(1, 1, True), Location(1, 2, True), Location(9, 9, True)
_C1, _C9 = Identifier(CON, 1), Identifier(CON, 9)


def _bind_in_client(ident, o):
    def corrupt(cfg):
        cfg.own_client(1).idmap[ident] = o
    return corrupt


def _bind_globally(ident, o):
    def corrupt(cfg):
        cfg.global_ids = {**cfg.global_ids, ident: o}
    return corrupt


def _store_at_server(o, v):
    def corrupt(cfg):
        first = cfg.servers[0]
        cfg.servers = [Server({**first.store, o: v}, first.seq), *cfg.servers[1:]]
    return corrupt


def _buffered(m):
    def corrupt(cfg):
        cfg.own_client(1).buffer = (m,)
    return corrupt


def _in_flight(m):
    def corrupt(cfg):
        cfg.mailbox = (m,)
    return corrupt


def _residual(src):
    def corrupt(cfg):
        cfg.clients[1] = initial_client(1, parse_term(src))
    return corrupt


_UNTYPABLE = Update(EventId(1, 9), _LAT, _C1, Plain(_UNTYPED, CON), CON)
_NO_TARGET = Update(EventId(1, 9), _UNTYPED, None, Plain(NatMax(1), AVA), AVA)
_MISFIT = Update(EventId(1, 9), _LAT, _C1, Plain(BoolVal(True), CON), CON)
_UNTYPED_REQ = Req(EventId(1, 9), _C9, LOC)

_WF_CLAUSES = {
    "client-id-untyped": (_bind_in_client(_C9, _LAT),
                          "client 1: (con,9) missing from the identifier typing"),
    "client-location-untyped": (_bind_in_client(_C1, _UNTYPED),
                                "client 1: (con,1) maps to untyped c9.r9"),
    "client-not-subtype": (_bind_in_client(_C1, _BOOL),
                           "client 1: (con,1) maps to c1.r2 of type Bool@con, "
                           "identifier typing Lat@con"),
    "global-id-untyped": (_bind_globally(_C9, _LAT),
                          "global map: (con,9) missing from the identifier typing"),
    "global-location-untyped": (_bind_globally(_C1, _UNTYPED),
                                "global map: (con,1) maps to untyped c9.r9"),
    "global-not-subtype": (_bind_globally(_C1, _BOOL),
                           "global map: (con,1) maps to c1.r2 of type Bool@con, "
                           "identifier typing Lat@con"),
    "store-location-untyped": (_store_at_server(_UNTYPED, Plain(NatMax(1), CON)),
                               "server 0: c9.r9 missing from the store typing"),
    "store-value-untypable": (_store_at_server(_LAT, Plain(_UNTYPED, CON)),
                              "server 0: value at c1.r1 untypable"),
    "store-not-subtype": (_store_at_server(_LAT, Plain(BoolVal(True), CON)),
                          "server 0: value at c1.r1 has type Bool@con, store typing Lat@con"),
    "buffer-payload-untypable": (_buffered(_UNTYPABLE),
                                 "client 1 buffer: update payload untypable"),
    "buffer-no-target": (_buffered(_NO_TARGET), "client 1 buffer: update has no target typing"),
    "buffer-misfit": (_buffered(_MISFIT),
                      "client 1 buffer: update payload Bool@con incompatible with Lat@con"),
    "buffer-request-untyped": (_buffered(_UNTYPED_REQ),
                               "client 1 buffer: request for untyped (con,9)"),
    "mailbox-payload-untypable": (_in_flight(_UNTYPABLE), "mailbox: update payload untypable"),
    "mailbox-no-target": (_in_flight(_NO_TARGET), "mailbox: update has no target typing"),
    "mailbox-misfit": (_in_flight(_MISFIT),
                       "mailbox: update payload Bool@con incompatible with Lat@con"),
    "mailbox-request-untyped": (_in_flight(_UNTYPED_REQ), "mailbox: request for untyped (con,9)"),
    "residual-untypable": (_residual("!(unit @loc)"), "client 1: residual term untypable"),
}


@pytest.mark.parametrize("clause", sorted(_WF_CLAUSES))
def test_every_wf_clause_reports_what_breaks_it(clause):
    # one corruption of a well-formed quiescent configuration per clause,
    # and that clause's report alone
    corrupt, want = _WF_CLAUSES[clause]
    _, _, cfg = checked_config(_WF_BASE)
    done = run(cfg, make_scheduler("drain-fair"), 100).config
    assert check_wf(done).ok
    bad = done.copy()
    corrupt(bad)
    problems = check_wf(bad).problems
    assert len(problems) == 1 and problems[0].startswith(want), problems
    assert check_wf(done).ok


def test_server_permutations_share_one_orbit_key():
    # the same update delivered to server 0 and to server 2
    cfg, m = _partly_delivered(0)
    other, _ = _partly_delivered(2)
    assert check_wf(other).ok
    assert explore_oracle.structural_key(other) != explore_oracle.structural_key(cfg)
    table: dict = {}
    assert other.key(table) == cfg.key(table)
    done, _ = step_cloud(cfg, Choice(Kind.DELIVER_UPDATE, message=m, server=1))
    done, _ = step_cloud(done, Choice(Kind.DELIVER_UPDATE, message=m, server=2))
    assert done.key(table) != cfg.key(table)


def test_a_server_log_is_keyed_as_a_set():
    # two updates reach server 0 in either order: one key, as no reader of
    # the log sees its order; a log holding other events is another key
    _, _, cfg = checked_config("servers 2; client 1 { let a = ref@ava(nat 1 @ava, (ava,1)) "
                               "in ref@ava(nat 2 @ava, (ava,2)) }")
    while steps := [c for c in enabled(cfg) if c.kind in (Kind.CLIENT_STEP, Kind.SEND)]:
        cfg, _ = step_cloud(cfg, steps[0])
    a, b = cfg.mailbox

    def deliver(*keys):
        out = cfg
        for k in keys:
            out, _ = step_cloud(out, Choice(Kind.DELIVER_UPDATE, message=k, server=0))
        return out

    ab, ba = deliver(a, b), deliver(b, a)
    ab_log, ba_log = tuple(ab.servers[0].seq), tuple(ba.servers[0].seq)
    assert ab_log == ba_log[::-1] and len(ab_log) == 2
    assert explore_oracle.structural_key(ab) != explore_oracle.structural_key(ba)
    table: dict = {}
    assert ab.key(table) == ba.key(table)
    assert len({ab.key(table), deliver(a).key(table), deliver(b).key(table)}) == 3


def test_every_field_of_an_update_changes_its_int():
    # a message is keyed as it is: an equal one shares its int, and one
    # that differs in any field is another
    _, m = _partly_delivered()
    table: dict = {}
    assert message_id(replace(m), table) == message_id(m, table)
    for change in ({"location": Location(1, 9, True)}, {"ident": None},
                   {"value": Plain(NatMax(2), AVA)}, {"event": EventId(1, 2)},
                   {"effect": CON}):
        assert message_id(replace(m, **change), table) != message_id(m, table), change


def test_a_delivery_leaves_the_mailbox_and_its_int_untouched():
    cfg, m = _partly_delivered()
    table: dict = {}
    before = cfg.key(table)
    done, _ = step_cloud(cfg, Choice(Kind.DELIVER_UPDATE, message=m, server=1))
    assert done.mailbox is cfg.mailbox
    assert done._key[4] == cfg._key[4]      # one int for the mailbox and both maps
    assert done.key(table)[1] == before[1]    # after the one client's int
    assert done.key(table) != before


def test_an_update_is_delivered_once_per_server_and_collected_after_all():
    cfg, m = _partly_delivered()
    with pytest.raises(IllegalChoice):
        step_cloud(cfg, Choice(Kind.DELIVER_UPDATE, message=m, server=0))
    with pytest.raises(IllegalChoice):
        step_cloud(cfg, Choice(Kind.GC_UPDATE, message=m))
    for r in (1, 2):
        cfg, _ = step_cloud(cfg, Choice(Kind.DELIVER_UPDATE, message=m, server=r))
    assert enabled(cfg) == [Choice(Kind.GC_UPDATE, message=m)]
    cfg, _ = step_cloud(cfg, Choice(Kind.GC_UPDATE, message=m))
    assert cfg.mailbox == ()


@pytest.mark.parametrize("path", RUNNABLE, ids=[f"{p.parent.name}/{p.stem}" for p in RUNNABLE])
def test_no_step_writes_a_server_store_in_place(path, monkeypatch):
    # a server is a value: with every store a read-only view, a step that
    # wrote one in place instead of building a new Server would raise
    # TypeError, and nothing explore or a seeded run reports may change
    def summaries():
        _, _, cfg = checked_config(load(path))
        res = run(cfg, make_scheduler("random", 0), 10_000)
        return explore(cfg, 12), (res.status, [e.rule for e in res.trace],
                                  explore_oracle.structural_key(res.config))

    expected = summaries()
    monkeypatch.setattr(ctrd.runtime_cloud, "Server",
                        lambda store, seq: Server(MappingProxyType(store), seq))
    assert summaries() == expected


def test_wf_detects_untyped_location():
    _, _, cfg = checked_config("servers 3; client 1 { unit @loc }")
    bad = cfg.copy()
    second = bad.servers[1]
    untyped = Server({**second.store, Location(9, 9, True): Plain(NatMax(1), CON)}, second.seq)
    bad.servers = [bad.servers[0], untyped, *bad.servers[2:]]
    assert not check_wf(bad).ok
    assert check_wf(cfg).ok         # the copy shared the servers until it replaced one
