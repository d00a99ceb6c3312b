"""Abstract executions: trace folding, the mask representation against
the pair-set oracle, the consistency checkers, observations, and
noninterference."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, RUNNABLE_COUNT, checked_config, corpus_files, load, log_of
from explore_oracle import structural_key
from ctrd.abstract_exec import (
    AbstractExecution, EcVerdict, MalformedTrace, NotQuiescent, Operation,
    ProgramsNotLowEquivalent, _ar_closures, ar_chain, check_ec,
    check_low_equivalence, check_noninterference, check_sc, con_observation,
    value_json, project, project_con, record, return_value_of,
)
from pair_oracle import (
    PairHistory, mask_history, pairs_of, program_order, relation_compose,
    relation_inverse, relation_negate, set_pairs,
)
import pair_oracle
from ctrd.lattice import NatMax
from ctrd.parser import parse_program, parse_term
from ctrd.runtime_cloud import Server, make_scheduler, run
from ctrd.runtime_local import EventId
from ctrd.syntax import AVA, CON, Identifier, Location, Plain
from trace_oracle import join_of_writes


def run_src(src: str, sched="drain-fair", max_steps=500, seed=0):
    _, _, cfg = checked_config(src)
    scheduler = make_scheduler(sched, seed)
    return run(cfg, scheduler, max_steps)


# ---------------------------------------------------------------------------
# record()

def test_record_con_ref_then_read():
    # hand fold: the creation event must be visible to the later read
    res = run_src("""servers 3;
    client 1 { let c = ref@con(nat 1 @con, (con,1)) in !c }""")
    ex = record(res.trace)
    (ref_e,) = [e for e, op in ex.op.items() if op.kind == "ref"]
    (rd_e,) = [e for e, op in ex.op.items() if op.kind == "rd"]
    assert (ref_e, rd_e) in ex.vis and (ref_e, rd_e) in ex.rb
    assert ex.rval[rd_e] == Plain(NatMax(1), CON)
    assert ex.rval[ref_e] == ex.op[ref_e].location


def test_record_eps_only_trace_is_empty():
    res = run_src("servers 3; client 1 { nat 1 @loc \\/ nat 2 @loc }")
    ex = record(res.trace)
    assert not ex.op and not ex.rb and not ex.vis and not ex.ar


def test_record_delivery_adds_ar_per_server():
    res = run_src("servers 3; client 1 { ref@ava(nat 1 @ava, (ava,1)) }")
    deliveries = [e for e in res.trace if e.rule == "E-PROCESS-UPDATE"]
    assert len(deliveries) == 3
    ex = record(res.trace)
    (w,) = ex.op
    # each delivery contributed that server's prior log; here logs were empty
    assert all(b == w for _, b in ex.ar) or not ex.ar
    # against a busier log the pairs accumulate per delivery
    res2 = run_src("""servers 3;
    client 1 { let c = ref@con(nat 1 @con, (con,1)) in ref@ava(nat 2 @ava, (ava,2)) }""")
    ex2 = record(res2.trace)
    (con_e,) = [e for e, op in ex2.op.items() if op.label == CON]
    (ava_e,) = [e for e, op in ex2.op.items() if op.label == AVA]
    assert (con_e, ava_e) in ex2.ar


def test_record_rejects_missing_snapshot():
    from ctrd.runtime_cloud import TraceEntry
    from ctrd.runtime_local import Action
    from ctrd.syntax import LOC
    bad = TraceEntry(0, "E-CONDEREF",
                     Action(LOC, "rd", CON, EventId(1, 1), Location(1, 1, True),
                            Plain(NatMax(1), CON)), client=1)
    with pytest.raises(MalformedTrace):
        record([bad])


def _entry(rule, kind, event, snapshot, label=CON, synced=False, client=1):
    from ctrd.runtime_cloud import TraceEntry
    from ctrd.runtime_local import Action
    from ctrd.syntax import LOC
    act = Action(LOC, kind, label, event, Location(1, 1, True), Plain(NatMax(1), label),
                 snapshot=snapshot, synced=synced)
    return TraceEntry(0, rule, act, client=client)


def test_record_rejects_read_of_unrecorded_event():
    w, r = EventId(1, 1), EventId(2, 1)
    write = _entry("E-CONASSIGN", "wr", w, log_of(()), synced=True)
    record([write, _entry("E-CONDEREF", "rd", r, log_of([w]), client=2)])   # well formed
    with pytest.raises(MalformedTrace, match="outside the history"):
        record([_entry("E-CONDEREF", "rd", r, log_of([w]), client=2)])
    with pytest.raises(MalformedTrace, match="outside the history"):
        # an event of a client with no event of its own in the trace
        record([write, _entry("E-CONDEREF", "rd", r, log_of([w, EventId(3, 1)]), client=2)])
    with pytest.raises(MalformedTrace, match="over clients"):
        # a log whose mask is laid out over other clients
        record([write, _entry("E-CONDEREF", "rd", r, log_of([w], (1, 2)), client=2),
                _entry("E-CONDEREF", "rd", EventId(2, 2), log_of([w]), client=2)])


def test_record_rejects_delivery_over_unrecorded_event():
    u, other = EventId(1, 1), EventId(1, 2)
    buffered = _entry("E-AVAASSIGN", "wr", u, None, label=AVA)
    ok = _entry("E-PROCESS-UPDATE", "wr", u, log_of(()), label=AVA)
    record([buffered, ok])
    bad = _entry("E-PROCESS-UPDATE", "wr", u, log_of([other]), label=AVA)
    with pytest.raises(MalformedTrace, match="outside the history"):
        record([buffered, bad])
    # a synced write's shared log is held to the same rule
    with pytest.raises(MalformedTrace, match="outside the history"):
        record([_entry("E-CONASSIGN", "wr", u, log_of([other]), synced=True)])


def test_events_recorded_once():
    for path in corpus_files("run"):
        res = run_src(load(path))
        ex = record(res.trace)
        non_eps = [e for e in res.trace
                   if e.action.kind != "eps" and e.rule != "E-PROCESS-UPDATE"]
        assert len(ex.op) == len(non_eps), path.name


# ---------------------------------------------------------------------------
# relation algebra

E1, E2, E3 = EventId(1, 1), EventId(1, 2), EventId(2, 1)


def test_compose_inverse_negate():
    assert relation_compose({(E1, E2)}, {(E2, E3)}) == {(E1, E3)}
    assert relation_negate(set(), frozenset({E1, E2})) == {
        (E1, E1), (E1, E2), (E2, E1), (E2, E2)}
    r = {(E1, E2), (E2, E3)}
    assert relation_inverse(relation_inverse(r)) == r


def test_program_order_is_same_client_rb():
    ex = PairHistory()
    ex.rb = {(E1, E2), (E1, E3)}
    ex.sp = {1: frozenset({E1, E2}), 2: frozenset({E3})}
    assert program_order(ex) == {(E1, E2)}


# ---------------------------------------------------------------------------
# masks against the pair-set oracle

def _random_history(rng: random.Random) -> AbstractExecution:
    """A history that satisfies every SC clause, then, half the time, one to
    three pairs of RB, VIS or AR toggled, sometimes against an event outside
    the history, and a return value spoiled one time in ten."""
    clients = rng.sample([1, 2, 3], rng.randint(1, 3))
    queues = {c: [EventId(c, n) for n in range(1, rng.randint(1, 4) + 1)] for c in clients}
    order = []
    while any(queues.values()):
        order.append(queues[rng.choice([c for c in clients if queues[c]])].pop(0))
    pos = {e: i for i, e in enumerate(order)}
    op = {e: _op(rng.choice(("rd", "wr", "ref")), CON, e.n) for e in order}
    rval = {e: return_value_of(o) for e, o in op.items()}
    if rng.random() < 0.1:
        rval[rng.choice(order)] = Plain(NatMax(999), CON)
    before = [(a, b) for a in order for b in order if pos[a] < pos[b]]
    rels = {
        "rb": {(a, b) for a, b in before if a.client == b.client or rng.random() < 0.3},
        "vis": {(a, b) for a, b in before if op[b].kind == "rd"},
        "ar": {(a, b) for a, b in before if rng.random() < 0.7},
    }
    if rng.random() < 0.5:
        ghost = EventId(clients[0], 9)
        pool = order + [ghost] * (rng.random() < 0.3)
        for _ in range(rng.randint(1, 3)):
            rels[rng.choice(("rb", "vis", "ar"))] ^= {(rng.choice(pool), rng.choice(pool))}
    return mask_history(op, rval, **rels)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_check_sc_agrees_with_pair_oracle(rng):
    ex = _random_history(rng)
    assert check_sc(ex) == pair_oracle.check_sc(pairs_of(ex))


def test_random_histories_pass_and_fail_every_clause():
    seen = {name: set() for name in ("po_in_vis", "ar_vis_closure",
                                     "ar_neg_vis_closure", "rval_ok")}
    for seed in range(300):
        v = check_sc(_random_history(random.Random(seed)))
        for name in seen:
            seen[name].add(getattr(v, name))
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def _chain_history(rng: random.Random) -> AbstractExecution:
    """A history whose ar is a chain over all but up to two of its events,
    or, half the time, a near chain: two members with equal rows, one ar bit
    dropped or added, or a member that is no event. Each vis row is a
    prefix of the chain, a prefix with one member's bit flipped, or any
    row, and each rb row its vis row, perhaps with its client's events;
    then up to two vis bits and, half the time, up to two ar bits are
    flipped. Written straight into the masks."""
    counts = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
    ex = AbstractExecution(range(1, len(counts) + 1))
    for c, k in zip(ex.clients, counts):
        for n in range(1, k + 1):
            op = _op(rng.choice(("rd", "wr", "ref")), CON, n)
            ex.add_event(EventId(c, n), op)
            ex.rval[EventId(c, n)] = return_value_of(op)
    events = [ex.index(e) for e in ex.op]
    order = rng.sample(events, len(events))[rng.randint(0, 2):]
    near = rng.choice((None,) * 4 + ("equal rows", "bit dropped", "bit added", "outside"))
    if near == "outside" and order:         # a lone member would be in no pair
        ghosts = [i for i in range(len(ex.ar_masks)) if i not in events]
        if not ghosts:                      # a row past the last event
            ghosts = [len(ex.ar_masks)]
            ex._grow(ghosts[0])
        order.insert(rng.randint(0, len(order)), rng.choice(ghosts))
    size = len(ex.ar_masks)
    prefixes = [0]
    for i in order:
        ex.ar_masks[i] = prefixes[-1]
        prefixes.append(prefixes[-1] | 1 << i)
    pairs = [(a, b) for b in range(size) for a in range(size)]
    if near == "equal rows" and len(order) > 1:
        j = rng.randint(1, len(order) - 1)
        ex.ar_masks[order[j]] &= ~(1 << order[j - 1])
    elif near == "bit dropped" and len(order) > 1:
        a, b = rng.choice([(a, b) for a, b in pairs if ex.ar_masks[b] >> a & 1])
        ex.ar_masks[b] &= ~(1 << a)
    elif near == "bit added" and size:
        a, b = rng.choice([(a, b) for a, b in pairs if not ex.ar_masks[b] >> a & 1])
        ex.ar_masks[b] |= 1 << a
    for b in range(size):
        row = rng.choice(("prefix", "flipped", "any"))
        if row == "any":
            ex.vis_masks[b] = rng.getrandbits(size)
        else:
            ex.vis_masks[b] = rng.choice(prefixes)
            if row == "flipped":
                ex.vis_masks[b] ^= 1 << rng.choice(order or [b])
        ex.rb_masks[b] = ex.vis_masks[b] | rng.choice((0, ex.sp_masks[b % len(counts)]))
    for masks in [ex.vis_masks] + [ex.ar_masks] * (rng.random() < 0.5):
        for a, b in rng.sample(pairs, min(len(pairs), rng.randint(0, 2))):
            masks[b] ^= 1 << a
    return ex


def _is_chain(ex: AbstractExecution) -> bool:
    """ar read off the definition: a strict total order on the events it
    relates."""
    ar = set(ex.ar)
    field = {e for pair in ar for e in pair}
    return (field <= set(ex.op) and not any(a == b for a, b in ar)
            and all((a, b) in ar or (b, a) in ar for a in field for b in field if a != b)
            and all((a, d) in ar for a, b in ar for c, d in ar if b == c))


@settings(max_examples=1000, deadline=None)
@given(st.randoms(use_true_random=True))
def test_both_sc_paths_agree_with_pair_oracle_on_chains_and_near_chains(rng):
    # the chain path is taken exactly on chains, and it, the general path
    # and the pair oracle give the same verdict, field by field
    ex = _chain_history(rng)
    assert (ar_chain(ex) is not None) == _is_chain(ex)
    verdict = check_sc(ex)
    assert (verdict.ar_vis_closure, verdict.ar_neg_vis_closure) == _ar_closures(ex)
    assert verdict == pair_oracle.check_sc(pairs_of(ex))


def _runnable_programs():
    return sorted(p for p in CORPUS.rglob("*.ctrd") if p.parent.name != "reject")


def test_check_sc_agrees_with_pair_oracle_on_the_corpus():
    # every con projection takes the chain path: its ar is the common log
    programs = _runnable_programs()
    assert len(programs) == RUNNABLE_COUNT
    for path in programs:
        for seed in range(3):
            res = run_src(load(path), sched="random", seed=seed)
            con = project_con(record(res.trace))
            assert ar_chain(con) is not None, (path.name, seed)
            for ex in (record(res.trace), con):
                assert check_sc(ex) == pair_oracle.check_sc(pairs_of(ex)), (path.name, seed)


def test_equal_histories_folded_in_either_order_have_equal_keys():
    a, b, c = EventId(1, 1), EventId(2, 1), EventId(1, 2)
    ops = {a: _op("wr", CON, 1), b: _op("wr", CON, 2), c: _op("rd", CON, 3)}
    keys = []
    for order in ([a, b, c], [b, a, c]):
        ex = AbstractExecution([2, 1])
        for e in order:
            ex.add_event(e, ops[e])
            ex.rval[e] = return_value_of(ops[e])
        set_pairs(ex, "rb", {(a, c), (b, c)})
        set_pairs(ex, "vis", {(a, c), (b, c)})
        set_pairs(ex, "ar", {(a, b)})
        keys.append(ex.key())
    assert keys[0] == keys[1]
    set_pairs(ex, "ar", {(b, a)})
    assert ex.key() != keys[0]


def _folded(order, ops, rvals, table):
    """An execution holding ops in the given order, keyed in table after
    each event, as explore keys every state on a path."""
    ex = AbstractExecution([2, 1])
    for e in order:
        ex = ex.copy()
        ex.add_event(e, ops[e])
        ex.rval[e] = rvals[e]
        ex.key_id(table)
    for rel in ("rb", "vis"):
        set_pairs(ex, rel, {(order[0], order[2]), (order[1], order[2])})
    return ex.copy()    # a keyed execution is not edited; its copy is


def test_interned_execution_keys_follow_the_structural_key():
    a, b, c = EventId(1, 1), EventId(2, 1), EventId(1, 2)
    ops = {a: _op("wr", CON, 1), b: _op("wr", CON, 2), c: _op("rd", CON, 3)}
    rvals = {e: return_value_of(op) for e, op in ops.items()}
    table: dict = {}
    # the same events folded in either order: one int
    one, two = _folded([a, b, c], ops, rvals, table), _folded([b, a, c], ops, rvals, table)
    assert one.key() == two.key() and one.key_id(table) == two.key_id(table)
    # one return value differs: another int
    other = _folded([a, b, c], ops, {**rvals, c: Plain(NatMax(4), CON)}, table)
    assert other.key() != one.key() and other.key_id(table) != one.key_id(table)
    # a fresh table gives fresh ints, still equal exactly where the keys are
    fresh: dict = {}
    assert two.key_id(fresh) == one.key_id(fresh) != other.key_id(fresh)


def test_interleavings_of_independent_steps_reach_one_explored_state():
    from ctrd.runtime_cloud import Choice, Kind, step_cloud
    from ctrd.abstract_exec import fold_entry
    _, _, cfg = checked_config("""servers 2;
    client 1 { ref@ava(nat 1 @ava, (ava,1)) }
    client 2 { ref@ava(nat 2 @ava, (ava,2)) }""")
    keys = []
    for order in ((1, 2), (2, 1)):
        c, ex = cfg, AbstractExecution(cfg.clients)
        for cid in order:
            c, entry = step_cloud(c, Choice(Kind.CLIENT_STEP, cid))
            fold_entry(ex, entry)
        keys.append((structural_key(c), ex.key()))
    assert len(ex.op) == 2 and keys[0] == keys[1]


def test_pair_view_edits_reach_the_masks():
    res = run_src(load(corpus_files("con")[0]))
    ex = project_con(record(res.trace))
    reads = {e for e, op in ex.op.items() if op.kind == "rd"}
    po_into_reads = sorted((a, b) for a, b in ex.vis
                           if b in reads and a.client == b.client and (a, b) in ex.rb)
    assert po_into_reads and check_sc(ex).ok
    corrupted = ex.copy()
    corrupted.vis.discard(po_into_reads[0])
    assert po_into_reads[0] not in corrupted.vis and po_into_reads[0] in ex.vis
    assert len(corrupted.vis) == len(ex.vis) - 1
    assert not check_sc(corrupted).po_in_vis and check_sc(ex).ok
    set_pairs(corrupted, "vis", {*corrupted.vis, po_into_reads[0]})
    assert corrupted.key() == ex.key() and check_sc(corrupted).ok


# ---------------------------------------------------------------------------
# projections

def test_project_con_identity_on_pure_con():
    res = run_src(load(corpus_files("con")[0]))
    ex = record(res.trace)
    proj = project_con(ex)
    assert proj.op == ex.op and proj.vis == ex.vis and proj.ar == ex.ar
    assert not project(ex, AVA).op


def test_project_drops_cross_label_pairs():
    res = run_src(load(corpus_files("run")[3]))   # the mixed workload
    ex = record(res.trace)
    proj = project_con(ex)
    con_events = set(proj.op)
    assert all(op.label == CON for op in proj.op.values())
    assert all(a in con_events and b in con_events for a, b in proj.rb | proj.vis | proj.ar)


# ---------------------------------------------------------------------------
# check_sc

def _op(kind, label, n):
    return Operation(kind, label, Location(1, n, True), Plain(NatMax(n), label))


def test_check_sc_negative_control():
    # (a,b) in AR and (b,c) in VIS but (a,c) not visible: prefix closure fails
    a, b, c = EventId(1, 1), EventId(1, 2), EventId(2, 1)
    ex = mask_history(
        op={a: _op("wr", CON, 1), b: _op("wr", CON, 2), c: _op("rd", CON, 3)},
        rval={a: "unit", b: "unit", c: Plain(NatMax(3), CON)},
        rb=set(), vis={(b, c)}, ar={(a, b)},
    )
    assert ex.sp == {1: frozenset({a, b}), 2: frozenset({c})}
    v = check_sc(ex)
    assert not v.ar_vis_closure and not v.ar_neg_vis_closure
    assert not v.ok and ar_chain(ex) is not None     # on the chain path


@st.composite
def _ar_vis_histories(draw):
    # event numbers start at 1, as the runtime numbers them
    events = [EventId(draw(st.integers(1, 3)), n)
              for n in range(1, draw(st.integers(1, 6)) + 1)]
    pairs = st.sets(st.tuples(st.sampled_from(events), st.sampled_from(events)))
    return mask_history(op={e: _op("wr", CON, e.n) for e in events},
                        ar=draw(pairs), vis=draw(pairs))


@settings(max_examples=200, deadline=None)
@given(_ar_vis_histories())
def test_check_sc_negative_closure_is_the_contrapositive(ex):
    # ar^-1 ; not-vis within not-vis says: (b,a) in ar and (a,c) in vis give
    # (b,c) in vis, which is ar ; vis within vis, when ar and vis relate only
    # events of the history
    v = check_sc(ex)
    assert v.ar_neg_vis_closure == v.ar_vis_closure


def test_check_sc_vacuous_on_empty():
    assert check_sc(AbstractExecution()).ok


def test_check_sc_rval_mismatch_detected():
    a = EventId(1, 1)
    ex = mask_history(op={a: _op("wr", CON, 1)}, rval={a: Plain(NatMax(9), CON)})
    assert ex.sp == {1: frozenset({a})}
    assert not check_sc(ex).rval_ok


def test_return_value_function():
    assert return_value_of(_op("wr", CON, 1)) == "unit"
    assert return_value_of(_op("ref", CON, 2)) == Location(1, 2, True)
    assert return_value_of(_op("rd", CON, 3)) == Plain(NatMax(3), CON)


# ---------------------------------------------------------------------------
# check_ec

def test_check_ec_requires_quiescence():
    res = run_src(load(corpus_files("ava")[0]), max_steps=3)
    assert res.status == "step-limit"
    with pytest.raises(NotQuiescent):
        check_ec(record(res.trace), res.config)


def test_check_ec_convergence_and_oracle():
    res = run_src(load(corpus_files("ava")[2]))   # concurrent nat writes
    ex = record(res.trace)
    v = check_ec(ex, res.config)
    assert v.ok
    for e, op in ex.op.items():
        if op.label == AVA and op.kind in ("wr", "ref"):
            o = op.location
            assert res.config.servers[0].store[o].raw == join_of_writes(res.trace, o)


def test_check_ec_vacuous_without_ava_ops():
    res = run_src(load(corpus_files("con")[0]))
    assert check_ec(record(res.trace), res.config).ok


def _check_ec_by_scan(exec_, config) -> EcVerdict:
    """check_ec by linear scans: each ava write is looked up in every
    server log, and probed where it landed, which a scan of its client's
    identifier map finds."""
    ava_writes = {e for e, op in exec_.op.items()
                  if op.label == AVA and op.kind in ("wr", "ref")}
    in_all_logs = all(all(e in tuple(s.seq) for s in config.servers) for e in ava_writes)
    stores = [sorted(s.store.items()) for s in config.servers]
    converged = all(st == stores[0] for st in stores[1:])

    def landed(e):
        o = exec_.op[e].location
        for ident, bound in config.clients[e.client].idmap.items():
            if bound == o and ident in config.global_ids:
                return config.global_ids[ident]
        return o

    agree = True
    for o in {landed(e) for e in ava_writes}:
        held = [s.store.get(o) for s in config.servers]
        if any(v is None for v in held) or any(v != held[0] for v in held[1:]):
            agree = False
    rval_ok = all(exec_.rval.get(e) == return_value_of(op)
                  for e, op in exec_.op.items() if op.label == AVA)
    return EcVerdict(in_all_logs and agree, rval_ok, converged)


def test_check_ec_agrees_with_the_log_scan_on_the_corpus():
    programs = _runnable_programs()
    dropped = 0
    for path in programs:
        for seed in range(3):
            res = run_src(load(path), sched="random", seed=seed)
            if res.status != "quiescent":
                continue
            ex = record(res.trace)
            assert check_ec(ex, res.config) == _check_ec_by_scan(ex, res.config), \
                (path.name, seed)
            # the same history against a last server that lost one ava write
            writes = [e for e, op in ex.op.items()
                      if op.label == AVA and op.kind in ("wr", "ref")]
            if not writes:
                continue
            cfg = res.config.copy()
            last = cfg.servers[-1]
            cfg.servers = [*cfg.servers[:-1], Server(
                last.store, log_of([e for e in last.seq if e != writes[0]], last.seq.clients))]
            v = check_ec(ex, cfg)
            assert v == _check_ec_by_scan(ex, cfg), (path.name, seed)
            assert not v.eventual_visibility
            dropped += 1
    assert dropped > 0


# ---------------------------------------------------------------------------
# observation

def test_con_observation_last_write_wins():
    res = run_src("""servers 3;
    client 1 { let c = ref@con(nat 3 @con, (con,1)) in c := nat 5 @con }""")
    obs = con_observation(res.config)
    assert obs == {"(con,1)": {"nat": 5}}
    # replay oracle: apply the synced writes in trace order
    replay = {}
    for e in res.trace:
        if e.action.synced and e.action.kind in ("wr", "ref"):
            replay[e.action.location] = e.action.value.raw
    o = res.config.global_ids[Identifier(CON, 1)]
    assert replay[o] == NatMax(5)


def test_con_observation_does_not_see_server_order():
    # hand-built: the replicas of a con cell disagree, then the same
    # configuration with its servers swapped
    res = run_src("servers 2; client 1 { ref@con(nat 1 @con, (con,1)) }")
    cfg = res.config.copy()
    o = cfg.global_ids[Identifier(CON, 1)]
    cfg.servers = [Server({**cfg.servers[0].store, o: Plain(NatMax(5), CON)}, cfg.servers[0].seq),
                   *cfg.servers[1:]]
    swapped = cfg.copy()
    swapped.servers = swapped.servers[::-1]
    obs = con_observation(cfg)
    assert obs == {"(con,1)": {"disagreement": [{"nat": 1}, {"nat": 5}]}}
    assert con_observation(swapped) == obs


def test_con_observation_empty_without_con_ids():
    res = run_src("servers 3; client 1 { ref@ava(nat 1 @ava, (ava,1)) }")
    assert con_observation(res.config) == {}


def test_con_observation_deterministic_single_client():
    src = load(corpus_files("con")[1])
    seen = set()
    for seed in range(10):
        res = run_src(src, sched="random", seed=seed)
        assert res.status == "quiescent"
        seen.add(str(con_observation(res.config)))
    assert len(seen) >= 1   # races may legitimately differ across schedules


def test_erase_value_forms():
    from ctrd.lattice import GSet
    from ctrd.syntax import BoolVal, UNIT
    assert value_json(Plain(NatMax(3), CON), labels=False) == {"nat": 3}
    assert value_json(Plain(GSet(frozenset("ab")), AVA), labels=False) == {"set": ["a", "b"]}
    assert value_json(Plain(BoolVal(False), CON), labels=False) == {"bool": False}
    assert value_json(Plain(UNIT, CON), labels=False) == "unit"


# ---------------------------------------------------------------------------
# noninterference

def test_low_equivalence_accepts_ava_literal_diff():
    check_low_equivalence(parse_term("ref@ava(nat 1 @ava, (ava,1))"),
                          parse_term("ref@ava(nat 9 @ava, (ava,1))"))


def test_low_equivalence_rejects_con_diff():
    # literals in surface syntax; a structure difference by form and
    # position, and within one form by the first field that differs
    with pytest.raises(ProgramsNotLowEquivalent, match="nat 1 @con vs nat 2 @con$"):
        check_low_equivalence(parse_term("nat 1 @con"), parse_term("nat 2 @con"))
    with pytest.raises(ProgramsNotLowEquivalent, match="Var at 1:2 vs Var at 1:2: name x vs y$"):
        check_low_equivalence(parse_term("!x"), parse_term("!y"))
    with pytest.raises(ProgramsNotLowEquivalent,
                       match=r"Ref at 1:1 vs Ref at 1:1: label con vs ava$"):
        check_low_equivalence(parse_term("ref@con(nat 0 @con, (con,1))"),
                              parse_term("ref@ava(nat 0 @ava, (ava,1))"))
    with pytest.raises(ProgramsNotLowEquivalent,
                       match=r"Record at 1:1 vs Record at 1:1: fields a, b vs a, c$"):
        check_low_equivalence(parse_term("{a = unit @loc, b = unit @loc}@loc"),
                              parse_term("{a = unit @loc, c = unit @loc}@loc"))
    with pytest.raises(ProgramsNotLowEquivalent, match="Deref at 1:1 vs Var at 1:1$"):
        check_low_equivalence(parse_term("!x"), parse_term("x"))


def _spine(n: int, ava: int, last: int) -> str:
    """n lets, each binding a con literal but the first, which binds
    `nat ava @ava`; the last binds `nat last @con`."""
    lets = [f"let x0 = nat {ava} @ava in "]
    lets += [f"let x{i} = nat {last if i == n - 1 else i} @con in " for i in range(1, n)]
    return "".join(lets) + "unit @loc"


def test_low_equivalence_walks_a_long_let_spine_in_a_loop():
    # 5,000 lets under the default recursion limit
    base = parse_term(_spine(5000, 1, 0))
    check_low_equivalence(base, parse_term(_spine(5000, 2, 0)))
    with pytest.raises(ProgramsNotLowEquivalent, match="nat 0 @con vs nat 7 @con$"):
        check_low_equivalence(base, parse_term(_spine(5000, 1, 7)))


def test_noninterference_identical_programs():
    prog = parse_program(load(corpus_files("nif")[2]))   # pair1_a
    v = check_noninterference(prog, prog, 12)
    assert v.equivalent


def test_noninterference_pair():
    pa = parse_program(load(corpus_files("nif")[2]))
    pb = parse_program(load(corpus_files("nif")[3]))
    v = check_noninterference(pa, pb, 12)
    assert v.equivalent and v.observations_a


def test_noninterference_rejects_con_pair():
    pa = parse_program(load(corpus_files("nif")[0]))   # con_diff_a
    pb = parse_program(load(corpus_files("nif")[1]))
    with pytest.raises(ProgramsNotLowEquivalent):
        check_noninterference(pa, pb, 12)


# ---------------------------------------------------------------------------
# invariants on recorded corpus executions

def test_rval_matches_return_function_everywhere():
    # check_sc's po_in_vis and both checkers' rval_ok hold by construction
    # on a recorded history: A-READ writes one row into a read's rb and
    # vis, no write has a vis row, and rval is taken from op's action
    reads = 0
    runs = [("drain-fair", 0)] + [("random", seed) for seed in range(3)]
    for path in _runnable_programs():
        for sched, seed in runs:
            res = run_src(load(path), sched=sched, seed=seed)
            ex = record(res.trace)
            for e, op in ex.op.items():
                assert ex.rval[e] == return_value_of(op), (path.name, e)
                i = ex.index(e)
                if op.kind == "rd":
                    assert ex.rb_masks[i] == ex.vis_masks[i], (path.name, e)
                    reads += 1
                else:
                    assert not ex.vis_masks[i], (path.name, e)
    assert reads > 0


def test_ar_total_over_synced_events():
    for path in corpus_files("con"):
        res = run_src(load(path))
        ex = record(res.trace)
        writes = [e for e, op in ex.op.items()
                  if op.label == CON and op.kind in ("wr", "ref")]
        for i, a in enumerate(writes):
            for b in writes[i + 1:]:
                assert ((a, b) in ex.ar) != ((b, a) in ex.ar), (a, b)
