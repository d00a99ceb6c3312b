"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible under pytest -s or in the
captured output) and enforces the stated runtime budget.
"""

from __future__ import annotations

import time

import pytest

from conftest import CORPUS, canonical_shape, checked_config, corpus_files, load
from ctrd.abstract_exec import (
    check_ec, check_noninterference, check_sc, project_con, record,
)
from ctrd.clone import reachable_graph
from ctrd.parser import parse_program
from ctrd.runtime_cloud import explore, make_scheduler, run
from ctrd.runtime_local import CtrdRuntimeError
from ctrd.syntax import AVA, Await, CON, Identifier, LOC
from ctrd.typecheck import CheckError, ErrorKind, check_program
from trace_oracle import join_of_writes

REJECT_KINDS = {
    "listing_bug": ErrorKind.EFFECT_VIOLATION,          # T-ASSIGN effect premise
    "assign_flow": ErrorKind.FLOW_VIOLATION,            # T-ASSIGN subtype premise
    "assign_oac_ref": ErrorKind.OAC_MISUSE,             # T-ASSIGN target not oac
    "assign_oac_payload": ErrorKind.OAC_MISUSE,         # T-ASSIGN payload not oac
    "app_latent": ErrorKind.EFFECT_VIOLATION,           # T-APP latent bound
    "app_arg_flow": ErrorKind.FLOW_VIOLATION,           # T-APP argument subtype
    "app_nonfun": ErrorKind.MISMATCH,                   # T-APP arrow premise
    "if_guard": ErrorKind.MISMATCH,                     # T-IF boolean guard
    "if_branches": ErrorKind.MISMATCH,                  # T-IF branch join
    "ref_label_flow": ErrorKind.FLOW_VIOLATION,         # T-REF-1 content label
    "ref_ava_nonlat": ErrorKind.NON_LATTICE_AVA,        # T-REF-1 ava lattice
    "ref_escape": ErrorKind.ESCAPING_LOCAL_REF,         # T-REF-1 refs premise
    "ref_effect": ErrorKind.EFFECT_VIOLATION,           # T-REF-1 effect premise
    "ref_id_label": ErrorKind.ID_LABEL_MISMATCH,        # T-REF-1 identifier label
    "oacref_label": ErrorKind.FLOW_VIOLATION,           # T-REF-2 strict label
    "oacref_nonlat": ErrorKind.NON_LATTICE_AVA,         # T-REF-2 lattice content
    "flexread_target": ErrorKind.OAC_MISUSE,            # T-FLEXRD oac target
    "flexwrite_payload_label": ErrorKind.FLOW_VIOLATION,  # T-FLEXWRT payload label
    "flexwrite_payload_type": ErrorKind.MISMATCH,       # T-FLEXWRT payload shape
    "deref_oac": ErrorKind.OAC_MISUSE,                  # T-DEREF oac exclusion
    "unbound_var": ErrorKind.UNBOUND,
    "clone_label": ErrorKind.OAC_MISUSE,
    "clone_target": ErrorKind.MISMATCH,
    "clone_id_label": ErrorKind.ID_LABEL_MISMATCH,
    "oac_literal": ErrorKind.OAC_MISUSE,
}


def _passed(n: int, label: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {n:02d} {label}: PASS {detail}".rstrip())


def test_criterion_01_typechecker_corpus():
    start = time.monotonic()
    rejects = corpus_files("reject")
    accepts = corpus_files("accept")
    assert len(rejects) >= 12 and len(accepts) >= 12
    for path in rejects:
        with pytest.raises(CheckError) as exc:
            check_program(parse_program(load(path)))
        want = REJECT_KINDS[path.stem]
        assert exc.value.kind == want, (path.name, exc.value.kind, want)
    for path in accepts:
        check_program(parse_program(load(path)))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, elapsed
    _passed(1, "typechecker corpus",
            f"({len(rejects)} rejects, {len(accepts)} accepts, {elapsed:.2f}s)")


def test_criterion_02_label_and_lattice_algebra():
    import itertools
    import random

    from ctrd.lattice import GSet, NatMax, lat_join, lat_leq, lat_meet
    from ctrd.syntax import LABELS, label_join, label_leq

    start = time.monotonic()
    chain = list(LABELS)
    for a, b in itertools.product(LABELS, repeat=2):
        assert label_leq(a, b) == (chain.index(a) <= chain.index(b))
        assert label_leq(a, b) == (label_join(a, b) == b)
    for a, b, c in itertools.product(LABELS, repeat=3):
        assert label_join(a, b) == label_join(b, a)
        assert label_join(label_join(a, b), c) == label_join(a, label_join(b, c))
        assert label_join(a, a) == a

    rng = random.Random(99)

    def rand(domain):
        if domain == "nat":
            return NatMax(rng.randrange(0, 64))
        return GSet(frozenset(rng.sample("abcdefgh", rng.randrange(0, 5))))

    cases = 0
    for _ in range(5_000):
        for domain in ("nat", "set"):
            a, b, c = rand(domain), rand(domain), rand(domain)
            assert lat_join(a, b) == lat_join(b, a)
            assert lat_meet(a, b) == lat_meet(b, a)
            assert lat_join(lat_join(a, b), c) == lat_join(a, lat_join(b, c))
            assert lat_meet(lat_meet(a, b), c) == lat_meet(a, lat_meet(b, c))
            assert lat_join(a, a) == a and lat_meet(a, a) == a
            assert lat_join(a, lat_meet(a, b)) == a
            assert lat_meet(a, lat_join(a, b)) == a
            assert lat_leq(a, b) == (lat_join(a, b) == b)
            cases += 1
    assert cases >= 10_000
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    _passed(2, "label/lattice algebra", f"({cases} randomized cases, {elapsed:.2f}s)")


def test_criterion_03_preservation_surrogate():
    start = time.monotonic()
    paths = corpus_files("run")
    assert len(paths) >= 10
    total_states = 0
    for path in paths:
        _, _, cfg = checked_config(load(path))
        summary = explore(cfg, 12, check_wf_each=True)
        assert summary.wf_problems == 0, path.name
        total_states += summary.states
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    _passed(3, "preservation surrogate",
            f"({len(paths)} programs, {total_states} configurations, {elapsed:.1f}s)")


def client_status(config, cid: int) -> str:
    """done (a value), blocked (on an await of an identifier no one has
    created yet) or ready."""
    client = config.clients[cid]
    if client.redex is None:
        return "done"
    t = client.redex.term
    if isinstance(t, Await) and t.ident not in client.idmap \
            and t.ident not in config.global_ids:
        return "blocked"
    return "ready"


def test_criterion_04_progress_surrogate():
    start = time.monotonic()
    for path in corpus_files("run"):
        _, _, cfg = checked_config(load(path))
        finals = []

        def on_trace(exec_, final, truncated, finals=finals):
            finals.append((final, truncated))

        # any Stuck would surface as a CtrdRuntimeError out of explore
        explore(cfg, 12, on_trace=on_trace)
        for final, truncated in finals:
            for cid in final.clients:
                status = client_status(final, cid)
                assert status in ("done", "blocked", "ready"), status
                if not truncated:
                    assert status in ("done", "blocked")

    # the one documented stuck path: driving through a duplicated marker
    src = ("servers 3; client 1 { let a = ref@loc(nat 1 @loc, (loc,1)) in "
           "let b = ref@loc(nat 2 @loc, (loc,1)) in !b }")
    _, _, cfg = checked_config(src)
    with pytest.raises(CtrdRuntimeError) as exc:
        run(cfg, make_scheduler("drain-fair"), 100)
    assert exc.value.kind == "DuplicatedIdentifier"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    _passed(4, "progress surrogate", f"({elapsed:.1f}s)")


def test_criterion_05_sequential_consistency_for_con():
    start = time.monotonic()
    paths = corpus_files("con")
    assert len(paths) >= 5
    traces_checked = 0
    for path in paths:
        src = load(path)
        _, _, cfg = checked_config(src)
        failures = []

        def on_trace(exec_, final, truncated, failures=failures):
            exec_con = project_con(exec_)
            v = check_sc(exec_con)
            if not v.ok:
                failures.append(v)

        summary = explore(cfg, 12, on_trace=on_trace)
        traces_checked += summary.traces
        assert not failures, path.name
        for seed in range(100):
            _, _, cfg2 = checked_config(src)
            res = run(cfg2, make_scheduler("random", seed), 1000)
            assert res.status == "quiescent", (path.name, seed)
            v = check_sc(project_con(record(res.trace)))
            assert v.ok, (path.name, seed, v.summary())
            traces_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    _passed(5, "sequential consistency (con)",
            f"({len(paths)} programs, {traces_checked} traces, {elapsed:.1f}s)")


def test_criterion_06_eventual_consistency_for_ava():
    start = time.monotonic()
    paths = corpus_files("ava")
    assert len(paths) >= 5
    for path in paths:
        for seed in range(10):
            _, _, cfg = checked_config(load(path))
            sched = make_scheduler("drain-fair") if seed == 0 else make_scheduler("random", seed)
            res = run(cfg, sched, 1000)
            assert res.status == "quiescent", (path.name, seed)
            exec_ = record(res.trace)
            verdict = check_ec(exec_, res.config)
            assert verdict.ok, (path.name, seed, verdict.summary())
            stores = [s.store for s in res.config.servers]
            assert all(st == stores[0] for st in stores[1:]), path.name
            # independent oracle: fold of the lattice join over the write multiset
            locs = {op.location for op in exec_.op.values()
                    if op.label == AVA and op.kind in ("wr", "ref")}
            for o in locs:
                want = join_of_writes(res.trace, o)
                got = res.config.servers[0].store[o].raw
                assert got == want, (path.name, o, got, want)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    _passed(6, "eventual consistency (ava)", f"({len(paths)} programs, {elapsed:.1f}s)")


def test_criterion_07_mixed_history_anomaly():
    start = time.monotonic()
    _, _, cfg = checked_config(load(CORPUS / "anomaly" / "mixed.ctrd"))
    witnesses = []

    def on_trace(exec_, final, truncated):
        full = check_sc(exec_)
        if not full.ok and check_sc(project_con(exec_)).ok:
            witnesses.append(full)

    summary = explore(cfg, 14, on_trace=on_trace)
    assert witnesses, "no interleaving violated the combined history"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, elapsed
    _passed(7, "mixed-history anomaly",
            f"({len(witnesses)} violating traces of {summary.traces}, {elapsed:.1f}s)")


def test_criterion_08_noninterference():
    start = time.monotonic()
    pairs = [("pair1_a.ctrd", "pair1_b.ctrd"),
             ("pair2_a.ctrd", "pair2_b.ctrd"),
             ("pair3_a.ctrd", "pair3_b.ctrd")]
    assert len(pairs) >= 3
    for a, b in pairs:
        prog_a = parse_program(load(CORPUS / "nif" / a))
        prog_b = parse_program(load(CORPUS / "nif" / b))
        verdict = check_noninterference(prog_a, prog_b, 12)
        assert verdict.truncated_a == 0 and verdict.truncated_b == 0, (a, b)
        assert verdict.observations_a, (a, b)
        assert verdict.equivalent, (a, b, verdict.observations_a, verdict.observations_b)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, elapsed
    _passed(8, "noninterference", f"({len(pairs)} pairs, {elapsed:.1f}s)")


def _chain_via_con_refs(n: int) -> str:
    lines = ["servers 3;", "client 1 {",
             "  let x1 = ref@con(nat 1 @con, (con,1)) in"]
    for i in range(2, n + 1):
        lines.append(f"  let x{i} = ref@con(x{i - 1}, (con,{i})) in")
    lines.append(f"  x{n}")
    lines.append("}")
    return "\n".join(lines)


def _chain_via_clone(n: int) -> str:
    lines = ["servers 3;", "client 1 {",
             "  let x1 = ref@loc(nat 1 @loc, (loc,1)) in"]
    for i in range(2, n + 1):
        lines.append(f"  let x{i} = ref@loc(x{i - 1}, (loc,{i})) in")
    lines.append(f"  clone@con(x{n}, (con,{n + 1}))")
    lines.append("}")
    return "\n".join(lines)


def test_criterion_09_clone_synchronization_counts():
    start = time.monotonic()
    for n in (3, 10, 50):
        _, _, cfg = checked_config(_chain_via_con_refs(n))
        res = run(cfg, make_scheduler("drain-fair"), 10_000)
        assert res.status == "quiescent"
        assert sum(1 for e in res.trace if e.action.synced) == n

        _, _, cfg = checked_config(_chain_via_clone(n))
        res = run(cfg, make_scheduler("drain-fair"), 10_000)
        assert res.status == "quiescent"
        synced = [e for e in res.trace if e.action.synced]
        assert len(synced) == 1 and synced[0].rule == "E-CLONE"
        assert synced[0].node_count == n

        client = res.config.clients[1]
        local = reachable_graph(client.idmap[Identifier(LOC, n)], client.store)
        remote = reachable_graph(res.config.global_ids[Identifier(CON, n + 1)],
                                 res.config.servers[0].store)
        assert canonical_shape(local) == canonical_shape(remote)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    _passed(9, "clone synchronization counts", f"(n in 3/10/50, {elapsed:.1f}s)")


def test_criterion_10_reproducibility(tmp_path, capsys):
    from ctrd.cli import main

    start = time.monotonic()
    samples = [CORPUS / "con" / "handoff.ctrd",
               CORPUS / "ava" / "gset_union.ctrd",
               CORPUS / "run" / "r04_mixed.ctrd",
               CORPUS / "run" / "r08_ava_deref.ctrd",
               CORPUS / "clone" / "chain3_clone.ctrd",
               CORPUS / "accept" / "flex_both.ctrd"]
    for i, path in enumerate(samples):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{i}_{attempt}.json"
            code = main(["run", str(path), "--seed", "42", "--trace", str(out)])
            capsys.readouterr()
            assert code == 0, path.name
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], path.name
    elapsed = time.monotonic() - start
    _passed(10, "seeded reproducibility", f"({len(samples)} programs, {elapsed:.1f}s)")
