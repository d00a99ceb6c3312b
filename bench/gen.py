"""Seeded input generators for the benchmark, with the expectations each
generated program carries.

Every expectation here is worked out from the program text alone: the
last value each client writes to its own con cell, and the number of
buffered (ava-mode) writes. None of it comes from running ctrd.

All programs of one workload share one size class: every client gets the
same multiset of operations, and a seed only changes their order and the
literal values. The step count of a run then varies by a few steps in a
thousand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SERVERS = 3
CLIENTS = (1, 2, 3)
SHARED_AVA = "(ava,1)"


@dataclass(frozen=True)
class Generated:
    """One program file and what its runs must show."""

    name: str
    text: str
    servers: int
    con_final: dict[str, int]   # str(identifier) -> last nat written by its owner
    buffered_writes: int        # ref@ava + ava assigns + flexwrite@ava


def _ident(label: str, cid: int, k: int) -> str:
    return f"({label},{100 * cid + k})"


def _neighbour(cid: int) -> int:
    return CLIENTS[cid % len(CLIENTS)]


# Operation mixes: kind -> count per client. Every client gets the same
# multiset, so the size class does not depend on the seed.
LONG_MIX = {
    "con_assign": 17, "con_deref": 11, "nb_deref": 6,
    "flexwrite_ava": 10, "flexwrite_con": 10,
    "flexread_ava": 7, "flexread_con": 7,
    "ava_assign": 10, "ava_deref": 6,
    "loc_assign": 10, "loc_deref": 6,
}

HISTORY_MIX = {
    "con_assign": 16, "con_deref": 12, "nb_deref": 8,
    "flexwrite_ava": 3, "flexwrite_con": 8,
    "flexread_ava": 2, "flexread_con": 6,
    "ava_assign": 3, "ava_deref": 2,
    "loc_assign": 2, "loc_deref": 1,
}


def scale_mix(mix: dict[str, int], factor: float) -> dict[str, int]:
    """The same mix at another size; every kind keeps at least one op."""
    return {k: max(1, round(n * factor)) for k, n in mix.items()}


def _client_text(rng: random.Random, cid: int, mix: dict[str, int],
                 with_clone: bool) -> tuple[str, int, int]:
    """One client's let-chain; returns (text, last con value, buffered writes)."""
    con = _ident("con", cid, 1)
    lines = []
    buffered = 0
    last_con = rng.randrange(1, 50)
    lines.append(f"let c = ref@con(nat {last_con} @con, {con}) in")
    lines.append(f"let pa = ref@oac(nat {rng.randrange(50)} @con, {_ident('oac', cid, 2)}) in")
    lines.append(f"let pc = ref@oac(nat {rng.randrange(50)} @con, {_ident('oac', cid, 3)}) in")
    lines.append(f"let l = ref@loc(nat {rng.randrange(50)} @loc, {_ident('loc', cid, 4)}) in")
    if cid == CLIENTS[0]:
        lines.append(f"let a = ref@ava(nat {rng.randrange(50)} @ava, {SHARED_AVA}) in")
        buffered += 1
    else:
        lines.append(f"let a = await({SHARED_AVA}) in")
    lines.append(f"let n = await({_ident('con', _neighbour(cid), 1)}) in")
    if with_clone:
        lines.append(f"let y1 = ref@loc(nat {rng.randrange(50)} @loc, {_ident('loc', cid, 5)}) in")
        lines.append(f"let y2 = ref@loc(y1, {_ident('loc', cid, 6)}) in")
        lines.append(f"let y3 = ref@loc(y2, {_ident('loc', cid, 7)}) in")
        lines.append(f"let cl = clone@con(y3, {_ident('con', cid, 8)}) in")

    ops = [kind for kind, n in sorted(mix.items()) for _ in range(n)]
    rng.shuffle(ops)
    for k, kind in enumerate(ops):
        v = rng.randrange(1, 1000)
        if kind == "con_assign":
            op = f"c := nat {v} @con"
            last_con = v
        elif kind == "con_deref":
            op = "!c"
        elif kind == "nb_deref":
            op = "!n"
        elif kind == "flexwrite_ava":
            op = f"flexwrite@ava(pa, nat {v} @con)"
            buffered += 1
        elif kind == "flexwrite_con":
            op = f"flexwrite@con(pc, nat {v} @con)"
        elif kind == "flexread_ava":
            op = f"flexread@ava({rng.choice(('pa', 'pc'))})"
        elif kind == "flexread_con":
            op = f"flexread@con({rng.choice(('pa', 'pc'))})"
        elif kind == "ava_assign":
            op = f"a := nat {v} @ava"
            buffered += 1
        elif kind == "ava_deref":
            op = "!a"
        elif kind == "loc_assign":
            op = f"l := nat {v} @loc"
        elif kind == "loc_deref":
            op = "!l"
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        lines.append(f"let x{k} = {op} in")
    lines.append("!l")
    return "\n  ".join(lines), last_con, buffered


def chain_program(seed: int, name: str, mix: dict[str, int],
                  with_clone: bool) -> Generated:
    """Three clients, each a let-chain over its own con, oac and loc cells,
    an ava cell shared through await, and reads of a neighbour's con cell.

    Each oac cell is written in one mode only: `pa` by flexwrite@ava and
    `pc` by flexwrite@con (mixing both on one cell leaves replicas
    diverged, a known fault kept out of the workloads).
    """
    rng = random.Random(seed)
    bodies, con_final, buffered = [], {}, 0
    for cid in CLIENTS:
        text, last, nbuf = _client_text(rng, cid, mix, with_clone)
        bodies.append(f"client {cid} {{\n  {text}\n}}\n")
        con_final[_ident("con", cid, 1)] = last
        buffered += nbuf
    text = f"servers {SERVERS};\n" + "".join(bodies)
    return Generated(name, text, SERVERS, con_final, buffered)


MIXED_TEMPLATE = """servers 3;
// an available write races a later consistent write; an early available
// read can observe them out of arbitration order
client 1 {{
  let p = ref@oac(nat {p0} @con, (oac,1)) in
  let q = ref@con(nat {q0} @con, (con,2)) in
  let w = flexwrite@ava(p, nat {w} @con) in
  q := nat {q1} @con
}}
client 2 {{
  let p = await((oac,1)) in
  flexread@ava(p)
}}
"""


def anomaly_variant(seed: int, name: str) -> Generated:
    """corpus/anomaly/mixed.ctrd with its four literals drawn from the seed.

    Only literals change, so every variant has the same state space.
    """
    rng = random.Random(seed)
    p0, q0 = rng.randrange(1, 500), rng.randrange(1, 500)
    w, q1 = p0 + rng.randrange(1, 500), q0 + rng.randrange(1, 500)
    text = MIXED_TEMPLATE.format(p0=p0, q0=q0, w=w, q1=q1)
    return Generated(name, text, 3, {}, 1)


def deep_chain(depth: int) -> str:
    """A single-client let-chain of con assigns, `depth` lets deep."""
    body = "".join(f"let x{i} = (c := nat {i} @con) in\n" for i in range(depth))
    return ("servers 1;\nclient 1 {\nlet c = ref@con(nat 0 @con, (con,1)) in\n"
            + body + "!c\n}\n")


def write_all(programs: list[Generated], directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for g in programs:
        path = directory / f"{g.name}.ctrd"
        path.write_text(g.text, encoding="utf-8")
        paths.append(str(path))
    return paths
