"""Scaling curves of the simulator and the checkers, one subcommand each.

    PYTHONPATH=src python3 tools/curve.py sc --factors 1.3 --repeat 1
    PYTHONPATH=src python3 tools/curve.py explore --servers 2,3,5 --repeat 1
    PYTHONPATH=src python3 tools/curve.py explore --program corpus/ava/nat_race.ctrd \
        --servers 2,3 --max-depth 60 --repeat 1
    PYTHONPATH=src python3 tools/curve.py step --sizes 50,100 --repeat 1
    PYTHONPATH=src python3 tools/curve.py trace --factors 0.5,1 --repeat 1
    PYTHONPATH=src python3 tools/curve.py front --sizes 50,100 --repeat 1
    PYTHONPATH=src python3 tools/curve.py names --counts 1,8 --repeat 1
    PYTHONPATH=src python3 tools/curve.py import --repeat 1

Every curve but `import` (see import_curve) is measured the same way. The
inputs of every point (a program from `bench/gen.py`, used read-only, from `names_program` here, or from the
corpus; parsed,
typechecked and, for `sc` and `trace`, run) are built once and not timed. Each timed call gets a fresh state built
outside the span, then a `gc.collect()`, then one `time.perf_counter` span
around the call alone. The calls go in rounds over all points, so that a
slow spell of a shared machine falls on every point alike, and each point
reports the median of its --repeat spans, and their quartiles as `_q1`
and `_q3` beside it (with --repeat 1, the one span for all three). Prints
one JSON object: the Python version, the curve's settings, --repeat and
the points.
"""

from __future__ import annotations

import argparse
import builtins
import dataclasses
import gc
import importlib
import json
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack
from functools import partial
from importlib.machinery import SourceFileLoader
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
from ctrd import cli  # noqa: E402
from ctrd.abstract_exec import ar_chain, check_sc, project_con, record  # noqa: E402
from ctrd.parser import parse_program, tokenize  # noqa: E402
from ctrd.runtime_cloud import Server, explore, initial_config, make_scheduler, run  # noqa: E402
from ctrd.typecheck import check_program  # noqa: E402

MIXED = "corpus/anomaly/mixed.ctrd"
PROGRAM_SEED, SCHEDULER_SEED = 11000, 5     # the trace curve's run-long program


def checked(text: str) -> tuple:
    """A program and its identifier typing: the arguments of initial_config."""
    prog = parse_program(text)
    return prog, check_program(prog).id_types


def timed(inputs: list, calls, repeat: int) -> list[dict]:
    """calls(x) gives, for input x, name -> a zero-argument call on a fresh
    state; it is built untimed in every round. Returns, per input, name ->
    (the call's last result, its spans in seconds)."""
    spans = [{} for _ in inputs]
    results = [{} for _ in inputs]
    for _ in range(repeat):
        for x, span, result in zip(inputs, spans, results):
            for name, call in calls(x).items():
                gc.collect()
                t0 = time.perf_counter()
                result[name] = call()
                span.setdefault(name, []).append(time.perf_counter() - t0)
    return [{name: (result[name], ts) for name, ts in span.items()}
            for span, result in zip(spans, results)]


def quartiles(values: list[float]) -> list[float]:
    """q1, the median and q3 of values; one value stands for all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3


def spread(name: str, values: list[float]) -> dict:
    """name: the median of values; name_q1 and name_q3: its quartiles."""
    q1, median, q3 = quartiles(values)
    return {name: median, f"{name}_q1": q1, f"{name}_q3": q3}


def numbers(text: str, kind=float) -> list:
    return [kind(x) for x in text.split(",")]


def _path(history) -> str:
    return "general" if ar_chain(history) is None else "chain"


def sc_curve(args) -> tuple[dict, list]:
    """check_sc time against history size. Each point generates the
    three-client program `gen.chain_program` with `scale_mix(HISTORY_MIX,
    k)`, runs it under the random scheduler seeded with --seed, and times
    `record` and `project_con` on its trace and `check_sc` on the whole
    history and on its con projection, and reports which path of check_sc
    each took: "chain" when its ar is a chain (ar_chain), else "general".
    The whole history mixes con and ava events, is no chain and fails SC;
    the con projection's ar is the common log, a chain, and it passes, so
    its check does all the work. These let-chains run to several hundred
    lets; the simulator walks a let spine in a loop, so the recursion
    limit stays as it is."""
    factors, runs = numbers(args.factors), []
    for k in factors:
        g = gen.chain_program(args.seed, "curve", gen.scale_mix(gen.HISTORY_MIX, k), False)
        res = run(initial_config(*checked(g.text)), make_scheduler("random", args.seed),
                  10 ** 7)
        history = record(res.trace)
        runs.append((res, history, project_con(history)))
    got = timed(runs, lambda r: {"record": partial(record, r[0].trace),
                                 "project": partial(project_con, r[1]),
                                 "full": partial(check_sc, r[1]),
                                 "con": partial(check_sc, r[2])}, args.repeat)
    points = []
    for k, (res, history, con), t in zip(factors, runs, got):
        (full, full_s), (con_v, con_s) = t["full"], t["con"]
        points.append({"factor": k, "status": res.status, "steps": len(res.trace),
                       "events": len(history.op), **spread("record_s", t["record"][1]),
                       **spread("project_s", t["project"][1]), **spread("check_sc_s", full_s),
                       "sc_ok": full.ok, "sc_path": _path(history),
                       "con_events": len(con.op), **spread("check_sc_con_s", con_s),
                       "sc_con_ok": con_v.ok, "sc_con_path": _path(con)})
    return {"seed": args.seed}, points


def explore_curve(args) -> tuple[dict, list]:
    """explore's visited states, steps taken and time against the number of
    servers. Each point explores --program, a path from the repository
    root, with that many servers to --max-depth. The longest trace of the
    default, corpus/anomaly/mixed.ctrd, is 18 steps, so the default depth
    of 24 cuts none. server_keys counts the Server.key calls of one more,
    untimed search: a server keyed once per search is keyed once per
    server state."""
    prog = checked((ROOT / args.program).read_text(encoding="utf-8"))
    servers = numbers(args.servers, int)
    got = timed(servers, lambda n: {"explore": partial(
        explore, initial_config(*prog, n), args.max_depth)}, args.repeat)
    points = []
    for n, t in zip(servers, got):
        s, secs = t["explore"]
        keys, key = [], Server.key
        with mock.patch.object(Server, "key", lambda server: keys.append(1) or key(server)):
            explore(initial_config(*prog, n), args.max_depth)
        points.append({"servers": n, "states": s.states, "traces": s.traces,
                       "truncated": s.truncated, "steps": s.steps, **spread("seconds", secs),
                       **spread("states_per_s", [s.states / x for x in secs]),
                       "server_keys": len(keys)})
    return {"program": args.program, "max_depth": args.max_depth}, points


def step_curve(args) -> tuple[dict, list]:
    """run steps per second against the length of a let-chain. Each point
    runs `gen.deep_chain(N)` (one client, one server, N lets that each
    assign a con cell) under the drain-fair scheduler from a fresh initial
    configuration. A step that cost the same at every length would give a
    flat curve; `drop` is the first point's steps per second over the last
    point's. Substitution and its free-name sets walk the residual let
    spine in a loop, so any length runs under the default recursion
    limit, which this curve leaves as it is."""
    sizes = numbers(args.sizes, int)
    got = timed([checked(gen.deep_chain(n)) for n in sizes], lambda p: {"run": partial(
        run, initial_config(*p), make_scheduler("drain-fair"), 10 ** 6)}, args.repeat)
    points = []
    for n, t in zip(sizes, got):
        res, secs = t["run"]
        points.append({"n": n, "status": res.status, "steps": res.steps,
                       **spread("seconds", secs),
                       **spread("steps_per_s", [res.steps / x for x in secs])})
    return {"program": "bench/gen.deep_chain", "scheduler": "drain-fair",
            "drop": points[0]["steps_per_s"] / points[-1]["steps_per_s"]}, points


def trace_curve(args) -> tuple[dict, list]:
    """--trace rendering cost against the size of a generated program. Each
    point runs `gen.chain_program(PROGRAM_SEED, ..., scale_mix(LONG_MIX, F),
    True)`, the run-long program shape at scale factor F, once under the
    random scheduler seeded with SCHEDULER_SEED, and times
    `ctrd.cli.trace_json` on its trace. It reports the entries, the lengths
    of the in-memory snapshot logs summed (`snapshot_elements`; the file
    names each log by a handle of fixed size, so this sum no longer
    measures it), the MB written, the rendering time, and bytes and ms per
    entry."""
    factors, traces = numbers(args.factors), []
    for f in factors:
        g = gen.chain_program(PROGRAM_SEED, f"long{f}", gen.scale_mix(gen.LONG_MIX, f), True)
        res = run(initial_config(*checked(g.text)),
                  make_scheduler("random", SCHEDULER_SEED), 10 ** 6)
        assert res.status == "quiescent", (f, res.status)
        traces.append(res.trace)
    got = timed(traces, lambda tr: {"render": partial(cli.trace_json, tr)}, args.repeat)
    points = []
    for f, tr, t in zip(factors, traces, got):
        text, secs = t["render"]
        size = len(text.encode("utf-8"))
        points.append({"factor": f, "entries": len(tr),
                       "snapshot_elements": sum(e.action.snapshot.len for e in tr
                                                if e.action.snapshot is not None),
                       "mb": size / 1e6, "bytes_per_entry": size / len(tr),
                       **spread("ms", [x * 1e3 for x in secs]),
                       **spread("ms_per_entry", [x * 1e3 / len(tr) for x in secs])})
    return {"program": "bench/gen.chain_program, LONG_MIX scaled",
            "program_seed": PROGRAM_SEED, "scheduler": "random",
            "seed": SCHEDULER_SEED}, points


def front_curve(args) -> tuple[dict, list]:
    """parse and typecheck time against the length of a let-chain. Each
    point parses `gen.deep_chain(N)` and typechecks the parsed program,
    timed apart. It reports the tokens, tokens per second of parsing (the
    lexer included) and the parse plus typecheck time per let; `growth` is
    the last point's time per let over the first point's. The front end
    reads a let spine in a loop, so the recursion limit stays as it is."""
    sizes = numbers(args.sizes, int)
    texts = [gen.deep_chain(n) for n in sizes]
    got = timed([(text, checked(text)[0]) for text in texts],
                lambda x: {"parse": partial(parse_program, x[0]),
                           "check": partial(check_program, x[1])}, args.repeat)
    points = []
    for n, text, t in zip(sizes, texts, got):
        tokens, parse_s, check_s = len(tokenize(text)), t["parse"][1], t["check"][1]
        points.append({"n": n, "tokens": tokens, **spread("parse_s", parse_s),
                       **spread("check_s", check_s),
                       **spread("tokens_per_s", [tokens / x for x in parse_s]),
                       **spread("us_per_let", [1e6 * (p + c) / n
                                               for p, c in zip(parse_s, check_s)])})
    return {"program": "bench/gen.deep_chain",
            "growth": points[-1]["us_per_let"] / points[0]["us_per_let"]}, points


NAMES_SPINE = 400       # the lets below the names of names_program


def names_program(k: int, lets: int = NAMES_SPINE) -> str:
    """One client on one server: k names bound at the head, then a spine of
    lets whose let i joins name i mod k with a literal into a name of its
    own, so that every head name is read all the way down."""
    head = "".join(f"let n{j} = nat {j} @loc in\n" for j in range(k))
    spine = "".join(f"let x{i} = n{i % k} \\/ nat {i} @loc in\n" for i in range(lets))
    return f"servers 1;\nclient 1 {{\n{head}{spine}unit @loc\n}}\n"


def names_curve(args) -> tuple[dict, list]:
    """run steps per second against the number of names bound at the head
    of a let spine. Each point runs `names_program(K)` (K head lets, then
    NAMES_SPINE lets that each read one of them) under the drain-fair
    scheduler from a fresh initial configuration. A step that substituted
    each head value through the rest of the spine would cost K spines in
    all, and the curve would fall with K; `drop` is the first point's
    steps per second over the last point's."""
    counts = numbers(args.counts, int)
    got = timed([checked(names_program(k)) for k in counts], lambda p: {"run": partial(
        run, initial_config(*p), make_scheduler("drain-fair"), 10 ** 6)}, args.repeat)
    points = []
    for k, t in zip(counts, got):
        res, secs = t["run"]
        points.append({"k": k, "status": res.status, "steps": res.steps,
                       **spread("seconds", secs),
                       **spread("steps_per_s", [res.steps / x for x in secs])})
    return {"program": "tools/curve.py names_program", "lets": NAMES_SPINE,
            "scheduler": "drain-fair",
            "drop": points[0]["steps_per_s"] / points[-1]["steps_per_s"]}, points


def import_curve(args) -> tuple[dict, list]:
    """The cost of a fresh import of ctrd.cli, as every CLI process pays it
    and as bench/run.py's set-up times it: each round drops the ctrd
    modules from sys.modules and imports ctrd.cli again, compiling every
    source, since no bytecode cache is read (sys.pycache_prefix names an
    empty directory) or written. Each round times the whole import and
    the parts of it spent compiling sources and building classes (class
    statements, which run the __init_subclass__ that builds a
    ctrd.record class, and dataclass decorators); each part reports the
    median and quartiles of its --repeat rounds, in ms, and its calls per
    round (sources compiled; class statements and decorators)."""
    spent = {"import": [], "compile": [], "classes": []}
    count = dict.fromkeys(spent, 0)

    def timing(part, fn):
        def call(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spent[part][-1] += time.perf_counter() - t0
                count[part] += 1
        return call

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "dont_write_bytecode", True))
        stack.enter_context(mock.patch.object(
            sys, "pycache_prefix", stack.enter_context(tempfile.TemporaryDirectory())))
        for owner, name, part in ((SourceFileLoader, "source_to_code", "compile"),
                                  (builtins, "__build_class__", "classes"),
                                  (dataclasses, "_process_class", "classes")):
            stack.enter_context(mock.patch.object(owner, name, timing(part, getattr(owner, name))))
        for _ in range(args.repeat):
            for name in [m for m in sys.modules if m == "ctrd" or m.startswith("ctrd.")]:
                del sys.modules[name]
            for times in spent.values():
                times.append(0.0)
            gc.collect()
            timing("import", importlib.import_module)("ctrd.cli")
    points = []
    for part, times in spent.items():
        q1, median, q3 = quartiles(times)
        points.append({"part": part, "calls": count[part] // args.repeat,
                       "median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3})
    return {"module": "ctrd.cli"}, points


# name -> (curve, its flags and their defaults; a flag's type is its default's)
CURVES = {
    "sc": (sc_curve, {"--factors": "1.3,2.6,5.3,10.6,13.5", "--seed": 7, "--repeat": 3}),
    "explore": (explore_curve, {"--program": MIXED, "--servers": "2,3,4,5,6",
                                "--max-depth": 24, "--repeat": 3}),
    "step": (step_curve, {"--sizes": "50,200,500,1000,2000", "--repeat": 15}),
    "trace": (trace_curve, {"--factors": "1,2,4", "--repeat": 15}),
    "front": (front_curve, {"--sizes": "500,1000,2000,5000", "--repeat": 7}),
    "names": (names_curve, {"--counts": "1,4,16,64", "--repeat": 15}),
    "import": (import_curve, {"--repeat": 25}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="curve", required=True)
    for name, (curve, flags) in CURVES.items():
        p = sub.add_parser(name, help=curve.__doc__.split(". ")[0])
        for flag, default in flags.items():
            p.add_argument(flag, type=type(default), default=default)
    args = ap.parse_args(argv)
    settings, points = CURVES[args.curve][0](args)
    print(json.dumps({"python": sys.version.split()[0], **settings,
                      "repeat": args.repeat, "points": points}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
