"""Command-line front door: check, run, explore, nif.

Exit codes: 0 success; 1 parse/type diagnostics, including a number too
long for int() and a program nested too deeply off its let spines to
parse (the front end reads a let spine in a loop, and recurses once per
level of other nesting); 2 I/O failure (a program file that is not UTF-8
text, a closed stdout or an unwritable --trace or --exec file included),
a bad flag, an unknown --check name, --servers below 1, a negative
--max-steps or --max-depth, or a CTRD_MAX_STATES that is not an integer
of at least 1; 3 a requested check failed; 4 deadlock, step/state limit,
runtime fault, nesting too deep to simulate (the simulator substitutes
along a let spine in a loop, so only other nesting counts), an
explore/nif in which every trace was truncated at --max-depth, or a nif
whose observations differ only where a side cut traces at --max-depth
(no verdict); 5 programs not low-equivalent.

Reports go to stdout as one JSON line. `run --trace` writes its file with
`trace_json`, which lays out each entry from a fixed template, and each
value with `_json`, in one pass, byte for byte as `json.dumps(...,
indent=2, sort_keys=True)` would. A snapshot is written as a handle that
names its log and length (the entry's server's log, the common log, or a
local read's empty one), so each entry has a bounded size; a reader
recovers a log's events by replaying the entries before the handle, as a
delivery pushes its event onto its server's log and a synchronized rule
onto every log. `run --exec` writes the recorded execution through
`json.dumps`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import typecheck as tc
from .abstract_exec import (
    check_ec, check_sc, con_observation, NotQuiescent,
    ProgramsNotLowEquivalent, project_con, record, check_noninterference,
    value_json,
)
from .parser import ParseError, parse_program
from .runtime_cloud import (
    StateSpaceLimit, TraceEntry, check_wf, explore,
    initial_config, make_scheduler, max_states_from_env, run,
)
from .runtime_local import NO_EVENTS, CtrdRuntimeError
from .syntax import Location


def _die(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _load(path: str):
    """Parse and typecheck one program file; (program, check) or an exit code."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
    except OSError as e:
        return _die(2, f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        return _die(2, f"{path}: not UTF-8 text: {e.reason} at byte {e.start}")
    try:
        prog = parse_program(src)
        checked = tc.check_program(prog)
    except ParseError as e:
        return _die(1, f"{path}:{e.pos[0]}:{e.pos[1]}: SyntaxError: {e.message}")
    except tc.CheckError as e:
        return _die(1, e.render(path))
    except RecursionError:
        return _die(1, f"{path}: NestingTooDeep: the program nests deeper than the "
                       f"parser and typechecker can follow")
    return prog, checked


# ---------------------------------------------------------------------------
# JSON serialization of traces and reports

class _Memo(dict):
    """key -> render(key), rendered on the first lookup of the key."""

    __slots__ = ("render",)

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


# One trace entry as json.dumps(..., indent=2, sort_keys=True) lays it out
# inside the top-level list: keys in sorted order, each optional key's slot
# holding its whole line (newline, indent, key, value, comma) or nothing.
_ENTRY = (
    '  {\n'
    '    "action": {\n'
    '      "effect": %s,\n'
    '      "event": %s,%s%s\n'
    '      "location": %s,\n'
    '      "op": %s,%s\n'
    '      "source": %s,%s\n'
    '      "value": %s\n'
    '    },\n'
    '    "client": %s,%s\n'
    '    "rule": %s,\n'
    '    "server": %s,\n'
    '    "step": %s\n'
    '  }'
)


def _num(n) -> str:
    return "null" if n is None else repr(n)


def _json(x, pad: str) -> str:
    """json.dumps(x, indent=2, sort_keys=True) for the JSON forms that
    value_json makes, with every line after the first moved in by pad."""
    cls = x.__class__
    if cls is str:
        return _quote(x)
    if cls is not dict and cls is not list:
        return "null" if x is None else "true" if x is True else "false" if x is False else repr(x)
    if not x:
        return "{}" if cls is dict else "[]"
    inner = pad + "  "
    if cls is dict:
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in sorted(x.items())]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), pad)
    return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join([_json(v, inner) for v in x]), pad)


# A snapshot's handle inside an action, by the log the entry read: its
# server's log, the common log, or a local read's NO_EVENTS.
_SERVER_LOG = ('\n      "snapshot": {\n        "len": %d,\n        "log": "server",'
               '\n        "server": %d\n      },')
_COMMON_LOG = '\n      "snapshot": {\n        "len": %d,\n        "log": "common"\n      },'
_LOCAL_LOG = '\n      "snapshot": {\n        "len": 0,\n        "log": "local"\n      },'


def trace_json(trace: list[TraceEntry]) -> str:
    """The --trace file: exactly json.dumps of one dict per entry (keys
    step, rule, client, server, action, and nodes when counted) with
    indent=2 and sort_keys, plus a final newline, written in one pass. A
    snapshot is written as a handle that names its log and length, picked
    from the entry: NO_EVENTS is the local one, an entry with a server
    names that server's log, any other the common log. Each label, rule and
    event id is quoted once per call, and each value rendered once, keyed
    by identity and kept alive next to its text so that no id is reused
    while the call runs."""
    quoted = _Memo(lambda x: _quote(str(x)))    # labels, op kinds, rules, event ids
    values: dict[int, tuple] = {}
    parts = []
    for e in trace:
        a = e.action
        snap = a.snapshot
        v = a.value
        hit = values.get(id(v))
        if hit is None:
            hit = values[id(v)] = (v, _json(value_json(v), "      "))
        parts.append(_ENTRY % (
            quoted[a.effect],
            quoted[a.event] if a.event else "null",
            "" if a.label is None else f'\n      "label": {quoted[a.label]},',
            "" if a.literal_label is None
            else f'\n      "literal_label": {quoted[a.literal_label]},',
            _quote(str(a.location)) if a.location else "null",
            quoted[a.kind],
            "" if snap is None else _LOCAL_LOG if snap is NO_EVENTS
            else _COMMON_LOG % snap.len if e.server is None
            else _SERVER_LOG % (snap.len, e.server),
            _json([str(x) for x in a.source], "      ") if a.source else "null",
            '\n      "synced": true,' if a.synced else "",
            hit[1],
            _num(e.client),
            "" if e.node_count is None else f'\n    "nodes": {e.node_count!r},',
            quoted[e.rule],
            _num(e.server),
            _num(e.step),
        ))
    return "[\n" + ",\n".join(parts) + "\n]\n" if parts else "[]\n"


def execution_json(exec_) -> dict:
    ev = sorted(exec_.op)
    pairs = lambda rel: sorted([str(a), str(b)] for a, b in rel)
    return {
        "events": [str(e) for e in ev],
        "op": {str(e): {"kind": exec_.op[e].kind, "label": str(exec_.op[e].label),
                        "location": str(exec_.op[e].location),
                        "value": value_json(exec_.op[e].value)} for e in ev},
        "rval": {str(e): ("unit" if exec_.rval[e] == "unit" else
                          str(exec_.rval[e]) if isinstance(exec_.rval[e], Location)
                          else value_json(exec_.rval[e])) for e in ev},
        "rb": pairs(exec_.rb),
        "sp": {str(i): sorted(str(e) for e in s) for i, s in exec_.sp.items()},
        "vis": pairs(exec_.vis),
        "ar": pairs(exec_.ar),
    }


def _dump(path: str, text: str) -> Optional[int]:
    """Write text to path; None, or exit code 2 with one stderr line when
    the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        return _die(2, f"{path}: {e.strerror or e}")
    return None


# ---------------------------------------------------------------------------
# Subcommands

def cmd_check(args) -> int:
    worst = 0
    for path in args.files:
        loaded = _load(path)
        if isinstance(loaded, int):
            worst = max(worst, loaded)
            continue
        print(f"{path}: OK")
    return worst


@dataclass
class Unfinished:
    """Verdict of a check that needs a quiescent run on one that is not."""
    error: str
    ok = False

    def summary(self, name: str) -> str:
        return f"CHECK {name} FAIL not-quiescent"


def _ec(exec_, final):
    try:
        return check_ec(exec_, final)
    except NotQuiescent as e:
        return Unfinished(str(e))


# --check name -> verdict on a recorded history and the final configuration.
# Checkers are looked up at call time, so wrappers installed on the module
# globals see every call.
CHECKS = {
    "sc": lambda exec_, final: check_sc(exec_),
    "sc-con": lambda exec_, final: check_sc(project_con(exec_)),
    "ec": _ec,
    "wf": lambda exec_, final: check_wf(final),
}


def _check_names(spec: str) -> list[str]:
    """The names in a comma list, each once, in the order first given."""
    return list(dict.fromkeys(c for c in spec.split(",") if c))


def _verdicts(checks: list[str], res, exec_) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for name in checks:
        v = CHECKS[name](exec_, res.config)
        out[name] = {"ok": v.ok, **asdict(v)}
        print(v.summary(name))
    return out


def cmd_run(args) -> int:
    loaded = _load(args.file)
    if isinstance(loaded, int):
        return loaded
    prog, checked = loaded
    cfg = initial_config(prog, checked.id_types, args.servers)
    sched = (make_scheduler("random", args.seed) if args.seed is not None
             else make_scheduler(args.sched))
    try:
        res = run(cfg, sched, args.max_steps, wf_each_step="wf" in args.check)
    except CtrdRuntimeError as e:
        return _die(4, f"{args.file}: runtime fault: {e}")
    # the history is folded only for --exec and the checks that read it:
    # every check but wf, which reads the final configuration alone
    exec_ = record(res.trace) if args.exec_out or set(args.check) - {"wf"} else None
    verdicts = _verdicts(args.check, res, exec_)
    if args.trace and (failed := _dump(args.trace, trace_json(res.trace))):
        return failed
    if args.exec_out and (failed := _dump(
            args.exec_out,
            json.dumps(execution_json(exec_), indent=2, sort_keys=True) + "\n")):
        return failed
    report = {
        "file": args.file,
        "scheduler": sched.name,
        "seed": args.seed,
        "steps": res.steps,
        "status": res.status,
        "quiescent": res.status == "quiescent",
        "observation": con_observation(res.config),
        "checks": verdicts,
        "trace": args.trace,
    }
    print(json.dumps(report, sort_keys=True))
    if res.status != "quiescent":
        return 4
    if any(not v["ok"] for v in verdicts.values()):
        return 3
    return 0


def cmd_explore(args) -> int:
    loaded = _load(args.file)
    if isinstance(loaded, int):
        return loaded
    prog, checked = loaded
    cfg = initial_config(prog, checked.id_types, args.servers)
    violations = {name: 0 for name in args.check}

    def on_trace(exec_, final, truncated):
        for name in args.check:
            # explore checks wf at every state; a truncated trace never
            # reached the state ec judges
            if name == "wf" or (name == "ec" and truncated):
                continue
            if not CHECKS[name](exec_, final).ok:
                violations[name] += 1

    try:
        summary = explore(cfg, args.max_depth, on_trace=on_trace,
                          check_wf_each="wf" in args.check)
    except StateSpaceLimit as e:
        return _die(4, f"{args.file}: {e}")
    except CtrdRuntimeError as e:
        return _die(4, f"{args.file}: runtime fault: {e}")
    if "wf" in args.check:
        violations["wf"] = summary.wf_problems
    report = {
        "schema": 2,
        "file": args.file,
        "max_depth": args.max_depth,
        "states": summary.states,
        "traces": summary.traces,
        "truncated": summary.truncated,
        "violations": violations,
    }
    print(json.dumps(report, sort_keys=True))
    if any(violations.values()):
        return 3
    if summary.truncated == summary.traces:
        return _die(4, f"{args.file}: all {summary.traces} traces reached "
                       f"--max-depth {args.max_depth}; no verdict")
    return 0


def cmd_nif(args) -> int:
    loaded_a = _load(args.file_a)
    if isinstance(loaded_a, int):
        return loaded_a
    loaded_b = _load(args.file_b)
    if isinstance(loaded_b, int):
        return loaded_b
    prog_a, _ = loaded_a
    prog_b, _ = loaded_b
    try:
        verdict = check_noninterference(prog_a, prog_b, args.max_depth, args.servers)
    except ProgramsNotLowEquivalent as e:
        return _die(5, f"ProgramsNotLowEquivalent: {e}")
    except StateSpaceLimit as e:
        return _die(4, f"{args.file_a}, {args.file_b}: {e}")
    except CtrdRuntimeError as e:
        return _die(4, f"{args.file_a}, {args.file_b}: runtime fault: {e}")
    report = {
        "files": [args.file_a, args.file_b],
        "max_depth": args.max_depth,
        "equivalent": verdict.equivalent,
        "observations_a": sorted(verdict.observations_a),
        "observations_b": sorted(verdict.observations_b),
        "truncated": [verdict.truncated_a, verdict.truncated_b],
    }
    print(json.dumps(report, sort_keys=True))
    if verdict.equivalent is False:
        return 3
    if verdict.equivalent is None:
        return _die(4, f"{args.file_a}, {args.file_b}: the con observations differ only "
                       f"where traces reached --max-depth {args.max_depth}; no verdict")
    if not verdict.observations_a:
        return _die(4, f"{args.file_a}, {args.file_b}: every trace reached "
                       f"--max-depth {args.max_depth}; no verdict")
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="ctrd",
        description="Typecheck and simulate consistency-labeled programs "
                    "on a replicated cloud.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck program files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run one program under a scheduler")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=None,
                   help="seeded-random scheduler (splitmix64)")
    p.add_argument("--sched", default="drain-fair",
                   choices=["random", "round-robin", "drain-fair"])
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--servers", type=int, default=None)
    p.add_argument("--trace", default=None, help="write the trace JSON here")
    p.add_argument("--exec", dest="exec_out", default=None,
                   help="write the recorded abstract execution JSON here")
    p.add_argument("--check", default="", type=_check_names,
                   help="comma list: " + ",".join(CHECKS))
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="exhaustively explore interleavings")
    p.add_argument("file")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--servers", type=int, default=None)
    p.add_argument("--check", default="", type=_check_names,
                   help="comma list: " + ",".join(CHECKS))
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("nif", help="compare con observations of two programs "
                                   "differing only in ava literals")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--servers", type=int, default=None)
    p.set_defaults(fn=cmd_nif)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    unknown = [c for c in getattr(args, "check", ()) if c not in CHECKS]
    if unknown:
        return _die(2, f"ctrd {args.command}: unknown check {unknown[0]!r} "
                       f"(choose from {', '.join(CHECKS)})")
    for flag, least in (("servers", 1), ("max_steps", 0), ("max_depth", 0)):
        n = getattr(args, flag, None)
        if n is not None and n < least:
            return _die(2, f"ctrd {args.command}: --{flag.replace('_', '-')} must be at "
                           f"least {least}, not {n}")
    if args.command in ("explore", "nif"):
        try:
            max_states_from_env()
        except ValueError as e:
            return _die(2, f"ctrd {args.command}: {e}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except RecursionError:
        return _die(4, f"ctrd {args.command}: the program nests deeper than the "
                       f"simulator can follow")
    except BrokenPipeError:
        return _die(2, f"ctrd {args.command}: stdout was closed before the output "
                       f"was written")


if __name__ == "__main__":
    sys.exit(main())
