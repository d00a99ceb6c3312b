"""Benchmark of the ctrd pipeline: one workload per process, closed loop.

    python3 bench/run.py --workload run-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

A job is one call to `ctrd.cli.main(argv)` with stdout captured. One caller
runs jobs back to back: the next starts when the previous returns. Every
job's output is checked against expectations the generator worked out from
the program text. With `--trace 0` the last line of stdout is a JSON object
with the end-to-end metrics, whose times are wall times scaled to a
reference machine speed (see calibrate.py); with `--trace 1` the same jobs
run under spans (see tracer.py) and it carries the per-layer metrics
instead.
`--smoke` runs every workload at tiny sizes, traced and untraced, and
exits non-zero if any check fails.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import calibrate
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

# Each round re-imports ctrd, writes the inputs and checks them all; the
# median of the rounds is setup_s. The first round starts with the process.
SETUP_ROUNDS = 7
EXPLORE_DEPTH = 24      # the longest trace of mixed.ctrd is 18 steps


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Callable[[int, bool], list]            # (seed, smoke) -> [gen.Generated]
    argv: Callable[[str, int, Path, bool], list]     # (file, sched seed, trace file, smoke)
    check: Callable[..., Optional[str]]              # (program, rc, stdout, trace file) -> fault


def _report(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise ValueError("no report printed")
    return json.loads(lines[-1])


def _check_run(g, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    rep = _report(out)
    if rep["status"] != "quiescent":
        return f"run ended {rep['status']}"
    for ident, value in g.con_final.items():
        got = rep["observation"].get(ident)
        if got != {"nat": value}:
            return f"{ident} holds {got}, the program last writes nat {value}"
    return None


def _check_run_long(g, rc: int, out: str, trace_file: Path) -> Optional[str]:
    fault = _check_run(g, rc, out)
    if fault:
        return fault
    with open(trace_file, encoding="utf-8") as fh:
        trace = json.load(fh)
    delivered = sum(1 for e in trace if e["rule"] == "E-PROCESS-UPDATE")
    if delivered != g.buffered_writes * g.servers:
        return (f"{delivered} E-PROCESS-UPDATE entries, expected "
                f"{g.buffered_writes} buffered writes x {g.servers} servers")
    return None


def _check_history(g, rc: int, out: str, trace_file: Path) -> Optional[str]:
    fault = _check_run(g, rc, out)
    if fault:
        return fault
    checks = _report(out)["checks"]
    for name in ("sc-con", "ec"):
        if not checks.get(name, {}).get("ok"):
            return f"{name} verdict {checks.get(name)}"
    return None


def _check_explore(g, rc: int, out: str, trace_file: Path) -> Optional[str]:
    if rc != 3:
        return f"exit code {rc}, expected 3 (the sc anomaly)"
    rep = _report(out)
    v = rep["violations"]
    if rep["truncated"] != 0 or rep["traces"] < 1:
        return f"{rep['truncated']} of {rep['traces']} traces truncated"
    if not (v["sc"] > 0 and v["sc-con"] == 0 and v["ec"] == 0):
        return f"violations {v}, expected sc > 0 and none for sc-con or ec"
    return None


def _chain_programs(mix: dict, smoke_scale: float, count: int, with_clone: bool, tag: str):
    def make(seed: int, smoke: bool) -> list:
        m = gen.scale_mix(mix, smoke_scale) if smoke else mix
        return [gen.chain_program(seed * 1000 + i, f"{tag}{i}", m, with_clone)
                for i in range(count)]
    return make


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "run-long",
            _chain_programs(gen.LONG_MIX, 0.1, 4, True, "long"),
            lambda f, k, out, smoke: ["run", f, "--seed", str(k), "--trace", str(out)],
            _check_run_long,
        ),
        Workload(
            "check-history",
            _chain_programs(gen.HISTORY_MIX, 0.2, 6, False, "hist"),
            lambda f, k, out, smoke: ["run", f, "--seed", str(k), "--check", "sc-con,ec"],
            _check_history,
        ),
        Workload(
            "explore-anomaly",
            lambda seed, smoke: [gen.anomaly_variant(seed * 1000 + i, f"mixed{i}")
                                 for i in range(2 if smoke else 4)],
            lambda f, k, out, smoke: ["explore", f, "--servers", "3" if smoke else "5",
                                      "--max-depth", str(EXPLORE_DEPTH),
                                      "--check", "sc,sc-con,ec"],
            _check_explore,
        ),
    ]
}


def call_cli(cli, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def import_ctrd():
    """A fresh import of the ctrd package, as every CLI process pays it."""
    for name in [m for m in sys.modules if m == "ctrd" or m.startswith("ctrd.")]:
        del sys.modules[name]
    cli = importlib.import_module("ctrd.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ctrd imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: Workload, seed: int, smoke: bool, workdir: Path, rounds: int,
          start: float):
    """Set up `rounds` times, the first one counted from `start`; returns
    (cli, programs, paths, raw and scaled round times, check ok)."""
    scaler = calibrate.Scaler(calibrate_now=False)
    raw, scaled = [], []
    for _ in range(rounds):
        cli = import_ctrd()
        programs = workload.programs(seed, smoke)
        paths = gen.write_all(programs, workdir / "inputs")
        rc, out = call_cli(cli, ["check", *paths])
        raw.append(time.perf_counter() - start)
        scaled.append(scaler.scale(raw[-1]))
        ok = rc == 0 and out.splitlines() == [f"{p}: OK" for p in paths]
        start = time.perf_counter()
    return cli, programs, paths, raw, scaled, ok


def non_vacuity_probe(seed: int) -> bool:
    """check_sc must accept a recorded con history and reject the same
    history with one program-order visibility pair into a read removed."""
    from ctrd.abstract_exec import check_sc, project_con, record
    from ctrd.parser import parse_program
    from ctrd.runtime_cloud import initial_config, make_scheduler, run
    from ctrd.typecheck import check_program

    g = gen.chain_program(seed, "probe", gen.scale_mix(gen.HISTORY_MIX, 0.5), False)
    try:
        prog = parse_program(g.text)
        res = run(initial_config(prog, check_program(prog).id_types),
                  make_scheduler("random", seed))
        history = project_con(record(res.trace))
        reads = {e for e, op in history.op.items() if op.kind == "rd"}
        po_into_reads = sorted(
            ((a, b) for a, b in history.vis
             if b in reads and a.client == b.client and (a, b) in history.rb),
            key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
        if not po_into_reads or not check_sc(history).ok:
            return False
        corrupted = history.copy()
        corrupted.vis.discard(po_into_reads[0])
        return not check_sc(corrupted).ok
    except Exception:      # a crash fails the probe and is reported
        traceback.print_exc()
        return False


def run_job(workload: Workload, cli, g, argv: list, trace_file: Path,
            spans: Optional[tracer.Tracer] = None) -> tuple[float, Optional[str]]:
    """One job; returns (wall seconds, fault or None)."""
    t0 = time.perf_counter()
    try:
        if spans is None:
            rc, out = call_cli(cli, argv)
        else:
            rc, out = spans.job(call_cli, cli, argv)
    except Exception:      # a crashing job is a failed job, not a failed run
        return time.perf_counter() - t0, traceback.format_exc()
    wall = time.perf_counter() - t0
    try:
        return wall, workload.check(g, rc, out, trace_file)
    except (ValueError, KeyError, OSError) as e:
        return wall, f"unreadable output: {e!r}"


def measure(workload: Workload, cli, programs: list, paths: list, seed: int,
            seconds: float, trace_file: Path, smoke: bool,
            spans: Optional[tracer.Tracer]) -> tuple[list, list, int]:
    """Run whole rounds of jobs (one per program) until `seconds` have
    passed; returns (raw and scaled job wall times, failed jobs)."""
    raw, scaled, failed, n = [], [], 0, 0
    scaler = calibrate.Scaler()
    start = time.perf_counter()
    while True:
        for g, path in zip(programs, paths):
            argv = workload.argv(path, seed * 1_000_003 + n, trace_file, smoke)
            n += 1
            wall, fault = run_job(workload, cli, g, argv, trace_file, spans)
            raw.append(wall)
            scaled.append(scaler.scale(wall))
            if fault:
                failed += 1
                print(f"FAILED {workload.name} {' '.join(argv)}: {fault}", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            return raw, scaled, failed


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 smoke: bool = False, started: float = PROCESS_START) -> dict:
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        cli, programs, paths, setup_raw, setup_scaled, setup_ok = setup(
            workload, seed, smoke, workdir, 1 if smoke else SETUP_ROUNDS, started)
        probe_ok = non_vacuity_probe(seed)
        trace_file = workdir / "trace.json"
        _, fault = run_job(workload, cli, programs[0],     # untimed warm-up
                           workload.argv(paths[0], seed, trace_file, smoke), trace_file)
        if fault:
            print(f"warm-up job failed: {fault}", file=sys.stderr)
        spans = tracer.Tracer() if traced else None
        if spans is not None:
            spans.install()
        try:
            raw, scaled, failed = measure(workload, cli, programs, paths, seed, seconds,
                                          trace_file, smoke, spans)
        finally:
            if spans is not None:
                spans.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs_per_s = len(scaled) / sum(scaled)
    print(f"# {workload.name} seed={seed} traced={int(traced)} jobs={len(raw)} "
          f"failed={failed} setup_ok={setup_ok} probe_ok={probe_ok}")
    for what, times in (("setup rounds", setup_raw), ("jobs", raw)):
        print(f"# {what} raw: median {statistics.median(times):.4f} s, "
              f"{len(times) / sum(times):.4f} per s")
    print(f"# jobs scaled: jobs_per_s {jobs_per_s:.4f} 1/s, "
          f"job_p50_ms {1000 * statistics.median(scaled):.3f} ms")
    if traced:
        spans.write(WORK / f"spans-{workload.name}.bin")
        values = tracer.layer_metrics(spans.per_job())
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        values = {
            "jobs_per_s": jobs_per_s,
            "job_p50_ms": 1000 * statistics.median(scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": setup_ok and probe_ok,
        "attempted": len(raw),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def _declared(section: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def smoke() -> int:
    """Every workload at tiny sizes, untraced then traced; 0 if all checks pass."""
    bad = 0
    for workload in WORKLOADS.values():
        for traced in (False, True):
            result = run_workload(workload, 1, 0, traced, smoke=True,
                                  started=time.perf_counter())
            ok = result["correct"] and result["failed"] == 0
            bad += not ok
            print(f"SMOKE {workload.name} traced={int(traced)} "
                  f"{'OK' if ok else 'FAIL'} {json.dumps(result)}")
    return 1 if bad else 0


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ctrd" / "cli.py").is_file():
        print(f"ctrd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
