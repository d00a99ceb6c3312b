"""--trace rendering cost against the size of a generated program.

    PYTHONPATH=src python3 tools/trace_curve.py
    PYTHONPATH=src python3 tools/trace_curve.py --factors 1 --repeat 1

Each point generates `bench/gen.chain_program(PROGRAM_SEED, ...,
scale_mix(LONG_MIX, F), True)` (the `run-long` program shape at scale
factor F; read-only), runs it once under the random scheduler seeded with
SCHEDULER_SEED, and times `ctrd.cli.trace_json` on its trace with
`time.perf_counter`: the median of --repeat calls, each after a
`gc.collect()`, taken in rounds over all factors so that a slow spell of a
shared machine falls on every point. It prints the trace entries, the
event ids listed by all snapshots together (synchronized rules record the
whole common or server log, so this sum is what the file grows with), the
MB written and the rendering time. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
from ctrd import cli  # noqa: E402
from ctrd.parser import parse_program  # noqa: E402
from ctrd.runtime_cloud import initial_config, make_scheduler, run  # noqa: E402
from ctrd.typecheck import check_program  # noqa: E402

PROGRAM_SEED = 11000
SCHEDULER_SEED = 5


def curve(factors: list[float], repeat: int) -> list[dict]:
    traces = []
    for f in factors:
        g = gen.chain_program(PROGRAM_SEED, f"long{f}", gen.scale_mix(gen.LONG_MIX, f), True)
        prog = parse_program(g.text)
        cfg = initial_config(prog, check_program(prog).id_types)
        res = run(cfg, make_scheduler("random", SCHEDULER_SEED), 10 ** 6)
        assert res.status == "quiescent", (f, res.status)
        traces.append(res.trace)
    times = [[] for _ in factors]
    sizes = [0] * len(factors)
    # rounds over every factor, so that a slow spell of a shared machine
    # falls on all points alike rather than on one
    for _ in range(repeat):
        for i, trace in enumerate(traces):
            gc.collect()
            t0 = time.perf_counter()
            text = cli.trace_json(trace)
            times[i].append(time.perf_counter() - t0)
            sizes[i] = len(text.encode("utf-8"))
    points = []
    for f, trace, size, ts in zip(factors, traces, sizes, times):
        points.append({
            "factor": f,
            "entries": len(trace),
            "snapshot_elements": sum(len(e.action.snapshot) for e in trace
                                     if e.action.snapshot is not None),
            "mb": size / 1e6,
            "ms": statistics.median(ts) * 1e3,
        })
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--factors", default="1,2,4")
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args(argv)
    points = curve([float(f) for f in args.factors.split(",")], args.repeat)
    print(json.dumps({"python": sys.version.split()[0],
                      "program": "bench/gen.chain_program, LONG_MIX scaled",
                      "program_seed": PROGRAM_SEED, "scheduler": "random",
                      "seed": SCHEDULER_SEED, "repeat": args.repeat, "points": points},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
