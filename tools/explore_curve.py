"""explore states and time against the number of servers.

    PYTHONPATH=src python3 tools/explore_curve.py
    PYTHONPATH=src python3 tools/explore_curve.py --servers 2,3 --repeat 1

Each point explores corpus/anomaly/mixed.ctrd with the given number of
servers to --max-depth (24 by default; the longest trace of mixed.ctrd is
18 steps, so no trace is cut) and times the `explore` call alone with
`time.perf_counter` (the median of --repeat calls, each on a fresh initial
configuration). Prints one JSON object with states, traces, truncated
traces, the server-permutation orbits explore visited, seconds and states
per second for each point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from ctrd.parser import parse_program
from ctrd.runtime_cloud import explore, initial_config
from ctrd.typecheck import check_program

PROGRAM = Path(__file__).resolve().parent.parent / "corpus" / "anomaly" / "mixed.ctrd"


def point(servers: int, max_depth: int, repeat: int) -> dict:
    prog = parse_program(PROGRAM.read_text(encoding="utf-8"))
    id_types = check_program(prog).id_types
    times, summary = [], None
    for _ in range(repeat):
        cfg = initial_config(prog, id_types, servers)
        t0 = time.perf_counter()
        summary = explore(cfg, max_depth)
        times.append(time.perf_counter() - t0)
    seconds = statistics.median(times)
    return {"servers": servers, "states": summary.states, "orbits": summary.orbits,
            "traces": summary.traces,
            "truncated": summary.truncated, "seconds": seconds,
            "states_per_s": summary.states / seconds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--servers", default="2,3,4,5,6")
    ap.add_argument("--max-depth", type=int, default=24)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    points = [point(int(n), args.max_depth, args.repeat) for n in args.servers.split(",")]
    print(json.dumps({"python": sys.version.split()[0], "program": "corpus/anomaly/mixed.ctrd",
                      "max_depth": args.max_depth, "repeat": args.repeat,
                      "points": points}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
