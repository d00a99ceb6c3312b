"""run steps per second against the length of a let-chain.

    PYTHONPATH=src python3 tools/step_curve.py
    PYTHONPATH=src python3 tools/step_curve.py --sizes 50,100 --repeat 1

Each point generates `bench/gen.deep_chain(N)` (one client, one server, N
lets that each assign a con cell), parses and typechecks it once, and
times the `run` call alone under the drain-fair scheduler with
`time.perf_counter`: the median of --repeat calls, each on a fresh initial
configuration after a `gc.collect()`, taken in rounds over all sizes. A
step that cost the same at every length would give a flat curve; `drop`
is the first point's steps per second over the last point's. The sizes
stop below 493 lets, where the recursive parser and typechecker give up
at the default recursion limit. Prints one JSON object.
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
from ctrd.parser import parse_program  # noqa: E402
from ctrd.runtime_cloud import initial_config, make_scheduler, run  # noqa: E402
from ctrd.typecheck import check_program  # noqa: E402


def curve(sizes: list[int], repeat: int) -> list[dict]:
    programs = []
    for n in sizes:
        prog = parse_program(gen.deep_chain(n))
        programs.append((prog, check_program(prog).id_types))
    times = [[] for _ in sizes]
    results = [None] * len(sizes)
    # rounds over every size, so that a slow spell of a shared machine
    # falls on all points alike rather than on one
    for _ in range(repeat):
        for i, (prog, id_types) in enumerate(programs):
            cfg = initial_config(prog, id_types)
            gc.collect()
            t0 = time.perf_counter()
            results[i] = run(cfg, make_scheduler("drain-fair"), 10 ** 6)
            times[i].append(time.perf_counter() - t0)
    points = []
    for n, res, ts in zip(sizes, results, times):
        seconds = statistics.median(ts)
        points.append({"n": n, "status": res.status, "steps": res.steps,
                       "seconds": seconds, "steps_per_s": res.steps / seconds})
    return points


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="50,100,200,400,480")
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args(argv)
    points = curve([int(n) for n in args.sizes.split(",")], args.repeat)
    print(json.dumps({"python": sys.version.split()[0], "program": "bench/gen.deep_chain",
                      "scheduler": "drain-fair", "repeat": args.repeat, "points": points,
                      "drop": points[0]["steps_per_s"] / points[-1]["steps_per_s"]},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
