"""check_sc time against history size.

    PYTHONPATH=src python3 tools/sc_curve.py
    PYTHONPATH=src python3 tools/sc_curve.py --factors 1.3,2.6 --repeat 1

Each point generates the three-client program `bench/gen.chain_program`
with `scale_mix(HISTORY_MIX, k)`, runs it under the seeded random scheduler,
records its history, and times `check_sc` on the whole history and on its
con projection with `time.perf_counter` (the median of --repeat calls).
The whole history mixes con and ava events and fails SC, so its check can
stop at the first failed clause; the con projection passes, so its check
does all the work. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
# let-chains of several hundred lets nest deeper than the default limit
sys.setrecursionlimit(20000)

import gen  # noqa: E402
from ctrd.abstract_exec import check_sc, project_con, record  # noqa: E402
from ctrd.parser import parse_program  # noqa: E402
from ctrd.runtime_cloud import initial_config, make_scheduler, run  # noqa: E402
from ctrd.typecheck import check_program  # noqa: E402


def _timed(fn, *args, repeat: int = 1):
    times, result = [], None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def point(factor: float, seed: int, repeat: int) -> dict:
    g = gen.chain_program(seed, "curve", gen.scale_mix(gen.HISTORY_MIX, factor), False)
    prog = parse_program(g.text)
    res = run(initial_config(prog, check_program(prog).id_types),
              make_scheduler("random", seed), 10 ** 7)
    history, record_s = _timed(record, res.trace)
    con, project_s = _timed(project_con, history)
    full_v, full_s = _timed(check_sc, history, repeat=repeat)
    con_v, con_s = _timed(check_sc, con, repeat=repeat)
    return {"factor": factor, "status": res.status, "steps": len(res.trace),
            "events": len(history.op), "record_s": record_s, "project_s": project_s,
            "check_sc_s": full_s, "sc_ok": full_v.ok,
            "con_events": len(con.op), "check_sc_con_s": con_s, "sc_con_ok": con_v.ok}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--factors", default="1.3,2.6,5.3,10.6,13.5")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    points = [point(float(k), args.seed, args.repeat) for k in args.factors.split(",")]
    print(json.dumps({"python": sys.version.split()[0], "seed": args.seed,
                      "repeat": args.repeat, "points": points}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
