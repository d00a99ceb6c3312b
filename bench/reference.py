"""Reference curves for the benchmark's README:

    PYTHONPATH=src python3 bench/reference.py

- steps/s of `run` against the length of a single-client let-chain;
- states/s of `explore` on mixed.ctrd against the number of servers;
- `check_sc` time against the number of events in the history.

Each time is given raw and scaled to the reference speed (calibrate.py).
"""

import time

import calibrate
import gen
from ctrd.abstract_exec import check_sc, record
from ctrd.parser import parse_program
from ctrd.runtime_cloud import explore, initial_config, make_scheduler, run
from ctrd.typecheck import check_program


def _config(text: str, servers=None):
    prog = parse_program(text)
    return initial_config(prog, check_program(prog).id_types, servers)


def _timed(fn, *args):
    scaler = calibrate.Scaler()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, scaler.scale(wall)


def main() -> None:
    print("let-chain length | steps | steps/s raw | steps/s scaled")
    for n in (50, 100, 200, 400):
        res, wall, scaled = _timed(run, _config(gen.deep_chain(n)),
                                   make_scheduler("drain-fair"))
        print(f"{n} | {res.steps} | {res.steps / wall:.0f} | {res.steps / scaled:.0f}")

    mixed = gen.MIXED_TEMPLATE.format(p0=0, q0=0, w=1, q1=2)
    print("servers | states | states/s raw | states/s scaled")
    for servers in (3, 4, 5, 6):
        summary, wall, scaled = _timed(explore, _config(mixed, servers), 24)
        print(f"{servers} | {summary.states} | {summary.states / wall:.0f} | "
              f"{summary.states / scaled:.0f}")

    print("events | check_sc s raw | check_sc s scaled")
    for n in (50, 100, 150, 200):
        history = record(run(_config(gen.deep_chain(n)), make_scheduler("drain-fair")).trace)
        verdict, wall, scaled = _timed(check_sc, history)
        if not verdict.ok:
            raise SystemExit(f"check_sc rejects the {n}-assign chain")
        print(f"{len(history.op)} | {wall:.3f} | {scaled:.3f}")


if __name__ == "__main__":
    main()
