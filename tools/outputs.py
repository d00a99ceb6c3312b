"""Every output of the CLI on the corpus, written under one directory, so
that the outputs of two source trees compare with `diff -r`.

    PYTHONPATH=src python3 tools/outputs.py OUTDIR
    PYTHONPATH=../other/src python3 tools/outputs.py OTHER_OUTDIR
    diff -r OUTDIR OTHER_OUTDIR

Calls `ctrd.cli.main` in this process, on every program under `corpus/`:

- `run --seed 0|1|2` and `run --sched round-robin|drain-fair`, each with
  `--check sc,sc-con,ec`, `--trace` and `--exec`;
- on each program outside `corpus/reject`, a bare `run --seed 1 --trace`,
  which folds no history;
- `explore --check sc,sc-con,ec,wf`, which checks every state;
- on each program outside `corpus/reject`, `explore --check sc,sc-con,ec`,
  the search that steps a choice alone where it can;
- `nif` on each pair `corpus/nif/X_a.ctrd`, `corpus/nif/X_b.ctrd`.

Each call writes `<group>/<program>/<call>.txt` (or `nif-pairs/X.txt`):
its exit code, then its stdout, then its stderr. A `run` also leaves its
`<call>.trace.json` and `<call>.exec.json` there. The CLI runs with OUTDIR
as its working directory and a `corpus` link to this tree's corpus, so
every path it sees or prints is relative. OUTDIR must not exist yet.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import traceback
from pathlib import Path

from ctrd import cli

ROOT = Path(__file__).resolve().parent.parent
CHECKS = "sc,sc-con,ec"
RUNS = {f"run-seed{k}": ["--seed", str(k)] for k in range(3)} | {
    f"run-{s}": ["--sched", s] for s in ("round-robin", "drain-fair")}


def call(name: str, argv: list[str]) -> None:
    """Run the CLI on argv and write name.txt: exit code, stdout, stderr.
    An exception that escapes main is written in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception:       # recorded, so that both trees are compared on it
            code = "exception " + traceback.format_exc().splitlines()[-1]
    Path(name + ".txt").write_text(
        f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}",
        encoding="utf-8")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path, help="a directory that does not exist yet")
    outdir = ap.parse_args(argv).outdir
    outdir.mkdir(parents=True)
    os.chdir(outdir)
    os.symlink(ROOT / "corpus", "corpus")
    try:
        programs = sorted(Path("corpus").rglob("*.ctrd"))
        for path in programs:
            here = Path(*path.with_suffix("").parts[1:])
            here.mkdir(parents=True)
            for name, flags in RUNS.items():
                stem = str(here / name)
                call(stem, ["run", str(path), *flags, "--check", CHECKS,
                            "--trace", stem + ".trace.json", "--exec", stem + ".exec.json"])
            if path.parent.name != "reject":
                stem = str(here / "run-bare")
                call(stem, ["run", str(path), "--seed", "1", "--trace", stem + ".trace.json"])
            call(str(here / "explore"), ["explore", str(path), "--check", CHECKS + ",wf"])
            if path.parent.name != "reject":
                call(str(here / "explore-nowf"), ["explore", str(path), "--check", CHECKS])
        Path("nif-pairs").mkdir()
        for a in (p for p in programs if p.parent.name == "nif" and p.stem.endswith("_a")):
            b = a.with_name(a.stem[:-2] + "_b.ctrd")
            call(f"nif-pairs/{a.stem[:-2]}", ["nif", str(a), str(b)])
    finally:
        os.unlink("corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
