"""Golden outputs: `ctrd run` reproduces committed trace, execution and
report files byte for byte.

The random scheduler indexes into the ordered list of enabled choices, and
the fair schedulers rotate over its categories, so these files pin the
choice order as well as the JSON formats. To regenerate one after a
deliberate format change, run `produce` below and write its result into
tests/golden/.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import shutil

import pytest

from conftest import CORPUS
from ctrd.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# an ava race, a clone, an await, a mixed-mode anomaly and con writers
PROGRAMS = ["ava/nat_race", "clone/chain3_clone", "accept/await_pair",
            "anomaly/mixed", "con/two_writers"]
SCHEDULES = [("seed0", ["--seed", "0"]), ("seed1", ["--seed", "1"]),
             ("seed2", ["--seed", "2"]),
             ("round-robin", ["--sched", "round-robin"]),
             ("drain-fair", ["--sched", "drain-fair"])]


def produce(program: str, sched: list[str], workdir: pathlib.Path) -> dict[str, bytes]:
    """Run one program inside workdir with relative paths, so the report
    names the same files wherever it runs; returns output name -> bytes."""
    rel = pathlib.Path("corpus", program + ".ctrd")
    (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(CORPUS / (program + ".ctrd"), workdir / rel)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", str(rel), *sched, "--trace", "trace.json",
                         "--exec", "exec.json", "--check", "sc,sc-con,ec"])
    finally:
        os.chdir(cwd)
    return {"code": f"{code}\n".encode(), "stdout": out.getvalue().encode(),
            "trace.json": (workdir / "trace.json").read_bytes(),
            "exec.json": (workdir / "exec.json").read_bytes()}


def golden_name(program: str, tag: str, part: str) -> str:
    return f"{program.replace('/', '_')}.{tag}.{part}"


@pytest.mark.parametrize("tag,sched", SCHEDULES, ids=[t for t, _ in SCHEDULES])
@pytest.mark.parametrize("program", PROGRAMS)
def test_run_matches_golden(program, tag, sched, tmp_path):
    for part, data in produce(program, sched, tmp_path).items():
        want = (GOLDEN / golden_name(program, tag, part)).read_bytes()
        assert data == want, f"{golden_name(program, tag, part)} differs"
