"""Golden outputs: `ctrd run` reproduces committed trace, execution and
report files byte for byte, `ctrd explore` its report and exit code, and
`ctrd check` the diagnostic of each corpus/reject program.

The random scheduler indexes into the ordered list of enabled choices, and
the fair schedulers rotate over its categories, so these files pin the
choice order as well as the JSON formats. To regenerate one after a
deliberate format change, run `produce` or `produce_explore` below and
write its result into tests/golden/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import shutil

import pytest

from conftest import CORPUS, RUNNABLE, checked_config, load
from ctrd.cli import main
from ctrd.runtime_cloud import make_scheduler, run

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# an ava race, a clone, an await, a mixed-mode anomaly and con writers
PROGRAMS = ["ava/nat_race", "clone/chain3_clone", "accept/await_pair",
            "anomaly/mixed", "con/two_writers"]
SCHEDULES = [("seed0", ["--seed", "0"]), ("seed1", ["--seed", "1"]),
             ("seed2", ["--seed", "2"]),
             ("round-robin", ["--sched", "round-robin"]),
             ("drain-fair", ["--sched", "drain-fair"])]
# seed 0 runs that, with the runs above, fire every rule the corpus reaches
RULE_PROGRAMS = ["accept/ava_gset", "accept/flex_both", "accept/dup_local",
                 "accept/guard_con", "run/r05_lambda_guard", "run/r06_record",
                 "run/r10_local_mix"]


def _ctrd_in(workdir: pathlib.Path, command: str, program: str,
             args: list[str]) -> dict[str, bytes]:
    """Run one ctrd command on a copy of a corpus program inside workdir,
    with relative paths so the report names the same files wherever it
    runs; returns the exit code and stdout."""
    rel = pathlib.Path("corpus", program + ".ctrd")
    (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(CORPUS / (program + ".ctrd"), workdir / rel)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(rel), *args])
    finally:
        os.chdir(cwd)
    return {"code": f"{code}\n".encode(), "stdout": out.getvalue().encode()}


def produce(program: str, sched: list[str], workdir: pathlib.Path) -> dict[str, bytes]:
    """`ctrd run` with every check; returns output name -> bytes."""
    out = _ctrd_in(workdir, "run", program, [*sched, "--trace", "trace.json",
                                             "--exec", "exec.json", "--check", "sc,sc-con,ec"])
    return {**out, "trace.json": (workdir / "trace.json").read_bytes(),
            "exec.json": (workdir / "exec.json").read_bytes()}


def produce_explore(program: str, workdir: pathlib.Path) -> dict[str, bytes]:
    """`ctrd explore` with every check at the default depth."""
    return _ctrd_in(workdir, "explore", program, ["--check", "sc,sc-con,ec"])


def golden_name(program: str, tag: str, part: str) -> str:
    return f"{program.replace('/', '_')}.{tag}.{part}"


def assert_run_matches_golden(program: str, tag: str, sched: list[str],
                              workdir: pathlib.Path) -> None:
    for part, data in produce(program, sched, workdir).items():
        want = (GOLDEN / golden_name(program, tag, part)).read_bytes()
        assert data == want, f"{golden_name(program, tag, part)} differs"


@pytest.mark.parametrize("tag,sched", SCHEDULES, ids=[t for t, _ in SCHEDULES])
@pytest.mark.parametrize("program", PROGRAMS)
def test_run_matches_golden(program, tag, sched, tmp_path):
    assert_run_matches_golden(program, tag, sched, tmp_path)


@pytest.mark.parametrize("program", RULE_PROGRAMS)
def test_seed0_run_matches_golden(program, tmp_path):
    assert_run_matches_golden(program, "seed0", ["--seed", "0"], tmp_path)


def test_every_rule_the_corpus_fires_at_seed_0_has_a_golden_trace():
    golden = {entry["rule"] for path in GOLDEN.glob("*.trace.json")
              for entry in json.loads(path.read_text())}
    fired = set()
    for path in RUNNABLE:
        _, _, cfg = checked_config(load(path))
        fired |= {e.rule for e in run(cfg, make_scheduler("random", 0)).trace}
    assert fired <= golden, sorted(fired - golden)


@pytest.mark.parametrize("program", PROGRAMS)
def test_explore_matches_golden(program, tmp_path):
    for part, data in produce_explore(program, tmp_path).items():
        want = (GOLDEN / golden_name(program, "explore", part)).read_bytes()
        assert data == want, f"{golden_name(program, 'explore', part)} differs"


def produce_reject() -> str:
    """`ctrd check` on each corpus/reject program, one call per file, run
    from the repository root so each diagnostic names a relative path; the
    stderr lines, in file order."""
    lines = []
    cwd = os.getcwd()
    os.chdir(CORPUS.parent)
    try:
        for path in sorted((CORPUS / "reject").glob("*.ctrd")):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(err):
                code = main(["check", str(path.relative_to(CORPUS.parent))])
            assert (code, out.getvalue()) == (1, ""), path.name
            lines.append(err.getvalue())
    finally:
        os.chdir(cwd)
    return "".join(lines)


def test_check_reject_matches_golden():
    # each reject program's whole diagnostic: its kind, position and message
    want = (GOLDEN / "reject.check.stderr").read_text(encoding="utf-8")
    assert produce_reject() == want
