"""Command-line behavior: exit codes, reports, and trace reproducibility."""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys

import syntax_oracle
from conftest import CORPUS
from ctrd import abstract_exec, cli
from ctrd.cli import main
from ctrd.parser import parse_program
from ctrd.runtime_local import sorted_items
from ctrd.syntax import Lit, map_locations, pretty, refs


def test_check_accept_and_reject(capsys):
    assert main(["check", str(CORPUS / "accept" / "listing_fixed.ctrd")]) == 0
    code = main(["check", str(CORPUS / "reject" / "listing_bug.ctrd")])
    assert code == 1
    err = capsys.readouterr().err
    assert "EffectViolation" in err and "listing_bug.ctrd:" in err


def test_check_missing_file():
    assert main(["check", str(CORPUS / "no_such_file.ctrd")]) == 2


def test_non_utf8_program_file_is_an_io_failure(tmp_path, capsys):
    bad = tmp_path / "bad.ctrd"
    bad.write_bytes(b"\xff\xfe")
    for argv in (["check", str(bad)], ["run", str(bad)], ["explore", str(bad)],
                 ["nif", str(bad), str(bad)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1 and str(bad) in captured.err, \
            (argv, captured.err)


def test_run_pure_con_sc_passes(capsys):
    code = main(["run", str(CORPUS / "con" / "handoff.ctrd"), "--check", "sc"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["quiescent"] and report["checks"]["sc"]["ok"]


def test_a_run_folds_its_history_only_for_check_or_exec(tmp_path, monkeypatch):
    # --trace writes the trace itself; only --exec and the checks but wf
    # read the recorded history
    folds = []
    real = cli.record
    monkeypatch.setattr(cli, "record", lambda trace: folds.append(1) or real(trace))
    path = str(CORPUS / "ava" / "oac_counter.ctrd")
    for flags in ([], ["--trace", str(tmp_path / "trace.json")], ["--check", "wf"]):
        assert main(["run", path, *flags]) == 0
    assert folds == []
    for flags in (["--check", "sc"], ["--check", "wf,sc"],
                  ["--exec", str(tmp_path / "exec.json")]):
        assert main(["run", path, *flags]) == 0
    assert len(folds) == 3


def test_run_ec_drain_fair(capsys):
    code = main(["run", str(CORPUS / "ava" / "oac_counter.ctrd"),
                 "--sched", "drain-fair", "--check", "ec"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["checks"]["ec"]["converged"]


def test_run_anomaly_fails_sc_on_some_seed(capsys):
    failing = []
    for seed in range(40):
        code = main(["run", str(CORPUS / "anomaly" / "mixed.ctrd"),
                     "--seed", str(seed), "--check", "sc"])
        capsys.readouterr()
        if code == 3:
            failing.append(seed)
    assert failing, "no seed surfaced the anomaly"


def test_run_step_limit_exit_code(capsys):
    code = main(["run", str(CORPUS / "con" / "handoff.ctrd"), "--max-steps", "1"])
    capsys.readouterr()
    assert code == 4


def test_explore_anomaly_and_pure_con(capsys):
    code = main(["explore", str(CORPUS / "anomaly" / "mixed.ctrd"),
                 "--max-depth", "14", "--check", "sc"])
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads(out.splitlines()[-1])
    assert report["violations"]["sc"] >= 1
    code = main(["explore", str(CORPUS / "con" / "two_writers.ctrd"),
                 "--max-depth", "12", "--check", "sc"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out.splitlines()[-1])["violations"]["sc"] == 0


def test_explore_counts_visited_states(capsys):
    # one state per server permutation and log order: 216 of the 2,593
    # concrete states, and the one violating outcome of 30 concrete traces
    code = main(["explore", str(CORPUS / "anomaly" / "mixed.ctrd"), "--servers", "5",
                 "--max-depth", "24", "--check", "sc,sc-con,ec,wf"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["schema"] == 2
    assert (report["states"], report["traces"], report["truncated"]) == (216, 9, 0)
    assert report["violations"] == {"ec": 0, "sc": 1, "sc-con": 0, "wf": 0}


def test_a_repeated_check_name_counts_once(capsys):
    mixed = str(CORPUS / "anomaly" / "mixed.ctrd")
    for argv in (["explore", mixed, "--servers", "3", "--max-depth", "24"],
                 ["run", mixed, "--seed", "0"]):
        codes, outs = [], []
        for checks in ("sc,ec", "sc,sc,ec,sc"):
            codes.append(main([*argv, "--check", checks]))
            outs.append(capsys.readouterr().out)
        assert codes[0] == codes[1] and outs[0] == outs[1], argv
        assert outs[0].count("CHECK sc ") == (argv[0] == "run"), argv


def test_nif_exit_codes(capsys):
    code = main(["nif", str(CORPUS / "nif" / "pair1_a.ctrd"),
                 str(CORPUS / "nif" / "pair1_b.ctrd")])
    capsys.readouterr()
    assert code == 0
    code = main(["nif", str(CORPUS / "nif" / "pair1_a.ctrd"),
                 str(CORPUS / "nif" / "pair1_a.ctrd")])
    capsys.readouterr()
    assert code == 0
    code = main(["nif", str(CORPUS / "nif" / "con_diff_a.ctrd"),
                 str(CORPUS / "nif" / "con_diff_b.ctrd")])
    err = capsys.readouterr().err
    assert code == 5 and "ProgramsNotLowEquivalent" in err


def test_seeded_trace_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(["run", str(CORPUS / "run" / "r03_oac_counter.ctrd"),
                     "--seed", "42", "--trace", str(out)])
        capsys.readouterr()
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_servers_override(capsys):
    code = main(["run", str(CORPUS / "con" / "handoff.ctrd"), "--servers", "5",
                 "--trace", "/dev/null"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out.splitlines()[-1])["quiescent"]


def test_servers_below_one_is_a_usage_error(capsys):
    # --servers 0 used to end in an IndexError traceback on flex_both and in
    # a "quiescent" report with (con,1) null on two_writers
    flex, con = str(CORPUS / "accept" / "flex_both.ctrd"), str(CORPUS / "con" / "two_writers.ctrd")
    nif = [str(CORPUS / "nif" / "pair1_a.ctrd"), str(CORPUS / "nif" / "pair1_b.ctrd")]
    for argv in (["run", flex], ["run", con], ["explore", con], ["nif", *nif]):
        for n in ("0", "-1"):
            assert main([*argv, "--servers", n]) == 2, (argv, n)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and "--servers" in err, err


def test_negative_step_and_depth_limits_are_usage_errors(capsys):
    # --max-steps -1 used to report a step-limit run of 0 steps, and
    # --max-depth -1 an exploration with no verdict, both with exit 4
    con = str(CORPUS / "con" / "two_writers.ctrd")
    nif = [str(CORPUS / "nif" / "pair1_a.ctrd"), str(CORPUS / "nif" / "pair1_b.ctrd")]
    for argv, flag in ((["run", con], "--max-steps"), (["explore", con], "--max-depth"),
                       (["nif", *nif], "--max-depth")):
        for n in ("-1", "-7"):
            assert main([*argv, flag, n]) == 2, (argv, n)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and flag in err, err
        # zero stays valid: no step is taken, so no verdict
        assert main([*argv, flag, "0"]) == 4, argv
        capsys.readouterr()


def test_bad_state_budget_is_a_usage_error(capsys, monkeypatch):
    path = str(CORPUS / "con" / "two_writers.ctrd")
    nif = [str(CORPUS / "nif" / "pair1_a.ctrd"), str(CORPUS / "nif" / "pair1_b.ctrd")]
    for value in ("abc", "0", "-5", "1.5", ""):
        monkeypatch.setenv("CTRD_MAX_STATES", value)
        for argv in (["explore", path], ["nif", *nif]):
            assert main(argv) == 2, (value, argv)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and "CTRD_MAX_STATES" in err, err
    monkeypatch.setenv("CTRD_MAX_STATES", "3")
    for argv in (["explore", path], ["nif", *nif]):
        assert main(argv) == 4, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "more than 3 states" in err, err


def test_deep_program_ends_in_a_diagnostic(tmp_path, capsys):
    # nesting off the let spine still recurses in the front end
    path = tmp_path / "deep.ctrd"
    path.write_text("servers 1; client 1 { " + "(" * 5000 + "unit @loc" + ")" * 5000 + " }")
    for command in ("check", "run"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "NestingTooDeep" in err, err


def test_long_let_spine_checks_and_its_run_ends_in_one_line(tmp_path, capsys):
    body = "".join(f"let x{i} = nat {i} @loc in " for i in range(5000)) + "unit @loc"
    path = tmp_path / "spine.ctrd"
    path.write_text(f"servers 1; client 1 {{ {body} }}")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: OK\n"
    # substitution walks the residual spine in a loop, too
    trace, exec_ = tmp_path / "trace.json", tmp_path / "exec.json"
    for flags in ([], ["--trace", str(trace), "--exec", str(exec_), "--check", "sc,ec"]):
        assert main(["run", str(path), *flags]) == 0
        out, err = capsys.readouterr()
        assert err == "" and '"steps": 5000' in out.splitlines()[-1], out


@contextlib.contextmanager
def _recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_explore_depth_does_not_spend_the_recursion_limit(tmp_path, capsys):
    # a record of 300 con assigns: 304 steps deep, each term a few levels
    # deep; the search keeps its path on a stack of its own
    fields = ", ".join(f"f{i} = c := nat {i} @con" for i in range(300))
    path = tmp_path / "wide.ctrd"
    path.write_text("servers 1; client 1 { let c = ref@con(nat 0 @con, (con,1)) in "
                    f"{{{fields}}}@loc }}")
    with _recursion_limit(len(inspect.stack()) + 150):
        code = main(["explore", str(path), "--max-depth", "1000", "--check", "sc,ec"])
    out, err = capsys.readouterr()
    assert code == 0 and err == "", err
    report = json.loads(out)
    assert (report["states"], report["traces"], report["truncated"]) == (304, 1, 0)


def test_explore_of_a_long_let_chain_reaches_quiescence(tmp_path, capsys):
    # deep_chain(500) of bench/gen.py: 1,003 steps in one path. Hashing a
    # client's term still recurses once per let, hence the raised limit.
    body = "".join(f"let x{i} = (c := nat {i} @con) in\n" for i in range(500))
    path = tmp_path / "chain.ctrd"
    path.write_text("servers 1;\nclient 1 {\nlet c = ref@con(nat 0 @con, (con,1)) in\n"
                    + body + "!c\n}\n")
    with _recursion_limit(2500):
        code = main(["explore", str(path), "--max-depth", "5000", "--check", "sc,ec"])
    out, err = capsys.readouterr()
    assert code == 0 and err == "", err
    report = json.loads(out)
    assert (report["states"], report["traces"], report["truncated"]) == (1004, 1, 0)


def _stored_closure(lets: int) -> str:
    spine = "".join(f"let a{i} = z in " for i in range(lets)) + "z"
    return ("servers 1; client 1 { let r = ref@con(fn@loc(z: Lat@loc) => "
            f"{spine}, (con,1)) in unit @loc }}")


def test_a_stored_closure_holding_a_long_let_spine_checks_and_runs(tmp_path, capsys):
    # the escape check's refs and the printer walk the spine in a loop
    path = tmp_path / "closure.ctrd"
    path.write_text(_stored_closure(2000))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: OK\n"
    assert main(["run", str(path), "--trace", str(tmp_path / "trace.json")]) == 0
    out, err = capsys.readouterr()
    assert err == "" and '"fn": "let a0 = z in let a1 = z in ' in out


def test_a_stored_closure_prints_and_holds_locations_as_the_oracles_say(tmp_path, capsys):
    text = _stored_closure(100)
    (_, body), = parse_program(text).clients
    closure = body.bound.init
    assert isinstance(closure, Lit)
    for level in range(6):
        assert pretty(closure, level) == syntax_oracle.pretty(closure, level)
    assert refs(body) == syntax_oracle.refs(body) == frozenset()
    assert map_locations(body, lambda o: o) is body
    path = tmp_path / "closure.ctrd"
    path.write_text(text)
    assert main(["run", str(path)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["observation"]["(con,1)"] == {
        "fn": syntax_oracle.pretty(closure.value.raw.body)}


def test_a_digit_that_int_rejects_is_a_syntax_error(tmp_path, capsys):
    # "²" is a digit to str.isdigit, once lexed as a number
    path = tmp_path / "sup.ctrd"
    path.write_text("servers \u00b2;\nclient 1 { unit @loc }\n", encoding="utf-8")
    for command in ("check", "run"):
        assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"{path}:1:9: SyntaxError: unexpected character '\u00b2'\n"


def test_a_number_too_long_for_int_is_a_syntax_error(tmp_path, capsys):
    # int() converts at most 4,300 digits; every number read says so in one line
    big = "9" * 5000
    programs = {
        f"servers {big};\nclient 1 {{ unit @loc }}\n": "1:9",
        f"servers 1;\nclient {big} {{ unit @loc }}\n": "2:8",
        f"servers 1;\nclient 1 {{ nat {big} @loc }}\n": "2:16",
        f"servers 1;\nclient 1 {{ await((con,{big})) }}\n": "2:23",
    }
    path = tmp_path / "big.ctrd"
    for text, at in programs.items():
        path.write_text(text, encoding="utf-8")
        for command in ("check", "run"):
            assert main([command, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"{path}:{at}: SyntaxError: number too long (5000 digits)\n"


def test_unknown_check_name_is_a_usage_error(capsys):
    path = str(CORPUS / "con" / "handoff.ctrd")
    for command in ("run", "explore"):
        assert main([command, path, "--check", "sc,foo"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "'foo'" in err, err


# client 2 awaits an identifier that only client 1's untaken branch creates
DEADLOCK = """servers 2;
client 1 { if nat 1 @loc <= nat 0 @loc
           then { let c = ref@con(nat 0 @con, (con,2)) in unit @loc }
           else { unit @loc } }
client 2 { let p = await((con,2)) in !p }"""


def test_deadlocked_leaf_fails_ec_in_run_and_explore(tmp_path, capsys):
    path = tmp_path / "deadlock.ctrd"
    path.write_text(DEADLOCK)
    assert main(["run", str(path), "--check", "ec"]) == 4
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["status"] == "deadlock" and not report["checks"]["ec"]["ok"]
    assert main(["explore", str(path), "--check", "ec"]) == 3
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["truncated"] == 0 and report["violations"]["ec"] == report["traces"] >= 1


# client 3 wins the race for (ava,1), so client 1's location c1.r1 never
# reaches a server; it escaped inside the con record, and client 2's read of
# it can never fire, though client 2 is not waiting on an await
STUCK_READ = """servers 2;
client 1 { let n = ref@ava(nat 1 @ava, (ava,1)) in
           let r = ref@con({f = n}@con, (con,1)) in unit @loc }
client 2 { let r = await((con,1)) in !((!r).f) }
client 3 { ref@ava(nat 5 @ava, (ava,1)) }"""


def test_a_stuck_client_that_awaits_nothing_is_a_deadlock(tmp_path, capsys):
    path = tmp_path / "stuck.ctrd"
    path.write_text(STUCK_READ)
    assert main(["run", str(path), "--seed", "1", "--check", "ec"]) == 4
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["status"] == "deadlock" and not report["quiescent"]
    assert not report["checks"]["ec"]["ok"]


def test_every_trace_truncated_is_no_verdict(capsys):
    code = main(["nif", str(CORPUS / "nif" / "pair2_a.ctrd"),
                 str(CORPUS / "nif" / "pair2_b.ctrd"), "--max-depth", "3"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 4 and err.count("\n") == 1
    assert report["equivalent"] and report["truncated"] == [4, 4]
    code = main(["explore", str(CORPUS / "anomaly" / "mixed.ctrd"),
                 "--max-depth", "2", "--check", "sc"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 4 and err.count("\n") == 1
    assert report["truncated"] == report["traces"] == 2
    assert report["violations"] == {"sc": 0}


# a guard on the ava x: at x = 9 the else branch takes more steps to the end
GUARDED_BRANCH = r"""servers 2;
client 1 {
  let c = ref@con(nat 0 @con, (con,1)) in
  let x = nat 1 @ava in
  let y = if x <= nat 3 @ava then { nat 1 @ava } else { ((nat 1 @ava \/ nat 2 @ava) \/ nat 3 @ava) \/ nat 4 @ava } in
  c := nat 1 @con
}
"""


def test_nif_difference_behind_a_cut_trace_is_no_verdict(tmp_path, capsys, monkeypatch):
    # at depths 8-10 the x = 9 side cuts its one trace, so its observation
    # may lie past the bound: no verdict (exit 4), not a violation (exit 3)
    a, b = tmp_path / "a.ctrd", tmp_path / "b.ctrd"
    a.write_text(GUARDED_BRANCH)
    b.write_text(GUARDED_BRANCH.replace("nat 1 @ava in", "nat 9 @ava in"))
    for depth in (8, 9, 10):
        for first, second, cut in ((a, b, [0, 1]), (b, a, [1, 0])):
            code = main(["nif", str(first), str(second), "--max-depth", str(depth)])
            out, err = capsys.readouterr()
            report = json.loads(out)
            assert code == 4 and err.count("\n") == 1 and "no verdict" in err, (depth, err)
            assert report["equivalent"] is None and report["truncated"] == cut, depth
    assert main(["nif", str(a), str(b), "--max-depth", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] is True
    # an observation that sees ava data tells a pair apart when neither side
    # cuts a trace: a violation, exit 3
    monkeypatch.setattr(abstract_exec, "con_observation",
                        lambda cfg: {"stores": str([sorted_items(s.store) for s in cfg.servers])})
    code = main(["nif", str(CORPUS / "nif" / "pair1_a.ctrd"), str(CORPUS / "nif" / "pair1_b.ctrd")])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["equivalent"] is False and report["truncated"] == [0, 0]


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under `ctrd run … | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_an_io_failure(capsys):
    for argv in (["run", str(CORPUS / "anomaly" / "mixed.ctrd"), "--seed", "0",
                  "--check", "sc,sc-con"],
                 ["check", str(CORPUS / "accept" / "listing_fixed.ctrd")]):
        with contextlib.redirect_stdout(_ClosedPipe()):
            code = main(argv)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "stdout was closed" in err, err


def test_unwritable_output_file_is_an_io_failure(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "out.json"
    for flag in ("--trace", "--exec"):
        code = main(["run", str(CORPUS / "con" / "two_writers.ctrd"), flag, str(missing)])
        assert code == 2, flag
        captured = capsys.readouterr()
        assert captured.out == "", flag
        assert len(captured.err.splitlines()) == 1 and str(missing) in captured.err, \
            (flag, captured.err)


# passes the typechecker: a lattice type carries no domain, so nat and set
# join until the values meet at run time
DOMAIN_MISMATCH = 'servers 2; client 1 { nat 1 @loc \\/ set{"a"} @loc }\n'


def test_a_runtime_fault_ends_every_command_in_one_line(tmp_path, capsys):
    path = tmp_path / "mismatch.ctrd"
    path.write_text(DOMAIN_MISMATCH)
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    for argv in (["run", str(path)], ["explore", str(path)], ["nif", str(path), str(path)]):
        assert main(argv) == 4, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
        assert "runtime fault: DomainMismatch" in err, (argv, err)


def test_the_parser_built_once_gives_what_separate_runs_give(capsys, monkeypatch):
    # main builds its argument parser once per process; a call with --check
    # and one without, in one process, print what each prints on its own,
    # and so does a bad flag after them (usage lines wrap at COLUMNS)
    monkeypatch.setenv("COLUMNS", "80")
    program = str(CORPUS / "con" / "handoff.ctrd")
    calls = [["run", program, "--check", "sc", "--seed", "1"], ["run", program],
             ["explore", program, "--check", "sc,ec"], ["run", program, "--sched", "nope"]]
    together = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        together.append((code, *capsys.readouterr()))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    for argv, (code, out, err) in zip(calls, together):
        alone = subprocess.run([sys.executable, "-m", "ctrd.cli", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src})
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
    reports = [json.loads(out.splitlines()[-1]) for _, out, _ in together[:2]]
    assert "sc" in reports[0]["checks"] and not reports[1].get("checks")
    assert together[3][0] == 2


# client 1 stores in a con cell a closure that reads its local reference l
# through a variable; client 2 calls it on another client
CAPTURED_LOCAL = """servers 2;
client 1 { let l = ref@loc(nat 1 @loc, (loc,1)) in let f = fn@con(z: Unit@loc) => !l in
           let r = ref@con(f, (con,1)) in unit @loc }
client 2 { let r = await((con,1)) in (!r) (unit @loc) }
"""


def test_a_closure_that_captures_a_local_reference_loses_wf_at_run_time(tmp_path, capsys):
    """A soundness hole, pinned as it stands: the ref escape check reads
    the references an initializer holds and whether its type is ref-free,
    and sees neither a local reference a closure captured through a
    variable, so the program checks and loses well-formedness at the step
    that puts f, which by then holds l's location, into the ref@con. This
    test changes when the hole is closed: check then rejects the program."""
    path = tmp_path / "captured.ctrd"
    path.write_text(CAPTURED_LOCAL)
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--check", "wf"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"{path}: runtime fault: Stuck: well-formedness lost: client 1: residual term "
        "untypable: content labeled loc stored under con must not contain references\n")
    assert main(["explore", str(path), "--check", "wf"]) == 4
    out, err = capsys.readouterr()
    assert err == f"{path}: runtime fault: DanglingLocation: c1.l1 not in the local store\n"
