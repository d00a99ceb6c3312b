"""Tests of the benchmark itself: `PYTHONPATH=src python -m pytest bench -q`."""

import subprocess
import sys
import time
from pathlib import Path

import gen
import tracer

BENCH = Path(__file__).resolve().parent


def test_generator_gives_identical_programs_for_a_seed():
    for mix, clone in ((gen.LONG_MIX, True), (gen.HISTORY_MIX, False)):
        a = gen.chain_program(7, "p", mix, clone)
        assert a == gen.chain_program(7, "p", mix, clone)
        other = gen.chain_program(8, "p", mix, clone)
        assert other.text != a.text
        # another seed keeps the size class: same lets, same buffered writes
        assert other.text.count(" in\n") == a.text.count(" in\n")
        assert other.buffered_writes == a.buffered_writes
    assert gen.anomaly_variant(3, "m") == gen.anomaly_variant(3, "m")
    assert gen.anomaly_variant(3, "m").text != gen.anomaly_variant(4, "m").text


def test_anomaly_template_is_the_corpus_program():
    corpus = (BENCH.parent / "corpus" / "anomaly" / "mixed.ctrd").read_text()
    assert gen.MIXED_TEMPLATE.format(p0=0, q0=0, w=1, q1=2) == corpus


def test_self_time_excludes_children():
    spans = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = spans.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_outer = spans.wrap("outer", outer)
    spans.job(traced_outer)
    (job,) = spans.per_job()
    root = job["busy"][tracer.ROOT_SPAN]
    assert job["self"]["inner"] >= 0.02
    assert 0.01 <= job["self"]["outer"] < 0.02
    assert abs(sum(job["self"].values()) - root) < 1e-9
    assert job["under"][("inner", "outer")] == 1


def test_smoke_run_passes_every_check():
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert p.stdout.count("SMOKE ") == 6
    assert " FAIL " not in p.stdout
