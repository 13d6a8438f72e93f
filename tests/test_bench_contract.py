"""Smoke test of the package surface that the benchmark in ``bench/`` calls.

Runs ``bench/selftest.py``, then, untraced, each workload's op, its check
and the per-layer probe on the items of rank at most 10 in input set 0.
A change that drops or renames a name the benchmark uses fails here
rather than only in the benchmark.  Nothing under ``bench/`` is written.
Last, every workload loop of the CI workflow must name exactly the
workloads of ``BENCHMARK.json``.
"""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import spherical_pi

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SEED = 0


@pytest.fixture(scope="module")
def bench():
    # importing from bench/ must leave no __pycache__ there
    sys.path.insert(0, BENCH)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(BENCH)


def test_selftest_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "selftest.py")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_workloads_on_small_items(bench):
    workloads, spans = bench
    for workload in workloads.WORKLOADS.values():
        cases = [
            case
            for case in workloads.make_cases(spherical_pi, workload.items(SEED, 0))
            if case.item.rank <= workloads.SMALL_RANK
        ]
        assert cases, workload.name
        for case in cases:
            out = workload.op(spherical_pi, case, spans.no_span)
            assert workload.check(case, out) == [], workload.name
            problems, _ = workloads.probe(spherical_pi, case, spans.no_span, set())
            assert problems == [], workload.name


def test_ci_loops_run_every_workload():
    # a workload added to or renamed in BENCHMARK.json cannot drop out of CI
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = sorted(w["name"] for w in json.load(f)["workloads"])
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as f:
        loops = re.findall(r"for workload in ([^;\n]*); do", f.read())
    assert loops, "the workflow has no workload loop"
    for loop in loops:
        assert sorted(loop.split()) == names, loop
