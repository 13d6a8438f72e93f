#!/usr/bin/env python3
"""Benchmark of spherical-pi: seeded workloads, checked answers, timed public calls.

Run from the root of a checkout (it imports the package from ``src/``):

    python3 bench/run.py --workload group_ladder --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next op starts
when the previous one returns.  Only calls into ``spherical_pi``'s public
functions are timed; every output is checked against answers computed by
``bench/gen.py``, which shares no code with the package.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The results record
(environment, sample counts, report digest) and, for a traced run, the
spans are written to ``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer, no_span  # noqa: E402
from workloads import WORKLOADS, Case, canonical, make_cases, probe  # noqa: E402

POOL = 8  # input sets drawn per seed; pass j runs set j mod POOL
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
MAX_FAILURES_KEPT = 20


def fresh_import(src: str):
    """Import spherical_pi from ``src`` anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "spherical_pi" or n.startswith("spherical_pi.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    sp = importlib.import_module("spherical_pi")
    if os.path.dirname(os.path.abspath(sp.__file__)) != os.path.join(src, "spherical_pi"):
        raise ImportError(f"spherical_pi was imported from {sp.__file__}, not from {src}")
    return sp


def git_sha(root: str) -> str:
    """Commit of the checkout read from .git, or 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Counts, latencies and report digests of one benchmark run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.latencies: list[float] = []
        self.pass_seconds: list[float] = []
        self.digests: dict[tuple[int, str], str] = {}
        self.set_digests: dict[int, str] = {}
        self.cert_bits = 0

    def record(self, set_index: int, case: Case, out, problems: list[str]) -> None:
        self.attempted += 1
        if out is not None:
            text = canonical(out)
            digest = hashlib.sha256(text.encode()).hexdigest()
            key = (set_index, case.item.name)
            if self.digests.setdefault(key, digest) != digest:
                problems = problems + [f"{case.item.name}: output differs from the first pass"]
        if problems:
            self.failed += 1
            self.failures.extend(problems[: MAX_FAILURES_KEPT - len(self.failures)])

    def run_pass(self, sp, set_index: int, cases: list[Case],
                 tracer: Tracer | None = None) -> float:
        """One pass over a set; returns the summed op time in seconds.

        With a tracer, each op and its public calls are spans, and each op
        is followed by the probe of the remaining layers on the same item.
        """
        span = tracer.span if tracer is not None else no_span
        total = 0.0
        for case in cases:
            if tracer is not None:
                tracer.op_id = f"{set_index}:{case.item.name}"
                first = len(tracer.spans)
            out = None
            t0 = time.perf_counter()
            try:
                with span("op"):
                    out = self.workload.op(sp, case, span)
            except Exception as exc:  # a failing op is counted and the loop goes on
                problems = [f"{case.item.name}: {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            if out is not None:
                try:
                    problems = self.workload.check(case, out)
                    if tracer is not None:
                        in_op = {(s["name"], s.get("matrix")) for s in tracer.spans[first:]}
                        with span("probe"):
                            found, bits = probe(sp, case, span, in_op)
                        problems += found
                        self.cert_bits = max(self.cert_bits, bits)
                except Exception as exc:  # malformed output, or a probed layer raised
                    problems = [f"{case.item.name}: {type(exc).__name__}: {exc}"]
            self.latencies.append(dt)
            total += dt
            self.record(set_index, case, out, problems)
        if set_index not in self.set_digests:
            joined = "".join(self.digests[(set_index, c.item.name)]
                             for c in cases if (set_index, c.item.name) in self.digests)
            self.set_digests[set_index] = hashlib.sha256(joined.encode()).hexdigest()
        return total


def setup(workload, seed: int, src: str) -> tuple[object, list[list[Case]], float, list[str]]:
    """Import, generate the input pool with its answers, warm up on one item."""
    t0 = time.perf_counter()
    sp = fresh_import(src)
    pool = [make_cases(sp, workload.items(seed, k)) for k in range(POOL)]
    warm = min(pool[0], key=lambda c: (c.item.rank, c.item.name))
    try:
        problems = workload.check(warm, workload.op(sp, warm, no_span))
    except Exception as exc:  # counted as a failed op, like one in the loop
        problems = [f"warm-up {warm.item.name}: {type(exc).__name__}: {exc}"]
    return sp, pool, time.perf_counter() - t0, problems


def snf_calls_per_report(sp, cases: list[Case]) -> dict[str, list[int]]:
    """SNF calls made by one full_report on each item, observed by a profile hook.

    This pass is never timed.  Returns item name -> [weight rank, calls].
    """
    snf_code = sp.snf.__code__
    out = {}
    for case in cases:
        sd = sp.parse(case.text)
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is snf_code:
                calls += 1

        sys.setprofile(hook)
        try:
            sp.full_report(sd)
        finally:
            sys.setprofile(None)
        out[case.item.name] = [case.item.rank, calls]
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    keeps at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(run: Run, sp, pool, seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        run.pass_seconds.append(run.run_pass(sp, j % POOL, pool[j % POOL]))
        j += 1
        if time.perf_counter() >= deadline:
            break


def measure_traced(run: Run, sp, pool, seconds: float, tracer: Tracer) -> list[float]:
    """Alternate an untraced and a traced pass over the same set.

    Returns the tracing overhead of each pair: traced op time over
    untraced op time, minus one.
    """
    overheads = []
    deadline = time.perf_counter() + seconds
    j = 0
    while True:
        cases = pool[j % POOL]
        plain = run.run_pass(sp, j % POOL, cases)
        run.pass_seconds.append(plain)
        tracer.pass_index = j
        traced = run.run_pass(sp, j % POOL, cases, tracer=tracer)
        overheads.append(traced / plain - 1.0)
        j += 1
        if time.perf_counter() >= deadline:
            break
    return overheads


def layer_metrics(tracer: Tracer, cert_bits: int, snf_calls: dict, overheads: list[float]) -> dict:
    ms = tracer.median_ms

    def fraction_basis() -> float:
        per_pass = [0.0] * len(tracer.per_pass_seconds("op"))
        for tag in ("F", "FE"):
            dual = tracer.per_pass_seconds("lattices.dual_saturation", matrix=tag)
            kernel = tracer.per_pass_seconds("intmat.snf", matrix=tag)
            per_pass = [acc + d - k for acc, d, k in zip(per_pass, dual, kernel)]
        return statistics.median(per_pass) * 1e3

    enumerate_s = sum(tracer.per_pass_seconds("oracle.enumerate"))
    points = sum(s["points"] for s in tracer.spans if s["name"] == "oracle.enumerate")
    largest = max(snf_calls.values())  # the item of largest weight rank
    return {
        "spherical.validate_ms": metric(ms("spherical.validate"), "ms"),
        "root_data.restrict_coroots_ms": metric(ms("root_data.restrict_coroots"), "ms"),
        "documents.parse_ms": metric(ms("documents.parse"), "ms"),
        "intmat.snf_ms": metric(ms("intmat.snf"), "ms"),
        "intmat.cert_bits_max": metric(cert_bits, "count"),
        "intmat.snf_calls_per_report": metric(largest[1], "count"),
        "lattices.dual_saturation_ms": metric(ms("lattices.dual_saturation"), "ms"),
        "lattices.fraction_basis_ms": metric(fraction_basis(), "ms"),
        "spherical.color_saturation_ms": metric(ms("spherical.color_saturation"), "ms"),
        "spherical.ambient_saturation_ms": metric(ms("spherical.ambient_saturation"), "ms"),
        "spherical.pi0_ms": metric(ms("spherical.pi0"), "ms"),
        "spherical.pi1_ms": metric(ms("spherical.pi1"), "ms"),
        "spherical.full_report_ms": metric(ms("spherical.full_report"), "ms"),
        "lattices.p_prime_part_us": metric(ms("lattices.p_prime_part") * 1e3, "us"),
        "documents.serialize_ms": metric(ms("documents.serialize"), "ms"),
        "catalog.run_entry_ms": metric(ms("catalog.run_entry"), "ms"),
        "oracle.enumerate_ms": metric(ms("oracle.enumerate"), "ms"),
        "oracle.points_per_s": metric(points / enumerate_s, "1/s"),
        "oracle.structure_match_ms": metric(ms("oracle.structure_match"), "ms"),
        "trace_overhead_frac": metric(statistics.median(overheads), "frac"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spherical_pi", "__init__.py")):
        print(f"error: no src/spherical_pi under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(workload)

    setup_seconds = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        sp, pool, elapsed, warm_problems = setup(workload, args.seed, src)
        setup_seconds.append(elapsed)
    # the input pool is long-lived: keep it out of the collector's scans,
    # which would otherwise charge the program for the benchmark's objects
    gc.collect()
    gc.freeze()
    if warm_problems:
        run.attempted += 1
        run.failed += 1
        run.failures.extend(warm_problems[:MAX_FAILURES_KEPT])

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root),
        "ops_per_pass": len(pool[0]),
        "pool_sets": POOL,
        "setup_samples": len(setup_seconds),
    }
    spans = None
    if args.trace:
        tracer = Tracer()
        snf_calls = snf_calls_per_report(sp, pool[0])
        overheads = measure_traced(run, sp, pool, args.seconds, tracer)
        metrics = layer_metrics(tracer, run.cert_bits, snf_calls, overheads)
        record["snf_calls_per_report"] = snf_calls
        record["traced_passes"] = len(overheads)
        spans = tracer.spans
    else:
        measure(run, sp, pool, args.seconds)
        value, percentile, beyond = tail(run.latencies)
        metrics = {
            "setup_s": metric(statistics.median(setup_seconds), "s"),
            "ops_per_s": metric(len(pool[0]) / statistics.median(run.pass_seconds), "1/s"),
            "op_p50_ms": metric(statistics.median(run.latencies) * 1e3, "ms"),
            "op_tail_ms": metric(value * 1e3, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
        record["tail_percentile"] = percentile
        record["tail_samples_beyond"] = beyond
        record["setup_seconds"] = setup_seconds
    record.update({
        "passes": len(run.pass_seconds),
        "op_samples": len(run.latencies),
        "pass_seconds": run.pass_seconds,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "report_sha256": run.set_digests.get(0),
        "set_sha256": {str(k): v for k, v in sorted(run.set_digests.items())},
        "metrics": metrics,
    })

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"record": record, "spans": spans}, fh)
    print(json.dumps({k: record[k] for k in (
        "workload", "seed", "git_sha", "python", "nproc", "ops_per_pass", "passes",
        "op_samples", "failed_frac", "report_sha256")}))
    for failure in run.failures:
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
