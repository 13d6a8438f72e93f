#!/usr/bin/env python3
"""Self-test of the benchmark's expected answers against sympy.

    python3 bench/selftest.py

A third route, sharing no code with ``spherical_pi`` or ``bench/gen.py``:
sympy's ``smith_normal_form`` must give the fundamental-group table's
factors for every Cartan matrix (and twice them for the exploratory
twins), and the planted invariants of every generated item up to rank 10
on a few seeds.  p'-parts are checked against sympy's ``multiplicity``.
Skipped, with exit code 0, when sympy is not installed.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
from workloads import SMALL_RANK, WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2)
CARTAN_CASES = [("A", n) for n in range(1, 11)] + [
    (s, n) for s, lo in (("B", 2), ("C", 3), ("D", 4)) for n in range(lo, 10)
] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def smith_invariants(rows: list[list[int]], cols: int) -> tuple[int, list[int]]:
    """(cols - rank, diagonal entries other than 1) of the sympy Smith form."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return cols, []
    s = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(s[i, i])) for i in range(min(s.shape))]
    rank = sum(1 for d in diag if d)
    return cols - rank, sorted(d for d in diag if d > 1)


def check_cartan() -> list[str]:
    problems = []
    for series, n in CARTAN_CASES:
        c = gen.cartan(series, n)
        want = gen.fundamental_group(series, n)
        if smith_invariants(c, n) != (0, want):
            problems.append(f"{series}{n}: Smith factors {smith_invariants(c, n)}, table {want}")
        doubled = sorted([2] * (n - len(want)) + [2 * d for d in want])
        if smith_invariants([[2 * x for x in row] for row in c], n) != (0, doubled):
            problems.append(f"{series}{n} twin: Smith factors differ from twice the table")
    return problems


def check_items() -> list[str]:
    problems = []
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            for item in workload.items(seed, 0):
                if item.rank > SMALL_RANK:
                    continue
                lattice_rows = [list(row) for row in zip(*item.doc["lattice"])]
                colors = item.doc["colors"]
                if smith_invariants(colors, item.rank) != tuple(item.saturation):
                    problems.append(f"{workload.name}/{seed}/{item.name}: color quotient")
                if smith_invariants(colors + lattice_rows, item.rank) != (0, item.ambient):
                    problems.append(f"{workload.name}/{seed}/{item.name}: ambient quotient")
    return problems


def check_p_prime() -> list[str]:
    from sympy import multiplicity

    problems = []
    factors = list(range(2, 200))
    for p in gen.CHARACTERISTICS[1:]:
        want = [d // p ** multiplicity(p, d) for d in factors]
        if gen.p_prime(factors, p) != [d for d in want if d > 1]:
            problems.append(f"p'-part at p = {p}")
    return problems


def main() -> int:
    try:
        import sympy  # noqa: F401
    except ImportError:
        print("sympy is not installed; self-test skipped")
        return 0
    problems = check_cartan() + check_items() + check_p_prime()
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
