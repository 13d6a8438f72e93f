"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
"""

import functools
import math
import random
import time
from itertools import combinations

from spherical_pi.arith import divisors
from spherical_pi.catalog import catalog, catalog_entry, run_entry
from spherical_pi.intmat import IntMatrix, snf
from spherical_pi.lattices import dual_saturation
from spherical_pi.oracle import enumerate_torsion, structure_match
from spherical_pi.root_data import ADJOINT, build_standard
from spherical_pi.spherical import (
    PASS,
    PiResult,
    ambient_color_saturation,
    color_saturation,
    validate,
)
from spherical_pi.documents import parse
from spherical_pi.verify import contains, coroot_saturation, det


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] {name}: FAIL")
                raise
            print(f"\n[criterion {num}] {name}: PASS")
            return result

        return wrapper

    return deco


def pi_pair(entry_name, p):
    run = next(r for r in run_entry(catalog_entry(entry_name)) if r.p == p)
    return run.pi0, run.pi1


@criterion(1, "SL(2) mod normalizer reproduction")
def test_criterion_1_sl2_mod_normalizer():
    from spherical_pi.cli import main as cli_main

    start = time.perf_counter()
    runs = {r.p: r for r in run_entry(catalog_entry("sl2_mod_normalizer"))}
    for p in (1, 3, 5):
        assert runs[p].pi0 == PiResult(0, (2,), p)
        assert runs[p].pi1 == PiResult(0, (2,), p)
    assert runs[2].pi0 == PiResult(0, (), 2)
    assert runs[2].pi1 == PiResult(0, (), 2)
    # the CLI path must agree (exit code 0 means every p matched)
    assert cli_main(["catalog", "run", "sl2_mod_normalizer"]) == 0
    assert time.perf_counter() - start < 1.0


@criterion(2, "group case reproduction")
def test_criterion_2_group_cases():
    start = time.perf_counter()
    a2 = {r.p: r for r in run_entry(catalog_entry("group_case_A2_adjoint"))}
    for p in (1, 2, 5):
        assert a2[p].pi1 == PiResult(0, (3,), p)
    assert a2[3].pi1 == PiResult(0, (), 3)
    a1 = {r.p: r for r in run_entry(catalog_entry("group_case_A1_adjoint"))}
    for p in (1, 3, 5):
        assert a1[p].pi1 == PiResult(0, (2,), p)
    assert a1[2].pi1 == PiResult(0, (), 2)
    assert time.perf_counter() - start < 1.0


@criterion(3, "torus profinite case")
def test_criterion_3_torus_rank_two():
    for run in run_entry(catalog_entry("torus_rank_2")):
        assert run.pi0 == PiResult(0, (), run.p)
        assert run.pi1 == PiResult(2, (), run.p)


# ---------------------------------------------------------------------------
# Criterion 4: oracle equivalence on randomized instances.

SUITE_CAP = 50_000  # per-instance enumeration cap used by this suite


def capped_modulus(factors, r):
    full = math.prod(factors) if factors else 1
    if full**r <= SUITE_CAP:
        return full
    return max(d for d in divisors(full) if d**r <= SUITE_CAP)


@criterion(4, "oracle equivalence suite (>= 500 instances)")
def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260810)
    instances = 0
    for _ in range(500):
        r = rng.randint(1, 4)
        m = rng.randint(0, 4)
        d = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(r)] for _ in range(m)], cols=r
        )
        _, q = dual_saturation(r, d)
        moduli = {capped_modulus(q.invariant_factors, r)}
        if q.divisible_rank:
            moduli.update(n for n in (2, 3, 4, 6) if n**r <= SUITE_CAP)
        if moduli == {1}:
            moduli.add(2)
        for n in sorted(moduli):
            sample = enumerate_torsion(d, n)
            res = structure_match(sample, q, n)
            assert res.ok, (d.entries, n, res.mismatches)
            instances += 1
    assert instances >= 500
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 5: SNF certificates on >= 1000 random matrices up to 8x8.


def det_small(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def minors_gcd(m, t):
    g = 0
    for rows in combinations(range(m.rows), t):
        for cols in combinations(range(m.cols), t):
            g = math.gcd(g, det_small([[m[i][j] for j in cols] for i in rows]))
    return g


@criterion(5, "SNF certificate suite (>= 1000 matrices)")
def test_criterion_5_snf_certificates():
    start = time.perf_counter()
    rng = random.Random(48151623)
    for trial in range(1000):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        m = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)]
        )
        res = snf(m)
        assert (res.U @ m @ res.V) == res.S, trial
        assert abs(det(res.U)) == 1, trial
        assert abs(det(res.V)) == 1, trial
        diag = res.diagonal()
        for i, d in enumerate(diag):
            assert d > 0 if i < res.rank else d == 0, trial
        for a, b in zip(diag, diag[1:]):
            if b:
                assert b % a == 0, trial
        for i in range(res.S.rows):
            for j in range(res.S.cols):
                if i != j:
                    assert res.S[i][j] == 0, trial
        for t in range(1, min(3, nr, nc) + 1):
            assert minors_gcd(m, t) == math.prod(diag[:t]), (trial, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"SNF suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 6: fundamental group orders of the adjoint types.

FUNDAMENTAL_GROUP_TABLE = (
    [("A", n, n + 1) for n in range(1, 9)]
    + [("B", n, 2) for n in (2, 3, 4)]
    + [("C", n, 2) for n in (3, 4)]
    + [("D", n, 4) for n in (4, 5, 6)]
    + [("E", 6, 3), ("E", 7, 2), ("E", 8, 1), ("F", 4, 1), ("G", 2, 1)]
)


@criterion(6, "fundamental group table for adjoint root data")
def test_criterion_6_fundamental_groups():
    for series, rank, expected in FUNDAMENTAL_GROUP_TABLE:
        _, q = coroot_saturation(build_standard(series, rank, ADJOINT, 0))
        assert q.divisible_rank == 0, (series, rank)
        assert q.order() == expected, (series, rank)


# ---------------------------------------------------------------------------
# Criterion 7: sandwich and containment properties on the whole catalog.


@criterion(7, "sandwich and containment properties")
def test_criterion_7_sandwich_and_containment():
    from fractions import Fraction

    for entry in catalog():
        sd = parse(entry.document)
        sat, sat_q = color_saturation(sd)
        amb_sat, amb_q = ambient_color_saturation(sd)
        # finiteness of the ambient quotient
        assert amb_q.divisible_rank == 0, entry.name
        # the weight lattice sits inside the ambient saturation, which
        # sits inside the full color saturation
        for i in range(sd.rank):
            e = tuple(int(i == j) for j in range(sd.rank))
            assert contains(amb_sat, e), entry.name
            assert contains(sat, e), entry.name
        for v in amb_sat.finite_direction_basis:
            assert contains(sat, v), entry.name
        # the finite quotient embeds: aligned invariant factors divide,
        # with divisible slots absorbing anything
        small = sorted(amb_q.invariant_factors, reverse=True)
        capacity = [0] * sat_q.divisible_rank + sorted(
            sat_q.invariant_factors, reverse=True
        )
        assert len(small) <= len(capacity), entry.name
        for s, c in zip(small, capacity):
            assert c == 0 or c % s == 0, entry.name
        # integral pairing against every coroot whenever validation passes
        if all(o.level == PASS for o in validate(sd)):
            coroots = sd.root_datum.coroot_matrix()
            emb = sd.lattice_embedding
            for v in sat.finite_direction_basis + sat.divisible_subspace_basis:
                ambient = [
                    sum(Fraction(emb[i][j]) * v[j] for j in range(sd.rank))
                    for i in range(sd.ambient_rank)
                ]
                for i in range(coroots.rows):
                    val = sum(
                        Fraction(coroots[i][j]) * ambient[j]
                        for j in range(sd.ambient_rank)
                    )
                    assert val.denominator == 1, entry.name
