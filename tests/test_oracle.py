"""Brute-force torsion enumeration and structure comparison."""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest

from spherical_pi import oracle
from spherical_pi.arith import _prime_powers, divisors
from spherical_pi.catalog import catalog
from spherical_pi.documents import parse
from spherical_pi.intmat import IntMatrix, stack_rows
from spherical_pi.lattices import FinGenAbQuotient, dual_saturation
from spherical_pi.oracle import (
    ENUMERATION_BUDGET,
    EnumerationBudgetError,
    TorsionGroupSample,
    enumerate_torsion,
    structure_match,
)
from spherical_pi.spherical import SphericalDatum, ambient_saturation_quotient
from spherical_pi.verify import torus


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def full_grid_walk(functionals, modulus):
    """Reference: test every point of the grid, in lexicographic order.

    Returns the elements and their order histogram, as
    ``enumerate_torsion`` does.
    """
    r = functionals.cols
    m = functionals.rows
    cols = [
        tuple(functionals[i][j] % modulus for i in range(m)) for j in range(r)
    ]
    elements = []
    prefix = [0] * r

    def walk(j, acc):
        if j == r:
            if not any(acc):
                elements.append(tuple(prefix))
            return
        col = cols[j]
        cur = acc
        for a in range(modulus):
            prefix[j] = a
            walk(j + 1, cur)
            cur = tuple((x + y) % modulus for x, y in zip(cur, col))

    walk(0, (0,) * m)
    histogram = Counter(modulus // gcd(modulus, *e) if e else 1 for e in elements)
    return tuple(elements), dict(histogram)


def random_functionals(rng, r, m, bound):
    rows = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)]
    return mat(rows, cols=r)


class TestEnumerateTorsion:
    def test_half_integers(self):
        sample = enumerate_torsion(mat([[2]]), 2)
        assert sample.elements == ((0,), (1,))
        assert sample.order_histogram == {1: 1, 2: 1}

    def test_unconstrained_line(self):
        sample = enumerate_torsion(IntMatrix.from_rows([], cols=1), 3)
        assert sample.elements == ((0,), (1,), (2,))
        assert sample.order_histogram == {1: 1, 3: 2}

    def test_identity_constraints(self):
        sample = enumerate_torsion(IntMatrix.identity(2), 6)
        assert sample.elements == ((0, 0),)
        assert sample.order_histogram == {1: 1}

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_torsion(IntMatrix.identity(4), 100)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            enumerate_torsion(mat([[1]]), 0)

    def test_budget_bounds_the_modulus_with_no_columns(self):
        # the grid of a 0-column matrix is one point for any modulus
        none = IntMatrix.from_rows([], cols=0)
        assert enumerate_torsion(none, ENUMERATION_BUDGET).elements == ((),)
        with pytest.raises(EnumerationBudgetError):
            enumerate_torsion(none, ENUMERATION_BUDGET + 1)

    @pytest.mark.parametrize("modulus", [True, 2.0, "2", Fraction(2)])
    def test_modulus_must_be_an_int(self, modulus):
        with pytest.raises(TypeError, match="modulus must be an int"):
            enumerate_torsion(mat([[1]]), modulus)

    def test_lexicographic_order(self):
        sample = enumerate_torsion(IntMatrix.from_rows([], cols=2), 3)
        assert sample.elements == tuple(
            (a, b) for a in range(3) for b in range(3)
        )

    def test_closed_under_addition(self):
        d = mat([[2, 4], [3, 3]])
        sample = enumerate_torsion(d, 6)
        elements = set(sample.elements)
        assert (0, 0) in elements
        for x in elements:
            for y in elements:
                z = tuple((a + b) % 6 for a, b in zip(x, y))
                assert z in elements


class TestMeetInTheMiddle:
    def test_matches_full_grid_walk(self):
        rng = random.Random(20261018)
        cases = 0
        while cases < 1000:
            r, m, modulus = rng.randint(0, 5), rng.randint(0, 4), rng.randint(1, 9)
            if modulus**r > 20000:
                continue
            f = random_functionals(rng, r, m, 12)
            sample = enumerate_torsion(f, modulus)
            elements, histogram = full_grid_walk(f, modulus)
            assert sample.elements == elements, (f.entries, modulus)
            assert sample.order_histogram == histogram, (f.entries, modulus)
            cases += 1

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_rank_zero_is_the_trivial_group(self, m):
        sample = enumerate_torsion(mat([()] * m, cols=0), 5)
        assert sample.elements == ((),)
        assert sample.order_histogram == {1: 1}

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_no_functionals_give_the_full_grid(self, r):
        sample = enumerate_torsion(mat([], cols=r), 3)
        assert sample.elements == full_grid_walk(mat([], cols=r), 3)[0]
        assert len(sample.elements) == 3**r

    @pytest.mark.parametrize("r", [0, 1, 4])
    def test_modulus_one_gives_the_origin(self, r):
        sample = enumerate_torsion(mat([[7] * r, [-3] * r], cols=r), 1)
        assert sample.elements == ((0,) * r,)
        assert sample.order_histogram == {1: 1}


def smallest_factor(q):
    return next(d for d in range(2, q + 1) if q % d == 0)


def test_prime_powers_against_brute_force():
    assert _prime_powers(1) == []
    for n in range(2, 5001):
        parts = _prime_powers(n)
        assert prod(parts) == n, n
        primes = [smallest_factor(q) for q in parts]
        # each part is a power of its smallest prime, by ascending prime
        for p, q in zip(primes, parts):
            while q % p == 0:
                q //= p
            assert q == 1, (n, parts)
        assert primes == sorted(set(primes)), (n, parts)
        assert all(gcd(a, b) == 1 for a, b in combinations(parts, 2)), (n, parts)
    with pytest.raises(ValueError):
        _prime_powers(0)


SPLIT_MODULI = (10, 12, 15, 18, 20, 30, 36, 60)


@pytest.fixture
def walked(monkeypatch):
    """The moduli that enumerate_torsion walks at, in order."""
    moduli = []
    walk = oracle._walk

    def recording(functionals, modulus):
        moduli.append(modulus)
        return walk(functionals, modulus)

    monkeypatch.setattr(oracle, "_walk", recording)
    return moduli


class TestSplitByPrimePowers:
    def test_matches_full_grid_walk(self, walked):
        rng = random.Random(20261019)
        paths = Counter()
        for modulus in SPLIT_MODULI:
            parts = _prime_powers(modulus)
            for r in range(0, 6):
                if modulus**r > 20000:
                    continue
                for m, scale in product(range(0, 5), divisors(modulus)):
                    # scaling F by a divisor of the modulus enlarges the group
                    f = mat([[scale * x for x in row] for row in
                             random_functionals(rng, r, m, modulus).entries], cols=r)
                    walked.clear()
                    sample = enumerate_torsion(f, modulus)
                    elements, histogram = full_grid_walk(f, modulus)
                    assert sample.elements == elements, (f.entries, modulus)
                    assert sample.order_histogram == histogram, (f.entries, modulus)
                    h = r // 2
                    if 2 * len(elements) <= modulus**h + modulus ** (r - h):
                        assert walked == parts, (f.entries, modulus)
                        paths["combine"] += 1
                    else:
                        assert walked == parts + [modulus], (f.entries, modulus)
                        paths["walk at N"] += 1
        assert paths["combine"] >= 50 and paths["walk at N"] >= 20, paths

    @pytest.mark.parametrize("modulus", SPLIT_MODULI)
    def test_no_functionals_walk_at_the_modulus(self, walked, modulus):
        r = 2
        sample = enumerate_torsion(mat([], cols=r), modulus)
        assert walked == _prime_powers(modulus) + [modulus]
        assert (sample.elements, sample.order_histogram) == full_grid_walk(
            mat([], cols=r), modulus
        )

    @pytest.mark.parametrize("modulus", SPLIT_MODULI)
    def test_a_small_group_is_combined(self, walked, modulus):
        # the N-torsion of Z/2 x Z/3
        f = mat([[2, 0], [0, 3]])
        sample = enumerate_torsion(f, modulus)
        assert walked == _prime_powers(modulus)
        assert (sample.elements, sample.order_histogram) == full_grid_walk(
            f, modulus
        )

    @pytest.mark.parametrize("modulus", [1, 2, 8, 9, 25, 27])
    def test_a_prime_power_is_its_own_walk(self, walked, modulus):
        # modulus 1 has no prime power and needs no walk
        f = mat([[2, 4, 6]])
        sample = enumerate_torsion(f, modulus)
        assert walked == _prime_powers(modulus)
        assert (sample.elements, sample.order_histogram) == full_grid_walk(
            f, modulus
        )


# moduli around each change of bit length, where the packed walk's
# fields change width
FIELD_WIDTH_MODULI = (
    tuple(range(2, 10)) + (15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129)
)


class TestPackedWalk:
    def test_field_widths(self):
        rng = random.Random(20261022)
        for modulus in FIELD_WIDTH_MODULI:
            top = max(r for r in range(2, 15) if modulus**r <= 20000)
            for m in range(0, 9):
                r = rng.randint(2, top)
                f = random_functionals(rng, r, m, 3 * modulus)
                elements, histogram = full_grid_walk(f, modulus)
                assert oracle._walk(f, modulus) == list(elements), (f.entries, modulus)
                sample = enumerate_torsion(f, modulus)
                assert sample.elements == elements, (f.entries, modulus)
                assert sample.order_histogram == histogram, (f.entries, modulus)

    def test_rank_one_against_full_grid_walk(self):
        rng = random.Random(20261023)
        for modulus in range(1, 65):
            for m in range(0, 5):
                # a common divisor of the row and the modulus enlarges the group
                scale = rng.choice(divisors(modulus))
                f = mat([[scale * rng.randint(-3 * modulus, 3 * modulus)]
                         for _ in range(m)], cols=1)
                sample = enumerate_torsion(f, modulus)
                assert (sample.elements, sample.order_histogram) == full_grid_walk(
                    f, modulus
                ), (f.entries, modulus)

    def test_rank_one_at_the_largest_prime_in_the_budget(self):
        modulus = 9999991
        assert _prime_powers(modulus) == [modulus] and modulus < ENUMERATION_BUDGET
        start = time.perf_counter()
        sample = enumerate_torsion(mat([[1]]), modulus)
        assert time.perf_counter() - start < 1.0
        assert sample.elements == ((0,),)
        assert sample.order_histogram == {1: 1}


def pinned_cases():
    """Cases beyond full_grid_walk's reach: many elements, or grids of
    2e4 to 3e5 points."""
    cases = [
        (mat([[1, 2, 3, 4, 5, 6]]), 12),
        (mat([[10, 6, 0], [0, 0, 7]]), 210),
        (mat([[2, 3, 5]]), 210),
    ]
    rng = random.Random(20261022)
    while len(cases) < 53:
        r = rng.randint(2, 8)
        moduli = [n for n in range(2, 548) if 2 * 10**4 <= n**r <= 3 * 10**5]
        modulus = rng.choice(moduli)
        m = rng.randint(1, r + 2)
        scale = rng.choice(divisors(modulus)[:-1])
        rows = [[scale * rng.randint(-modulus, modulus) for _ in range(r)]
                for _ in range(m)]
        cases.append((mat(rows, cols=r), modulus))
    return cases


def test_outputs_beyond_the_full_grid_walk_are_pinned():
    # sha256 of the repr of (elements, sorted histogram) of every case,
    # recorded from the walk that kept each residue as a tuple
    digest = hashlib.sha256()
    for f, modulus in pinned_cases():
        sample = enumerate_torsion(f, modulus)
        out = (sample.elements, sorted(sample.order_histogram.items()))
        digest.update(repr(out).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "6335ca13acfc3dbdc8a73eecca1cac668b231a6125fabab19eccfcb311f0fa28"
    )


def block_diagonal(a, b):
    rows = [row + (0,) * b.cols for row in a.entries]
    rows += [(0,) * a.cols + row for row in b.entries]
    return mat(rows, cols=a.cols + b.cols)


def test_block_diagonal_data_give_product_groups():
    rng = random.Random(5150)
    for _ in range(150):
        modulus = rng.randint(1, 8)
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        f1 = random_functionals(rng, r1, rng.randint(0, 3), 9)
        f2 = random_functionals(rng, r2, rng.randint(0, 3), 9)
        s1 = enumerate_torsion(f1, modulus)
        s2 = enumerate_torsion(f2, modulus)
        whole = enumerate_torsion(block_diagonal(f1, f2), modulus)
        assert whole.elements == tuple(
            sorted(a + b for a in s1.elements for b in s2.elements)
        )
        # the order of (a, b) is the lcm of the orders of a and b
        convolution = Counter()
        for o1, c1 in s1.order_histogram.items():
            for o2, c2 in s2.order_histogram.items():
                convolution[lcm(o1, o2)] += c1 * c2
        assert whole.order_histogram == dict(convolution)


def oracle_moduli(q, r):
    """The largest invariant factor if there is one, else 2 to 6, within the budget."""
    moduli = [q.invariant_factors[-1]] if q.invariant_factors else range(2, 7)
    moduli = [n for n in moduli if n**r <= ENUMERATION_BUDGET]
    assert moduli, (q, r)
    return moduli


def assert_oracle_confirms(sd):
    color_q = dual_saturation(sd.rank, sd.colors)[1]
    for n in oracle_moduli(color_q, sd.rank):
        sample = enumerate_torsion(sd.colors, n)
        res = structure_match(sample, color_q, n)
        assert res.ok, (sd.label, "color", n, res.mismatches)
    ambient_q = ambient_saturation_quotient(sd)
    stacked = stack_rows(sd.colors, sd.lattice_embedding)
    for n in oracle_moduli(ambient_q, sd.rank):
        sample = enumerate_torsion(stacked, n)
        res = structure_match(sample, ambient_q, n)
        assert res.ok, (sd.label, "ambient", n, res.mismatches)


def unimodular(rng, n):
    """Product of random elementary integer row operations."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.choice((-2, -1, 1, 2))
            w[i] = [x + q * y for x, y in zip(w[i], w[j])]
        else:
            w[i] = [-x for x in w[i]]
    return mat(w, cols=n)


def planted_datum(rng, r):
    """Torus datum with colors U1 D_F V and embedding U2 D_E V.

    Every planted diagonal entry divides the largest n in 2..6 with
    n^r within the budget, and so does every invariant factor of both
    quotients; many entries are 1, so the torsion groups stay small.
    """
    base = max(n for n in range(2, 7) if n**r <= ENUMERATION_BUDGET)
    factors = [k for k in range(2, base + 1) if base % k == 0]
    m = rng.randint(max(0, r - 2), r + 1)
    d = r + rng.randint(0, 1)
    v = unimodular(rng, r)

    def diagonal(rows, nontrivial_share):
        entries = [[0] * r for _ in range(rows)]
        for i in range(min(rows, r)):
            if rng.random() < nontrivial_share:
                entries[i][i] = rng.choice(factors)
            else:
                entries[i][i] = 1
        return mat(entries, cols=r)

    colors = unimodular(rng, m) @ diagonal(m, 0.4) @ v
    embedding = unimodular(rng, d) @ diagonal(d, 0.6) @ v
    return SphericalDatum(torus(d), embedding, colors, 1, label=f"planted r{r} m{m}")


class TestOracleConfirmsBothQuotients:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_catalog_entry(self, entry):
        assert_oracle_confirms(parse(entry.document))

    def test_planted_data_up_to_rank_eight(self):
        rng = random.Random(8080)
        for r in range(1, 9):
            for _ in range(6):
                assert_oracle_confirms(planted_datum(rng, r))


class TestStructureMatch:
    def test_cyclic_of_order_two(self):
        sample = enumerate_torsion(mat([[2]]), 2)
        assert structure_match(sample, FinGenAbQuotient(0, (2,)), 2).ok

    def test_divisible_direction(self):
        sample = enumerate_torsion(IntMatrix.from_rows([], cols=1), 4)
        res = structure_match(sample, FinGenAbQuotient(1, ()), 4)
        assert res.ok
        assert sample.order_histogram == {1: 1, 2: 1, 4: 2}

    def test_negative_control(self):
        sample = enumerate_torsion(mat([[2]]), 6)
        res = structure_match(sample, FinGenAbQuotient(0, (3,)), 6)
        assert not res.ok
        assert res.mismatches

    def test_mismatch_diagnostics_name_orders(self):
        sample = enumerate_torsion(mat([[2]]), 2)
        res = structure_match(sample, FinGenAbQuotient(0, ()), 2)
        assert not res
        assert any("order 2" in line for line in res.mismatches)

    def test_non_divisor_torsion_modulus(self):
        # the 3-torsion of a 2-group is trivial on both sides
        sample = enumerate_torsion(mat([[2]]), 3)
        assert structure_match(sample, FinGenAbQuotient(0, (2,)), 3).ok

    def test_product_structure(self):
        d = mat([[2, 0], [0, 3]])
        sample = enumerate_torsion(d, 6)
        assert structure_match(sample, FinGenAbQuotient(0, (6,)), 6).ok
        assert not structure_match(sample, FinGenAbQuotient(0, (2, 6)), 6).ok

    def test_modulus_must_be_the_samples(self):
        sample = enumerate_torsion(mat([[2]]), 4)
        with pytest.raises(ValueError, match="differs from the sample's modulus 4"):
            structure_match(sample, FinGenAbQuotient(0, (4,)), 2)

    def test_budget_bounds_the_modulus(self):
        top = ENUMERATION_BUDGET
        sample = enumerate_torsion(IntMatrix.from_rows([], cols=0), top)
        assert structure_match(sample, FinGenAbQuotient(0, ()), top).ok
        over = TorsionGroupSample(top + 1, ((),), {1: 1})
        with pytest.raises(EnumerationBudgetError):
            structure_match(over, FinGenAbQuotient(0, ()), top + 1)

    def test_invalid_modulus(self):
        sample = enumerate_torsion(mat([[1]]), 1)
        with pytest.raises(ValueError):
            structure_match(sample, FinGenAbQuotient(0, ()), 0)

    @pytest.mark.parametrize("modulus", [True, 1.0, "1", Fraction(1)])
    def test_modulus_must_be_an_int(self, modulus):
        sample = enumerate_torsion(mat([[1]]), 1)
        with pytest.raises(TypeError, match="modulus must be an int"):
            structure_match(sample, FinGenAbQuotient(0, ()), modulus)
