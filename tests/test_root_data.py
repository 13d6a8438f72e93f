"""Root data: Cartan tables, standard builds, coroot saturations."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from spherical_pi import root_data
from spherical_pi.catalog import catalog_entry
from spherical_pi.documents import parse, serialize_datum
from spherical_pi.intmat import DimensionError, IntMatrix, snf
from spherical_pi.lattices import FinGenAbQuotient
from spherical_pi.root_data import (
    ADJOINT,
    SIMPLY_CONNECTED,
    RootDatum,
    build_standard,
    cartan_matrix,
    restrict_coroots,
)
from spherical_pi.verify import coroot_saturation, product, torus

# ---------------------------------------------------------------------------
# Independent oracle: simple roots in their standard Euclidean realizations
# (Bourbaki plates), Cartan integers from inner products.


def _e(i, dim):
    return [Fraction(int(j == i)) for j in range(dim)]


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _scale(c, a):
    return [Fraction(c) * x for x in a]


def euclidean_simple_roots(series, rank):
    n = rank
    if series == "A":
        dim = n + 1
        return [_sub(_e(i, dim), _e(i + 1, dim)) for i in range(n)]
    if series == "B":
        return [_sub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [_e(n - 1, n)]
    if series == "C":
        return [_sub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [
            _scale(2, _e(n - 1, n))
        ]
    if series == "D":
        return [_sub(_e(i, n), _e(i + 1, n)) for i in range(n - 1)] + [
            _add(_e(n - 2, n), _e(n - 1, n))
        ]
    if series == "E":
        dim = 8
        alpha1 = _scale(
            Fraction(1, 2),
            [1, -1, -1, -1, -1, -1, -1, 1],
        )
        alpha2 = _add(_e(0, dim), _e(1, dim))
        rest = [_sub(_e(i, dim), _e(i - 1, dim)) for i in range(1, 7)]
        return ([alpha1, alpha2] + rest)[:n]
    if series == "F":
        return [
            _sub(_e(1, 4), _e(2, 4)),
            _sub(_e(2, 4), _e(3, 4)),
            _e(3, 4),
            _scale(Fraction(1, 2), [1, -1, -1, -1]),
        ]
    if series == "G":
        return [
            [Fraction(1), Fraction(-1), Fraction(0)],
            [Fraction(-2), Fraction(1), Fraction(1)],
        ]
    raise AssertionError(series)


def euclidean_cartan(series, rank):
    roots = euclidean_simple_roots(series, rank)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    n = len(roots)
    c = []
    for i in range(n):
        row = []
        for j in range(n):
            val = 2 * dot(roots[i], roots[j]) / dot(roots[i], roots[i])
            assert val.denominator == 1
            row.append(int(val))
        c.append(row)
    return IntMatrix.from_rows(c)


ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

FUNDAMENTAL_GROUP_ORDER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}


class TestCartanMatrix:
    @pytest.mark.parametrize("series,rank", ALL_TYPES)
    def test_matches_euclidean_realization(self, series, rank):
        assert cartan_matrix(series, rank) == euclidean_cartan(series, rank)

    def test_a2(self):
        assert cartan_matrix("A", 2) == IntMatrix.from_rows([[2, -1], [-1, 2]])

    def test_invalid_types(self):
        for series, rank in [
            ("A", 0),
            ("B", 1),
            ("C", 2),
            ("D", 3),
            ("E", 5),
            ("E", 9),
            ("F", 3),
            ("G", 1),
            ("H", 2),
        ]:
            with pytest.raises(ValueError):
                cartan_matrix(series, rank)


class TestRootDatum:
    def test_cartan_invariants_enforced(self):
        # diagonal pairing must be 2
        with pytest.raises(ValueError, match="expected 2"):
            RootDatum(1, ((1,),), ((1,),))
        # off-diagonal pairings must be nonpositive
        with pytest.raises(ValueError, match="positive"):
            RootDatum(2, ((2, 1), (1, 2)), ((1, 0), (0, 1)))
        # zeros must be symmetric
        with pytest.raises(ValueError, match="asymmetric"):
            RootDatum(
                3,
                ((2, 0, 0), (0, 2, 0)),
                ((1, 0, 0), (-1, 1, 0)),
            )

    @pytest.mark.parametrize("bad", [True, 2.0, "2", Fraction(2), None])
    def test_a_non_int_entry_is_named_by_type(self, bad):
        message = f"matrix entries must be ints, got {type(bad).__name__}"
        for roots, coroots in (((bad,),), ((1,),)), (((2,),), ((bad,),)):
            with pytest.raises(TypeError) as err:
                RootDatum(1, roots, coroots)
            assert str(err.value) == message

    def test_int_subclass_entries_are_accepted(self):
        class Tagged(int):
            pass

        rd = RootDatum(1, ((Tagged(2),),), ((Tagged(1),),))
        assert rd == RootDatum(1, ((2,),), ((1,),))

    def test_dependent_roots_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))

    def test_a_bad_first_pairing_fails_before_the_rest_is_built(self):
        # rank 512, the parse cap, with 64-bit entries: <coroot_0, root_0>
        # is checked after one row of the pairing product, not all of it
        rng = random.Random(512)
        n = 512
        roots, coroots = (
            tuple(tuple(rng.getrandbits(64) for _ in range(n)) for _ in range(n))
            for _ in range(2)
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"<coroot_0, root_0> = \d+, expected 2"):
            RootDatum(n, roots, coroots)
        assert time.perf_counter() - start < 1.0

    def test_label_ignored_in_equality(self):
        a = RootDatum(1, ((2,),), ((1,),), label="x")
        b = RootDatum(1, ((2,),), ((1,),), label="y")
        assert a == b


class TestBuildStandard:
    def test_a1_simply_connected(self):
        rd = build_standard("A", 1, SIMPLY_CONNECTED, 0)
        assert rd.rank == 1
        assert rd.simple_roots == ((2,),)
        assert rd.simple_coroots == ((1,),)

    def test_a1_adjoint(self):
        rd = build_standard("A", 1, ADJOINT, 0)
        assert rd.simple_roots == ((1,),)
        assert rd.simple_coroots == ((2,),)

    def test_a2_pairing_matrix(self):
        rd = build_standard("A", 2, SIMPLY_CONNECTED, 0)
        assert rd.pairing_matrix() == IntMatrix.from_rows([[2, -1], [-1, 2]])

    @pytest.mark.parametrize("series,rank", ALL_TYPES)
    @pytest.mark.parametrize("isogeny", (SIMPLY_CONNECTED, ADJOINT))
    def test_pairing_matrix_is_the_cartan_matrix(self, series, rank, isogeny):
        rd = build_standard(series, rank, isogeny, 0)
        assert rd.pairing_matrix() == cartan_matrix(series, rank)

    def test_central_torus_extends_rank(self):
        rd = build_standard("A", 1, SIMPLY_CONNECTED, 2)
        assert rd.rank == 3
        assert rd.simple_roots == ((2, 0, 0),)

    def test_invalid_isogeny(self):
        with pytest.raises(ValueError):
            build_standard("A", 1, "isotypic", 0)

    def test_negative_torus_rank(self):
        with pytest.raises(ValueError):
            build_standard("A", 1, ADJOINT, -1)


class TestProduct:
    def test_two_copies_of_a1(self):
        rd = product(
            build_standard("A", 1, SIMPLY_CONNECTED, 0),
            build_standard("A", 1, SIMPLY_CONNECTED, 0),
        )
        assert rd.rank == 2
        assert rd.simple_roots == ((2, 0), (0, 2))

    def test_with_torus(self):
        base = build_standard("A", 2, ADJOINT, 0)
        rd = product(base, torus(1))
        assert rd.rank == base.rank + 1
        assert rd.semisimple_rank == base.semisimple_rank

    def test_adjoint_blocks(self):
        rd = product(
            build_standard("A", 1, ADJOINT, 0),
            build_standard("A", 1, ADJOINT, 0),
        )
        assert rd.pairing_matrix() == IntMatrix.from_rows([[2, 0], [0, 2]])


class TestCorootSaturation:
    def test_a1_adjoint_weight_over_root(self):
        _, q = coroot_saturation(build_standard("A", 1, ADJOINT, 0))
        assert q == FinGenAbQuotient(0, (2,))

    def test_a1_simply_connected_trivial(self):
        _, q = coroot_saturation(build_standard("A", 1, SIMPLY_CONNECTED, 0))
        assert q == FinGenAbQuotient(0, ())

    def test_pure_torus(self):
        for n in (1, 2, 5):
            _, q = coroot_saturation(torus(n))
            assert q == FinGenAbQuotient(n, ())

    @pytest.mark.parametrize("series,rank", ALL_TYPES)
    def test_adjoint_fundamental_group_orders(self, series, rank):
        _, q = coroot_saturation(build_standard(series, rank, ADJOINT, 0))
        assert q.divisible_rank == 0
        assert q.order() == FUNDAMENTAL_GROUP_ORDER[series](rank)

    @pytest.mark.parametrize("series,rank", ALL_TYPES)
    def test_simply_connected_trivial(self, series, rank):
        _, q = coroot_saturation(build_standard(series, rank, SIMPLY_CONNECTED, 0))
        assert q == FinGenAbQuotient(0, ())

    def test_d_series_structure(self):
        _, q4 = coroot_saturation(build_standard("D", 4, ADJOINT, 0))
        assert q4.invariant_factors == (2, 2)
        _, q5 = coroot_saturation(build_standard("D", 5, ADJOINT, 0))
        assert q5.invariant_factors == (4,)

    def test_central_torus_gives_divisible_rank(self):
        _, q = coroot_saturation(build_standard("A", 2, ADJOINT, 3))
        assert q.divisible_rank == 3
        assert q.invariant_factors == (3,)


class TestRestrictCoroots:
    def test_identity_embedding(self):
        rd = build_standard("A", 2, SIMPLY_CONNECTED, 0)
        assert restrict_coroots(rd, IntMatrix.identity(2)) == rd.coroot_matrix()

    def test_a1_root_sublattice(self):
        rd = build_standard("A", 1, SIMPLY_CONNECTED, 0)
        got = restrict_coroots(rd, IntMatrix.from_rows([[2]]))
        assert got == IntMatrix.from_rows([[2]])

    def test_a1_scaled_sublattice(self):
        rd = build_standard("A", 1, SIMPLY_CONNECTED, 0)
        got = restrict_coroots(rd, IntMatrix.from_rows([[4]]))
        assert got == IntMatrix.from_rows([[4]])

    def test_rank_deficient_embedding(self):
        rd = build_standard("A", 1, SIMPLY_CONNECTED, 0)
        with pytest.raises(ValueError, match="rank-deficient"):
            restrict_coroots(rd, IntMatrix.from_rows([[0]]))

    def test_wrong_row_count(self):
        rd = build_standard("A", 2, SIMPLY_CONNECTED, 0)
        with pytest.raises(DimensionError):
            restrict_coroots(rd, IntMatrix.from_rows([[1]]))


# ---------------------------------------------------------------------------
# The former RootDatum checks, which recompute every pairing with generator
# sums in three loops, kept as the reference for the constructor.


def reference_root_datum_check(rank, roots, coroots):
    if rank < 0:
        raise DimensionError("rank must be nonnegative")
    if len(roots) != len(coroots):
        raise DimensionError(
            f"{len(roots)} simple roots against {len(coroots)} simple coroots"
        )
    for v in roots + coroots:
        if len(v) != rank:
            raise DimensionError(f"root or coroot of length {len(v)}, expected {rank}")
    n = len(roots)
    for i in range(n):
        for j in range(n):
            pairing = sum(a * b for a, b in zip(coroots[i], roots[j]))
            if i == j:
                if pairing != 2:
                    raise ValueError(f"<coroot_{i}, root_{i}> = {pairing}, expected 2")
            elif pairing > 0:
                raise ValueError(f"<coroot_{i}, root_{j}> = {pairing} is positive")
    for i in range(n):
        for j in range(n):
            pij = sum(a * b for a, b in zip(coroots[i], roots[j]))
            pji = sum(a * b for a, b in zip(coroots[j], roots[i]))
            if (pij == 0) != (pji == 0):
                raise ValueError(f"pairing zeros are asymmetric at ({i}, {j})")
    if n:
        if snf(IntMatrix.from_cols(list(roots), rows=rank)).rank != n:
            raise ValueError("simple roots are linearly dependent")
        if snf(IntMatrix.from_cols(list(coroots), rows=rank)).rank != n:
            raise ValueError("simple coroots are linearly dependent")


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def random_explicit(rng):
    """A standard datum in permuted coordinates, often with a few entries edited."""
    series, n = rng.choice(
        (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2))
    )
    isogeny = rng.choice((ADJOINT, SIMPLY_CONNECTED))
    rd = build_standard(series, n, isogeny, rng.randint(0, 1))
    perm = list(range(rd.rank))
    rng.shuffle(perm)
    roots = [[v[k] for k in perm] for v in rd.simple_roots]
    coroots = [[v[k] for k in perm] for v in rd.simple_coroots]
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        v = rng.choice(rng.choice((roots, coroots)))
        v[rng.randrange(rd.rank)] += rng.choice((-2, -1, 1, 2))
    if rng.random() < 0.2:
        # the negated first pair keeps a Cartan pairing on an A1 factor
        roots.append([-x for x in roots[0]])
        coroots.append([-x for x in coroots[0]])
    if rng.random() < 0.05:
        coroots.pop()
    if rng.random() < 0.05:
        roots[0].pop()
    return rd.rank, tuple(map(tuple, roots)), tuple(map(tuple, coroots))


class TestRootDatumAgainstReference:
    def test_random_explicit_data(self):
        rng = random.Random(5150)
        kinds = ("expected 2", "positive", "asymmetric", "dependent", "length", "against")
        seen = Counter()
        for _ in range(600):
            rank, roots, coroots = random_explicit(rng)
            want = raised(reference_root_datum_check, rank, roots, coroots)
            assert raised(RootDatum, rank, roots, coroots) == want
            seen[next((k for k in kinds if k in want[1]), want) if want else None] += 1
        # accepted data and every kind of rejection must all occur
        for kind in (None,) + kinds:
            assert seen[kind] >= 5, seen

    def test_parse_checks_root_entries_once(self, monkeypatch):
        # an explicit document and a standard datum: valid entries never
        # reach _check_int, only the scan for a non-int entry
        doc = catalog_entry("group_case_A2_adjoint").document
        text = serialize_datum(parse(doc))
        checked = []
        monkeypatch.setattr(root_data, "_check_int", checked.append)
        assert parse(text).root_datum.semisimple_rank == 4
        build_standard("E", 8, ADJOINT)
        assert checked == []

    def test_root_and_coroot_matrices_pass_the_entry_check(self):
        rng = random.Random(5151)
        data = [torus(0), torus(2), RootDatum(0)]
        while len(data) < 60:
            try:
                data.append(RootDatum(*random_explicit(rng)))
            except ValueError:
                pass
        for rd in data:
            for m in (rd.root_matrix(), rd.coroot_matrix()):
                assert IntMatrix(m.rows, m.cols, m.entries) == m
                assert type(m.entries) is tuple
                assert all(type(row) is tuple for row in m.entries)
                assert all(type(x) is int for row in m.entries for x in row)
            shape = (rd.root_matrix().rows, rd.root_matrix().cols)
            assert shape == (rd.rank, rd.semisimple_rank)
            assert rd.root_matrix().transpose().entries == rd.simple_roots
            assert rd.coroot_matrix().entries == rd.simple_coroots
