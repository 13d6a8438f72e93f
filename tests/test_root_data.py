"""Root data: Cartan tables, standard builds, coroot saturations."""

import itertools
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
from spherical_pi.verify import _finite_type, coroot_saturation, det, product, torus

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


AFFINE_A1_MESSAGE = (
    "the Dynkin diagram component on simple roots 0, 1 is not of finite type"
)


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
        # the pairing [[2, -2], [-2, 2]] is affine, so the datum is rejected
        # by the classification before any rank is taken
        with pytest.raises(ValueError) as err:
            RootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)))
        assert str(err.value) == AFFINE_A1_MESSAGE

    def test_an_affine_pairing_with_independent_families_is_rejected(self):
        # <coroot_i, root_j> = [[2, -2], [-2, 2]] is singular although both
        # families are free, and belongs to no reductive group
        roots, coroots = ((1, 0, 0), (0, 1, 0)), ((2, -2, 0), (-2, 2, 1))
        assert snf(IntMatrix.from_cols(roots, rows=3)).rank == 2
        assert snf(IntMatrix.from_rows(coroots)).rank == 2
        with pytest.raises(ValueError) as err:
            RootDatum(3, roots, coroots)
        assert str(err.value) == AFFINE_A1_MESSAGE

    @pytest.mark.parametrize(
        "roots, coroots",
        [
            # dependent roots, then dependent coroots, on a singular pairing
            (((1, 0), (-1, 0)), ((2, 0), (-2, 0))),
            (((1, 0), (0, 1)), ((2, -2), (-2, 2))),
        ],
    )
    def test_a_singular_pairing_names_its_component(self, roots, coroots):
        with pytest.raises(ValueError) as err:
            RootDatum(2, roots, coroots)
        assert str(err.value) == AFFINE_A1_MESSAGE

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
# sums in three loops, kept as the reference for the constructor, with the
# finite-type test of verify in place of the Dynkin classification.


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
    # each component of the graph of nonzero pairings, in the order of its
    # least index, goes through the Fraction route of verify
    pairing = [
        [sum(a * b for a, b in zip(coroots[i], roots[j])) for j in range(n)]
        for i in range(n)
    ]
    for nodes in components(pairing):
        if not _finite_type(principal(pairing, nodes)):
            raise ValueError(
                "the Dynkin diagram component on simple roots "
                f"{', '.join(map(str, nodes))} is not of finite type"
            )


def components(c):
    """Node lists of the components of the graph c_ij != 0, by least index."""
    placed = set()
    found = []
    for start in range(len(c)):
        if start in placed:
            continue
        nodes = {start}
        while True:
            grown = {j for i in nodes for j, x in enumerate(c[i]) if x}
            if grown <= nodes:
                break
            nodes |= grown
        placed |= nodes
        found.append(sorted(nodes))
    return found


def principal(c, nodes):
    return [[c[i][j] for j in nodes] for i in nodes]


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
        # the negated first pair makes an affine A1 component with the first
        roots.append([-x for x in roots[0]])
        coroots.append([-x for x in coroots[0]])
    if rng.random() < 0.05:
        coroots.pop()
    if rng.random() < 0.05:
        roots[0].pop()
    return rd.rank, tuple(map(tuple, roots)), tuple(map(tuple, coroots))


def mutated_cartan(rng, kind):
    """An adjoint datum in permuted coordinates whose pairing is a Cartan
    matrix of rank 3 or more edited at two places.

    ``one row`` makes two entries of one row fail the diagonal or sign
    check; ``asymmetric`` gives two bonds, each new or existing, a 0 in one
    direction only.
    """
    series, n = rng.choice([t for t in ALL_TYPES if t[1] > 2])
    c = [list(row) for row in cartan_matrix(series, n).entries]
    if kind == "one row":
        i = rng.randrange(n)
        for j in rng.sample(range(n), 2):
            c[i][j] = rng.choice((0, 1, 3, -2)) if i == j else rng.randint(1, 3)
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i, j in rng.sample(pairs, 2):
            if rng.random() < 0.5:
                i, j = j, i
            c[i][j] = -rng.randint(1, 3) if c[i][j] == 0 else 0
    perm = list(range(n))
    rng.shuffle(perm)
    roots = tuple(tuple(int(perm[t] == j) for t in range(n)) for j in range(n))
    coroots = tuple(tuple(row[perm[t]] for t in range(n)) for row in c)
    return n, roots, coroots


class TestRootDatumAgainstReference:
    def test_the_pairing_read_off_supports_is_the_product(self, monkeypatch):
        # the sparse rows that the classification reads, against the pairing
        # matrix coroot_matrix() @ root_matrix() and the generator sums
        seen = []
        real = root_data._dynkin_types

        def keep(rows):
            seen.append(rows)
            return real(rows)

        monkeypatch.setattr(root_data, "_dynkin_types", keep)
        rng = random.Random(5152)
        data = [build_standard(s, r, iso, rng.randint(0, 2))
                for s, r in ALL_TYPES for iso in (ADJOINT, SIMPLY_CONNECTED)]
        while len(data) < 2 * len(ALL_TYPES) + 60:
            try:
                data.append(RootDatum(*random_explicit(rng)))
            except ValueError:
                pass
        data.append(product(data[0], data[-1]))
        # roots v -> v W and coroots u -> u W^-T keep every pairing, and a
        # dense W makes most of them sums that cancel
        for rd in data[: 2 * len(ALL_TYPES)]:
            roots = [list(v) for v in rd.simple_roots]
            coroots = [list(u) for u in rd.simple_coroots]
            for _ in range(3 * rd.rank):
                a, b = rng.sample(range(rd.rank), 2) if rd.rank > 1 else (0, 0)
                q = rng.choice((-2, -1, 1, 2)) * (a != b)
                for v in roots:
                    v[b] += q * v[a]
                for u in coroots:
                    u[a] -= q * u[b]
            data.append(RootDatum(rd.rank, tuple(roots), tuple(coroots)))
        for rd in data:
            seen.clear()
            RootDatum(rd.rank, rd.simple_roots, rd.simple_coroots)
            (rows,) = seen
            n = rd.semisimple_rank
            assert all(0 not in row.values() for row in rows)
            dense = tuple(tuple(row.get(j, 0) for j in range(n)) for row in rows)
            assert dense == rd.pairing_matrix().entries
            assert dense == tuple(
                tuple(sum(a * b for a, b in zip(co, ro)) for ro in rd.simple_roots)
                for co in rd.simple_coroots
            )

    @pytest.mark.parametrize("kind", ["one row", "asymmetric"])
    def test_two_offenders_name_the_first(self, kind):
        # the message names the first offender in row-major order, as the
        # reference's full loops do
        checks = ("expected 2", "positive", "asymmetric")
        rng = random.Random(f"two offenders: {kind}")
        kinds = Counter()
        for _ in range(200):
            rank, roots, coroots = mutated_cartan(rng, kind)
            want = raised(reference_root_datum_check, rank, roots, coroots)
            assert raised(RootDatum, rank, roots, coroots) == want
            kinds[next(k for k in checks if k in want[1])] += 1
        if kind == "one row":
            assert min(kinds["expected 2"], kinds["positive"]) >= 30, kinds
        else:
            assert kinds["asymmetric"] == 200, kinds

    def test_random_explicit_data(self):
        rng = random.Random(5150)
        kinds = (
            "expected 2", "positive", "asymmetric", "finite type", "length", "against"
        )
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


# ---------------------------------------------------------------------------
# The Dynkin classification of RootDatum against the Fraction route of
# verify: symmetrized along a spanning tree, then positive leading minors.


def permuted(c, perm):
    """The matrix with c[i][j] at (perm[i], perm[j])."""
    n = len(c)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = c[i][j]
    return out


def block_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


def from_bonds(n, bonds):
    """Cartan matrix on n nodes with c[i][j], c[j][i] = -a, -b per bond (i, j, a, b)."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, a, b in bonds:
        c[i][j], c[j][i] = -a, -b
    return c


def star(arms):
    """Node 0 with paths of the given lengths attached."""
    bonds, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            bonds.append((prev, nxt, 1, 1))
            prev, nxt = nxt, nxt + 1
    return from_bonds(nxt, bonds)


# diagrams that break each rule of the classification once: cycles, a
# node of degree 4, bonds above 3, two multiple bonds, a multiple bond
# with a branch node, a triple or an inner double bond in a longer chain,
# two branch nodes, and arms with 1/(a+1) + 1/(b+1) + 1/(c+1) <= 1; most
# are the affine diagrams of Kac, Table Aff 1
NOT_FINITE = {
    "cycle3": from_bonds(3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, 1)]),
    "cycle5": from_bonds(5, [(i, (i + 1) % 5, 1, 1) for i in range(5)]),
    "cycle3-double": from_bonds(3, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, 2)]),
    "star4": star((1, 1, 1, 1)),
    "affine-E6": star((2, 2, 2)),
    "affine-E7": star((1, 3, 3)),
    "affine-E8": star((1, 2, 5)),
    "bond4": from_bonds(3, [(0, 1, 1, 1), (1, 2, 1, 4)]),
    "two-doubles": from_bonds(3, [(0, 1, 2, 1), (1, 2, 1, 2)]),
    "double-and-branch": from_bonds(
        5, [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1), (3, 4, 1, 2)]
    ),
    "affine-G2": from_bonds(3, [(0, 1, 1, 1), (1, 2, 1, 3)]),
    "affine-F4": from_bonds(
        5, [(0, 1, 1, 1), (1, 2, 1, 1), (2, 3, 1, 2), (3, 4, 1, 1)]
    ),
    "inner-double-A5": from_bonds(
        5, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1), (3, 4, 1, 1)]
    ),
    "affine-D5": from_bonds(
        6, [(0, 2, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (3, 5, 1, 1)]
    ),
}
AFFINE_RANK_2 = [from_bonds(2, [(0, 1, a, 4 // a)]) for a in (1, 2, 4)]
HYPERBOLIC_RANK_2 = [
    from_bonds(2, [(0, 1, a, b)]) for a in range(1, 7) for b in range(1, 7) if a * b > 4
]


def dynkin_types(c):
    """The classifier on the dense matrix c, given as its rows' nonzero entries."""
    return root_data._dynkin_types([{j: x for j, x in enumerate(row) if x} for row in c])


def classified(c):
    """The classifier's names, or None when it raises."""
    try:
        return dynkin_types(c)
    except ValueError as exc:
        assert str(exc).startswith("the Dynkin diagram component on simple roots ")
        return None


def is_of_type(c, name):
    """Whether c is cartan_matrix(name) up to a simultaneous permutation."""
    target = cartan_matrix(name[0], int(name[1:])).entries
    return any(
        all(c[p[i]][p[j]] == target[i][j] for i in range(len(c)) for j in range(len(c)))
        for p in itertools.permutations(range(len(c)))
    )


def random_gcm(rng, n):
    """A generalized Cartan matrix with sparse bonds, mostly simple ones."""
    options = [(1, 1)] * 8 + [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4)]
    bonds = [
        (i, j) + rng.choice(options)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 1.6 / n
    ]
    return from_bonds(n, bonds)


class TestDynkinClassification:
    @pytest.mark.parametrize("series,rank", ALL_TYPES)
    def test_every_type_under_permutations(self, series, rank):
        rng = random.Random(f"{series}{rank}")
        c = cartan_matrix(series, rank).entries
        for _ in range(6):
            perm = list(range(rank))
            rng.shuffle(perm)
            d = permuted(c, perm)
            assert dynkin_types(d) == (f"{series}{rank}",)
            assert _finite_type(d)

    def test_products_of_two_types_name_both_by_least_index(self):
        rng = random.Random(8)
        for _ in range(120):
            (s, r), (t, q) = rng.choice(ALL_TYPES), rng.choice(ALL_TYPES)
            c = block_sum(cartan_matrix(s, r).entries, cartan_matrix(t, q).entries)
            perm = list(range(r + q))
            rng.shuffle(perm)
            first, second = f"{s}{r}", f"{t}{q}"
            if min(perm[r:]) < min(perm[:r]):
                first, second = second, first
            d = permuted(c, perm)
            assert dynkin_types(d) == (first, second)
            assert _finite_type(d)

    @pytest.mark.parametrize(
        "c",
        AFFINE_RANK_2 + HYPERBOLIC_RANK_2 + list(NOT_FINITE.values()),
        ids=[f"affine{k}" for k in range(3)]
        + [f"hyperbolic{k}" for k in range(len(HYPERBOLIC_RANK_2))]
        + list(NOT_FINITE),
    )
    def test_no_finite_type_is_named_by_its_component(self, c):
        assert not _finite_type(c)
        # next to an A2 on the first two indices, the bad component is the
        # second and is named by its shifted indices
        d = block_sum(cartan_matrix("A", 2).entries, c)
        listed = ", ".join(str(k + 2) for k in range(len(c)))
        with pytest.raises(ValueError) as err:
            dynkin_types(d)
        assert str(err.value) == (
            f"the Dynkin diagram component on simple roots {listed} "
            "is not of finite type"
        )

    def test_every_rank_3_matrix_with_bonds_up_to_4(self):
        options = [(0, 0)] + list(itertools.product(range(1, 5), repeat=2))
        for n in (1, 2, 3):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for choice in itertools.product(options, repeat=len(pairs)):
                c = from_bonds(n, [p + b for p, b in zip(pairs, choice) if b[0]])
                names = classified(c)
                assert (names is not None) == _finite_type(c), c
                for nodes, name in zip(components(c), names or ()):
                    assert is_of_type(principal(c, nodes), name), (c, name)

    def test_seeded_random_matrices(self):
        rng = random.Random(1616)
        outcomes = Counter()
        for _ in range(1500):
            c = random_gcm(rng, rng.randint(1, 8))
            names = classified(c)
            assert (names is not None) == _finite_type(c), c
            outcomes[names is not None] += 1
            if names is None:
                continue
            parts = components(c)
            assert len(parts) == len(names)
            for nodes, name in zip(parts, names):
                sub = principal(c, nodes)
                assert int(name[1:]) == len(nodes)
                assert det(IntMatrix.from_rows(sub)) == det(
                    cartan_matrix(name[0], len(nodes))
                )
                if len(nodes) <= 5:
                    assert is_of_type(sub, name), (sub, name)
        assert min(outcomes[True], outcomes[False]) >= 300, outcomes
