"""Exact integer matrix machinery: construction, SNF, HNF, solving."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from spherical_pi.intmat import (
    _P,
    DimensionError,
    IntMatrix,
    _echelon,
    _full_column_rank,
    _hermite_mod,
    _outside_span,
    _rank_mod,
    _remainders,
    snf,
    stack_rows,
)
from spherical_pi.root_data import cartan_matrix
from spherical_pi.verify import det, hnf, mul_vec, solve_in_lattice


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def random_matrix(rng, max_dim=8, bound=50):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    return mat([[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)])


def det_small(rows):
    """Determinant of a matrix of size <= 3 by the explicit formulas."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def minors_gcd(m, t):
    """gcd of all t x t minors (0 when every minor vanishes)."""
    g = 0
    for rows in combinations(range(m.rows), t):
        for cols in combinations(range(m.cols), t):
            sub = [[m[i][j] for j in cols] for i in rows]
            g = math.gcd(g, det_small(sub))
    return g


def check_snf(m, res):
    assert (res.U @ m @ res.V) == res.S
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    # S is diagonal with positive entries up to the rank, zero afterwards
    for i in range(res.S.rows):
        for j in range(res.S.cols):
            if i != j:
                assert res.S[i][j] == 0
    diag = res.diagonal()
    for i, d in enumerate(diag):
        if i < res.rank:
            assert d > 0
        else:
            assert d == 0
    for a, b in zip(diag, diag[1:]):
        if b:
            assert b % a == 0
    # product of the first t elementary divisors is the gcd of t x t minors
    for t in range(1, min(3, m.rows, m.cols) + 1):
        expected = math.prod(diag[:t])
        assert minors_gcd(m, t) == expected


def check_hnf(m, res):
    assert (m @ res.U) == res.H
    assert abs(det(res.U)) == 1
    h = res.H
    pivots = []
    last_pivot_row = -1
    first_zero_col = h.cols
    for j in range(h.cols):
        col = h.column(j)
        nonzero = [i for i, x in enumerate(col) if x]
        if not nonzero:
            first_zero_col = j
            break
        top = nonzero[0]
        assert top > last_pivot_row, "pivot rows must strictly increase"
        last_pivot_row = top
        assert h[top][j] > 0
        pivots.append((top, j))
    for j in range(first_zero_col, h.cols):
        assert not any(h.column(j)), "zero columns must trail"
    # off-pivot entries of a pivot row are reduced into [0, pivot)
    for top, j in pivots:
        for j2 in range(j):
            assert 0 <= h[top][j2] < h[top][j]


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(DimensionError):
            IntMatrix(1, 2, ((1, 2, 3),))
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([])

    def test_entry_validation(self):
        with pytest.raises(TypeError):
            mat([[1.5]])
        with pytest.raises(TypeError):
            mat([[True]])

    def test_checked_constructor_stores_tuples(self):
        listed = IntMatrix(2, 1, [[1], [2]])
        tupled = IntMatrix(2, 1, ((1,), (2,)))
        assert listed.entries == ((1,), (2,))
        assert type(listed.entries) is tuple
        assert all(type(row) is tuple for row in listed.entries)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert stack_rows(tupled, listed) == stack_rows(listed, tupled)
        assert stack_rows(listed, tupled).entries == ((1,), (2,), (1,), (2,))

    def test_empty_shapes(self):
        z = IntMatrix.from_rows([], cols=3)
        assert z.rows == 0 and z.cols == 3
        w = mat([[], []])
        assert w.rows == 2 and w.cols == 0
        assert IntMatrix.from_cols([], rows=2).cols == 0

    def test_declared_length_must_match(self):
        with pytest.raises(DimensionError):
            IntMatrix.from_cols([[1, 2]], rows=3)
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([[1, 2]], cols=3)
        assert IntMatrix.from_cols([[1, 2]], rows=2) == mat([[1], [2]])
        assert IntMatrix.from_rows([[1, 2]], cols=2) == mat([[1, 2]])

    def test_matmul_and_transpose(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a @ b) == mat([[2, 1], [4, 3]])
        assert a.transpose() == mat([[1, 3], [2, 4]])
        with pytest.raises(DimensionError):
            a @ mat([[1, 2, 3]])

    def test_mul_vec(self):
        a = mat([[1, 2], [3, 4]])
        assert mul_vec(a, (1, 1)) == (3, 7)
        with pytest.raises(DimensionError):
            mul_vec(a, (1,))

    def test_det_known(self):
        assert det(mat([[2, 4], [6, 8]])) == -8
        assert det(IntMatrix.identity(4)) == 1
        assert det(IntMatrix.zeros(3, 3)) == 0
        assert det(IntMatrix.identity(0)) == 1

    def test_det_matches_cofactor_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 3)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det(mat(rows)) == det_small(rows)

    def test_stack_rows(self):
        a = mat([[1, 2]])
        b = mat([[3, 4], [5, 6]])
        assert stack_rows(a, b) == mat([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(DimensionError):
            stack_rows(a, mat([[1]]))


class TestSnf:
    def test_zero_1x1(self):
        res = snf(mat([[0]]))
        assert res.S == mat([[0]])
        assert res.rank == 0
        check_snf(mat([[0]]), res)

    def test_identity(self):
        m = IntMatrix.identity(3)
        res = snf(m)
        assert res.S == m
        assert res.rank == 3
        check_snf(m, res)

    def test_2x2_example(self):
        m = mat([[2, 4], [6, 8]])
        res = snf(m)
        assert res.S == mat([[2, 0], [0, 4]])
        assert res.rank == 2
        check_snf(m, res)
        # first divisor is the entry gcd, the product is |det|
        assert res.S[0][0] == math.gcd(2, 4, 6, 8)
        assert res.S[0][0] * res.S[1][1] == abs(det(m))

    def test_empty_shapes(self):
        for m in (IntMatrix.from_rows([], cols=3), mat([[], []])):
            res = snf(m)
            assert res.rank == 0
            assert res.S == m
            check_snf(m, res)

    def test_random_certificates(self):
        rng = random.Random(2024)
        for _ in range(200):
            m = random_matrix(rng, max_dim=5, bound=30)
            check_snf(m, snf(m))

    def test_permutation_invariance(self):
        rng = random.Random(99)
        for _ in range(50):
            m = random_matrix(rng, max_dim=5, bound=20)
            rows = list(m.entries)
            rng.shuffle(rows)
            cols_order = list(range(m.cols))
            rng.shuffle(cols_order)
            permuted = mat([[row[j] for j in cols_order] for row in rows])
            assert snf(permuted).S == snf(m).S

    def test_huge_entries(self):
        big = 10**40
        m = mat([[2 * big, 4 * big], [6 * big + 2, 8 * big]])
        check_snf(m, snf(m))


class TestHnf:
    def test_identity(self):
        m = IntMatrix.identity(3)
        res = hnf(m)
        assert res.H == m
        assert res.U == m

    def test_single_column_already_in_form(self):
        m = mat([[2], [4]])
        res = hnf(m)
        assert res.H == m
        check_hnf(m, res)

    def test_row_gcd(self):
        m = mat([[4, 6]])
        res = hnf(m)
        assert res.H == mat([[2, 0]])
        check_hnf(m, res)

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 3)
        res = hnf(m)
        assert res.H == m
        check_hnf(m, res)

    def test_random_shape_and_certificate(self):
        rng = random.Random(5)
        for _ in range(200):
            m = random_matrix(rng, max_dim=5, bound=20)
            check_hnf(m, hnf(m))

    def test_column_span_agrees_with_input(self):
        rng = random.Random(6)
        for _ in range(50):
            m = random_matrix(rng, max_dim=4, bound=10)
            h = hnf(m).H
            for j in range(h.cols):
                assert solve_in_lattice(m, h.column(j)) is not None
            for j in range(m.cols):
                assert solve_in_lattice(h, m.column(j)) is not None

    def test_hnf_canonical_for_equal_spans(self):
        # recombining columns unimodularly must not change the form
        rng = random.Random(8)
        for _ in range(50):
            m = random_matrix(rng, max_dim=4, bound=10)
            recombined = [list(m.column(j)) for j in range(m.cols)]
            if m.cols >= 2:
                a, b = rng.sample(range(m.cols), 2)
                q = rng.randint(-3, 3)
                recombined[a] = [
                    x + q * y for x, y in zip(recombined[a], recombined[b])
                ]
                recombined[a], recombined[b] = recombined[b], recombined[a]
            m2 = IntMatrix.from_cols(recombined, rows=m.rows)
            assert hnf(m2).H == hnf(m).H


class TestSolveInLattice:
    def test_identity(self):
        assert solve_in_lattice(IntMatrix.identity(2), (5, 7)) == (5, 7)

    def test_parity_obstruction(self):
        assert solve_in_lattice(mat([[2]]), (3,)) is None

    def test_first_column(self):
        assert solve_in_lattice(mat([[2, 4], [6, 8]]), (2, 6)) == (1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_in_lattice(mat([[1, 2]]), (1, 2))

    def test_no_columns(self):
        m = mat([[], []])
        assert solve_in_lattice(m, (0, 0)) == ()
        assert solve_in_lattice(m, (1, 0)) is None

    def test_random_solvable_and_verified(self):
        rng = random.Random(13)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, bound=8)
            x = [rng.randint(-5, 5) for _ in range(m.cols)]
            b = mul_vec(m, x)
            sol = solve_in_lattice(m, b)
            assert sol is not None
            assert mul_vec(m, sol) == b

    def test_random_arbitrary_rhs(self):
        rng = random.Random(14)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, bound=6)
            b = tuple(rng.randint(-10, 10) for _ in range(m.rows))
            sol = solve_in_lattice(m, b)
            if sol is not None:
                assert mul_vec(m, sol) == b


def dense_product(a, b):
    """The former dense product, one generator sum per entry; the reference."""
    cols = [b.column(j) for j in range(b.cols)]
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries
    )


def sparse_matrix(rng, nr, nc, density, bits):
    bound = 1 << bits
    return mat(
        [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)
        ],
        cols=nc,
    )


def triple_loop_product(a, b):
    """The product by its definition, one loop per index."""
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(map(tuple, out))


PRODUCT_KINDS = ("dense", "zero-rows", "one-per-row", "negative", "256-bit")


def product_operand(rng, kind, nr, nc):
    """An nr x nc operand whose support or entries are of the given kind."""
    if kind == "one-per-row":
        rows = [[0] * nc for _ in range(nr)]
        for row in rows:
            if nc:
                row[rng.randrange(nc)] = rng.choice((-3, -1, 1, 2, 5))
        return mat(rows, cols=nc)
    bits = 256 if kind == "256-bit" else 5
    low = -(1 << bits) if kind != "dense" else 0
    rows = [[rng.randint(low, 1 << bits) for _ in range(nc)] for _ in range(nr)]
    if kind == "negative":
        rows = [[-abs(x) for x in row] for row in rows]
    if kind == "zero-rows":
        for row in rows:
            if rng.random() < 0.5:
                row[:] = [0] * nc
    return mat(rows, cols=nc)


class TestProductAgainstReference:
    def test_every_support_kind_against_a_triple_loop(self):
        # 300 seeded pairs, each operand of its own kind; shapes run from
        # 0 to 6 rows, inner columns and columns
        rng = random.Random("product-kinds")
        seen = Counter()
        for draw in range(300):
            nr, inner, nc = (rng.randint(0, 6) for _ in range(3))
            kinds = rng.choice(PRODUCT_KINDS), rng.choice(PRODUCT_KINDS)
            a = product_operand(rng, kinds[0], nr, inner)
            b = product_operand(rng, kinds[1], inner, nc)
            prod = a @ b
            assert (prod.rows, prod.cols) == (nr, nc), draw
            assert prod.entries == triple_loop_product(a, b), draw
            assert all(type(x) is int for row in prod.entries for x in row)
            seen.update(kinds)
            seen["empty"] += 0 in (nr, inner, nc)
            seen["zero row"] += any(not any(row) for row in a.entries + b.entries)
            seen["negative"] += any(x < 0 for row in a.entries for x in row)
            seen["256 bits"] += any(
                abs(x).bit_length() > 200 for row in a.entries for x in row
            )
        assert all(seen[kind] >= 60 for kind in PRODUCT_KINDS), seen
        assert min(seen["empty"], seen["zero row"], seen["negative"]) >= 60, seen
        assert seen["256 bits"] >= 30, seen

    @pytest.mark.parametrize("density", [0, 0.1, 0.5, 1])
    def test_random_operands(self, density):
        rng = random.Random(int(density * 10) + 400)
        for _ in range(60):
            nr, inner, nc = (rng.randint(0, 7) for _ in range(3))
            bits = rng.choice((1, 6, 64, 200))
            a = sparse_matrix(rng, nr, inner, density, bits)
            b = sparse_matrix(rng, inner, nc, density, bits)
            prod = a @ b
            assert (prod.rows, prod.cols) == (nr, nc)
            assert prod.entries == dense_product(a, b)

    @pytest.mark.parametrize("nr, inner, nc", [(0, 3, 2), (3, 2, 0), (2, 0, 3), (1, 1, 1)])
    def test_edge_shapes(self, nr, inner, nc):
        rng = random.Random(nr * 100 + inner * 10 + nc)
        for density in (0, 1):
            a = sparse_matrix(rng, nr, inner, density, 200)
            b = sparse_matrix(rng, inner, nc, density, 200)
            prod = a @ b
            assert (prod.rows, prod.cols) == (nr, nc)
            assert prod.entries == dense_product(a, b)


def assert_checked_form(m):
    """m passes the public constructor and holds tuples of plain ints."""
    assert IntMatrix(m.rows, m.cols, m.entries) == m
    assert type(m.entries) is tuple
    for row in m.entries:
        assert type(row) is tuple
        assert all(type(x) is int for x in row)


class TestTrustedResults:
    def test_kernel_results_pass_the_entry_check(self):
        rng = random.Random(77)
        for _ in range(80):
            nr, nc = rng.randint(0, 6), rng.randint(0, 6)
            m = sparse_matrix(rng, nr, nc, rng.choice((0, 0.3, 1)), rng.choice((3, 80)))
            other = sparse_matrix(rng, nc, rng.randint(0, 6), 0.5, 8)
            res = snf(m)
            h = hnf(m)
            for out in (
                res.S, res.U, res.V, h.H, h.U,
                m @ other, m.transpose(), stack_rows(m, res.S),
            ):
                assert_checked_form(out)


def flag_case(rng, i):
    """Seeded input for the certificate-flag tests; the shape cycles by i."""
    bits = rng.choice((3, 6, 200))
    kind = i % 4
    if kind == 0:  # empty: 0 x n or n x 0
        n = rng.randint(0, 5)
        nr, nc = (0, n) if i % 8 else (n, 0)
        return sparse_matrix(rng, nr, nc, 1, bits)
    nr, nc = rng.randint(1, 8), rng.randint(1, 8)
    if kind == 1:  # rank-deficient: a product through an inner dimension below both
        inner = rng.randint(0, max(0, min(nr, nc) - 1))
        return sparse_matrix(rng, nr, inner, 1, bits // 2 + 1) @ sparse_matrix(
            rng, inner, nc, 1, bits // 2 + 1
        )
    return sparse_matrix(rng, nr, nc, rng.choice((0.3, 1)), bits)


class TestCertificateFlags:
    def test_skipped_certificates_change_nothing_else(self):
        rng = random.Random(3005)
        for i in range(320):
            m = flag_case(rng, i)
            full = snf(m)
            assert full.U @ m @ full.V == full.S
            assert abs(det(full.U)) == 1 and abs(det(full.V)) == 1
            for with_u in (True, False):
                for with_v in (True, False):
                    res = snf(m, with_u=with_u, with_v=with_v)
                    assert res.S == full.S and res.rank == full.rank
                    assert res.U == (full.U if with_u else None)
                    assert res.V == (full.V if with_v else None)

    def test_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            snf(mat([[1]]), False)


def kernel_cases():
    """Seeded inputs of every shape the flag tests cover, plus 1 x 1 matrices."""
    rng = random.Random(8008)
    cases = [flag_case(rng, i) for i in range(160)]
    cases += [mat([[x]]) for x in (0, 1, -1, 6, -(1 << 200) - 3)]
    return cases


def unimodular(rng, n, bound):
    """Dense unimodular n x n: L @ R, unitriangular with entries in [-bound, bound]."""
    lower = [[rng.randint(-bound, bound) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randint(-bound, bound) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    return mat(lower) @ mat(upper)


def large_kernel_cases():
    """Cartan matrices of rank 8-40 and twice each, and dense planted ``U D V``.

    The planted products have rank 20 and 30 and entries of about 64 bits.
    """
    rng = random.Random(4064)
    cases = []
    for series, n in (("A", 40), ("B", 30), ("D", 31), ("E", 8)):
        c = cartan_matrix(series, n)
        cases += [c, mat([[2 * x for x in row] for row in c.entries])]
    for n, bound in ((20, 2000), (30, 200)):
        d, chain = [], 1
        for _ in range(n):
            chain *= rng.choice((1, 1, 1, 2, 3, 5))
            d.append(chain)
        diag = mat([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
        cases.append(unimodular(rng, n, bound) @ diag @ unimodular(rng, n, bound))
    return cases


def kernel_digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def entries(m):
    return None if m is None else m.entries


def snf_outputs(cases):
    outputs = []
    for m in cases:
        for with_u in (True, False):
            for with_v in (True, False):
                res = snf(m, with_u=with_u, with_v=with_v)
                outputs.append((res.S.entries, entries(res.U), entries(res.V), res.rank))
    return outputs


class TestKernelOutputsArePinned:
    """``snf`` and ``hnf`` give exactly the outputs pinned below.

    The digests are sha256 of the repr of every output on ``kernel_cases``,
    recorded from the kernels that updated ``U`` and ``V`` as separate
    matrices; the block layout must reproduce them bit for bit.  The digest
    on ``large_kernel_cases`` was recorded from the kernel that re-checked
    the pivot's sign inside both clearing helpers.
    """

    SNF_SHA256 = "6931f96afef6ad2175dfc99e20ed486d5e268403193e072b5d3ba52ed58a5f1f"
    HNF_SHA256 = "cd5f28a125cba20feb74e3124646b7688d6fcfabdc4f15b56c980b366ce17e8c"
    LARGE_SNF_SHA256 = "e809eee69b1df32f1cd07a7163e38117cf8d3e662b2e7ab71f396282f2a82f44"

    def test_snf_under_every_flag_combination(self):
        assert kernel_digest(snf_outputs(kernel_cases())) == self.SNF_SHA256

    def test_snf_on_large_inputs(self):
        assert kernel_digest(snf_outputs(large_kernel_cases())) == self.LARGE_SNF_SHA256

    def test_hnf(self):
        outputs = []
        for m in kernel_cases():
            res = hnf(m)
            outputs.append((res.H.entries, res.U.entries))
        assert kernel_digest(outputs) == self.HNF_SHA256



def rank_case(rng, i):
    """Seeded matrix of 3-, 20- or 200-bit entries, with rows <= cols for
    half of the i; odd i gives a product through a middle of at most
    min(rows, cols), often rank-deficient."""
    bits = (3, 20, 200)[i % 3]
    nc = rng.randint(0, 7)
    nr = rng.randint(0, nc) if i % 4 < 2 else rng.randint(0, 9)

    def draw(rows, cols):
        return mat(
            [[rng.randint(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )

    if i % 2:
        middle = rng.randint(0, min(nr, nc))
        return draw(nr, middle) @ draw(middle, nc)
    return draw(nr, nc)


def rank_mod_reference(m):
    """The rank of ``m`` over ``Z/_P`` by plain elimination on lists of residues."""
    rows = [[x % _P for x in row] for row in m.entries]
    rank = 0
    for j in range(m.cols):
        pivot = next((row for row in rows if row[j]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inverse = pow(pivot[j], -1, _P)
        rows = [
            [(a - row[j] * inverse * b) % _P for a, b in zip(row, pivot)]
            for row in rows
        ]
        rank += 1
    return rank


class TestRankModP:
    """``_rank_mod`` against the exact rank, and the fallback of ``_full_column_rank``."""

    def test_random_against_snf(self):
        rng = random.Random("rank-mod-p")
        cases = [mat([], cols=4), mat([[]] * 4, cols=0), mat([], cols=0)]
        cases += [rank_case(rng, i) for i in range(900)]
        verdicts = Counter()
        for m in cases:
            rank = snf(m, with_u=False, with_v=False).rank
            assert _rank_mod(m) <= rank
            full = _full_column_rank(m)
            assert full == (rank == m.cols)
            verdicts[full, m.rows < m.cols, rank < min(m.rows, m.cols)] += 1
        # full and deficient columns, wide inputs, and deficient products
        assert verdicts[True, False, False] >= 100
        assert verdicts[False, True, False] >= 100
        assert verdicts[False, False, True] >= 100

    def test_a_multiple_of_p_on_the_diagonal(self):
        m = mat([[1, 0], [0, _P]])
        assert _rank_mod(m) == 1
        assert _full_column_rank(m)

    def test_a_dense_matrix_whose_determinant_is_a_multiple_of_p(self):
        rng = random.Random(2**61 - 1)
        d = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, _P]])
        m = unimodular(rng, 4, 9) @ d @ unimodular(rng, 4, 9)
        assert all(x for row in m.entries for x in row)
        assert abs(det(m)) == 3 * _P
        assert _rank_mod(m) == 3
        assert _full_column_rank(m)

    def test_sparse_against_a_plain_elimination(self):
        # mostly zero entries, so that many pivot rows were never updated,
        # with multiples of _P and dependent rows among them
        rng = random.Random("rank-mod-p sparse")
        entries = (0, 0, 0, 0, 1, -1, 2, 3, _P, 2 * _P + 1, -(2**90))
        deficient = 0
        for _ in range(600):
            nr, nc = rng.randint(0, 10), rng.randint(0, 8)
            rows = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
            if nr > 2 and rng.random() < 0.3:
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            m = mat(rows, cols=nc)
            want = rank_mod_reference(m)
            assert _rank_mod(m) == want
            deficient += want < snf(m, with_u=False, with_v=False).rank
        unit = [[int(i == j) for j in range(40)] for i in range(40)]
        assert _rank_mod(mat(unit + [[-x for x in row] for row in unit])) == 40
        # some ranks drop mod _P alone
        assert deficient >= 10


def first_minor_det(rows, n):
    """The rank and ``|det|`` of the minor that row pivoting picks, by
    elimination over Q.

    Column j takes the first remaining row with a nonzero entry there as
    its pivot row; a column where no row has one takes none.  The minor of
    rank 0 is 1.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    d, k = Fraction(1), 0
    for j in range(n):
        pivot = next((row for row in work if row[j]), None)
        if pivot is None:
            continue
        work.remove(pivot)
        d *= pivot[j]
        k += 1
        work = [[a - row[j] / pivot[j] * b for a, b in zip(row, pivot)] for row in work]
    assert d.denominator == 1
    return k, abs(int(d))


def first_pivot_columns(rows, n):
    """The pivot columns of ``rows`` under row pivoting, over Q: the
    columns where some row is first nonzero after elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    columns = []
    for j in range(n):
        pivot = next((row for row in work if row[j]), None)
        if pivot is not None:
            work.remove(pivot)
            columns.append(j)
            work = [[a - row[j] / pivot[j] * b for a, b in zip(row, pivot)] for row in work]
    return columns


def index_of(m):
    """The index of the row lattice of ``m`` in ``Z^cols``, 0 when it is infinite."""
    res = snf(m, with_u=False, with_v=False)
    return math.prod(res.diagonal()) if res.rank == m.cols else 0


def hermite_reference(m):
    """The Hermite basis of the row lattice of ``m`` (full column rank), from
    the column-style ``verify.hnf`` of its transpose."""
    h = hnf(m.transpose()).H
    return [list(h.column(j)) for j in range(m.cols)]


def divide_down(basis, v):
    """Whether ``v`` is an integer combination of the rows of the
    upper-triangular ``basis``."""
    v = list(v)
    for j, row in enumerate(basis):
        q, rem = divmod(v[j], row[j])
        if rem:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def planted(rng, m, n, diag, bound):
    """``U D V`` with dense unimodular ``U`` (m x m) and ``V`` (n x n) and
    ``D`` the m x n matrix with ``diag`` on its diagonal."""
    d = mat([[diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
             for i in range(m)], cols=n)
    return unimodular(rng, m, bound) @ d @ unimodular(rng, n, bound)


def kernel_inputs():
    """Seeded inputs for the determinant and Hermite kernels.

    The shapes and bit sizes of ``flag_case``, then planted ``U D V``
    products of rank up to 30 with entries of up to 13 or 14 bits: full
    rank square and tall, singular square and tall, and wide.
    """
    rng = random.Random("hermite-mod")
    cases = [flag_case(rng, i) for i in range(320)]
    for n in (1, 2, 5, 10, 20, 30):
        for extra in (0, 1, n // 5 + 2):
            diag = [rng.choice((1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 9, 12, 30))
                    for _ in range(n)]
            cases.append(planted(rng, n + extra, n, diag, 2))
        # a zero on the diagonal: singular with as many rows as columns or more
        for extra in (0, 2):
            cases.append(planted(rng, n + extra, n, [1] * (n - 1) + [0], 2))
        if n > 1:
            cases.append(planted(rng, n // 2, n, [2] * n, 2))
    return cases


def packed_cases():
    """Seeded rows for the packed rows of ``_hermite_mod``, as ``(rows, n)``.

    Tall dense rows, up to 4n of them, that are all nonzero in column 0,
    so that it folds every row and the rows left over take a fold at
    every column; rows of +-256-bit entries; and sparse Cartan rows, of
    C and of 2C, with some rows left out or repeated.  Every third tall
    case is a product through a narrower middle, so of lower rank.
    """
    rng = random.Random("packed rows")
    cases = []
    for i in range(60):
        n = rng.randint(1, 7)
        bits = (2, 5, 30)[i % 3]
        rows = [[rng.choice((-1, 1)) * rng.randint(1, 2**bits)]
                + [rng.randint(-(2**bits), 2**bits) for _ in range(n - 1)]
                for _ in range(rng.randint(n, 4 * n))]
        if i % 3 == 2 and n > 1:
            rows = [list(row) for row in (mat(rows) @ sparse_matrix(rng, n, n - 1, 1, 3)
                                          @ sparse_matrix(rng, n - 1, n, 1, 3)).entries]
        cases.append((rows, n))
    for _ in range(40):
        n = rng.randint(1, 6)
        bound = 2**256
        cases.append(([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(rng.randint(1, 2 * n))], n))
    for series, n in (("A", 5), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("G", 2)):
        c = [list(row) for row in cartan_matrix(series, n).entries]
        for scale in (1, 2):
            rows = [[scale * x for x in row] for row in c]
            cases.append((rows, n))
            cases.append((rows[1:], n))
            cases.append((rows + [rows[0]] + [[0] * n], n))
    return cases


class TestHermiteMod:
    """``_echelon`` and ``_hermite_mod`` against ``snf``, ``verify.hnf`` and Q."""

    def test_det_minor_against_the_index_and_an_elimination_over_q(self):
        verdicts = Counter()
        for m in kernel_inputs():
            k, d = _echelon(m.entries, m.cols)[:2]
            index = index_of(m)
            assert (k, d) == first_minor_det(m.entries, m.cols)
            full = k == m.cols
            assert full == (index != 0)
            if full:
                assert d % index == 0
            verdicts[full, m.rows < m.cols, m.rows == m.cols] += 1
        # full rank square and tall, singular square and tall, and wide
        assert verdicts[True, False, True] >= 30 and verdicts[True, False, False] >= 80
        assert verdicts[False, False, True] >= 25 and verdicts[False, False, False] >= 40
        assert verdicts[False, True, False] >= 120

    def test_planted_products_reach_rank_30_and_13_bits(self):
        planted_cases = kernel_inputs()[320:]
        assert max(m.cols for m in planted_cases) == 30
        bits = max(abs(x).bit_length() for m in planted_cases for row in m.entries
                   for x in row)
        assert 13 <= bits <= 14

    def test_hermite_mod_against_hnf_and_snf(self):
        rng = random.Random("hermite-mod moduli")
        checked = 0
        for m in kernel_inputs():
            k, d = _echelon(m.entries, m.cols)[:2]
            if k < m.cols:
                continue
            index = index_of(m)
            want = hermite_reference(m)
            # the determinant, the index itself, and bare multiples of it
            for modulus in (d, index, index * rng.randint(2, 40), index * (1 << 70)):
                basis = _hermite_mod(m.entries, m.cols, modulus)
                assert basis == want, (m, modulus)
            assert math.prod(row[j] for j, row in enumerate(want)) == index
            s = snf(mat(want, cols=m.cols), with_u=False, with_v=False)
            assert s.diagonal() == snf(m, with_u=False, with_v=False).diagonal()[: m.cols]
            assert all(divide_down(want, row) for row in m.entries)
            checked += 1
        assert checked >= 120

    def test_hermite_mod_of_a_lattice_and_a_larger_one(self):
        # the ambient step: a Hermite basis H stacked on more rows, taken mod
        # det H, which the index of the larger lattice divides
        rng = random.Random("hermite-mod stacked")
        for _ in range(150):
            n = rng.randint(1, 8)
            while True:
                f = sparse_matrix(rng, rng.randint(n, n + 3), n, 1, rng.choice((3, 20)))
                k, d = _echelon(f.entries, n)[:2]
                if k == n:
                    break
            h = _hermite_mod(f.entries, n, d)
            e = sparse_matrix(rng, rng.randint(0, 4), n, 0.6, 3)
            both = stack_rows(f, e)
            got = _hermite_mod(h + [list(row) for row in e.entries], n,
                               math.prod(row[j] for j, row in enumerate(h)))
            assert got == hermite_reference(both)

    def test_packed_rows_against_hnf(self):
        # tall, 256-bit and sparse Cartan rows of full rank, mod 1, the
        # minor, the index and multiples of it above 2**64
        rng = random.Random("packed rows of full rank")
        seen = Counter()
        for rows, n in packed_cases():
            m = mat(rows, cols=n)
            k, d = _echelon(rows, n)[:2]
            if k < n:
                continue
            index = index_of(m)
            want = hermite_reference(m)
            assert _hermite_mod(rows, n, 1) == [[int(i == j) for j in range(n)] for i in range(n)]
            for modulus in (d, index, index << 65, index * (2**64 + rng.randint(1, 2**70))):
                assert _hermite_mod(rows, n, modulus) == want, (rows, modulus)
            seen[len(rows) > 2 * n, max(abs(x) for row in rows for x in row) > 2**64] += 1
        # tall inputs, up to 4n rows, and +-256-bit entries
        assert seen[True, False] >= 20 and seen[False, True] >= 20, seen

    def test_a_lead_that_is_a_nonzero_multiple_of_d(self):
        # mod 5, (2, 4, 1) folds into the pivot (1, 2, 0) as (2, 4, 1) + 3
        # (1, 2, 0), whose entries 10 and 1 are unreduced: it waits under
        # column 1, where 10 is 0 mod 5, and moves on to column 2
        assert _hermite_mod(((1, 2, 0), (2, 4, 1)), 3, 5) == [[1, 2, 0], [0, 5, 0], [0, 0, 1]]
        # and again at the next column: (1, 2, 1) + 4 (1, 2, 1) is 5 (1, 2, 1)
        rows = ((1, 2, 1), (1, 2, 1), (3, 1, 1))
        gens = [list(row) for row in rows] + [[5 * (i == j) for j in range(3)] for i in range(3)]
        assert _hermite_mod(rows, 3, 5) == hermite_reference(mat(gens))

    def test_edge_shapes(self):
        assert _echelon((), 0)[:2] == (0, 1) and _hermite_mod((), 0, 1) == []
        assert _echelon(((),), 0)[:2] == (0, 1)
        assert _echelon((), 2)[:2] == (0, 1)
        assert _echelon(((0, 0), (0, 0), (0, 0)), 2)[:2] == (0, 1)
        assert _echelon(((0, 3), (0, 5), (2, 7)), 2)[:2] == (2, 6)
        assert _hermite_mod(((0, 3), (0, 5), (2, 7)), 2, 6) == [[2, 0], [0, 1]]
        # an entry that is a multiple of the modulus counts as zero
        assert _hermite_mod(((12, 7), (0, 1)), 2, 12) == [[12, 0], [0, 1]]
        # a column without a pivot takes no step
        assert _echelon(((0, 3, 1), (0, 6, 5), (0, 9, 6)), 3)[:2] == (2, 9)
        assert _hermite_mod((), 2, 5) == [[5, 0], [0, 5]]
        assert _hermite_mod(((0, 0),), 2, 1) == [[1, 0], [0, 1]]
        assert _hermite_mod(((0, 3, 1),), 3, 1) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert _hermite_mod(((0, 3, 1),), 3, 6) == [[6, 0, 0], [0, 3, 1], [0, 0, 2]]


def deficient_case(rng, i):
    """Seeded rows of any rank, with zero and repeated rows mixed in.

    The rows are a product through a middle of at most the column count,
    with entries of 3, 8 or about 200 bits; every fourth case has no rows.
    """
    n = rng.randint(0, 6)
    nr = 0 if i % 4 == 0 else rng.randint(1, 7)
    bits = (3, 8, 100)[i % 3]
    middle = rng.randint(0, n)
    rows = [list(row) for row in (
        sparse_matrix(rng, nr, middle, 1, bits) @ sparse_matrix(rng, middle, n, 0.7, bits)
    ).entries]
    for _ in range(rng.randint(0, 2) if rows else 0):
        extra = rng.choice(rows) if rng.random() < 0.5 else [0] * n
        rows.insert(rng.randrange(len(rows) + 1), list(extra))
    return rows, n


def in_lattice(basis, v):
    """Whether ``v`` is an integer combination of the rows of ``basis``."""
    n = len(v)
    if not basis:
        return not any(v)
    return solve_in_lattice(mat(basis, cols=n).transpose(), v) is not None


def stacked_embedding(rng, n, bits):
    """Seeded rows of full column rank n, n to n + 2 of them, as the E of a
    stack [F; E]."""
    while True:
        rows = [list(row) for row in sparse_matrix(rng, n + rng.randint(0, 2), n, 0.8, bits).entries]
        if _echelon(rows, n)[0] == n:
            return rows


class TestRankRevealing:
    """``_echelon`` below full rank and ``_hermite_mod`` of ``L(rows) + d Z^n``."""

    def test_det_minor_gives_the_rank_and_a_multiple_of_the_divisor(self):
        # each seeded case alone, and stacked on rows E of full column rank
        # with the case's rows counted as the top: k is still the rank of
        # the case alone, and d a multiple of its k-th determinantal divisor
        # and of the index of L([F; E]); at full rank, the case's own minor
        rng = random.Random("rank-revealing")
        stack_rng = random.Random("stacked elimination")
        ranks = Counter()
        stacks = Counter()
        cases = [deficient_case(rng, i) for i in range(400)]
        cases += [(m.entries, m.cols) for m in kernel_inputs()]
        for i, (rows, n) in enumerate(cases):
            k, d = _echelon(rows, n)[:2]
            res = snf(mat(rows, cols=n), with_u=False, with_v=False)
            divisor = math.prod(res.diagonal()[:k])
            assert k == res.rank
            assert d >= 1 and d % divisor == 0
            ranks[k < n, k] += 1
            if i < 400:
                embedding = stacked_embedding(stack_rng, n, (3, 8, 100)[i % 3])
                k_stack, d_stack = _echelon(list(rows) + embedding, n, len(rows))[:2]
                assert k_stack == k
                assert d_stack % divisor == 0
                assert d_stack % index_of(mat(list(rows) + embedding, cols=n)) == 0
                assert k < n or d_stack == d
                stacks[0 < k < n, k == n] += 1
        assert sum(v for (deficient, _), v in ranks.items() if deficient) >= 250
        assert all(ranks[True, k] >= 10 for k in range(6))
        # below full rank but not 0, at full rank, and at rank 0
        assert stacks[True, False] >= 120 and stacks[False, True] >= 80, stacks
        assert stacks[False, False] >= 100, stacks
        # [[0, 2]] on E = I: the pivot at column 0 is E's, and the minor
        # takes the 2 of F's row
        assert _echelon(((0, 2), (1, 0), (0, 1)), 2, 1)[:2] == (1, 2)

    def test_hermite_mod_at_every_rank_and_modulus(self):
        # L(rows) + d Z^n, for moduli that are multiples of the minor and
        # moduli that are not, against the lattice itself
        rng = random.Random("hermite-mod of any rank")
        checked = Counter()
        for i in range(240):
            rows, n = deficient_case(rng, i)
            rank, minor = _echelon(rows, n)[:2]
            for d in {1, rng.randint(2, 40), minor, minor * rng.randint(2, 9)}:
                gens = rows + [[d * (i == j) for j in range(n)] for i in range(n)]
                basis = _hermite_mod(rows, n, d)
                assert len(basis) == n
                for j, row in enumerate(basis):
                    assert len(row) == n and row[j] > 0 and not any(row[:j])
                    assert all(0 <= basis[t][j] < row[j] for t in range(j))
                assert all(in_lattice(gens, row) for row in basis)
                assert all(in_lattice(basis, row) for row in gens)
                checked[d % minor == 0, rank < n] += 1
        assert checked[True, True] >= 100 and checked[False, True] >= 100
        assert checked[True, False] >= 50

    def test_hermite_mod_of_any_modulus_against_hnf(self):
        # d is drawn with no regard to the divisors of the rows: 1, a prime,
        # a value coprime to the product s of the nonzero invariant factors
        # and a value below s
        rng = random.Random("hermite-mod of any modulus")
        primes = (2, 3, 5, 7, 11, 13, 101, 65537, _P)
        seen = Counter()
        for i in range(300):
            rows, n = deficient_case(rng, i)
            res = snf(mat(rows, cols=n), with_u=False, with_v=False)
            s = math.prod(res.diagonal()[: res.rank])
            coprime = rng.randint(2, 10**6)
            while math.gcd(coprime, s) > 1:
                coprime += 1
            for d in (1, rng.choice(primes), coprime, rng.randint(1, max(s - 1, 1))):
                gens = rows + [[d * (i == j) for j in range(n)] for i in range(n)]
                assert _hermite_mod(rows, n, d) == hermite_reference(mat(gens, cols=n))
                seen[bool(rows), s % d > 0, res.rank < n] += 1
        # rows and a modulus that s is no multiple of, below full rank and at it
        assert seen[True, True, True] >= 200 and seen[True, True, False] >= 50, seen
        # the lattice L + 2 Z^2 of L = 4 Z^2 is 2 Z^2, whatever the minor 16
        assert _hermite_mod(((4, 0), (0, 4)), 2, 2) == [[2, 0], [0, 2]]

    def test_outside_span_against_the_rank_of_each_stacked_probe(self):
        # probes in the row space over Q (combinations, one of them with a
        # denominator), a unit vector at each column and random vectors
        rng = random.Random("outside-span")
        stack_rng = random.Random("outside the span of a stack")
        seen = Counter()
        for i in range(300):
            rows, n = deficient_case(rng, i)
            rank, _, elimination = _echelon(rows, n)
            probes = [[int(i == j) for j in range(n)] for i in range(n)]
            probes.append([rng.randint(-9, 9) for _ in range(n)])
            for _ in range(3 if rows else 0):
                q = [rng.randint(-3, 3) for _ in rows]
                probes.append([sum(c * x for c, x in zip(q, col)) for col in zip(*rows)])
            if rows and (g := math.gcd(*rows[0])) > 1:
                probes.append([x // g for x in rows[0]])
            want = []
            for t, probe in enumerate(probes):
                stacked = snf(mat(rows + [probe], cols=n), with_u=False, with_v=False)
                if stacked.rank > rank:
                    want.append(t)
            assert _outside_span(elimination, probes) == want
            seen[bool(want), len(want) < len(probes)] += 1
            # the same probes through the steps of F's rows in the
            # elimination of [F; E]: F's rows pivot at the columns where
            # they pivot alone, E's rows at the others, and the unit vectors
            # at E's columns are among those flagged
            embedding = stacked_embedding(stack_rng, n, 3)
            k, _, stacked = _echelon(rows + embedding, n, len(rows))
            assert _outside_span(stacked, probes) == want
            spanned = first_pivot_columns(rows, n)
            assert list(stacked[1]) == spanned and len(spanned) == k
            assert all(t in want for t in range(n) if t not in spanned)
            seen["E pivots"] += k < n
        assert all(seen[key] >= 40 for key in ((True, True), (False, True), (True, False)))
        assert seen["E pivots"] >= 150
        assert _outside_span(_echelon((), 0)[2], [(), ()]) == []
        elimination = _echelon(((0, 3, 1),), 3)[2]
        assert _outside_span(elimination, [(0, 6, 2), (1, 0, 0)]) == [1]

    def test_packed_rows_of_any_rank_and_modulus(self):
        # the tall, 256-bit and Cartan rows of packed_cases at every rank,
        # mod 1, the minor, a multiple of it above 2**64 and a value above
        # 2**64 drawn with no regard to it
        rng = random.Random("packed rows of any rank")
        seen = Counter()
        for rows, n in packed_cases():
            k, minor = _echelon(rows, n)[:2]
            for d in (1, minor, minor << 64, 2**64 + rng.randint(1, 2**80)):
                gens = rows + [[d * (i == j) for j in range(n)] for i in range(n)]
                assert _hermite_mod(rows, n, d) == hermite_reference(mat(gens, cols=n))
            seen[k < n] += 1
        assert seen[True] >= 20 and seen[False] >= 60, seen

    def test_remainders_against_solve_in_lattice(self):
        # bases from _hermite_mod at full rank and below it, and upper-
        # triangular ones left unreduced above their pivots; probes in the
        # lattice (zero, combinations of the rows) and maybe outside it
        # (unit vectors, a row divided by its content)
        rng = random.Random("outside-lattice")
        seen = Counter()
        for i in range(300):
            rows, n = deficient_case(rng, i)
            rank, minor = _echelon(rows, n)[:2]
            hermite = _hermite_mod(rows, n, minor * rng.randint(1, 4))
            unreduced = [
                [0] * j + [rng.randint(1, 6)] + [rng.randint(-30, 30) for _ in range(j + 1, n)]
                for j in range(n)
            ]
            kinds = (("hermite", rank == n), ("unreduced", False))
            for basis, kind in zip((hermite, unreduced), kinds):
                probes = [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
                for generators in (rows, basis):
                    for _ in range(2 if generators else 0):
                        q = [rng.randint(-3, 3) for _ in generators]
                        columns = zip(*generators)
                        probes.append([sum(c * x for c, x in zip(q, col)) for col in columns])
                    for row in generators[:1]:
                        if (g := math.gcd(*row)) > 1:
                            probes.append([x // g for x in row])
                remainders = _remainders(basis, probes)
                assert len(remainders) == len(probes)
                outside = 0
                for probe, rem in zip(probes, remainders):
                    assert any(rem) != in_lattice(basis, probe)
                    assert in_lattice(basis, [c - x for c, x in zip(probe, rem)])
                    assert all(0 <= rem[j] < row[j] for j, row in enumerate(basis))
                    outside += any(rem)
                seen[kind, outside > 0] += 1
        for kind in (("hermite", True), ("hermite", False), ("unreduced", False)):
            assert seen[kind, True] >= 20 and seen[kind, False] >= 20, seen
        assert _remainders([], [(), ()]) == [[], []]
        # (2, 5) is unreduced above the pivot 3; (2, 0) leaves -5 at column 1
        probes = [(2, 5), (2, 8), (0, 3), (2, 0), (1, 0)]
        assert _remainders([[2, 5], [0, 3]], probes) == [
            [0, 0], [0, 0], [0, 0], [0, 1], [1, 0]
        ]

    def test_a_dropped_tail_is_taken_back(self):
        # rows (2, 1) with d = 4: the pivot 2 at column 0 leaves 4 / 2 = 2
        # times the tail 1 in the lattice; without it, (0, 2) would be missing
        assert _hermite_mod(((2, 1),), 2, 4) == [[2, 1], [0, 2]]


def test_diagonal_agrees_with_sympy():
    """An independent Smith form: sympy's, on dense seeded inputs up to 12 x 12."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(1212)
    for i in range(50):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[rng.randint(-50, 50) for _ in range(nc)] for _ in range(nr)]
        if i % 5 == 0 and nr > 1:  # a dependent last row
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[(nr - 1) // 2])]
        s = smith_normal_form(Matrix(rows), domain=ZZ)
        want = tuple(abs(int(s[j, j])) for j in range(min(nr, nc)))
        assert snf(mat(rows), with_u=False, with_v=False).diagonal() == want
