"""Exact integer matrix machinery: construction, SNF, HNF, solving."""

import hashlib
import math
import random
from itertools import combinations

import pytest

from spherical_pi.intmat import DimensionError, IntMatrix, snf, stack_rows
from spherical_pi.verify import det, hnf, solve_in_lattice


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
        assert a.mul_vec((1, 1)) == (3, 7)
        with pytest.raises(DimensionError):
            a.mul_vec((1,))

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
            b = m.mul_vec(x)
            sol = solve_in_lattice(m, b)
            assert sol is not None
            assert m.mul_vec(sol) == b

    def test_random_arbitrary_rhs(self):
        rng = random.Random(14)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, bound=6)
            b = tuple(rng.randint(-10, 10) for _ in range(m.rows))
            sol = solve_in_lattice(m, b)
            if sol is not None:
                assert m.mul_vec(sol) == b


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


class TestProductAgainstReference:
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


def kernel_digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def entries(m):
    return None if m is None else m.entries


class TestKernelOutputsArePinned:
    """``snf`` and ``hnf`` give exactly the outputs pinned below.

    The digests are sha256 of the repr of every output on ``kernel_cases``,
    recorded from the kernels that updated ``U`` and ``V`` as separate
    matrices; the block layout must reproduce them bit for bit.
    """

    SNF_SHA256 = "6931f96afef6ad2175dfc99e20ed486d5e268403193e072b5d3ba52ed58a5f1f"
    HNF_SHA256 = "cd5f28a125cba20feb74e3124646b7688d6fcfabdc4f15b56c980b366ce17e8c"

    def test_snf_under_every_flag_combination(self):
        outputs = []
        for m in kernel_cases():
            for with_u in (True, False):
                for with_v in (True, False):
                    res = snf(m, with_u=with_u, with_v=with_v)
                    outputs.append(
                        (res.S.entries, entries(res.U), entries(res.V), res.rank)
                    )
        assert kernel_digest(outputs) == self.SNF_SHA256

    def test_hnf(self):
        outputs = []
        for m in kernel_cases():
            res = hnf(m)
            outputs.append((res.H.entries, res.U.entries))
        assert kernel_digest(outputs) == self.HNF_SHA256


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
