"""Saturation, lattice intersection, quotient structure, p'-parts."""

import math
import random
from fractions import Fraction

import pytest

from spherical_pi.intmat import DimensionError, IntMatrix
from spherical_pi.lattices import (
    FinGenAbQuotient,
    SaturatedSet,
    dual_saturation,
    p_prime_part,
)
from spherical_pi.oracle import enumerate_torsion, structure_match
from spherical_pi.root_data import ADJOINT, RootDatum, build_standard, cartan_matrix
from spherical_pi.spherical import PiResult
from spherical_pi.verify import (
    Lattice,
    NotASublatticeError,
    contains,
    det,
    hnf,
    intersect,
    quotient,
    same_set,
)


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def frac_matvec(columns, vector):
    """columns: list of rational vectors; returns sum of v_j * columns[j]."""
    dim = len(columns[0])
    out = [Fraction(0)] * dim
    for coeff, col in zip(vector, columns):
        for i in range(dim):
            out[i] += Fraction(coeff) * col[i]
    return tuple(out)


def functional_values(functionals, vector):
    return [
        sum(Fraction(functionals[i][j]) * vector[j] for j in range(functionals.cols))
        for i in range(functionals.rows)
    ]


def random_functionals(rng, max_m=4, max_r=4, bound=6):
    r = rng.randint(1, max_r)
    m = rng.randint(0, max_m)
    return r, mat(
        [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)], cols=r
    )


class TestFinGenAbQuotient:
    def test_valid(self):
        q = FinGenAbQuotient(1, (2, 6))
        assert q.divisible_rank == 1
        assert not q.is_finite
        assert FinGenAbQuotient(0, ()).is_trivial
        assert FinGenAbQuotient(0, (2, 4)).order() == 8

    def test_rejects_factor_one(self):
        with pytest.raises(ValueError):
            FinGenAbQuotient(0, (1, 2))

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            FinGenAbQuotient(0, (2, 3))

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            FinGenAbQuotient(-1, ())

    @pytest.mark.parametrize("factor", [4.9, 4.0, Fraction(4), "4", True])
    def test_rejects_a_factor_that_is_not_an_int(self, factor):
        with pytest.raises(TypeError):
            FinGenAbQuotient(0, (factor,))

    @pytest.mark.parametrize("rank", [0.5, 1.0, "1", True, False])
    def test_rejects_a_rank_that_is_not_an_int(self, rank):
        with pytest.raises(TypeError):
            FinGenAbQuotient(rank, ())

    def test_infinite_order(self):
        with pytest.raises(ValueError):
            FinGenAbQuotient(1, ()).order()


# every count a constructor takes, as a function of that count alone
COUNT_SITES = {
    "IntMatrix rows": lambda n: IntMatrix(n, 0, ()),
    "IntMatrix cols": lambda n: IntMatrix(0, n, ()),
    "RootDatum rank": lambda n: RootDatum(n),
    "cartan_matrix rank": lambda n: cartan_matrix("A", n),
    "build_standard central_torus_rank": lambda n: build_standard("A", 1, ADJOINT, n),
    "FinGenAbQuotient divisible_rank": lambda n: FinGenAbQuotient(n, ()),
    "PiResult zhat_rank": lambda n: PiResult(n, (), 1),
    "Lattice ambient_rank": lambda n: Lattice(n, ()),
}


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
@pytest.mark.parametrize(
    "count, error, message",
    [
        (True, TypeError, "must be an int, got bool"),
        (2.0, TypeError, "must be an int, got float"),
        (-1, ValueError, "must be nonnegative"),
    ],
    ids=("bool", "float", "negative"),
)
def test_every_count_rejects_a_bool_a_float_and_a_negative(
    site, count, error, message
):
    with pytest.raises(error, match=message):
        COUNT_SITES[site](count)


class TestPPrimePart:
    def test_strip_two_part(self):
        assert p_prime_part(FinGenAbQuotient(0, (12,)), 2) == FinGenAbQuotient(0, (3,))

    def test_strip_everything(self):
        assert p_prime_part(FinGenAbQuotient(0, (2,)), 2) == FinGenAbQuotient(0, ())

    def test_p_one_is_identity(self):
        q = FinGenAbQuotient(0, (6, 12))
        assert p_prime_part(q, 1) == q

    def test_divisible_rank_unchanged(self):
        q = FinGenAbQuotient(3, (10,))
        assert p_prime_part(q, 5).divisible_rank == 3

    def test_invalid_p(self):
        for p in (0, 4, -3, 9):
            with pytest.raises(ValueError):
                p_prime_part(FinGenAbQuotient(0, ()), p)

    def test_idempotent_and_order_multiplicative(self):
        rng = random.Random(31)
        for _ in range(200):
            # build a random valid chain
            chain = []
            d = rng.choice((2, 3, 4, 5, 6))
            for _ in range(rng.randint(0, 3)):
                chain.append(d)
                d *= rng.choice((1, 2, 3, 5))
            q = FinGenAbQuotient(0, tuple(chain))
            p = rng.choice((2, 3, 5, 7))
            stripped = p_prime_part(q, p)
            assert p_prime_part(stripped, p) == stripped
            ratio = q.order() // stripped.order()
            assert q.order() == stripped.order() * ratio
            while ratio % p == 0:
                ratio //= p
            assert ratio == 1


class TestDualSaturation:
    def test_single_even_functional(self):
        # brute force: x = c with 2c integral means c in (1/2)Z, so the
        # quotient by Z is cyclic of order 2
        sat, q = dual_saturation(1, mat([[2]]))
        assert q == FinGenAbQuotient(0, (2,))
        assert contains(sat, (Fraction(1, 2),))
        assert not contains(sat, (Fraction(1, 3),))
        sample = enumerate_torsion(mat([[2]]), 2)
        assert structure_match(sample, q, 2).ok

    def test_no_constraints(self):
        sat, q = dual_saturation(2, IntMatrix.from_rows([], cols=2))
        assert q == FinGenAbQuotient(2, ())
        assert len(sat.divisible_subspace_basis) == 2
        assert contains(sat, (Fraction(22, 7), Fraction(-3, 11)))

    def test_unimodular_constraints(self):
        sat, q = dual_saturation(2, IntMatrix.identity(2))
        assert q == FinGenAbQuotient(0, ())
        assert contains(sat, (5, -7))
        assert not contains(sat, (Fraction(1, 2), 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dual_saturation(3, mat([[1, 2]]))

    def test_saturated_set_invariants(self):
        rng = random.Random(17)
        for _ in range(100):
            r, d = random_functionals(rng)
            sat, q = dual_saturation(r, d)
            for v in sat.finite_direction_basis:
                assert all(x.denominator == 1 for x in functional_values(d, v))
            for v in sat.divisible_subspace_basis:
                assert all(x == 0 for x in functional_values(d, v))
            # jointly a basis of Q^r
            all_gens = sat.finite_direction_basis + sat.divisible_subspace_basis
            assert len(all_gens) == r
            scale = math.lcm(*(x.denominator for v in all_gens for x in v), 1)
            cleared = IntMatrix.from_cols(
                [[int(x * scale) for x in v] for v in all_gens], rows=r
            )
            from spherical_pi.intmat import snf

            assert snf(cleared).rank == r
            assert q.divisible_rank == len(sat.divisible_subspace_basis)

    def test_contains_agrees_with_defining_condition(self):
        rng = random.Random(18)
        for _ in range(100):
            r, d = random_functionals(rng, max_m=3, max_r=3, bound=4)
            sat, _ = dual_saturation(r, d)
            for _ in range(10):
                x = tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(r)
                )
                direct = all(v.denominator == 1 for v in functional_values(d, x))
                assert contains(sat, x) == direct

    def test_reference_lattice_is_inside(self):
        rng = random.Random(19)
        for _ in range(50):
            r, d = random_functionals(rng)
            sat, _ = dual_saturation(r, d)
            for i in range(r):
                e = tuple(int(i == j) for j in range(r))
                assert contains(sat, e)


class TestSaturatedSetComparison:
    def test_same_set_reflexive(self):
        sat, _ = dual_saturation(2, mat([[2, 0], [0, 3]]))
        assert same_set(sat, sat)

    def test_same_set_under_recombination(self):
        sat, _ = dual_saturation(2, mat([[2, 0], [0, 3]]))
        f = sat.finite_direction_basis
        recombined = SaturatedSet(
            (f[1], tuple(a + 2 * b for a, b in zip(f[0], f[1]))),
            sat.divisible_subspace_basis,
        )
        assert same_set(sat, recombined)

    def test_different_sets_detected(self):
        sat, _ = dual_saturation(1, mat([[2]]))
        halved = SaturatedSet(
            (tuple(x / 2 for x in sat.finite_direction_basis[0]),), ()
        )
        assert not same_set(sat, halved)

    def test_intermediate_lattice_invariance(self):
        # re-expressing the functionals on any lattice between Z^r and the
        # saturation, then saturating again, describes the same subset
        rng = random.Random(23)
        trials = 0
        while trials < 40:
            r, d = random_functionals(rng, max_m=3, max_r=3, bound=4)
            sat, q = dual_saturation(r, d)
            if not sat.finite_direction_basis:
                continue
            trials += 1
            combo = [Fraction(0)] * r
            for gen in sat.finite_direction_basis:
                c = rng.randint(-2, 2)
                for i in range(r):
                    combo[i] += c * gen[i]
            # lattice generated by Z^r and the combination, via a column HNF
            scale = math.lcm(1, *(x.denominator for x in combo))
            cols = [[scale * int(i == j) for i in range(r)] for j in range(r)]
            cols.append([int(x * scale) for x in combo])
            h = hnf(IntMatrix.from_cols(cols, rows=r)).H
            gamma = [
                tuple(Fraction(x, scale) for x in h.column(j)) for j in range(r)
            ]
            # functional values on the new basis stay integral inside the saturation
            d_rows = []
            for i in range(d.rows):
                row = []
                for g in gamma:
                    val = sum(Fraction(d[i][j]) * g[j] for j in range(r))
                    assert val.denominator == 1
                    row.append(int(val))
                d_rows.append(row)
            d_gamma = mat(d_rows, cols=r)
            sat_gamma, _ = dual_saturation(r, d_gamma)
            transformed = SaturatedSet(
                tuple(frac_matvec(gamma, v) for v in sat_gamma.finite_direction_basis),
                tuple(
                    frac_matvec(gamma, v) for v in sat_gamma.divisible_subspace_basis
                ),
            )
            assert same_set(transformed, sat)


class TestLattice:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            Lattice(2, ((1, 2), (2, 4)))

    def test_contains(self):
        lat = Lattice(2, ((2, 0), (0, 3)))
        assert lat.contains((4, 3))
        assert not lat.contains((1, 0))
        assert not lat.contains((2, 1))

    def test_equality_by_span(self):
        a = Lattice(1, ((Fraction(1, 2),),))
        b = Lattice(1, ((Fraction(-1, 2),),))
        assert a == b
        assert a != Lattice(1, ((1,),))

    def test_zero_lattice(self):
        z = Lattice(2, ())
        assert z.rank == 0
        assert z.contains((0, 0))
        assert not z.contains((1, 0))


class TestIntersect:
    def test_idempotent(self):
        lat = Lattice(2, ((1, 2), (0, 5)))
        assert intersect(lat, lat) == lat

    def test_rank_one_lcm(self):
        a = Lattice(1, ((2,),))
        b = Lattice(1, ((3,),))
        assert intersect(a, b) == Lattice(1, ((6,),))

    def test_sl2_weight_coordinates(self):
        # the root generates an index-two sublattice of the weight line
        a = Lattice(1, ((2,),))
        b = Lattice(1, ((1,),))
        got = intersect(a, b)
        assert got == Lattice(1, ((2,),))
        assert quotient(got, a).is_trivial

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            intersect(Lattice(1, ((1,),)), Lattice(2, ((1, 0),)))

    def test_random_intersection_properties(self):
        rng = random.Random(41)
        for _ in range(40):
            dim = rng.randint(1, 3)
            def rand_lattice():
                vecs = []
                for _ in range(rng.randint(1, dim)):
                    vecs.append(
                        tuple(
                            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                            for _ in range(dim)
                        )
                    )
                try:
                    return Lattice(dim, tuple(vecs))
                except ValueError:
                    return None
            a = rand_lattice()
            b = rand_lattice()
            if a is None or b is None:
                continue
            inter = intersect(a, b)
            assert inter.rank <= min(a.rank, b.rank)
            for v in inter.basis:
                assert a.contains(v) and b.contains(v)
            # random members of both lattices must land in the intersection
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in range(a.rank)]
                v = frac_matvec(list(a.basis), coeffs) if a.rank else (Fraction(0),) * dim
                if b.contains(v):
                    assert inter.contains(v)


class TestQuotient:
    def test_trivial(self):
        lat = Lattice(2, ((1, 0), (0, 1)))
        assert quotient(lat, lat).is_trivial

    def test_z2_mod_2z_3z(self):
        big = Lattice(2, ((1, 0), (0, 1)))
        small = Lattice(2, ((2, 0), (0, 3)))
        q = quotient(big, small)
        assert q == FinGenAbQuotient(0, (6,))
        # brute-force coset enumeration: 6 cosets and an element of order 6
        cosets = []
        for a in range(6):
            for b in range(6):
                if not any(
                    (a - x) % 2 == 0 and (b - y) % 3 == 0 for (x, y) in cosets
                ):
                    cosets.append((a, b))
        assert len(cosets) == 6
        orders = set()
        for a, b in cosets:
            k = 1
            while (k * a) % 2 or (k * b) % 3:
                k += 1
            orders.add(k)
        assert max(orders) == 6  # cyclic

    def test_rank_one_index_two(self):
        big = Lattice(1, ((2,),))
        small = Lattice(1, ((4,),))
        assert quotient(big, small) == FinGenAbQuotient(0, (2,))

    def test_not_a_sublattice(self):
        with pytest.raises(NotASublatticeError):
            quotient(Lattice(1, ((2,),)), Lattice(1, ((3,),)))

    def test_rank_mismatch(self):
        big = Lattice(2, ((1, 0), (0, 1)))
        small = Lattice(2, ((2, 0),))
        with pytest.raises(ValueError, match="not finite"):
            quotient(big, small)

    def test_order_equals_det_of_change_of_basis(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(1, 3)
            big = Lattice(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
            while True:
                c = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                det_c = det(IntMatrix.from_rows(c))
                if det_c:
                    break
            small = Lattice(n, tuple(tuple(col) for col in zip(*c)))
            assert quotient(big, small).order() == abs(det_c)


class TestOracleEquivalenceSmall:
    def test_predicted_torsion_matches_enumeration(self):
        rng = random.Random(53)
        for _ in range(60):
            r, d = random_functionals(rng, max_m=3, max_r=3, bound=5)
            _, q = dual_saturation(r, d)
            n = 1
            for f in q.invariant_factors:
                n *= f
            n = min(n, 12) if n > 1 else rng.choice((2, 3, 4))
            sample = enumerate_torsion(d, n)
            res = structure_match(sample, q, n)
            assert res.ok, res.mismatches
