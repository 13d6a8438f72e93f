"""Pipeline tests: validation, saturations, pi0/pi1, full reports."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from make_golden import random_documents
from spherical_pi.catalog import CHARACTERISTICS, catalog
from spherical_pi.documents import parse, serialize_report
from spherical_pi.intmat import DimensionError, IntMatrix, snf
from spherical_pi.lattices import (
    FinGenAbQuotient,
    SaturatedSet,
    dual_saturation,
    p_prime_part,
)
from spherical_pi.root_data import (
    ADJOINT,
    SIMPLY_CONNECTED,
    build_standard,
    restrict_coroots,
)
from spherical_pi.spherical import (
    PASS,
    WARN,
    PiResult,
    Report,
    SphericalDatum,
    ambient_color_saturation,
    ambient_saturation_quotient,
    color_saturation,
    full_report,
    pi0_p_prime,
    pi1_p_prime,
    validate,
)
from spherical_pi.verify import (
    Lattice,
    contains,
    intersect,
    quotient,
    same_set,
    torus,
)


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def a1_datum(isogeny, embedding, colors, p=1, label=""):
    return SphericalDatum(
        build_standard("A", 1, isogeny, 0),
        mat(embedding),
        mat(colors, cols=1),
        p,
        label=label,
    )


def sl2_mod_normalizer(p=1):
    return a1_datum(SIMPLY_CONNECTED, [[4]], [[2]], p, label="sl2_mod_normalizer")


def sl2_mod_torus(p=1):
    return a1_datum(SIMPLY_CONNECTED, [[2]], [[1], [1]], p, label="sl2_mod_torus")


def torus_datum(n, p=1):
    return SphericalDatum(
        torus(n),
        IntMatrix.identity(n),
        IntMatrix.from_rows([], cols=n),
        p,
        label=f"torus_rank_{n}",
    )


class TestSphericalDatum:
    def test_basic_properties(self):
        sd = sl2_mod_normalizer()
        assert sd.rank == 1
        assert sd.ambient_rank == 1
        assert sd.color_count == 1

    def test_invalid_char_exponent(self):
        for p in (0, -1, 4, 6, 9):
            with pytest.raises(ValueError):
                a1_datum(SIMPLY_CONNECTED, [[2]], [[1]], p)

    def test_rank_deficient_embedding(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            SphericalDatum(
                torus(2),
                mat([[1, 2], [2, 4]]),
                IntMatrix.from_rows([], cols=2),
                1,
            )

    @pytest.mark.parametrize(
        "rank, rows", [(2, [[1]]), (1, [[1], [2]])], ids=("fewer-rows", "more-rows")
    )
    def test_embedding_rows_must_match_root_datum(self, rank, rows):
        message = f"lattice embedding has {len(rows)} rows, expected {rank}"
        with pytest.raises(DimensionError, match=message):
            SphericalDatum(torus(rank), mat(rows), IntMatrix.from_rows([], cols=1), 1)

    def test_color_columns_must_match_rank(self):
        with pytest.raises(DimensionError):
            a1_datum(SIMPLY_CONNECTED, [[2]], [[1, 1]])

    @pytest.mark.parametrize("label", ["a\tb", "a\x7fb", "a\u2028b"])
    def test_rejects_a_label_that_is_not_printable(self, label):
        with pytest.raises(ValueError, match="must be printable"):
            a1_datum(SIMPLY_CONNECTED, [[4]], [[2]], label=label)

    @pytest.mark.parametrize("label", [None, 5])
    def test_rejects_a_label_that_is_not_a_str(self, label):
        message = f"label must be a str, got {type(label).__name__}"
        with pytest.raises(TypeError, match=message):
            a1_datum(SIMPLY_CONNECTED, [[4]], [[2]], label=label)

    def test_accepts_a_printable_non_ascii_label(self):
        sd = a1_datum(SIMPLY_CONNECTED, [[4]], [[2]], label="\u00e9")
        assert sd.label == "\u00e9"

    def test_with_char_exponent(self):
        sd = sl2_mod_normalizer(1)
        assert sd.with_char_exponent(5).char_exponent == 5
        assert sd.with_char_exponent(5).label == sd.label

    def test_with_char_exponent_leaves_the_original(self):
        sd = sl2_mod_normalizer(1)
        assert sd.with_char_exponent(5) == sl2_mod_normalizer(5)
        assert sd.char_exponent == 1

    @pytest.mark.parametrize("p", [0, -3, 4, True, 2.0, "2"])
    def test_with_char_exponent_rejects_what_the_constructor_rejects(self, p):
        sd = sl2_mod_normalizer(1)
        with pytest.raises(ValueError) as built:
            SphericalDatum(sd.root_datum, sd.lattice_embedding, sd.colors, p)
        with pytest.raises(ValueError) as replaced:
            sd.with_char_exponent(p)
        assert str(replaced.value) == str(built.value)

    @pytest.mark.parametrize("p", [True, 0, -3, 4, 4294967311])
    def test_every_entry_point_rejects_a_bad_p_alike(self, p):
        sd = sl2_mod_normalizer(1)
        calls = (
            lambda: SphericalDatum(sd.root_datum, sd.lattice_embedding, sd.colors, p),
            lambda: sd.with_char_exponent(p),
            lambda: PiResult(0, (), p),
            lambda: p_prime_part(FinGenAbQuotient(0, (2,)), p),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_the_largest_prime_below_the_p_cap_is_accepted(self):
        p = 4294967291
        sd = sl2_mod_normalizer(1)
        built = SphericalDatum(sd.root_datum, sd.lattice_embedding, sd.colors, p)
        assert built.char_exponent == p
        assert sd.with_char_exponent(p).char_exponent == p
        assert PiResult(0, (), p).p == p
        assert p_prime_part(FinGenAbQuotient(0, (2,)), p).invariant_factors == (2,)


class TestValidate:
    def test_sl2_mod_normalizer_passes(self):
        outcomes = validate(sl2_mod_normalizer())
        assert all(o.level == PASS for o in outcomes)
        names = [o.check for o in outcomes]
        assert names == ["embedding-rank", "coroot-span", "char-exponent"]

    def test_coroot_span_warning(self):
        # the restricted coroot is [4], which is not in Z * [3]
        sd = a1_datum(SIMPLY_CONNECTED, [[4]], [[3]])
        outcomes = validate(sd)
        span = next(o for o in outcomes if o.check == "coroot-span")
        assert span.level == WARN

    def test_torus_vacuously_passes(self):
        outcomes = validate(torus_datum(2))
        assert all(o.level == PASS for o in outcomes)


class TestColorSaturation:
    def test_sl2_mod_normalizer(self):
        sat, q = color_saturation(sl2_mod_normalizer())
        assert q == FinGenAbQuotient(0, (2,))
        assert contains(sat, (Fraction(1, 2),))

    def test_sl2_mod_torus(self):
        _, q = color_saturation(sl2_mod_torus())
        assert q == FinGenAbQuotient(0, ())

    def test_torus_rank_one(self):
        _, q = color_saturation(torus_datum(1))
        assert q == FinGenAbQuotient(1, ())


class TestAmbientSaturation:
    def test_sl2_mod_normalizer(self):
        q = ambient_saturation_quotient(sl2_mod_normalizer())
        assert q == FinGenAbQuotient(0, (2,))

    def test_torus_identity_embedding(self):
        q = ambient_saturation_quotient(torus_datum(1))
        assert q == FinGenAbQuotient(0, ())

    def test_root_lattice_with_even_color(self):
        # weight lattice = root lattice inside the weight line of A1;
        # stacked constraints [[2], [2]] have elementary divisor 2
        sd = a1_datum(SIMPLY_CONNECTED, [[2]], [[2]])
        q = ambient_saturation_quotient(sd)
        assert q == FinGenAbQuotient(0, (2,))

    def test_always_finite(self):
        rng = random.Random(61)
        for _ in range(50):
            d = rng.randint(1, 3)
            r = rng.randint(1, d)
            while True:
                emb = mat([[rng.randint(-4, 4) for _ in range(r)] for _ in range(d)])
                if snf(emb).rank == r:
                    break
            colors = mat(
                [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, 3))],
                cols=r,
            )
            sd = SphericalDatum(torus(d), emb, colors, 1)
            q = ambient_saturation_quotient(sd)
            assert q.divisible_rank == 0


class TestPiResults:
    def test_pi0_sl2_mod_normalizer_char_zero(self):
        assert pi0_p_prime(sl2_mod_normalizer(1)) == PiResult(0, (2,), 1)

    def test_pi0_sl2_mod_normalizer_char_two(self):
        assert pi0_p_prime(sl2_mod_normalizer(2)) == PiResult(0, (), 2)

    def test_pi1_sl2_mod_normalizer(self):
        assert pi1_p_prime(sl2_mod_normalizer(1)) == PiResult(0, (2,), 1)

    def test_pi1_sl2_mod_torus_trivial(self):
        assert pi1_p_prime(sl2_mod_torus(1)) == PiResult(0, (), 1)

    def test_pi1_torus_profinite(self):
        assert pi1_p_prime(torus_datum(1, p=5)) == PiResult(1, (), 5)

    def test_pi_result_validation(self):
        with pytest.raises(ValueError):
            PiResult(0, (2,), 2)  # factor divisible by p
        with pytest.raises(ValueError):
            PiResult(0, (2, 3), 1)  # broken chain
        with pytest.raises(ValueError):
            PiResult(-1, (), 1)

    @pytest.mark.parametrize(
        "zhat_rank, factors", [(True, ()), (0.5, ()), (0, (4.9,)), (0, (True,))]
    )
    def test_pi_result_rejects_what_is_not_an_int(self, zhat_rank, factors):
        with pytest.raises(TypeError):
            PiResult(zhat_rank, factors, 1)

    def test_report_rejects_profinite_pi0(self):
        sd = torus_datum(1)
        with pytest.raises(ValueError):
            Report(
                datum=sd,
                saturation_quotient=None,
                ambient_saturation_quotient=None,
                pi0=PiResult(1, (), 1),
                pi1=None,
                validation=(),
            )


class TestGroupCases:
    def group_case_a2(self, p=1):
        # adjoint type A2 as a homogeneous space for two copies of itself:
        # antidiagonal root lattice, colors = rows of the A2 Cartan matrix
        from spherical_pi.verify import product

        rd = product(
            build_standard("A", 2, ADJOINT, 0), build_standard("A", 2, ADJOINT, 0)
        )
        emb = mat([[1, 0], [0, 1], [-1, 0], [0, -1]])
        colors = mat([[2, -1], [-1, 2]])
        return SphericalDatum(rd, emb, colors, p, label="group_case_A2_adjoint")

    def test_pi1_is_center_of_cover(self):
        assert pi1_p_prime(self.group_case_a2(1)) == PiResult(0, (3,), 1)
        assert pi1_p_prime(self.group_case_a2(3)) == PiResult(0, (), 3)
        assert pi1_p_prime(self.group_case_a2(5)) == PiResult(0, (3,), 5)

    def test_pi0_trivial(self):
        for p in (1, 2, 3, 5):
            assert pi0_p_prime(self.group_case_a2(p)) == PiResult(0, (), p)

    def test_validation_passes(self):
        outcomes = validate(self.group_case_a2())
        assert all(o.level == PASS for o in outcomes)

    def group_case_simply_connected(self, series, rank, p=1):
        # the adjoint group of the type as a homogeneous space for two
        # copies of the simply connected group: the isotropy group picks
        # up the center as its component group
        from spherical_pi.root_data import cartan_matrix
        from spherical_pi.verify import product

        rd = product(
            build_standard(series, rank, SIMPLY_CONNECTED, 0),
            build_standard(series, rank, SIMPLY_CONNECTED, 0),
        )
        c = cartan_matrix(series, rank)
        # antidiagonal root lattice; a root in weight coordinates is a
        # Cartan matrix column
        cols = [
            list(c.column(j)) + [-x for x in c.column(j)] for j in range(rank)
        ]
        emb = IntMatrix.from_cols(cols, rows=2 * rank)
        colors = mat([list(c[i]) for i in range(rank)], cols=rank)
        return SphericalDatum(rd, emb, colors, p)

    def test_simply_connected_ambient_gives_central_pi0(self):
        # with simply connected ambient group the ambient saturation grows
        # to the full weight lattice, so pi0 is the center of the cover
        sd2 = self.group_case_simply_connected("A", 2)
        assert pi0_p_prime(sd2) == PiResult(0, (3,), 1)
        assert pi1_p_prime(sd2) == PiResult(0, (3,), 1)
        assert pi0_p_prime(sd2.with_char_exponent(3)) == PiResult(0, (), 3)
        sd1 = self.group_case_simply_connected("A", 1)
        assert pi0_p_prime(sd1) == PiResult(0, (2,), 1)
        assert all(o.level == PASS for o in validate(sd2))


class TestFullReport:
    def test_sl2_mod_normalizer(self):
        report = full_report(sl2_mod_normalizer(1))
        assert report.pi0 == PiResult(0, (2,), 1)
        assert report.pi1 == PiResult(0, (2,), 1)
        assert report.saturation_quotient == FinGenAbQuotient(0, (2,))
        assert report.ambient_saturation_quotient == FinGenAbQuotient(0, (2,))

    def test_torus_rank_two(self):
        report = full_report(torus_datum(2, p=3))
        assert report.pi0 == PiResult(0, (), 3)
        assert report.pi1 == PiResult(2, (), 3)

    def test_sl2_mod_torus(self):
        report = full_report(sl2_mod_torus(1))
        assert report.pi0 == PiResult(0, (), 1)
        assert report.pi1 == PiResult(0, (), 1)

    def test_warning_datum_still_reports(self):
        report = full_report(a1_datum(SIMPLY_CONNECTED, [[4]], [[3]]))
        assert report.pi0 is not None and report.pi1 is not None
        assert any(o.level == WARN for o in report.validation)


def catalog_data():
    return [(e.name, parse(e.document)) for e in catalog()]


def all_documents():
    """Every catalog document and the seeded random documents of the golden files."""
    return [e.document for e in catalog()] + [text for _, text in random_documents()]


def with_p(text, p):
    return json.dumps(dict(json.loads(text), p=p))


class TestSharedCore:
    """A datum and its copies at other p share one characteristic-free core."""

    def test_reports_through_shared_copies_match_fresh_parses(self):
        rng = random.Random("shared-core")
        for text in all_documents():
            sd = parse(text)
            ps = sorted({*CHARACTERISTICS, sd.char_exponent})
            rng.shuffle(ps)
            # each datum is a copy of the one before, the parsed one first
            for p in ps:
                sd = sd.with_char_exponent(p)
                fresh = full_report(parse(with_p(text, p)))
                report = full_report(sd)
                assert report.datum == fresh.datum
                for fmt in ("structured", "text"):
                    got = serialize_report(report, format=fmt)
                    assert got == serialize_report(fresh, format=fmt), (text, p)

    def test_a_reported_datum_still_equals_a_fresh_parse(self):
        # structured reports fill the held input block beside the core
        for text in all_documents()[::5]:
            sd = parse(text)
            serialize_report(full_report(sd.with_char_exponent(2)), format="structured")
            serialize_report(full_report(sd), format="structured")
            fresh = parse(text)
            assert sd == fresh
            assert hash(sd) == hash(fresh)
            assert repr(sd) == repr(fresh)
            assert dataclasses.replace(sd) == fresh

    def test_the_core_is_no_field(self):
        names = [f.name for f in dataclasses.fields(SphericalDatum)]
        assert names == [
            "root_datum",
            "lattice_embedding",
            "colors",
            "char_exponent",
            "label",
        ]


class TestCharZeroIsIdentity:
    def test_p_one_reports_full_quotients(self):
        for name, sd in catalog_data():
            base = sd.with_char_exponent(1)
            amb_q = ambient_saturation_quotient(base)
            _, sat_q = color_saturation(base)
            assert pi0_p_prime(base).invariant_factors == amb_q.invariant_factors, name
            pi1 = pi1_p_prime(base)
            assert pi1.invariant_factors == sat_q.invariant_factors, name
            assert pi1.zhat_rank == sat_q.divisible_rank, name


class TestContainmentProperties:
    def test_saturation_pairs_integrally_with_coroots(self):
        # whenever the coroot-span check passes, pushing a saturation
        # generator to ambient coordinates keeps all coroot values integral
        for name, sd in catalog_data():
            outcomes = validate(sd)
            if any(o.level != PASS for o in outcomes):
                continue
            sat, _ = color_saturation(sd)
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
                    assert val.denominator == 1, (name, i)

    def test_randomized_span_by_construction(self):
        # colors built to contain the restricted coroots in their row span
        rng = random.Random(67)
        for _ in range(40):
            series, rank = rng.choice([("A", 1), ("A", 2), ("B", 2), ("G", 2)])
            rd = build_standard(series, rank, rng.choice((SIMPLY_CONNECTED, ADJOINT)), 0)
            d = rd.rank
            r = rng.randint(1, d)
            while True:
                emb = mat([[rng.randint(-3, 3) for _ in range(r)] for _ in range(d)])
                if snf(emb).rank == r:
                    break
            restricted = restrict_coroots(rd, emb)
            rows = list(restricted.entries)
            # extra integer combinations of the restricted coroots
            for _ in range(rng.randint(0, 2)):
                combo = [0] * r
                for row in rows[: restricted.rows]:
                    c = rng.randint(-2, 2)
                    combo = [x + c * y for x, y in zip(combo, row)]
                rows.append(tuple(combo))
            sd = SphericalDatum(rd, emb, mat([list(x) for x in rows], cols=r), 1)
            outcomes = validate(sd)
            assert all(o.level == PASS for o in outcomes)
            sat, _ = color_saturation(sd)
            coroots = rd.coroot_matrix()
            for v in sat.finite_direction_basis + sat.divisible_subspace_basis:
                ambient = [
                    sum(Fraction(emb[i][j]) * v[j] for j in range(r))
                    for i in range(d)
                ]
                for i in range(coroots.rows):
                    val = sum(
                        Fraction(coroots[i][j]) * ambient[j] for j in range(d)
                    )
                    assert val.denominator == 1

    def test_sandwich_on_catalog(self):
        # weight lattice inside ambient saturation inside color saturation
        for name, sd in catalog_data():
            sat, sat_q = color_saturation(sd)
            amb_sat, amb_q = ambient_color_saturation(sd)
            assert amb_q.divisible_rank == 0, name
            for i in range(sd.rank):
                e = tuple(int(i == j) for j in range(sd.rank))
                assert contains(amb_sat, e), name
            for v in amb_sat.finite_direction_basis:
                assert contains(sat, v), name
            # each invariant factor of the subgroup divides a slot of the
            # big quotient, profinite slots absorbing anything
            small = sorted(amb_q.invariant_factors, reverse=True)
            big = sorted(sat_q.invariant_factors, reverse=True)
            capacity = [0] * sat_q.divisible_rank + big  # 0 marks "divisible"
            assert len(small) <= len(capacity), name
            for s, c in zip(small, capacity):
                assert c == 0 or c % s == 0, name


class TestLatticeCrossCheck:
    def test_ambient_quotient_matches_intersection_route(self):
        # for full-rank color data the ambient saturation can also be
        # computed as a lattice intersection followed by a finite quotient
        for name, sd in catalog_data():
            sat, sat_q = color_saturation(sd)
            if sat_q.divisible_rank:
                continue
            d = sd.ambient_rank
            emb_cols = [sd.lattice_embedding.column(j) for j in range(sd.rank)]
            to_ambient = lambda v: tuple(
                sum(Fraction(col[i]) * x for col, x in zip(emb_cols, v))
                for i in range(d)
            )
            saturation_ambient = Lattice(
                d, tuple(to_ambient(v) for v in sat.finite_direction_basis)
            )
            character_lattice = Lattice(
                d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
            )
            weights = Lattice(d, tuple(tuple(c) for c in emb_cols))
            via_intersection = quotient(
                intersect(saturation_ambient, character_lattice), weights
            )
            assert via_intersection == ambient_saturation_quotient(sd), name


class TestIntermediateLatticeInvariance:
    def test_replacing_weights_by_the_saturation(self):
        # enlarging the weight lattice to the full saturation and
        # re-expressing everything leaves the computed set unchanged
        for name, sd in catalog_data():
            sat, sat_q = color_saturation(sd)
            if sat_q.divisible_rank or sat_q.is_trivial:
                continue
            r = sd.rank
            gamma = list(sat.finite_direction_basis)
            # new color values: old functionals on the new basis
            rows = []
            for i in range(sd.colors.rows):
                row = []
                for g in gamma:
                    val = sum(Fraction(sd.colors[i][j]) * g[j] for j in range(r))
                    assert val.denominator == 1
                    row.append(int(val))
                rows.append(row)
            sat2, _ = dual_saturation(r, mat(rows, cols=r))

            def transform(v):
                out = [Fraction(0)] * r
                for coeff, g in zip(v, gamma):
                    for i in range(r):
                        out[i] += coeff * g[i]
                return tuple(out)

            transformed = SaturatedSet(
                tuple(transform(v) for v in sat2.finite_direction_basis),
                tuple(transform(v) for v in sat2.divisible_subspace_basis),
            )
            assert same_set(transformed, sat), name
