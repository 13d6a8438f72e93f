"""The one route of full_report, Hermite bases, against Smith forms.

``full_report`` reads its quotients and the coroot-span check off the
Hermite basis of ``L(F) + d Z^r``, the colors' row lattice plus a
multiple of ``Z^r``, with an exact row-space test below full column
rank.  These tests compare its verdicts with the reference route, one
``solve_in_lattice`` per restricted coroot, hold its quotients to the
Smith forms of F and of [F; E], pin the kernel calls a report costs,
and check metamorphic properties: the quotients, pi0, pi1 and the
coroot-span verdict depend only on the weight lattice inside the
character lattice and on the integer row span of the colors, so they
must not change under a unimodular change of weight basis, a
permutation of the colors, a duplicated color, or an appended integer
combination of colors.  Random data come from seeded ``random``
draws."""

import dataclasses
import itertools
import json
import math
import random
import re
import sys
from collections import Counter

import pytest

from spherical_pi import cli, intmat, spherical
from spherical_pi.catalog import CHARACTERISTICS, catalog, catalog_entry, run_entry
from spherical_pi.documents import ParseError, parse
from spherical_pi.intmat import IntMatrix, snf, stack_rows
from spherical_pi.lattices import FinGenAbQuotient, smith_quotient
from spherical_pi.root_data import (
    ADJOINT,
    SIMPLY_CONNECTED,
    build_standard,
    cartan_matrix,
    restrict_coroots,
)
from spherical_pi.spherical import (
    PASS,
    WARN,
    SphericalDatum,
    ambient_color_saturation,
    ambient_saturation_quotient,
    full_report,
    pi0_p_prime,
    pi1_p_prime,
    validate,
)
from spherical_pi.verify import (
    Lattice,
    det,
    product,
    quotient,
    solve_in_lattice,
    torus,
)

SMALL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2))


def group_case(series, n, factor=1):
    """Adjoint G x G / diag; factor 2 gives the exploratory twin with colors 2C."""
    g = build_standard(series, n, ADJOINT)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    emb = IntMatrix.from_rows(unit + [[-x for x in row] for row in unit])
    colors = IntMatrix.from_rows(
        [[factor * x for x in row] for row in cartan_matrix(series, n).entries]
    )
    return SphericalDatum(product(g, g), emb, colors, 1, label=f"{series}{n}x{factor}")


def random_datum(rng):
    """Small datum with 1-4 colors, which often miss some restricted coroots."""
    series, n = rng.choice(SMALL_TYPES)
    isogeny = rng.choice((ADJOINT, SIMPLY_CONNECTED))
    rd = build_standard(series, n, isogeny, rng.randint(0, 1))
    r = rng.randint(1, rd.rank)
    while True:
        emb = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rd.rank)]
        )
        if snf(emb).rank == r:
            break
    colors = IntMatrix.from_rows(
        [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(1, 4))],
        cols=r,
    )
    return SphericalDatum(rd, emb, colors, rng.choice((1, 2, 3, 5)))


def reference_outside(sd):
    """Coroots outside the colors' row span, one lattice solve per coroot."""
    restricted = restrict_coroots(sd.root_datum, sd.lattice_embedding)
    colors_t = sd.colors.transpose()
    return [
        i
        for i in range(restricted.rows)
        if solve_in_lattice(colors_t, restricted[i]) is None
    ]


def flagged(outcomes):
    (span,) = [o for o in outcomes if o.check == "coroot-span"]
    if span.level == PASS:
        return []
    assert span.level == WARN
    found = re.search(r"coroot\(s\) ([\d, ]+) lie outside", span.message)
    return [int(x) for x in found.group(1).split(", ")]


def a1_with_central_torus(colors):
    """A1, simply connected, times a 1-dimensional central torus, with the
    character lattice as the weight lattice; coroot 0 restricts to (1, 0)."""
    return SphericalDatum(
        build_standard("A", 1, SIMPLY_CONNECTED, 1),
        IntMatrix.from_rows([[1, 0], [0, 1]]),
        IntMatrix.from_rows(colors),
        1,
    )


class TestSpanCheckAgainstReference:
    def test_random_data(self):
        rng = random.Random(20240401)
        partial = 0
        for _ in range(300):
            sd = random_datum(rng)
            want = reference_outside(sd)
            assert flagged(validate(sd)) == want
            assert flagged(full_report(sd).validation) == want
            partial += 0 < len(want) < sd.root_datum.semisimple_rank
        # the sample must flag some coroots of a datum but not all of them
        assert partial >= 20

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_a_n_twins(self, n):
        twin = group_case("A", n, factor=2)
        want = reference_outside(twin)
        assert want
        assert flagged(validate(twin)) == want
        assert flagged(full_report(twin).validation) == want
        assert flagged(full_report(group_case("A", n)).validation) == []

    def test_deficient_colors_outside_the_row_space(self, monkeypatch):
        # F = [[0, 1]] and [F; E] have minors 1, so L(F) + d Z^2 is Z^2 and
        # holds (1, 0): only the row-space test flags the coroot
        sd = a1_with_central_torus([[0, 1]])
        assert reference_outside(sd) == flagged(validate(sd)) == [0]
        monkeypatch.setattr(spherical, "_outside_span", lambda elimination, probes: [])
        assert flagged(validate(a1_with_central_torus([[0, 1]]))) == []

    def test_deficient_colors_in_the_row_space_outside_the_lattice(self):
        # (1, 0) is half of the color (2, 0): in its row space, not in L(F)
        sd = a1_with_central_torus([[2, 0]])
        elimination = intmat._echelon(sd.colors.entries, 2)[2]
        assert intmat._outside_span(elimination, ((1, 0),)) == []
        assert reference_outside(sd) == flagged(validate(sd)) == [0]

    def test_deficient_colors_holding_the_coroot(self):
        sd = a1_with_central_torus([[1, 0]])
        assert reference_outside(sd) == flagged(validate(sd)) == []
        report = full_report(sd)
        assert report.saturation_quotient == FinGenAbQuotient(1)
        assert report.ambient_saturation_quotient == FinGenAbQuotient(0)


MOD_P = "_rank_mod"
DET = "_echelon"
HNF = "_hermite_mod"
REMAINDERS = "_remainders"
SPAN = "_outside_span"


def record_snf(monkeypatch, requests=None):
    """List that collects the shape of every matrix handed to snf, from any module.

    Every loaded ``spherical_pi`` module that binds ``snf`` is patched, so
    a new caller cannot escape the count.  ``intmat._rank_mod``,
    ``intmat._echelon``, ``intmat._hermite_mod``, ``intmat._remainders``
    and ``intmat._outside_span`` are patched alike, and their calls go to
    the same list as ``(MOD_P, rows, cols)``, ``(DET, rows, cols)``,
    ``(HNF, rows, cols)``, ``(REMAINDERS, rows)`` and ``(SPAN, probes)``.

    ``requests``, when given, collects the certificate keywords
    ``(with_u, with_v)`` of every call to snf.
    """
    calls = []
    real = intmat.snf

    def counting(m, *, with_u=True, with_v=True):
        calls.append((m.rows, m.cols))
        if requests is not None:
            requests.append((with_u, with_v))
        return real(m, with_u=with_u, with_v=with_v)

    def counting_mod(m, real=intmat._rank_mod):
        calls.append((MOD_P, m.rows, m.cols))
        return real(m)

    def counting_det(rows, n, real=intmat._echelon):
        calls.append((DET, len(rows), n))
        return real(rows, n)

    def counting_hnf(rows, n, d, real=intmat._hermite_mod):
        calls.append((HNF, len(rows), n))
        return real(rows, n, d)

    def counting_remainders(basis, rows, real=intmat._remainders):
        calls.append((REMAINDERS, len(rows)))
        return real(basis, rows)

    def counting_span(elimination, probes, real=intmat._outside_span):
        calls.append((SPAN, len(probes)))
        return real(elimination, probes)

    patches = {
        "snf": (real, counting),
        "_rank_mod": (intmat._rank_mod, counting_mod),
        "_echelon": (intmat._echelon, counting_det),
        "_hermite_mod": (intmat._hermite_mod, counting_hnf),
        "_remainders": (intmat._remainders, counting_remainders),
        "_outside_span": (intmat._outside_span, counting_span),
    }
    for name, module in list(sys.modules.items()):
        if name == "spherical_pi" or name.startswith("spherical_pi."):
            for attr, (kernel, counter) in patches.items():
                if getattr(module, attr, None) is kernel:
                    monkeypatch.setattr(module, attr, counter)
    return calls


def snf_shapes(monkeypatch, fn, sd):
    """Shapes of the matrices that fn(sd) hands to snf."""
    calls = record_snf(monkeypatch)
    fn(sd)
    return calls


def hermite_route(n, kept):
    """The kernel calls of the core of a rank-n group case ``group_case``.

    The determinant of a minor of the n x n colors, their Hermite basis
    mod it, the 2n rows of the embedding [I; -I] and the 2n restricted
    coroots divided down that basis in one call, the basis's block on its
    ``kept`` pivots above 1 stacked on the embedding's remainders on
    those columns, mod its own determinant, and the Smith forms of the
    two bases on their pivots above 1: ``kept`` of them, and none for the
    ambient basis, which the embedding makes I.
    """
    return [
        (DET, n, n),
        (HNF, n, n),
        (REMAINDERS, 4 * n),
        (HNF, kept + 2 * n, kept),
        (kept, kept),
        (0, 0),
    ]


class TestSnfBudget:
    @pytest.mark.parametrize("series, n", [("A", 6), ("D", 5), ("A", 1)])
    def test_group_case_report_costs_two(self, monkeypatch, series, n):
        # the colors' Hermite basis has one pivot above 1 (n + 1 for A_n, 4
        # for D_5), so the ambient basis is one column wide; the embedding
        # [I; -I] makes it I, which leaves the second form no pivot
        shapes = snf_shapes(monkeypatch, full_report, group_case(series, n))
        assert shapes == hermite_route(n, 1)

    @pytest.mark.parametrize("series, n", [("A", 6), ("D", 5)])
    def test_reports_at_every_p_share_two(self, monkeypatch, series, n):
        # the datum and its copies at each p, a copy of a copy among them,
        # reported in every order of p, cost the kernels of one report
        calls = record_snf(monkeypatch)
        for order in itertools.permutations(CHARACTERISTICS):
            sd = group_case(series, n)
            calls.clear()
            current = sd
            for p in order:
                current = current.with_char_exponent(p)
                assert full_report(current).datum.char_exponent == p
            full_report(sd)
            assert calls == hermite_route(n, 1)

    def test_a_replaced_or_rebuilt_datum_pays_its_own_two(self, monkeypatch):
        sd = group_case("A", 3)
        twin = group_case("A", 3, factor=2)
        others = (
            dataclasses.replace(sd, colors=twin.colors),
            dataclasses.replace(sd),
            SphericalDatum(sd.root_datum, sd.lattice_embedding, sd.colors, 1, sd.label),
        )
        calls = record_snf(monkeypatch)
        full_report(twin)
        twin_shapes = list(calls)
        calls.clear()
        full_report(sd)
        own_shapes = list(calls)
        assert own_shapes == hermite_route(3, 1)
        # every pivot of 2C is above 1
        assert twin_shapes == hermite_route(3, 3)
        for other, shapes in zip(others, (twin_shapes, own_shapes, own_shapes)):
            calls.clear()
            full_report(other.with_char_exponent(2))
            full_report(other)
            assert calls == shapes
        calls.clear()
        assert full_report(sd).validation == full_report(others[2]).validation
        assert flagged(full_report(others[0]).validation) == list(range(6))
        assert calls == []

    def test_torus_report_costs_two(self, monkeypatch):
        emb = IntMatrix.from_rows([[1, 2, 0], [0, 3, 1], [1, 1, 1]])
        colors = IntMatrix.from_rows([[2, 0, 4], [6, 3, 0]])
        sd = SphericalDatum(torus(3), emb, colors, 3)
        # fewer colors than columns: rank 2 and a minor 6, raised to 12 by
        # det E = 4.  The basis of L(F) + 12 Z^3 has pivots 2, 3 and 12, and
        # the embedding makes the ambient basis I
        assert snf_shapes(monkeypatch, full_report, sd) == [
            (DET, 2, 3),
            (DET, 3, 3),
            (HNF, 2, 3),
            (REMAINDERS, 3),
            (HNF, 6, 3),
            (3, 3),
            (0, 0),
        ]

    @pytest.mark.parametrize("colors", [[[1, 0]], [[0, 1]], [[2, 0]]])
    def test_deficient_colors_carry_the_coroots_through_one_elimination(
        self, monkeypatch, colors
    ):
        # the coroot is divided down the basis with the two rows of the
        # embedding and takes the steps of the elimination that found the
        # rank of F, whether it passes the check or fails it.  The basis of L(F) + d Z^2 is I for d = 1, and 2 I
        # for [[2, 0]], where d = 2; the ambient basis is as wide as its
        # pivots above 1
        kept = 2 if colors == [[2, 0]] else 0
        sd = a1_with_central_torus(colors)
        calls = snf_shapes(monkeypatch, full_report, sd)
        kernels = [c for c in calls if isinstance(c[0], str)]
        assert kernels == [
            (DET, 1, 2),
            (DET, 2, 2),
            (HNF, 1, 2),
            (REMAINDERS, 3),
            (HNF, kept + 2, kept),
            (SPAN, 1),
        ]

    @pytest.mark.parametrize("series, n", [("A", 6), ("D", 5)])
    def test_failing_deficient_group_case_eliminates_the_colors_once(
        self, monkeypatch, series, n
    ):
        # n - 1 of the n Cartan rows as colors leave coroots outside their
        # row space; none of the 2n coroots takes an elimination of its own.
        # The basis of L(F) + d Z^n has one pivot above 1 (6 for A6, 5 for
        # D5), so the ambient basis is one column wide
        sd = group_case(series, n)
        sd = dataclasses.replace(
            sd, colors=IntMatrix.from_rows(sd.colors.entries[: n - 1])
        )
        want = reference_outside(sd)
        assert want
        calls = record_snf(monkeypatch)
        assert flagged(full_report(sd).validation) == want
        kernels = [c for c in calls if isinstance(c[0], str)]
        assert kernels == [
            (DET, n - 1, n),
            (DET, 2 * n, n),
            (HNF, n - 1, n),
            (REMAINDERS, 4 * n),
            (HNF, 1 + 2 * n, 1),
            (SPAN, 2 * n),
        ]

    @pytest.mark.parametrize("rows", [6, 5])
    def test_the_coroots_are_restricted_by_one_product(self, monkeypatch, rows):
        # A6 with all six Cartan rows as colors, or five: both readers of
        # the check take the rows of the one product C @ E
        sd = group_case("A", 6)
        sd = dataclasses.replace(sd, colors=IntMatrix.from_rows(sd.colors.entries[:rows]))
        coroots = sd.root_datum.coroot_matrix()
        real = IntMatrix.__matmul__
        products = []

        def counting(left, right):
            if left == coroots:
                products.append((right.rows, right.cols))
            return real(left, right)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        full_report(sd)
        assert products == [(12, 6)]

    def test_the_ambient_basis_is_as_wide_as_the_pivots_above_1(self, monkeypatch):
        # the second Hermite basis of a report is taken on the columns where
        # the colors' basis has a pivot above 1, from that basis's block
        # there and the rows of the embedding
        data = [sd for _, _, sd in ambient_draws()][::3]
        data += [group_case(s, n, f) for s, n in (("A", 6), ("D", 5)) for f in (1, 2)]
        widths = [kept_width(sd) for sd in data]
        calls = record_snf(monkeypatch)
        for sd, width in zip(data, widths):
            calls.clear()
            full_report(sd)
            _, ambient_call = [c for c in calls if c[0] == HNF]
            assert ambient_call == (HNF, width + sd.ambient_rank, width), sd.label
        assert {0, 1, 5, 6} <= set(widths)

    def test_every_entry_point_reads_one_core(self, monkeypatch):
        # the public entry points, called in any order on a datum and its
        # copies at other p, cost the kernels of one report between them
        fns = (
            pi0_p_prime,
            pi1_p_prime,
            ambient_saturation_quotient,
            validate,
            full_report,
        )
        calls = record_snf(monkeypatch)
        for order in itertools.permutations(fns):
            sd = group_case("A", 6)
            calls.clear()
            for fn, p in zip(order, itertools.cycle(CHARACTERISTICS)):
                fn(sd.with_char_exponent(p))
            assert calls == hermite_route(6, 1), [fn.__name__ for fn in order]

    def test_validate_costs_one(self, monkeypatch):
        # one core, which a report then reads without a further kernel call
        twin = group_case("A", 4, factor=2)
        calls = record_snf(monkeypatch)
        outcomes = validate(twin)
        assert calls == hermite_route(4, 4)
        calls.clear()
        assert full_report(twin).validation == outcomes
        assert calls == []

    def test_parse_of_group_case_costs_no_snf(self, monkeypatch):
        # the pairing matrix is of finite type, so roots and coroots are
        # independent without a rank check, and the embedding has full rank
        # mod P
        doc = catalog_entry("group_case_A2_adjoint").document
        assert snf_shapes(monkeypatch, parse, doc) == [(MOD_P, 4, 2)]

    def test_parse_of_an_affine_pairing_takes_no_rank(self, monkeypatch):
        # the pairing [[2, -2], [-2, 2]] is singular although both families
        # are independent; the classification rejects it before any rank
        # is taken
        doc = json.dumps(
            {
                "label": "affine pairing",
                "p": 1,
                "root_datum": {
                    "explicit": {
                        "rank": 3,
                        "simple_roots": [[1, 0, 0], [0, 1, 0]],
                        "simple_coroots": [[2, -2, 0], [-2, 2, 1]],
                    }
                },
                "lattice": [[0, 0, 1]],
                "colors": [[1]],
            }
        )
        calls = record_snf(monkeypatch)
        with pytest.raises(ParseError, match="simple roots 0, 1 is not of finite type"):
            parse(doc)
        assert calls == []

    def test_catalog_run_costs_parse_plus_two_per_p(self, monkeypatch):
        entry = catalog_entry("group_case_A2_adjoint")
        calls = snf_shapes(monkeypatch, run_entry, entry)
        assert calls == [(MOD_P, 4, 2)] + hermite_route(2, 1)

    def test_compute_strict_costs_two_after_parse(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(catalog_entry("group_case_A2_adjoint").document)
        calls = record_snf(monkeypatch)
        real_parse = cli.parse

        def parse_then_count(text):
            sd = real_parse(text)
            calls.clear()
            return sd

        monkeypatch.setattr(cli, "parse", parse_then_count)
        assert cli.main(["compute", str(path), "--strict"]) == 0
        assert calls == hermite_route(2, 1)


NONE = (False, False)


class TestCertificateRequests:
    """Each internal Smith form asks only for the certificates its caller reads."""

    def requests(self, monkeypatch, fn, arg):
        requests = []
        record_snf(monkeypatch, requests)
        fn(arg)
        return requests

    def test_report_asks_for_no_certificate(self, monkeypatch):
        sd = group_case("A", 3)
        assert self.requests(monkeypatch, full_report, sd) == [NONE, NONE]

    def test_validate_asks_for_no_certificate(self, monkeypatch):
        twin = group_case("A", 4, factor=2)
        assert self.requests(monkeypatch, validate, twin) == [NONE, NONE]

    @pytest.mark.parametrize("fn", [full_report, validate])
    def test_deficient_colors_ask_for_no_certificate(self, monkeypatch, fn):
        emb = IntMatrix.from_rows([[1, 2, 0], [0, 3, 1], [1, 1, 1]])
        colors = IntMatrix.from_rows([[2, 0, 4], [6, 3, 0]])
        sd = SphericalDatum(torus(3), emb, colors, 1)
        assert self.requests(monkeypatch, fn, sd) == [NONE, NONE]

    def test_pi0_asks_for_no_certificate(self, monkeypatch):
        sd = group_case("A", 3)
        assert self.requests(monkeypatch, pi0_p_prime, sd) == [NONE, NONE]

    def test_pi1_asks_for_no_certificate(self, monkeypatch):
        sd = group_case("A", 3)
        assert self.requests(monkeypatch, pi1_p_prime, sd) == [NONE, NONE]

    def test_parse_asks_for_no_certificate(self, monkeypatch):
        doc = catalog_entry("group_case_A2_adjoint").document
        assert self.requests(monkeypatch, parse, doc) == []

    def test_cli_oracle_asks_for_no_certificate(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(catalog_entry("group_case_A2_adjoint").document)
        requests = []
        record_snf(monkeypatch, requests)
        assert cli.main(["oracle", str(path), "--torsion", "3"]) == 0
        # parse asks for none, then the report's core for its color quotient
        assert requests == [NONE, NONE]

    def test_catalog_run(self, monkeypatch):
        entry = catalog_entry("group_case_A2_adjoint")
        assert self.requests(monkeypatch, run_entry, entry) == [NONE, NONE]


AMBIENT_KINDS = ("fewer", "square", "more", "none", "product", "repeats", "unimodular")


def ambient_case(rng, kind, r):
    """Torus datum of rank r whose colors have the shape or defect ``kind`` names.

    ``fewer``, ``square`` and ``more`` draw m < r, m = r and m > r dense
    colors, ``none`` has no colors, ``product`` builds rank-deficient
    colors as a product through a narrower middle, ``repeats`` mixes zero
    and repeated rows into them, and ``unimodular`` colors have every
    invariant factor 1.  A fifth of the draws have entries of about 200
    bits in the colors and the embedding.  ``fewer`` and ``product`` raise
    r to at least 1.
    """
    r = max(r, int(kind in ("fewer", "product")))
    bits = rng.choice((3, 3, 3, 3, 200))

    def draw(rows, cols, bound=2**bits):
        return IntMatrix.from_rows(
            [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )

    if kind == "fewer":
        colors = draw(rng.randint(1, r) - 1, r)
    elif kind == "square":
        colors = draw(r, r)
    elif kind == "more":
        colors = draw(rng.randint(r + 1, 12), r)
    elif kind == "none":
        colors = draw(0, r)
    elif kind == "product":
        middle = rng.randint(0, r - 1)
        colors = draw(rng.randint(0, 12), middle, 4) @ draw(middle, r)
    elif kind == "repeats":
        rows = list(draw(rng.randint(0, 6), r).entries)
        for _ in range(rng.randint(1, 6)):
            extra = rng.choice(rows) if rows and rng.random() < 0.5 else (0,) * r
            rows.insert(rng.randrange(len(rows) + 1), extra)
        colors = IntMatrix.from_rows(rows[:12], cols=r)
    else:
        colors = random_unimodular(rng, r)
    d = r + rng.randint(0, 2)
    while True:
        emb = draw(d, r)
        if snf(emb, with_u=False, with_v=False).rank == r:
            break
    # a right factor diag(c) W shared by F and E puts Z/c_j into the quotient
    scale = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(r)]
    w = random_unimodular(rng, r).entries
    frame = IntMatrix.from_rows(
        [[c * x for x in row] for c, row in zip(scale, w)], cols=r
    )
    if kind != "unimodular":
        colors = colors @ frame
    return SphericalDatum(torus(d), emb @ frame, colors, 1, label=f"{kind} r{r}")


def direct_ambient_quotient(sd):
    """The reference: the Smith form of the stack [F; E] itself."""
    stacked = stack_rows(sd.colors, sd.lattice_embedding)
    return smith_quotient(snf(stacked, with_u=False, with_v=False))


def lattice_ambient_quotient(sd):
    """The reference through verify.quotient of the saturation's basis over Z^r."""
    sat, _ = ambient_color_saturation(sd)
    unit = tuple(tuple(int(i == j) for j in range(sd.rank)) for i in range(sd.rank))
    return quotient(
        Lattice(sd.rank, sat.finite_direction_basis), Lattice(sd.rank, unit)
    )


def colors_basis(sd):
    """The Hermite basis H of the core and its modulus d, as ``_core`` takes them."""
    colors, embedding, r = sd.colors.entries, sd.lattice_embedding.entries, sd.rank
    k, d, _ = intmat._echelon(colors, r)
    if k < r:
        d = math.lcm(d, intmat._echelon(embedding, r)[1])
    return intmat._hermite_mod(colors, r, d), d


def kept_width(sd):
    """How many pivots of the colors' basis H are above 1: the width K of
    the ambient basis."""
    basis, _ = colors_basis(sd)
    return sum(row[j] > 1 for j, row in enumerate(basis))


def full_width_ambient_quotient(sd):
    """The reference: the Hermite basis of [H; E] on all r columns, mod the
    gcd of det H and d, read off on its pivots above 1."""
    basis, d = colors_basis(sd)
    r = sd.rank
    index = math.prod(row[j] for j, row in enumerate(basis))
    rows = basis + list(sd.lattice_embedding.entries)
    full = intmat._hermite_mod(rows, r, math.gcd(index, d))
    return spherical._hermite_quotient(spherical._above_one(full)[1])


def ambient_draws():
    """The 315 seeded torus data of :class:`TestAmbientFromColors`."""
    rng = random.Random("ambient-from-colors")
    for draw in range(315):
        kind = AMBIENT_KINDS[draw % len(AMBIENT_KINDS)]
        yield draw, kind, ambient_case(rng, kind, draw // len(AMBIENT_KINDS) % 9)


class TestAmbientFromColors:
    """The ambient quotient of the core against [F; E] and the saturation."""

    def test_random_data_match_both_references(self):
        seen = {kind: set() for kind in AMBIENT_KINDS}
        widths = Counter()
        nontrivial = 0
        for draw, kind, sd in ambient_draws():
            got = ambient_saturation_quotient(sd)
            assert got == direct_ambient_quotient(sd), (draw, sd.label)
            assert got == lattice_ambient_quotient(sd), (draw, sd.label)
            seen[kind].add((sd.rank, sd.color_count))
            nontrivial += not got.is_trivial
            if sd.ambient_rank > sd.rank > 0:
                width = kept_width(sd)
                share = "none" if width == 0 else "all" if width == sd.rank else "some"
                widths[share] += 1
        ranks = {r for shapes in seen.values() for r, _ in shapes}
        counts = {m for shapes in seen.values() for _, m in shapes}
        assert ranks == set(range(9)) and counts == set(range(13))
        assert all(len(shapes) >= 8 for shapes in seen.values())
        assert nontrivial >= 150
        # the ambient basis is taken on no column, on some and on all of
        # them, with embeddings of more rows than columns
        assert min(widths["none"], widths["some"], widths["all"]) >= 20, widths

    def test_the_kept_columns_match_the_full_width_route(self):
        # the random data, every catalog entry and A/D group cases with
        # their 2C twins
        data = [sd for _, _, sd in ambient_draws()]
        data += [parse(entry.document) for entry in catalog()]
        data += [
            group_case(series, n, factor)
            for series, ranks in (("A", range(1, 9)), ("D", range(4, 9)))
            for n in ranks
            for factor in (1, 2)
        ]
        for sd in data:
            want = full_width_ambient_quotient(sd)
            assert ambient_saturation_quotient(sd) == want, sd.label

    def test_kernel_directions_carry_the_embedding(self):
        # no colors: the quotient is that of E alone, all of it from the
        # kernel columns
        emb = IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]])
        sd = SphericalDatum(torus(3), emb, IntMatrix.from_rows([], cols=2), 1)
        assert ambient_saturation_quotient(sd) == direct_ambient_quotient(sd)
        assert ambient_saturation_quotient(sd).invariant_factors == (2, 6)


class TestHermiteRouteAgainstSmith:
    """The report read off Hermite bases against the Smith forms of F and [F; E]."""

    def test_random_data(self):
        rng = random.Random("hermite-route")
        classes = Counter()
        for draw in range(280):
            if draw % 2:
                kind = AMBIENT_KINDS[draw // 2 % len(AMBIENT_KINDS)]
                sd = ambient_case(rng, kind, draw % 9)
            else:
                sd = random_datum(rng)
            report = full_report(sd)
            assert report.saturation_quotient == smith_quotient(
                snf(sd.colors, with_u=False, with_v=False)
            ), draw
            want = direct_ambient_quotient(sd)
            assert report.ambient_saturation_quotient == want, draw
            assert flagged(report.validation) == reference_outside(sd), draw
            full = intmat._echelon(sd.colors.entries, sd.rank)[0] == sd.rank
            classes[full, bool(flagged(report.validation))] += 1
        # colors of full rank and deficient ones, with and without a failed
        # span check
        assert classes[True, False] >= 100 and classes[True, True] >= 30
        assert classes[False, False] >= 50 and classes[False, True] >= 25

    @pytest.mark.parametrize("series, n", [("A", 8), ("B", 4), ("D", 6), ("E", 7)])
    def test_group_case_twins(self, series, n):
        # colors 2C: every pivot of the basis is above 1, and the coroots
        # that it leaves out are named as the reference names them
        twin = group_case(series, n, factor=2)
        assert intmat._echelon(twin.colors.entries, n)[:2] == (
            n,
            2**n * abs(det(cartan_matrix(series, n))),
        )
        assert flagged(full_report(twin).validation) == reference_outside(twin)


def random_unimodular(rng, n):
    """Product of random elementary integer column operations."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        q = rng.choice((-2, -1, 1, 2))
        for row in w:
            if kind == 0 and i != j:
                row[i] += q * row[j]
            elif kind == 1:
                row[i], row[j] = row[j], row[i]
            elif kind == 2 and i == j:
                row[i] = -row[i]
    return IntMatrix.from_rows(w, cols=n)


def with_colors(sd, rows):
    return SphericalDatum(
        sd.root_datum,
        sd.lattice_embedding,
        IntMatrix.from_rows(rows, cols=sd.rank),
        sd.char_exponent,
    )


def change_weight_basis(sd, rng):
    w = random_unimodular(rng, sd.rank)
    assert abs(det(w)) == 1
    return SphericalDatum(
        sd.root_datum, sd.lattice_embedding @ w, sd.colors @ w, sd.char_exponent
    )


def permute_colors(sd, rng):
    rows = list(sd.colors.entries)
    rng.shuffle(rows)
    return with_colors(sd, rows)


def duplicate_color(sd, rng):
    rows = list(sd.colors.entries)
    rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
    return with_colors(sd, rows)


def append_combination(sd, rng):
    coeffs = [rng.randint(-3, 3) for _ in range(sd.colors.rows)]
    combo = [
        sum(c * row[j] for c, row in zip(coeffs, sd.colors.entries))
        for j in range(sd.rank)
    ]
    return with_colors(sd, list(sd.colors.entries) + [combo])


def invariants(sd):
    report = full_report(sd)
    return (
        report.saturation_quotient,
        report.ambient_saturation_quotient,
        report.pi0,
        report.pi1,
        report.validation,
    )


@pytest.mark.parametrize(
    "transform",
    [change_weight_basis, permute_colors, duplicate_color, append_combination],
)
def test_report_is_invariant(transform):
    rng = random.Random(f"metamorphic:{transform.__name__}")
    verdicts = set()
    for draw in range(40):
        sd = random_datum(rng)
        before = invariants(sd)
        assert invariants(transform(sd, rng)) == before, f"draw {draw}"
        verdicts.add(before[-1][1].level)
    # both verdicts of the coroot-span check are exercised
    assert PASS in verdicts and len(verdicts) == 2
