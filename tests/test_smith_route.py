"""The two-Smith-form route of full_report.

``full_report`` reads the coroot-span check off the Smith form of the
colors.  These tests compare its verdicts with the reference route, one
``solve_in_lattice`` per restricted coroot, pin the number of Smith
forms a report costs, and check metamorphic properties: the quotients,
pi0, pi1 and the coroot-span verdict depend only on the weight lattice
inside the character lattice and on the integer row span of the colors,
so they must not change under a unimodular change of weight basis, a
permutation of the colors, a duplicated color, or an appended integer
combination of colors.  Random data come from seeded ``random`` draws.
"""

import random
import re
import sys

import pytest

from spherical_pi import cli, intmat
from spherical_pi.catalog import catalog_entry, run_entry
from spherical_pi.documents import parse
from spherical_pi.intmat import IntMatrix, snf
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
    full_report,
    pi0_p_prime,
    pi1_p_prime,
    validate,
)
from spherical_pi.verify import det, product, solve_in_lattice, torus

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


def record_snf(monkeypatch, requests=None):
    """List that collects the shape of every matrix handed to snf, from any module.

    Every loaded ``spherical_pi`` module that binds ``snf`` is patched, so
    a new caller cannot escape the count.

    ``requests``, when given, collects the certificate keywords
    ``(with_u, with_v)`` of every call.
    """
    calls = []
    real = intmat.snf

    def counting(m, *, with_u=True, with_v=True):
        calls.append((m.rows, m.cols))
        if requests is not None:
            requests.append((with_u, with_v))
        return real(m, with_u=with_u, with_v=with_v)

    for name, module in list(sys.modules.items()):
        in_package = name == "spherical_pi" or name.startswith("spherical_pi.")
        if in_package and getattr(module, "snf", None) is real:
            monkeypatch.setattr(module, "snf", counting)
    return calls


def snf_shapes(monkeypatch, fn, sd):
    """Shapes of the matrices that fn(sd) hands to snf."""
    calls = record_snf(monkeypatch)
    fn(sd)
    return calls


class TestSnfBudget:
    @pytest.mark.parametrize("series, n", [("A", 6), ("D", 5), ("A", 1)])
    def test_group_case_report_costs_two(self, monkeypatch, series, n):
        shapes = snf_shapes(monkeypatch, full_report, group_case(series, n))
        assert shapes == [(n, n), (n + 2 * n, n)]

    def test_torus_report_costs_two(self, monkeypatch):
        emb = IntMatrix.from_rows([[1, 2, 0], [0, 3, 1], [1, 1, 1]])
        colors = IntMatrix.from_rows([[2, 0, 4], [6, 3, 0]])
        sd = SphericalDatum(torus(3), emb, colors, 3)
        assert snf_shapes(monkeypatch, full_report, sd) == [(2, 3), (5, 3)]

    def test_validate_costs_one(self, monkeypatch):
        twin = group_case("A", 4, factor=2)
        assert snf_shapes(monkeypatch, validate, twin) == [(4, 4)]

    def test_parse_of_group_case_costs_three(self, monkeypatch):
        # roots and coroots are independent, the embedding has full rank
        doc = catalog_entry("group_case_A2_adjoint").document
        assert snf_shapes(monkeypatch, parse, doc) == [(4, 4), (4, 4), (4, 2)]

    def test_catalog_run_costs_parse_plus_two_per_p(self, monkeypatch):
        entry = catalog_entry("group_case_A2_adjoint")
        calls = snf_shapes(monkeypatch, run_entry, entry)
        assert len(calls) == 3 + 2 == 5

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
        assert calls == [(2, 2), (6, 2)]


V_ONLY = (False, True)
NONE = (False, False)


class TestCertificateRequests:
    """Each internal Smith form asks only for the certificates its caller reads."""

    def requests(self, monkeypatch, fn, arg):
        requests = []
        record_snf(monkeypatch, requests)
        fn(arg)
        return requests

    def test_report_asks_for_v_of_colors_only(self, monkeypatch):
        sd = group_case("A", 3)
        assert self.requests(monkeypatch, full_report, sd) == [V_ONLY, NONE]

    def test_validate_asks_for_v_only(self, monkeypatch):
        twin = group_case("A", 4, factor=2)
        assert self.requests(monkeypatch, validate, twin) == [V_ONLY]

    @pytest.mark.parametrize("fn", [pi0_p_prime, pi1_p_prime])
    def test_pi_asks_for_no_certificate(self, monkeypatch, fn):
        assert self.requests(monkeypatch, fn, group_case("A", 3)) == [NONE]

    def test_parse_asks_for_no_certificate(self, monkeypatch):
        doc = catalog_entry("group_case_A2_adjoint").document
        assert self.requests(monkeypatch, parse, doc) == [NONE] * 3

    def test_cli_oracle_asks_for_no_certificate(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(catalog_entry("group_case_A2_adjoint").document)
        requests = []
        record_snf(monkeypatch, requests)
        assert cli.main(["oracle", str(path), "--torsion", "3"]) == 0
        # parse, then the quotient of the colors
        assert requests == [NONE] * 3 + [NONE]

    def test_catalog_run(self, monkeypatch):
        entry = catalog_entry("group_case_A2_adjoint")
        assert self.requests(monkeypatch, run_entry, entry) == [NONE] * 3 + [
            V_ONLY,
            NONE,
        ]


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
    return IntMatrix.from_rows(w)


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
