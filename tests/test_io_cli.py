"""Document format, report rendering, catalog, and the CLI surface."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from spherical_pi.catalog import (
    CHARACTERISTICS,
    CatalogEntry,
    ExpectedPi,
    catalog,
    catalog_entry,
    run_entry,
)
from spherical_pi import cli, documents
from spherical_pi.cli import main
from spherical_pi.documents import (
    MAX_COLORS,
    MAX_ENTRY_BITS,
    MAX_RANK,
    ParseError,
    format_pi,
    format_quotient,
    parse,
    report_dict,
    serialize_datum,
    serialize_report,
)
from spherical_pi.intmat import IntMatrix
from spherical_pi.lattices import FinGenAbQuotient
from spherical_pi.spherical import PiResult, SphericalDatum, full_report
from spherical_pi.verify import det, torus


def doc_text(**overrides):
    doc = {
        "label": "sample",
        "p": 1,
        "root_datum": {
            "standard": {
                "type": "A",
                "rank": 1,
                "isogeny": "simply-connected",
                "central_torus_rank": 0,
            }
        },
        "lattice": [[4]],
        "colors": [[2]],
    }
    doc.update(overrides)
    return json.dumps(doc)


# each misses more than one key of an object; the first in order is named
MISSING_SEVERAL = (
    {"label": "x"},
    {
        "label": "x",
        "p": 1,
        "root_datum": {"standard": {"type": "A"}},
        "lattice": [],
        "colors": [],
    },
    {
        "label": "x",
        "p": 1,
        "root_datum": {"explicit": {"simple_coroots": []}},
        "lattice": [],
        "colors": [],
    },
)


def explicit_doc(rank, roots, coroots, lattice, colors):
    explicit = {"rank": rank, "simple_roots": roots, "simple_coroots": coroots}
    return doc_text(root_datum={"explicit": explicit}, lattice=lattice, colors=colors)


NOT_FINITE_01 = (
    "'root_datum.explicit': the Dynkin diagram component on simple roots 0, 1 "
    "is not of finite type"
)

def repeat_once(text, old, new):
    """``text`` with its one ``old`` replaced by ``new``; the text with the
    last value alone must parse."""
    assert text.count(old) == 1
    parse(text)
    return text.replace(old, new)


# one bad field each, with the whole message that names it
BAD_FIELDS = {
    "standard-not-object": (
        doc_text(root_datum={"standard": 3}),
        "'root_datum.standard' must be an object",
    ),
    "label-not-str": (doc_text(label=5), "'label' must be a string"),
    "type-not-str": (
        doc_text(
            root_datum={
                "standard": {
                    "type": 1,
                    "rank": 1,
                    "isogeny": "simply-connected",
                    "central_torus_rank": 0,
                }
            }
        ),
        "'root_datum.standard.type' must be a string",
    ),
    "lattice-row-not-list": (doc_text(lattice=[5]), "'lattice[0]' must be a list of integers"),
    "lattice-not-list": (doc_text(lattice=5), "'lattice' must be a list of integer vectors"),
    "pairing-not-2": (
        explicit_doc(1, [[1]], [[3]], [[4]], [[2]]),
        "'root_datum.explicit': <coroot_0, root_0> = 3, expected 2",
    ),
    # pairings that are Cartan matrices of no finite type, with both
    # families independent: hyperbolic [[2, -3], [-3, 2]] and affine
    # [[2, -2], [-2, 2]]; with the colors equal to the coroots, every
    # other check passes
    "hyperbolic-pairing": (
        explicit_doc(
            2, [[1, 0], [0, 1]], [[2, -3], [-3, 2]], [[1, 0], [0, 1]], [[2, -3], [-3, 2]]
        ),
        NOT_FINITE_01,
    ),
    "affine-pairing": (
        explicit_doc(
            3,
            [[1, 0, 0], [0, 1, 0]],
            [[2, -2, 0], [-2, 2, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[2, -2, 0], [-2, 2, 1]],
        ),
        NOT_FINITE_01,
    ),
    "p-even-composite": (
        doc_text(p=4),
        "characteristic exponent must be 1 or a prime, got 4",
    ),
    "explicit-rank-negative": (
        explicit_doc(-1, [], [], [], []),
        "'root_datum.explicit.rank' must be nonnegative, got -1",
    ),
    # a key given twice, where the last value alone would be accepted
    "repeated-top-level-key": (
        repeat_once(doc_text(), '"p": 1,', '"p": 2, "p": 1,'),
        "key 'p' is repeated in 'document'",
    ),
    "repeated-standard-key": (
        repeat_once(doc_text(), '"rank": 1,', '"rank": 2, "rank": 1,'),
        "key 'rank' is repeated in 'root_datum.standard'",
    ),
    "repeated-explicit-key": (
        repeat_once(
            explicit_doc(1, [[1]], [[2]], [[4]], [[2]]),
            '"simple_roots": [[1]]',
            '"simple_roots": [[2]], "simple_roots": [[1]]',
        ),
        "key 'simple_roots' is repeated in 'root_datum.explicit'",
    ),
}


class TestParse:
    def test_catalog_documents_parse(self):
        for entry in catalog():
            sd = parse(entry.document)
            assert sd.label == entry.name

    def test_round_trip_equal_datum(self):
        for entry in catalog():
            first = parse(entry.document)
            second = parse(serialize_datum(first))
            assert first == second, entry.name

    def test_serialization_is_canonical(self):
        sd = parse(catalog_entry("sl2_mod_normalizer").document)
        assert serialize_datum(sd) == serialize_datum(parse(serialize_datum(sd)))

    def test_missing_colors(self):
        doc = json.loads(doc_text())
        del doc["colors"]
        with pytest.raises(ParseError, match="colors"):
            parse(json.dumps(doc))

    def test_first_missing_key_is_named_under_every_hash_seed(self):
        # keys are checked in the documented order, so a document missing
        # several of them gets the same message whatever the string hashes
        script = (
            "from spherical_pi.documents import ParseError, parse\n"
            "for text in "
            + repr([json.dumps(d) for d in MISSING_SEVERAL])
            + ":\n"
            "    try:\n"
            "        parse(text)\n"
            "    except ParseError as exc:\n"
            "        print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(documents.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = set()
        for seed in range(8):
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert outputs == {
            "missing required key 'p' in the document\n"
            "missing required key 'rank' in 'root_datum.standard'\n"
            "missing required key 'rank' in 'root_datum.explicit'\n"
        }

    def test_unknown_top_level_key(self):
        doc = json.loads(doc_text())
        doc["colour"] = []
        with pytest.raises(ParseError, match="colour"):
            parse(json.dumps(doc))

    def test_lattice_vector_wrong_length(self):
        with pytest.raises(ParseError, match=r"lattice\[0\].*length 2, expected 1"):
            parse(doc_text(lattice=[[4, 0]]))

    def test_color_vector_wrong_length(self):
        with pytest.raises(ParseError, match=r"colors\[1\]"):
            parse(doc_text(colors=[[2], [1, 1]]))

    def test_non_integer_entry(self):
        with pytest.raises(ParseError, match=r"lattice\[0\]\[0\]"):
            parse(doc_text(lattice=[[4.5]]))

    def test_boolean_rejected(self):
        with pytest.raises(ParseError, match="p"):
            parse(doc_text(p=True))

    def test_invalid_p(self):
        with pytest.raises(ParseError):
            parse(doc_text(p=6))

    def test_invalid_isogeny(self):
        doc = json.loads(doc_text())
        doc["root_datum"]["standard"]["isogeny"] = "sc"
        with pytest.raises(ParseError, match="isogeny"):
            parse(json.dumps(doc))

    def test_invalid_series(self):
        doc = json.loads(doc_text())
        doc["root_datum"]["standard"]["type"] = "H"
        with pytest.raises(ParseError, match="root_datum.standard"):
            parse(json.dumps(doc))

    def test_root_datum_needs_exactly_one_variant(self):
        doc = json.loads(doc_text())
        doc["root_datum"] = {}
        with pytest.raises(ParseError, match="standard"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("text, message", BAD_FIELDS.values(), ids=BAD_FIELDS)
    def test_a_bad_field_is_named(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match="line"):
            parse("{\n  broken\n}")

    def test_rank_cap(self):
        # an explicit torus with an empty lattice builds nothing rank-sized
        def torus(rank):
            explicit = {"rank": rank, "simple_roots": [], "simple_coroots": []}
            return doc_text(
                root_datum={"explicit": explicit}, lattice=[], colors=[]
            )

        assert parse(torus(MAX_RANK)).root_datum.rank == MAX_RANK
        with pytest.raises(ParseError, match="explicit.rank' is 513, above the cap"):
            parse(torus(MAX_RANK + 1))

    @pytest.mark.parametrize("rank, ctr", [(1, 512), (500, 13), (1, 2_000_000)])
    def test_standard_rank_cap_counts_the_central_torus(self, rank, ctr):
        std = {
            "type": "A",
            "rank": rank,
            "isogeny": "simply-connected",
            "central_torus_rank": ctr,
        }
        with pytest.raises(ParseError, match=f"is {rank + ctr}, above the cap"):
            parse(doc_text(root_datum={"standard": std}))

    @pytest.mark.parametrize("key", ["lattice", "simple_roots", "simple_coroots"])
    def test_vector_lists_are_capped_at_the_rank(self, key):
        # at most rank vectors of Z^rank are independent
        lists = {
            "simple_roots": [[2, 0], [0, 2]],
            "simple_coroots": [[1, 0], [0, 1]],
            "lattice": [[1, 0], [0, 1]],
        }

        def text():
            explicit = {
                "rank": 2,
                "simple_roots": lists["simple_roots"],
                "simple_coroots": lists["simple_coroots"],
            }
            return doc_text(
                root_datum={"explicit": explicit},
                lattice=lists["lattice"],
                colors=[[1, 0], [0, 1]],
            )

        assert parse(text()).root_datum.semisimple_rank == 2
        lists[key] = lists[key] + [[1, 1]]
        with pytest.raises(ParseError, match=f"{key}' has 3 rows, above the cap of 2"):
            parse(text())

    def test_color_cap(self):
        assert parse(doc_text(colors=[[2]] * MAX_COLORS)).color_count == MAX_COLORS
        with pytest.raises(ParseError, match="'colors' has 1025 rows, above the cap"):
            parse(doc_text(colors=[[2]] * (MAX_COLORS + 1)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_entry_bit_cap(self, sign):
        top = sign * (2**MAX_ENTRY_BITS - 1)
        sd = parse(doc_text(lattice=[[top]], colors=[[2], [top]]))
        assert sd.lattice_embedding[0][0] == sd.colors[1][0] == top
        over = sign * 2**MAX_ENTRY_BITS
        with pytest.raises(ParseError, match=r"'lattice\[0\]\[0\]' has 257 bits"):
            parse(doc_text(lattice=[[over]]))
        with pytest.raises(ParseError, match=r"'colors\[1\]\[0\]' has 257 bits"):
            parse(doc_text(colors=[[4], [over]]))

    def test_entry_bit_cap_covers_explicit_roots(self):
        explicit = {"rank": 1, "simple_roots": [[2**MAX_ENTRY_BITS]], "simple_coroots": [[1]]}
        text = doc_text(root_datum={"explicit": explicit})
        with pytest.raises(ParseError, match=r"simple_roots\[0\]\[0\]' has 257 bits"):
            parse(text)

    def test_oversized_integer_literal(self):
        text = doc_text().replace('"colors": [[2]]', f'"colors": [[{"9" * 4301}]]')
        with pytest.raises(ParseError, match="integer literal has more than"):
            parse(text)

    def test_deep_nesting(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse("[" * 100_000 + "]" * 100_000)

    def test_a_dense_full_rank_embedding_parses_in_bounded_time(self):
        # rank 64 with random 256-bit entries took 39 s through the integer
        # Smith form; full rank mod 2**61 - 1 settles it
        rng = random.Random(64)
        top = 2**MAX_ENTRY_BITS - 1
        lattice = [[rng.randint(-top, top) for _ in range(64)] for _ in range(64)]
        explicit = {"rank": 64, "simple_roots": [], "simple_coroots": []}
        text = doc_text(
            root_datum={"explicit": explicit}, lattice=lattice, colors=[[1] * 64]
        )
        start = time.perf_counter()
        sd = parse(text)
        assert time.perf_counter() - start < 2.0
        assert sd.rank == sd.ambient_rank == 64

    def test_a_dense_deficient_embedding_fails_in_bounded_time(self):
        # rank 32 with random 255-bit entries and a last column that is the
        # difference of the first two: deficient mod 2**61 - 1 as well, so
        # the exact fallback decides; its Smith form took about 2 s
        rng = random.Random(32)
        top = 2 ** (MAX_ENTRY_BITS - 1) - 1
        lattice = [[rng.randint(-top, top) for _ in range(31)] for _ in range(32)]
        for row in lattice:
            row.append(row[0] - row[1])
        explicit = {"rank": 32, "simple_roots": [], "simple_coroots": []}
        text = doc_text(
            root_datum={"explicit": explicit}, lattice=lattice, colors=[[1] * 32]
        )
        start = time.perf_counter()
        with pytest.raises(ParseError, match="rank-deficient"):
            parse(text)
        assert time.perf_counter() - start < 1.5

    def test_a_dense_full_rank_colors_matrix_reports_in_bounded_time(self):
        # rank 24 with random 256-bit colors and lattice I: the index of the
        # colors' lattice is about |det|, so the Hermite basis is taken mod
        # a 6000-bit determinant
        rng = random.Random(24)
        top = 2**MAX_ENTRY_BITS - 1
        colors = [[rng.randint(-top, top) for _ in range(24)] for _ in range(24)]
        identity = [[int(i == j) for j in range(24)] for i in range(24)]
        explicit = {"rank": 24, "simple_roots": [], "simple_coroots": []}
        sd = parse(
            doc_text(root_datum={"explicit": explicit}, lattice=identity, colors=colors)
        )
        start = time.perf_counter()
        report = full_report(sd)
        assert time.perf_counter() - start < 5.0
        factors = report.saturation_quotient.invariant_factors
        assert math.prod(factors) == abs(det(sd.colors))
        assert report.ambient_saturation_quotient.is_trivial

    def test_rank_deficient_embedding_is_structural(self):
        doc = {
            "label": "bad",
            "p": 1,
            "root_datum": {
                "explicit": {"rank": 2, "simple_roots": [], "simple_coroots": []}
            },
            "lattice": [[1, 2], [2, 4]],
            "colors": [],
        }
        with pytest.raises(ParseError, match="rank-deficient"):
            parse(json.dumps(doc))


class TestRendering:
    def torus_report(self, n=1, p=5):
        sd = SphericalDatum(
            torus(n),
            IntMatrix.identity(n),
            IntMatrix.from_rows([], cols=n),
            p,
            label=f"torus_rank_{n}",
        )
        return full_report(sd)

    def test_single_profinite_factor(self):
        text = serialize_report(self.torus_report(1, 5))
        assert "Zhat_{p'}" in text
        assert "Z/" not in text

    def test_trivial_group_renders_one(self):
        assert format_pi(PiResult(0, (), 1)) == "1"
        assert format_quotient(FinGenAbQuotient(0, ())) == "1"

    def test_factors_render_ascending(self):
        assert format_pi(PiResult(0, (2, 6), 1)) == "Z/2 x Z/6"
        assert format_pi(PiResult(2, (3,), 2)) == "Zhat_{p'}^2 x Z/3"

    def test_quotient_with_divisible_part(self):
        assert format_quotient(FinGenAbQuotient(2, (3,))) == "(Q/Z)^2 x Z/3"

    def test_text_report_mentions_unknown_p_part(self):
        assert "not determined" in serialize_report(self.torus_report(1, 5))
        assert "not determined" not in serialize_report(self.torus_report(1, 1))

    def test_structured_report_is_lossless_json(self):
        report = self.torus_report(2, 3)
        blob = serialize_report(report, format="structured")
        data = json.loads(blob)
        assert data == report_dict(report)
        assert data["pi1"] == {"zhat_rank": 2, "invariant_factors": [], "p": 3}
        assert data["pi0"] == {"zhat_rank": 0, "invariant_factors": [], "p": 3}
        # canonical output: serializing twice gives identical bytes
        assert blob == serialize_report(report, format="structured")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize_report(self.torus_report(), format="yaml")


class TestCatalog:
    def test_expected_entries_present(self):
        names = {e.name for e in catalog()}
        assert {
            "sl2_mod_torus",
            "sl2_mod_normalizer",
            "pgl2_mod_normalizer",
            "torus_rank_1",
            "torus_rank_2",
            "group_case_A1_adjoint",
            "group_case_A2_adjoint",
        } <= names

    def test_every_entry_matches_expectations(self):
        for entry in catalog():
            for run in run_entry(entry):
                assert run.ok, (entry.name, run.p)

    def test_expectations_cover_all_characteristics(self):
        for entry in catalog():
            assert set(entry.expected) == set(CHARACTERISTICS)

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown catalog entry"):
            catalog_entry("nope")


class TestCli:
    def write(self, tmp_path, text, name="doc.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_compute_text(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("sl2_mod_normalizer").document)
        assert main(["compute", path]) == 0
        out = capsys.readouterr().out
        assert "pi0 p'-part: Z/2" in out
        assert "pi1 p'-part: Z/2" in out

    def test_compute_structured(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("torus_rank_2").document)
        assert main(["compute", path, "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pi1"]["zhat_rank"] == 2

    def test_compute_p_override(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("sl2_mod_normalizer").document)
        assert main(["compute", path, "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "pi0 p'-part: 1" in out

    def test_compute_invalid_p_override(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("sl2_mod_normalizer").document)
        assert main(["compute", path, "--p", "4"]) == 2

    @pytest.mark.parametrize("p, code", [(4294967291, 0), (4294967311, 2)])
    def test_compute_p_cap(self, tmp_path, capsys, p, code):
        # both are prime; only the first is below the cap of 2**32
        path = self.write(tmp_path, catalog_entry("sl2_mod_normalizer").document)
        assert main(["compute", path, "--p", str(p)]) == code

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, "{ not json")
        assert main(["compute", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_a_negative_explicit_rank_exits_2(self, tmp_path, capsys):
        text, message = BAD_FIELDS["explicit-rank-negative"]
        assert main(["compute", self.write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["hyperbolic-pairing", "affine-pairing"])
    def test_a_pairing_of_no_finite_type_exits_2(self, tmp_path, capsys, key):
        text, message = BAD_FIELDS[key]
        assert main(["compute", self.write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key",
        ["repeated-top-level-key", "repeated-standard-key", "repeated-explicit-key"],
    )
    def test_a_repeated_key_exits_2(self, tmp_path, capsys, key):
        # the last value would be accepted; a report could not say which one
        # it used, so the document is refused
        text, message = BAD_FIELDS[key]
        assert main(["compute", self.write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path / "absent.json")]) == 2

    def test_a_file_that_is_not_utf8_exits_2_naming_its_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + catalog_entry("sl2_mod_torus").document.encode())
        assert main(["compute", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec ")

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("sl2_mod_torus").document)
        assert main(["validate", path]) == 0
        assert "[pass] coroot-span" in capsys.readouterr().out

    def test_validate_strict_failure(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(colors=[[3]]))
        assert main(["validate", path]) == 0
        assert main(["validate", path, "--strict"]) == 1

    def test_compute_strict_failure(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(colors=[[3]]))
        assert main(["compute", path, "--strict"]) == 1

    def test_validate_and_compute_strict_print_the_same_failure(
        self, tmp_path, capsys
    ):
        # the A1 group case with its colors doubled misses both coroots
        doc = json.loads(catalog_entry("group_case_A1_adjoint").document)
        doc["colors"] = [[2 * x for x in row] for row in doc["colors"]]
        path = self.write(tmp_path, json.dumps(doc))
        errs = []
        for command in ("validate", "compute"):
            assert main([command, path, "--strict"]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            "validation error: restricted simple coroot(s) 0, 1 lie outside "
            "the integer row span of the color functionals\n"
        )

    def test_a_label_cannot_forge_report_lines(self, tmp_path, capsys):
        doc = json.loads(catalog_entry("torus_rank_1").document)
        doc["label"] = label = "a\nsaturation quotient: Z/7"
        path = self.write(tmp_path, json.dumps(doc))
        assert main(["compute", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(label) in captured.err

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sl2_mod_normalizer" in out

    def test_catalog_run(self, capsys):
        assert main(["catalog", "run", "sl2_mod_normalizer"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") == 4

    def test_catalog_run_reports_a_mismatch(self, capsys, monkeypatch):
        entry = catalog_entry("sl2_mod_normalizer")
        wrong = {p: (ExpectedPi(1), ExpectedPi(1)) for p in CHARACTERISTICS}
        monkeypatch.setattr(
            cli, "catalog_entry", lambda name: CatalogEntry(name, entry.document, wrong)
        )
        assert main(["catalog", "run", "sl2_mod_normalizer"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(CHARACTERISTICS)
        assert lines[0] == (
            "sl2_mod_normalizer p=1 pi0=Z/2 pi1=Z/2"
            " MISMATCH (expected pi0=Zhat_{p'} pi1=Zhat_{p'})"
        )
        assert all(" MISMATCH (expected " in line for line in lines)

    def test_catalog_run_unknown(self, capsys):
        assert main(["catalog", "run", "nope"]) == 2

    def test_catalog_run_requires_name(self, capsys):
        assert main(["catalog", "run"]) == 2

    @pytest.mark.parametrize("action", ["list", "run-all"])
    def test_catalog_list_and_run_all_take_no_name(self, capsys, action):
        assert main(["catalog", action, "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"catalog {action} takes no entry name\n"

    def test_catalog_run_all(self, capsys):
        assert main(["catalog", "run-all"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") == len(catalog()) * len(CHARACTERISTICS)

    def test_oracle_match(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("sl2_mod_normalizer").document)
        assert main(["oracle", path, "--torsion", "2"]) == 0
        out = capsys.readouterr().out
        assert "structure match: yes" in out
        assert "order 2: 1" in out

    def test_oracle_reports_a_mismatch(self, tmp_path, capsys, monkeypatch):
        path = self.write(tmp_path, catalog_entry("sl2_mod_normalizer").document)
        real_report = cli.full_report
        monkeypatch.setattr(
            cli,
            "full_report",
            lambda sd: dataclasses.replace(
                real_report(sd), saturation_quotient=FinGenAbQuotient(0, (3,))
            ),
        )
        assert main(["oracle", path, "--torsion", "2"]) == 1
        out = capsys.readouterr().out
        assert out.endswith(
            "structure match: NO\n"
            "  order 2: sample has 1 elements, predicted group has 0\n"
        )

    def test_rank_above_the_cap_exits_2(self, tmp_path, capsys):
        std = {
            "type": "A",
            "rank": 1,
            "isogeny": "adjoint",
            "central_torus_rank": MAX_RANK,
        }
        path = self.write(tmp_path, doc_text(root_datum={"standard": std}))
        commands = (
            ["compute", path],
            ["validate", path],
            ["oracle", path, "--torsion", "2"],
        )
        for argv in commands:
            assert main(argv) == 2
            assert "above the cap of 512" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (doc_text(colors=[[2]] * (MAX_COLORS + 1)), "above the cap of 1024"),
            (doc_text(lattice=[[4], [2]]), "above the cap of 1"),
            (doc_text(colors=[[2**MAX_ENTRY_BITS]]), "above the cap of 256"),
            (doc_text().replace("[[2]]", f"[[{'9' * 4301}]]"), "more than"),
        ],
        ids=["colors", "lattice-rows", "entry-bits", "literal-digits"],
    )
    def test_over_a_cap_exits_2(self, tmp_path, capsys, text, message):
        path = self.write(tmp_path, text)
        commands = (
            ["compute", path],
            ["validate", path],
            ["oracle", path, "--torsion", "2"],
        )
        for argv in commands:
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_oracle_budget_bounds_the_modulus_of_a_rank_0_document(
        self, tmp_path, capsys
    ):
        explicit = {"rank": 0, "simple_roots": [], "simple_coroots": []}
        text = doc_text(root_datum={"explicit": explicit}, lattice=[], colors=[])
        path = self.write(tmp_path, text)
        assert main(["oracle", path, "--torsion", "1000000000000"]) == 2
        assert "enumeration budget" in capsys.readouterr().err

    def test_oracle_budget_error(self, tmp_path, capsys):
        path = self.write(tmp_path, catalog_entry("torus_rank_2").document)
        assert main(["oracle", path, "--torsion", str(10**7)]) == 2
