"""Document format, report rendering, catalog, and the CLI surface."""

import json
import os
import subprocess
import sys

import pytest

from spherical_pi.catalog import CHARACTERISTICS, catalog, catalog_entry, run_entry
from spherical_pi import documents
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
from spherical_pi.verify import torus


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

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path / "absent.json")]) == 2

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

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sl2_mod_normalizer" in out

    def test_catalog_run(self, capsys):
        assert main(["catalog", "run", "sl2_mod_normalizer"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") == 4

    def test_catalog_run_unknown(self, capsys):
        assert main(["catalog", "run", "nope"]) == 2

    def test_catalog_run_requires_name(self, capsys):
        assert main(["catalog", "run"]) == 2

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
