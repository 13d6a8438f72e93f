"""The canonical JSON writer against the standard library's encoder.

``documents.dumps_document`` and ``serialize_report`` write with
``documents._write_canonical``; these tests hold it to the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.
"""

import dataclasses
import json
import random

import pytest

from make_golden import random_documents
from spherical_pi import documents
from spherical_pi.catalog import CHARACTERISTICS, _group_case, catalog
from spherical_pi.documents import (
    MAX_ENTRY_BITS,
    _join_ints,
    _write_canonical,
    document_dict,
    dumps_document,
    parse,
    report_dict,
    serialize_datum,
    serialize_report,
)
from spherical_pi.intmat import IntMatrix
from spherical_pi.root_data import RootDatum
from spherical_pi.spherical import SphericalDatum, full_report


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def written(doc):
    out = []
    _write_canonical(doc, "", out)
    return "".join(out) + "\n"


def assert_same_bytes(doc):
    assert written(doc) == reference(doc)
    assert dumps_document(doc) == reference(doc)


def assert_documents_and_reports(text):
    """The document, its parsed form and its report at every p."""
    assert_same_bytes(json.loads(text))
    sd = parse(text)
    assert_same_bytes(document_dict(sd))
    for p in CHARACTERISTICS:
        assert_same_bytes(report_dict(full_report(sd.with_char_exponent(p))))


class TestSameBytesAsTheStandardLibrary:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_catalog_documents_and_reports(self, entry):
        assert entry.document == reference(json.loads(entry.document))
        assert_documents_and_reports(entry.document)

    def test_random_documents_and_reports(self):
        texts = [text for _, text in random_documents()]
        assert len(texts) == 150
        for text in texts:
            assert_documents_and_reports(text)

    @pytest.mark.parametrize("series, n", [("A", 40), ("B", 30), ("D", 31), ("E", 8)])
    def test_large_group_cases(self, series, n):
        assert_documents_and_reports(_group_case(series, n, {}).document)

    def test_dense_document_with_negative_256_bit_entries(self):
        rng = random.Random(256)
        top = 2**MAX_ENTRY_BITS - 1

        def rows(m, r):
            return [[rng.randint(-top, -top // 2) for _ in range(r)] for _ in range(m)]

        doc = {
            "label": "dense",
            "p": 1,
            "root_datum": {
                "explicit": {"rank": 6, "simple_roots": [], "simple_coroots": []}
            },
            "lattice": rows(6, 6),
            "colors": rows(8, 6),
        }
        assert_documents_and_reports(reference(doc))

    @pytest.mark.parametrize(
        "text",
        ["café", 'quote"', "back\\slash", "\x00\x01\x1f\x7f\t\n\r", "  ",
         "\u2028\u2029", "\U0001d518", ""],
    )
    def test_labels_and_keys_with_escapes(self, text):
        assert_same_bytes({"label": text, text: [text], "z" + text: {text: 1}})

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": [], "b": {}},
            [[], [], []],
            [{}, {"x": [1, -2]}, {"y": {"z": []}}],
            [[1, 2], [], [[3]], -4, "s"],
            {"flags": [True, False, None, 0, 1], "t": True, "n": None},
            ((1, 2), (3,)),
            {"int_keys": [{2: [1, 2], 1: {"x": 0}}]},
        ],
    )
    def test_hand_built_trees(self, doc):
        assert_same_bytes(doc)


class _Two(int):
    """An int subclass whose own ``str`` and ``repr`` differ from int's."""

    def __str__(self):
        return "two"

    __repr__ = __str__


class TestIntSubclassEntries:
    def test_written_as_the_standard_library_writes_them(self):
        assert written([_Two(2), 3]) == "[\n  2,\n  3\n]\n"
        assert_same_bytes({"v": [_Two(2)], "w": _Two(2), "b": [True, 2]})

    def test_a_root_datum_keeps_them_and_reports_them_as_ints(self):
        rd = RootDatum(1, ((_Two(2),),), ((1,),))
        assert type(rd.simple_roots[0][0]) is _Two
        sd = SphericalDatum(rd, IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]), 1)
        doc = document_dict(sd)
        assert_same_bytes(doc)
        text = serialize_datum(sd)
        assert text == reference(doc) and "two" not in text
        report = full_report(sd)
        assert_same_bytes(report_dict(report))
        text = serialize_report(report, format="structured")
        assert text == reference(report_dict(report)) and "two" not in text

    def test_among_zeros_in_every_matrix_of_a_report(self):
        def unit(i, x, n=8):
            return tuple(x if j == i else 0 for j in range(n))

        rd = RootDatum(8, (unit(0, _Two(1)),), (unit(0, 2),))
        lattice = IntMatrix.from_rows([unit(i, _Two(1) if i % 2 else 1) for i in range(8)])
        colors = IntMatrix.from_rows([unit(7 - i, _Two(2)) for i in range(8)])
        sd = SphericalDatum(rd, lattice, colors, 1, label="subclasses")
        assert type(sd.colors.entries[0][7]) is _Two
        for p in CHARACTERISTICS:
            report = full_report(sd.with_char_exponent(p))
            text = serialize_report(report, format="structured")
            assert text == reference(report_dict(report)) and "two" not in text


BIG = 2**MAX_ENTRY_BITS - 1

# rows of exact ints, most of them mostly zeros, so that both routes of
# _join_ints are taken: zero runs sliced around the nonzero entries, and
# the one join of a dense row
SPARSE_ROWS = {
    "all-zero": [0] * 40,
    "one-zero": [0],
    "first": [7] + [0] * 39,
    "middle": [0] * 20 + [-3] + [0] * 19,
    "last": [0] * 39 + [5],
    "first-and-last": [1] + [0] * 38 + [-1],
    "alternating": [0, 1] * 20,
    "alternating-from-nonzero": [2, 0] * 20,
    "negative-among-zeros": [0] * 9 + [-1] + [0] * 20 + [-BIG] + [0] * 9,
    "256-bit-among-zeros": [0, BIG, 0, 0, 0, 0, 0, 0, 0, -BIG, 0, 0, 0, 0, 0, 0],
    "one-in-four": [0, 0, 0, 9] * 10,
    "dense": list(range(-20, 20)),
}


class TestZeroRuns:
    """Rows written as zero runs around their nonzero entries."""

    @pytest.mark.parametrize("row", SPARSE_ROWS.values(), ids=SPARSE_ROWS.keys())
    @pytest.mark.parametrize("sep", [",", ",\n  ", ",\n        "])
    def test_join_ints_is_the_join(self, row, sep):
        for r in (row, tuple(row)):
            assert _join_ints(r, sep) == sep.join(map(str, r))

    @pytest.mark.parametrize("row", SPARSE_ROWS.values(), ids=SPARSE_ROWS.keys())
    def test_rows_alone_and_in_a_matrix(self, row):
        assert_same_bytes(row)
        assert_same_bytes([row, row[::-1], [0] * len(row)])
        assert_same_bytes({"input": {"colors": [row, row], "p": 1}, "q": [row]})
        assert_same_bytes([tuple(row), row])

    @pytest.mark.parametrize(
        "doc",
        [
            [[], [0, 0, 0, 0, 0], []],
            [[]],
            [[0] * 30, [0, 1], [], [0] * 12 + [4], [5]],
            [[1], [0] * 50, [0] * 49 + [1], list(range(7))],
            {"m": [[0] * 17, [], [0] * 16 + [-BIG]], "n": [[0]]},
        ],
        ids=["empty-rows", "one-empty-row", "ragged", "ragged-long", "ragged-in-dict"],
    )
    def test_empty_rows_and_ragged_matrices(self, doc):
        assert_same_bytes(doc)

    def test_a_matrix_with_other_values_among_its_rows(self):
        row = [0] * 10 + [3] + [0] * 10
        assert_same_bytes([row, {"a": row}, 0, "s", [row], None, row])

    @pytest.mark.parametrize("odd", [True, False, _Two(2), None, 1.5])
    def test_an_odd_entry_among_zeros(self, odd):
        row = [0] * 12 + [odd] + [0] * 12
        for doc in (row, [row, [0] * 25], {"m": [[0] * 25, row]}):
            assert_same_bytes(doc)
            text = written(doc)
            assert "True" not in text and "False" not in text and "two" not in text

    def test_random_sparse_matrices(self):
        rng = random.Random("zero-runs")
        for _ in range(300):
            width = rng.randint(0, 60)
            density = rng.choice([0.0, 0.02, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0])
            rows = [
                [
                    rng.choice([1, -1, 2, -7, BIG, -BIG, 10**30])
                    if rng.random() < density
                    else 0
                    for _ in range(width if rng.random() < 0.8 else rng.randint(0, 60))
                ]
                for _ in range(rng.randint(1, 8))
            ]
            assert_same_bytes({"m": rows, "r": rows[0]})


def report_bytes(sd):
    return serialize_report(full_report(sd), format="structured")


class TestSharedInputBlock:
    """A datum and its copies at other p share one rendered input block."""

    @staticmethod
    def with_p(text, p):
        return json.dumps(dict(json.loads(text), p=p))

    def test_reports_through_shared_copies_match_fresh_parses(self):
        rng = random.Random("shared-input-block")
        texts = [e.document for e in catalog()] + [t for _, t in random_documents()]
        texts += [_group_case(s, n, {}).document for s, n in [("A", 20), ("D", 9)]]
        for text in texts:
            sd = parse(text)
            ps = sorted({*CHARACTERISTICS, sd.char_exponent})
            rng.shuffle(ps)
            # each datum is a copy of the one before, the parsed one first
            for p in ps:
                sd = sd.with_char_exponent(p)
                fresh = full_report(parse(self.with_p(text, p)))
                got = report_bytes(sd)
                assert got == reference(report_dict(fresh)), (text, p)
                assert got == serialize_report(fresh, format="structured")

    def test_a_replaced_or_rebuilt_datum_renders_its_own_block(self):
        sd = parse(catalog()[0].document)
        report_bytes(sd)
        report_bytes(sd.with_char_exponent(3))
        colors = IntMatrix.from_rows([[2 * x for x in row] for row in sd.colors.entries])
        others = [
            dataclasses.replace(sd, colors=colors),
            dataclasses.replace(sd, label="renamed"),
            dataclasses.replace(sd, char_exponent=5),
            SphericalDatum(sd.root_datum, sd.lattice_embedding, colors, 2, "rebuilt"),
        ]
        for other in others:
            assert other._input_block is not sd._input_block
            want = reference(report_dict(full_report(other)))
            assert report_bytes(other) == want
            assert report_bytes(other.with_char_exponent(7)) == reference(
                report_dict(full_report(other.with_char_exponent(7)))
            )
        assert report_bytes(sd) == reference(report_dict(full_report(sd)))

    def test_four_reports_render_the_matrices_once(self, monkeypatch):
        sd = parse(_group_case("A", 6, {}).document)
        rendered = []
        render = documents._int_rows

        def spy(rows, pad):
            rendered.append(rows)
            return render(rows, pad)

        monkeypatch.setattr(documents, "_int_rows", spy)
        texts = [report_bytes(sd.with_char_exponent(p)) for p in CHARACTERISTICS]
        assert len(texts) == 4
        rd = sd.root_datum
        assert rendered == [
            rd.simple_roots,
            rd.simple_coroots,
            sd.lattice_embedding.transpose().entries,
            sd.colors.entries,
        ]
