"""The canonical JSON writer against the standard library's encoder.

``documents.dumps_document`` writes with ``documents._write_canonical``
before CPython 3.13 and with ``json.dumps`` from 3.13 on.  These tests
call the writer directly, so they hold it to the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` on every version.
"""

import json
import random

import pytest

from make_golden import random_documents
from spherical_pi.catalog import CHARACTERISTICS, _group_case, catalog
from spherical_pi.documents import (
    MAX_ENTRY_BITS,
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
