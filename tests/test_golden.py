"""Today's output bytes, compared with the files under ``tests/golden/``.

A change that is meant to alter output rewrites the files with
``PYTHONPATH=src python tests/make_golden.py`` and says so in
``CHANGES.md``; any other difference is a regression.
"""

import json
import os

import pytest

from make_golden import GOLDEN_DIR, KINDS, golden_files

REWRITE = "rewrite with `PYTHONPATH=src python tests/make_golden.py` if intended"


@pytest.fixture(scope="module")
def expected():
    return golden_files()


def _on_disk(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        return fh.read()


def _assert_same(expected, names):
    assert names
    changed = [name for name in names if _on_disk(name) != expected[name]]
    assert not changed, f"output differs from golden {changed}; {REWRITE}"


def test_catalog_reports(expected):
    _assert_same(expected, [n for n in expected if n.startswith("reports/")])


def test_catalog_run_all(expected):
    _assert_same(expected, ["catalog_run_all.txt"])


def test_oracle(expected):
    _assert_same(expected, ["oracle.txt"])


def test_random_digests(expected):
    want = json.loads(_on_disk("random_digests.json"))
    got = json.loads(expected["random_digests.json"])
    assert len(got) == len(want) == sum(count for _, count in KINDS)
    changed = [g["index"] for g, w in zip(got, want) if g != w]
    assert not changed, f"random data {changed} differ from golden; {REWRITE}"


def test_no_missing_or_stale_files(expected):
    on_disk = {
        os.path.relpath(os.path.join(root, f), GOLDEN_DIR).replace(os.sep, "/")
        for root, _, files in os.walk(GOLDEN_DIR)
        for f in files
    }
    assert on_disk == set(expected)


def test_random_data_cover_warnings(expected):
    # genuine group cases and tori pass validation; every twin warns
    digests = json.loads(expected["random_digests.json"])
    for d in digests:
        if d["kind"] in ("torus", "group"):
            assert not d["warns"], d
        elif d["kind"] == "warn_twin":
            assert d["warns"], d
