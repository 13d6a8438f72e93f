"""The pipeline never loads the verification route; the exports stay tidy.

``spherical_pi.verify`` holds the independent route that the tests check
the pipeline against.  No report, CLI command or benchmark operation may
import it, so a fresh interpreter runs the pipeline entry points on the
whole catalog and then looks at ``sys.modules``.
"""

import os
import subprocess
import sys

import spherical_pi
from spherical_pi import verify

MOVED = (
    "HnfResult",
    "Lattice",
    "NotASublatticeError",
    "coroot_saturation",
    "hnf",
    "intersect",
    "product",
    "quotient",
    "solve_in_lattice",
    "torus",
)

PIPELINE_RUN = """
import contextlib, io, sys
from spherical_pi import catalog, full_report, parse, run_entry, serialize_report
from spherical_pi.cli import main

for entry in catalog():
    report = full_report(parse(entry.document))
    serialize_report(report)
    serialize_report(report, format="structured")
    run_entry(entry)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["catalog", "run-all"]) == 0
assert "spherical_pi.verify" not in sys.modules, "the pipeline imported verify"
"""


def test_pipeline_never_imports_verify():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spherical_pi.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE_RUN],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_exports_are_sorted_unique_and_resolve():
    names = spherical_pi.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(spherical_pi, name) is not None, name


def test_verification_names_live_only_in_verify():
    assert not set(MOVED) & set(spherical_pi.__all__)
    for name in MOVED:
        assert hasattr(verify, name), name
