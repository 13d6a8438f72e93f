"""Golden outputs: what the package prints today, pinned byte for byte.

``tests/test_golden.py`` recomputes every file under ``tests/golden/``
and compares.  Run this script to rewrite them after a change that is
meant to alter output bytes, and say so in ``CHANGES.md``::

    PYTHONPATH=src python tests/make_golden.py

The files are:

* ``reports/<entry>.p<p>.json`` and ``.txt``: CLI ``compute --p <p>`` in
  the structured and the text format, for every catalog entry and every
  ``p`` in ``CHARACTERISTICS``;
* ``catalog_run_all.txt``: CLI ``catalog run-all``;
* ``oracle.txt``: CLI ``oracle --torsion N`` on every catalog entry for
  every ``N`` in ``ORACLE_MODULI``;
* ``random_digests.json``: sha256 digests of the documents and of both
  reports at every ``p`` for the seeded data of :func:`random_documents`.

The random documents are built here from the standard library alone, so
the digests move only when the package's output does.  The catalog's
hand-written expected answers stay the independent check of the
mathematics; these files only pin the bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile

from spherical_pi.catalog import CHARACTERISTICS, catalog
from spherical_pi.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ORACLE_MODULI = (1, 2, 3, 4, 6, 12)
SEED = 11
# (kind, count) in generation order
KINDS = (("torus", 40), ("standard", 30), ("group", 40), ("warn_twin", 40))
_STANDARD_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2),
)
_GROUP_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2),
)


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cartan(series: str, n: int) -> list[list[int]]:
    """Cartan matrix <coroot_i, root_j> in Bourbaki numbering (A-D, G2)."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n - 1 if series != "D" else n - 2
    for i in range(chain):
        c[i][i + 1] = c[i + 1][i] = -1
    if series == "B":
        c[n - 1][n - 2] = -2
    elif series == "C":
        c[n - 2][n - 1] = -2
    elif series == "D":
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    elif series == "G":
        c[0][1] = -3
    return c


def _full_rank_generators(rng: random.Random, r: int, d: int) -> list[list[int]]:
    """r vectors of length d that are independent by construction.

    On r chosen coordinates they form a triangular block with a nonzero
    diagonal; every other entry is random.
    """
    pivots = rng.sample(range(d), r)
    gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
    for k, g in enumerate(gens):
        g[pivots[k]] = rng.choice((-3, -2, -1, 1, 2, 3))
        for later in pivots[k + 1 :]:
            g[later] = 0
    return gens


def _random_rows(rng: random.Random, m: int, r: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)]


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return u


def _times(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _explicit(rank: int, roots: list, coroots: list) -> dict:
    return {
        "explicit": {"rank": rank, "simple_roots": roots, "simple_coroots": coroots}
    }


def _torus(rng: random.Random) -> dict:
    d = rng.randint(1, 4)
    r = rng.randint(0, d)
    return {
        "root_datum": _explicit(d, [], []),
        "lattice": _full_rank_generators(rng, r, d),
        "colors": _random_rows(rng, rng.randint(0, r + 2), r, 4),
    }


def _standard(rng: random.Random) -> dict:
    series, n = rng.choice(_STANDARD_TYPES)
    ctr = rng.randint(0, 1)
    d = n + ctr
    r = rng.randint(1, d)
    return {
        "root_datum": {
            "standard": {
                "type": series,
                "rank": n,
                "isogeny": rng.choice(("simply-connected", "adjoint")),
                "central_torus_rank": ctr,
            }
        },
        "lattice": _full_rank_generators(rng, r, d),
        "colors": _random_rows(rng, rng.randint(1, r + 2), r, 4),
    }


def _group(rng: random.Random) -> dict:
    """G x G / diag, adjoint or simply connected, in a random weight basis.

    Adjoint: roots are the standard basis of Z^2n, coroots the Cartan rows
    of each copy and the weights e_k - e_(n+k).  Simply connected: the
    roots are the Cartan columns of each copy, the coroots the standard
    basis and the weights (c_k, -c_k) for the Cartan columns c_k.  In both
    the colors are the Cartan rows, plus a few integer combinations of
    them.
    """
    series, n = rng.choice(_GROUP_TYPES)
    c = _cartan(series, n)
    unit = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    zeros = [0] * n
    if rng.random() < 0.5:
        roots = unit
        coroots = [row + zeros for row in c] + [zeros + row for row in c]
        weights = [unit[k][:n] + [-x for x in unit[k][:n]] for k in range(n)]
    else:
        cols = [[c[i][j] for i in range(n)] for j in range(n)]
        roots = [col + zeros for col in cols] + [zeros + col for col in cols]
        coroots = unit
        weights = [col + [-x for x in col] for col in cols]
    colors = [list(row) for row in c]
    for _ in range(rng.randint(0, 2)):
        mix = [rng.randint(-2, 2) for _ in range(n)]
        colors.append([sum(mix[i] * c[i][j] for i in range(n)) for j in range(n)])
    # change of weight basis: new generator k is sum_j u[k][j] * weight j,
    # on which color f takes the value sum_j u[k][j] * f(weight j)
    u = _unimodular(rng, n)
    u_t = [list(col) for col in zip(*u)]
    return {
        "root_datum": _explicit(2 * n, roots, coroots),
        "lattice": _times(u, weights),
        "colors": _times(colors, u_t),
    }


def _warn_twin(rng: random.Random) -> dict:
    """A group case without extra colors and with its first color scaled.

    The colors then span a sublattice of index 2 or 3 that misses the
    first restricted coroot, so validation warns.
    """
    doc = _group(rng)
    colors = doc["colors"][: len(doc["lattice"])]
    factor = rng.choice((2, 3))
    colors[0] = [factor * x for x in colors[0]]
    doc["colors"] = colors
    return doc


_MAKERS = {
    "torus": _torus,
    "standard": _standard,
    "group": _group,
    "warn_twin": _warn_twin,
}


def random_documents() -> list[tuple[str, str]]:
    """(kind, document text) for the seeded random data, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for kind, count in KINDS:
        for i in range(count):
            doc = _MAKERS[kind](rng)
            doc["label"] = f"{kind}_{i}"
            doc["p"] = rng.choice((1, 2, 3, 5, 7))
            out.append((kind, json.dumps(doc, indent=2, sort_keys=True) + "\n"))
    return out


def _compute(path: str, p: int, fmt: str) -> str:
    code, out, err = _run_cli(["compute", path, "--p", str(p), "--format", fmt])
    if code != 0:
        raise RuntimeError(f"compute {path} --p {p} exited {code}: {err}")
    return out


def golden_files() -> dict[str, str]:
    """Every golden file's path under ``golden/`` and its expected text."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:

        def write(name: str, text: str) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        oracle = []
        for entry in catalog():
            path = write(f"{entry.name}.json", entry.document)
            for p in CHARACTERISTICS:
                for fmt, ext in (("structured", "json"), ("text", "txt")):
                    files[f"reports/{entry.name}.p{p}.{ext}"] = _compute(path, p, fmt)
            for n in ORACLE_MODULI:
                code, out, err = _run_cli(["oracle", path, "--torsion", str(n)])
                head = f"$ oracle {entry.name} --torsion {n}\nexit {code}\n"
                oracle.append(head + out + err)
        files["oracle.txt"] = "".join(oracle)

        code, out, err = _run_cli(["catalog", "run-all"])
        if code != 0:
            raise RuntimeError(f"catalog run-all exited {code}: {err}")
        files["catalog_run_all.txt"] = out

        digests = []
        for i, (kind, text) in enumerate(random_documents()):
            path = write(f"random_{i}.json", text)
            reports = {
                fmt: "".join(_compute(path, p, fmt) for p in CHARACTERISTICS)
                for fmt in ("structured", "text")
            }
            digests.append(
                {
                    "index": i,
                    "kind": kind,
                    "document": _sha(text),
                    "structured": _sha(reports["structured"]),
                    "text": _sha(reports["text"]),
                    "warns": "[warn]" in reports["text"],
                }
            )
        files["random_digests.json"] = json.dumps(digests, indent=1) + "\n"
    return files


def write_golden_files() -> None:
    """Replace the contents of ``golden/`` with today's outputs."""
    files = golden_files()
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    for name, text in files.items():
        path = os.path.join(GOLDEN_DIR, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    print(f"wrote {len(files)} files under {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    write_golden_files()
