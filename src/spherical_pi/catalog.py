"""Built-in example documents with their expected answers.

Each entry carries the expected pi0 and pi1 for every characteristic
exponent in :data:`CHARACTERISTICS`; ``run_entry`` recomputes and compares.
The two ``group_case`` entries realize a semisimple adjoint group as a
homogeneous space for two copies of itself: the weight lattice is the
antidiagonal copy of the root lattice and the color functionals are the
simple coroots restricted to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .documents import dumps_document, parse
from .spherical import PiResult, _p_prime_pi, full_report

CHARACTERISTICS = (1, 2, 3, 5)


@dataclass(frozen=True)
class ExpectedPi:
    zhat_rank: int
    invariant_factors: tuple[int, ...] = ()

    def as_result(self, p: int) -> PiResult:
        return PiResult(self.zhat_rank, self.invariant_factors, p)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document: str
    expected: Mapping[int, tuple[ExpectedPi, ExpectedPi]]  # p -> (pi0, pi1)


@dataclass(frozen=True)
class EntryRun:
    p: int
    pi0: PiResult
    pi1: PiResult
    expected_pi0: PiResult
    expected_pi1: PiResult

    @property
    def ok(self) -> bool:
        return self.pi0 == self.expected_pi0 and self.pi1 == self.expected_pi1


_TRIVIAL = ExpectedPi(0, ())


def _finite(*factors: int) -> ExpectedPi:
    return ExpectedPi(0, factors)


def _all_p(pi0: ExpectedPi, pi1: ExpectedPi) -> dict[int, tuple[ExpectedPi, ExpectedPi]]:
    return {p: (pi0, pi1) for p in CHARACTERISTICS}


def _except_at(
    base: dict[int, tuple[ExpectedPi, ExpectedPi]],
    p: int,
    value: tuple[ExpectedPi, ExpectedPi],
) -> dict[int, tuple[ExpectedPi, ExpectedPi]]:
    out = dict(base)
    out[p] = value
    return out


def _standard_a1(isogeny: str) -> dict:
    return {
        "standard": {
            "type": "A",
            "rank": 1,
            "isogeny": isogeny,
            "central_torus_rank": 0,
        }
    }


def _torus_doc(name: str, rank: int) -> dict:
    return {
        "label": name,
        "p": 1,
        "root_datum": {
            "explicit": {"rank": rank, "simple_roots": [], "simple_coroots": []}
        },
        "lattice": [
            [int(i == j) for j in range(rank)] for i in range(rank)
        ],
        "colors": [],
    }


def _entries() -> tuple[CatalogEntry, ...]:
    entries = []

    # SL(2) modulo a maximal torus: weight lattice generated by the root,
    # two colors each taking value 1 on it.  Saturation adds nothing.
    entries.append(
        CatalogEntry(
            "sl2_mod_torus",
            dumps_document(
                {
                    "label": "sl2_mod_torus",
                    "p": 1,
                    "root_datum": _standard_a1("simply-connected"),
                    "lattice": [[2]],
                    "colors": [[1], [1]],
                }
            ),
            _all_p(_TRIVIAL, _TRIVIAL),
        )
    )

    # SL(2) modulo the normalizer of a maximal torus: weight lattice is
    # twice the root, one color of value 2.  Index two everywhere, so the
    # answer is Z/2 away from characteristic 2 and invisible at p = 2.
    entries.append(
        CatalogEntry(
            "sl2_mod_normalizer",
            dumps_document(
                {
                    "label": "sl2_mod_normalizer",
                    "p": 1,
                    "root_datum": _standard_a1("simply-connected"),
                    "lattice": [[4]],
                    "colors": [[2]],
                }
            ),
            _except_at(
                _all_p(_finite(2), _finite(2)), 2, (_TRIVIAL, _TRIVIAL)
            ),
        )
    )

    # Same quotient in adjoint coordinates.
    entries.append(
        CatalogEntry(
            "pgl2_mod_normalizer",
            dumps_document(
                {
                    "label": "pgl2_mod_normalizer",
                    "p": 1,
                    "root_datum": _standard_a1("adjoint"),
                    "lattice": [[2]],
                    "colors": [[2]],
                }
            ),
            _except_at(
                _all_p(_finite(2), _finite(2)), 2, (_TRIVIAL, _TRIVIAL)
            ),
        )
    )

    for n in (1, 2):
        entries.append(
            CatalogEntry(
                f"torus_rank_{n}",
                dumps_document(_torus_doc(f"torus_rank_{n}", n)),
                _all_p(_TRIVIAL, ExpectedPi(n, ())),
            )
        )

    # Adjoint group of type A1 as a space for two copies of itself.
    entries.append(
        CatalogEntry(
            "group_case_A1_adjoint",
            dumps_document(
                {
                    "label": "group_case_A1_adjoint",
                    "p": 1,
                    "root_datum": {
                        "explicit": {
                            "rank": 2,
                            "simple_roots": [[1, 0], [0, 1]],
                            "simple_coroots": [[2, 0], [0, 2]],
                        }
                    },
                    "lattice": [[1, -1]],
                    "colors": [[2]],
                }
            ),
            _except_at(
                _all_p(_TRIVIAL, _finite(2)), 2, (_TRIVIAL, _TRIVIAL)
            ),
        )
    )

    # Adjoint group of type A2; the colors are the rows of the A2 Cartan
    # matrix, whose elementary divisors are 1 and 3.
    entries.append(
        CatalogEntry(
            "group_case_A2_adjoint",
            dumps_document(
                {
                    "label": "group_case_A2_adjoint",
                    "p": 1,
                    "root_datum": {
                        "explicit": {
                            "rank": 4,
                            "simple_roots": [
                                [1, 0, 0, 0],
                                [0, 1, 0, 0],
                                [0, 0, 1, 0],
                                [0, 0, 0, 1],
                            ],
                            "simple_coroots": [
                                [2, -1, 0, 0],
                                [-1, 2, 0, 0],
                                [0, 0, 2, -1],
                                [0, 0, -1, 2],
                            ],
                        }
                    },
                    "lattice": [[1, 0, -1, 0], [0, 1, 0, -1]],
                    "colors": [[2, -1], [-1, 2]],
                }
            ),
            _except_at(
                _all_p(_TRIVIAL, _finite(3)), 3, (_TRIVIAL, _TRIVIAL)
            ),
        )
    )
    return tuple(entries)


_CATALOG = _entries()
_BY_NAME = {e.name: e for e in _CATALOG}


def catalog() -> tuple[CatalogEntry, ...]:
    """All built-in entries, in a fixed order."""
    return _CATALOG


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown catalog entry {name!r}; known entries: {known}")


def run_entry(entry: CatalogEntry) -> tuple[EntryRun, ...]:
    """Recompute pi0 and pi1 at every catalog characteristic.

    Both quotients are characteristic-free, so one report serves every p.
    """
    report = full_report(parse(entry.document))
    runs = []
    for p in CHARACTERISTICS:
        exp0, exp1 = entry.expected[p]
        runs.append(
            EntryRun(
                p=p,
                pi0=_p_prime_pi(report.ambient_saturation_quotient, p),
                pi1=_p_prime_pi(report.saturation_quotient, p),
                expected_pi0=exp0.as_result(p),
                expected_pi1=exp1.as_result(p),
            )
        )
    return tuple(runs)
