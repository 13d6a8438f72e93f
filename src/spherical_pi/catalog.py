"""Built-in example documents with their expected answers.

Each entry carries the expected pi0 and pi1 for every characteristic
exponent in :data:`CHARACTERISTICS`; ``run_entry`` recomputes and compares.
The two ``group_case`` entries realize a semisimple adjoint group as a
homogeneous space for two copies of itself, built by ``_group_case``
from the Cartan matrix: the weight lattice is the antidiagonal copy of
the root lattice and the color functionals are the simple coroots
restricted to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .documents import dumps_document, parse
from .root_data import ADJOINT, SIMPLY_CONNECTED, cartan_matrix
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
_Expected = dict[int, tuple[ExpectedPi, ExpectedPi]]


def _finite(*factors: int) -> ExpectedPi:
    return ExpectedPi(0, factors)


def _all_p(pi0: ExpectedPi, pi1: ExpectedPi) -> _Expected:
    return {p: (pi0, pi1) for p in CHARACTERISTICS}


def _away_from(p: int, pi0: ExpectedPi, pi1: ExpectedPi) -> _Expected:
    """``pi0`` and ``pi1`` at every catalog p but ``p``, where both are trivial."""
    return {q: (_TRIVIAL, _TRIVIAL) if q == p else (pi0, pi1) for q in CHARACTERISTICS}


def _standard_a1(isogeny: str) -> dict:
    return {
        "standard": {
            "type": "A",
            "rank": 1,
            "isogeny": isogeny,
            "central_torus_rank": 0,
        }
    }


def _explicit(rank: int, roots: list, coroots: list) -> dict:
    return {
        "explicit": {"rank": rank, "simple_roots": roots, "simple_coroots": coroots}
    }


def _entry(
    name: str,
    root_datum: dict,
    lattice: list,
    colors: list,
    expected: _Expected,
) -> CatalogEntry:
    """An entry whose document is labelled by its name and has ``p = 1``."""
    doc = {
        "label": name,
        "p": 1,
        "root_datum": root_datum,
        "lattice": lattice,
        "colors": colors,
    }
    return CatalogEntry(name, dumps_document(doc), expected)


def _unit_vectors(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _group_case(series: str, n: int, expected: _Expected) -> CatalogEntry:
    """The adjoint group of a type as a space for two copies of itself.

    The roots are the standard basis of Z^2n, the coroots the Cartan rows
    of each copy, the weights e_k - e_(n+k), and the colors the Cartan
    rows, which are the restricted coroots of the first copy.
    """
    cartan = [list(row) for row in cartan_matrix(series, n).entries]
    unit, zero = _unit_vectors(2 * n), [0] * n
    coroots = [c + zero for c in cartan] + [zero + c for c in cartan]
    weights = [[a - b for a, b in zip(unit[k], unit[n + k])] for k in range(n)]
    name = f"group_case_{series}{n}_adjoint"
    return _entry(name, _explicit(2 * n, unit, coroots), weights, cartan, expected)


def _entries() -> tuple[CatalogEntry, ...]:
    z2 = _away_from(2, _finite(2), _finite(2))
    return (
        # SL(2) modulo a maximal torus: weight lattice generated by the
        # root, two colors each taking value 1 on it.  Saturation adds
        # nothing.
        _entry(
            "sl2_mod_torus",
            _standard_a1(SIMPLY_CONNECTED),
            [[2]],
            [[1], [1]],
            _all_p(_TRIVIAL, _TRIVIAL),
        ),
        # SL(2) modulo the normalizer of a maximal torus: weight lattice is
        # twice the root, one color of value 2.  Index two everywhere, so
        # the answer is Z/2 away from characteristic 2 and invisible at
        # p = 2.
        _entry("sl2_mod_normalizer", _standard_a1(SIMPLY_CONNECTED), [[4]], [[2]], z2),
        # Same quotient in adjoint coordinates.
        _entry("pgl2_mod_normalizer", _standard_a1(ADJOINT), [[2]], [[2]], z2),
        *(
            _entry(
                f"torus_rank_{n}",
                _explicit(n, [], []),
                _unit_vectors(n),
                [],
                _all_p(_TRIVIAL, ExpectedPi(n, ())),
            )
            for n in (1, 2)
        ),
        _group_case("A", 1, _away_from(2, _TRIVIAL, _finite(2))),
        # The colors of A2 are the rows of its Cartan matrix, whose
        # elementary divisors are 1 and 3.
        _group_case("A", 2, _away_from(3, _TRIVIAL, _finite(3))),
    )


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
