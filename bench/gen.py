"""Seeded input documents and their expected answers.

Nothing here imports ``spherical_pi``: the expected answers come from a
route that shares no code with the package.

* Cartan matrices are computed from Bourbaki's realizations of the simple
  roots in Euclidean space, ``C[i][j] = 2 (a_i, a_j) / (a_i, a_i)``.
* The adjoint fundamental groups come from a hard-coded table.
* Planted data is built as ``U D V`` with seeded unimodular ``U`` and
  ``V``, so its Smith invariants are those of the diagonal ``D``; the
  diagonal is normalised to an invariant-factor chain by splitting every
  entry into prime powers.
* p'-parts are stripped here, not by the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

CHARACTERISTICS = (1, 2, 3, 5)


# --- Cartan matrices and fundamental groups -------------------------------

def _vec(dim: int, *terms: tuple[int, int]) -> list[int]:
    v = [0] * dim
    for i, c in terms:
        v[i - 1] += c
    return v


def simple_roots(series: str, n: int) -> list[list[int]]:
    """Bourbaki's simple roots (plates I-IX), coordinates doubled to stay integral."""
    if series == "A":
        return [_vec(n + 1, (i, 2), (i + 1, -2)) for i in range(1, n + 1)]
    chain = [_vec(n, (i, 2), (i + 1, -2)) for i in range(1, n)]
    if series == "B":
        return chain + [_vec(n, (n, 2))]
    if series == "C":
        return chain + [_vec(n, (n, 4))]
    if series == "D":
        return chain + [_vec(n, (n - 1, 2), (n, 2))]
    if series == "E":
        e8 = [
            _vec(8, (1, 1), (8, 1), *((k, -1) for k in range(2, 8))),
            _vec(8, (1, 2), (2, 2)),
        ] + [_vec(8, (k, 2), (k - 1, -2)) for k in range(2, 8)]
        return e8[:n]
    if series == "F":
        return [
            _vec(4, (2, 2), (3, -2)),
            _vec(4, (3, 2), (4, -2)),
            _vec(4, (4, 2)),
            _vec(4, (1, 1), (2, -1), (3, -1), (4, -1)),
        ]
    if series == "G":
        return [_vec(3, (1, 2), (2, -2)), _vec(3, (1, -4), (2, 2), (3, 2))]
    raise ValueError(f"unknown series {series!r}")


def cartan(series: str, n: int) -> list[list[int]]:
    """C[i][j] = <coroot_i, root_j> = 2 (a_i, a_j) / (a_i, a_i)."""
    roots = simple_roots(series, n)
    out = []
    for a in roots:
        norm = sum(x * x for x in a)
        row = []
        for b in roots:
            q, rem = divmod(2 * sum(x * y for x, y in zip(a, b)), norm)
            if rem:
                raise AssertionError(f"{series}{n}: non-integral Cartan entry")
            row.append(q)
        out.append(row)
    return out


def fundamental_group(series: str, n: int) -> list[int]:
    """Invariant factors of P/Q, the fundamental group of the adjoint group."""
    if series == "A":
        return [n + 1]
    if series in ("B", "C"):
        return [2]
    if series == "D":
        return [2, 2] if n % 2 == 0 else [4]
    return {("E", 6): [3], ("E", 7): [2]}.get((series, n), [])


# --- invariant factors by prime-power split -------------------------------

def _prime_powers(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    q = 2
    while q * q <= d:
        while d % q == 0:
            out[q] = out.get(q, 0) + 1
            d //= q
        q += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def invariant_factors(diagonal: list[int]) -> tuple[int, list[int]]:
    """(divisible rank, ascending invariant factors >= 2) of prod Z/d_i.

    A zero entry is a copy of Q/Z.  Each nonzero entry is split into prime
    powers; the i-th largest power of every prime goes into the i-th
    largest factor.
    """
    divisible = sum(1 for d in diagonal if d == 0)
    per_prime: dict[int, list[int]] = {}
    for d in diagonal:
        for q, k in _prime_powers(abs(d)).items():
            per_prime.setdefault(q, []).append(k)
    length = max((len(ks) for ks in per_prime.values()), default=0)
    factors = [1] * length
    for q, ks in per_prime.items():
        for i, k in enumerate(sorted(ks, reverse=True)):
            factors[length - 1 - i] *= q**k
    return divisible, factors


def p_prime(factors: list[int], p: int) -> list[int]:
    if p == 1:
        return list(factors)
    out = []
    for d in factors:
        while d % p == 0:
            d //= p
        if d > 1:
            out.append(d)
    return out


# --- seeded unimodular mixes ----------------------------------------------

def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def unimodular(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    """Dense unimodular n x n: a signed row permutation of L @ R.

    L is lower and R upper unitriangular with entries in [-bound, bound].
    """
    lower = [[1 if i == j else (rng.randint(-bound, bound) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-bound, bound) if j > i else 0)
              for j in range(n)] for i in range(n)]
    mixed = matmul(lower, upper)
    order = list(range(n))
    rng.shuffle(order)
    out = []
    for i in order:
        sign = rng.choice((-1, 1))
        out.append([sign * x for x in mixed[i]])
    return out


def _scaled(u: list[list[int]], d: list[int]) -> list[list[int]]:
    """u @ D for the len(u) x len(d) matrix D with diagonal d."""
    return [[row[j] * d[j] if j < len(row) else 0 for j in range(len(d))] for row in u]


# --- documents and expectations -------------------------------------------

@dataclass(frozen=True)
class Item:
    """One input document with the answers it must produce.

    ``saturation`` is (divisible rank, invariant factors) of the color
    quotient, ``ambient`` the invariant factors of the ambient quotient,
    ``flagged`` the coroot indices the span check must report, and
    ``diag`` the planted Smith invariants of the colors.  ``modulus`` is
    the torsion modulus of an oracle op.
    """

    name: str
    doc: dict
    rank: int
    saturation: tuple[int, list[int]]
    ambient: list[int]
    flagged: list[int]
    diag: list[int]
    explicit_root_datum: dict
    modulus: int = 0

    @property
    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True)

    def pi(self, p: int) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
        """((zhat rank, factors) of pi0, the same of pi1) at ``p``."""
        div, factors = self.saturation
        return (0, p_prime(self.ambient, p)), (div, p_prime(factors, p))


def _explicit(rank: int, roots: list, coroots: list) -> dict:
    return {"explicit": {"rank": rank, "simple_roots": roots, "simple_coroots": coroots}}


def _item(name: str, rank: int, root_datum: dict, lattice: list, colors: list,
          diag: list[int], ambient: list[int], flagged: list[int] = (),
          explicit: dict | None = None) -> Item:
    return Item(
        name=name,
        doc={"label": name, "p": 1, "root_datum": root_datum,
             "lattice": lattice, "colors": colors},
        rank=rank,
        saturation=invariant_factors(diag),
        ambient=ambient,
        flagged=list(flagged),
        diag=list(diag),
        explicit_root_datum=explicit or root_datum,
    )


def group_case(rng: random.Random | None, series: str, n: int, twin: bool = False) -> Item:
    """Adjoint G x G / diag, weight basis vectors negated at random by ``rng``.

    Roots are the standard basis of Z^2n, the coroots of each copy are the
    Cartan rows, the weight lattice is the antidiagonal and the colors are
    the Cartan rows (twice them for the exploratory twin, which fails the
    coroot-span check at every coroot).  Only signs change with the seed:
    permuting the basis changes the pivot order and hence the cost.
    """
    c = cartan(series, n)
    signs = [rng.choice((-1, 1)) if rng else 1 for _ in range(n)]
    lattice = [[0] * (2 * n) for _ in range(n)]
    for k, s in enumerate(signs):
        lattice[k][k] = s
        lattice[k][n + k] = -s
    scale = 2 if twin else 1
    colors = [[scale * c[i][k] * signs[k] for k in range(n)] for i in range(n)]
    zero = [0] * n
    roots = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    coroots = [row + zero for row in c] + [zero + row for row in c]
    pi1 = fundamental_group(series, n)
    smith = [scale] * (n - len(pi1)) + [scale * d for d in pi1]
    name = f"{series}{n}" + ("-twin" if twin else "")
    return _item(name, n, _explicit(2 * n, roots, coroots), lattice, colors,
                 smith, [], range(2 * n) if twin else ())


PLANTED_VALUES = (1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 9, 12, 30)


def planted(rng: random.Random, name: str, r: int, m: int, bound: int,
            color_diag: list[int] | None = None) -> Item:
    """Torus datum of rank r with dense F = U_F D_F V and E = U_E D_E V.

    F and E share V, so the color quotient is the normalised D_F (a copy
    of Q/Z for each of the r - m missing colors) and the ambient quotient
    is the normalised gcd(D_F, D_E).  D_F is drawn from PLANTED_VALUES,
    or is a seeded permutation of ``color_diag`` when that is given.
    """
    if color_diag is None:
        d_f = [rng.choice(PLANTED_VALUES) for _ in range(min(m, r))]
    else:
        d_f = rng.sample(color_diag, len(color_diag))
    d_f += [0] * max(r - m, 0)
    d_e = [rng.choice(PLANTED_VALUES) for _ in range(r)]
    v = unimodular(rng, r, bound)
    f = matmul(_scaled(unimodular(rng, m, bound), d_f), v) if m else []
    e = matmul(_scaled(unimodular(rng, r, bound), d_e), v)
    ambient = invariant_factors([math.gcd(a, b) for a, b in zip(d_f, d_e)])[1]
    return _item(name, r, _explicit(r, [], []), [list(col) for col in zip(*e)], f,
                 d_f, ambient)


def _standard_a1(isogeny: str) -> dict:
    return {"standard": {"type": "A", "rank": 1, "isogeny": isogeny,
                         "central_torus_rank": 0}}


def catalog_items() -> list[Item]:
    """The seven documents of the package's built-in catalog, written out here."""
    sc = _explicit(1, [[2]], [[1]])
    ad = _explicit(1, [[1]], [[2]])
    items = [
        _item("sl2_mod_torus", 1, _standard_a1("simply-connected"), [[2]],
              [[1], [1]], [1], [], explicit=sc),
        _item("sl2_mod_normalizer", 1, _standard_a1("simply-connected"), [[4]],
              [[2]], [2], [2], explicit=sc),
        _item("pgl2_mod_normalizer", 1, _standard_a1("adjoint"), [[2]],
              [[2]], [2], [2], explicit=ad),
    ]
    for n in (1, 2):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        items.append(_item(f"torus_rank_{n}", n, _explicit(n, [], []), identity,
                           [], [0] * n, []))
    for n in (1, 2):
        case = group_case(None, "A", n)
        items.append(replace(case, name=f"group_case_A{n}_adjoint",
                             doc=dict(case.doc, label=f"group_case_A{n}_adjoint")))
    return items
