"""Root data for connected reductive groups.

A :class:`RootDatum` realizes the character lattice of a maximal torus as
Z^rank together with the simple roots (characters) and simple coroots
(cocharacters on that lattice).  Standard simply connected and adjoint
realizations are built from Cartan matrices in Bourbaki numbering; any
other isogeny type can be entered through explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .arith import _check_count
from .intmat import (
    _INT_ONLY,
    DimensionError,
    IntMatrix,
    _check_int,
    _full_column_rank,
    _support,
)

SIMPLY_CONNECTED = "simply-connected"
ADJOINT = "adjoint"

# admissible rank ranges per series (Bourbaki conventions)
_RANK_RANGES: dict[str, tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def cartan_matrix(series: str, rank: int) -> IntMatrix:
    """Cartan matrix C[i][j] = <coroot_i, root_j> in Bourbaki numbering."""
    if not isinstance(series, str) or len(series) != 1:
        raise ValueError(f"series must be a single letter A..G, got {series!r}")
    s = series.upper()
    if s not in _RANK_RANGES:
        raise ValueError(f"unknown series {series!r}")
    _check_count(rank, "rank")
    lo, hi = _RANK_RANGES[s]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"series {s} has no rank-{rank} member")
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if s in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if s == "B":
            c[n - 1][n - 2] = -2  # short root coroot against the long neighbor
        elif s == "C":
            c[n - 2][n - 1] = -2
    elif s == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif s == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]
        for i, j in chain + [(1, 3)]:
            bond(i, j)
    elif s == "F":
        bond(0, 1)
        bond(1, 2, cij=-1, cji=-2)
        bond(2, 3)
    else:  # G
        bond(0, 1, cij=-3, cji=-1)
    return IntMatrix.from_rows(c)


def _dynkin_types(c: Sequence[dict[int, int]]) -> tuple[str, ...]:
    """The finite type of each component of the Dynkin diagram of ``c``.

    ``c`` is a generalized Cartan matrix, each row given as its nonzero
    entries ``{j: c[i][j]}``: diagonal 2, nonpositive entries off it and
    symmetric zeros.  Its diagram joins ``i`` and ``j`` when ``c[i][j]``
    is nonzero, by a bond of multiplicity ``c[i][j] * c[j][i]``.  The
    components come in the order of their least index, each named like
    ``"A40"`` or ``"E8"`` (``B2`` for the rank-2 double bond).  A component that is not of finite type (Kac,
    *Infinite-dimensional Lie algebras*, Thm 4.3 and Table Fin) raises a
    ValueError that names its simple roots.
    """
    neighbors = [[j for j in row if j != i] for i, row in enumerate(c)]
    seen = [False] * len(c)
    types = []
    for start in range(len(c)):
        if seen[start]:
            continue
        seen[start] = True
        nodes = [start]
        for i in nodes:  # the list grows while it is walked
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    nodes.append(j)
        name = _component_type(c, neighbors, nodes)
        if name is None:
            listed = ", ".join(map(str, sorted(nodes)))
            raise ValueError(
                f"the Dynkin diagram component on simple roots {listed} "
                "is not of finite type"
            )
        types.append(name)
    return tuple(types)


def _component_type(
    c: Sequence[dict[int, int]], neighbors: list[list[int]], nodes: list[int]
) -> str | None:
    """The finite type of one connected component, or None when it has none."""
    size = len(nodes)
    degrees = [len(neighbors[i]) for i in nodes]
    # a tree: as many edges as nodes - 1, and no node of degree above 3
    if sum(degrees) != 2 * (size - 1) or max(degrees) > 3:
        return None
    multiple = []
    for i in nodes:
        for j in neighbors[i]:
            bond = c[i][j] * c[j][i]
            if bond > 3:
                return None
            if bond > 1 and i < j:
                multiple.append((i, j, bond))
    branches = [i for i, d in zip(nodes, degrees) if d == 3]
    if len(multiple) + len(branches) > 1:
        return None
    if branches:
        # arms of a, b, c nodes need 1/(a+1) + 1/(b+1) + 1/(c+1) > 1
        center = branches[0]
        arms = sorted(_arm_length(neighbors, center, j) for j in neighbors[center])
        p, q, r = (a + 1 for a in arms)
        if q * r + p * r + p * q <= p * q * r:
            return None
        return f"{'D' if arms[1] == 1 else 'E'}{size}"
    if not multiple:
        return f"A{size}"
    i, j, bond = multiple[0]
    if bond == 3:
        return "G2" if size == 2 else None
    if size == 2:
        return "B2"
    if len(neighbors[i]) == 2 and len(neighbors[j]) == 2:
        return "F4" if size == 4 else None
    leaf, inner = (i, j) if len(neighbors[i]) == 1 else (j, i)
    # B_n has its short simple root at the leaf: <coroot_leaf, root_inner> = -2
    return f"{'B' if c[leaf][inner] == -2 else 'C'}{size}"


def _arm_length(neighbors: list[list[int]], prev: int, node: int) -> int:
    """Nodes on the path that leaves ``prev`` through ``node``."""
    length = 1
    while len(neighbors[node]) == 2:
        a, b = neighbors[node]
        prev, node = node, b if a == prev else a
        length += 1
    return length


@dataclass(frozen=True)
class RootDatum:
    """Character lattice Z^rank with simple roots and simple coroots.

    The pairing matrix <coroot_i, root_j> must be a Cartan matrix of
    finite type: diagonal 2, nonpositive off-diagonal entries with
    symmetric zeros, and every component of its Dynkin diagram one of
    A_n, B_n, C_n, D_n, E_6-8, F_4 and G_2.  Such a matrix is
    nonsingular, so both families are linearly independent.  A torus is
    the case of no roots at all.
    """

    rank: int
    simple_roots: tuple[tuple[int, ...], ...] = ()
    simple_coroots: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        for name in ("simple_roots", "simple_coroots"):
            vectors = []
            for raw in getattr(self, name):
                v = tuple(raw)
                # only a vector holding a non-int pays for the per-entry check
                if not _INT_ONLY.issuperset(map(type, v)):
                    for x in v:
                        _check_int(x)
                vectors.append(v)
            object.__setattr__(self, name, tuple(vectors))
        self._check()

    @classmethod
    def _trusted(
        cls,
        rank: int,
        simple_roots: tuple[tuple[int, ...], ...],
        simple_coroots: tuple[tuple[int, ...], ...],
    ) -> "RootDatum":
        """A datum whose vectors are tuples of ints by construction or by an
        earlier check: every check of ``__init__`` but the entry types."""
        rd = object.__new__(cls)
        object.__setattr__(rd, "rank", rank)
        object.__setattr__(rd, "simple_roots", simple_roots)
        object.__setattr__(rd, "simple_coroots", simple_coroots)
        rd._check()
        return rd

    def _check(self) -> None:
        """The checks of the rank, the shapes and the pairing matrix."""
        _check_count(self.rank, "rank")
        roots, coroots = self.simple_roots, self.simple_coroots
        if len(roots) != len(coroots):
            raise DimensionError(
                f"{len(roots)} simple roots against {len(coroots)} simple coroots"
            )
        for v in roots + coroots:
            if len(v) != self.rank:
                raise DimensionError(
                    f"root or coroot of length {len(v)}, expected {self.rank}"
                )
        # row i of the pairing as its nonzero entries {j: <coroot_i, root_j>},
        # summed over the nonzero entries of the coroot and of the root
        # matrix's rows, which are listed once.  Row i is checked before row
        # i + 1 is built, so data that fail early pay for a row of the
        # product, not all of it
        support = _support(self.root_matrix().entries)
        pairings: list[dict[int, int]] = []
        for i, coroot in enumerate(coroots):
            row: dict[int, int] = {}
            for t in compress(range(self.rank), coroot):
                x = coroot[t]
                for j, y in support[t]:
                    row[j] = row.get(j, 0) + x * y
            row = {j: x for j, x in row.items() if x}
            pairings.append(row)
            # the first offender in row order is the least j where the
            # diagonal is not 2 or an entry off it is positive
            bad = [j for j, x in row.items() if x > 0 and j != i]
            if row.get(i) != 2:
                bad.append(i)
            if bad:
                j = min(bad)
                if i == j:
                    raise ValueError(
                        f"<coroot_{i}, root_{i}> = {row.get(i, 0)}, expected 2"
                    )
                raise ValueError(f"<coroot_{i}, root_{j}> = {row[j]} is positive")
        # a nonzero pairing whose mirror is 0 makes both of its places
        # asymmetric; the first offender in row-major order is the least
        asymmetric = [
            min((i, j), (j, i))
            for i, row in enumerate(pairings)
            for j in row
            if i not in pairings[j]
        ]
        if asymmetric:
            i, j = min(asymmetric)
            raise ValueError(f"pairing zeros are asymmetric at ({i}, {j})")
        # a Cartan matrix of finite type is nonsingular, and its rank is at
        # most that of the roots and of the coroots, so both are independent
        _dynkin_types(pairings)

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def root_matrix(self) -> IntMatrix:
        """rank x n matrix whose columns are the simple roots."""
        return IntMatrix._trusted(
            self.semisimple_rank, self.rank, self.simple_roots
        ).transpose()

    def coroot_matrix(self) -> IntMatrix:
        """n x rank matrix whose rows are the simple coroots."""
        return IntMatrix._trusted(
            self.semisimple_rank, self.rank, self.simple_coroots
        )

    def pairing_matrix(self) -> IntMatrix:
        return self.coroot_matrix() @ self.root_matrix()


def build_standard(
    series: str,
    rank: int,
    isogeny: str,
    central_torus_rank: int = 0,
) -> RootDatum:
    """Simply connected or adjoint datum of a simple type, times a torus.

    Simply connected: the fundamental weights are the standard basis, so
    the simple roots are the Cartan matrix columns and the coroots are the
    standard covectors.  Adjoint: the simple roots are the standard basis
    and the coroots are the Cartan matrix rows.  A central torus appends
    coordinates on which all roots and coroots vanish.
    """
    _check_count(central_torus_rank, "central torus rank")
    c = cartan_matrix(series, rank)
    n = rank
    pad = (0,) * central_torus_rank
    if isogeny == SIMPLY_CONNECTED:
        roots = tuple(c.column(j) + pad for j in range(n))
        coroots = tuple(
            tuple(int(i == j) for j in range(n)) + pad for i in range(n)
        )
    elif isogeny == ADJOINT:
        roots = tuple(tuple(int(i == j) for j in range(n)) + pad for i in range(n))
        coroots = tuple(c[i] + pad for i in range(n))
    else:
        raise ValueError(
            f"isogeny must be {SIMPLY_CONNECTED!r} or {ADJOINT!r}, got {isogeny!r}"
        )
    return RootDatum._trusted(n + central_torus_rank, roots, coroots)


def restrict_coroots(rd: RootDatum, embedding: IntMatrix) -> IntMatrix:
    """Coroot functionals composed with a full-column-rank embedding.

    ``embedding`` columns are the basis of a sublattice written in the
    coordinates of the character lattice; row i of the result is coroot i
    evaluated on that basis.
    """
    if embedding.rows != rd.rank:
        raise DimensionError(
            f"embedding has {embedding.rows} rows, expected {rd.rank}"
        )
    if not _full_column_rank(embedding):
        raise ValueError("embedding is rank-deficient")
    return rd.coroot_matrix() @ embedding
