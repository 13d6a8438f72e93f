"""Root data for connected reductive groups.

A :class:`RootDatum` realizes the character lattice of a maximal torus as
Z^rank together with the simple roots (characters) and simple coroots
(cocharacters on that lattice).  Standard simply connected and adjoint
realizations are built from Cartan matrices in Bourbaki numbering; any
other isogeny type can be entered through explicit matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intmat import DimensionError, IntMatrix, _check_int, _rank

SIMPLY_CONNECTED = "simply-connected"
ADJOINT = "adjoint"
_INT_ONLY = frozenset((int,))

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


@dataclass(frozen=True)
class RootDatum:
    """Character lattice Z^rank with simple roots and simple coroots.

    The pairing matrix <coroot_i, root_j> must be a Cartan matrix
    (diagonal 2, nonpositive off-diagonal entries with symmetric zeros)
    and both families must be linearly independent.  A torus is the case
    of no roots at all.
    """

    rank: int
    simple_roots: tuple[tuple[int, ...], ...] = ()
    simple_coroots: tuple[tuple[int, ...], ...] = ()
    label: str = field(default="", compare=False)

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
        if self.rank < 0:
            raise DimensionError("rank must be nonnegative")
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
        n = len(roots)
        root_matrix = self.root_matrix()
        pairings = []
        for i, coroot in enumerate(coroots):
            # row i is checked before row i + 1 is built, so data that fail
            # early pay for a row of the product, not all of it
            row = (IntMatrix._trusted(1, self.rank, (coroot,)) @ root_matrix)[0]
            pairings.append(row)
            for j, pairing in enumerate(row):
                if i == j:
                    if pairing != 2:
                        raise ValueError(
                            f"<coroot_{i}, root_{i}> = {pairing}, expected 2"
                        )
                elif pairing > 0:
                    raise ValueError(
                        f"<coroot_{i}, root_{j}> = {pairing} is positive"
                    )
        for i in range(n):
            for j in range(n):
                if (pairings[i][j] == 0) != (pairings[j][i] == 0):
                    raise ValueError(
                        f"pairing zeros are asymmetric at ({i}, {j})"
                    )
        if n:
            if _rank(root_matrix) != n:
                raise ValueError("simple roots are linearly dependent")
            if _rank(self.coroot_matrix()) != n:
                raise ValueError("simple coroots are linearly dependent")

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
    if central_torus_rank < 0:
        raise ValueError("central torus rank must be nonnegative")
    c = cartan_matrix(series, rank)
    n = rank
    pad = (0,) * central_torus_rank
    if isogeny == SIMPLY_CONNECTED:
        roots = tuple(c.column(j) + pad for j in range(n))
        coroots = tuple(
            tuple(int(i == j) for j in range(n)) + pad for i in range(n)
        )
        tag = "sc"
    elif isogeny == ADJOINT:
        roots = tuple(tuple(int(i == j) for j in range(n)) + pad for i in range(n))
        coroots = tuple(c[i] + pad for i in range(n))
        tag = "ad"
    else:
        raise ValueError(
            f"isogeny must be {SIMPLY_CONNECTED!r} or {ADJOINT!r}, got {isogeny!r}"
        )
    label = f"{series.upper()}{rank}-{tag}"
    if central_torus_rank:
        label += f" x T^{central_torus_rank}"
    return RootDatum(n + central_torus_rank, roots, coroots, label=label)


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
    if _rank(embedding) != embedding.cols:
        raise ValueError("embedding is rank-deficient")
    return rd.coroot_matrix() @ embedding
