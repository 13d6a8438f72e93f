"""The pipeline: from a spherical datum to component and fundamental groups.

A :class:`SphericalDatum` packages a root datum, the weight lattice of
the homogeneous space embedded into the group's character lattice, the
color functionals evaluated on the weight basis, and the characteristic
exponent p.  From it we compute, in the coordinates of the weight basis:

* the color saturation: all fractional weights on which every color
  functional is integral;
* its restriction to the ambient character lattice, obtained by imposing
  integrality of the embedding coordinates as additional functionals;
* the prime-to-p parts of pi0 (of the isotropy group) and pi1 (of the
  space) as the p'-parts of those two quotients, with each divisible
  quotient direction contributing one profinite prime-to-p factor to pi1.

Everything before the final p'-extraction is characteristic-free.  A
datum and the copies :meth:`SphericalDatum.with_char_exponent` makes of
it share that core: the two quotients and the p-free check outcomes.
The first call that reads it fills it, and a report at another p only
projects it.  The core is read off Hermite bases taken modulo a
determinant, with no certificate, for colors of any rank, and the
restricted coroots are divided down the colors' basis (see
:func:`_core`).  Every public entry point that returns a quotient, a pi
or a check outcome projects that core.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import gcd, lcm, prod

from .arith import _check_char_exponent, _check_count
from .intmat import (
    DimensionError,
    IntMatrix,
    _echelon,
    _full_column_rank,
    _hermite_mod,
    _outside_span,
    _remainders,
    snf,
    stack_rows,
)
from .lattices import (
    FinGenAbQuotient,
    SaturatedSet,
    _factor_chain,
    dual_saturation,
    p_prime_part,
    smith_quotient,
)
from .root_data import RootDatum

PASS = "pass"
WARN = "warn"


class ValidationError(ValueError):
    """A strict-mode validation check failed."""


@dataclass(frozen=True)
class SphericalDatum:
    """Input to the pipeline.

    ``lattice_embedding`` is a d x r integer matrix whose columns are the
    weight-basis vectors in character-lattice coordinates (full column
    rank).  ``colors`` is an m x r integer matrix; row D holds the values
    of the color functional D on the weight basis.  ``char_exponent`` is
    1 in characteristic zero and the characteristic otherwise.
    """

    root_datum: RootDatum
    lattice_embedding: IntMatrix
    colors: IntMatrix
    char_exponent: int
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a str, got {type(self.label).__name__}")
        if not self.label.isprintable():
            raise ValueError(f"label must be printable, got {self.label!r}")
        if self.lattice_embedding.rows != self.root_datum.rank:
            raise DimensionError(
                f"lattice embedding has {self.lattice_embedding.rows} rows, "
                f"expected {self.root_datum.rank}"
            )
        if self.colors.cols != self.lattice_embedding.cols:
            raise DimensionError(
                f"colors have {self.colors.cols} columns, expected "
                f"{self.lattice_embedding.cols}"
            )
        if not _full_column_rank(self.lattice_embedding):
            raise ValueError("lattice embedding is rank-deficient")
        _check_char_exponent(self.char_exponent)
        # the characteristic-free core of full_report and the p-free parts of
        # a structured report's input block, each empty until first read; not
        # fields, so ==, hash, repr and replace ignore them
        object.__setattr__(self, "_core", [])
        object.__setattr__(self, "_input_block", [])

    @property
    def rank(self) -> int:
        """Rank r of the weight lattice."""
        return self.lattice_embedding.cols

    @property
    def ambient_rank(self) -> int:
        """Rank d of the character lattice."""
        return self.root_datum.rank

    @property
    def color_count(self) -> int:
        return self.colors.rows

    def with_char_exponent(self, p: int) -> "SphericalDatum":
        """This datum at characteristic exponent ``p``.

        The copy shares the characteristic-free core of :func:`full_report`
        and the rendered input block of a structured report with this
        datum, which every other field, being immutable, makes safe: a
        report of either fills them for both.
        """
        # only p is new: the shapes and the embedding rank were checked
        _check_char_exponent(p)
        out = copy.copy(self)
        object.__setattr__(out, "char_exponent", p)
        return out


@dataclass(frozen=True)
class PiResult:
    """Prime-to-p part of pi0 or pi1.

    ``zhat_rank`` counts profinite prime-to-p factors (always 0 for pi0);
    the invariant factors are coprime to p and form a divisibility chain.
    """

    zhat_rank: int
    invariant_factors: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        _check_count(self.zhat_rank, "zhat rank")
        _check_char_exponent(self.p)
        factors = _factor_chain(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if self.p > 1 and d % self.p == 0:
                raise ValueError(f"invariant factor {d} is divisible by p = {self.p}")

    @property
    def is_trivial(self) -> bool:
        return self.zhat_rank == 0 and not self.invariant_factors


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    level: str
    message: str


@dataclass(frozen=True)
class Report:
    """Everything the pipeline produces for one datum."""

    datum: SphericalDatum
    saturation_quotient: FinGenAbQuotient
    ambient_saturation_quotient: FinGenAbQuotient
    pi0: PiResult
    pi1: PiResult
    validation: tuple[CheckOutcome, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.pi0.zhat_rank != 0:
            raise ValueError("pi0 cannot have profinite factors")


def validate(sd: SphericalDatum) -> tuple[CheckOutcome, ...]:
    """Run the input sanity checks: the ``validation`` of :func:`full_report`.

    The structural checks (embedding rank, characteristic exponent) are
    enforced at construction already and are reported as passes.  The
    substantial check is that every simple coroot, restricted to the
    weight lattice, is an integer combination of the color functionals;
    genuine homogeneous data always satisfies it, so a failure is a
    warning, which :func:`_require_pass` turns into an error.  This
    projects the shared core (see :func:`_core`), so the report and the
    validation cannot disagree.
    """
    return full_report(sd).validation


def _require_pass(outcomes: tuple[CheckOutcome, ...]) -> None:
    """Raise :class:`ValidationError` naming every outcome that did not pass."""
    if any(o.level != PASS for o in outcomes):
        raise ValidationError(
            "; ".join(o.message for o in outcomes if o.level != PASS)
        )


def _checks(sd: SphericalDatum, outside: list[int]) -> tuple[CheckOutcome, ...]:
    """The two outcomes of :func:`validate` that do not depend on p.

    They are the embedding rank, which construction enforced, and the
    coroot span, which fails on the restricted coroots ``outside`` the
    integer row span of the colors.
    """
    outcomes = [
        CheckOutcome(
            "embedding-rank",
            PASS,
            f"lattice embedding has full column rank {sd.rank}",
        )
    ]
    if outside:
        indices = ", ".join(str(i) for i in outside)
        outcomes.append(
            CheckOutcome(
                "coroot-span",
                WARN,
                f"restricted simple coroot(s) {indices} lie outside the "
                "integer row span of the color functionals",
            )
        )
    else:
        outcomes.append(
            CheckOutcome(
                "coroot-span",
                PASS,
                "every simple coroot restricts to an integer combination "
                "of the color functionals",
            )
        )
    return tuple(outcomes)


def color_saturation(sd: SphericalDatum) -> tuple[SaturatedSet, FinGenAbQuotient]:
    """Fractional weights on which every color functional is integral.

    Returned in weight-basis coordinates; the quotient is taken over the
    weight lattice itself.  This is the ``Fraction``-basis verification
    route: no report runs it.
    """
    return dual_saturation(sd.rank, sd.colors)


def ambient_color_saturation(
    sd: SphericalDatum,
) -> tuple[SaturatedSet, FinGenAbQuotient]:
    """Part of the color saturation lying in the ambient character lattice.

    A fractional weight x (weight-basis coordinates) lies in the character
    lattice exactly when its ambient coordinates E x are integral, so the
    intersection is the saturation for the stacked functional matrix
    [colors; embedding].  The embedding has full column rank, hence the
    quotient over the weight lattice is always finite.  This is the
    ``Fraction``-basis verification route: no report runs it.
    """
    return dual_saturation(sd.rank, stack_rows(sd.colors, sd.lattice_embedding))


def ambient_saturation_quotient(sd: SphericalDatum) -> FinGenAbQuotient:
    """Quotient of the ambient saturation by the weight lattice.

    It projects the shared core (see :func:`_core`), which it fills when
    it is empty.
    """
    return _core(sd)[1]


def _p_prime_pi(q: FinGenAbQuotient, p: int) -> PiResult:
    # each divisible direction of q contributes one profinite factor
    return PiResult(q.divisible_rank, p_prime_part(q, p).invariant_factors, p)


def pi0_p_prime(sd: SphericalDatum) -> PiResult:
    """Prime-to-p part of the component group of the isotropy subgroup.

    This is the p'-part of the finite quotient of the ambient saturation
    by the weight lattice, the ``pi0`` of :func:`full_report`, which
    projects the shared core; the p-part of pi0 is not determined by the
    datum.
    """
    return full_report(sd).pi0


def pi1_p_prime(sd: SphericalDatum) -> PiResult:
    """Prime-to-p part of the etale fundamental group of the space.

    Finite invariant factors of the color saturation quotient contribute
    their p'-parts; every divisible direction contributes one profinite
    prime-to-p factor.  This is the ``pi1`` of :func:`full_report`, which
    projects the shared core.
    """
    return full_report(sd).pi1


def _above_one(basis: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The columns j of a Hermite basis with ``h_jj > 1``, and its block on them.

    A column j with ``h_jj = 1`` is the unit vector e_j, since the entries
    above a pivot are reduced mod it, so it and row j split off a trivial
    factor of the quotient, and every other row is 0 at j.
    """
    kept = [j for j, row in enumerate(basis) if row[j] > 1]
    return kept, [[basis[i][j] for j in kept] for i in kept]


def _hermite_quotient(
    block: list[list[int]], divisible_rank: int = 0
) -> FinGenAbQuotient:
    """The quotient of ``Z^r`` by the lattice of a Hermite basis, from its
    ``block`` on the columns with pivots above 1 (see :func:`_above_one`).

    The block's ``divisible_rank`` largest factors are dropped and stand
    for as many divisible directions.
    """
    m = IntMatrix._trusted(len(block), len(block), tuple(map(tuple, block)))
    factors = smith_quotient(snf(m, with_u=False, with_v=False)).invariant_factors
    return FinGenAbQuotient(divisible_rank, factors[: len(factors) - divisible_rank])


def _core(
    sd: SphericalDatum,
) -> tuple[FinGenAbQuotient, FinGenAbQuotient, tuple[CheckOutcome, ...]]:
    """The characteristic-free core of ``sd``, computed on first use.

    It holds the two quotients and the p-free check outcomes.
    ``_echelon`` gives the rank k of the colors F and a k x k minor d;
    below full rank, d is raised to a multiple of the index of L([F; E]),
    a nonsingular r x r minor of E, which has full column rank.  The
    Hermite basis H of ``L(F) + d Z^r`` gives the color quotient: its
    torsion, whose exponent divides d, and ``r - k`` factors d for its
    divisible directions.  ``L([F; E])`` contains ``d Z^r``, so it is the
    lattice of ``[H; E]``.  ``_remainders`` divides the rows of E and
    the restricted coroots down H in one call.  Taking rows of H away
    leaves ``L([H; E])`` as it is, and the remainders of E are 0 at every
    column of H with pivot 1, which splits off (see :func:`_above_one`).
    So the ambient quotient is that of ``Z^K``, for K the columns with
    pivots above 1, by the rows of ``H_KK`` and of those remainders on
    K, whose Hermite basis mod the gcd of ``det H`` and d gives it.  A
    restricted coroot lies in L(F) exactly when its remainder is 0 and
    it lies in the row space of F, which ``L(F) + d Z^r`` meets in L(F).
    The coroot matrix is multiplied by E once, when the datum has
    coroots, and below full rank ``_outside_span`` carries the same rows
    through the elimination of F.
    """
    core = sd._core  # type: ignore[attr-defined]
    if not core:
        colors = sd.colors.entries
        embedding = sd.lattice_embedding.entries
        r = sd.rank
        k, d, elimination = _echelon(colors, r)
        if k < r:
            d = lcm(d, _echelon(embedding, r)[1])
        basis = _hermite_mod(colors, r, d)
        kept, block = _above_one(basis)
        index = prod(row[i] for i, row in enumerate(block))
        restricted = ()
        if sd.root_datum.simple_coroots:
            restricted = (sd.root_datum.coroot_matrix() @ sd.lattice_embedding).entries
        remainders = _remainders(basis, embedding + restricted)
        images = [[row[t] for t in kept] for row in remainders[: len(embedding)]]
        ambient = _hermite_mod(block + images, len(kept), gcd(index, d))
        outside = [i for i, row in enumerate(remainders[len(embedding) :]) if any(row)]
        if k < r and restricted:
            outside = sorted({*outside, *_outside_span(elimination, restricted)})
        quotients = (
            _hermite_quotient(block, r - k),
            _hermite_quotient(_above_one(ambient)[1]),
        )
        core.append(quotients + (_checks(sd, outside),))
    return core[0]


def full_report(sd: SphericalDatum) -> Report:
    """Validate and run the whole pipeline from the characteristic-free core.

    The core (see :func:`_core`) holds the color saturation quotient, the
    ambient one and the embedding-rank and coroot-span outcomes.  It
    costs one determinant (two below full column rank), two Hermite bases
    taken mod a determinant, the second only on the columns where the
    first has a pivot above 1, one division of the embedding's rows and
    the restricted coroots down the first, and two certificate-free Smith
    forms of the bases' blocks with pivots above 1.  The coroots are
    restricted by one product, which costs the nonzero entries of its
    operands; below full column rank, each also takes the steps of the
    elimination of the colors.  pi1 and pi0 are the p'-parts of the two
    quotients.  A failed coroot-span check is a warning in
    ``validation``.

    The core is computed once, by the first call of any public entry point
    on ``sd`` or on a datum it shares its core with (see
    :meth:`SphericalDatum.with_char_exponent`); later calls only project
    it to their own p.
    """
    sat_q, amb_q, outcomes = _core(sd)
    p = sd.char_exponent
    char_check = CheckOutcome(
        "char-exponent",
        PASS,
        "characteristic exponent is 1 (characteristic zero)"
        if p == 1
        else f"characteristic exponent {p} is prime",
    )
    return Report(
        datum=sd,
        saturation_quotient=sat_q,
        ambient_saturation_quotient=amb_q,
        pi0=_p_prime_pi(amb_q, p),
        pi1=_p_prime_pi(sat_q, p),
        validation=outcomes + (char_check,),
    )
