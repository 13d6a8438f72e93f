"""The pipeline: from a spherical datum to component and fundamental groups.

A :class:`SphericalDatum` packages a root datum, the weight lattice of
the homogeneous space embedded into the group's character lattice, the
color functionals evaluated on the weight basis, and the characteristic
exponent p.  From it we compute, in the coordinates of the weight basis:

* the color saturation: all fractional weights on which every color
  functional is integral;
* its restriction to the ambient character lattice, obtained by imposing
  integrality of the embedding coordinates as additional functionals,
  whose quotient is read off the Smith form of the colors;
* the prime-to-p parts of pi0 (of the isotropy group) and pi1 (of the
  space) as the p'-parts of those two quotients, with each divisible
  quotient direction contributing one profinite prime-to-p factor to pi1.

Everything before the final p'-extraction is characteristic-free.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .arith import _check_char_exponent
from .intmat import DimensionError, IntMatrix, SnfResult, _rank, snf, stack_rows
from .lattices import (
    FinGenAbQuotient,
    SaturatedSet,
    _check_rank,
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
        if _rank(self.lattice_embedding) != self.lattice_embedding.cols:
            raise ValueError("lattice embedding is rank-deficient")
        _check_char_exponent(self.char_exponent)

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
        _check_rank(self.zhat_rank, "zhat rank")
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
    """Run the input sanity checks.

    The structural checks (embedding rank, characteristic exponent) are
    enforced at construction already and are reported as passes.  The
    substantial check is that every simple coroot, restricted to the
    weight lattice, is an integer combination of the color functionals;
    genuine homogeneous data always satisfies it, so a failure is a
    warning, which :func:`_require_pass` turns into an error.
    """
    return _checks(sd, snf(sd.colors, with_u=False))


def _require_pass(outcomes: tuple[CheckOutcome, ...]) -> None:
    """Raise :class:`ValidationError` naming every outcome that did not pass."""
    if any(o.level != PASS for o in outcomes):
        raise ValidationError(
            "; ".join(o.message for o in outcomes if o.level != PASS)
        )


def _checks(sd: SphericalDatum, colors_snf: SnfResult) -> tuple[CheckOutcome, ...]:
    """The outcomes of :func:`validate`, given the Smith form U F V = S of the colors.

    A restricted coroot c is an integer combination of the rows of F
    exactly when c V = z S for an integer row z, that is when (c V)_j is
    divisible by s_j below the rank and zero from the rank on.
    """
    outcomes = [
        CheckOutcome(
            "embedding-rank",
            PASS,
            f"lattice embedding has full column rank {sd.rank}",
        )
    ]
    rank = colors_snf.rank
    diag = colors_snf.diagonal()
    restricted = sd.root_datum.coroot_matrix() @ sd.lattice_embedding
    bad = [
        i
        for i, row in enumerate((restricted @ colors_snf.V).entries)
        if any(x % diag[j] if j < rank else x for j, x in enumerate(row))
    ]
    if bad:
        indices = ", ".join(str(i) for i in bad)
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
    outcomes.append(
        CheckOutcome(
            "char-exponent",
            PASS,
            "characteristic exponent is 1 (characteristic zero)"
            if sd.char_exponent == 1
            else f"characteristic exponent {sd.char_exponent} is prime",
        )
    )
    return tuple(outcomes)


def color_saturation(sd: SphericalDatum) -> tuple[SaturatedSet, FinGenAbQuotient]:
    """Fractional weights on which every color functional is integral.

    Returned in weight-basis coordinates; the quotient is taken over the
    weight lattice itself.
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
    quotient over the weight lattice is always finite.
    """
    return dual_saturation(sd.rank, stack_rows(sd.colors, sd.lattice_embedding))


def _ambient_quotient(sd: SphericalDatum, colors_snf: SnfResult) -> FinGenAbQuotient:
    """The ambient quotient, read off the Smith form U F V = S of the colors.

    It is the quotient of the saturation of [F; E], whose invariant
    factors are those of [S; E V]: U acts on the rows of F alone and V
    on the columns of both blocks.  Row j < rho of S is s_j e_j, so
    column j of E V counts mod s_j, and a column with s_j = 1 splits
    off a trivial factor.  What is left is diag(s_j > 1) stacked on
    the nonzero rows of E V, on the columns j < rho with s_j > 1 (taken
    mod s_j) and the kernel columns j >= rho.
    """
    rank = colors_snf.rank
    diag = colors_snf.diagonal()
    kept = [j for j in range(rank) if diag[j] > 1]
    cols = kept + list(range(rank, sd.rank))
    # the modulus of each column; 0 leaves a kernel column as it is
    mods = [diag[j] for j in kept] + [0] * (sd.rank - rank)
    v_cols = IntMatrix._trusted(
        sd.rank,
        len(cols),
        tuple(tuple(row[j] for j in cols) for row in colors_snf.V.entries),
    )
    rows = [
        tuple(s if k == i else 0 for k in range(len(cols)))
        for i, s in enumerate(mods)
        if s
    ]
    for row in (sd.lattice_embedding @ v_cols).entries:
        reduced = tuple(x % s if s else x for x, s in zip(row, mods))
        if any(reduced):
            rows.append(reduced)
    reduced_m = IntMatrix._trusted(len(rows), len(cols), tuple(rows))
    return smith_quotient(snf(reduced_m, with_u=False, with_v=False))


def ambient_saturation_quotient(sd: SphericalDatum) -> FinGenAbQuotient:
    """Quotient of the ambient saturation by the weight lattice.

    Costs the Smith form of the colors with ``V`` and a certificate-free
    one of the small matrix :func:`_ambient_quotient` builds from it.
    """
    return _ambient_quotient(sd, snf(sd.colors, with_u=False))


def _p_prime_pi(q: FinGenAbQuotient, p: int) -> PiResult:
    # each divisible direction of q contributes one profinite factor
    return PiResult(q.divisible_rank, p_prime_part(q, p).invariant_factors, p)


def pi0_p_prime(sd: SphericalDatum) -> PiResult:
    """Prime-to-p part of the component group of the isotropy subgroup.

    This is the p'-part of the finite quotient of the ambient saturation
    by the weight lattice, read off the colors' Smith form as in
    :func:`ambient_saturation_quotient`; the p-part of pi0 is not
    determined by the datum.
    """
    return _p_prime_pi(ambient_saturation_quotient(sd), sd.char_exponent)


def pi1_p_prime(sd: SphericalDatum) -> PiResult:
    """Prime-to-p part of the etale fundamental group of the space.

    Finite invariant factors of the color saturation quotient contribute
    their p'-parts; every divisible direction contributes one profinite
    prime-to-p factor.
    """
    colors_snf = snf(sd.colors, with_u=False, with_v=False)
    return _p_prime_pi(smith_quotient(colors_snf), sd.char_exponent)


def full_report(sd: SphericalDatum) -> Report:
    """Validate and run the whole pipeline from two Smith forms.

    The Smith form U F V = S of the colors gives the coroot-span check
    and the color saturation quotient.  Its invariant factors and ``V``
    reduce the ambient quotient to the certificate-free Smith form of a
    small matrix (see :func:`_ambient_quotient`).  pi1 and pi0 are the
    p'-parts of the two quotients.  A failed coroot-span check is a
    warning in ``validation``.
    """
    colors_snf = snf(sd.colors, with_u=False)
    sat_q = smith_quotient(colors_snf)
    amb_q = _ambient_quotient(sd, colors_snf)
    return Report(
        datum=sd,
        saturation_quotient=sat_q,
        ambient_saturation_quotient=amb_q,
        pi0=_p_prime_pi(amb_q, sd.char_exponent),
        pi1=_p_prime_pi(sat_q, sd.char_exponent),
        validation=_checks(sd, colors_snf),
    )
