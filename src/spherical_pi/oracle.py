"""Brute-force verification of quotient structure by direct enumeration.

Independent of the normal-form pipeline: the N-torsion of a saturation
quotient is enumerated exhaustively in (1/N)Z^r / Z^r and compared,
order histogram against order histogram, with the prediction coming out
of the invariant factors.  The search meets in the middle, so it touches
N^floor(r/2) + N^ceil(r/2) points; ``ENUMERATION_BUDGET`` bounds the
grid N^r, and so the element list, which is the whole grid when there
are no functionals.  Order histograms determine finite abelian groups of
exponent dividing N up to isomorphism, so a histogram match is an
isomorphism check without constructing the isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, prod

from .arith import divisors
from .intmat import IntMatrix
from .lattices import FinGenAbQuotient

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(ValueError):
    """The requested enumeration would exceed the hard budget."""


@dataclass(frozen=True)
class TorsionGroupSample:
    """Explicit N-torsion subgroup of a saturation quotient.

    ``elements`` holds the numerator vectors a (lexicographically sorted)
    of the representatives a / modulus in [0, 1)^r that satisfy all
    functional constraints.
    """

    modulus: int
    elements: tuple[tuple[int, ...], ...]
    order_histogram: dict[int, int]


def _check_modulus(modulus: object) -> None:
    """Raise unless the modulus is an int from 1 to ``ENUMERATION_BUDGET``.

    A bool is not an int here.  The budget bounds the modulus itself, not
    only the grid, because with no columns the grid is one point for any
    modulus, while ``structure_match`` lists the modulus's divisors.
    """
    if not isinstance(modulus, int) or isinstance(modulus, bool):
        raise TypeError(f"modulus must be an int, got {type(modulus).__name__}")
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"modulus {modulus} exceeds the enumeration budget of {ENUMERATION_BUDGET}"
        )


def enumerate_torsion(functionals: IntMatrix, modulus: int) -> TorsionGroupSample:
    """All x in (1/modulus)Z^r / Z^r with every functional integral on x.

    Meets in the middle: every numerator vector is a = (prefix, suffix),
    split after the first h = r // 2 columns, and F a = 0 mod modulus
    exactly when the residue of the suffix is the negative of the residue
    of the prefix.  The suffixes are walked once and filed by residue,
    then each prefix picks out its partners, so the walk touches
    ``modulus**h + modulus**(r - h)`` points and no Smith form is used.
    ``ENUMERATION_BUDGET`` still bounds the whole grid ``modulus**r``,
    since with no functionals every grid point is an element.
    """
    _check_modulus(modulus)
    r = functionals.cols
    m = functionals.rows
    if modulus**r > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{modulus}^{r} grid points exceed the enumeration budget "
            f"of {ENUMERATION_BUDGET}"
        )
    cols = [
        tuple(functionals[i][j] % modulus for i in range(m)) for j in range(r)
    ]

    def partial_sums(
        block: list[tuple[int, ...]],
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        # every numerator vector over the block's columns, in lexicographic
        # order, with its residue F a mod modulus
        sums = [((), (0,) * m)]
        for col in block:
            extended = []
            for head, acc in sums:
                cur = acc
                for a in range(modulus):
                    extended.append((head + (a,), cur))
                    cur = tuple((x + y) % modulus for x, y in zip(cur, col))
            sums = extended
        return sums

    h = r // 2
    suffixes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for suffix, residue in partial_sums(cols[h:]):
        suffixes.setdefault(residue, []).append(suffix)
    elements: list[tuple[int, ...]] = []
    for prefix, residue in partial_sums(cols[:h]):
        partners = suffixes.get(tuple(-x % modulus for x in residue), ())
        elements.extend(prefix + suffix for suffix in partners)
    histogram = Counter(
        modulus // gcd(modulus, *e) if e else 1 for e in elements
    )
    return TorsionGroupSample(modulus, tuple(elements), dict(histogram))


@dataclass(frozen=True)
class MatchResult:
    ok: bool
    mismatches: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _predicted_histogram(predicted: FinGenAbQuotient, modulus: int) -> dict[int, int]:
    # N-torsion of (Q/Z)^a x prod Z/d_i is (Z/N)^a x prod Z/gcd(d_i, N);
    # count elements of order dividing e, then peel off proper divisors
    components = [modulus] * predicted.divisible_rank + [
        gcd(d, modulus) for d in predicted.invariant_factors
    ]
    divs = divisors(modulus)
    dividing = {e: prod(gcd(c, e) for c in components) for e in divs}
    exact: dict[int, int] = {}
    for e in divs:
        exact[e] = dividing[e] - sum(
            exact[d] for d in divs if d < e and e % d == 0
        )
    return {e: c for e, c in exact.items() if c}


def structure_match(
    sample: TorsionGroupSample, predicted: FinGenAbQuotient, modulus: int
) -> MatchResult:
    """Compare a sampled torsion group against a predicted quotient.

    True exactly when the sample's order histogram equals that of the
    modulus-torsion of the predicted group.  The modulus must be the
    sample's: the torsion for another modulus was never enumerated.
    """
    _check_modulus(modulus)
    if modulus != sample.modulus:
        raise ValueError(
            f"modulus {modulus} differs from the sample's modulus {sample.modulus}"
        )
    predicted_hist = _predicted_histogram(predicted, modulus)
    sample_hist = {e: c for e, c in sample.order_histogram.items() if c}
    if predicted_hist == sample_hist:
        return MatchResult(True)
    mismatches = []
    for e in sorted(set(predicted_hist) | set(sample_hist)):
        a = sample_hist.get(e, 0)
        b = predicted_hist.get(e, 0)
        if a != b:
            mismatches.append(
                f"order {e}: sample has {a} elements, predicted group has {b}"
            )
    return MatchResult(False, tuple(mismatches))
