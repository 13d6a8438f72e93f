"""Brute-force verification of quotient structure by direct enumeration.

Independent of the normal-form pipeline: the N-torsion of a saturation
quotient is enumerated exhaustively in (1/N)Z^r / Z^r and compared,
order histogram against order histogram, with the prediction coming out
of the invariant factors.  The search meets in the middle once per prime
power q || N, so it touches the sum over q of q^floor(r/2) + q^ceil(r/2)
points, and the order histogram is the convolution of those of the
q-torsions.  Each point's residue F a mod q is one int, the residues of
the rows packed side by side, and adding a column to it is one add and a
carry-free wrap of every field at once.  At rank 1 nothing is walked:
the q-torsion is the multiples of q / gcd(q, f_1, ..., f_m).  The
elements are the q-torsion itself when N is a prime power; otherwise
they are the q-torsions combined by CRT and sorted, unless twice their
number exceeds N^floor(r/2) + N^ceil(r/2), when one search at N lists
them instead.  ``ENUMERATION_BUDGET`` bounds the grid N^r, and so the
element list, which is the whole grid when there are no functionals.
Order histograms determine finite abelian groups of exponent dividing N
up to isomorphism, so a histogram match is an isomorphism check without
constructing the isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from operator import add

from .arith import _prime_powers, divisors
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


def _walk(functionals: IntMatrix, modulus: int) -> list[tuple[int, ...]]:
    """Every a in [0, modulus)^r with F a = 0 mod modulus, lexicographically.

    At rank 1 the answer is closed: a is a solution exactly when it is a
    multiple of modulus / gcd(modulus, f_1, ..., f_m), so nothing is
    walked.  Otherwise the walk meets in the middle: every numerator
    vector is a = (prefix, suffix), split after the first h = r // 2
    columns, and F a = 0 mod modulus exactly when the residue of the
    suffix is the negative of the residue of the prefix.  The prefixes are
    walked first, then the suffixes, each filed by the negative of its
    residue when some prefix has that residue, and each prefix picks out
    its partners.  So the walk touches ``modulus**h + modulus**(r - h)``
    points and no Smith form is used.

    A residue F a mod modulus is kept packed in one int, entry i in the
    field of w = modulus.bit_length() + 1 bits at bit i * w.  A sum of two
    residues is below 2 * modulus < 2**w, so adding a packed column never
    carries between fields.  It is wrapped back below the modulus in all
    fields at once (SIMD within a register; Lamport, *Multiple byte
    processing with full-word instructions*, CACM 18(8), 1975): adding
    2**(w-1) - modulus to every field sets a field's top bit exactly when
    its sum reached the modulus, and the modulus is subtracted from those
    fields.  Rows that vanish mod the modulus take no field, and with none
    left every point is a solution.
    """
    r = functionals.cols
    if r == 1:
        step = modulus // gcd(modulus, *functionals.column(0))
        return [(a,) for a in range(0, modulus, step)]
    rows = [row for row in functionals.entries if any(x % modulus for x in row)]
    if not rows:
        return list(product(range(modulus), repeat=r))
    w = modulus.bit_length() + 1
    shift = w - 1
    high = sum(1 << (i * w + shift) for i in range(len(rows)))
    offset = high - (high >> shift) * modulus  # 2**(w-1) - modulus per field

    def column(j: int, sign: int) -> int:
        return sum(
            (sign * row[j] % modulus) << (i * w) for i, row in enumerate(rows)
        )

    def residues(block: list[int]) -> list[int]:
        # the packed residue of every numerator vector over the block's
        # columns, in the lexicographic order of itertools.product
        sums = [0]
        for col in block:
            extended = []
            for cur in sums:
                for _ in range(modulus):
                    extended.append(cur)
                    cur += col
                    cur -= (((cur + offset) & high) >> shift) * modulus
            sums = extended
        return sums

    h = r // 2
    heads = residues([column(j, 1) for j in range(h)])
    # the suffixes of each prefix residue; a suffix no prefix needs is dropped
    partners: dict[int, list[tuple[int, ...]]] = {residue: [] for residue in heads}
    negated = [column(j, -1) for j in range(h, r)]
    for suffix, residue in zip(
        product(range(modulus), repeat=r - h), residues(negated)
    ):
        bucket = partners.get(residue)
        if bucket is not None:
            bucket.append(suffix)
    elements: list[tuple[int, ...]] = []
    for prefix, residue in zip(product(range(modulus), repeat=h), heads):
        bucket = partners[residue]
        if bucket:
            elements.extend(map(prefix.__add__, bucket))
    return elements


def _crt_combine(
    parts: list[int], walks: list[list[tuple[int, ...]]], modulus: int, r: int
) -> list[tuple[int, ...]]:
    """Every sum of e_q c_q mod modulus over one c_q from each walk, sorted.

    e_q is the idempotent that is 1 mod q and 0 mod modulus / q, so the
    sum is the one vector mod modulus that is c_q mod q for every q.  A
    combined element costs about as much as two points of the packed walk
    of :func:`_walk`, so :func:`enumerate_torsion` combines only when twice
    the number of elements is at most the points of a walk at the modulus.
    """
    reduce = modulus.__rmod__
    combined = [(0,) * r]
    for q, walk in zip(parts, walks):
        rest = modulus // q
        e = rest * pow(rest, -1, q) % modulus
        scaled = [tuple(map(reduce, map(e.__mul__, c))) for c in walk]
        combined = [
            tuple(map(reduce, map(add, a, b))) for a in combined for b in scaled
        ]
    combined.sort()
    return combined


def enumerate_torsion(functionals: IntMatrix, modulus: int) -> TorsionGroupSample:
    """All x in (1/modulus)Z^r / Z^r with every functional integral on x.

    By CRT the group is the product of its q-torsions over the prime
    powers q || modulus, and the order of an element is the product of the
    orders of its parts.  So the walk of :func:`_walk` runs once per q,
    touching the sum over q || modulus of ``q**h + q**(r - h)`` points
    (h = r // 2), or none at rank 1, and the order histogram is the
    convolution of the histograms of the parts.  The elements are the
    walk's own for a prime power.  For several q they are the parts
    combined by CRT and sorted once, when ``2 * prod |S_q|`` is at most the
    ``modulus**h + modulus**(r - h)`` points of a walk at the full
    modulus: a combined element costs about two points of the packed walk.
    Otherwise that walk lists them in order and computes no orders.  No
    Smith form is used.  ``ENUMERATION_BUDGET`` still bounds the whole
    grid ``modulus**r``, since with no functionals every grid point is an
    element.
    """
    _check_modulus(modulus)
    r = functionals.cols
    if modulus**r > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{modulus}^{r} grid points exceed the enumeration budget "
            f"of {ENUMERATION_BUDGET}"
        )
    parts = _prime_powers(modulus)
    walks = [_walk(functionals, q) for q in parts]
    histogram = {1: 1}
    for q, walk in zip(parts, walks):
        # orders from different parts are coprime, so each product e1 * e2
        # comes from one pair of orders
        part = Counter(q // gcd(q, *c) for c in walk)
        histogram = {
            e1 * e2: c1 * c2
            for e1, c1 in histogram.items()
            for e2, c2 in part.items()
        }
    h = r // 2
    if len(walks) == 1:
        elements = walks[0]
    elif 2 * prod(map(len, walks)) <= modulus**h + modulus ** (r - h):
        elements = _crt_combine(parts, walks, modulus, r)
    else:
        elements = _walk(functionals, modulus)
    return TorsionGroupSample(modulus, tuple(elements), histogram)


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
