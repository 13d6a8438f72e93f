"""Saturations of integer functionals and their finite quotients.

:func:`dual_saturation` computes the subgroup of Q^r on which a family
of integer functionals stays integral, as a :class:`SaturatedSet`; its
quotient by Z^r is described by a :class:`FinGenAbQuotient` as a
divisible rank plus a chain of invariant factors.  Rational coordinates
use :class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .arith import _check_char_exponent, _check_count
from .intmat import DimensionError, IntMatrix, SnfResult, snf

Vector = tuple[Fraction, ...]


def _vec(entries: Iterable) -> Vector:
    return tuple(Fraction(x) for x in entries)


def _factor_chain(factors: Iterable[int]) -> tuple[int, ...]:
    """The factors as a tuple of ints >= 2 forming an ascending divisibility chain."""
    chain = tuple(factors)
    for d in chain:
        if not isinstance(d, int) or isinstance(d, bool):
            raise TypeError(
                f"invariant factors must be ints, got {type(d).__name__}"
            )
        if d < 2:
            raise ValueError(f"invariant factor {d} is not >= 2")
    for a, b in zip(chain, chain[1:]):
        if b % a:
            raise ValueError(f"invariant factors {chain} are not a divisibility chain")
    return chain


@dataclass(frozen=True)
class FinGenAbQuotient:
    """Quotient shape: ``(Q/Z)^divisible_rank x prod Z/d_i``.

    The invariant factors form an ascending divisibility chain with every
    factor at least 2; trivial factors are never stored.
    """

    divisible_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_count(self.divisible_rank, "divisible rank")
        object.__setattr__(
            self, "invariant_factors", _factor_chain(self.invariant_factors)
        )

    @property
    def is_finite(self) -> bool:
        return self.divisible_rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.divisible_rank == 0 and not self.invariant_factors

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("quotient with divisible part has no finite order")
        return math.prod(self.invariant_factors)


@dataclass(frozen=True)
class SaturatedSet:
    """A saturation inside Q^r: finite directions plus a divisible subspace.

    The set consists of all integer combinations of the finite direction
    basis plus arbitrary rational combinations of the divisible subspace
    basis.  Both bases are jointly independent.
    """

    finite_direction_basis: tuple[Vector, ...]
    divisible_subspace_basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        for name in ("finite_direction_basis", "divisible_subspace_basis"):
            object.__setattr__(self, name, tuple(_vec(v) for v in getattr(self, name)))


def dual_saturation(
    r: int, functionals: IntMatrix
) -> tuple[SaturatedSet, FinGenAbQuotient]:
    """All of Q^r where every functional row takes integer values.

    The rows of ``functionals`` are integer linear forms on the reference
    lattice Z^r.  Writing U F V = S for the Smith form of the functional
    matrix and substituting x = V y turns the integrality conditions into
    ``s_i * y_i`` integral, so the saturation is spanned by the columns of
    V scaled by 1/s_i (finite directions) together with the kernel columns
    (divisible directions).  The quotient by Z^r is (Q/Z)^(r - rank) times
    the product of Z/s_i over the elementary divisors exceeding 1.
    """
    if functionals.cols != r:
        raise DimensionError(
            f"functionals have {functionals.cols} columns, expected {r}"
        )
    res = snf(functionals, with_u=False)
    finite: list[Vector] = []
    for i in range(res.rank):
        s_i = res.S[i][i]
        finite.append(tuple(Fraction(x, s_i) for x in res.V.column(i)))
    divisible = [
        tuple(Fraction(x) for x in res.V.column(i)) for i in range(res.rank, r)
    ]
    return SaturatedSet(tuple(finite), tuple(divisible)), smith_quotient(res)


def smith_quotient(res: SnfResult) -> FinGenAbQuotient:
    """Quotient by Z^r of the dual saturation, read off the functionals' Smith form."""
    factors = tuple(s for s in res.diagonal()[: res.rank] if s > 1)
    return FinGenAbQuotient(res.S.cols - res.rank, factors)


def p_prime_part(q: FinGenAbQuotient, p: int) -> FinGenAbQuotient:
    """Strip the p-part of every invariant factor; p = 1 keeps everything."""
    _check_char_exponent(p)
    if p == 1:
        return q
    factors = []
    for d in q.invariant_factors:
        while d % p == 0:
            d //= p
        if d > 1:
            factors.append(d)
    return FinGenAbQuotient(q.divisible_rank, tuple(factors))
