"""Small number-theoretic helpers.

Everything here runs at desk scale (characteristic exponents, torsion
moduli below the enumeration budget), so plain trial division is enough.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _check_char_exponent(p: object) -> None:
    """Raise ValueError unless p is the int 1 or a prime (a bool is neither)."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"characteristic exponent must be a positive int, got {p!r}")
    if p != 1 and not is_prime(p):
        raise ValueError(f"characteristic exponent must be 1 or a prime, got {p}")
