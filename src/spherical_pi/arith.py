"""Small number-theoretic helpers and the one rule for counts.

Everything here runs at desk scale (characteristic exponents below
2**32, torsion moduli below the enumeration budget), so plain trial
division is enough.
"""

from __future__ import annotations

# characteristic exponents stay below this, so the primality check of p
# costs at most about 2**15 trial divisions
_CHAR_EXPONENT_CAP = 2**32


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


def _prime_powers(n: int) -> list[int]:
    """The prime powers q exactly dividing n >= 1 (q || n), by ascending prime.

    Trial division up to sqrt(n); their product is n, so 1 has none.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    parts: list[int] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            parts.append(q)
        p += 1
    if n > 1:
        parts.append(n)
    return parts


def _check_count(n: object, name: str) -> None:
    """Raise unless n is a nonnegative int (a bool is not)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")


def _check_char_exponent(p: object) -> None:
    """Raise ValueError unless p is 1 or a prime below the cap (a bool is neither)."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError(f"characteristic exponent must be a positive int, got {p!r}")
    if p >= _CHAR_EXPONENT_CAP:
        raise ValueError(
            f"characteristic exponent must be below {_CHAR_EXPONENT_CAP}, got {p}"
        )
    if p != 1 and not is_prime(p):
        raise ValueError(f"characteristic exponent must be 1 or a prime, got {p}")
