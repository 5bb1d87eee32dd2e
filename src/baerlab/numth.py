"""Prime-power classification and small number-theory helpers."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PrimePower:
    """Outcome of classifying a natural number as a prime power.

    The value 1 counts as a power of every prime: ``is_one`` flags that case
    and ``prime`` is left unset.
    """

    is_prime_power: bool
    prime: int | None
    exponent: int
    is_one: bool = False

    def compatible_with(self, p: int) -> bool:
        """True iff the classified value is a power of the given prime."""
        return self.is_one or (self.is_prime_power and self.prime == p)


def is_prime(n: int) -> bool:
    """Trial division up to the square root of n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_factorization(n: int) -> dict:
    """Map prime -> exponent for n >= 1, ascending, by trial division up to
    the square root of what is left of n.

    The numbers factored are orders, element orders and indices in
    permutation groups: every prime dividing one is at most the degree, so
    trial division is quick.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


@functools.lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple:
    """The set of prime divisors of n, ascending.

    Memoised like :func:`classify_prime_power`: the arguments are group and
    subgroup orders, a small set, and the tuple result is immutable.
    """
    return tuple(prime_factorization(n))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def pi_part(n: int, pi) -> int:
    """Largest divisor of n whose prime divisors all lie in pi."""
    out = 1
    for p in pi:
        out *= p_part(n, p)
    return out


def is_p_number(n: int, p: int) -> bool:
    """True iff ``n >= 1`` is a power of ``p`` (1 included)."""
    while n % p == 0:
        n //= p
    return n == 1


def is_pi_number(n: int, pi) -> bool:
    return pi_part(n, pi) == n


@functools.lru_cache(maxsize=None)
def classify_prime_power(n: int) -> PrimePower:
    """Classify ``n >= 1``; 1 is a power of every prime by convention.

    Memoised: the arguments are group orders, element orders and indices,
    a small set, and the frozen result is safe to share.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n == 1:
        return PrimePower(True, None, 0, is_one=True)
    factors = prime_factorization(n)
    if len(factors) == 1:
        ((p, k),) = factors.items()
        return PrimePower(True, p, k)
    return PrimePower(False, None, 0)
