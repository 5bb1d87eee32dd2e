"""Prime divisors, prime-power tests and small number-theory helpers."""

from __future__ import annotations

import functools
import math


def is_prime(n: int) -> bool:
    """Trial division up to the square root of n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@functools.lru_cache(maxsize=None)
def prime_divisors(n: int) -> tuple:
    """The prime divisors of ``n >= 1``, ascending, by trial division up to
    the square root of what is left of n.

    The numbers factored are orders, element orders and indices in
    permutation groups: every prime dividing one is at most the degree, so
    trial division is quick.  Memoised: the arguments are a small set, and
    the tuple result is immutable.
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


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
def is_prime_power(n: int) -> bool:
    """True iff ``n >= 1`` is a power of a single prime; 1 is a power of every
    prime.  Memoised like :func:`prime_divisors`."""
    return len(prime_divisors(n)) <= 1
