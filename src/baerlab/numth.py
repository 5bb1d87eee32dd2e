"""Prime-power classification and small number-theory helpers."""

from __future__ import annotations

import functools
from dataclasses import dataclass

# Factor orders here are always products of small primes; trial division up to
# this bound plus a Miller-Rabin test on the remainder covers everything.
_TRIAL_BOUND = 100_000

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factorization(n: int) -> dict:
    """Map prime -> exponent for n >= 1."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    while p * p <= n and p <= _TRIAL_BOUND:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"cannot factor remaining cofactor {n}")
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> tuple:
    """The set of prime divisors of n, ascending."""
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
    return p_part(n, p) == n


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
