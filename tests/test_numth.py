import math

import pytest
from hypothesis import given, strategies as st

from baerlab.numth import (
    is_p_number,
    is_pi_number,
    is_prime,
    is_prime_power,
    p_part,
    pi_part,
    prime_divisors,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_one_is_a_power_of_every_prime():
    assert prime_divisors(1) == ()
    assert is_prime_power(1)


def test_prime_power_test():
    assert prime_divisors(49) == (7,)
    assert is_prime_power(49)
    assert not is_prime_power(15)
    assert prime_divisors(1024) == (2,)
    with pytest.raises(ValueError):
        is_prime_power(0)
    with pytest.raises(ValueError):
        prime_divisors(0)


def test_prime_divisors():
    assert prime_divisors(360) == (2, 3, 5)
    assert prime_divisors(5336100) == (2, 3, 5, 7, 11)
    # Smooth huge integers factor fine.
    assert prime_divisors(7**168 * 168) == (2, 3, 7)


def test_prime_divisors_match_sympy():
    primefactors = pytest.importorskip("sympy").primefactors
    for n in range(1, 20_001):
        expected = tuple(primefactors(n))
        assert prime_divisors(n) == expected, n
        assert is_prime_power(n) == (len(expected) <= 1), n


def test_parts():
    assert p_part(360, 2) == 8
    assert p_part(360, 7) == 1
    assert pi_part(360, {2, 5}) == 40
    assert is_p_number(8, 2)
    assert not is_p_number(12, 2)
    assert is_pi_number(12, {2, 3})
    assert is_pi_number(1, set())


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=12))
def test_prime_powers_roundtrip(p, k):
    assert prime_divisors(p**k) == (p,)
    assert is_prime_power(p**k)
    for q in SMALL_PRIMES:
        if q != p:
            assert not is_prime_power(p**k * q)


@given(st.integers(min_value=1, max_value=100_000))
def test_prime_divisors_reconstruct(n):
    primes = prime_divisors(n)
    assert list(primes) == sorted(set(primes))
    assert all(is_prime(p) for p in primes)
    assert math.prod(p_part(n, p) for p in primes) == n
