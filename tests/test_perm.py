import math

import pytest
from hypothesis import given, strategies as st

from baerlab.perm import (
    Permutation,
    compose,
    element_order,
    format_cycles,
    identity,
    is_p_element,
    parse_cycles,
)


def perms(max_degree=8):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda n: st.permutations(range(n))
    ).map(Permutation)


def test_identity_compose():
    c = parse_cycles("(0 1 2)")
    assert compose(identity(3), c) == c
    assert compose(c, identity(3)) == c


def test_involution_squares_to_identity():
    t = parse_cycles("(0 1)", degree=2)
    assert compose(t, t) == identity(2)


def test_composition_order_is_apply_left_first():
    # (0 1 2) applied twice sends 0->2, 2->1, 1->0.
    c = parse_cycles("(0 1 2)")
    assert compose(c, c) == parse_cycles("(0 2 1)")
    # Mixed case pinning the order: p then q.
    p = parse_cycles("(0 1)", degree=3)
    q = parse_cycles("(1 2)", degree=3)
    assert compose(p, q)(0) == q(p(0)) == 2


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_bijection_check():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3))


def test_orders():
    assert element_order(identity(5)) == 1
    assert element_order(parse_cycles("(0 1)(2 3 4)")) == 6
    seven = parse_cycles("(0 1 2 3 4 5 6)")
    assert element_order(seven) == 7


def test_is_p_element():
    assert is_p_element(identity(4), 2)
    assert is_p_element(identity(4), 7)
    seven = parse_cycles("(0 1 2 3 4 5 6)")
    assert is_p_element(seven, 7)
    assert not is_p_element(seven, 2)
    assert not is_p_element(parse_cycles("(0 1)(2 3 4)"), 2)


def test_parse_and_format():
    assert format_cycles(identity(4)) == "()"
    assert parse_cycles("()", degree=3) == identity(3)
    assert parse_cycles("( 0 1 2 ) (3 4)") == parse_cycles("(0 1 2)(3 4)")
    assert format_cycles(parse_cycles("(0 1 2)(3 4)")) == "(0 1 2)(3 4)"
    with pytest.raises(ValueError):
        parse_cycles("0 1 2")
    with pytest.raises(ValueError):
        parse_cycles("(0 1) junk")
    with pytest.raises(ValueError):
        parse_cycles("(0 0 1)")
    with pytest.raises(ValueError):
        parse_cycles("(0 5)", degree=3)


@given(perms())
def test_inverse_law(p):
    assert p * p.inverse() == identity(p.degree)
    assert p.inverse() * p == identity(p.degree)


@given(perms())
def test_parse_format_roundtrip(p):
    assert parse_cycles(format_cycles(p), degree=p.degree) == p
    assert eval(repr(p), {"parse_cycles": parse_cycles}) == p


@given(perms(6), perms(6))
def test_composition_pointwise(p, q):
    if p.degree != q.degree:
        return
    r = p * q
    for i in range(p.degree):
        assert r(i) == q(p(i))


@given(perms(6), perms(6), perms(6))
def test_conjugation_is_right_action(x, g, h):
    if not (x.degree == g.degree == h.degree):
        return
    assert x.conjugate(g).conjugate(h) == x.conjugate(g * h)


@given(perms(), st.integers(min_value=-6, max_value=6))
def test_powers(p, k):
    expected = identity(p.degree)
    step = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert p**k == expected


@given(perms())
def test_order_annihilates(p):
    n = p.order()
    assert p**n == identity(p.degree)
    for d in range(1, n):
        if n % d == 0:
            assert p**d != identity(p.degree)
