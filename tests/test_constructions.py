import math
import random
import re
import string

import pytest

from baerlab import constructions
from baerlab.constructions import (
    SpecError,
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    evaluate_word,
    frobenius,
    parse_group_spec,
    semilinear,
    subgroup_from_words,
    symmetric,
    wreath,
)
from baerlab.errors import CapExceeded
from baerlab.group import Subgroup, class_index
from baerlab.perm import element_order


def exponent(G):
    return math.lcm(*(e.order() for e in G.elements))


def is_abelian_brute(G):
    els = G.elements
    return all(a * b == b * a for a in els for b in els)


def test_order_formulas_match_closure():
    matrix = [
        cyclic(1), cyclic(2), cyclic(7), cyclic(12),
        dihedral(4), dihedral(6), dihedral(10), dihedral(22),
        symmetric(1), symmetric(2), symmetric(3), symmetric(4),
        elem_abelian(2, 1), elem_abelian(2, 3), elem_abelian(3, 2),
        frobenius(7, 1), frobenius(7, 2), frobenius(7, 3), frobenius(11, 5), frobenius(11, 2),
        semilinear(2, 1), semilinear(3, 1), semilinear(2, 2), semilinear(2, 3), semilinear(3, 2),
    ]
    for G in matrix:
        declared = G.order
        assert len(G.materialize()) == declared, G.name


def test_dihedral_10():
    G = dihedral(10)
    assert (G.order, G.degree) == (10, 5)
    assert not is_abelian_brute(G)


def test_dihedral_validation():
    for bad in (2, 5, 7):
        with pytest.raises(ValueError):
            dihedral(bad)


def test_symmetric_3():
    assert symmetric(3).order == 6


def test_elem_abelian():
    G = elem_abelian(2, 3)
    assert G.order == 8
    assert exponent(G) == 2
    with pytest.raises(ValueError):
        elem_abelian(4, 2)


def test_frobenius():
    assert frobenius(7, 2).order == 14
    assert frobenius(11, 5).order == 55
    assert frobenius(7, 1).order == 7
    assert is_abelian_brute(frobenius(7, 1))
    assert not is_abelian_brute(frobenius(7, 2))
    with pytest.raises(ValueError):
        frobenius(7, 4)
    with pytest.raises(ValueError):
        frobenius(9, 2)


def test_frobenius_nonabelian_iff_q_gt_1():
    for p, q in [(5, 1), (5, 2), (5, 4), (7, 3), (13, 4)]:
        G = frobenius(p, q)
        assert is_abelian_brute(G) == (q == 1)


def test_semilinear_orders_and_degree():
    G = semilinear(2, 3)
    assert (G.order, G.degree) == (168, 8)
    assert semilinear(2, 1).order == 2
    G31 = semilinear(3, 1)
    assert G31.order == 6
    assert not is_abelian_brute(G31)  # isomorphism-invariant fingerprint of sym3


def test_direct_product_basics():
    G = direct_product([symmetric(3), dihedral(10)])
    assert (G.order, G.degree) == (60, 8)
    H = symmetric(3)
    assert direct_product([H]) is H


def test_direct_product_componentwise_class_index():
    # Oracle: componentwise class sizes in a lazy copy equal brute-force
    # sizes in a materialised copy, on products <= 5000.
    pairs = [
        [symmetric(3), dihedral(10)],
        [cyclic(4), symmetric(3)],
        [frobenius(7, 3), cyclic(2)],
        [dihedral(10), dihedral(6), cyclic(3)],
    ]
    for factors in pairs:
        G = direct_product(factors)
        lazy = direct_product(factors)
        assert G.order <= 5000
        for x in G.materialize():
            assert class_index(lazy, x) == G.order // sum(g * x == x * g for g in G.elements)
        assert not lazy.is_materialized


def test_large_direct_product_index_without_enumeration():
    A = direct_product([cyclic(3), frobenius(7, 2), frobenius(11, 5)])
    B = direct_product([cyclic(5), frobenius(7, 3), frobenius(11, 2)])
    G = direct_product([A, B])
    assert G.order == 2310**2 == 5336100
    x = G.generators[1]  # a generator of the [C7]C2 part of A
    assert element_order(x) == 7
    assert class_index(G, x) == 2
    assert not G.is_materialized


def test_wreath_natural_order():
    W = wreath(cyclic(7), symmetric(3), "natural")
    assert (W.order, W.degree) == (7**3 * 6, 21)
    assert len(W.materialize()) == 2058


def test_wreath_regular_c2_c2_is_dihedral_8():
    W = wreath(cyclic(2), cyclic(2), "regular")
    assert W.order == 8
    assert len(W.materialize()) == 8
    assert not is_abelian_brute(W)
    assert exponent(W) == 4


def test_wreath_huge_constructible_but_not_materializable():
    W = wreath(cyclic(7), semilinear(2, 3), "regular")
    assert W.degree == 7 * 168 == 1176
    assert W.order == 7**168 * 168
    with pytest.raises(CapExceeded):
        W.materialize()


def test_wreath_with_parts_factorises():
    W = wreath(cyclic(2), cyclic(2), "regular")
    # The generators are one per block of the base group, then the top group's.
    base = Subgroup.from_generators(W, W.generators[:2])
    top = Subgroup.from_generators(W, W.generators[2:])
    assert base.order == 4
    assert top.order == 2
    assert base.factors is None and base.parent is W
    assert base.intersection(top).order == 1
    assert base.product_order(top) == W.order


def test_subgroup_from_words():
    G = semilinear(2, 3)
    assert subgroup_from_words(G, []).order == 1
    H = subgroup_from_words(G, ["g0", "g1^-1*g0*g1", "g1^-2*g0*g1^2", "g2"])
    assert H.order == 24
    K = subgroup_from_words(G, ["g1"])
    assert K.order == 7
    assert H.product_order(K) == 168


def test_evaluate_word_errors():
    G = symmetric(3)
    with pytest.raises(ValueError):
        evaluate_word(G, "g7")
    with pytest.raises(ValueError):
        evaluate_word(G, "h0")
    assert evaluate_word(G, "g0*g0").is_identity()


def test_parse_group_spec_roundtrips():
    cases = {
        "cyclic(7)": 7,
        "dihedral(10)": 10,
        " symmetric( 3 )": 6,
        "elemabelian(2,3)": 8,
        "frobenius(11,5)": 55,
        "semilinear(2,3)": 168,
        "product(symmetric(3), dihedral(10))": 60,
        "wreath(cyclic(2), cyclic(2), regular)": 8,
        "subgroup(semilinear(2,3); g1)": 7,
        "subgroup(dihedral(10);)": 1,
        "subgroup(semilinear(2,3); g0, g1^-1*g0*g1, g1^-2*g0*g1^2, g2)": 24,
    }
    for text, order in cases.items():
        assert parse_group_spec(text).order == order, text


def test_parse_subgroup_spec_is_generated_by_its_words():
    G = parse_group_spec("subgroup(semilinear(2,4); g0, g1, g2^2)")
    S = semilinear(2, 4)
    assert G.generators == tuple(evaluate_word(S, w) for w in ("g0", "g1", "g2^2"))
    assert G.order == 480


def test_parse_group_spec_errors():
    for bad in [
        "cyclic(7",
        "unknown(3)",
        "product()",
        "wreath(cyclic(2), cyclic(2), sideways)",
        "cyclic(7) trailing",
        "subgroup(cyclic(3); q0)",
        "subgroup(cyclic(3); g 0)",
        "subgroup(cyclic(3); g0,)",
        "subgroup(cyclic(3); g0 g0)",
        "cyclic(x)",
    ]:
        with pytest.raises(SpecError):
            parse_group_spec(bad)


@pytest.mark.parametrize("text, at", [
    ("frobenius(1,5)", "frobenius"),
    ("subgroup(dihedral(1);)", "dihedral"),
    ("cyclic(-3)", "cyclic"),
    ("subgroup(cyclic(3); g7)", "subgroup"),
    ("wreath(cyclic(-3), symmetric(3), naturl)", "cyclic"),
])
def test_a_constructor_error_is_a_spec_error_at_the_constructor(text, at):
    with pytest.raises(SpecError) as raised:
        parse_group_spec(text)
    assert raised.value.pos == text.index(at)


def test_the_docstring_grammar_names_every_constructor():
    grammar = parse_group_spec.__doc__.split("Grammar:")[1]
    assert set(re.findall(r"``(\w+)\(", grammar)) == set(constructions._GRAMMAR)


FUZZ_SPECS = (
    "cyclic(7)", "dihedral(10)", "symmetric(4)", "elemabelian(2,3)", "frobenius(7,3)",
    "semilinear(2,3)", "product(symmetric(3), dihedral(10))",
    "wreath(cyclic(2), cyclic(2), regular)", "wreath(cyclic(3), symmetric(3), natural)",
    "subgroup(semilinear(2,3); g0, g1^-1*g0*g1, g2)",
)


def test_spec_mutants_parse_or_raise_spec_error():
    # One to three deletions, insertions or swaps of neighbours in a valid
    # spec.  No digit is inserted, so no mutant asks for a large group.
    rng = random.Random(20)
    alphabet = sorted(set("".join(FUZZ_SPECS)) - set(string.digits))
    accepted = 0
    for _ in range(2000):
        text = list(rng.choice(FUZZ_SPECS))
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(text)), rng.randrange(3)
            if op == 0:
                del text[i]
            elif op == 1:
                text.insert(i, rng.choice(alphabet))
            elif i + 1 < len(text):
                text[i], text[i + 1] = text[i + 1], text[i]
        try:
            parse_group_spec("".join(text))
            accepted += 1
        except SpecError:
            pass
    assert 0 < accepted < 100


def test_constructors_are_pure():
    a, b = dihedral(10), dihedral(10)
    assert a is not b
    assert a.generators == b.generators


def test_product_subgroup_view_componentwise():
    A = direct_product([cyclic(3), frobenius(7, 2)])
    B = direct_product([cyclic(5), frobenius(7, 3)])
    G = direct_product([A, B])
    emb_a = Subgroup.from_factors(G, [Subgroup.full(A), Subgroup.trivial(B)])
    assert emb_a.order == 42
    for g in emb_a.members():
        assert g in G
