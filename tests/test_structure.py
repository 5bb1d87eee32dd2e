import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from baerlab import structure
from baerlab.constructions import (
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    frobenius,
    parse_group_spec,
    semilinear,
    subgroup_from_words,
    symmetric,
)
from baerlab.errors import CAYLEY_CELL_BUDGET, CapExceeded
from baerlab.group import (
    Group,
    Subgroup,
    _small_generating_ids,
    centraliser,
    class_index,
    closure,
)
from baerlab.numth import (
    classify_prime_power, is_p_number, is_pi_number, p_part, pi_part, prime_divisors
)
from baerlab.perm import Permutation, parse_cycles
from baerlab.structure import (
    Factorisation,
    center,
    derived_subgroup,
    enumerate_subgroups,
    exponent,
    factor_class_sizes,
    factor_sylow,
    factor_sylows,
    find_prefactorised_sylow,
    fitting,
    fitting2,
    hall,
    hall_conjugates,
    is_abelian,
    is_normal,
    is_p_decomposable,
    is_nilpotent,
    normal_closure,
    o_p,
    o_p_prime,
    o_pi,
    pi_of,
    quotient_group,
    sylow,
    sylow_conjugates,
    upper_p_series,
)


def sym3_x_d10():
    return direct_product([symmetric(3), dihedral(10)])


def members_set(S):
    return set(S.members())


def normal_subgroups(G):
    return [N for N in enumerate_subgroups(G) if is_normal(G, N)]


def as_group(S):
    """The subgroup S as a group of its own, on its parent's points."""
    return Group(S.parent.degree, S.generating_set(), order_hint=S.order)


# -- centre, derived subgroup, nilpotency -------------------------------------


def test_center_sym3_trivial():
    assert center(symmetric(3)).order == 1


def test_center_componentwise_matches_plain():
    GA = sym3_x_d10()
    GB = Group(8, GA.generators)  # same group, no product annotation
    assert members_set(center(GA)) == members_set(center(GB))


@pytest.mark.parametrize(
    "G", [symmetric(4), dihedral(10), frobenius(7, 3), semilinear(2, 3)], ids=repr
)
def test_centraliser_orders_match_sympy(G):
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_group(gens):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens]
        )

    SG = sympy_group(G.generators)
    for cls in G.conjugacy_partition():
        x = G.elements[cls[0]]
        assert centraliser(G, [x]).order == SG.centralizer(sympy_group([x])).order()
    for p in pi_of(G):
        P = sylow(G, p)
        assert centraliser(G, P).order == SG.centralizer(sympy_group(P.generating_set())).order()
    assert center(G).order == SG.center().order()


def test_derived_subgroup_sym3():
    G = symmetric(3)
    D = derived_subgroup(G)
    # Oracle: closure of all commutators, elementwise.
    comms = {a.inverse() * b.inverse() * a * b for a in G.elements for b in G.elements}
    brute = set(closure(comms, 100, degree=3))
    assert members_set(D) == brute
    assert D.order == 3


def test_is_nilpotent():
    assert not is_nilpotent(dihedral(10))
    assert fitting(dihedral(10)).order == 5
    assert is_nilpotent(cyclic(12))
    assert is_nilpotent(elem_abelian(2, 3))
    assert not is_nilpotent(symmetric(3))


# -- Sylow ---------------------------------------------------------------------


def test_sylow_orders_are_exact_p_parts():
    for G in [symmetric(3), symmetric(4), dihedral(10), frobenius(7, 3), semilinear(2, 3), sym3_x_d10()]:
        for p in pi_of(G):
            assert sylow(G, p).order == p_part(G.order, p), (G.name, p)


def test_sylow_of_prime_not_dividing():
    assert sylow(symmetric(3), 5).order == 1


def test_sylow_semilinear_is_translation_subgroup():
    G = semilinear(2, 3)
    P = sylow(G, 2)
    assert P.order == 8
    T = subgroup_from_words(G, ["g0", "g1^-1*g0*g1", "g1^-2*g0*g1^2"])
    assert members_set(P) == members_set(T)
    assert is_abelian(P)
    assert exponent(as_group(P)) == 2


def test_sylow_conjugates_share_order():
    G = symmetric(4)
    for p in (2, 3):
        conjs = sylow_conjugates(G, p)
        assert all(Q.order == sylow(G, p).order for Q in conjs)
    assert len(sylow_conjugates(G, 3)) == 4


def test_sylow_reaches_groups_whose_all_rows_table_would_pass_the_budget():
    G, H = semilinear(2, 5), symmetric(7)
    assert min(G.order, H.order) ** 2 > CAYLEY_CELL_BUDGET
    assert sylow(G, 2).order == 32
    assert sylow(H, 2).order == 16


# -- cores ----------------------------------------------------------------------


def test_o_p_examples():
    assert o_p(symmetric(3), 2).order == 1  # three Sylow 2-subgroups intersect trivially
    assert o_p(semilinear(2, 3), 2).order == 8
    A = cyclic(12)
    assert members_set(o_p(A, 2)) == members_set(sylow(A, 2))


def test_o_pi_examples():
    assert o_pi(symmetric(3), {3}).order == 3
    assert o_p_prime(symmetric(3), 2).order == 3
    assert o_p_prime(dihedral(10), 2).order == 5
    G = frobenius(7, 3)
    assert members_set(o_pi(G, pi_of(G))) == set(G.elements)


def lattice_o_pi(G, pi):
    """Oracle: the largest normal pi-subgroup, by a scan of the subgroup lattice."""
    return max(
        (S for S in enumerate_subgroups(G) if is_pi_number(S.order, pi) and is_normal(G, S)),
        key=lambda S: S.order,
    )


def test_o_pi_is_largest_normal_pi_subgroup():
    for G in [symmetric(3), dihedral(10), symmetric(4), frobenius(7, 2), semilinear(2, 3)]:
        for pi in [{2}, {3}, {2, 3}, {5}, {7}, {2, 7}]:
            ours = o_pi(G, pi)
            best = lattice_o_pi(G, pi)
            assert ours.order == best.order
            assert members_set(ours) == members_set(best)


def test_o_p_prime_semilinear_2_4():
    # Closing over one representative per class gives a non-normal subgroup
    # of order 12 here.
    G = semilinear(2, 4)
    core = o_p_prime(G, 5)
    assert core.order == 48
    assert is_normal(G, core)


def test_o_p_prime_grows_one_core_from_few_generators(monkeypatch):
    # Work-count guard: O_{p'} grows one normal core by normal closures of
    # its few generating ids plus one class representative, each extended
    # from the subgroup it already holds.  Closing over every member of every
    # qualifying class took 33, 102 and 116 closures here, on generator lists
    # of up to 159 ids.
    sizes = []
    close = Group.closure_from_gen_ids

    def counted(self, gen_ids, prefix=None):
        sizes.append(len(gen_ids))
        return close(self, gen_ids, prefix)

    monkeypatch.setattr(Group, "closure_from_gen_ids", counted)
    for p, order, calls, longest in [(2, 1, 8, 2), (3, 160, 14, 5), (5, 48, 21, 5)]:
        G = semilinear(2, 4)
        G.materialize()
        sizes.clear()
        assert o_p_prime(G, p).order == order
        assert (len(sizes), max(sizes)) == (calls, longest)


def test_o_p_prime_reaches_order_24192():
    # semilinear(2,6), where O_{p'} used to close over every member of every
    # class whose normal closure is a p'-group.
    G = semilinear(2, 6)
    assert G.order == 24192
    assert [o_p_prime(G, p).order for p in (2, 3, 7)] == [1, 448, 1152]


def test_cores_componentwise_match_plain():
    GA = sym3_x_d10()
    GB = Group(8, GA.generators)
    for p in (2, 3, 5):
        assert members_set(o_p(GA, p)) == members_set(o_p(GB, p))
        assert members_set(o_p_prime(GA, p)) == members_set(o_p_prime(GB, p))
    assert members_set(fitting(GA)) == members_set(fitting(GB))
    assert members_set(fitting2(GA)) == members_set(fitting2(GB))


# -- Fitting subgroups ------------------------------------------------------------


def test_fitting_sym3():
    assert fitting(symmetric(3)).order == 3
    assert fitting2(symmetric(3)).order == 6


def test_fitting_semilinear():
    G = semilinear(2, 3)
    assert fitting(G).order == 8
    assert fitting2(G).order == 56


def test_fitting_of_nilpotent_is_whole():
    G = cyclic(12)
    assert fitting(G).order == 12


# -- quotients ----------------------------------------------------------------------


def test_quotient_by_whole_group():
    G = symmetric(3)
    Q = quotient_group(G, Subgroup.full(G))
    assert Q.group.order == 1


def test_quotient_sym3_by_c3():
    G = symmetric(3)
    Q = quotient_group(G, o_p_prime(G, 2))
    assert Q.group.order == 2


def test_quotient_semilinear_by_o2():
    G = semilinear(2, 3)
    Q = quotient_group(G, o_p(G, 2))
    assert Q.group.order == 21
    assert not is_abelian(Q.group)


def test_quotient_rejects_non_normal():
    G = symmetric(3)
    S = Subgroup.from_generators(G, [G.elements[1]])
    two = next(S for S in enumerate_subgroups(G) if S.order == 2)
    with pytest.raises(ValueError):
        quotient_group(G, two)


def test_quotient_projection_is_homomorphism_with_kernel():
    for G in [symmetric(3), dihedral(10), symmetric(4), frobenius(7, 3)]:
        for N in normal_subgroups(G):
            Q = quotient_group(G, N)
            els = G.elements
            for a in els[:: max(1, len(els) // 12)]:
                for b in els[:: max(1, len(els) // 12)]:
                    assert Q.project(a * b) == Q.project(a) * Q.project(b)
            kernel = {g for g in els if Q.project(g).is_identity()}
            assert kernel == members_set(N)


# -- Hall subgroups -------------------------------------------------------------------


def test_hall_examples():
    G = symmetric(3)
    assert members_set(hall(G, {3})) == members_set(sylow(G, 3))
    S = semilinear(2, 3)
    H = hall(S, {3, 7})
    assert H is not None and H.order == 21
    assert members_set(hall(S, pi_of(S))) == set(S.elements)
    assert hall(G, {5}).order == 1


def test_a_spent_hall_budget_is_a_cap_and_none_a_proven_absence(monkeypatch):
    # symmetric(5) has no Hall {2,5}-subgroup; the search proves it in 1,080
    # budgeted closures.  One fewer is a cap, never a None.
    monkeypatch.setattr(structure, "HALL_BUDGET", 3)
    with pytest.raises(CapExceeded) as exc:
        hall(symmetric(5), {2, 5})
    assert (exc.value.cap, exc.value.partial) == (3, 3)
    monkeypatch.setattr(structure, "HALL_BUDGET", 1_079)
    with pytest.raises(CapExceeded) as exc:
        hall(symmetric(5), {2, 5})
    assert (exc.value.cap, exc.value.partial) == (1_079, 1_079)
    monkeypatch.setattr(structure, "HALL_BUDGET", 1_080)
    assert hall(symmetric(5), {2, 5}) is None
    monkeypatch.undo()
    assert hall(symmetric(5), {2, 5}) is None


def test_hall_p_prime_in_soluble_groups():
    for G in [symmetric(3), dihedral(10), symmetric(4), frobenius(11, 5), sym3_x_d10()]:
        for p in pi_of(G):
            pi = set(pi_of(G)) - {p}
            H = hall(G, pi)
            assert H is not None, (G.name, p)
            assert H.order == G.order // p_part(G.order, p)


# -- decomposability and p-series --------------------------------------------------------


def test_is_p_decomposable():
    A = cyclic(12)
    for p in pi_of(A):
        assert is_p_decomposable(A, p)
    assert not is_p_decomposable(symmetric(3), 2)
    assert not is_p_decomposable(sym3_x_d10(), 2)
    assert is_p_decomposable(symmetric(3), 3) is False  # O_3 = C3 but O_{3'} = 1


def test_p_decomposable_unique_commuting_factorisation():
    G = direct_product([elem_abelian(2, 2), cyclic(3)])
    assert is_p_decomposable(G, 2)
    P, Pp = o_p(G, 2), o_p_prime(G, 2)
    for g in G.elements:
        o = g.order()
        two = g ** (o // p_part(o, 2) * pow(o // p_part(o, 2), -1, p_part(o, 2))) if p_part(o, 2) > 1 else G.identity()
        rest = g * two.inverse()
        assert two in P and rest in Pp
        assert two * rest == rest * two == g


def test_upper_p_series():
    G = symmetric(3)
    s = upper_p_series(G, 2)
    assert s.is_p_soluble and s.p_length == 1
    assert [t.order for t in s.terms] == [1, 3, 6]

    s5 = upper_p_series(G, 5)  # 5 does not divide |G|
    assert s5.is_p_soluble and s5.p_length == 0

    sl = upper_p_series(semilinear(2, 3), 2)
    assert sl.is_p_soluble and sl.p_length == 1


def test_upper_p_series_terms_are_normal_and_increasing():
    for G in [symmetric(4), dihedral(22), frobenius(7, 2), semilinear(3, 2)]:
        for p in pi_of(G):
            s = upper_p_series(G, p)
            orders = [t.order for t in s.terms]
            assert orders == sorted(orders)
            assert len(set(orders)) == len(orders)
            for t in s.terms:
                assert is_normal(G, t)


# -- normal closures ------------------------------------------------------------------


def test_normal_closure_examples():
    G = symmetric(3)
    assert normal_closure(G, [G.identity()]).order == 1
    t = G.generators[0]
    assert normal_closure(G, [t]).order == 6


def test_normal_closure_is_smallest_normal_overgroup():
    for G in [symmetric(4), dihedral(10)]:
        for x in G.elements:
            nc = normal_closure(G, [x])
            assert is_normal(G, nc)
            assert x in nc
            for N in normal_subgroups(G):
                if x in N:
                    assert nc.order <= N.order


def test_p_sylow_times_odd_core_not_normal_in_sym3_x_d10():
    G = sym3_x_d10()
    G.materialize()
    P = sylow(G, 2)
    for q in (3, 5):
        K = Subgroup.from_generators(
            G, list(P.generating_set()) + list(o_p(G, q).generating_set())
        )
        assert K.order == 4 * q
        assert not is_normal(G, K)


def test_product_with_normal_by_blocks_matches_closure():
    from baerlab.baer import _product_with_normal

    G = sym3_x_d10()
    for p in pi_of(G):
        P = sylow(G, p)
        for N in (fitting(G), o_p_prime(G, p)):
            K = _product_with_normal(G, P, N)
            assert K.factor_parents() == G.direct_factors
            closed = Subgroup.from_generators(
                G, list(P.generating_set()) + list(N.generating_set())
            )
            assert members_set(K) == members_set(closed)
            assert is_normal(G, K) == is_normal(G, closed)
    assert not G.is_materialized


@pytest.mark.parametrize(
    "factors",
    [(symmetric, 3, dihedral, 10), (symmetric, 4, cyclic, 3)],
    ids=["sym3_x_d10", "sym4_x_c3"],
)
def test_lazy_product_blocks_match_materialised_product(factors):
    # The same product twice: the lazy copy takes every blockwise route, the
    # materialised copy the whole-group routes.  Unique subgroups, relative
    # cores and upper p-series terms included, must agree as sets, Sylow and
    # Hall subgroups (chosen per route) in order.
    f1, n1, f2, n2 = factors
    lazy = direct_product([f1(n1), f2(n2)])
    whole = direct_product([f1(n1), f2(n2)])
    whole.materialize()
    assert lazy.blocks is not None and whole.blocks is None

    def profile(G):
        primes = pi_of(G)
        pis = [set(c) for k in range(1, len(primes) + 1) for c in itertools.combinations(primes, k)]
        halls = [hall(G, pi) for pi in pis]
        series = [upper_p_series(G, p) for p in primes]
        return {
            "unique": [
                members_set(S)
                for S in [center(G), derived_subgroup(G), fitting(G), fitting2(G)]
                + [o_p(G, p) for p in primes]
                + [o_pi(G, pi) for pi in pis]
                + [o_pi(G, pi, over=fitting(G)) for pi in pis]
                + [centraliser(G, [g]) for g in G.generators]
                + [t for s in series for t in s.terms]
            ],
            "sylow": [sylow(G, p).order for p in primes],
            "hall": [None if H is None else H.order for H in halls],
            "exponent": exponent(G),
            "central_quotient_p_decomposable": [
                is_p_decomposable(G, p, over=centraliser(G, o_p(G, p))) for p in primes
            ],
            "fitting_quotient_abelian": is_abelian(G, over=fitting(G)),
            "p_lengths": [(s.p_length, s.is_p_soluble) for s in series],
        }

    assert profile(lazy) == profile(whole)
    assert not lazy.is_materialized


def product_form_subgroups(G):
    """Every product of subgroups from :func:`enumerate_subgroups` of G's blocks,
    in ``itertools.product`` order."""
    per_block = [enumerate_subgroups(f) for f in G.direct_factors]
    return [Subgroup.from_factors(G, c) for c in itertools.product(*per_block)]


def side_facts(G, subgroups):
    """Per subgroup, its index profiles for ``p=None`` and every prime of G as
    ordered item lists, and its Theorem D side."""
    from baerlab.baer import _side_inheritance, _side_profile

    return [
        ([list(_side_profile(S, p).items()) for p in [None, *pi_of(G)]], _side_inheritance(S))
        for S in subgroups
    ]


@pytest.mark.parametrize(
    "spec",
    [
        "product(symmetric(3),dihedral(10))",
        "product(symmetric(4),cyclic(3))",
        "product(symmetric(3),cyclic(4),dihedral(10))",
    ],
    ids=["sym3_x_d10", "sym4_x_c3", "sym3_x_c4_x_d10"],
)
def test_lazy_product_profiles_normality_and_sylow_conjugates_match_materialised_product(
    spec,
):
    # The lazy copy folds index profiles and Theorem D from its blocks' kinds
    # and reads normality and Sylow conjugates from its blocks; the
    # materialised copy reads them from its own store and table, store id by
    # store id, on id-backed copies of the same subgroups (a product-form
    # subgroup folds whether or not G is materialised).  Blockwise the
    # conjugates come in product order, so they are compared as sets.
    lazy = parse_group_spec(spec)
    whole = parse_group_spec(spec)
    whole.materialize()

    lazy_subs = product_form_subgroups(lazy)
    whole_subs = [Subgroup.from_members(whole, S.members()) for S in product_form_subgroups(whole)]
    assert all(S.factors is None for S in whole_subs)
    facts = side_facts(lazy, lazy_subs)
    assert facts == side_facts(whole, whole_subs)
    assert {side[1] is None for _profiles, side in facts} == {True, False}

    verdicts = [is_normal(lazy, S) for S in lazy_subs]
    assert verdicts == [is_normal(whole, S) for S in whole_subs]
    assert True in verdicts and False in verdicts

    for p in pi_of(lazy):
        conjugates = sylow_conjugates(lazy, p)
        assert members_set(conjugates[0]) == members_set(sylow(lazy, p))
        lazy_sets = [frozenset(Q.members()) for Q in conjugates]
        whole_sets = [frozenset(Q.members()) for Q in sylow_conjugates(whole, p)]
        assert len(set(lazy_sets)) == len(lazy_sets) == len(whole_sets)
        assert set(lazy_sets) == set(whole_sets)
    assert not lazy.is_materialized


def test_nested_lazy_product_profiles_match_flat_materialised_product():
    # product(product(S3, C4), D10) acts on the same 12 points as the flat
    # product(S3, C4, D10).  A product-form subgroup of the nested product
    # whose first block is product-form too folds kinds whose members are
    # tuples of tuples; joined, they are the flat product's members, read by
    # store id on id-backed copies of its product-form subgroups.
    nested = parse_group_spec("product(product(symmetric(3),cyclic(4)),dihedral(10))")
    flat = parse_group_spec("product(symmetric(3),cyclic(4),dihedral(10))")
    flat.materialize()
    inner, outer = nested.direct_factors
    per_block = [enumerate_subgroups(f) for f in (*inner.direct_factors, outer)]
    nested_subs = [
        Subgroup.from_factors(nested, [Subgroup.from_factors(inner, [a, b]), c])
        for a, b, c in itertools.product(*per_block)
    ]
    flat_subs = [Subgroup.from_members(flat, S.members()) for S in product_form_subgroups(flat)]
    assert all(S.factors is None for S in flat_subs)
    assert side_facts(nested, nested_subs) == side_facts(flat, flat_subs)
    assert not nested.is_materialized and not inner.is_materialized


def test_index_profile_of_a_lazy_product_past_the_enumeration_cap_is_folded():
    # Three blocks of order 200 multiply to 8,000,000 members, past the cap:
    # the profile folds the blocks' kinds of 2-elements without listing
    # them.  G is abelian, so every index is 1, and the first 2-element in
    # member order is g^25 of the last block, of order 8.
    from baerlab.baer import check_factor_inheritance, is_p_baer
    from baerlab.errors import ENUMERATION_CAP

    G = direct_product([cyclic(200) for _ in range(3)])
    assert G.order > ENUMERATION_CAP
    status = is_p_baer(Factorisation.trivial(G), 2)
    assert status.is_p_baer
    first = G.embed_factor_element(2, G.direct_factors[2].generators[0] ** 25)
    assert [(w.locus, w.element, w.index) for w in status.witnesses] == [
        ("A", first, 1), ("B", first, 1)
    ]
    # Per side: 8^3 - 1 nontrivial 2-elements and 25^3 - 1 nontrivial 5-elements.
    report = check_factor_inheritance(Factorisation.trivial(G))
    assert report.clauses[0].witness == {"elements_checked": 2 * (8**3 - 1 + 25**3 - 1)}
    assert not G.is_materialized


# -- table routes against brute-force definitions ---------------------------------------


def table_groups():
    G = sym3_x_d10()
    G.materialize()
    return [symmetric(4), frobenius(7, 3), semilinear(2, 3), G]


def brute_is_normal(G, S):
    members = members_set(S)
    return all(x.conjugate(g) in members for x in members for g in G.elements)


def brute_class_size(G, x):
    return len({x.conjugate(g) for g in G.elements})


@pytest.mark.parametrize("G", table_groups(), ids=repr)
def test_is_normal_and_is_abelian_on_the_table_match_brute_force(G):
    subs = enumerate_subgroups(G)
    assert G.is_materialized
    for S in subs:
        assert is_normal(G, S) == brute_is_normal(G, S)
        members = S.members()
        assert is_abelian(S) == all(a * b == b * a for a in members for b in members)


def test_is_normal_rejects_a_subgroup_of_another_group():
    G = symmetric(4)
    G.materialize()
    D8 = as_group(sylow(G, 2))
    assert D8 is not G and D8.degree == G.degree
    verdicts = []
    for S in enumerate_subgroups(D8):
        with pytest.raises(ValueError, match="does not belong"):
            is_normal(G, S)
        verdicts.append(is_normal(G, Subgroup.from_members(G, S.members())))
        assert verdicts[-1] == brute_is_normal(G, S)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("G", table_groups(), ids=repr)
def test_product_with_normal_on_the_table_matches_set_product(G):
    from baerlab.baer import _product_with_normal

    for N in normal_subgroups(G):
        for S in enumerate_subgroups(G)[::7]:
            K = _product_with_normal(G, S, N)
            assert members_set(K) == {s * n for s in S.members() for n in N.members()}


def some_factorisations(G):
    """The trivial factorisation and the first of each shape (|A|, |B|)."""
    out = {(G.order, G.order): Factorisation.trivial(G)}
    for A, B in itertools.combinations(enumerate_subgroups(G)[1:-1], 2):
        shape = (A.order, B.order)
        if shape not in out and A.order * B.order == G.order * A.intersection(B).order:
            out[shape] = Factorisation(G, A, B)
    return list(out.values())


def brute_status(rows):
    """The row scan over ``(locus, x, index)`` rows: the first row whose index
    is no prime power fails; otherwise one witness per (locus, index), the
    first in row order, sorted by (locus, index)."""
    first = {}
    for locus, x, idx in rows:
        if not classify_prime_power(idx).is_prime_power:
            return False, [(locus, x, idx)]
        first.setdefault((locus, idx), x)
    return True, [(locus, x, idx) for (locus, idx), x in sorted(first.items())]


def status_rows(status):
    return [(w.locus, w.element, w.index) for w in status.witnesses]


def brute_kinds(S, p, inner):
    """``{(index in G, class size in S or 1, is the identity): (first member,
    count)}`` over the p-elements of S in member order."""
    kinds = {}
    for x in S.members():
        if is_p_number(x.order(), p):
            key = (brute_class_size(S.parent, x), brute_class_size_in(S, x) if inner else 1,
                   x.is_identity())
            first, n = kinds.get(key, (x, 0))
            kinds[key] = (first, n + 1)
    return kinds


@pytest.mark.parametrize("G", table_groups(), ids=repr)
def test_index_profiles_from_store_ids_match_brute_force(G):
    from baerlab.baer import _kinds, _member, _side_profile, is_baer, is_p_baer

    for F in some_factorisations(G):
        rows = [
            (locus, x, brute_class_size(G, x))
            for locus, sub in F.factors()
            for x in sub.members()
            if x.order() > 1 and classify_prime_power(x.order()).is_prime_power
        ]
        for locus, sub in F.factors():
            side = [(x, idx) for row_locus, x, idx in rows if row_locus == locus]
            for p in [None, *pi_of(G)]:
                first = {}
                for x, idx in side:
                    if p is None or is_p_number(x.order(), p):
                        first.setdefault(idx, x)
                assert list(_side_profile(sub, p).items()) == list(first.items())
                if p is None:
                    continue
                for inner in (False, True):
                    kinds = _kinds(sub, p, inner)
                    assert {key: (_member(x), n) for key, (_pos, x, n) in kinds.items()} == (
                        brute_kinds(sub, p, inner)
                    )
                    by_position = [_member(x) for _pos, x, _n in sorted(kinds.values())]
                    assert by_position == sorted(by_position)
        per_prime, failing = {}, []
        for p in pi_of(G):
            union = brute_status([row for row in rows if is_p_number(row[1].order(), p)])
            got = is_p_baer(F, p, via="union")
            assert (got.is_p_baer, status_rows(got)) == union
            P = find_prefactorised_sylow(F, p)
            sylow_rows = [
                (locus, x, brute_class_size(G, x))
                for locus, sub in F.factors()
                for x in P.intersection(sub).members()
                if x.order() > 1
            ]
            got = is_p_baer(F, p, via="sylow")
            assert (got.is_p_baer, status_rows(got)) == brute_status(sylow_rows)
            per_prime[p] = union[0]
            if not union[0]:
                failing += union[1]
        holds = all(per_prime.values())
        status = is_baer(F)
        assert (status.is_baer, status.per_prime) == (holds, per_prime)
        assert status_rows(status) == (brute_status(rows)[1] if holds else failing)


def test_index_profile_oracle_sees_a_failing_witness():
    # The factorisations above fail as well as pass: the trivial one of
    # symmetric(4) is not 2-Baer, and its first failing row is the
    # transposition (2 3), of index 6.
    from baerlab.baer import is_baer, is_p_baer

    F = some_factorisations(symmetric(4))[0]
    assert F.is_trivial()
    status = is_p_baer(F, 2)
    assert not status.is_p_baer
    assert [(w.locus, w.index, w.element.is_identity()) for w in status.witnesses] == [("A", 6, False)]
    assert status_rows(is_baer(F)) == status_rows(status)


# -- a subgroup as a group of its own, against brute-force definitions -------------------


def brute_factor_sylows(G, S, p):
    """The subgroups of S of order ``|S|_p``, from every subgroup of G."""
    pk = p_part(S.order, p)
    return {T.ids for T in enumerate_subgroups(G) if T.order == pk and T.ids <= S.ids}


def brute_class_size_in(S, x):
    members = S.members()
    return len({x.conjugate(s) for s in members})


@pytest.mark.parametrize("G", table_groups(), ids=repr)
def test_factor_sylows_and_class_sizes_on_the_table_match_brute_force(G):
    for S in enumerate_subgroups(G):
        for p in pi_of(G):
            found = factor_sylows(S, p)
            assert len({R.ids for R in found}) == len(found)
            assert {R.ids for R in found} == brute_factor_sylows(G, S, p)
            assert factor_sylow(S, p) is found[0]
        assert factor_class_sizes(S) == {
            G.element_id(x): brute_class_size_in(S, x) for x in S.members()
        }


def test_factor_sylows_and_class_sizes_of_a_lazy_product_match_materialised_product():
    # Block by block on the lazy copy, in G's id space on the materialised one:
    # the class sizes in S of a product-form S are the fold of its blocks'
    # (baer._kinds), those of T are read by store id.
    from baerlab.baer import _kinds, _member

    def kinds(S, p):
        return {key: (_member(x), n) for key, (_pos, x, n) in _kinds(S, p, True).items()}

    lazy, whole = sym3_x_d10(), sym3_x_d10()
    whole.materialize()
    left, right = (enumerate_subgroups(f) for f in lazy.direct_factors)
    for S1 in left:
        for S2 in right:
            S = Subgroup.from_factors(lazy, [S1, S2])
            T = Subgroup.from_members(whole, S.members())
            for p in pi_of(lazy):
                found = [frozenset(R.members()) for R in factor_sylows(S, p)]
                assert len(set(found)) == len(found)
                assert set(found) == {frozenset(R.members()) for R in factor_sylows(T, p)}
                assert frozenset(factor_sylow(S, p).members()) == found[0]
                assert kinds(S, p) == kinds(T, p)
    assert not lazy.is_materialized


def test_factor_sylows_and_class_sizes_past_the_gate_match_brute_force():
    # An all-rows table of symmetric(7) would pass the cell budget, so S is
    # read on columns of G's table; Syl_p(S) is the S-conjugacy class of any
    # one Sylow subgroup.
    G = symmetric(7)
    S = Subgroup.from_generators(G, [parse_cycles("(0 1 2 3)", 7), parse_cycles("(0 1)", 7)])
    assert S.order == 24 and G.order**2 > CAYLEY_CELL_BUDGET
    for p, count in [(2, 3), (3, 4), (5, 1)]:
        found = [frozenset(R.members()) for R in factor_sylows(S, p)]
        first = factor_sylow(S, p).members()
        assert frozenset(first) == found[0] and len(first) == p_part(24, p)
        assert set(found) == {frozenset(x.conjugate(s) for x in first) for s in S.members()}
        assert len(found) == count
    assert factor_class_sizes(S) == {G.element_id(x): brute_class_size_in(S, x) for x in S.members()}


def fitting_groups():
    return table_groups() + [dihedral(12)]


@pytest.mark.parametrize("G", fitting_groups(), ids=repr)
def test_fitting_complements_are_products_of_cores(G):
    # F(G) is nilpotent, so its pi-part is the product of the cores O_s(G),
    # s in pi: what Theorem B reads instead of o_pi of F(G) as a group of its own.
    Fit = fitting(G)
    primes = prime_divisors(Fit.order)
    for k in range(len(primes) + 1):
        for pi in itertools.combinations(primes, k):
            cores = [o_p(G, s) for s in pi]
            product = Subgroup.from_generators(G, [g for core in cores for g in core.generating_set()])
            assert product.order == math.prod(core.order for core in cores)
            assert members_set(product) == members_set(o_pi(as_group(Fit), set(pi)))


@pytest.mark.parametrize("G", fitting_groups(), ids=repr)
def test_normal_pi_cores_are_nilpotent_iff_inside_fitting(G):
    # What Corollary C reads instead of the nilpotency of O_sigma(G) as a group.
    primes = pi_of(G)
    for k in range(len(primes) + 1):
        for sigma in itertools.combinations(primes, k):
            Os = o_pi(G, set(sigma))
            assert Os.subset_of(fitting(G)) == is_nilpotent(as_group(Os))


def test_factor_class_sizes_of_a_full_order_subgroup_read_the_partition(monkeypatch):
    # Work-count guard: a subgroup of full order is G, so its class sizes are
    # read from G's class sizes and no orbit is walked; the classes of a
    # proper subgroup are orbits walked on G.
    G = semilinear(2, 3)
    G.conjugacy_partition()
    P = sylow(G, 2)
    P.generating_ids()
    walks = []
    conjugation_orbit = Group.conjugation_orbit

    def counted(self, x, gen_ids):
        walks.append(self)
        return conjugation_orbit(self, x, gen_ids)

    monkeypatch.setattr(Group, "conjugation_orbit", counted)
    S = Subgroup.full(G)
    assert factor_class_sizes(S) == {
        G.element_id(x): brute_class_size(G, x) for x in G.elements
    }
    assert walks == []
    assert factor_class_sizes(P) == {
        G.element_id(x): brute_class_size_in(P, x) for x in P.members()
    }
    assert walks and all(H is G for H in walks)


# -- conjugation orbits against the all-elements loop -----------------------------------


def order_480():
    return parse_group_spec("subgroup(semilinear(2,4); g0, g1, g2^2)")


def orbit_groups():
    return [symmetric(4), symmetric(5), semilinear(2, 3), frobenius(11, 10), order_480()]


def brute_conjugates(G, H):
    """``H^g`` for every g in store order, each conjugate where it first appears."""
    seen, out = set(), []
    for g in G.elements:
        Q = frozenset(x.conjugate(g) for x in H.members())
        if Q not in seen:
            seen.add(Q)
            out.append(Q)
    return out


def brute_normaliser_ids(G, H):
    members = members_set(H)
    return [i for i, g in enumerate(G.elements) if {x.conjugate(g) for x in members} == members]


def orbit_cases(G):
    """Every Sylow subgroup, a non-Sylow Hall subgroup where one is found, a
    normal subgroup and the trivial subgroup of G."""
    cases = [sylow(G, p) for p in pi_of(G)]
    for pi in itertools.combinations(pi_of(G), 2):
        H = hall(G, pi)
        if H is not None and H.order < G.order:
            cases.append(H)
            break
    return cases + [derived_subgroup(G), Subgroup.trivial(G)]


@pytest.mark.parametrize("G", orbit_groups(), ids=repr)
def test_conjugates_and_normalisers_match_the_all_elements_loop(G):
    from baerlab.structure import _normaliser_ids

    for p in pi_of(G):
        expected = brute_conjugates(G, sylow(G, p))
        assert [frozenset(Q.members()) for Q in sylow_conjugates(G, p)] == expected
    for H in orbit_cases(G):
        assert [frozenset(Q.members()) for Q in hall_conjugates(G, H)] == brute_conjugates(G, H)
        assert _normaliser_ids(G, H.ids) == brute_normaliser_ids(G, H)
    N = derived_subgroup(G)
    assert 1 < N.order < G.order and len(hall_conjugates(G, N)) == 1


@pytest.mark.parametrize("G", [symmetric(4), frobenius(7, 3), semilinear(2, 3)], ids=repr)
def test_conjugation_labels_match_permutation_conjugation(G):
    from baerlab.structure import _conjugation_orbit, _normaliser_ids

    idx = {x: i for i, x in enumerate(G.elements)}
    for p in pi_of(G):
        H = sylow(G, p)
        orbit, label = _conjugation_orbit(G, H.ids)
        for g, x in enumerate(G.elements):
            assert orbit[label[g]] == {idx[h.conjugate(x)] for h in H.members()}
        assert _normaliser_ids(G, H.ids) == brute_normaliser_ids(G, H)
        expected = [frozenset(map(idx.__getitem__, Q)) for Q in brute_conjugates(G, H)]
        assert [Q.ids for Q in hall_conjugates(G, H)] == expected


def brute_conjugation_orbit(x, gens):
    """The closure of ``{x}`` under ``y -> y.conjugate(g)`` for g in ``gens``."""
    orbit = [x]
    seen = {x}
    for y in orbit:
        for g in gens:
            z = y.conjugate(g)
            if z not in seen:
                seen.add(z)
                orbit.append(z)
    return seen


@pytest.mark.parametrize(
    "G", [symmetric(4), frobenius(7, 3), semilinear(2, 3), order_480()], ids=repr
)
def test_conjugation_orbit_matches_permutation_conjugation(G):
    els = G.elements
    for gen_ids in (G.generator_ids(), sylow(G, 2).generating_ids(), []):
        gens = [els[s] for s in gen_ids]
        for x in range(len(els)):
            orbit = G.conjugation_orbit(x, gen_ids)
            assert orbit[0] == x
            assert len(set(orbit)) == len(orbit)
            assert {els[y] for y in orbit} == brute_conjugation_orbit(els[x], gens)


@pytest.mark.parametrize("G, count", [(symmetric(5), 5), (frobenius(11, 10), 11)], ids=repr)
def test_orbit_cases_include_a_non_sylow_hall_subgroup(G, count):
    [H] = [H for H in orbit_cases(G) if len(prime_divisors(H.order)) > 1 and not is_normal(G, H)]
    assert len(brute_conjugates(G, H)) == count


def test_hall_conjugates_rejects_a_subgroup_of_another_group():
    G = symmetric(4)
    with pytest.raises(ValueError):
        hall_conjugates(G, sylow(symmetric(4), 2))


def brute_partition(G):
    """The classes ``{x^g : g in G}`` as sorted id tuples, by least member."""
    idx = {x: i for i, x in enumerate(G.elements)}
    classes, done = [], set()
    for i, x in enumerate(G.elements):
        if i not in done:
            classes.append(tuple(sorted({idx[x.conjugate(g)] for g in G.elements})))
            done.update(classes[-1])
    return classes


@pytest.mark.parametrize("G", table_groups() + [dihedral(10), order_480()], ids=repr)
def test_conjugacy_partition_matches_brute_force_classes(G):
    classes = G.conjugacy_partition()
    assert classes == brute_partition(G)
    for cls in classes:
        assert all(G.class_sizes()[x] == len(cls) for x in cls)


def test_conjugacy_partition_past_the_table_gate_has_cycle_type_sizes():
    G = symmetric(7)
    assert G.order**2 > CAYLEY_CELL_BUDGET
    classes = G.conjugacy_partition()
    assert len(classes) == 15  # the partitions of 7

    def cycle_type(x):
        return tuple(sorted(len(c) for c in x.cycles(include_fixed=True)))

    def class_size(shape):
        counts = {k: shape.count(k) for k in set(shape)}
        return math.factorial(7) // math.prod(k**m * math.factorial(m) for k, m in counts.items())

    shapes = set()
    for cls in classes:
        [shape] = {cycle_type(G.elements[x]) for x in cls}
        assert len(cls) == class_size(shape)
        shapes.add(shape)
    assert len(shapes) == 15


def test_conjugates_and_classes_on_the_table_conjugate_no_permutation(monkeypatch):
    # Work-count guard: once the table is built, Sylow and Hall conjugates
    # are orbit points under the conjugation maps and classes are orbits of
    # ids, so no permutation is ever conjugated.
    G = order_480()
    G.cayley()
    calls = []
    conjugate = Permutation.conjugate

    def counted(self, g):
        calls.append(g)
        return conjugate(self, g)

    monkeypatch.setattr(Permutation, "conjugate", counted)
    G.conjugacy_partition()
    for p in pi_of(G):
        assert sylow_conjugates(G, p)[0] is sylow(G, p)
    H = hall(G, {3, 5})
    assert H is not None and H.order == 15
    assert len(hall_conjugates(G, H)) > 1
    assert calls == []


def test_materialised_product_past_an_all_rows_table_walks_sylow_orbits(monkeypatch):
    # A materialised product(symmetric(5),cyclic(30)), of order 3,600, takes
    # the id route like any materialised group: its Sylow 2-subgroup is found
    # on table columns and its conjugates are an orbit walk, so no permutation
    # is conjugated.
    G = parse_group_spec("product(symmetric(5),cyclic(30))")
    G.materialize()
    assert G.order**2 > CAYLEY_CELL_BUDGET
    P = sylow(G, 2)
    assert P.order == 16
    calls = []
    conjugate = Permutation.conjugate

    def counted(self, g):
        calls.append(g)
        return conjugate(self, g)

    monkeypatch.setattr(Permutation, "conjugate", counted)
    found = [frozenset(Q.members()) for Q in sylow_conjugates(G, 2)]
    assert calls == []
    assert found == brute_conjugates(G, P)
    assert len(found) == 15


# -- factorisations ------------------------------------------------------------------


def test_factorisation_validation():
    G = symmetric(3)
    C3 = next(S for S in enumerate_subgroups(G) if S.order == 3)
    C2 = next(S for S in enumerate_subgroups(G) if S.order == 2)
    F = Factorisation(G, C3, C2)
    assert F.a.order * F.b.order == 6
    with pytest.raises(ValueError):
        Factorisation(G, C3, C3)
    triv = Factorisation.trivial(G)
    assert triv.is_trivial()


def test_find_prefactorised_sylow_direct_product():
    G = sym3_x_d10()
    A = Subgroup.from_factors(G, [Subgroup.full(G.direct_factors[0]), Subgroup.trivial(G.direct_factors[1])])
    B = Subgroup.from_factors(G, [Subgroup.trivial(G.direct_factors[0]), Subgroup.full(G.direct_factors[1])])
    F = Factorisation(G, A, B)
    P = find_prefactorised_sylow(F, 2)
    assert P.order == 4
    assert P.intersection(A).order == 2
    assert P.intersection(B).order == 2
    assert P.intersection(A).product_order(P.intersection(B)) == P.order


def test_find_prefactorised_sylow_nontrivial_search():
    # Factorisation with A a Sylow 2-subgroup of the dihedral factor and
    # B the product of the symmetric factor and the rotation 5-subgroup.
    G = sym3_x_d10()
    G.materialize()
    d10 = G.direct_factors[1]
    refl = next(x for x in d10.elements if x.order() == 2)
    A = Subgroup.from_generators(G, [G.embed_factor_element(1, refl)])
    rot5 = next(x for x in d10.elements if x.order() == 5)
    bgens = [G.embed_factor_element(0, g) for g in G.direct_factors[0].generators]
    bgens.append(G.embed_factor_element(1, rot5))
    B = Subgroup.from_generators(G, bgens)
    assert (A.order, B.order) == (2, 30)
    F = Factorisation(G, A, B)
    P = find_prefactorised_sylow(F, 2)
    assert P.order == 4
    assert P.intersection(A).order == 2
    assert P.intersection(B).order == 2
    assert P.intersection(A).product_order(P.intersection(B)) == P.order


def test_find_prefactorised_sylow_trivial_factorisation():
    G = symmetric(4)
    F = Factorisation.trivial(G)
    P = find_prefactorised_sylow(F, 2)
    assert P.order == 8


# -- subgroup enumeration ---------------------------------------------------------------


def conjugacy_class_count(G, subgroups):
    """The number of conjugacy classes of G that ``subgroups`` fall into,
    each class read as :func:`hall_conjugates`; every conjugate must be listed."""
    seen, classes = set(), 0
    for H in subgroups:
        if H not in seen:
            classes += 1
            seen.update(hall_conjugates(G, H))
    assert seen == set(subgroups)
    return classes


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(cyclic(1))) == 1
    assert len(enumerate_subgroups(symmetric(3))) == 6
    assert len(enumerate_subgroups(dihedral(10))) == 8
    # Subgroups and their conjugacy classes: OEIS A005432 and A000638.
    for G, count, classes, max_order in (
        (symmetric(4), 30, 11, 200),
        (symmetric(5), 156, 19, 200),
        (symmetric(6), 1455, 56, 720),
    ):
        subs = enumerate_subgroups(G, max_order=max_order)
        assert (len(subs), conjugacy_class_count(G, subs)) == (count, classes)


def layered_closure_ids(G):
    """Reference enumeration: close ``<H, x>`` for every found H and every
    prime-power-order element x, with no reduction; sorted like the engine."""
    pp_ids = [
        i for i, o in enumerate(G.element_orders())
        if o > 1 and len(prime_divisors(o)) == 1
    ]
    trivial = G.closure_from_gen_ids([])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            hgens = _small_generating_ids(G, H)
            for x in pp_ids:
                if x not in H:
                    K = G.closure_from_gen_ids(hgens + [x])
                    if K not in found:
                        found.add(K)
                        new.append(K)
        frontier = new
    return sorted(found, key=lambda K: (len(K), tuple(sorted(K))))


# The groups of the benchmark's subgroup sweep, plus symmetric(5).
SWEEP_SPECS = (
    "cyclic(6)", "cyclic(12)",
    "dihedral(8)", "dihedral(10)", "dihedral(12)", "dihedral(18)",
    "symmetric(3)", "symmetric(4)",
    "frobenius(5,4)", "frobenius(7,3)", "frobenius(13,3)", "frobenius(11,10)",
    "elemabelian(2,3)",
    "product(symmetric(3),cyclic(2))", "product(symmetric(4),cyclic(3))",
    "semilinear(2,3)", "symmetric(5)",
)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_closure_from_gen_ids_matches_permutation_closure(spec, data):
    # Dimino's closure, whole and as its last step from a given prefix,
    # against the breadth-first closure of the permutations.
    G = parse_group_spec(spec)
    G.materialize()
    ids = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))

    def oracle(gen_ids):
        els = closure([G.elements[i] for i in gen_ids], degree=G.degree)
        return frozenset(map(G.element_id, els))

    assert G.closure_from_gen_ids(ids) == oracle(ids)
    if ids:
        assert G.closure_from_gen_ids(ids, oracle(ids[:-1])) == oracle(ids)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_element_orders_match_permutation_orders(spec):
    G = parse_group_spec(spec)
    assert G.element_orders() == [p.order() for p in G.elements]


def kinds_by_store_id(S, p, inner):
    """``baer._kinds`` of an id-backed S read element by element, by sorted
    store id, as it reads every factor short of full order."""
    G = S.parent
    els, orders, index = G.elements, G.element_orders(), G.class_sizes()
    sizes = factor_class_sizes(S) if inner else None
    kinds = {}
    for i in sorted(S.ids_in_store()):
        if is_p_number(orders[i], p):
            key = (index[i], sizes[i] if inner else 1, orders[i] == 1)
            first, x, n = kinds.get(key, (i, els[i], 0))
            kinds[key] = (first, x, n + 1)
    return kinds


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_kinds_of_a_full_order_factor_read_by_class_match_the_element_reading(spec):
    # Same keys in the same insertion order, first positions, members and counts.
    from baerlab.baer import _kinds

    G = parse_group_spec(spec)
    G.materialize()
    full = Subgroup.full(G)
    for p in pi_of(G):
        for inner in (False, True):
            assert list(_kinds(full, p, inner).items()) == list(
                kinds_by_store_id(full, p, inner).items()
            )


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_o_pi_matches_the_lattice_for_every_prime_set(spec):
    G = parse_group_spec(spec)
    primes = pi_of(G)
    for k in range(len(primes) + 1):
        for pi in itertools.combinations(primes, k):
            assert members_set(o_pi(G, pi)) == members_set(lattice_o_pi(G, set(pi))), pi


@pytest.mark.parametrize("spec", SWEEP_SPECS + ("semilinear(3,2)",))
def test_relative_cores_match_the_reference_quotient(spec):
    # For every normal M of G, the facts about G/M read in G (relative cores,
    # p-decomposability and H/M abelian for every H >= M) must equal those of
    # the reference regular representation of G/M, pulled back through its
    # projection.
    G = parse_group_spec(spec)
    subgroups = enumerate_subgroups(G)
    primes = pi_of(G)
    pis = [set(c) for k in range(1, len(primes) + 1) for c in itertools.combinations(primes, k)]
    for M in (M for M in subgroups if is_normal(G, M)):
        Q = quotient_group(G, M)
        image = [Q.project(g) for g in G.elements]
        for pi in pis:
            core = o_pi(Q.group, pi)
            pulled = {x for x, q in enumerate(image) if q in core}
            assert o_pi(G, pi, over=M).ids == pulled, (M.order, pi)
        for p in primes:
            assert is_p_decomposable(G, p, over=M) == is_p_decomposable(Q.group, p), (M.order, p)
        for H in (H for H in subgroups if M.ids <= H.ids):
            H_mod_M = Subgroup.from_members(Q.group, {image[x] for x in H.ids})
            assert is_abelian(H, over=M) == is_abelian(H_mod_M), (M.order, H.order)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_a_normal_hall_subgroup_of_two_primes_is_their_core(spec):
    # What clause b of the pq-Baer check reads instead of a Hall search: a
    # normal Hall {p,q}-subgroup contains every {p,q}-subgroup, so one exists
    # iff |O_{p,q}(G)| is the {p,q}-part of |G|, and then it is O_{p,q}(G).
    # symmetric(5) has no Hall {2,5}- or {3,5}-subgroup, so hall gives None.
    G = parse_group_spec(spec)
    for p, q in itertools.combinations(sorted(pi_of(G)), 2):
        H, core = hall(G, {p, q}), o_pi(G, {p, q})
        normal = H is not None and is_normal(G, H)
        assert normal == (core.order == pi_part(G.order, {p, q}))
        assert not normal or H is core


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_enumerate_subgroups_matches_layered_closure(spec):
    G = parse_group_spec(spec)
    subs = enumerate_subgroups(G)
    assert [S.ids for S in subs] == layered_closure_ids(G)
    found = {S.ids for S in subs}
    for S in subs:
        assert Subgroup.from_ids(G, S.ids) is S
        assert S.generating_ids() == _small_generating_ids(G, S.ids)
        for g in G.generators:
            conj = frozenset(G.element_id(G.elements[i].conjugate(g)) for i in S.ids)
            assert conj in found


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_enumerate_subgroups_explores_one_subgroup_per_class(spec):
    # Exploring K costs one closure per K-conjugacy class of cyclic subgroups
    # of prime-power order outside K.  With one explored subgroup per
    # conjugacy class of G that sums to the budget below, and every closure
    # counts: exploring a second member of some class, or closing a second
    # member of some K-class, exceeds it.
    G = parse_group_spec(spec)
    ids = layered_closure_ids(G)
    els = G.elements
    conj = [[G.element_id(x.conjugate(g)) for x in els] for g in els]
    orders = G.element_orders()
    cyclic_pp = [
        K for K in ids
        if len(prime_divisors(len(K))) == 1 and any(orders[i] == len(K) for i in K)
    ]
    budget = 0
    seen = set()
    for K in ids:
        if K in seen:
            continue
        outside = {C for C in cyclic_pp if not C <= K}
        while outside:
            C = outside.pop()
            outside -= {frozenset(conj[k][i] for i in C) for k in K}
            budget += 1
        seen.update(frozenset(map(c.__getitem__, K)) for c in conj)
    assert [S.ids for S in enumerate_subgroups(G, budget=budget)] == ids
    with pytest.raises(CapExceeded):
        enumerate_subgroups(parse_group_spec(spec), budget=budget - 1)


def test_stored_subgroup_order_counts_members():
    # ``order`` is stored at construction; it must count the members for
    # id-backed subgroups and for product-form subgroups of a lazy product.
    for spec in ("symmetric(4)", "semilinear(2,3)"):
        for S in enumerate_subgroups(parse_group_spec(spec)):
            assert S.order == len(S.members()) == len(S.ids)
    G = parse_group_spec("product(symmetric(3),dihedral(8))")
    blocks = [enumerate_subgroups(f) for f in G.direct_factors]
    for factors in itertools.product(*blocks):
        S = Subgroup.from_factors(G, factors)
        assert S.order == len(S.members())
    assert not G.is_materialized


def test_enumerate_subgroups_reports_partial_count_on_budget():
    with pytest.raises(CapExceeded) as info:
        enumerate_subgroups(symmetric(4), budget=3)
    assert info.value.cap == 3
    assert info.value.partial >= 1


def test_enumerate_subgroups_against_powerset_filter():
    # Oracle for tiny groups: filter every subset for closure.
    for G in [cyclic(6), symmetric(3), elem_abelian(2, 2), dihedral(12)]:
        els = list(G.elements)
        brute = set()
        for r in range(1, len(els) + 1):
            if len(els) % r:
                continue
            for combo in itertools.combinations(range(len(els)), r):
                subset = {els[i] for i in combo}
                if G.identity() not in subset:
                    continue
                if all(a * b in subset for a in subset for b in subset):
                    brute.add(frozenset(subset))
        ours = {frozenset(S.members()) for S in enumerate_subgroups(G)}
        assert ours == brute


def test_enumerate_subgroups_against_generated_subgroups():
    # Oracle for order <= 24: every subgroup of such a group is generated by
    # at most 4 elements, so closing every generator set of that size is
    # exhaustive.
    for G in [symmetric(4), dihedral(22)]:
        els = list(G.elements)
        brute = set()
        for k in range(5):
            for combo in itertools.combinations(els, k):
                brute.add(frozenset(closure(combo, 200, degree=G.degree)))
        ours = {frozenset(S.members()) for S in enumerate_subgroups(G)}
        assert ours == brute


def test_enumerate_subgroups_respects_bound():
    with pytest.raises(CapExceeded):
        enumerate_subgroups(sym3_x_d10(), max_order=50)


def test_lattice_invariants():
    for G in [symmetric(4), dihedral(10), frobenius(7, 3)]:
        for S in enumerate_subgroups(G):
            assert G.order % S.order == 0  # Lagrange
        for name, S in [
            ("center", center(G)),
            ("fitting", fitting(G)),
            ("fitting2", fitting2(G)),
        ] + [(f"o_{p}", o_p(G, p)) for p in pi_of(G)]:
            assert is_normal(G, S), (G.name, name)
        assert is_nilpotent(as_group(fitting(G)))
        for p in pi_of(G):
            assert prime_divisors(o_p(G, p).order) in ((), (p,))


# -- canonical subgroups and their memos ---------------------------------------------


def test_group_with_a_trivial_factorisation_is_freed_by_reference_counting():
    # The pool of canonical subgroups is weak, so a group and the subgroups
    # it hands out form no reference cycle and go as soon as the last
    # reference does, without the cyclic collector.
    import gc
    import weakref

    gc.disable()
    try:
        G = symmetric(4)
        G.materialize()
        F = Factorisation.trivial(G)
        assert F.a is F.b is Subgroup.full(G)
        ref = weakref.ref(G)
        del G, F
        assert ref() is None
    finally:
        gc.enable()


def brute_centraliser_ids(G, S):
    members = S.members()
    return {i for i, g in enumerate(G.elements) if all(g * s == s * g for s in members)}


@pytest.mark.parametrize("G, p", [(symmetric(4), 2), (frobenius(7, 3), 3)], ids=repr)
def test_memoised_centraliser_and_normality_match_brute_force(G, p):
    subs = enumerate_subgroups(G)
    # Subgroups of a Sylow subgroup P, as a group of its own, are centralised
    # in G as well as in P, so the centraliser memo must be keyed by the
    # centralising group.
    P = as_group(sylow(G, p))
    P_subs = enumerate_subgroups(P)
    assert len(P_subs) > 1
    first = {}
    for _ in range(2):  # the second round reads the memos of the first
        for S in subs:
            C = centraliser(G, S)
            assert C.ids == brute_centraliser_ids(G, S)
            assert first.setdefault(S, C) is C
            assert is_normal(G, S) == brute_is_normal(G, S)
        for T in P_subs:
            assert centraliser(G, T).ids == brute_centraliser_ids(G, T)
            CP = centraliser(P, T)
            assert CP.parent is P
            assert CP.ids == brute_centraliser_ids(P, T)
            assert is_normal(P, T) == brute_is_normal(P, T)
