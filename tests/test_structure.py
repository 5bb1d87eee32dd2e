import itertools

import pytest

from baerlab.constructions import (
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    frobenius,
    semilinear,
    subgroup_from_words,
    symmetric,
)
from baerlab.errors import CapExceeded
from baerlab.group import Group, Subgroup, centraliser, class_index
from baerlab.numth import is_pi_number, p_part, prime_divisors
from baerlab.structure import (
    Factorisation,
    center,
    derived_subgroup,
    enumerate_subgroups,
    exponent,
    find_prefactorised_sylow,
    fitting,
    fitting2,
    hall,
    is_abelian,
    is_normal,
    is_p_decomposable,
    is_prefactorised,
    is_nilpotent,
    normal_closure,
    normal_subgroups,
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
    from baerlab.group import closure

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
    assert exponent(P.as_group()) == 2


def test_sylow_conjugates_share_order():
    G = symmetric(4)
    for p in (2, 3):
        conjs = sylow_conjugates(G, p)
        assert all(Q.order == sylow(G, p).order for Q in conjs)
    assert len(sylow_conjugates(G, 3)) == 4


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


def test_o_pi_is_largest_normal_pi_subgroup():
    # Oracle: scan the whole subgroup lattice.
    for G in [symmetric(3), dihedral(10), symmetric(4), frobenius(7, 2), semilinear(2, 3)]:
        for pi in [{2}, {3}, {2, 3}, {5}, {7}, {2, 7}]:
            ours = o_pi(G, pi)
            best = max(
                (
                    S
                    for S in enumerate_subgroups(G)
                    if is_pi_number(S.order, pi) and is_normal(G, S)
                ),
                key=lambda S: S.order,
            )
            assert ours.order == best.order
            assert members_set(ours) == members_set(best)


def test_o_p_prime_semilinear_2_4():
    # Closing over one representative per class gives a non-normal subgroup
    # of order 12 here.
    G = semilinear(2, 4)
    core = o_p_prime(G, 5)
    assert core.order == 48
    assert is_normal(G, core)


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


def test_quotient_lift_p_element():
    G = semilinear(2, 3)
    Q = quotient_group(G, o_p(G, 2))  # quotient of order 21
    for qp in Q.group.elements:
        for p in (3, 7):
            o = qp.order()
            if o > 1 and o in (p, p * p):
                lifted = Q.lift_p_element(qp, p)
                assert Q.project(lifted) == qp
                from baerlab.perm import is_p_element

                assert is_p_element(lifted, p)


def test_quotient_by_trivial_subgroup_is_identity():
    product = sym3_x_d10()
    for G in [symmetric(4), semilinear(2, 3), product]:
        Q = quotient_group(G, Subgroup.trivial(G))
        assert Q.group is G
        for g in G.generators:
            assert Q.project(g) is g
        P = sylow(G, 2)
        assert Q.preimage(P) is P
        x = P.generating_set()[0]
        assert Q.lift_p_element(x, 2) is x
        with pytest.raises(ValueError):
            Q.lift_p_element(x, 3)
    assert not product.is_materialized


def test_quotient_componentwise_product_form():
    G = sym3_x_d10()
    N = fitting(G)  # product-form C3 x C5
    Q = quotient_group(G, N)
    assert Q.group.order == 4
    assert is_abelian(Q.group)
    for g in G.generators:
        assert Q.project(g) in Q.group


# -- Hall subgroups -------------------------------------------------------------------


def test_hall_examples():
    G = symmetric(3)
    assert members_set(hall(G, {3})) == members_set(sylow(G, 3))
    S = semilinear(2, 3)
    H = hall(S, {3, 7})
    assert H is not None and H.order == 21
    assert members_set(hall(S, pi_of(S))) == set(S.elements)
    assert hall(G, {5}).order == 1


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
    assert G.use_id_arithmetic()
    for S in subs:
        assert is_normal(G, S) == brute_is_normal(G, S)
        members = S.members()
        assert is_abelian(S) == all(a * b == b * a for a in members for b in members)


def test_is_normal_on_a_subgroup_of_another_group_takes_permutation_route():
    G = symmetric(4)
    G.materialize()
    D8 = sylow(G, 2).as_group()
    assert D8 is not G and D8.degree == G.degree
    verdicts = []
    for S in enumerate_subgroups(D8):
        verdicts.append(is_normal(G, S))
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


@pytest.mark.parametrize("G", table_groups(), ids=repr)
def test_index_profiles_from_store_ids_match_brute_force(G):
    from baerlab.baer import _pp_profile, _status_from_rows, is_p_baer
    from baerlab.numth import classify_prime_power

    for F in some_factorisations(G):
        rows = [
            (locus, x, x.order(), brute_class_size(G, x))
            for locus, sub in F.factors()
            for x in sub.members()
            if x.order() > 1 and classify_prime_power(x.order()).is_prime_power
        ]
        assert _pp_profile(F) == rows
        for p in pi_of(G):
            P = find_prefactorised_sylow(F, p)
            sylow_rows = [
                (locus, x, x.order(), brute_class_size(G, x))
                for locus, sub in F.factors()
                for x in P.intersection(sub).members()
                if x.order() > 1
            ]
            expected = _status_from_rows(F, p, sylow_rows)
            got = is_p_baer(F, p, via="sylow")
            assert (got.is_p_baer, got.witnesses) == (expected.is_p_baer, expected.witnesses)


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
    assert is_prefactorised(F, P)


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
    assert is_prefactorised(F, P)


def test_find_prefactorised_sylow_trivial_factorisation():
    G = symmetric(4)
    F = Factorisation.trivial(G)
    P = find_prefactorised_sylow(F, 2)
    assert P.order == 8


# -- subgroup enumeration ---------------------------------------------------------------


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(cyclic(1))) == 1
    assert len(enumerate_subgroups(symmetric(3))) == 6
    assert len(enumerate_subgroups(dihedral(10))) == 8


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
    from baerlab.group import closure

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
        assert is_nilpotent(fitting(G).as_group())
        for p in pi_of(G):
            assert prime_divisors(o_p(G, p).order) in ((), (p,))
