import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from baerlab import group as group_module, structure
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
    wreath,
)
from baerlab.errors import CAYLEY_CELL_BUDGET, CapExceeded, InternalInvariantViolation
from baerlab.group import (
    Group,
    Subgroup,
    _small_generating_ids,
    centraliser,
    class_index,
    closure,
    embed_block,
)
from baerlab.numth import (
    is_p_number, is_pi_number, is_prime, is_prime_power, p_part, pi_part, prime_divisors
)
from baerlab.perm import Permutation, identity, parse_cycles
from baerlab.structure import (
    Factorisation,
    enumerate_subgroups,
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
    o_pi,
    pi_of,
    product_with_normal,
    quotient_group,
    sylow,
    sylow_conjugates,
    upper_p_series,
)
from pins import lattice_digest


def sym3_x_d10():
    return direct_product([symmetric(3), dihedral(10)])


def members_set(S):
    return set(S.members())


def centre(G):
    """Z(G), the centraliser of G's generators."""
    return centraliser(G, G.generators)


def derived(G):
    """G', the normal closure of the generators' commutators; materialises G."""
    gens = G.generators
    return normal_closure(G, [a.inverse() * b.inverse() * a * b for a in gens for b in gens])


def p_prime_core(G, p):
    """O_{p'}(G), the pi-core for the primes of |G| other than p."""
    return o_pi(G, set(pi_of(G)) - {p})


def normal_subgroups(G):
    return [N for N in enumerate_subgroups(G) if is_normal(G, N)]


def as_group(S):
    """The subgroup S as a group of its own, on its parent's points."""
    return Group(S.parent.degree, S.generating_set(), order_hint=S.order)


# -- centre, derived subgroup, nilpotency -------------------------------------


def test_center_sym3_trivial():
    assert centre(symmetric(3)).order == 1


def test_center_componentwise_matches_plain():
    GA = sym3_x_d10()
    GB = Group(8, GA.generators)  # same group, no product annotation
    assert members_set(centre(GA)) == members_set(centre(GB))


def sympy_group(gens):
    """The sympy permutation group generated by ``gens``; skips without sympy."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in gens]
    )


@pytest.mark.parametrize(
    "G", [symmetric(4), dihedral(10), frobenius(7, 3), semilinear(2, 3)], ids=repr
)
def test_centraliser_orders_match_sympy(G):
    SG = sympy_group(G.generators)
    for cls in G.conjugacy_partition():
        x = G.elements[cls[0]]
        assert centraliser(G, [x]).order == SG.centralizer(sympy_group([x])).order()
    for p in pi_of(G):
        P = sylow(G, p)
        assert centraliser(G, P).order == SG.centralizer(sympy_group(P.generating_set())).order()
    assert centre(G).order == SG.center().order()


@pytest.mark.parametrize(
    "spec",
    [
        "symmetric(4)", "frobenius(7,3)", "semilinear(2,3)", "semilinear(3,2)", "dihedral(12)",
        "product(symmetric(4),cyclic(3))", "wreath(symmetric(3),symmetric(3),natural)",
        "subgroup(product(dihedral(8),frobenius(7,3)); g0, g1, g2, g3)",
        "symmetric(5)", "product(symmetric(5),cyclic(3))",
    ],
)
def test_characteristic_subgroups_and_invariants_match_sympy(spec):
    # The centre and derived subgroup are run by no benchmark workload, so
    # sympy is their oracle.  The normal closures come last: they
    # materialise G, so a direct product answers the others blockwise.
    G = parse_group_spec(spec)
    SG = sympy_group(G.generators)
    assert centre(G).order == SG.center().order()
    assert is_nilpotent(G) == SG.is_nilpotent
    # G is soluble iff it is p-soluble for every prime p.
    assert all(upper_p_series(G, p).is_p_soluble for p in pi_of(G)) == SG.is_solvable
    for p in pi_of(G):
        assert sylow(G, p).order == SG.sylow_subgroup(p).order()
    assert derived(G).order == SG.derived_subgroup().order()
    g0 = G.generators[0]
    assert normal_closure(G, [g0]).order == SG.normal_closure(sympy_group([g0])).order()


def test_derived_subgroup_sym3():
    G = symmetric(3)
    D = derived(G)
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
    assert math.lcm(*(x.order() for x in P.members())) == 2


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
    assert p_prime_core(symmetric(3), 2).order == 3
    assert p_prime_core(dihedral(10), 2).order == 5
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
    core = p_prime_core(G, 5)
    assert core.order == 48
    assert is_normal(G, core)


def test_o_p_prime_grows_one_core_from_few_generators(monkeypatch):
    # Work-count guard: O_{p'} grows one normal core by normal closures of
    # its few generating ids plus one class representative, each extended
    # from the subgroup it already holds, and skips the closure where a
    # product of the representative's conjugates has order divisible by p.
    # Closing over every member of every qualifying class took 33, 102 and
    # 116 closures here, on generator lists of up to 159 ids; without the
    # certificate it took 8, 14 and 21 closures on lists of up to 2, 5 and 5.
    sizes, proofs = [], []
    close, certify = Group.closure_from_gen_ids, structure._non_pi_product

    def counted(self, gen_ids, prefix=None):
        sizes.append(len(gen_ids))
        return close(self, gen_ids, prefix)

    def counted_proof(*args):
        proofs.append(certify(*args))
        return proofs[-1]

    monkeypatch.setattr(Group, "closure_from_gen_ids", counted)
    monkeypatch.setattr(structure, "_non_pi_product", counted_proof)
    for p, order, walks, proved, calls, longest in [
        (2, 1, 4, 4, 0, 0), (3, 160, 5, 4, 6, 3), (5, 48, 8, 7, 6, 3)
    ]:
        G = semilinear(2, 4)
        G.materialize()
        sizes.clear()
        proofs.clear()
        assert p_prime_core(G, p).order == order
        assert (len(proofs), sum(proofs), len(sizes), max(sizes, default=0)) == (
            walks, proved, calls, longest
        )


def test_o_p_prime_reaches_order_24192():
    # semilinear(2,6), where O_{p'} used to close over every member of every
    # class whose normal closure is a p'-group.
    G = semilinear(2, 6)
    assert G.order == 24192
    assert [p_prime_core(G, p).order for p in (2, 3, 7)] == [1, 448, 1152]


def test_cores_componentwise_match_plain():
    GA = sym3_x_d10()
    GB = Group(8, GA.generators)
    for p in (2, 3, 5):
        assert members_set(o_p(GA, p)) == members_set(o_p(GB, p))
        assert members_set(p_prime_core(GA, p)) == members_set(p_prime_core(GB, p))
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


def test_fitting_raises_when_its_cores_do_not_multiply(monkeypatch):
    # Negative controls on S4.  Planted cores <(0 1)> and <(1 2 3)> are not
    # normal: they generate all of S4, of order 24 and not 2 * 3, which the
    # check of product_with_normal catches first.  Planted normal cores V4 and
    # A4 pass that check but meet in V4, so their product A4 is no direct
    # product of orders 4 and 12.
    cases = [
        ({2: ["(0 1)"], 3: ["(1 2 3)"]}, "not its closure"),
        ({2: ["(0 1)(2 3)", "(0 2)(1 3)"], 3: ["(0 1 2)", "(0 1)(2 3)"]}, "did not multiply"),
    ]
    for gens, message in cases:
        G = symmetric(4)
        cores = {p: Subgroup.from_generators(G, [parse_cycles(g, 4) for g in gs])
                 for p, gs in gens.items()}
        monkeypatch.setattr(structure, "o_pi", lambda G, pi, over=None: cores[min(pi)])
        with pytest.raises(InternalInvariantViolation, match=message):
            fitting(G)


# -- quotients ----------------------------------------------------------------------


def test_quotient_by_whole_group():
    G = symmetric(3)
    Q = quotient_group(G, Subgroup.full(G))
    assert Q.group.order == 1


def test_quotient_sym3_by_c3():
    G = symmetric(3)
    Q = quotient_group(G, p_prime_core(G, 2))
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
    assert hall(symmetric(5), {2, 3}).order == 24
    # symmetric(6) (order 720) has no Hall subgroup of order 144, 80 or 45.
    S6 = symmetric(6)
    for pi in ({2, 3}, {2, 5}, {3, 5}):
        assert hall(S6, pi) is None, pi


def test_hall_past_the_lattice_gate_is_a_cap_and_none_a_proven_absence(monkeypatch):
    # symmetric(5) has no Hall {2,5}- or {3,5}-subgroup, which its complete
    # lattice proves; the memoised None is returned without a second lattice.
    G = symmetric(5)
    assert hall(G, {2, 5}) is None and hall(G, {3, 5}) is None
    monkeypatch.setattr(structure, "enumerate_subgroups", None)
    assert hall(G, {2, 5}) is None and hall(G, {3, 5}) is None
    monkeypatch.undo()
    # symmetric(7) is past the lattice's order gate: a cap, never a None,
    # raised before its store is built.
    S7 = symmetric(7)
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            hall(S7, {2, 5})
        assert exc.value.cap == 1296
    assert not S7.is_materialized


def test_hall_subgroups_of_soluble_groups_for_every_pi():
    whole = sym3_x_d10()
    whole.materialize()
    groups = [symmetric(3), symmetric(4), dihedral(10), frobenius(11, 5),
              semilinear(2, 3), order_480(), sym3_x_d10(), whole]
    for G in groups:
        primes = pi_of(G)
        for k in range(1, len(primes) + 1):
            for pi in itertools.combinations(primes, k):
                H = hall(G, pi)
                assert H is not None, (G.name, pi)
                assert H.order == pi_part(G.order, pi), (G.name, pi)


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
    P, Pp = o_p(G, 2), p_prime_core(G, 2)
    for g in G.elements:
        o = g.order()
        two = g ** (o // p_part(o, 2) * pow(o // p_part(o, 2), -1, p_part(o, 2))) if p_part(o, 2) > 1 else identity(G.degree)
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
    assert normal_closure(G, [identity(G.degree)]).order == 1
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
    G = sym3_x_d10()
    for p in pi_of(G):
        P = sylow(G, p)
        for N in (fitting(G), p_prime_core(G, p)):
            K = product_with_normal(G, P, N)
            assert K.factors is not None
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
                for S in [centre(G), fitting(G), fitting2(G)]
                + [o_p(G, p) for p in primes]
                + [o_pi(G, pi) for pi in pis]
                + [o_pi(G, pi, over=fitting(G)) for pi in pis]
                + [centraliser(G, [g]) for g in G.generators]
                + [t for s in series for t in s.terms]
            ],
            "sylow": [sylow(G, p).order for p in primes],
            "hall": [None if H is None else H.order for H in halls],
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


def subgroup_answers(G, subgroups):
    """G's centraliser of each subgroup as a member set, the ``subset_of``
    matrix of the subgroups, and the member sets of G's trivial and full
    subgroups."""
    return {
        "centralisers": [frozenset(centraliser(G, S).members()) for S in subgroups],
        "subset_of": [[S.subset_of(T) for T in subgroups] for S in subgroups],
        "trivial_full": [frozenset(Subgroup.trivial(G).members()),
                         frozenset(Subgroup.full(G).members())],
    }


def lazy_and_materialised_copies(spec):
    """A lazy and a materialised copy of a product spec, each with its
    product-form subgroups; the materialised copy's are id-backed."""
    lazy = parse_group_spec(spec)
    whole = parse_group_spec(spec)
    whole.materialize()
    whole_subs = [Subgroup.from_members(whole, S.members()) for S in product_form_subgroups(whole)]
    assert all(S.factors is None for S in whole_subs)
    return lazy, product_form_subgroups(lazy), whole, whole_subs


LAZY_PRODUCT_SPECS = {
    "sym3_x_d10": "product(symmetric(3),dihedral(10))",
    "sym4_x_c3": "product(symmetric(4),cyclic(3))",
    "sym3_x_c4_x_d10": "product(symmetric(3),cyclic(4),dihedral(10))",
}


@pytest.mark.parametrize("spec", LAZY_PRODUCT_SPECS.values(), ids=LAZY_PRODUCT_SPECS.keys())
def test_lazy_product_profiles_normality_and_sylow_conjugates_match_materialised_product(
    spec,
):
    # The lazy copy folds index profiles and Theorem D from its blocks' kinds
    # and reads normality, Sylow conjugates, subgroup centralisers, subset
    # tests and its trivial and full subgroups from its blocks; the
    # materialised copy reads them from its own store and table, store id by
    # store id, on id-backed copies of the same subgroups (a product-form
    # subgroup folds whether or not G is materialised).  Blockwise the
    # conjugates come in product order, so they are compared as sets.
    lazy, lazy_subs, whole, whole_subs = lazy_and_materialised_copies(spec)
    answers = subgroup_answers(lazy, lazy_subs)
    assert answers == subgroup_answers(whole, whole_subs)
    assert {False, True} <= {x for row in answers["subset_of"] for x in row}
    assert Subgroup.trivial(lazy).factors is not None and Subgroup.full(lazy).factors is not None
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


def test_a_blockwise_centraliser_with_its_whole_last_block_fails_the_lazy_oracle(monkeypatch):
    # Planted fault: a product-form subgroup's centraliser on a lazy product
    # takes all of its last block.  Only the centralisers tell the copies apart.
    right = group_module._subgroup_centraliser

    def planted(G, S):
        C = right(G, S)
        if S.parent is not G or G.blocks is None:
            return C
        return Subgroup.from_factors(G, [*C.factors[:-1], Subgroup.full(G.blocks[-1])])

    monkeypatch.setattr(group_module, "_subgroup_centraliser", planted)
    spec = LAZY_PRODUCT_SPECS["sym3_x_d10"]
    lazy, lazy_subs, whole, whole_subs = lazy_and_materialised_copies(spec)
    answers, oracle = subgroup_answers(lazy, lazy_subs), subgroup_answers(whole, whole_subs)
    assert [key for key in answers if answers[key] != oracle[key]] == ["centralisers"]
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
    nested_subs = nested_product_form_subgroups(nested)
    flat_subs = [Subgroup.from_members(flat, S.members()) for S in product_form_subgroups(flat)]
    assert all(S.factors is None for S in flat_subs)
    assert side_facts(nested, nested_subs) == side_facts(flat, flat_subs)
    assert not nested.is_materialized and not nested.direct_factors[0].is_materialized


def nested_product_form_subgroups(G):
    """For ``G = (X x Y) x Z``, every ``(S x T) x U`` of subgroups from
    :func:`enumerate_subgroups` of X, Y and Z, in ``itertools.product`` order."""
    inner, outer = G.direct_factors
    per_block = [enumerate_subgroups(f) for f in (*inner.direct_factors, outer)]
    return [
        Subgroup.from_factors(G, [Subgroup.from_factors(inner, [a, b]), c])
        for a, b, c in itertools.product(*per_block)
    ]


NESTED_PRODUCT_SPEC = "product(product(symmetric(3),cyclic(2)),dihedral(10))"


@pytest.mark.parametrize(
    "spec", [*LAZY_PRODUCT_SPECS.values(), NESTED_PRODUCT_SPEC], ids=[*LAZY_PRODUCT_SPECS, "nested"]
)
def test_product_form_members_are_sorted_as_on_a_materialised_copy(spec):
    # A product-form subgroup lists the product of its blocks' sorted members
    # and sorts nothing: each block shifts its points by a constant offset, so
    # tuples of block members sort as their joins do, and baer._kinds relies
    # on the same order.  The materialised copy closes the same generators and
    # lists its members by store id.
    lazy = parse_group_spec(spec)
    whole = parse_group_spec(spec)
    whole.materialize()
    nested = spec == NESTED_PRODUCT_SPEC
    subs = nested_product_form_subgroups(lazy) if nested else product_form_subgroups(lazy)
    for S in subs:
        members = S.members()
        assert list(members) == sorted(members)
        assert members == Subgroup.from_generators(whole, S.generating_set()).members()
    assert Subgroup.full(lazy) in subs and len(Subgroup.full(lazy).members()) == lazy.order
    assert not lazy.is_materialized and not (nested and lazy.direct_factors[0].is_materialized)


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
    first = embed_block([200] * 3, 2, G.direct_factors[2].generators[0] ** 25)
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
    for N in normal_subgroups(G):
        for S in enumerate_subgroups(G)[::7]:
            K = product_with_normal(G, S, N)
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
        if not is_prime_power(idx):
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
            if x.order() > 1 and is_prime_power(x.order())
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
                    assert {key: (_member(x), n) for key, (x, n) in kinds.items()} == (
                        brute_kinds(sub, p, inner)
                    )
                    in_order = [_member(x) for x, _n in kinds.values()]
                    assert in_order == sorted(in_order)
        per_prime, failing = {}, []
        for p in pi_of(G):
            union = brute_status([row for row in rows if is_p_number(row[1].order(), p)])
            got = is_p_baer(F, p, via="union")
            assert (got.is_p_baer, status_rows(got)) == union
            P = find_prefactorised_sylow(F, p)[0]
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
    assert F.a.order == F.b.order == F.group.order
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
        return {key: (_member(x), n) for key, (x, n) in _kinds(S, p, True).items()}

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


LAZY_ORDER_SPECS = [
    "product(symmetric(4),frobenius(5,4))",
    "product(symmetric(3),dihedral(10))",
    "product(dihedral(8),symmetric(3))",
    "product(cyclic(6),symmetric(3),cyclic(2))",
]


@pytest.mark.parametrize("spec", LAZY_ORDER_SPECS)
def test_factor_sylows_of_a_lazy_product_come_in_block_product_order(spec):
    # Syl_p(S) is read from S's meets with G's Sylow subgroups; on a lazy
    # product those are product-form, and their first appearances follow the
    # itertools.product order of the blocks' lists.
    G = parse_group_spec(spec)
    for blocks in itertools.product(*map(enumerate_subgroups, G.direct_factors)):
        S = Subgroup.from_factors(G, blocks)
        for p in pi_of(G):
            lists = [factor_sylows(s, p) for s in blocks]
            assert factor_sylows(S, p) == [Subgroup.from_factors(G, c) for c in itertools.product(*lists)]
    assert not G.is_materialized


def test_sylow_meets_short_of_their_last_fail_the_lazy_order_check(monkeypatch):
    # Planted fault: each subgroup's list of Sylow meets loses its last.
    meets = structure.sylow_meets
    monkeypatch.setattr(structure, "sylow_meets", lambda S, p: meets(S, p)[:-1])
    with pytest.raises(AssertionError):
        test_factor_sylows_of_a_lazy_product_come_in_block_product_order(LAZY_ORDER_SPECS[0])


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


def test_factor_class_sizes_are_orbits_walked_on_the_parent(monkeypatch):
    # The classes of a subgroup, of full order or proper, are orbits walked
    # on G under the subgroup's generating ids.
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
    assert factor_class_sizes(P) == {
        G.element_id(x): brute_class_size_in(P, x) for x in P.members()
    }
    assert walks and all(H is G for H in walks)


# -- conjugation orbits against the all-elements loop -----------------------------------


ORDER_480 = "subgroup(semilinear(2,4); g0, g1, g2^2)"


def order_480():
    return parse_group_spec(ORDER_480)


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


def normaliser_ids(G, H):
    """``N_G(H)`` as ascending store ids: those labelled 0, as ``sylow`` reads it."""
    labels = G.conjugation_labels(G.conjugates(H.ids, H.generating_ids())[1])
    return [g for g, i in enumerate(labels) if i == 0]


def orbit_cases(G):
    """Every Sylow subgroup, a non-Sylow Hall subgroup where one is found, a
    normal subgroup and the trivial subgroup of G."""
    cases = [sylow(G, p) for p in pi_of(G)]
    for pi in itertools.combinations(pi_of(G), 2):
        H = hall(G, pi)
        if H is not None and H.order < G.order:
            cases.append(H)
            break
    return cases + [derived(G), Subgroup.trivial(G)]


@pytest.mark.parametrize("G", orbit_groups(), ids=repr)
def test_conjugates_and_normalisers_match_the_all_elements_loop(G):
    for p in pi_of(G):
        expected = brute_conjugates(G, sylow(G, p))
        assert [frozenset(Q.members()) for Q in sylow_conjugates(G, p)] == expected
    for H in orbit_cases(G):
        assert [frozenset(Q.members()) for Q in hall_conjugates(G, H)] == brute_conjugates(G, H)
        assert normaliser_ids(G, H) == brute_normaliser_ids(G, H)
    N = derived(G)
    assert 1 < N.order < G.order and len(hall_conjugates(G, N)) == 1


@pytest.mark.parametrize("G", [symmetric(4), frobenius(7, 3), semilinear(2, 3)], ids=repr)
def test_conjugation_labels_match_permutation_conjugation(G):
    els = G.elements
    idx = {x: i for i, x in enumerate(els)}
    for p in pi_of(G):
        H = sylow(G, p)
        orbit, act, gens = G.conjugates(H.ids, H.generating_ids())
        assert orbit[0] == H.ids and len(set(orbit)) == len(orbit)
        assert gens[0] == H.generating_ids()
        assert [G.closure_from_gen_ids(g) for g in gens] == orbit
        assert len(act) == len(G.generators)
        for j, s in enumerate(G.generators):
            assert len(act[j]) == len(orbit)
            for i, L in enumerate(orbit):
                assert orbit[act[j][i]] == {idx[els[h].conjugate(s)] for h in L}
        label = G.conjugation_labels(act)
        for g, x in enumerate(els):
            assert orbit[label[g]] == {idx[h.conjugate(x)] for h in H.members()}
        assert normaliser_ids(G, H) == brute_normaliser_ids(G, H)
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
        moved = [len(c) for c in x.cycles()]
        return tuple(sorted(moved + [1] * (x.degree - sum(moved))))

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
    assert triv.a.order == triv.b.order == G.order


def test_find_prefactorised_sylow_direct_product():
    G = sym3_x_d10()
    A = Subgroup.from_factors(G, [Subgroup.full(G.direct_factors[0]), Subgroup.trivial(G.direct_factors[1])])
    B = Subgroup.from_factors(G, [Subgroup.trivial(G.direct_factors[0]), Subgroup.full(G.direct_factors[1])])
    F = Factorisation(G, A, B)
    P, PA, PB = find_prefactorised_sylow(F, 2)
    assert P.order == 4
    assert (PA, PB) == (P.intersection(A), P.intersection(B))
    assert PA.order == 2
    assert PB.order == 2
    assert PA.product_order(PB) == P.order


def test_find_prefactorised_sylow_nontrivial_search():
    # Factorisation with A a Sylow 2-subgroup of the dihedral factor and
    # B the product of the symmetric factor and the rotation 5-subgroup.
    G = sym3_x_d10()
    G.materialize()
    d10 = G.direct_factors[1]
    refl = next(x for x in d10.elements if x.order() == 2)
    degrees = [f.degree for f in G.direct_factors]
    A = Subgroup.from_generators(G, [embed_block(degrees, 1, refl)])
    rot5 = next(x for x in d10.elements if x.order() == 5)
    bgens = [embed_block(degrees, 0, g) for g in G.direct_factors[0].generators]
    bgens.append(embed_block(degrees, 1, rot5))
    B = Subgroup.from_generators(G, bgens)
    assert (A.order, B.order) == (2, 30)
    F = Factorisation(G, A, B)
    P, PA, PB = find_prefactorised_sylow(F, 2)
    assert P.order == 4
    assert (PA, PB) == (P.intersection(A), P.intersection(B))
    assert PA.order == 2
    assert PB.order == 2
    assert PA.product_order(PB) == P.order


def test_find_prefactorised_sylow_trivial_factorisation():
    G = symmetric(4)
    F = Factorisation.trivial(G)
    P, PA, PB = find_prefactorised_sylow(F, 2)
    assert P.order == 8
    assert PA is PB is P


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
    # Subgroups and their conjugacy classes: OEIS A005432 and A000638.  The
    # digest pins the list itself, order and carried generating ids included.
    for G, count, classes, digest in (
        (symmetric(4), 30, 11, "efb5026c7b38d471"),
        (symmetric(5), 156, 19, "bafb3a0948497a8c"),
        (symmetric(6), 1455, 56, "c067369857f315ab"),
        # Not symmetric: the class walk of Group.conjugates on semilinear(2,4).
        (semilinear(2, 4), 990, 44, "300ad4b46afe6714"),
        # Orders 576, 1,296 and 480, inside the default order gate.
        (direct_product([symmetric(4), symmetric(4)]), 2976, 274, "4f911eb12ce5ad1f"),
        (wreath(symmetric(3), symmetric(3), "natural"), 4164, 176, "347f586f695fb176"),
        (direct_product([symmetric(4), frobenius(5, 4)]), 912, 112, "72316bb58d33084b"),
    ):
        subs = enumerate_subgroups(G)
        assert lattice_digest(subs) == digest
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
# lattice_digest of each one's enumerate_subgroups on a fresh group.
SWEEP_LATTICE_DIGESTS = {
    "cyclic(6)": "b0a231ff24f7409f", "cyclic(12)": "742b88a699133b79",
    "dihedral(8)": "01946c78bd38dff0", "dihedral(10)": "03b53ca22cf16704",
    "dihedral(12)": "47f7e2379a1668f7", "dihedral(18)": "9d144e7972eff7cb",
    "symmetric(3)": "362beba1f23d1964", "symmetric(4)": "efb5026c7b38d471",
    "frobenius(5,4)": "be1fd6bf6261f87a", "frobenius(7,3)": "023e4e84842fd124",
    "frobenius(13,3)": "afca1c467b72e21f", "frobenius(11,10)": "ab29a954be89b31e",
    "elemabelian(2,3)": "e10139b17c78a405",
    "product(symmetric(3),cyclic(2))": "d378a353de4397a2",
    "product(symmetric(4),cyclic(3))": "a25d6f5306467d06",
    "semilinear(2,3)": "8cdcdf9ed920626b", "symmetric(5)": "bafb3a0948497a8c",
}


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
            x, n = kinds.get(key, (els[i], 0))
            kinds[key] = (x, n + 1)
    return kinds


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_kinds_of_a_full_order_factor_read_by_class_match_the_element_reading(spec):
    # Same keys in the same insertion order, least members and counts.
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


@pytest.mark.parametrize("spec", SWEEP_SPECS + ("symmetric(8)",))
def test_o_pi_is_the_same_without_the_certificate(spec, monkeypatch):
    # The certificate only skips normal closures that would not be pi-groups.
    def cores():
        G = parse_group_spec(spec)
        primes = pi_of(G)
        return [members_set(o_pi(G, pi)) for k in range(len(primes) + 1)
                for pi in itertools.combinations(primes, k)]

    ours = cores()
    monkeypatch.setattr(structure, "_non_pi_product", lambda *_args: False)
    assert cores() == ours


def test_a_certificate_over_a_nontrivial_m_fails_the_relative_core_oracle(monkeypatch):
    # Planted fault: the certificate read over M != 1.  In C12 over M = C2,
    # an element of order 6 lies in N with N/M = O_3(C12/M), its 2-part in M,
    # yet its order is no 3-number, so the mutant loses it from N.
    certify = structure._non_pi_product
    monkeypatch.setattr(structure, "_non_pi_product",
                        lambda G, rep, gens, pi, _below: certify(G, rep, gens, pi, 1))
    with pytest.raises(AssertionError):
        test_relative_cores_match_the_reference_quotient("cyclic(12)")


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
    assert lattice_digest(subs) == SWEEP_LATTICE_DIGESTS[spec]
    assert [S.ids for S in subs] == layered_closure_ids(G)
    found = {S.ids for S in subs}
    for S in subs:
        assert Subgroup.from_ids(G, S.ids) is S
        assert_generating_ids_are_a_chain(S)
        for g in G.generators:
            conj = frozenset(G.element_id(G.elements[i].conjugate(g)) for i in S.ids)
            assert conj in found


def prime_factor_count(n):
    """Omega(n), the prime factors of n counted with multiplicity."""
    count = 0
    for p in prime_divisors(n):
        while n % p == 0:
            n, count = n // p, count + 1
    return count


def assert_generating_ids_are_a_chain(S):
    """S's generating ids, whichever route gave them, generate S, and there
    are at most Omega(|S|) of them, one per step of a chain of subgroups."""
    gens = S.generating_ids()
    assert S.parent.closure_from_gen_ids(gens) == S.ids
    assert len(gens) <= prime_factor_count(S.order)


@pytest.mark.parametrize("spec", ["symmetric(4)", "semilinear(2,3)", ORDER_480])
def test_sylow_conjugates_carry_generating_ids(spec):
    # Each conjugate is given its orbit parent's generating ids, conjugated.
    G = parse_group_spec(spec)
    conjugates = [Q for p in pi_of(G) for Q in hall_conjugates(G, sylow(G, p))]
    assert len(conjugates) > len(pi_of(G))
    for Q in conjugates:
        assert_generating_ids_are_a_chain(Q)


def test_enumerate_subgroups_carries_generators_and_searches_none(monkeypatch):
    # Work-count guard: every enumerated subgroup keeps the generators the
    # walk built it from, so on the 16 groups of the benchmark's sweep no
    # greedy generating-set search runs (one per subgroup would be 380) and
    # the only closures are the walk's own, one per extension its markings
    # leave (test_enumerate_subgroups_explores_one_subgroup_per_class).
    calls = Counter()
    close, search = Group.closure_from_gen_ids, group_module._small_generating_ids

    def counted_close(self, gen_ids, prefix=None):
        calls["closure_from_gen_ids"] += 1
        return close(self, gen_ids, prefix)

    def counted_search(G, ids):
        calls["_small_generating_ids"] += 1
        return search(G, ids)

    monkeypatch.setattr(Group, "closure_from_gen_ids", counted_close)
    monkeypatch.setattr(group_module, "_small_generating_ids", counted_search)
    specs = [spec for spec in SWEEP_SPECS if spec != "symmetric(5)"]
    assert len(specs) == 16
    subs = [S for spec in specs for S in enumerate_subgroups(parse_group_spec(spec))]
    assert len(subs) == 380
    assert calls == {"closure_from_gen_ids": 380}


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_enumerate_subgroups_explores_one_subgroup_per_class(spec):
    # The walk explores the first member found of each conjugacy class of
    # subgroups, and exploring H costs one closure <H, x> per cyclic
    # subgroup <x> of prime-power order outside H, in order of its least
    # generator, unless an earlier closure marked it: by the orbit of an
    # earlier x under N, which is G for a normal H and else <H, n> for the
    # least n in N_G(H) outside H, or by lying in an earlier <H, x> of prime
    # index over H.  Recounted here by brute-force conjugation over a plain
    # layering, that sums to the budget below, and every closure counts.
    G = parse_group_spec(spec)
    ids = layered_closure_ids(G)
    els = G.elements
    conj = [[G.element_id(x.conjugate(g)) for x in els] for g in els]
    orders = G.element_orders()
    least = {}  # cyclic subgroup -> its least generator
    for x, o in enumerate(orders):
        if o > 1 and is_prime_power(o):
            least.setdefault(G.closure_from_gen_ids([x]), x)
    rep = {x: least[C] for C in least for x in C if orders[x] == len(C)}
    budget = 0
    trivial = G.closure_from_gen_ids([])
    found, frontier = {trivial}, [trivial]
    while frontier:
        new = []
        for H in frontier:
            normaliser = {g for g, c in enumerate(conj) if {c[h] for h in H} == H}
            if len(normaliser) == len(els):
                acting = normaliser
            else:
                acting = G.closure_from_gen_ids(sorted(H) + sorted(normaliser - H)[:1])
            tried = set()
            for x in sorted(least.values()):
                if x in H:
                    continue
                K = G.closure_from_gen_ids(sorted(H) + [x])
                if x not in tried:
                    budget += 1
                    tried.update(rep[conj[g][x]] for g in acting)
                    if is_prime(len(K) // len(H)):
                        tried.update(K)
                if K not in found:
                    found.update(frozenset(c[k] for k in K) for c in conj)
                    new.append(K)
        frontier = new
    assert sorted(found, key=lambda K: (len(K), sorted(K))) == ids
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
        assert S.ids is None  # a product-form subgroup holds no store ids
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
                if identity(G.degree) not in subset:
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
    S7 = symmetric(7)
    with pytest.raises(CapExceeded) as exc:
        enumerate_subgroups(S7)
    assert exc.value.cap == 1296
    assert not S7.is_materialized


def test_lattice_invariants():
    for G in [symmetric(4), dihedral(10), frobenius(7, 3)]:
        for S in enumerate_subgroups(G):
            assert G.order % S.order == 0  # Lagrange
        for name, S in [
            ("centre", centre(G)),
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
