import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from baerlab import group as group_module
from baerlab.constructions import direct_product, parse_group_spec
from baerlab.errors import CapExceeded
from baerlab.group import (
    Group,
    Subgroup,
    _dedup_generators,
    _left_walk,
    centraliser,
    class_index,
    closure,
    conjugacy_class,
    embed_block,
)
from baerlab.perm import Permutation, identity, parse_cycles
from test_structure import table_groups


def sym3():
    return Group(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)")], name="sym3")


def brute_class(G, x):
    """Oracle: conjugate x by every element of the materialised group."""
    return {x.conjugate(g) for g in G.elements}


def brute_centraliser(G, xs):
    return [g for g in G.elements if all(g * x == x * g for x in xs)]


def test_closure_empty_is_identity():
    assert closure([], 10, degree=4) == [identity(4)]


def test_closure_sym3():
    els = closure([parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)")], 10)
    assert len(els) == 6
    assert els[0] == identity(3)


def test_closure_seven_cycle():
    els = closure([parse_cycles("(0 1 2 3 4 5 6)")], 100)
    assert len(els) == 7


def test_closure_cap_exceeded():
    with pytest.raises(CapExceeded) as exc:
        closure([parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)")], 4)
    assert exc.value.cap == 4
    assert exc.value.partial is not None


def test_closure_deterministic_and_idempotent():
    gens = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)")]
    once = closure(gens, 100)
    assert closure(once, 100, degree=4) == closure(gens, 100)
    assert closure(gens, 100) == once


def test_conjugacy_class_identity():
    G = sym3()
    assert conjugacy_class(G, identity(3)) == [identity(3)]


def test_conjugacy_class_transposition_sym3():
    G = sym3()
    t = parse_cycles("(0 1)", 3)
    cls = conjugacy_class(G, t)
    assert len(cls) == 3
    assert set(cls) == brute_class(G, t)


def test_conjugacy_class_cap():
    G = sym3()
    with pytest.raises(CapExceeded):
        conjugacy_class(G, parse_cycles("(0 1)", 3), cap=2)


def test_class_index_central_element():
    C4 = Group(4, [parse_cycles("(0 1 2 3)")], name="c4")
    g = parse_cycles("(0 2)(1 3)")
    assert class_index(C4, g) == 1


def test_class_index_paths_agree_sym3():
    G = sym3()
    for x in G.elements:
        orbit = class_index(G, x)
        assert orbit == G.order // len(brute_centraliser(G, [x]))
        assert orbit == len(brute_class(G, x))


def test_centraliser_examples():
    G = sym3()
    assert centraliser(G, [identity(3)]).order == G.order
    c3 = parse_cycles("(0 1 2)")
    cent = centraliser(G, [c3])
    assert cent.order == 3
    assert set(cent.members()) == set(brute_centraliser(G, [c3]))


@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
def test_blockwise_routes_reject_elements_mixing_product_blocks(nested):
    # (2 3) swaps a point of the symmetric(3) block with one of the cyclic(2)
    # block, so it is no element of the product.  Nested, those are the
    # blocks of the first block: Group.split of the inner product rejects it.
    from baerlab.constructions import cyclic, direct_product, symmetric

    G = direct_product([symmetric(3), cyclic(2)])
    if nested:
        G = direct_product([G, cyclic(2)])
    x = parse_cycles("(2 3)", G.degree)
    for query in (class_index, lambda G, x: centraliser(G, [x])):
        with pytest.raises(ValueError, match="direct-product blocks"):
            query(G, x)
    assert x not in G
    assert x not in Subgroup.full(G)
    products = [G, G.direct_factors[0]] if nested else [G]
    assert not any(H.is_materialized for H in products)


def assert_class_sizes_times_centraliser_is_order(G):
    # The class partition the verifier reads against the centralisers that
    # class_index is read off: |x^G| |C_G(x)| = |G| for every element x.
    sizes = G.class_sizes()
    for x in G.elements:
        assert sizes[G.element_id(x)] * centraliser(G, [x]).order == G.order
        assert class_index(G, x) == sizes[G.element_id(x)]


@pytest.mark.parametrize("G", [sym3(), *table_groups()], ids=repr)
def test_class_sizes_times_centraliser_is_order(G):
    assert_class_sizes_times_centraliser_is_order(G)


def test_a_centraliser_short_of_its_last_id_fails_the_class_size_check(monkeypatch):
    # Planted fault: the table route of centraliser loses its largest id.
    whole = group_module._centraliser
    monkeypatch.setattr(group_module, "_centraliser",
                        lambda G, gens: Subgroup.from_ids(G, sorted(whole(G, gens).ids)[:-1]))
    with pytest.raises(AssertionError):
        assert_class_sizes_times_centraliser_is_order(sym3())


def test_element_store_sorted_and_indexed():
    G = sym3()
    els = G.elements
    assert list(els) == sorted(els)
    assert els[0] == identity(3)
    for i, e in enumerate(els):
        assert G.element_id(e) == i


def test_order_hint_checked():
    from baerlab.errors import InternalInvariantViolation

    G = Group(3, [parse_cycles("(0 1 2)")], order_hint=5)
    with pytest.raises(InternalInvariantViolation):
        G.materialize()


def test_a_product_reads_its_order_without_its_blocks(monkeypatch):
    # A lazy product's order is its blocks' product, computed once when it is
    # built: a read neither recurses into the blocks nor builds the store.
    G = direct_product([parse_group_spec("symmetric(3)"), parse_group_spec("dihedral(10)")])
    reads = []
    order = Group.order
    monkeypatch.setattr(Group, "order", property(lambda self: reads.append(self) or order.fget(self)))
    assert G.order == 60
    assert reads == [G] and not G.is_materialized
    G.materialize()
    assert G.order == len(G.elements) == 60


def test_materialize_refuses_past_cap():
    G = Group(3, [parse_cycles("(0 1 2)")], order_hint=10**9)
    with pytest.raises(CapExceeded):
        G.materialize()
    assert G.order == 10**9  # order still known without enumeration


def test_membership():
    G = sym3()
    assert parse_cycles("(0 2)", 3) in G
    assert identity(3) in G
    assert parse_cycles("(0 1)", 4) not in G


def test_subgroup_basics():
    G = sym3()
    S = Subgroup.from_generators(G, [parse_cycles("(0 1 2)")])
    assert S.order == 3
    assert identity(3) in S
    assert parse_cycles("(0 1)", 3) not in S
    assert Subgroup.trivial(G).order == 1
    assert Subgroup.full(G).order == 6
    # Lagrange holds for every cyclic subgroup.
    for x in G.elements:
        sub = Subgroup.from_generators(G, [x])
        assert G.order % sub.order == 0


def test_subgroup_intersection_and_product_order():
    G = sym3()
    A = Subgroup.from_generators(G, [parse_cycles("(0 1 2)")])
    B = Subgroup.from_generators(G, [parse_cycles("(0 1)", 3)])
    inter = A.intersection(B)
    assert inter.order == 1
    assert A.product_order(B) == 6


def test_subgroup_generating_set_regenerates():
    G = sym3()
    full = Subgroup.full(G)
    regen = Subgroup.from_generators(G, full.generating_set())
    assert regen.order == 6


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=2))
    gens = [draw(st.permutations(range(degree))) for _ in range(k)]
    return degree, [Permutation(g) for g in gens]


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_closure_is_a_group(data):
    degree, gens = data
    els = closure(gens, 500, degree=degree)
    seen = set(els)
    assert identity(degree) in seen
    for a in els:
        assert a.inverse() in seen
        for b in els:
            assert a * b in seen


def assert_store_is_the_sorted_closure(G):
    """The store is the closure sorted by ``Permutation.__lt__`` and indexed by
    position; the walk is held until the table is built, and then only there."""
    els = G.elements
    assert els == tuple(sorted(closure(G.generators, degree=G.degree)))
    assert len(G._index) == len(els)
    assert all(G._index[x] == i for i, x in enumerate(els))
    assert G._walk is not None
    G.cayley()
    assert G._walk is None


def assert_table_matches_products(G):
    """Oracle: every column cell and inverse id against direct composition."""
    els = G.elements
    idx = {p: i for i, p in enumerate(els)}
    mul = G.cayley()
    assert len(mul) == len(els)
    assert not hasattr(mul, "__getitem__")
    for j, b in enumerate(els):
        col = mul.col(j)
        assert len(col) == len(els)
        for i, a in enumerate(els):
            assert col[i] == idx[a * b]
    inv = mul.inv
    assert [els[k] for k in inv] == [a.inverse() for a in els]


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_cayley_table_matches_products(data):
    degree, gens = data
    G = Group(degree, gens)
    assert_store_is_the_sorted_closure(G)
    assert_table_matches_products(G)


def test_cayley_table_trivial_group():
    G = Group(3, [])
    assert_store_is_the_sorted_closure(G)
    mul = G.cayley()
    assert len(mul) == 1 and mul.col(0) == mul.inv == [0]


def test_cayley_table_redundant_generators():
    gens = [parse_cycles(c, 4) for c in ("(0 1)", "(0 1 2 3)", "(1 2)", "(0 3 2 1)", "(0 1)(2 3)")]
    G = Group(4, gens)
    assert G.order == 24
    assert_store_is_the_sorted_closure(G)
    assert_table_matches_products(G)


def test_cayley_table_keeps_within_its_cell_budget(monkeypatch):
    # A budget of three columns: older columns are dropped, and
    # every one asked for again is rebuilt with the same cells.
    monkeypatch.setattr(group_module, "CAYLEY_CELL_BUDGET", 3 * 24)
    G = Group(4, [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)")])
    assert G.order == 24
    assert_table_matches_products(G)
    assert_table_matches_products(G)
    assert G.cayley()._cells <= 3 * 24


def test_cayley_table_of_quotient_group():
    from baerlab.constructions import semilinear
    from baerlab.structure import o_p, quotient_group

    G = semilinear(2, 3)
    Q = quotient_group(G, o_p(G, 2))
    assert Q.group.order == 21
    assert_table_matches_products(Q.group)


def test_cayley_column_at_the_bottom_of_a_deep_tree():
    # The tree of a cyclic group is one path, here of depth 1,199, deeper
    # than Python's default recursion limit: the column of its deepest
    # element is built by a loop up the path and back down.
    from baerlab.constructions import cyclic

    G = cyclic(1200)
    (g,) = G.generators
    els = G.elements
    s = G.element_id(g.inverse())  # g**1199, the last element the walk reaches
    assert G.cayley().col(s) == [G.element_id(x * els[s]) for x in els]


@pytest.mark.parametrize(
    "spec", ["subgroup(semilinear(2,4); g0, g1, g2^2)", "symmetric(5)", "semilinear(2,3)"]
)
def test_every_column_of_a_table_within_budget_takes_at_most_one_spread(spec, monkeypatch):
    # Within the cell budget every column not of a generator is composed
    # from its tree parent's, which is built first if it is not held; so
    # asking for all columns spreads at most one generator's column beyond
    # those the table built for its inverse ids.
    G = parse_group_spec(spec)
    mul = G.cayley()
    spreads = [0]
    spread = group_module.CayleyTable.spread

    def counted(self, seed, maps):
        spreads[0] += 1
        return spread(self, seed, maps)

    monkeypatch.setattr(group_module.CayleyTable, "spread", counted)
    cols = [mul.col(s) for s in range(len(mul))]
    assert spreads[0] <= 1
    els = G.elements
    for s in range(0, len(mul), 5):
        assert cols[s] == [G.element_id(x * els[s]) for x in els]


# -- the store walk: one pass of compositions, handed to the table -------------------


@pytest.fixture
def products(monkeypatch):
    """``products[0]`` counts the ``Permutation.__mul__`` calls made since it was last reset."""
    count = [0]
    compose = Permutation.__mul__

    def counted(p, q):
        count[0] += 1
        return compose(p, q)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    return count


def quotient_of_semilinear_2_3():
    from baerlab.constructions import semilinear
    from baerlab.structure import o_p, quotient_group

    G = semilinear(2, 3)
    return quotient_group(G, o_p(G, 2)).group


@pytest.mark.parametrize(
    "build",
    [
        functools.partial(parse_group_spec, "symmetric(5)"),
        functools.partial(parse_group_spec, "subgroup(semilinear(2,4); g0, g1, g2^2)"),
        quotient_of_semilinear_2_3,
    ],
    ids=["symmetric(5)", "order-480 subgroup of semilinear(2,4)", "semilinear(2,3)/O_2"],
)
def test_only_the_store_walk_multiplies_permutations(build, products):
    from baerlab.structure import pi_of, sylow

    G = build()
    assert not G.is_materialized
    products[0] = 0
    G.materialize()
    # The walk composes image tuples, once per element and generator, and
    # makes no Permutation product.
    assert products[0] == 0
    assert sum(map(len, G._walk[1])) == G.order * len(G.generators)
    products[0] = 0
    G.cayley()
    assert products[0] == 0
    for p in pi_of(G):
        P = sylow(G, p)
        products[0] = 0
        G.conjugation_labels(G.conjugates(P.ids, P.generating_ids())[1])
        assert products[0] == 0


def permutation_walk(gens, degree, cap):
    """Oracle for :func:`_left_walk`: the same walk by ``Permutation`` products,
    returning permutations where it returns image tuples."""
    els = [identity(degree)]
    place = {els[0]: 0}
    maps = [[] for _ in gens]
    blocks = []
    lo, size = 0, 1
    while lo < size:
        hi = size
        for j, g in enumerate(gens):
            lmap, parents = maps[j], []
            for a, x in enumerate(els[lo:hi], lo):
                c = g * x
                w = place.setdefault(c, size)
                if w == size:
                    if size >= cap:
                        raise CapExceeded("cap", cap=cap, partial=size)
                    size += 1
                    els.append(c)
                    parents.append(a)
                lmap.append(w)
            if parents:
                blocks.append((j, parents))
        lo = hi
    return els, maps, blocks


def assert_walks_agree(gens, degree, cap):
    gens, _ = _dedup_generators(gens, degree)
    try:
        els, maps, blocks = permutation_walk(gens, degree, cap)
    except CapExceeded as want:
        for walk in (
            functools.partial(_left_walk, gens, degree, cap),
            functools.partial(closure, gens, cap, degree=degree),
        ):
            with pytest.raises(CapExceeded) as got:
                walk()
            assert (got.value.cap, got.value.partial) == (want.cap, want.partial)
        return
    walk = _left_walk(gens, degree, cap)
    assert walk[0] == [x.images for x in els]
    assert walk[1:] == (maps, blocks)
    assert sum(map(len, walk[1])) == len(els) * len(gens)
    assert closure(gens, cap, degree=degree) == els


@settings(max_examples=80, deadline=None)
@given(generator_sets(), st.integers(min_value=1, max_value=130))
def test_left_walk_matches_the_permutation_walk(data, cap):
    degree, gens = data
    assert_walks_agree(gens, degree, cap)


@pytest.mark.parametrize(
    "degree, gens",
    [(0, []), (1, []), (1, [identity(1)]), (2, [identity(2)]), (2, [Permutation([1, 0])])],
)
def test_left_walk_at_degrees_below_three(degree, gens):
    # At degree 1 an itemgetter of one index would return an image, not a
    # tuple; the identity is the only permutation there and never reaches
    # the walk.
    assert_walks_agree(gens, degree, 10)
    G = Group(degree, gens)
    assert G.elements == tuple(closure(gens, degree=degree)) == tuple(sorted(G.elements))
    assert G.order == len(G.cayley()) == 2 ** len(G.generators)
    assert G.cayley().inv == list(range(G.order))


@settings(max_examples=25, deadline=None)
@given(generator_sets())
def test_class_index_paths_agree_random(data):
    degree, gens = data
    G = Group(degree, gens)
    if G.order > 200:
        return
    for x in G.elements:
        assert class_index(G, x) == G.order // len(brute_centraliser(G, [x]))


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.data())
def test_centraliser_matches_permutation_scan(data, draw):
    degree, gens = data
    G = Group(degree, gens)
    els = G.elements
    picks = draw.draw(st.lists(st.sampled_from(els), min_size=1, max_size=3))
    outside = [p for p in map(Permutation, itertools.permutations(range(degree))) if p not in G]
    for S in [[identity(degree)], list(G.generators), picks]:
        cent = centraliser(G, S)
        assert set(cent.members()) == set(brute_centraliser(G, S))
    if outside:  # C_G(S) is defined for subsets of G only
        S = picks + [draw.draw(st.sampled_from(outside))]
        with pytest.raises(ValueError, match="not an element"):
            centraliser(G, S)


@pytest.mark.parametrize(
    "spec", ["symmetric(4)", "semilinear(2,3)", "subgroup(semilinear(2,4); g0, g1, g2^2)"]
)
def test_centraliser_of_several_elements_matches_permutation_scan(spec):
    # Past the first element the table tests only the ids still kept: every
    # Sylow subgroup, and seeded random sets of two and three elements.
    import random

    from baerlab.structure import pi_of, sylow_conjugates

    G = parse_group_spec(spec)
    els = G.elements
    rng = random.Random(spec)
    sets = [P.generating_set() for p in sorted(pi_of(G)) for P in sylow_conjugates(G, p)]
    sets += [rng.sample(els, k) for k in (2, 3) for _ in range(10)]
    assert any(len(S) > 1 for S in sets[:-20])
    for S in sets:
        expected = {i for i, g in enumerate(els) if all(g * s == s * g for s in S)}
        assert centraliser(G, S).ids_in_store() == expected


# -- canonical id-backed subgroups ------------------------------------------------


def test_from_ids_returns_the_canonical_subgroup():
    G = sym3()
    G.materialize()
    A = Subgroup.from_generators(G, [parse_cycles("(0 1 2)")])
    ids = sorted(A.ids)
    assert Subgroup.from_ids(G, ids) is Subgroup.from_ids(G, frozenset(ids)) is A
    assert A.intersection(Subgroup.full(G)) is A
    assert centraliser(G, [parse_cycles("(0 1 2)")]) is A
    # The pool is per parent: the same ids in another group are another subgroup.
    H = sym3()
    H.materialize()
    assert Subgroup.from_ids(H, ids) is not A
    assert Subgroup.from_ids(H, ids).parent is H


# -- the two backings: ids of a materialised parent, blocks of a lazy product -------


def lazy_sym3_squared():
    from baerlab.constructions import direct_product, symmetric

    return direct_product([symmetric(3), symmetric(3)])


def test_block_form_members_of_a_lazy_product_are_factor_backed():
    G = lazy_sym3_squared()
    gens = [embed_block([3, 3], 0, parse_cycles("(0 1 2)")),
            embed_block([3, 3], 1, parse_cycles("(0 1)", 3))]
    members = closure(gens, degree=6)
    for S in (Subgroup.from_members(G, members), Subgroup.from_generators(G, gens)):
        assert [s.order for s in S.factors] == [3, 2]
        assert S.order == 6
        assert set(S.members()) == set(members)
    assert Subgroup.trivial(G).factors is not None
    assert not G.is_materialized


def test_diagonal_of_a_lazy_product_is_id_backed():
    G = lazy_sym3_squared()
    diagonal = [Permutation(g.images + tuple(v + 3 for v in g.images))
                for g in closure([parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)")])]
    D = Subgroup.from_members(G, diagonal)
    assert D.factors is None
    assert D.order == 6
    assert D is Subgroup.from_ids(G, D.ids)
    assert set(D.members()) == set(diagonal)


def test_trivial_and_full_of_a_lazy_group_are_canonical_id_subgroups():
    H = Group(3, [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)")], order_hint=6)
    assert Subgroup.trivial(H) is Subgroup.from_ids(H, [H.element_id(identity(3))])
    assert Subgroup.full(H) is Subgroup.from_ids(H, range(6))


def test_members_outside_the_parent_are_rejected():
    C3 = Group(3, [parse_cycles("(0 1 2)")])
    with pytest.raises(ValueError, match="not an element"):
        Subgroup.from_generators(C3, [parse_cycles("(0 1)", 3)])
    # (2 3) swaps a point of each block, so it mixes the blocks of the product.
    G = lazy_sym3_squared()
    with pytest.raises(ValueError, match="direct-product blocks"):
        Subgroup.from_generators(G, [parse_cycles("(2 3)", 6)])


def test_product_form_subgroups_are_canonical_and_over_the_parent_blocks():
    from baerlab.constructions import cyclic, wreath

    G = lazy_sym3_squared()
    left, right = G.direct_factors
    S = Subgroup.from_factors(G, [Subgroup.full(left), Subgroup.trivial(right)])
    assert Subgroup.from_factors(G, [Subgroup.full(left), Subgroup.trivial(right)]) is S
    assert Subgroup.from_generators(G, S.generating_set()) is S
    # A copy of symmetric(3) has the right degree but is not a block of G.
    with pytest.raises(ValueError, match="direct factors"):
        Subgroup.from_factors(G, [Subgroup.full(lazy_sym3_squared().direct_factors[0]),
                                  Subgroup.trivial(right)])
    with pytest.raises(ValueError, match="direct factors"):
        Subgroup.from_factors(G, [Subgroup.trivial(right), Subgroup.full(left)])
    # The degrees of two cyclic(2) subgroups cover the wreath product's four
    # points, but the wreath product has no direct factors.
    W = wreath(cyclic(2), cyclic(2), "regular")
    with pytest.raises(ValueError, match="direct factors"):
        Subgroup.from_factors(W, [Subgroup.full(cyclic(2))] * 2)


def test_mixed_backings_intersect_on_store_ids():
    from baerlab.constructions import cyclic, direct_product, symmetric

    G = direct_product([symmetric(3), cyclic(2)])
    A = Subgroup.from_factors(
        G, [Subgroup.from_generators(G.direct_factors[0], [parse_cycles("(0 1)", 3)]),
            Subgroup.full(G.direct_factors[1])]
    )
    G.materialize()
    # The diagonal of (0 1) and the swap of the cyclic(2) block.
    B = Subgroup.from_generators(G, [parse_cycles("(0 1)(3 4)", 5), parse_cycles("(0 1 2)", 5)])
    assert A.factors is not None and B.factors is None
    meet = A.intersection(B)
    assert set(meet.members()) == set(A.members()) & set(B.members())
    assert meet is B.intersection(A)
    assert meet.order == 2


def test_subset_of_across_parents_tests_members_not_store_ids():
    # The same three permutations are ids 0-2 of cyclic(3) and other ids of
    # symmetric(3), and ids {0, 1} of symmetric(3) are {(), (1 2)}; comparing
    # raw ids across the two stores answers both questions wrongly.
    from baerlab.constructions import cyclic, symmetric

    C3, S3 = cyclic(3), symmetric(3)
    rotations = Subgroup.full(C3)
    in_s3 = Subgroup.from_members(S3, rotations.members())
    assert rotations.subset_of(in_s3) and in_s3.subset_of(rotations)
    swap = Subgroup.from_generators(S3, [parse_cycles("(1 2)", 3)])
    assert swap.ids == {0, 1} and rotations.ids == {0, 1, 2}
    assert not swap.subset_of(rotations)
    assert swap.subset_of(Subgroup.full(S3)) and not rotations.subset_of(swap)


def test_membership_agrees_across_backings_for_any_degree():
    # Product-form, id-backed and Group membership answer alike, also for a
    # permutation of another degree, which belongs to none of them.
    G = lazy_sym3_squared()
    materialised = lazy_sym3_squared()
    materialised.materialize()
    cases = [("(0 1)", 3), ("(0 1)", 6), ("(2 3)", 6), ("(0 1 2)", 7), ("(5 6)", 7)]
    for cycles, degree in cases:
        x = parse_cycles(cycles, degree)
        expected = degree == 6 and cycles == "(0 1)"
        assert (x in G) == (x in materialised) == expected
        assert (x in Subgroup.full(G)) == (x in Subgroup.full(materialised)) == expected
    assert "(0 1)" not in Subgroup.full(G)
    assert not G.is_materialized
