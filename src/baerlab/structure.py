"""Characteristic subgroups, Sylow/Hall machinery, quotients and series.

Every operation here is a pure function of immutable groups.  Results are
memoised on the group object (write-once), keyed by operation name and
arguments, so sweeps never recompute per-group structure.  Facts about one
subgroup (its generating ids and centraliser, whether it is normal or
abelian, its own Sylow subgroups and class sizes, and the index profiles,
centraliser indices and products with normal subgroups of ``baer``) are
memoised on the subgroup through :meth:`Subgroup.cached`; since subgroups
are canonical per group, every factorisation of a group that reaches the
same subgroup shares them.

A subgroup argument of an operation on G belongs to G (``S.parent is G``),
so it is ids into G's store or one factor per block of ``G.direct_factors``
(see :class:`Subgroup`), and each operation has two routes.  While G is an
unmaterialised direct product (:attr:`Group.blocks`), the operations that
distribute over products (centre, derived subgroup, Sylow and Hall subgroups
and their conjugates, cores, Fitting terms, exponent, normality, quotients
and preimages, prefactorised Sylow subgroups) recurse into the factors
through :func:`_blockwise`; so does the p-power index profile of ``baer``.
Every other call, a materialised product included, works on G's store ids
and its Cayley table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import CapExceeded, InternalInvariantViolation
from .constructions import direct_product
from .group import Group, Subgroup, centraliser, class_index, join_blocks
from .numth import (
    classify_prime_power,
    is_p_number,
    is_pi_number,
    p_part,
    pi_part,
    prime_divisors,
)
from .perm import Permutation


def pi_of(G: Group):
    """Set of primes dividing the group order."""
    return prime_divisors(G.order)


def _cached(G: Group, key, build):
    cache = G._cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _blockwise(G: Group, op, *subs):
    """Per-block results ``[op(G_i, S_i, ...)]``, or None for the whole-group route.

    The one dispatch for direct products: the blocks are used when G is an
    unmaterialised product (``G.blocks``) and every subgroup in ``subs`` is
    product-form over those same blocks.
    """
    blocks = G.blocks
    if blocks is None or any(S.factor_parents() != blocks for S in subs):
        return None
    return [op(*args) for args in zip(blocks, *(S.factors for S in subs))]


# -- commutativity and elementary structure -----------------------------------


def is_abelian(obj) -> bool:
    """Works on groups and subgroups; generator pairs decide it.

    For a subgroup of a materialised parent the pairs are compared on the
    table (``col(b)[a] == col(a)[b]`` over the subgroup's generating ids);
    otherwise generator permutations are composed.  The answer is memoised
    on the group or subgroup.
    """

    def build():
        if isinstance(obj, Subgroup):
            if obj.parent.is_materialized:
                mul = obj.parent.cayley()
                gens = obj.generating_ids()
                return all(mul.col(b)[a] == mul.col(a)[b] for a in gens for b in gens)
            gens = obj.generating_set()
        elif (parts := _blockwise(obj, is_abelian)) is not None:
            return all(parts)
        else:
            gens = obj.generators
        return all(a * b == b * a for a in gens for b in gens)

    if isinstance(obj, Subgroup):
        return obj.cached("abelian", build)
    return _cached(obj, "abelian", build)


def exponent(G: Group) -> int:
    if (parts := _blockwise(G, exponent)) is not None:
        return math.lcm(*parts)
    return _cached(G, "exponent", lambda: math.lcm(*(o for o in G.element_orders())))


def center(G: Group) -> Subgroup:
    def build():
        if (parts := _blockwise(G, center)) is not None:
            return Subgroup.from_factors(G, parts)
        return centraliser(G, G.generators)

    return _cached(G, "center", build)


def derived_subgroup(G: Group) -> Subgroup:
    def build():
        if (parts := _blockwise(G, derived_subgroup)) is not None:
            return Subgroup.from_factors(G, parts)
        gens = G.generators
        comms = [
            a.inverse() * b.inverse() * a * b for a in gens for b in gens if a != b
        ]
        return normal_closure(G, comms)

    return _cached(G, "derived", build)


def is_nilpotent(G: Group) -> bool:
    return fitting(G).order == G.order


# -- Sylow subgroups ------------------------------------------------------------


def sylow(G: Group, p: int) -> Subgroup:
    """A deterministic Sylow p-subgroup (full p-part order).

    Greedy extension: seed with the first maximal-order p-element of the
    store, then repeatedly adjoin the first p-element of the normaliser that
    enlarges the current subgroup.
    """

    def build():
        pk = p_part(G.order, p)
        if pk == 1:
            return Subgroup.trivial(G)
        if (parts := _blockwise(G, lambda f: sylow(f, p))) is not None:
            return Subgroup.from_factors(G, parts)
        G.materialize()
        orders = G.element_orders()
        seed, best = None, 0
        for i, o in enumerate(orders):
            if o > best and is_p_number(o, p) and o > 1:
                seed, best = i, o
        gens = [seed]
        H = G.closure_from_gen_ids(gens)
        while len(H) < pk:
            norm = _normaliser_ids(G, H)
            grow = None
            for y in sorted(norm):
                if y not in H and orders[y] > 1 and is_p_number(orders[y], p):
                    grow = y
                    break
            if grow is None:
                raise InternalInvariantViolation(
                    f"Sylow extension stalled at order {len(H)} < {pk}"
                )
            gens.append(grow)
            H = G.closure_from_gen_ids(gens, H)
        return Subgroup.from_ids(G, H)

    return _cached(G, ("sylow", p), build)


def _conjugation_orbit(G: Group, ids) -> tuple:
    """``(orbit, label)``: the conjugates of the id set ``ids``, and per element g
    the index in ``orbit`` of ``ids^g``.

    ``orbit`` starts at ``ids`` and grows by images under
    :meth:`Group.conjugation_maps`, so it costs ``|G : N_G(H)|`` set images.
    The labels follow a walk of the generator columns from the identity, by
    ``label[g s] = act[label[g]][s]`` for a generator ``s``, since
    ``H^(g s) = (H^g)^s``.
    """
    maps = G.conjugation_maps()
    orbit = [frozenset(ids)]
    where = {orbit[0]: 0}
    act = []
    for L in orbit:
        row = []
        for cmap in maps:
            M = frozenset(map(cmap.__getitem__, L))
            if M not in where:
                where[M] = len(orbit)
                orbit.append(M)
            row.append(where[M])
        act.append(row)
    mul = G.cayley()
    cols = [mul.col(s) for s in G.generator_ids()]
    label = [-1] * len(mul)
    label[0] = 0
    reached = [0]
    for g in reached:
        here = act[label[g]]
        for j, col in enumerate(cols):
            c = col[g]
            if label[c] < 0:
                label[c] = here[j]
                reached.append(c)
    return orbit, label


def _normaliser_ids(G: Group, H: frozenset) -> list:
    """``N_G(H)`` as ascending store ids: the elements whose conjugation label is 0."""
    _, label = _conjugation_orbit(G, H)
    return [g for g, i in enumerate(label) if i == 0]


def sylow_conjugates(G: Group, p: int) -> list:
    """All distinct conjugates of sylow(G, p): ``hall_conjugates(G, sylow(G, p))``.

    Memoised per group and prime; the route and the order are those of
    :func:`hall_conjugates`, so the first entry is sylow(G, p).
    """
    return _cached(G, ("sylow_conjugates", p), lambda: hall_conjugates(G, sylow(G, p)))


# -- a subgroup as a group of its own ---------------------------------------------
#
# G = S.parent already holds the store, table and Sylow conjugates of every
# element of S, so these facts about S are read in G's id space, memoised on S.


def factor_sylows(S: Subgroup, p: int) -> list:
    """Syl_p(S) for a subgroup S of G = S.parent; memoised on S per prime.

    On an unmaterialised product with S product-form over its blocks, a
    Sylow subgroup of S is a product of block ones, listed in
    ``itertools.product`` order.  Otherwise these are the intersections
    ``S n Q`` of order ``|S|_p`` for Q in :func:`sylow_conjugates` of G, in
    that order, each once.  That is every Sylow subgroup of S: each lies in
    some Sylow subgroup Q of G, and is then ``S n Q``, the largest
    p-subgroup of S there.  The first entry is :func:`factor_sylow`.
    """

    def build():
        G = S.parent
        if (parts := _blockwise(G, lambda _f, s: factor_sylows(s, p), S)) is not None:
            return [Subgroup.from_factors(G, c) for c in itertools.product(*parts)]
        pk = p_part(S.order, p)
        meets = (S.intersection(Q) for Q in sylow_conjugates(G, p))
        return list(dict.fromkeys(R for R in meets if R.order == pk))

    return S.cached(("factor_sylows", p), build)


def factor_sylow(S: Subgroup, p: int) -> Subgroup:
    """The first of :func:`factor_sylows`, built without listing the others on
    a product; memoised on S per prime."""

    def build():
        G = S.parent
        if (parts := _blockwise(G, lambda _f, s: factor_sylow(s, p), S)) is not None:
            return Subgroup.from_factors(G, parts)
        return factor_sylows(S, p)[0]

    return S.cached(("factor_sylow", p), build)


def factor_class_index(S: Subgroup, x: Permutation) -> int:
    """``|S : C_S(x)|``, the class size in S of a member x of S.

    On an unmaterialised product with S product-form over its blocks, class
    sizes multiply over the blocks.  A subgroup of full order is G, whose
    conjugacy partition gives the class (:func:`class_index`).  Otherwise the
    classes of S are orbits under ``S.generating_ids()`` on G's table,
    ``id(s^-1 x s) = row(s^-1)[col(s)[x]]``, walked once and memoised on S.
    """
    G = S.parent
    if (factors := _blockwise(G, lambda _f, s: s, S)) is not None:
        return math.prod(factor_class_index(s, y) for s, y in zip(factors, G.split(x)))
    if S.order == G.order:
        return class_index(G, x)
    return S.cached("class_sizes", lambda: _class_sizes_on_table(S))[G.element_id(x)]


def _class_sizes_on_table(S: Subgroup) -> dict:
    """``{id: class size in S}`` over the store ids of S, by orbit walks on the table."""
    G = S.parent
    mul, inv = G.cayley(), G.inverse_ids()
    gens = [(mul.row(inv[s]), mul.col(s)) for s in S.generating_ids()]
    size = {}
    for x in S.ids_in_store():
        if x in size:
            continue
        orbit, seen = [x], {x}
        for y in orbit:
            for left, col in gens:
                z = left[col[y]]
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        size.update(dict.fromkeys(orbit, len(orbit)))
    return size


# -- cores: O_p, O_pi ------------------------------------------------------------


def o_p(G: Group, p: int) -> Subgroup:
    """Largest normal p-subgroup, as the intersection of all Sylow p-conjugates."""

    def build():
        if (parts := _blockwise(G, lambda f: o_p(f, p))) is not None:
            return Subgroup.from_factors(G, parts)
        if p_part(G.order, p) == 1:
            return Subgroup.trivial(G)
        conjs = sylow_conjugates(G, p)
        ids = conjs[0].ids_in_store()
        for Q in conjs[1:]:
            ids = ids & Q.ids_in_store()
            if len(ids) == 1:
                break
        return Subgroup.from_ids(G, ids)

    return _cached(G, ("o_p", p), build)


def o_pi(G: Group, pi) -> Subgroup:
    """Largest normal pi-subgroup, for any prime set ``pi`` (so O_{p'} too).

    One normal pi-subgroup K grows from 1: a class outside K lies in O_pi
    iff its representative x has pi-order and the normal closure ``K <x^G>``
    of K's generating ids and x is a pi-group (:func:`_normal_closure_ids`)."""
    pi = frozenset(p for p in pi if G.order % p == 0)

    def build():
        if not pi:
            return Subgroup.trivial(G)
        if pi == frozenset(pi_of(G)):
            return Subgroup.full(G)
        if len(pi) == 1:
            return o_p(G, next(iter(pi)))
        if (parts := _blockwise(G, lambda f: o_pi(f, pi))) is not None:
            return Subgroup.from_factors(G, parts)
        G.materialize()
        orders = G.element_orders()
        K, gens = frozenset([0]), []
        for cls in G.conjugacy_partition():
            rep = cls[0]
            if rep in K or not is_pi_number(orders[rep], pi):
                continue
            closed, closed_gens = _normal_closure_ids(G, gens + [rep], pi)
            if is_pi_number(len(closed), pi):
                K, gens = closed, closed_gens
        core = Subgroup.from_ids(G, K)
        if not is_pi_number(core.order, pi):
            raise InternalInvariantViolation("pi-core is not a pi-group")
        if not is_normal(G, core):
            raise InternalInvariantViolation("pi-core is not normal")
        return core

    return _cached(G, ("o_pi", pi), build)


def o_p_prime(G: Group, p: int) -> Subgroup:
    """O_{p'}(G): the largest normal subgroup of order prime to p."""
    return o_pi(G, set(pi_of(G)) - {p})


# -- Fitting series ---------------------------------------------------------------


def fitting(G: Group) -> Subgroup:
    """F(G), the product of the p-cores over all primes dividing the order."""

    def build():
        if (parts := _blockwise(G, fitting)) is not None:
            return Subgroup.from_factors(G, parts)
        parts = [o_p(G, p) for p in pi_of(G)]
        parts = [S for S in parts if not S.is_trivial()]
        if not parts:
            return Subgroup.trivial(G)
        if len(parts) == 1:
            return parts[0]
        ids = G.closure_from_gen_ids([i for S in parts for i in S.generating_ids()])
        expected = math.prod(S.order for S in parts)
        if len(ids) != expected:
            raise InternalInvariantViolation("p-cores did not multiply to a direct product")
        return Subgroup.from_ids(G, ids)

    return _cached(G, "fitting", build)


def fitting2(G: Group) -> Subgroup:
    """Second Fitting term: preimage of F(G / F(G))."""

    def build():
        if (parts := _blockwise(G, fitting2)) is not None:
            return Subgroup.from_factors(G, parts)
        F = fitting(G)
        if F.order == G.order:
            return Subgroup.full(G)
        Q = quotient_group(G, F)
        return Q.preimage(fitting(Q.group))

    return _cached(G, "fitting2", build)


# -- quotients -----------------------------------------------------------------


class Quotient:
    """The right-coset action of ``G`` on a normal subgroup ``N``.

    Cosets are labelled by their minimal element in store order, so degrees
    and projections are reproducible.  ``project`` is the quotient map;
    ``preimage`` pulls quotient subgroups back.

    The quotient by the trivial subgroup is the identity quotient: its
    ``group`` is ``source`` itself, with no coset action built, so
    ``project`` and ``preimage`` are identities and work on ``G`` reuses
    ``G``'s own caches.
    """

    def __init__(self, source: Group, kernel: Subgroup, group: Group, parts=None,
                 coset_of=None, reps=None):
        self.source = source
        self.kernel = kernel
        self.group = group
        self._parts = parts
        self._coset_of = coset_of
        self._reps = reps

    def is_identity(self) -> bool:
        return self.group is self.source

    def project(self, g: Permutation) -> Permutation:
        if self.is_identity():
            return g
        if self._parts is not None:
            return join_blocks(q.project(part) for q, part in zip(self._parts, self.source.split(g)))
        col = self.source.cayley().col(self.source.element_id(g))
        coset_of = self._coset_of
        return Permutation._make(tuple(coset_of[col[r]] for r in self._reps))

    def preimage(self, S: Subgroup) -> Subgroup:
        if self.is_identity():
            return S
        if self._parts is not None:
            block_quotient = {q.group: q for q in self._parts}
            parts = _blockwise(self.group, lambda f, s: block_quotient[f].preimage(s), S)
            if parts is None:
                raise CapExceeded("preimage in an unenumerated product needs a product-form subgroup")
            return Subgroup.from_factors(self.source, parts)
        # The quotient acts regularly on the cosets, and the projection of
        # coset c's representative is its one element taking coset 0 to c.
        keep = {q(0) for q in S.members()}
        ids = [e for e, c in enumerate(self._coset_of) if c in keep]
        return Subgroup.from_ids(self.source, ids)


def quotient_group(G: Group, N: Subgroup) -> Quotient:
    """Quotient of ``G`` by a normal subgroup, as a permutation action on cosets.

    The trivial subgroup gives the identity quotient, whose group is ``G``.
    """
    if N.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if N.is_trivial():
        return Quotient(G, N, G)
    if not is_normal(G, N):
        raise ValueError("quotient by a non-normal subgroup")

    def build():
        if (parts := _blockwise(G, quotient_group, N)) is not None:
            return Quotient(G, N, direct_product([q.group for q in parts]), parts=parts)
        # The coset N e is the orbit of e under left multiplication by N.
        mul = G.cayley()
        rows = [mul.row(n) for n in N.generating_ids()]
        coset_of = [-1] * len(mul)
        reps = []
        for e in range(len(mul)):
            if coset_of[e] >= 0:
                continue
            label = len(reps)
            reps.append(e)
            coset_of[e] = label
            orbit = [e]
            for y in orbit:
                for row in rows:
                    z = row[y]
                    if coset_of[z] < 0:
                        coset_of[z] = label
                        orbit.append(z)
        gen_perms = []
        for gid in G.generator_ids():
            col = mul.col(gid)
            gen_perms.append(Permutation._make(tuple(coset_of[col[r]] for r in reps)))
        qgroup = Group(
            len(reps),
            gen_perms,
            order_hint=len(mul) // N.order,
            name=f"{G.name}/N{N.order}",
        )
        return Quotient(G, N, qgroup, coset_of=coset_of, reps=reps)

    return _cached(G, ("quotient", N.key()), build)


# -- factorisations ---------------------------------------------------------------


class Factorisation:
    """A certified product ``G = A B`` of two subgroups.

    The defining identity ``|A| |B| / |A n B| = |G|`` is verified at
    construction; anything failing it is rejected as an input error.
    """

    def __init__(self, group: Group, a: Subgroup, b: Subgroup):
        if a.parent is not group or b.parent is not group:
            raise ValueError("factors must be subgroups of the factorised group")
        if a.order * b.order != group.order * a.intersection(b).order:
            raise ValueError(
                f"|A|*|B|/|AnB| = {a.order * b.order // a.intersection(b).order} "
                f"!= |G| = {group.order}: not a factorisation"
            )
        self.group = group
        self.a = a
        self.b = b
        self._cache: dict = {}

    @classmethod
    def trivial(cls, G: Group) -> "Factorisation":
        S = Subgroup.full(G)
        return cls(G, S, S)

    def factors(self):
        return (("A", self.a), ("B", self.b))

    def is_trivial(self) -> bool:
        return self.a.order == self.group.order and self.b.order == self.group.order

    def __repr__(self) -> str:
        return f"Factorisation(|G|={self.group.order}, |A|={self.a.order}, |B|={self.b.order})"


def find_prefactorised_sylow(F: Factorisation, p: int) -> Subgroup:
    """A Sylow p-subgroup with ``P = (P n A)(P n B)`` and Sylow intersections.

    Searches the conjugates of the deterministic Sylow subgroup in store
    order; such a conjugate always exists, so exhausting the search is an
    internal red alert, never a silent failure.
    """

    def build():
        G = F.group
        pa = p_part(F.a.order, p)
        pb = p_part(F.b.order, p)
        parts = _blockwise(
            G, lambda f, a, b: find_prefactorised_sylow(Factorisation(f, a, b), p), F.a, F.b
        )
        if parts is not None:
            return Subgroup.from_factors(G, parts)
        for P in sylow_conjugates(G, p):
            ia = P.intersection(F.a)
            if ia.order != pa:
                continue
            ib = P.intersection(F.b)
            if ib.order != pb:
                continue
            if ia.product_order(ib) == P.order:
                return P
        raise InternalInvariantViolation(
            f"no prefactorised Sylow {p}-subgroup found in {G.name}"
        )

    key = ("prefact_sylow", p)
    if key not in F._cache:
        F._cache[key] = build()
    return F._cache[key]


# -- Hall subgroups -----------------------------------------------------------------


# Closures one Hall search may attempt before it gives up.
HALL_BUDGET = 50_000


def hall(G: Group, pi):
    """Best-effort Hall pi-subgroup search; ``None`` means "not found within
    budget", which is distinct from a nonexistence proof.

    Strategy: seed with the conjugates of a Sylow subgroup for the heaviest
    prime in pi and greedily adjoin pi-elements whose closure stays a
    pi-group, backtracking on dead ends, bounded by ``HALL_BUDGET`` closures.
    """
    pi = frozenset(p for p in pi if G.order % p == 0)

    def build():
        target = pi_part(G.order, pi)
        if target == 1:
            return Subgroup.trivial(G)
        if target == G.order:
            return Subgroup.full(G)
        if len(pi) == 1:
            return sylow(G, next(iter(pi)))
        if (parts := _blockwise(G, lambda f: hall(f, pi))) is not None:
            return None if None in parts else Subgroup.from_factors(G, parts)
        G.materialize()
        orders = G.element_orders()
        candidates = [
            i for i, o in enumerate(orders) if o > 1 and is_pi_number(o, pi)
        ]
        p0 = max(pi, key=lambda q: (p_part(G.order, q), q))
        spent = 0
        visited = set()

        def extend(H: frozenset):
            nonlocal spent
            if len(H) == target:
                return H
            hgens = Subgroup.from_ids(G, H).generating_ids()
            for x in candidates:
                if x in H:
                    continue
                if spent >= HALL_BUDGET:
                    return None
                spent += 1
                K = G.closure_from_gen_ids(hgens + [x], H)
                if K in visited:
                    continue
                visited.add(K)
                if target % len(K) or not is_pi_number(len(K), pi):
                    continue
                r = extend(K)
                if r is not None:
                    return r
            return None

        for P in sylow_conjugates(G, p0):
            if P.ids in visited:
                continue
            visited.add(P.ids)
            r = extend(P.ids)
            if r is not None:
                return Subgroup.from_ids(G, r)
            if spent >= HALL_BUDGET:
                break
        return None

    return _cached(G, ("hall", pi), build)


def hall_conjugates(G: Group, H: Subgroup) -> list:
    """Distinct conjugates of a subgroup ``H`` of ``G``, ``H`` itself first.

    On an unmaterialised product with ``H`` product-form over its blocks,
    every conjugate is the product of block conjugates, so the list is the
    product of the blocks' lists, in ``itertools.product`` order.
    Otherwise the conjugates are the points of :func:`_conjugation_orbit`,
    in first-appearance store order: ``H^g`` for ``g`` in store order, each
    conjugate where it first appears.
    """
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if (parts := _blockwise(G, hall_conjugates, H)) is not None:
        return [Subgroup.from_factors(G, c) for c in itertools.product(*parts)]
    if H.is_trivial():
        return [H]
    orbit, label = _conjugation_orbit(G, H.ids_in_store())
    return [Subgroup.from_ids(G, orbit[i]) for i in dict.fromkeys(label)]


# -- decomposability and the upper p-series -------------------------------------------


def is_p_decomposable(G: Group, p: int) -> bool:
    """Whether ``G = O_p(G) x O_{p'}(G)``; memoised on G."""
    return _cached(
        G, ("p_decomposable", p), lambda: o_p(G, p).order * o_p_prime(G, p).order == G.order
    )


@dataclass
class UpperPSeries:
    """Alternating O_{p'} / O_p tower pulled back to the group."""

    prime: int
    terms: list = field(default_factory=list)
    p_length: int = 0
    is_p_soluble: bool = False


def upper_p_series(G: Group, p: int) -> UpperPSeries:
    def build():
        series = UpperPSeries(prime=p)
        current = Subgroup.trivial(G)
        series.terms.append(current)
        mode_p = False  # start with the O_{p'} step
        idle = 0
        while current.order < G.order:
            Q = quotient_group(G, current)
            if mode_p:
                S = o_p(Q.group, p)
            else:
                S = o_pi(Q.group, set(pi_of(Q.group)) - {p})
            new = Q.preimage(S) if not S.is_trivial() else current
            if new.order > current.order:
                series.terms.append(new)
                if mode_p:
                    series.p_length += 1
                current = new
                idle = 0
            else:
                idle += 1
                if idle >= 2:
                    break
            mode_p = not mode_p
        series.is_p_soluble = current.order == G.order
        return series

    return _cached(G, ("upper_p_series", p), build)


# -- normal closures and normality ------------------------------------------------------


def _normal_closure_ids(G: Group, seed, pi=None) -> tuple:
    """``(K, gens)``: the normal closure K of the ids ``seed`` and ids generating
    it.  Each generator's conjugates are tested once; one outside K extends it
    by a Dimino step.  With ``pi``, a partial K returns once |K| is no pi-number."""
    gens = list(seed)
    K = G.closure_from_gen_ids(gens)
    for s in gens:
        for cmap in G.conjugation_maps():
            if pi is not None and not is_pi_number(len(K), pi):
                return K, gens
            if cmap[s] not in K:
                gens.append(cmap[s])
                K = G.closure_from_gen_ids(gens, K)
    return K, gens


def normal_closure(G: Group, S) -> Subgroup:
    """Smallest normal subgroup of ``G`` containing ``S`` (iterable or Subgroup)."""
    gens = list(S.generating_set()) if isinstance(S, Subgroup) else list(S)
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return Subgroup.trivial(G)
    ids, _ = _normal_closure_ids(G, [G.element_id(g) for g in gens])
    return Subgroup.from_ids(G, ids)


def is_normal(G: Group, S: Subgroup) -> bool:
    """Whether the subgroup ``S`` of ``G`` is normal: generators conjugate
    generators into S.

    On an unmaterialised product the answer is blockwise, which is exact:
    ``S_1 x ... x S_r`` is normal in ``G_1 x ... x G_r`` iff every ``S_i``
    is normal in ``G_i``.  Otherwise the conjugates are read from
    :meth:`Group.conjugation_maps` and tested against S's store ids.  A
    subgroup of another group raises ValueError.
    """
    if S.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if S.order == G.order:
        return True
    if (parts := _blockwise(G, is_normal, S)) is not None:
        return all(parts)
    ids = S.ids_in_store()
    return S.cached("normal", lambda: all(
        cmap[s] in ids for cmap in G.conjugation_maps() for s in S.generating_ids()
    ))


# -- bounded subgroup enumeration ----------------------------------------------------


def enumerate_subgroups(G: Group, budget: int = 400_000, max_order: int = 200) -> list:
    """All subgroups, sorted by (order, member ids) and cached.

    A layered closure: every explored subgroup ``H`` yields ``<H, x>`` for
    each prime-power-order element ``x`` outside it.  Every group is
    generated by such elements, so each subgroup tops a chain
    ``1 < <x1> < <x1, x2> < ...`` whose steps the layering follows.  Two
    exact reductions keep the closures few:

    * ``<H, x> == <H, x^k>`` whenever ``gcd(k, |x|) == 1``, so only one
      generator of each cyclic subgroup of prime-power order is tried;
    * ``<H^g, x> == <H, x^(g^-1)>^g``, so the children of a conjugate are the
      conjugates of the children.  Each new subgroup enters the result with
      its whole conjugacy class, walked under
      :meth:`Group.conjugation_maps`, but only the subgroup itself is explored.

    The found set is then closed under conjugation and holds every child of
    every member, so every chain still climbs inside it and the layering
    stays complete.  ``budget`` bounds the closures attempted; a spent
    budget reports the subgroups found so far as ``partial``.  Every result
    carries its memoised :meth:`Subgroup.generating_ids`.
    """

    def build():
        if G.order > max_order:
            raise CapExceeded(
                f"subgroup enumeration bound is {max_order}, group has order {G.order}",
                cap=max_order,
            )
        G.materialize()
        mul = G.cayley()
        pp_ids = []
        covered = set()
        for x, o in enumerate(G.element_orders()):
            if x in covered or o == 1 or not classify_prime_power(o).is_prime_power:
                continue
            pp_ids.append(x)
            col, y = mul.col(x), x
            for k in range(1, o):
                if math.gcd(k, o) == 1:
                    covered.add(y)
                y = col[y]
        trivial = Subgroup.trivial(G)
        found = {trivial.ids: trivial}
        frontier = [trivial]
        spent = 0
        while frontier:
            new = []
            for H in frontier:
                hids, hgens = H.ids, H.generating_ids()
                for x in pp_ids:
                    if x in hids:
                        continue
                    spent += 1
                    if spent > budget:
                        raise CapExceeded(
                            f"subgroup enumeration exceeded budget {budget}",
                            cap=budget,
                            partial=len(found),
                        )
                    K = G.closure_from_gen_ids(hgens + [x], hids)
                    if K in found:
                        continue
                    found[K] = S = Subgroup.from_ids(G, K)
                    new.append(S)
                    orbit = [K]
                    for L in orbit:
                        for cmap in G.conjugation_maps():
                            M = frozenset(map(cmap.__getitem__, L))
                            if M not in found:
                                found[M] = Subgroup.from_ids(G, M)
                                orbit.append(M)
            frontier = new
        for S in found.values():
            S.generating_ids()
        return sorted(found.values(), key=lambda S: (S.order, tuple(sorted(S.ids))))

    return _cached(G, ("subgroups", budget, max_order), build)

