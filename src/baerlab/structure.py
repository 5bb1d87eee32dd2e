"""Characteristic subgroups, Sylow/Hall machinery, relative cores and series.

Every operation here is a pure function of immutable groups.  Results are
memoised write-once by :func:`~baerlab.group.memo` on the object they are
about, keyed by the function and its other arguments, so sweeps never
recompute per-group structure.  Facts about one subgroup (its generating ids
and centraliser, whether it is normal or abelian, its own Sylow subgroups and
class sizes, and the index profiles, centraliser indices and products with
normal subgroups of ``baer``) are memoised on the subgroup; since subgroups
are canonical per group, every factorisation of a group that reaches the
same subgroup shares them, and they are freed with it.

A subgroup argument of an operation on G belongs to G (``S.parent is G``),
so it is ids into G's store or one factor per block of ``G.direct_factors``
(see :class:`Subgroup`), and each operation has two routes.  While G is an
unmaterialised direct product (:attr:`Group.blocks`), the operations that
distribute over products (centre, derived subgroup, Sylow and Hall subgroups
and their conjugates, cores and relative cores, Fitting terms, exponent,
normality, prefactorised Sylow subgroups) recurse into the factors through
:func:`_blockwise`.  Every other call, a materialised product
included, works on G's store ids and its Cayley table, but for ``baer``'s
p-power index profile: a product-form subgroup folds its blocks' index kinds
and class sizes even once G is materialised, and only an id-backed one reads
:func:`factor_class_sizes`.

A fact about a factor group G/M, M normal, is a relative core in G's own id
space, as in Huppert's upper pi-series (*Endliche Gruppen I*, VI):
``o_pi(G, pi, over=M)`` is the N with ``N/M = O_pi(G/M)``, and
:func:`is_p_decomposable` and :func:`is_abelian` take the same ``over``.  No
Group is built per factor group; :func:`quotient_group` is only the tests'
reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import CapExceeded, InternalInvariantViolation
from .group import Group, Subgroup, centraliser, memo
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


def _blockwise(G: Group, op, *subs):
    """Per-block results ``[op(G_i, S_i, ...)]``, or None for the whole-group route.

    The one dispatch for direct products: the blocks are used when G is an
    unmaterialised product (``G.blocks``) and every subgroup in ``subs`` is
    product-form over those same blocks.  A None in ``subs`` stands for no
    subgroup and is passed as None to every block.
    """
    blocks = G.blocks
    if blocks is None or any(S is not None and S.factor_parents() != blocks for S in subs):
        return None
    columns = (itertools.repeat(None) if S is None else S.factors for S in subs)
    return [op(*args) for args in zip(blocks, *columns)]


# -- commutativity and elementary structure -----------------------------------


@memo
def is_abelian(obj, over: Subgroup | None = None) -> bool:
    """Whether a group or subgroup is abelian, or with ``over=M``, a normal
    subgroup of it, whether obj/M is: generator pairs commute, or with M
    their commutators lie in M.

    An unmaterialised product answers block by block when obj and M are
    product-form.  Otherwise, for a subgroup of a materialised parent and no
    M the pairs are compared on the table (``col(b)[a] == col(a)[b]`` over
    the generating ids), and in every other case generator permutations are
    composed.  Memoised on the group or subgroup per M.
    """
    if over is not None and over.order == obj.order:
        return True  # obj/M is trivial, and no generating set is needed
    subgroup = isinstance(obj, Subgroup)
    if subgroup:
        parts = _blockwise(obj.parent, lambda _f, s, m: is_abelian(s, m), obj, over)
    else:
        parts = _blockwise(obj, is_abelian, over)
    if parts is not None:
        return all(parts)
    if subgroup and over is None and obj.parent.is_materialized:
        mul = obj.parent.cayley()
        gens = obj.generating_ids()
        return all(mul.col(b)[a] == mul.col(a)[b] for a in gens for b in gens)
    gens = obj.generating_set() if subgroup else obj.generators
    if over is None:
        return all(a * b == b * a for a in gens for b in gens)
    return all(a.inverse() * b.inverse() * a * b in over for a in gens for b in gens)


@memo
def exponent(G: Group) -> int:
    if (parts := _blockwise(G, exponent)) is not None:
        return math.lcm(*parts)
    return math.lcm(*(o for o in G.element_orders()))


@memo
def center(G: Group) -> Subgroup:
    if (parts := _blockwise(G, center)) is not None:
        return Subgroup.from_factors(G, parts)
    return centraliser(G, G.generators)


@memo
def derived_subgroup(G: Group) -> Subgroup:
    if (parts := _blockwise(G, derived_subgroup)) is not None:
        return Subgroup.from_factors(G, parts)
    gens = G.generators
    comms = [
        a.inverse() * b.inverse() * a * b for a in gens for b in gens if a != b
    ]
    return normal_closure(G, comms)


def is_nilpotent(G: Group) -> bool:
    return fitting(G).order == G.order


# -- Sylow subgroups ------------------------------------------------------------


@memo
def sylow(G: Group, p: int) -> Subgroup:
    """A deterministic Sylow p-subgroup (full p-part order).

    Greedy extension: seed with the first maximal-order p-element of the
    store, then repeatedly adjoin the first p-element of the normaliser that
    enlarges the current subgroup.
    """
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


def _conjugation_orbit(G: Group, ids) -> tuple:
    """``(orbit, label)``: the conjugates of the id set ``ids``, and per element g
    the index in ``orbit`` of ``ids^g``.

    ``orbit`` starts at ``ids`` and grows by images under
    :meth:`Group.conjugation_maps`, so it costs ``|G : N_G(H)|`` set images.
    The labels are no walk of G but a
    :meth:`~baerlab.group.CayleyTable.spread` down the table's tree of left
    products: ``H^((s a)^-1) = (H^(a^-1))^(s^-1)``, so the label of ``x**-1``
    spreads by the inverse action of each generator on the orbit, and is read
    back through the inverse ids.
    """
    maps = G.conjugation_maps()
    orbit = [frozenset(ids)]
    where = {orbit[0]: 0}
    act = [[] for _ in maps]  # act[j][i]: the index of orbit[i]^(g_j)
    for L in orbit:
        for cmap, images in zip(maps, act):
            M = frozenset(map(cmap.__getitem__, L))
            if M not in where:
                where[M] = len(orbit)
                orbit.append(M)
            images.append(where[M])
    # Each act[j] permutes the orbit; sorting by it gives its inverse.
    back = [sorted(range(len(orbit)), key=images.__getitem__) for images in act]
    return orbit, list(map(G.cayley().spread(0, back).__getitem__, G.inverse_ids()))


def _normaliser_ids(G: Group, H: frozenset) -> list:
    """``N_G(H)`` as ascending store ids: the elements whose conjugation label is 0."""
    _, label = _conjugation_orbit(G, H)
    return [g for g, i in enumerate(label) if i == 0]


@memo
def sylow_conjugates(G: Group, p: int) -> list:
    """All distinct conjugates of sylow(G, p): ``hall_conjugates(G, sylow(G, p))``.

    Memoised per group and prime; the route and the order are those of
    :func:`hall_conjugates`, so the first entry is sylow(G, p).
    """
    return hall_conjugates(G, sylow(G, p))


# -- a subgroup as a group of its own ---------------------------------------------
#
# G = S.parent already holds the store, table and Sylow conjugates of every
# element of S, so these facts about S are read in G's id space, memoised on S.


@memo
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
    G = S.parent
    if (parts := _blockwise(G, lambda _f, s: factor_sylows(s, p), S)) is not None:
        return [Subgroup.from_factors(G, c) for c in itertools.product(*parts)]
    pk = p_part(S.order, p)
    meets = (S.intersection(Q) for Q in sylow_conjugates(G, p))
    return list(dict.fromkeys(R for R in meets if R.order == pk))


@memo
def factor_sylow(S: Subgroup, p: int) -> Subgroup:
    """The first of :func:`factor_sylows`, built without listing the others on
    a product; memoised on S per prime."""
    G = S.parent
    if (parts := _blockwise(G, lambda _f, s: factor_sylow(s, p), S)) is not None:
        return Subgroup.from_factors(G, parts)
    return factor_sylows(S, p)[0]


@memo
def factor_class_sizes(S: Subgroup) -> dict:
    """``{id: |S : C_S(x)|}`` over the store ids x of S's members, the class
    sizes in S; memoised on S.

    A subgroup of full order is G, whose conjugacy partition gives them.
    Otherwise the classes of S are orbits under ``S.generating_ids()`` on G's
    table, ``id(s^-1 x s) = row(s^-1)[col(s)[x]]``, each walked once.
    """
    G = S.parent
    size = {}
    if S.order == G.order:
        for cls in G.conjugacy_partition():
            size.update(dict.fromkeys(cls, len(cls)))
        return size
    mul, inv = G.cayley(), G.inverse_ids()
    gens = [(mul.row(inv[s]), mul.col(s)) for s in S.generating_ids()]
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


@memo
def o_p(G: Group, p: int) -> Subgroup:
    """Largest normal p-subgroup, as the intersection of all Sylow p-conjugates."""
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


def o_pi(G: Group, pi, over: Subgroup | None = None) -> Subgroup:
    """Largest normal pi-subgroup, for any prime set ``pi`` (so O_{p'} too);
    with ``over=M``, a normal subgroup of G, the relative core: the normal N
    with ``N/M = O_pi(G/M)``, read in G's own id space.

    One normal K with K/M a pi-group grows from M: a class of pi-elements
    outside K lies in N iff the normal closure of K's generating ids and its
    representative is a pi-group modulo M (:func:`_normal_closure_ids`).
    That reaches all of N, which M and its pi-elements generate: the
    pi'-part of an x in N lies in M.  Memoised on G per M (a trivial M is
    none) and the primes in pi dividing |G : M|."""
    over = None if over is None or over.is_trivial() else over
    index = G.order if over is None else G.order // over.order
    return _o_pi(G, frozenset(p for p in pi if index % p == 0), over)


@memo
def _o_pi(G: Group, pi: frozenset, over) -> Subgroup:
    M = Subgroup.trivial(G) if over is None else over
    if not pi:
        return M
    if pi == frozenset(prime_divisors(G.order // M.order)):
        return Subgroup.full(G)
    if over is None and len(pi) == 1:
        return o_p(G, next(iter(pi)))
    if (parts := _blockwise(G, lambda f, m: o_pi(f, pi, m), over)) is not None:
        return Subgroup.from_factors(G, parts)
    G.materialize()
    orders = G.element_orders()
    base = M.ids_in_store()
    K, gens = base, list(M.generating_ids())
    for cls in G.conjugacy_partition():
        rep = cls[0]
        if rep in K or not is_pi_number(orders[rep], pi):
            continue
        closed, closed_gens = _normal_closure_ids(G, gens + [rep], pi, M.order)
        if is_pi_number(len(closed) // M.order, pi):
            K, gens = closed, closed_gens
    core = Subgroup.from_ids(G, K)
    if not base <= K or not is_pi_number(core.order // M.order, pi):
        raise InternalInvariantViolation("pi-core is not a pi-group over M")
    if not is_normal(G, core):
        raise InternalInvariantViolation("pi-core is not normal")
    return core


def o_p_prime(G: Group, p: int) -> Subgroup:
    """O_{p'}(G): the largest normal subgroup of order prime to p."""
    return o_pi(G, set(pi_of(G)) - {p})


# -- Fitting series ---------------------------------------------------------------


@memo
def fitting(G: Group) -> Subgroup:
    """F(G), the product of the p-cores over all primes dividing the order."""
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


@memo
def fitting2(G: Group) -> Subgroup:
    """Second Fitting term, the N with ``N/F(G) = F(G/F(G))``: F(G/F(G)) is the
    direct product of its p-cores, so N is the product of the relative cores
    ``o_pi(G, {p}, over=F(G))``."""
    if (parts := _blockwise(G, fitting2)) is not None:
        return Subgroup.from_factors(G, parts)
    F = fitting(G)
    if F.order == G.order:
        return Subgroup.full(G)
    cores = [o_pi(G, {p}, over=F) for p in prime_divisors(G.order // F.order)]
    ids = G.closure_from_gen_ids([i for N in cores for i in N.generating_ids()])
    if len(ids) * F.order ** (len(cores) - 1) != math.prod(N.order for N in cores):
        raise InternalInvariantViolation("relative p-cores did not multiply to a direct product")
    return Subgroup.from_ids(G, ids)


# -- the reference quotient --------------------------------------------------------


@dataclass
class Quotient:
    """G/N as the right-coset action of G = ``source``: ``group`` is the
    regular permutation group of degree |G : N| and ``project`` the quotient
    map.  Store id x lies in coset ``coset_of[x]``, numbered by the cosets'
    least ids ``reps``, so degrees and projections are reproducible."""

    source: Group
    group: Group
    coset_of: list
    reps: list

    def project(self, g: Permutation) -> Permutation:
        col = self.source.cayley().col(self.source.element_id(g))
        return Permutation._make(tuple(self.coset_of[col[r]] for r in self.reps))


def quotient_group(G: Group, N: Subgroup) -> Quotient:
    """G/N for a normal subgroup N, as the regular representation on the right
    cosets of N in the materialised G, built anew per call.  No engine path
    reads it: a fact about G/N is a relative core in G (see :func:`o_pi`),
    and this is the reference the tests compare those against."""
    if N.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if not is_normal(G, N):
        raise ValueError("quotient by a non-normal subgroup")
    mul, kernel = G.cayley(), N.ids_in_store()
    coset_of, reps = [-1] * len(mul), []
    for e in range(len(mul)):
        if coset_of[e] < 0:  # e is the least id of N e, whose ids are col(e)[n]
            for x in map(mul.col(e).__getitem__, kernel):
                coset_of[x] = len(reps)
            reps.append(e)
    cols = map(mul.col, G.generator_ids())
    gens = [Permutation._make(tuple(coset_of[c[r]] for r in reps)) for c in cols]
    group = Group(len(reps), gens, order_hint=len(mul) // N.order, name=f"{G.name}/N{N.order}")
    return Quotient(G, group, coset_of, reps)


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


@memo
def find_prefactorised_sylow(F: Factorisation, p: int) -> Subgroup:
    """A Sylow p-subgroup with ``P = (P n A)(P n B)`` and Sylow intersections.

    Searches the conjugates of the deterministic Sylow subgroup in store
    order; such a conjugate always exists, so exhausting the search is an
    internal red alert, never a silent failure.
    """
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


# -- Hall subgroups -----------------------------------------------------------------


# Closures one Hall search may attempt before it raises CapExceeded.
HALL_BUDGET = 50_000


def hall(G: Group, pi):
    """A Hall pi-subgroup of G, or ``None`` when G has none.

    Strategy: seed with the conjugates of a Sylow subgroup for the heaviest
    prime in pi and adjoin pi-elements whose closure stays a pi-group,
    backtracking on dead ends.  A Hall pi-subgroup contains one of those
    Sylow subgroups and is reached from it one element at a time, so a
    search that ends without one proves that there is none.  A search that
    needs more than ``HALL_BUDGET`` closures raises :class:`CapExceeded` with
    the closures tried.  Memoised, None included, per group and set of the
    primes in pi dividing |G|.
    """
    return _hall(G, frozenset(p for p in pi if G.order % p == 0))


@memo
def _hall(G: Group, pi: frozenset):
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
                raise CapExceeded(
                    f"Hall {sorted(pi)}-subgroup search of {G.name} spent its budget",
                    cap=HALL_BUDGET, partial=spent,
                )
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
    return None


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


@memo
def is_p_decomposable(G: Group, p: int, over: Subgroup | None = None) -> bool:
    """Whether ``G = O_p(G) x O_{p'}(G)``, or with ``over=M``, a normal subgroup,
    whether G/M is p-decomposable: the relative cores N_p and N_p' of
    :func:`o_pi` meet in M, so it is ``|N_p| |N_p'| = |G| |M|``.  An
    unmaterialised product is p-decomposable modulo a product-form M iff every
    block is.  Memoised on G per prime and M."""
    if (parts := _blockwise(G, lambda f, m: is_p_decomposable(f, p, m), over)) is not None:
        return all(parts)
    m = 1 if over is None else over.order
    return o_pi(G, {p}, over).order * o_pi(G, set(pi_of(G)) - {p}, over).order == G.order * m


@dataclass
class UpperPSeries:
    """The upper p-series ``1 <= O_{p'}(G) <= O_{p',p}(G) <= ...``, each term
    the relative core (:func:`o_pi` with ``over``) of its step over the last."""

    prime: int
    terms: list = field(default_factory=list)
    p_length: int = 0
    is_p_soluble: bool = False


@memo
def upper_p_series(G: Group, p: int) -> UpperPSeries:
    """Alternating O_{p'} and O_p steps, each read in G as a relative core over
    the last term; two idle steps in a row end a series below G."""
    series = UpperPSeries(prime=p)
    current = Subgroup.trivial(G)
    series.terms.append(current)
    others = set(pi_of(G)) - {p}
    mode_p = False  # start with the O_{p'} step
    idle = 0
    while current.order < G.order:
        new = o_pi(G, {p} if mode_p else others, over=current)
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


# -- normal closures and normality ------------------------------------------------------


def _normal_closure_ids(G: Group, seed, pi=None, below: int = 1) -> tuple:
    """``(K, gens)``: the normal closure K of the ids ``seed`` and ids generating
    it.  Each generator's conjugates are tested once; one outside K extends it
    by a Dimino step.  With ``pi``, a partial K returns once ``|K| / below`` is
    no pi-number, for ``below`` the order of a subgroup inside every K."""
    gens = list(seed)
    K = G.closure_from_gen_ids(gens)
    for s in gens:
        for cmap in G.conjugation_maps():
            if pi is not None and not is_pi_number(len(K) // below, pi):
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
    :meth:`Group.conjugation_maps` and tested against S's store ids, and the
    answer is memoised on S.  A subgroup of another group raises ValueError.
    """
    if S.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if S.order == G.order:
        return True
    if (parts := _blockwise(G, is_normal, S)) is not None:
        return all(parts)
    return _is_normal_on_table(G, S)


@memo(owner="S")
def _is_normal_on_table(G: Group, S: Subgroup) -> bool:
    ids = S.ids_in_store()
    return all(cmap[s] in ids for cmap in G.conjugation_maps() for s in S.generating_ids())


# -- bounded subgroup enumeration ----------------------------------------------------


@memo
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

