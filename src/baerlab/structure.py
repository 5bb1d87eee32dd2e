"""Characteristic subgroups, Sylow/Hall machinery, relative cores and series.

Every operation here is a pure function of immutable groups.  Results are
memoised write-once by :func:`~baerlab.group.memo` on the object they are
about, keyed by the function and its other arguments, so sweeps never
recompute per-group structure.  Facts about one subgroup (its centraliser,
whether it is normal or abelian, its meets with G's Sylow subgroups, its own
Sylow subgroups and class sizes, its products with normal subgroups, and
``baer``'s index profiles, side statuses, index primes and centraliser
indices) are memoised on the subgroup, which also holds its generating ids
(:meth:`Subgroup.generating_ids`); since subgroups are
canonical per group, every factorisation of a group that reaches the same
subgroup shares them, and they are freed with it.

A subgroup argument of an operation on G belongs to G (``S.parent is G``),
so it is ids into G's store or one factor per block of ``G.direct_factors``
(see :class:`Subgroup`), and each operation has two routes.  While G is an
unmaterialised direct product (:attr:`Group.blocks`), the operations that
distribute over products (abelianness, Sylow and Hall subgroups and their
conjugates, a subgroup's first Sylow subgroup, cores and relative cores,
products with normal subgroups, normality, prefactorised Sylow subgroups)
recurse into the factors through :func:`_blockwise`.  Derived facts reach
the blocks through these: a subgroup's Sylow subgroups are its Sylow meets
of full p-part, the Fitting terms fold relative cores with
:func:`product_with_normal`, and p-decomposability compares relative cores'
orders.  Every other call, a materialised product included, works on G's
store ids and its Cayley table, but for ``baer``'s p-power index profile: a
product-form subgroup folds its blocks' index kinds and class sizes even
once G is materialised, and only an id-backed one reads
:func:`factor_class_sizes`.  On the id route a subgroup's conjugates and
normaliser come from :meth:`Group.conjugates` and
:meth:`Group.conjugation_labels`: this module spreads nothing down the
table's tree and reads no inverse ids.

A fact about a factor group G/M, M normal, is a relative core in G's own id
space, as in Huppert's upper pi-series (*Endliche Gruppen I*, VI):
``o_pi(G, pi, over=M)`` is the N with ``N/M = O_pi(G/M)``, and
:func:`is_p_decomposable` and :func:`is_abelian` take the same ``over``, as
:func:`central_quotient` reads G/C_G(O_p(G)).  No Group is built per factor
group; :func:`quotient_group` is only the tests' reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import CapExceeded, InternalInvariantViolation
from .group import Group, Subgroup, centraliser, memo, take
from .numth import is_p_number, is_pi_number, is_prime_power, p_part, pi_part, prime_divisors
from .perm import Permutation


def pi_of(G: Group):
    """Set of primes dividing the group order."""
    return prime_divisors(G.order)


def _blockwise(G: Group, op, *subs):
    """Per-block results ``[op(G_i, S_i, ...)]``, or None for the whole-group route.

    The one dispatch for direct products: the blocks are used when G is an
    unmaterialised product (``G.blocks``) and every subgroup of G in ``subs``
    is product-form, over those blocks.  A None in ``subs`` stands for no
    subgroup and is passed as None to every block.
    """
    blocks = G.blocks
    if blocks is None or any(S is not None and S.factors is None for S in subs):
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
    product-form.  Otherwise generator permutations are composed, each
    unordered pair once.  Memoised on the group or subgroup per M.
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
    # [b, a] is [a, b]^-1, so each unordered pair is compared once.
    pairs = itertools.combinations(obj.generating_set() if subgroup else obj.generators, 2)
    if over is None:
        return all(a * b == b * a for a, b in pairs)
    return all(a.inverse() * b.inverse() * a * b in over for a, b in pairs)


def is_nilpotent(G: Group) -> bool:
    return fitting(G).order == G.order


# -- Sylow subgroups ------------------------------------------------------------


@memo
def sylow(G: Group, p: int) -> Subgroup:
    """A deterministic Sylow p-subgroup (full p-part order).

    Greedy extension: seed with the first maximal-order p-element of the
    store, then repeatedly adjoin the first p-element of the normaliser that
    enlarges the current subgroup; the ids adjoined generate it.
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
        # N_G(H) is the ids labelled 0, scanned in ascending order.
        for y, i in enumerate(G.conjugation_labels(G.conjugates(H, gens)[1])):
            if i == 0 and y not in H and orders[y] > 1 and is_p_number(orders[y], p):
                break
        else:
            raise InternalInvariantViolation(
                f"Sylow extension stalled at order {len(H)} < {pk}"
            )
        gens.append(y)
        H = G.closure_from_gen_ids(gens, H)
    return Subgroup.from_ids(G, H, gens)


def sylow_conjugates(G: Group, p: int) -> list:
    """All distinct conjugates of sylow(G, p): ``hall_conjugates(G, sylow(G, p))``.

    Memoised per group and prime through both; the route and the order are
    those of :func:`hall_conjugates`, so the first entry is sylow(G, p).
    """
    return hall_conjugates(G, sylow(G, p))


# -- a subgroup as a group of its own ---------------------------------------------
#
# G = S.parent already holds the store, table and Sylow conjugates of every
# element of S, so these facts about S are read in G's id space, memoised on S.


@memo
def sylow_meets(S: Subgroup, p: int) -> list:
    """``[S n Q for Q in sylow_conjugates(S.parent, p)]``, in conjugate order;
    memoised on S per prime, so every factorisation with side S shares them."""
    return [S.intersection(Q) for Q in sylow_conjugates(S.parent, p)]


@memo
def factor_sylows(S: Subgroup, p: int) -> list:
    """Syl_p(S) for a subgroup S of G = S.parent; memoised on S per prime.

    These are the meets of :func:`sylow_meets` of order ``|S|_p``, in
    conjugate order, each once.  That is every Sylow subgroup of S: each
    lies in some Sylow subgroup Q of G, and is then ``S n Q``, the largest
    p-subgroup of S there.  On an unmaterialised product with S product-form
    the meets are product-form too, and their first appearances come in the
    ``itertools.product`` order of the blocks' lists.  The first entry is
    :func:`factor_sylow`.
    """
    pk = p_part(S.order, p)
    return list(dict.fromkeys(R for R in sylow_meets(S, p) if R.order == pk))


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
    sizes in S; memoised on S.  The classes of S are the
    :meth:`Group.conjugation_orbit` walks under ``S.generating_ids()``, each
    walked once.
    """
    G = S.parent
    size = {}
    gens = S.generating_ids()
    for x in S.ids_in_store():
        if x not in size:
            orbit = G.conjugation_orbit(x, gens)
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
    representative is a pi-group modulo M (:func:`_normal_closure_ids`);
    for a trivial M, one product of non-pi order proves first that it is not
    (:func:`_non_pi_product`).  That reaches all of N, which M and its
    pi-elements generate: the pi'-part of an x in N lies in M.  Memoised on
    G per M (a trivial M is none) and the primes in pi dividing |G : M|."""
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
        if _non_pi_product(G, rep, gens, pi, M.order):
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


# Conjugates of the representative that the certificate multiplies in.  On
# the trivial batteries of quotient-wall's three groups, whose o_pi ran 43
# normal closures without it, a walk of 4 left 23, 12 left 13 and 24 no
# fewer; 12 took symmetric(9)'s from 33 to 13 s.  The walk cycles through
# the generators, as conjugates taken by id are short words moving few points.
CERTIFICATE_STEPS = 12


def _non_pi_product(G: Group, rep: int, gens: list, pi: frozenset, below: int) -> bool:
    """Whether a product of the store id ``rep``, conjugates of it and the ids
    ``gens`` has an order that is no pi-number, read only when ``below``, the
    order of M, is 1.

    Such a product proves that the normal closure of ``gens`` and ``rep`` is
    no pi-group, at the cost of a few permutation products: every factor
    lies in that normal closure, and a pi-group holds only pi-elements
    (Lagrange).  The walk takes ``CERTIFICATE_STEPS`` conjugates, the k-th
    the last one conjugated by generator k mod r through
    :meth:`Group.conjugation_maps`, then ``gens``.  Over a nontrivial M it
    proves nothing: an element of a pi-group modulo M may have pi'-order, its
    pi'-part lying in M.
    """
    if below != 1:
        return False
    maps, walk = G.conjugation_maps(), [rep]
    for k in range(CERTIFICATE_STEPS):
        walk.append(maps[k % len(maps)][walk[-1]])
    els = G.elements
    product = els[rep]
    for f in walk[1:] + gens:
        product = product * els[f]
        if not is_pi_number(product.order(), pi):
            return True
    return False


# -- Fitting series ---------------------------------------------------------------


@memo
def fitting(G: Group) -> Subgroup:
    """F(G), the product of the p-cores over all primes dividing the order."""
    return _fitting_over(G, Subgroup.trivial(G))


@memo
def fitting2(G: Group) -> Subgroup:
    """Second Fitting term, the N with ``N/F(G) = F(G/F(G))``."""
    return _fitting_over(G, fitting(G))


def _fitting_over(G: Group, M: Subgroup) -> Subgroup:
    """The N with ``N/M = F(G/M)``, for M normal in G: F(G/M) is the direct
    product of its p-cores, so N is the product of the relative cores
    ``o_pi(G, {p}, over=M)`` larger than M, M itself when there is none,
    folded by :func:`product_with_normal`."""
    cores = [o_pi(G, {p}, over=M) for p in prime_divisors(G.order // M.order)]
    cores = [N for N in cores if N.order > M.order]
    if not cores:
        return M
    N = functools.reduce(lambda K, core: product_with_normal(G, K, core), cores)
    if N.order * M.order ** (len(cores) - 1) != math.prod(core.order for core in cores):
        raise InternalInvariantViolation("relative p-cores did not multiply to a direct product")
    return N


@memo(owner="S")
def product_with_normal(G: Group, S: Subgroup, N: Subgroup) -> Subgroup:
    """``S N`` for subgroups S and N of G with N normal; memoised on S, keyed
    by G and N.

    When G is an unmaterialised direct product, ``S N`` is the product of
    the blockwise ``S_i N_i`` (each ``N_i`` is normal in its block), so only
    the small blocks are closed and the result stays product-form.
    Otherwise S N is the closure of both generating sets on G's table
    (``G.closure_from_gen_ids``).  Either way the result's order is checked
    against ``|S| |N| / |S n N|``, the size of the set S N.
    """
    if (parts := _blockwise(G, product_with_normal, S, N)) is not None:
        K = Subgroup.from_factors(G, parts)
    else:
        K = Subgroup.from_ids(G, G.closure_from_gen_ids(S.generating_ids() + N.generating_ids()))
    if K.order != S.product_order(N):
        raise InternalInvariantViolation("product with a normal subgroup is not its closure")
    return K


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
            for x in take(mul.col(e), kernel):
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
        if (ab := a.product_order(b)) != group.order:
            raise ValueError(f"|A|*|B|/|AnB| = {ab} != |G| = {group.order}: not a factorisation")
        self.group = group
        self.a = a
        self.b = b
        self._sides = (("A", a), ("B", b))
        self._cache: dict = {}

    @classmethod
    def trivial(cls, G: Group) -> "Factorisation":
        S = Subgroup.full(G)
        return cls(G, S, S)

    def factors(self) -> tuple:
        """``(("A", a), ("B", b))``, built once."""
        return self._sides

    def __repr__(self) -> str:
        return f"Factorisation(|G|={self.group.order}, |A|={self.a.order}, |B|={self.b.order})"


@memo
def find_prefactorised_sylow(F: Factorisation, p: int) -> tuple:
    """``(P, P n A, P n B)`` for a Sylow p-subgroup with ``P = (P n A)(P n B)``
    and Sylow intersections; memoised on F.

    P is the first conjugate of the deterministic Sylow subgroup, in store
    order, whose meets with A and B (:func:`sylow_meets`, memoised on each
    side) have the sides' p-parts and multiply to P; an unmaterialised
    product answers block by block.  Such a conjugate always exists, so
    exhausting the search is an internal red alert, never a silent failure.
    """
    G = F.group
    pa = p_part(F.a.order, p)
    pb = p_part(F.b.order, p)
    parts = _blockwise(
        G, lambda f, a, b: find_prefactorised_sylow(Factorisation(f, a, b), p), F.a, F.b
    )
    if parts is not None:
        return tuple(Subgroup.from_factors(G, c) for c in zip(*parts))
    for Q, QA, QB in zip(sylow_conjugates(G, p), sylow_meets(F.a, p), sylow_meets(F.b, p)):
        if QA.order == pa and QB.order == pb and QA.product_order(QB) == Q.order:
            return Q, QA, QB
    raise InternalInvariantViolation(f"no prefactorised Sylow {p}-subgroup found in {G.name}")


# -- Hall subgroups -----------------------------------------------------------------


def hall(G: Group, pi):
    """A Hall pi-subgroup of G, or ``None`` when G has none.

    The trivial and whole group, a Sylow subgroup for one prime and, on an
    unmaterialised product, the blocks' product are built outright; any
    other is the first subgroup of order |G|_pi in the complete lattice of
    :func:`enumerate_subgroups`, so None proves there is none.  Past the
    lattice's order gate it raises :class:`CapExceeded`; no report reads it.
    Memoised, None included, per group and the primes in pi dividing |G|.
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
    return next((S for S in enumerate_subgroups(G) if S.order == target), None)


@memo
def hall_conjugates(G: Group, H: Subgroup) -> list:
    """Distinct conjugates of a subgroup ``H`` of ``G``, ``H`` itself first;
    memoised on G per H, as every (F, p) of G that reads them shares them.

    On an unmaterialised product with ``H`` product-form over its blocks,
    every conjugate is the product of block conjugates, so the list is the
    product of the blocks' lists, in ``itertools.product`` order.
    Otherwise the conjugates are the orbit of :meth:`Group.conjugates`, listed
    by :meth:`Group.conjugation_labels` in first-appearance store order:
    ``H^g`` for ``g`` in store order, each conjugate where it first appears.
    Each conjugate gets generating ids mapped down the orbit from
    ``H.generating_ids()``, so none searches for its own.
    """
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if (parts := _blockwise(G, hall_conjugates, H)) is not None:
        return [Subgroup.from_factors(G, c) for c in itertools.product(*parts)]
    if H.is_trivial():
        return [H]
    orbit, act, gens = G.conjugates(H.ids_in_store(), H.generating_ids())
    first = dict.fromkeys(G.conjugation_labels(act))
    return [Subgroup.from_ids(G, orbit[i], gens[i]) for i in first]


# -- decomposability and the upper p-series -------------------------------------------


@memo
def is_p_decomposable(G: Group, p: int, over: Subgroup | None = None) -> bool:
    """Whether ``G = O_p(G) x O_{p'}(G)``, or with ``over=M``, a normal subgroup,
    whether G/M is p-decomposable: the relative cores N_p and N_p' of
    :func:`o_pi` (blockwise on a product) meet in M, so it is
    ``|N_p| |N_p'| = |G| |M|``.  Memoised on G per prime and M."""
    m = 1 if over is None else over.order
    return o_pi(G, {p}, over).order * o_pi(G, set(pi_of(G)) - {p}, over).order == G.order * m


@memo
def central_quotient(G: Group, p: int) -> tuple:
    """``(shape, |G : C|, |N : C|)`` for ``C = C_G(O_p(G))`` and N the relative
    p'-core over C: shape is whether G/C is p-decomposable with the abelian
    p-complement N/C, read in G as relative cores; memoised on G per prime."""
    C = centraliser(G, o_p(G, p))
    N = o_pi(G, set(pi_of(G)) - {p}, over=C)
    shape = is_p_decomposable(G, p, over=C) and is_abelian(N, over=C)
    return shape, G.order // C.order, N.order // C.order


@dataclass
class UpperPSeries:
    """The upper p-series ``1 <= O_{p'}(G) <= O_{p',p}(G) <= ...``, each term
    the relative core (:func:`o_pi` with ``over``) of its step over the last."""

    terms: list = field(default_factory=list)
    p_length: int = 0
    is_p_soluble: bool = False


@memo
def upper_p_series(G: Group, p: int) -> UpperPSeries:
    """Alternating O_{p'} and O_p steps, each read in G as a relative core over
    the last term; two idle steps in a row end a series below G."""
    series = UpperPSeries()
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


def normal_closure(G: Group, elements) -> Subgroup:
    """Smallest normal subgroup of ``G`` containing the given elements."""
    gens = [g for g in elements if not g.is_identity()]
    if not gens:
        return Subgroup.trivial(G)
    ids, _ = _normal_closure_ids(G, [G.element_id(g) for g in gens])
    return Subgroup.from_ids(G, ids)


@memo(owner="S")
def is_normal(G: Group, S: Subgroup) -> bool:
    """Whether the subgroup ``S`` of ``G`` is normal: generators conjugate
    generators into S.  Memoised on S, so a repeated call costs one lookup.

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
    return all(cmap[s] in ids for cmap in G.conjugation_maps() for s in S.generating_ids())


# -- bounded subgroup enumeration ----------------------------------------------------


@memo
def enumerate_subgroups(G: Group, budget: int = 400_000, max_order: int = 1296) -> list:
    """All subgroups, sorted by (order, member ids) and cached.

    A layered closure: every explored subgroup ``H`` yields ``<H, x>`` for
    each prime-power-order element ``x`` outside it.  Every group is
    generated by such elements, so each subgroup tops a chain
    ``1 < <x1> < <x1, x2> < ...`` whose steps the layering follows.  Three
    exact reductions keep the closures few:

    * ``<H, x> == <H, x^k>`` whenever ``gcd(k, |x|) == 1``, so only one
      generator of each cyclic subgroup of prime-power order is tried;
    * ``<H^g, x> == <H, x^(g^-1)>^g``, so the children of a conjugate are the
      conjugates of the children.  Each new subgroup enters the result with
      its whole conjugacy class, the orbit of :meth:`Group.conjugates`, but
      only the subgroup itself is explored;
    * ``<H, x^h> == <H, x>`` for ``h`` in ``H``, since ``x^h`` lies in
      ``<H, x>`` and ``x`` in ``<H, x^h>``, so ``H`` is extended by one cyclic
      subgroup per ``H``-conjugacy class: the cyclic subgroups of
      ``G.conjugation_orbit(x, H.generating_ids())`` are marked tried.

    The found set is then closed under conjugation and holds every child of
    every member, so every chain still climbs inside it and the layering
    stays complete.  A group past ``max_order`` raises :class:`CapExceeded`
    unmaterialised, as closures do not bound time (5,000 on S8 took 42 s).
    ``budget`` bounds the closures attempted; a spent budget reports the
    subgroups found so far as ``partial``.  Each result
    keeps the generators it was built from as :meth:`Subgroup.generating_ids`
    (unless an earlier route set them): ``hgens + [x]`` for a closed
    ``<H, x>``, its orbit parent's conjugated for the rest of its class.
    """
    if G.order > max_order:
        raise CapExceeded(
            f"subgroup enumeration bound is {max_order}, group has order {G.order}",
            cap=max_order,
        )
    G.materialize()
    mul = G.cayley()
    # pp_ids holds one generator per cyclic subgroup of prime-power order,
    # and cyclic_rep[y] is the one with <y> == <cyclic_rep[y]>.
    pp_ids = []
    cyclic_rep = {}
    for x, o in enumerate(G.element_orders()):
        if x in cyclic_rep or o == 1 or not is_prime_power(o):
            continue
        pp_ids.append(x)
        col, y = mul.col(x), x
        for k in range(1, o):
            if math.gcd(k, o) == 1:
                cyclic_rep[y] = x
            y = col[y]
    trivial = Subgroup.trivial(G)
    found = {trivial.ids: trivial}
    frontier = [trivial]
    spent = 0
    while frontier:
        new = []
        for H in frontier:
            hids, hgens = H.ids, H.generating_ids()
            tried = set()
            for x in pp_ids:
                if x in hids or x in tried:
                    continue
                tried.update(take(cyclic_rep, G.conjugation_orbit(x, hgens)))
                spent += 1
                if spent > budget:
                    raise CapExceeded(
                        f"subgroup enumeration exceeded budget {budget}",
                        cap=budget,
                        partial=len(found),
                    )
                kgens = hgens + [x]
                K = G.closure_from_gen_ids(kgens, hids)
                if K in found:
                    continue
                orbit, _act, gens = G.conjugates(K, kgens)
                for M, mgens in zip(orbit, gens):
                    found[M] = Subgroup.from_ids(G, M, mgens)
                new.append(found[K])
        frontier = new
    return sorted(found.values(), key=lambda S: (S.order, tuple(sorted(S.ids))))

