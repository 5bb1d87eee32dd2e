"""Groups, subgroups, closure, conjugacy classes and centralisers.

A :class:`Group` is a set of generators plus a lazily materialised,
cap-guarded element store.  Groups built as direct products carry a
``direct_factors`` annotation.  One rule decides how a product is handled:
it is handled block by block exactly while it carries ``direct_factors`` and
its store is not built, which :attr:`Group.blocks` reports; every other
group, a materialised product included, takes the whole-group route.  The
blockwise route keeps very large direct products (orders in the millions
and beyond) desk-computable.  :func:`split_blocks` and :func:`join_blocks`
are the one codec between a product's permutations and its block
permutations.

A :class:`Subgroup` of G is ids into G's materialised store, or one factor
per block of ``G.direct_factors``; its constructors enforce this.  So every
operation on a subgroup of G has two routes: block by block while G is an
unmaterialised product, otherwise on store ids, multiplying through G's
:class:`CayleyTable`, filled column by column as columns are asked for.  An
element outside G raises ValueError on either route.

Determinism rules used throughout the package:

* element stores are sorted lexicographically on image tuples;
* breadth-first walks visit frontier elements in insertion order and
  generators in the order they were supplied.
"""

from __future__ import annotations

import itertools
import math
import weakref

from .errors import (
    CAYLEY_CELL_BUDGET,
    DEFAULT_CLASS_ORBIT_CAP,
    ENUMERATION_CAP,
    CapExceeded,
    InternalInvariantViolation,
    check_enumerable,
)
from .perm import Permutation, identity


def _dedup_generators(generators, degree=None):
    gens = []
    seen = set()
    for g in generators:
        if degree is None:
            degree = g.degree
        elif g.degree != degree:
            raise ValueError(f"generator degree {g.degree} does not match {degree}")
        if g.is_identity() or g in seen:
            continue
        seen.add(g)
        gens.append(g)
    return tuple(gens), degree


def closure(generators, cap: int = ENUMERATION_CAP, *, degree: int | None = None) -> list:
    """Breadth-first closure of ``generators`` under composition.

    Insertion order is deterministic given the generator order; the identity
    always comes first.  Exceeding ``cap`` elements raises :class:`CapExceeded`
    (callers must then fall back to orbit methods).
    """
    gens, degree = _dedup_generators(generators, degree)
    if degree is None:
        raise ValueError("cannot infer degree from an empty generator set")
    if cap <= 0:
        raise ValueError("cap must be positive")
    e = identity(degree)
    seen = {e}
    out = [e]
    frontier = [e]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(
                            f"closure exceeded cap of {cap} elements",
                            cap=cap,
                            partial=len(seen),
                        )
                    seen.add(c)
                    out.append(c)
                    new.append(c)
        frontier = new
    return out


# -- the block codec of direct products -----------------------------------------


def split_blocks(p: Permutation, degrees):
    """Restrictions of ``p`` to consecutive blocks of the given degrees.

    None when ``p`` maps a point out of its block, so it lies in no product
    of groups acting on those blocks.
    """
    parts = []
    lo = 0
    for d in degrees:
        hi = lo + d
        imgs = p.images[lo:hi]
        if min(imgs) < lo or max(imgs) >= hi:
            return None
        parts.append(Permutation._make(tuple([v - lo for v in imgs])))
        lo = hi
    return parts


def join_blocks(parts) -> Permutation:
    """Inverse of :func:`split_blocks`: ``parts[i]`` acts on block ``i``."""
    images = []
    for part in parts:
        off = len(images)
        images.extend([v + off for v in part.images] if off else part.images)
    return Permutation._make(tuple(images))


def embed_block(degrees, i: int, p: Permutation) -> Permutation:
    """``p`` acting on block ``i`` of the given block degrees, fixing the others."""
    lo = sum(degrees[:i])
    return join_blocks([identity(lo), p, identity(sum(degrees) - lo - p.degree)])


class Group:
    """A finite permutation group on ``{0..degree-1}``.

    ``order_hint`` lets constructors with closed-form orders report the order
    without materialising; it is checked against the actual closure size
    whenever the store is built.  ``direct_factors`` marks groups assembled as
    direct products acting on consecutive blocks.
    """

    def __init__(self, degree, generators, *, order_hint=None, direct_factors=None, name=None):
        gens, _ = _dedup_generators(generators, degree)
        self.degree = degree
        self.generators = gens
        self.order_hint = order_hint
        self.direct_factors = tuple(direct_factors) if direct_factors else None
        if self.direct_factors is not None:
            if sum(f.degree for f in self.direct_factors) != degree:
                raise ValueError("direct factor degrees do not sum to the product degree")
        self.name = name if name is not None else f"group(degree={degree})"
        self._elements: tuple | None = None
        self._index: dict | None = None
        self._cayley: CayleyTable | None = None
        self._conj_maps: list | None = None
        self._cache: dict = {}
        # The canonical subgroups (Subgroup.from_ids, from_factors), held
        # weakly so that a group and its subgroups are freed by reference
        # counting.
        self._subgroups = weakref.WeakValueDictionary()

    # -- basic facts ----------------------------------------------------

    @property
    def order(self) -> int:
        if self.blocks is not None:
            return math.prod(f.order for f in self.blocks)
        if self._elements is not None:
            return len(self._elements)
        if self.order_hint is not None:
            return self.order_hint
        return len(self.materialize())

    @property
    def is_materialized(self) -> bool:
        return self._elements is not None

    @property
    def blocks(self):
        """The direct factors while the store is unbuilt, otherwise None.

        The one place that decides the blockwise route: a direct product is
        computed block by block until it is materialised, and from then on
        like any other group, from its store.
        """
        return self.direct_factors if self._elements is None else None

    def identity(self) -> Permutation:
        return identity(self.degree)

    def __repr__(self) -> str:
        return f"Group({self.name!r})"

    # -- element store ---------------------------------------------------

    def materialize(self) -> tuple:
        """Build (or return) the element store, sorted lexicographically."""
        if self._elements is not None:
            return self._elements
        known = self.order_hint
        if known is not None:
            check_enumerable("group", known)
        els = closure(self.generators, degree=self.degree)
        if known is not None and len(els) != known:
            raise InternalInvariantViolation(
                f"closure size {len(els)} contradicts declared order {known}"
            )
        self._elements = tuple(sorted(els))
        self._index = {p: i for i, p in enumerate(self._elements)}
        return self._elements

    @property
    def elements(self) -> tuple:
        return self.materialize()

    def element_id(self, p: Permutation) -> int:
        self.materialize()
        try:
            return self._index[p]
        except KeyError:
            raise ValueError(f"{p} is not an element of {self.name}") from None

    def __contains__(self, p) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return False
        if self.blocks is not None:
            parts = self.split(p)
            return parts is not None and all(q in f for q, f in zip(parts, self.blocks))
        self.materialize()
        return p in self._index

    def __iter__(self):
        return iter(self.materialize())

    # -- direct-product blocks ----------------------------------------------

    def split(self, p: Permutation):
        """Restrictions of ``p`` to the direct factors, or None if it mixes blocks."""
        return split_blocks(p, [f.degree for f in self.direct_factors])

    def split_all(self, elements) -> list:
        """Per direct factor, the restrictions of ``elements`` to its block.

        Raises ValueError for an element that mixes blocks, which is no
        element of the product.
        """
        rows = [self.split(x) for x in elements]
        if None in rows:
            raise ValueError("element does not respect the direct-product blocks")
        return list(zip(*rows))

    def embed_factor_element(self, i: int, p: Permutation) -> Permutation:
        return embed_block([f.degree for f in self.direct_factors], i, p)

    # -- id-level machinery (materialised groups) ---------------------------

    def cayley(self) -> "CayleyTable":
        """The group's :class:`CayleyTable`, whose columns are filled as they are asked for."""
        if self._cayley is None:
            self._cayley = CayleyTable(self)
        return self._cayley

    def inverse_ids(self) -> list:
        return self.cayley().inv

    def closure_from_gen_ids(self, gen_ids, prefix=None) -> frozenset:
        """``<gen_ids>`` as store ids by Dimino's closure: each generator s not
        yet in ``H`` grows it to ``<H, s>`` by whole right cosets, ``H r t`` being
        ``H r`` mapped through the column of a generator t, at ``|<H, s>|`` lookups.
        A given ``prefix`` must be ``<gen_ids[:-1]>``; then only the last step runs."""
        mul = self.cayley()
        # The identity has the least image tuple, so it is store id 0.
        els = [0] if prefix is None else list(prefix)
        seen = set(els)
        cols = [] if prefix is None else [mul.col(g) for g in gen_ids[:-1]]
        for g in gen_ids if prefix is None else gen_ids[-1:]:
            if g in seen:
                continue
            cols.append(mul.col(g))
            n, lo = len(els), 0
            while lo < len(els):
                for col in cols:
                    if col[els[lo]] not in seen:
                        new = list(map(col.__getitem__, els[lo : lo + n]))
                        els += new
                        seen.update(new)
                lo += n
        return frozenset(seen)

    def generator_ids(self) -> list:
        self.materialize()
        return [self._index[g] for g in self.generators]

    def conjugation_maps(self) -> list:
        """Per generator ``g``, the id map ``cmap[x] == id(g**-1 * x * g)``.

        Built once per group from the table, ``row(g**-1)[col(g)[x]]``; the
        maps come in generator order.
        """
        if self._conj_maps is None:
            mul, inv = self.cayley(), self.inverse_ids()
            self._conj_maps = [
                list(map(mul.row(inv[g]).__getitem__, mul.col(g))) for g in self.generator_ids()
            ]
        return self._conj_maps

    # -- element facts, cached --------------------------------------------

    def element_orders(self) -> list:
        """Element orders by store id.  Conjugates share an order, so the
        cycles of one member per conjugacy class are walked."""
        if "orders" not in self._cache:
            els = self.materialize()
            per_class = [els[cls[0]].order() for cls in self.conjugacy_partition()]
            self._cache["orders"] = list(map(per_class.__getitem__, self._cache["class_of"]))
        return self._cache["orders"]

    def conjugacy_partition(self) -> list:
        """All conjugacy classes as sorted id tuples, by ascending least member.

        Each class is the orbit of its least id under the
        :meth:`conjugation_maps`, so no permutation is conjugated once the
        maps exist.
        """
        if "classes" not in self._cache:
            maps = self.conjugation_maps()
            assigned = [-1] * len(self.materialize())
            classes = []
            for start in range(len(assigned)):
                if assigned[start] >= 0:
                    continue
                cid = len(classes)
                assigned[start] = cid
                cls = [start]
                for x in cls:
                    for cmap in maps:
                        y = cmap[x]
                        if assigned[y] < 0:
                            assigned[y] = cid
                            cls.append(y)
                classes.append(tuple(sorted(cls)))
            self._cache["classes"] = classes
            self._cache["class_of"] = assigned
        return self._cache["classes"]

    def class_of_id(self, eid: int) -> int:
        self.conjugacy_partition()
        return self._cache["class_of"][eid]


class CayleyTable:
    """The multiplication of a materialised group on store ids, filled on demand.

    ``col(s)[x] == id(x * s)`` is the right column of ``s``, ``row(s)[x] ==
    id(s * x)`` its left row and ``inv[x] == id(x**-1)``.  The table keeps
    one left map ``x -> id(g * x)`` per generator and a breadth-first
    spanning tree of left multiplications from the identity (a Schreier
    vector).  A column is built from its tree parent's column when that is
    held, ``id(x * g * h) == col(h)[col(g)[x]]``, and otherwise spread down
    the tree from the generator maps, ``id(g * a * s) == lmap_g[id(a * s)]``:
    a few list lookups per element either way, however deep the tree.  A row
    is read off a column, ``row(s)[x] == inv[col(s**-1)[inv[x]]]``.  Columns
    are held, oldest dropped first, within ``CAYLEY_CELL_BUDGET`` cells.

    There is deliberately no ``__getitem__``: a ``mul[a][b]`` read of an
    all-rows table fails instead of reading a transpose.
    """

    def __init__(self, G: Group):
        els = G.materialize()
        self._lmaps = [[G._index[g * x] for x in els] for g in G.generators]
        # pos[x] is x's place in breadth-first order; a block (j, parents)
        # holds, at consecutive places, the children g_j * a of the parents
        # at the places listed; up[g_j * a] is (id(g_j), a) for a != 1.
        pos = [-1] * len(els)
        pos[0] = 0  # the identity has the least image tuple, so it is id 0
        up = [None] * len(els)
        size, blocks, frontier = 1, [], [0]
        while frontier:
            new = []
            for j, lmap in enumerate(self._lmaps):
                parents = []
                for a in frontier:
                    c = lmap[a]
                    if pos[c] < 0:
                        pos[c] = size
                        size += 1
                        up[c] = (lmap[0], a) if a else None
                        parents.append(pos[a])
                        new.append(c)
                if parents:
                    blocks.append((j, parents))
            frontier = new
        if size != len(els):
            raise InternalInvariantViolation(f"spanning tree reached {size} of {len(els)} elements")
        self._pos, self._blocks, self._up = pos, blocks, up
        self._cols: dict = {}
        self._cells = 0
        # id(g_j**-1) is where lmap_j reaches the identity.
        self.inv = self._spread(0, [self.col(lmap.index(0)) for lmap in self._lmaps])

    def __len__(self) -> int:
        return len(self._pos)

    def _spread(self, seed: int, maps) -> list:
        """The id list ``v`` with ``v[0] == seed`` at the identity and
        ``v[id(g_j * a)] == maps[j][v[a]]`` down the tree."""
        vals = [seed]
        for j, parents in self._blocks:
            vals.extend(map(maps[j].__getitem__, map(vals.__getitem__, parents)))
        return list(map(vals.__getitem__, self._pos))

    def col(self, s: int) -> list:
        """``[id(x * s) for x in G]``."""
        cols = self._cols
        cells = cols.get(s)
        if cells is None:
            step = self._up[s]
            parent = step and cols.get(step[1])
            if parent:
                cells = list(map(parent.__getitem__, self.col(step[0])))
            else:
                cells = self._spread(s, self._lmaps)
            while cols and self._cells + len(cells) > CAYLEY_CELL_BUDGET:
                self._cells -= len(cols.pop(next(iter(cols))))
            cols[s] = cells
            self._cells += len(cells)
        return cells

    def row(self, s: int) -> list:
        """``[id(s * x) for x in G]``."""
        inv = self.inv
        return list(map(inv.__getitem__, map(self.col(inv[s]).__getitem__, inv)))


def conjugacy_class(G: Group, x: Permutation, cap: int = DEFAULT_CLASS_ORBIT_CAP) -> list:
    """Orbit of ``x`` under conjugation by the generators of ``G``.

    Runs without materialising ``G``, so it succeeds whenever the class itself
    is small even if the group is astronomically large.  Exceeding ``cap``
    raises :class:`CapExceeded` carrying the partial count.
    """
    seen = {x}
    out = [x]
    frontier = [x]
    while frontier:
        new = []
        for y in frontier:
            for g in G.generators:
                z = y.conjugate(g)
                if z not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(
                            f"conjugacy orbit exceeded cap of {cap}",
                            cap=cap,
                            partial=len(seen),
                        )
                    seen.add(z)
                    out.append(z)
                    new.append(z)
        frontier = new
    return out


def class_index(G: Group, x: Permutation) -> int:
    """``|G : C_G(x)|``, the conjugacy class size of ``x`` in ``G``.

    Unmaterialised direct products are handled componentwise; a materialised
    group reads the class from its conjugacy partition; otherwise the orbit
    walk is used, and when it outgrows its cap the group is materialised
    (which raises :class:`CapExceeded` past the enumeration cap) and the
    partition read.
    """
    if G.blocks is not None:
        return math.prod(
            class_index(f, col[0]) for f, col in zip(G.blocks, G.split_all([x]))
        )
    if not G.is_materialized:
        try:
            return len(conjugacy_class(G, x))
        except CapExceeded:
            G.materialize()
    return len(G.conjugacy_partition()[G.class_of_id(G.element_id(x))])


def centraliser(G: Group, S) -> "Subgroup":
    """``C_G(S)`` for a set (or Subgroup) ``S`` of elements of ``G``.

    Two routes.  On an unmaterialised direct product this is computed
    blockwise, which is exact because commutation in a product is
    componentwise.  Otherwise ``G`` is materialised and its table decides
    commutation: one pass per element ``s`` keeps the ids ``g`` with
    ``col(s)[g] == row(s)[g]``.  Every element of ``S`` must lie in ``G``:
    one that mixes blocks raises ValueError, as in :func:`class_index`, and
    any other non-member raises it through :meth:`Group.element_id`.

    For a :class:`Subgroup` the answer is memoised on ``S``, keyed by ``G``,
    since the elements of a subgroup of another group on the same points may
    lie in ``G`` too.
    """
    if isinstance(S, Subgroup):
        return S.cached(("centraliser", G), lambda: _centraliser(G, S.generating_set()))
    return _centraliser(G, S)


def _centraliser(G: Group, gens) -> "Subgroup":
    gens = [s for s in gens if not s.is_identity()]
    if not gens:
        return Subgroup.full(G)
    if G.blocks is not None:
        return Subgroup.from_factors(
            G, [centraliser(f, col) for f, col in zip(G.blocks, G.split_all(gens))]
        )
    sids = [G.element_id(s) for s in gens]
    mul = G.cayley()
    ids = range(len(mul))
    for s in sids:
        col, row = mul.col(s), mul.row(s)
        ids = [g for g in ids if col[g] == row[g]]
    return Subgroup.from_ids(G, ids)


def _small_generating_ids(G: Group, ids: frozenset) -> list:
    """Greedy small generating set for an id-backed subgroup, deterministic."""
    if len(ids) == 1:
        return []
    gens: list[int] = []
    have = frozenset([0])
    for x in sorted(ids):
        if x in have:
            continue
        gens.append(x)
        have = G.closure_from_gen_ids(gens, have)
        if len(have) == len(ids):
            break
    return gens


class Subgroup:
    """A subgroup of a parent :class:`Group`.

    Backings, exactly one of which is set:

    * ``ids`` -- member ids into the parent's materialised element store
      (frozensets give O(1) membership and canonical dedup keys);
    * ``factors`` -- one subgroup of each block of ``parent.direct_factors``,
      in block order, for the product-form subgroups of a direct product
      (order known as the product of factor orders, membership tested
      blockwise).

    :meth:`from_ids` and :meth:`from_factors` enforce this: a subgroup is
    ids of a materialised parent, or blocks of a direct product.  Building a
    subgroup from members that are not a product of block subgroups of an
    unmaterialised product materialises the parent's cap-guarded store,
    never its Cayley table, and an element outside the parent raises
    ValueError.

    Subgroups are canonical per parent: :meth:`from_ids` returns the one
    object for ``(parent, frozenset(ids))`` and :meth:`from_factors` the one
    for ``(parent, factors)`` while it is alive (the factors are canonical
    themselves), so facts memoised on it (:meth:`cached`) are computed once
    per group, whatever route reached the subgroup.  The parent holds its
    pool of canonical subgroups weakly, so the pool keeps neither them nor,
    through them, the parent alive.
    """

    __slots__ = ("parent", "_ids", "_factors", "_cache", "__weakref__")

    def __init__(self, parent, *, ids=None, factors=None):
        if (ids is None) == (factors is None):
            raise ValueError("exactly one subgroup backing must be supplied")
        self.parent = parent
        self._ids = ids
        self._factors = factors
        self._cache = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ids(cls, parent: Group, ids) -> "Subgroup":
        """The canonical subgroup of ``parent`` with these member ids."""
        ids = frozenset(ids)
        S = parent._subgroups.get(ids)
        if S is None:
            S = parent._subgroups[ids] = cls(parent, ids=ids)
        return S

    @classmethod
    def from_members(cls, parent: Group, members) -> "Subgroup":
        """The subgroup of ``parent`` whose elements are ``members``.

        On an unmaterialised direct product, members whose block projections
        have orders multiplying to their count are the product of those
        projections and give a factor-backed subgroup.  Otherwise the members
        become ids, materialising the parent.
        """
        members = set(members)
        if parent.blocks is not None:
            factors = [
                cls.from_members(f, col) for f, col in zip(parent.blocks, parent.split_all(members))
            ]
            if math.prod(s.order for s in factors) == len(members):
                return cls.from_factors(parent, factors)
        return cls.from_ids(parent, map(parent.element_id, members))

    @classmethod
    def from_factors(cls, parent: Group, factor_subs) -> "Subgroup":
        """The canonical product of ``factor_subs``, one subgroup per block of
        ``parent.direct_factors`` in block order."""
        factor_subs = tuple(factor_subs)
        if tuple(s.parent for s in factor_subs) != parent.direct_factors:
            raise ValueError("factors are not subgroups of the parent's direct factors")
        S = parent._subgroups.get(factor_subs)
        if S is None:
            S = parent._subgroups[factor_subs] = cls(parent, factors=factor_subs)
        return S

    @classmethod
    def from_generators(cls, parent: Group, gens) -> "Subgroup":
        return cls.from_members(parent, closure(list(gens), degree=parent.degree))

    @classmethod
    def trivial(cls, parent: Group) -> "Subgroup":
        return cls.from_members(parent, [parent.identity()])

    @classmethod
    def full(cls, parent: Group) -> "Subgroup":
        if parent.blocks is not None:
            return cls.from_factors(parent, [cls.full(f) for f in parent.blocks])
        return cls.from_ids(parent, range(len(parent.elements)))

    # -- basic facts ---------------------------------------------------------

    @property
    def order(self) -> int:
        if self._ids is not None:
            return len(self._ids)
        return math.prod(s.order for s in self._factors)

    def __len__(self) -> int:
        return self.order

    @property
    def ids(self) -> frozenset:
        if self._ids is None:
            raise ValueError("subgroup is not backed by parent element ids")
        return self._ids

    def cached(self, key, build):
        """``build()``, computed once per subgroup and key (write-once memo)."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def ids_in_store(self) -> frozenset:
        """Member ids in the parent store, materialising the parent if needed."""
        if self._ids is not None:
            return self._ids
        return self.cached(
            "store_ids", lambda: frozenset(map(self.parent.element_id, self.members()))
        )

    def key(self):
        """Canonical hashable identity for dedup and cache keys.

        Backed by store ids whenever the parent is materialised, so that
        subgroups built through different routes compare equal.
        """
        if self.parent.is_materialized:
            return ("ids", self.ids_in_store())
        return ("factors", tuple(s.key() for s in self._factors))

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name!r})"

    @property
    def factors(self):
        """The per-block subgroups of a product-form subgroup, or None."""
        return self._factors

    def factor_parents(self):
        """``parent.direct_factors`` for a product-form subgroup, else None."""
        return None if self._factors is None else self.parent.direct_factors

    # -- membership and elements ----------------------------------------------

    def __contains__(self, p) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.parent.degree:
            return False
        if self._ids is not None:
            try:
                return self.parent.element_id(p) in self._ids
            except ValueError:
                return False
        parts = self.parent.split(p)
        return parts is not None and all(q in s for q, s in zip(parts, self._factors))

    def members(self) -> tuple:
        """All elements, sorted lexicographically."""
        if self._ids is not None:
            els = self.parent.elements
            return tuple(els[i] for i in sorted(self._ids))
        check_enumerable("subgroup", self.order)
        blocks = [s.members() for s in self._factors]
        return tuple(sorted(map(join_blocks, itertools.product(*blocks))))

    def generating_set(self) -> tuple:
        """A small, deterministic generating set."""
        if "gens" not in self._cache:
            if self._factors is not None:
                gens = [
                    self.parent.embed_factor_element(i, g)
                    for i, s in enumerate(self._factors)
                    for g in s.generating_set()
                ]
            else:
                els = self.parent.elements
                gens = [els[i] for i in self.generating_ids()]
            self._cache["gens"] = tuple(gens)
        return self._cache["gens"]

    def generating_ids(self) -> list:
        """A small, deterministic generating set as parent store ids.

        Materialises the parent; for an id-backed subgroup these are the
        ids of :meth:`generating_set`.  Callers must not mutate the list: it
        is the memo shared by every user of this canonical subgroup.
        """
        return self.cached(
            "gen_ids", lambda: _small_generating_ids(self.parent, self.ids_in_store())
        )

    # -- set algebra ---------------------------------------------------------

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if self.parent is not other.parent:
            raise ValueError("subgroups of different parents")
        if self._factors is not None and other._factors is not None:
            return Subgroup.from_factors(
                self.parent, [a.intersection(b) for a, b in zip(self._factors, other._factors)]
            )
        # An id-backed side means the parent is materialised.
        return Subgroup.from_ids(self.parent, self.ids_in_store() & other.ids_in_store())

    def product_order(self, other: "Subgroup") -> int:
        """``|A B| = |A| |B| / |A n B|`` as a set count."""
        inter = self.intersection(other)
        return self.order * other.order // inter.order

    def subset_of(self, other: "Subgroup") -> bool:
        return all(g in other for g in self.generating_set())
