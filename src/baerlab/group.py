"""Groups, subgroups, closure, conjugacy classes and centralisers.

A :class:`Group` is a set of generators plus a lazily materialised,
cap-guarded element store.  Groups built as direct products carry a
``direct_factors`` annotation; structural operations consult it to compute
componentwise instead of enumerating the product, which keeps very large
direct products (orders in the millions and beyond) desk-computable.

Determinism rules used throughout the package:

* element stores are sorted lexicographically on image tuples;
* breadth-first walks visit frontier elements in insertion order and
  generators in the order they were supplied.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    CAYLEY_TABLE_MAX_ORDER,
    DEFAULT_CLASS_ORBIT_CAP,
    CapExceeded,
    InternalInvariantViolation,
    enumeration_cap,
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


def closure(generators, cap: int | None = None, *, degree: int | None = None) -> list:
    """Breadth-first closure of ``generators`` under composition.

    Insertion order is deterministic given the generator order; the identity
    always comes first.  Exceeding ``cap`` elements raises :class:`CapExceeded`
    (callers must then fall back to orbit methods).
    """
    gens, degree = _dedup_generators(generators, degree)
    if degree is None:
        raise ValueError("cannot infer degree from an empty generator set")
    if cap is None:
        cap = enumeration_cap()
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
        self._cayley: list | None = None
        self._inverse_ids: list | None = None
        self._cache: dict = {}

    # -- basic facts ----------------------------------------------------

    @property
    def order(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        if self.direct_factors is not None:
            return math.prod(f.order for f in self.direct_factors)
        if self.order_hint is not None:
            return self.order_hint
        return len(self.materialize())

    @property
    def is_materialized(self) -> bool:
        return self._elements is not None

    def identity(self) -> Permutation:
        return identity(self.degree)

    def __repr__(self) -> str:
        return f"Group({self.name!r})"

    # -- element store ---------------------------------------------------

    def materialize(self, cap: int | None = None) -> tuple:
        """Build (or return) the element store, sorted lexicographically."""
        if self._elements is not None:
            return self._elements
        if cap is None:
            cap = enumeration_cap()
        known = self.order_hint
        if known is None and self.direct_factors is not None:
            known = math.prod(f.order for f in self.direct_factors)
        if known is not None and known > cap:
            raise CapExceeded(
                f"group of order {known} exceeds enumeration cap {cap}", cap=cap
            )
        els = closure(self.generators, cap, degree=self.degree)
        if known is not None and len(els) != known:
            raise InternalInvariantViolation(
                f"closure size {len(els)} contradicts declared order {known}"
            )
        self._elements = tuple(sorted(els))
        self._index = {p: i for i, p in enumerate(self._elements)}
        return self._elements

    def materializable(self, cap: int | None = None) -> bool:
        if self._elements is not None:
            return True
        if cap is None:
            cap = enumeration_cap()
        try:
            self.materialize(cap)
            return True
        except CapExceeded:
            return False

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
        if self._elements is not None:
            return p in self._index
        if self.direct_factors is not None:
            parts = self.split(p)
            if parts is None:
                return False
            return all(part in f for part, f in zip(parts, self.direct_factors))
        self.materialize()
        return p in self._index

    def __iter__(self):
        return iter(self.materialize())

    # -- direct-product block plumbing ------------------------------------

    def factor_offsets(self) -> list:
        offs = [0]
        for f in self.direct_factors:
            offs.append(offs[-1] + f.degree)
        return offs

    def split(self, p: Permutation):
        """Blockwise restrictions of ``p``, or None if it mixes blocks."""
        offs = self.factor_offsets()
        parts = []
        for lo, hi in zip(offs, offs[1:]):
            imgs = p.images[lo:hi]
            if any(not lo <= v < hi for v in imgs):
                return None
            parts.append(Permutation._make(tuple(v - lo for v in imgs)))
        return parts

    def combine(self, parts) -> Permutation:
        """Inverse of :meth:`split`: assemble blockwise permutations."""
        images = []
        off = 0
        for f, part in zip(self.direct_factors, parts):
            images.extend(v + off for v in part.images)
            off += f.degree
        return Permutation._make(tuple(images))

    def embed_factor_element(self, i: int, p: Permutation) -> Permutation:
        parts = [identity(f.degree) for f in self.direct_factors]
        parts[i] = p
        return self.combine(parts)

    # -- id-level machinery (small materialised groups) -------------------

    def cayley(self) -> list:
        """Integer multiplication table ``mul[a][b] == id(a * b)``.

        Built from one left-multiplication map per generator, ``x -> g * x``
        on ids, so only ``|G| * |gens|`` permutation products are composed.
        Every other row comes from its parent along a breadth-first spanning
        tree from the identity: ``row[g * a] = [lmap_g[v] for v in row[a]]``,
        since ``(g * a) * b == g * (a * b)``.  The gate bounds the ``|G|**2``
        cells the table holds.
        """
        if self._cayley is None:
            els = self.materialize()
            n = len(els)
            if n > CAYLEY_TABLE_MAX_ORDER:
                raise CapExceeded(
                    f"order {n} beyond Cayley-table gate {CAYLEY_TABLE_MAX_ORDER}",
                    cap=CAYLEY_TABLE_MAX_ORDER,
                )
            idx = self._index
            lmaps = [[idx[g * x] for x in els] for g in self.generators]
            id0 = idx[self.identity()]
            rows = [None] * n
            rows[id0] = list(range(n))
            frontier = [id0]
            while frontier:
                new = []
                for a in frontier:
                    row = rows[a]
                    for lmap in lmaps:
                        c = lmap[a]
                        if rows[c] is None:
                            rows[c] = list(map(lmap.__getitem__, row))
                            new.append(c)
                frontier = new
            if None in rows:
                raise InternalInvariantViolation(
                    f"Cayley build reached {n - rows.count(None)} of {n} elements"
                )
            self._cayley = rows
            self._inverse_ids = [row.index(id0) for row in rows]
        return self._cayley

    def inverse_ids(self) -> list:
        self.cayley()
        return self._inverse_ids

    def use_id_arithmetic(self) -> bool:
        return self.is_materialized and len(self._elements) <= CAYLEY_TABLE_MAX_ORDER

    def closure_ids(self, seed_ids, extra_gens_ids=()) -> frozenset:
        """Closure of ``seed_ids`` plus extra generators, as element ids."""
        seed_ids = frozenset(seed_ids)
        gens = _small_generating_ids(self, seed_ids) if seed_ids else []
        gens = list(gens) + [g for g in extra_gens_ids if g not in seed_ids]
        return self.closure_from_gen_ids(gens)

    def closure_from_gen_ids(self, gen_ids) -> frozenset:
        mul = self.cayley()
        id0 = self._index[self.identity()]
        seen = {id0}
        frontier = [id0]
        while frontier:
            new = []
            for a in frontier:
                row = mul[a]
                for g in gen_ids:
                    c = row[g]
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
            frontier = new
        return frozenset(seen)

    def generator_ids(self) -> list:
        self.materialize()
        return [self._index[g] for g in self.generators]

    def conjugate_id(self, x: int, g: int) -> int:
        mul = self.cayley()
        return mul[mul[self.inverse_ids()[g]][x]][g]

    # -- element facts, cached --------------------------------------------

    def element_orders(self) -> list:
        if "orders" not in self._cache:
            self._cache["orders"] = [p.order() for p in self.materialize()]
        return self._cache["orders"]

    def conjugacy_partition(self) -> list:
        """All conjugacy classes as sorted id tuples, by ascending least member."""
        if "classes" not in self._cache:
            els = self.materialize()
            idx = self._index
            gens = self.generators
            assigned = [-1] * len(els)
            classes = []
            for start in range(len(els)):
                if assigned[start] >= 0:
                    continue
                cls_ids = {start}
                frontier = [els[start]]
                while frontier:
                    new = []
                    for x in frontier:
                        for g in gens:
                            y = x.conjugate(g)
                            j = idx[y]
                            if j not in cls_ids:
                                cls_ids.add(j)
                                new.append(y)
                    frontier = new
                cid = len(classes)
                for j in cls_ids:
                    assigned[j] = cid
                classes.append(tuple(sorted(cls_ids)))
            self._cache["classes"] = classes
            self._cache["class_of"] = assigned
        return self._cache["classes"]

    def class_of_id(self, eid: int) -> int:
        self.conjugacy_partition()
        return self._cache["class_of"][eid]


def conjugacy_class(G: Group, x: Permutation, cap: int | None = None) -> list:
    """Orbit of ``x`` under conjugation by the generators of ``G``.

    Runs without materialising ``G``, so it succeeds whenever the class itself
    is small even if the group is astronomically large.  Exceeding ``cap``
    raises :class:`CapExceeded` carrying the partial count.
    """
    if cap is None:
        cap = DEFAULT_CLASS_ORBIT_CAP
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


def class_index(G: Group, x: Permutation, cap: int | None = None) -> int:
    """``|G : C_G(x)|``, the conjugacy class size of ``x`` in ``G``.

    Direct products are handled componentwise; otherwise the orbit walk is
    used, falling back to the centraliser path on materialised groups.
    """
    if G.direct_factors is not None:
        parts = G.split(x)
        if parts is None:
            raise ValueError("element does not respect the direct-product blocks")
        return math.prod(
            class_index(f, part, cap) for f, part in zip(G.direct_factors, parts)
        )
    if G.is_materialized:
        return len(G.conjugacy_partition()[G.class_of_id(G.element_id(x))])
    try:
        return len(conjugacy_class(G, x, cap))
    except CapExceeded:
        if G.materializable():
            return G.order // centraliser_order(G, [x])
        raise


def class_index_via_centraliser(G: Group, x: Permutation) -> int:
    """Independent route to the class size through ``|G| / |C_G(x)|``."""
    return G.order // centraliser_order(G, [x])


def _commutes_with_all(g: Permutation, gens) -> bool:
    return all(g * s == s * g for s in gens)


def centraliser_order(G: Group, gens) -> int:
    gens = [s for s in gens if not s.is_identity()]
    if not gens:
        return G.order
    if G.direct_factors is not None and not G.is_materialized:
        total = 1
        for i, f in enumerate(G.direct_factors):
            offs = G.factor_offsets()
            lo = offs[i]
            parts = []
            for s in gens:
                imgs = s.images[lo : lo + f.degree]
                parts.append(Permutation._make(tuple(v - lo for v in imgs)))
            total *= centraliser_order(f, parts)
        return total
    return sum(1 for g in G.materialize() if _commutes_with_all(g, gens))


def centraliser(G: Group, S) -> "Subgroup":
    """``C_G(S)`` for a set (or Subgroup) ``S`` of elements of ``G``.

    On annotated direct products this is computed blockwise, which is exact
    for arbitrary ``S`` because commutation in a product is componentwise.
    Otherwise, when ``G`` is within the Cayley-table gate and every element
    of ``S`` lies in ``G``, the table decides commutation: one pass per
    element ``s`` keeps the ids ``g`` with ``mul[g][s] == mul[s][g]``.  Past
    the gate, or for elements outside ``G``, every element of ``G`` is
    composed with every element of ``S``.
    """
    if isinstance(S, Subgroup):
        gens = list(S.generating_set())
    else:
        gens = list(S)
    gens = [s for s in gens if not s.is_identity()]
    if not gens:
        return Subgroup.full(G)
    if G.direct_factors is not None and not G.is_materialized:
        offs = G.factor_offsets()
        factor_subs = []
        for i, f in enumerate(G.direct_factors):
            lo = offs[i]
            parts = [
                Permutation._make(tuple(v - lo for v in s.images[lo : lo + f.degree]))
                for s in gens
            ]
            factor_subs.append(centraliser(f, parts))
        return Subgroup.from_factors(G, factor_subs)
    els = G.materialize()
    idx = G._index
    if G.use_id_arithmetic() and all(s in idx for s in gens):
        mul = G.cayley()
        ids = range(len(els))
        for s in gens:
            sid = idx[s]
            row = mul[sid]
            ids = [g for g in ids if mul[g][sid] == row[g]]
        return Subgroup.from_ids(G, ids)
    ids = frozenset(i for i, g in enumerate(els) if _commutes_with_all(g, gens))
    return Subgroup.from_ids(G, ids)


def _small_generating_ids(G: Group, ids: frozenset) -> list:
    """Greedy small generating set for an id-backed subgroup, deterministic."""
    if len(ids) == 1:
        return []
    mul = G.cayley()
    id0 = G._index[G.identity()]
    gens: list[int] = []
    have = {id0}
    for x in sorted(ids):
        if x in have:
            continue
        gens.append(x)
        frontier = [id0]
        have = {id0}
        while frontier:
            new = []
            for a in frontier:
                row = mul[a]
                for g in gens:
                    c = row[g]
                    if c not in have:
                        have.add(c)
                        new.append(c)
            frontier = new
        if len(have) == len(ids):
            break
    return gens


def _small_generating_perms(members_sorted) -> list:
    """Greedy generating subset of an explicit, sorted element list."""
    members = list(members_sorted)
    if len(members) <= 1:
        return []
    degree = members[0].degree
    memberset = set(members)
    gens: list[Permutation] = []
    have = {identity(degree)}
    for x in members:
        if x in have:
            continue
        gens.append(x)
        have = set(closure(gens, cap=len(memberset) + 1, degree=degree))
        if len(have) == len(memberset):
            break
    return gens


class Subgroup:
    """A subgroup of a parent :class:`Group`.

    Backings, exactly one of which is set:

    * ``ids`` -- member ids into a materialised parent store (the common case;
      frozensets give O(1) membership and canonical dedup keys);
    * ``members`` -- an explicit sorted element tuple, for small subgroups of
      parents too large to materialise;
    * ``factors`` -- one subgroup per block of a direct-product action, for
      product-form subgroups of huge products (order known as the product of
      factor orders, membership tested blockwise);
    * ``whole`` -- the parent itself.
    """

    __slots__ = ("parent", "_ids", "_members", "_factors", "_whole", "_cache")

    def __init__(self, parent, *, ids=None, members=None, factors=None, whole=False):
        backings = sum(x is not None for x in (ids, members, factors)) + bool(whole)
        if backings != 1:
            raise ValueError("exactly one subgroup backing must be supplied")
        self.parent = parent
        self._ids = ids
        self._members = members
        self._factors = factors
        self._whole = whole
        self._cache = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ids(cls, parent: Group, ids) -> "Subgroup":
        return cls(parent, ids=frozenset(ids))

    @classmethod
    def from_members(cls, parent: Group, members) -> "Subgroup":
        members = tuple(sorted(set(members)))
        if parent.is_materialized:
            return cls.from_ids(parent, (parent.element_id(p) for p in members))
        return cls(parent, members=members)

    @classmethod
    def from_factors(cls, parent: Group, factor_subs) -> "Subgroup":
        factor_subs = tuple(factor_subs)
        if sum(s.parent.degree for s in factor_subs) != parent.degree:
            raise ValueError("factor degrees do not cover the parent degree")
        return cls(parent, factors=factor_subs)

    @classmethod
    def from_generators(cls, parent: Group, gens, cap: int | None = None) -> "Subgroup":
        members = closure(list(gens), cap, degree=parent.degree)
        return cls.from_members(parent, members)

    @classmethod
    def trivial(cls, parent: Group) -> "Subgroup":
        if parent.is_materialized:
            return cls.from_ids(parent, {parent.element_id(parent.identity())})
        if parent.direct_factors is not None:
            return cls.from_factors(parent, [cls.trivial(f) for f in parent.direct_factors])
        return cls(parent, members=(parent.identity(),))

    @classmethod
    def full(cls, parent: Group) -> "Subgroup":
        if parent.is_materialized:
            return cls.from_ids(parent, range(len(parent.elements)))
        if parent.direct_factors is not None:
            return cls.from_factors(parent, [cls.full(f) for f in parent.direct_factors])
        return cls(parent, whole=True)

    # -- basic facts ---------------------------------------------------------

    @property
    def order(self) -> int:
        if self._ids is not None:
            return len(self._ids)
        if self._members is not None:
            return len(self._members)
        if self._factors is not None:
            return math.prod(s.order for s in self._factors)
        return self.parent.order

    def __len__(self) -> int:
        return self.order

    @property
    def ids(self) -> frozenset:
        if self._ids is None:
            raise ValueError("subgroup is not backed by parent element ids")
        return self._ids

    def ids_in_store(self) -> frozenset:
        """Member ids in the parent store, materialising the parent if needed."""
        if self._ids is not None:
            return self._ids
        if "store_ids" not in self._cache:
            self.parent.materialize()
            self._cache["store_ids"] = frozenset(
                self.parent.element_id(p) for p in self.members()
            )
        return self._cache["store_ids"]

    def key(self):
        """Canonical hashable identity for dedup and cache keys.

        Backed by store ids whenever the parent is materialised, so that
        subgroups built through different routes compare equal.
        """
        if self.parent.is_materialized:
            return ("ids", self.ids_in_store())
        if self._members is not None:
            return ("members", self._members)
        if self._factors is not None:
            return ("factors", tuple(s.key() for s in self._factors))
        return ("whole",)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name!r})"

    def factor_parents(self):
        """The block groups of a product-form subgroup, or None.

        Two product-form subgroups are aligned, and can be combined block by
        block, when these tuples are equal (groups compare by identity).
        """
        if self._factors is None:
            return None
        return tuple(s.parent for s in self._factors)

    def _factor_offsets(self) -> list:
        offs = [0]
        for s in self._factors:
            offs.append(offs[-1] + s.parent.degree)
        return offs

    # -- membership and elements ----------------------------------------------

    def __contains__(self, p: Permutation) -> bool:
        if self._ids is not None:
            try:
                return self.parent.element_id(p) in self._ids
            except ValueError:
                return False
        if self._members is not None:
            return p in self.member_set()
        if self._factors is not None:
            offs = self._factor_offsets()
            for s, lo, hi in zip(self._factors, offs, offs[1:]):
                imgs = p.images[lo:hi]
                if any(not lo <= v < hi for v in imgs):
                    return False
                if Permutation._make(tuple(v - lo for v in imgs)) not in s:
                    return False
            return True
        return p in self.parent

    def members(self, cap: int | None = None) -> tuple:
        """All elements, sorted lexicographically."""
        if self._ids is not None:
            els = self.parent.elements
            return tuple(els[i] for i in sorted(self._ids))
        if self._members is not None:
            return self._members
        if cap is None:
            cap = enumeration_cap()
        if self.order > cap:
            raise CapExceeded(
                f"subgroup of order {self.order} exceeds enumeration cap {cap}", cap=cap
            )
        if self._factors is not None:
            blocks = [s.members(cap) for s in self._factors]
            out = []
            for combo in itertools.product(*blocks):
                images = []
                for part in combo:
                    off = len(images)
                    images.extend(v + off for v in part.images)
                out.append(Permutation._make(tuple(images)))
            return tuple(sorted(out))
        return self.parent.materialize(cap)

    def member_set(self) -> frozenset:
        if "member_set" not in self._cache:
            self._cache["member_set"] = frozenset(self.members())
        return self._cache["member_set"]

    def generating_set(self) -> tuple:
        """A small, deterministic generating set."""
        if "gens" not in self._cache:
            if self._whole:
                gens = list(self.parent.generators)
            elif self._factors is not None:
                gens = []
                off = 0
                for s in self._factors:
                    d = s.parent.degree
                    for g in s.generating_set():
                        pre = tuple(range(off))
                        post = tuple(range(off + d, self.parent.degree))
                        images = pre + tuple(v + off for v in g.images) + post
                        gens.append(Permutation._make(images))
                    off += d
            elif self._ids is not None and self.parent.use_id_arithmetic():
                els = self.parent.elements
                gens = [els[i] for i in self.generating_ids()]
            else:
                gens = _small_generating_perms(self.members())
            self._cache["gens"] = tuple(gens)
        return self._cache["gens"]

    def generating_ids(self) -> list:
        """A small, deterministic generating set as parent store ids.

        Needs a parent within the Cayley-table gate; for an id-backed
        subgroup these are the ids of :meth:`generating_set`.
        """
        if "gen_ids" not in self._cache:
            self._cache["gen_ids"] = _small_generating_ids(self.parent, self.ids_in_store())
        return self._cache["gen_ids"]

    # -- set algebra ---------------------------------------------------------

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if self.parent is not other.parent:
            raise ValueError("subgroups of different parents")
        if self._ids is not None and other._ids is not None:
            return Subgroup.from_ids(self.parent, self._ids & other._ids)
        if self._factors is not None and self.factor_parents() == other.factor_parents():
            return Subgroup.from_factors(
                self.parent, [a.intersection(b) for a, b in zip(self._factors, other._factors)]
            )
        small, big = (self, other) if self.order <= other.order else (other, self)
        members = [p for p in small.members() if p in big]
        return Subgroup.from_members(self.parent, members)

    def product_order(self, other: "Subgroup") -> int:
        """``|A B| = |A| |B| / |A n B|`` as a set count."""
        inter = self.intersection(other)
        return self.order * other.order // inter.order

    def subset_of(self, other: "Subgroup") -> bool:
        return all(g in other for g in self.generating_set())

    def conjugate(self, g: Permutation) -> "Subgroup":
        if self._ids is not None and self.parent.use_id_arithmetic():
            gid = self.parent.element_id(g)
            return Subgroup.from_ids(
                self.parent, (self.parent.conjugate_id(x, gid) for x in self._ids)
            )
        return Subgroup.from_members(self.parent, (x.conjugate(g) for x in self.members()))

    # -- group view ------------------------------------------------------------

    def as_group(self) -> Group:
        """View this subgroup as a Group in its own right (same degree).

        A subgroup of full order is the parent itself, so it shares the
        parent's store, table and caches.
        """
        if "group" not in self._cache:
            if self._whole or self.order == self.parent.order:
                view = self.parent
            elif self._factors is not None:
                view = Group(
                    self.parent.degree,
                    self.generating_set(),
                    order_hint=self.order,
                    direct_factors=[s.as_group() for s in self._factors],
                    name=f"subgroup({self.order}) of {self.parent.name}",
                )
            else:
                view = Group(
                    self.parent.degree,
                    self.generating_set(),
                    order_hint=self.order,
                    name=f"subgroup({self.order}) of {self.parent.name}",
                )
                if self.order <= 4096:
                    view._elements = self.members()
                    view._index = {p: i for i, p in enumerate(view._elements)}
            self._cache["group"] = view
        return self._cache["group"]
