"""Groups, subgroups, closure, conjugacy classes and centralisers.

A :class:`Group` is a set of generators plus a lazily materialised,
cap-guarded element store.  Groups built as direct products carry a
``direct_factors`` annotation.  One rule decides how a product is handled:
it is handled block by block exactly while it carries ``direct_factors`` and
its store is not built, which :attr:`Group.blocks` reports; every other
group, a materialised product included, takes the whole-group route.  The
blockwise route keeps very large direct products (orders in the millions
and beyond) desk-computable.  Product-form subgroups answer block by block:
the trivial and full subgroups, intersections, subset tests and subgroup
centralisers are their blocks' own, so no permutation of the product is
built or taken apart for them.  :meth:`Group.split` and :func:`join_blocks`
are the one codec between a product's permutations and its block
permutations; it serves elements only: membership, member lists, generating
sets, element centralisers and the verifier's witnesses.  The verifier
reads class sizes off :meth:`Group.class_sizes`; :func:`class_index`, a
centraliser's index, serves only the tests and the benchmark's tracer.

A :class:`Subgroup` of G is ids into G's materialised store, or one factor
per block of ``G.direct_factors``; its constructors enforce this.  So every
operation on a subgroup of G has two routes: block by block while G is an
unmaterialised product, otherwise on store ids, multiplying through G's
:class:`CayleyTable`, filled column by column as columns are asked for.  An
element outside G raises ValueError on either route.

Determinism rules used throughout the package:

* element stores are sorted lexicographically on image tuples;
* breadth-first walks go level by level, each level generator by generator
  in the order supplied, and over the frontier in insertion order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


def memo(fn=None, *, owner=None):
    """Memoise ``fn`` on one of its arguments, its owner; ``@memo`` or ``@memo(owner="S")``.

    * Owner: the first argument, or the one ``owner`` names.  It is a
      :class:`Group`, a :class:`Subgroup` or a ``Factorisation``, and the value
      lives in its ``_cache``, so it is freed with the owner.
    * Key: ``fn`` when it takes no other argument, else ``(fn, *others)``,
      the other arguments in parameter order with defaults filled in; so
      ``f(F, p)``, ``f(F, p, "union")`` and ``f(F, p, via="union")`` share one
      entry.  The owner is left out, so no key keeps its owner alive.  The
      other arguments must be hashable.
    * Lifetime: a value may hold its owner.  A group's memoised subgroups
      hold it as their parent, and ``factor_sylows(S, p)`` of a p-subgroup S
      is ``[S]``.  Such an owner sits in a reference cycle, which the cyclic
      collector frees, not reference counting.  Values are left as they are:
      storing them without the owner would cost every reader a lookup, and a
      group's subgroups hold their parent regardless.
    * Write-once: a stored value, None included, is returned as it is, and a
      call that raises stores nothing.

    The wrapper is compiled with ``fn``'s own parameter list
    (:func:`compiled`), so Python binds a call's arguments and fills its
    defaults, and a hit costs one key and one dict lookup.  A generic
    ``*args, **kwargs`` wrapper that binds them itself costs several times as
    much per hit, and a subgroup-sweep battery makes about 78,000 memo calls.
    """
    if fn is None:
        return functools.partial(memo, owner=owner)
    params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    owner = owner or params[0]
    others = ", ".join(name for name in params if name != owner)
    body = (
        f"    _memo = {owner}._cache\n"
        f"    _key = {f'(_fn, {others})' if others else '_fn'}\n"
        "    try:\n"
        "        return _memo[_key]\n"
        "    except KeyError:\n"
        "        pass\n"
        f"    _value = _memo[_key] = _fn({', '.join(params)})\n"
        "    return _value\n"
    )
    return compiled(fn, params, body, {"_fn": fn})


def compiled(fn, params, body: str, scope: dict):
    """``def f(params): body`` compiled once, ``params`` being names of ``fn``'s
    parameters, with ``fn``'s defaults; ``body`` reads them and ``scope``.  ``f``
    is wrapped like ``fn``, so its ``__wrapped__`` is ``fn``.  Python binds each
    call, with no ``*args, **kwargs``; :func:`memo` and the checks use it."""
    names = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))
    head = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name for name in params)
    scope = {**scope, "_defaults": defaults}
    exec(compile(f"def {fn.__name__}({head}):\n{body}", f"<{fn.__qualname__}>", "exec"), scope)
    return functools.wraps(fn)(scope[fn.__name__])


def take(seq, ids) -> tuple:
    """``tuple(seq[i] for i in ids)`` for any sized ``ids`` and mapping ``seq``.

    This is how store ids are composed: one ``operator.itemgetter`` call
    takes about 11 µs at 480 ids against 19 µs for ``list(map(seq.__getitem__,
    ids))``, and the gap widens at smaller sizes.  An itemgetter of one index
    returns a bare item, and none cannot be built, so those are spelled out.
    """
    if len(ids) > 1:
        return operator.itemgetter(*ids)(seq)
    for i in ids:
        return (seq[i],)
    return ()


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
    """Breadth-first closure of ``generators`` by left products ``g * a``.

    The order is :func:`_left_walk`'s, deterministic given the generator
    order, identity first; each walked image tuple is made a
    :class:`Permutation` once, here.  Exceeding ``cap`` elements raises
    :class:`CapExceeded`, which a ``baer`` check reports as ``skipped``.
    """
    gens, degree = _dedup_generators(generators, degree)
    if degree is None:
        raise ValueError("cannot infer degree from an empty generator set")
    if cap <= 0:
        raise ValueError("cap must be positive")
    return list(map(Permutation._make, _left_walk(gens, degree, cap)[0]))


def _left_walk(gens, degree: int, cap: int) -> tuple:
    """Breadth-first walk of ``<gens>`` from the identity by left products ``g * a``.

    The walk composes image tuples, not permutations: ``(g * x).images ==
    itemgetter(*g.images)(x.images)``, so each generator's product is one
    ``operator.itemgetter``, built once, and each composition one C call.
    The generators must be distinct non-identities, as
    :func:`_dedup_generators` leaves them, so any generator has degree at
    least 2 and its itemgetter returns a tuple, never a single image.

    Each level is walked generator by generator, and for each generator over
    the level in walk order, so every element is composed once with every
    generator: ``|G| * len(gens)`` compositions.  Returns ``(els, maps,
    blocks)``: the elements' image tuples in walk order, ``maps[j][w]`` the
    place of ``gens[j] * els[w]``, and the spanning tree of the walk as
    blocks ``(j, parents)``, each holding at consecutive places the new
    children ``gens[j] * a`` of the parents at the places listed.
    """
    els = [tuple(range(degree))]
    place = {els[0]: 0}
    maps = [[] for _ in gens]
    blocks = []
    prods = [operator.itemgetter(*g.images) for g in gens]
    lo, size = 0, 1
    while lo < size:
        hi = size
        for j, prod in enumerate(prods):
            lmap, parents = maps[j], []
            for a, c in enumerate(map(prod, els[lo:hi]), lo):
                w = place.setdefault(c, size)
                if w == size:
                    if size >= cap:
                        raise CapExceeded(
                            f"closure exceeded cap of {cap} elements",
                            cap=cap,
                            partial=size,
                        )
                    size += 1
                    els.append(c)
                    parents.append(a)
                lmap.append(w)
            if parents:
                blocks.append((j, parents))
        lo = hi
    return els, maps, blocks


# -- the block codec of direct products -----------------------------------------


def join_blocks(parts) -> Permutation:
    """Inverse of :meth:`Group.split`: ``parts[i]`` acts on block ``i``."""
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
    direct products acting on consecutive blocks, whose hint is set to the
    product of the block orders; ``order`` is the store's size once built.
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
            self.order_hint = math.prod(f.order for f in self.direct_factors)
        self.name = name if name is not None else f"group(degree={degree})"
        self._elements: tuple | None = None
        self._index: dict | None = None
        self._walk: tuple | None = None
        self._cayley: CayleyTable | None = None
        self._cache: dict = {}
        # The canonical subgroups (Subgroup.from_ids, from_factors), held
        # weakly so that a group and its subgroups are freed by reference
        # counting.
        self._subgroups = weakref.WeakValueDictionary()

    # -- basic facts ----------------------------------------------------

    @property
    def order(self) -> int:
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

        The one place that decides the blockwise route, but for ``baer._kinds``
        (a product-form subgroup's index kinds always fold its blocks'): a
        direct product is computed block by block until it is materialised,
        and from then on like any other group, from its store.
        """
        return self.direct_factors if self._elements is None else None

    def __repr__(self) -> str:
        return f"Group({self.name!r})"

    # -- element store ---------------------------------------------------

    def materialize(self) -> tuple:
        """Build (or return) the element store, sorted lexicographically.

        The store is :func:`_left_walk`'s image tuples, sorted: the order of
        ``Permutation.__lt__``, at the speed of a tuple sort.  Each is made a
        :class:`Permutation` once, after the sort, and ``_index`` maps those
        permutations to their store ids.  The walk's generator maps and tree
        are held, with the sort's order to read them by store id, until
        :meth:`cayley` takes them.
        """
        if self._elements is not None:
            return self._elements
        known = self.order_hint
        if known is not None:
            check_enumerable("group", known)
        els, maps, blocks = _left_walk(self.generators, self.degree, ENUMERATION_CAP)
        if known is not None and len(els) != known:
            raise InternalInvariantViolation(
                f"closure size {len(els)} contradicts declared order {known}"
            )
        # order[x] is the walk place of store id x.
        order = sorted(range(len(els)), key=els.__getitem__)
        self._elements = tuple(map(Permutation._make, take(els, order)))
        self._index = dict(zip(self._elements, range(len(els))))
        self._walk = (order, maps, blocks)
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
            try:
                return all(map(Group.__contains__, self.blocks, self.split(p)))
            except ValueError:
                return False
        self.materialize()
        return p in self._index

    def __iter__(self):
        return iter(self.materialize())

    # -- direct-product blocks ----------------------------------------------

    def split(self, p: Permutation) -> list:
        """The restrictions of ``p`` to the blocks of the direct factors; ValueError
        when ``p`` maps a point out of its block, so it is no element of the product."""
        parts = []
        lo = 0
        for f in self.direct_factors:
            hi = lo + f.degree
            imgs = p.images[lo:hi]
            if min(imgs) < lo or max(imgs) >= hi:
                raise ValueError("element does not respect the direct-product blocks")
            parts.append(Permutation._make(tuple([v - lo for v in imgs])))
            lo = hi
        return parts

    # -- id-level machinery (materialised groups) ---------------------------

    def cayley(self) -> "CayleyTable":
        """The group's :class:`CayleyTable`, whose columns are filled as they are asked for."""
        if self._cayley is None:
            self._cayley = CayleyTable(self)
        return self._cayley

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
                        new = take(col, els[lo : lo + n])
                        els += new
                        seen.update(new)
                lo += n
        return frozenset(seen)

    def generator_ids(self) -> list:
        self.materialize()
        return [self._index[g] for g in self.generators]

    def conjugation_orbit(self, x: int, gen_ids) -> list:
        """The orbit of store id ``x`` under conjugation by the store ids
        ``gen_ids``, breadth first from x.  A step reads held columns,
        ``id(s**-1 * y * s) == c[inv[c[inv[y]]]]`` for ``c = col(s)``, and no
        row or full-length map, so a small orbit costs only its own size."""
        mul = self.cayley()
        inv = mul.inv
        cols = list(map(mul.col, gen_ids))
        orbit, seen = [x], {x}
        for y in orbit:
            for c in cols:
                z = c[inv[c[inv[y]]]]
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        return orbit

    @memo
    def conjugation_maps(self) -> list:
        """Per generator ``g``, the id map ``cmap[x] == id(g**-1 * x * g)``, in
        generator order: :meth:`conjugation_orbit`'s step over all of G."""
        mul = self.cayley()
        inv = mul.inv
        return [list(take(c, take(inv, take(c, inv)))) for c in map(mul.col, self.generator_ids())]

    def conjugates(self, ids, gen_ids) -> tuple:
        """``(orbit, act, gens)``: the conjugates of the subgroup H with store
        ids ``ids`` as frozensets, ``ids`` first; ``act[j][i]`` the index in
        ``orbit`` of ``orbit[i]`` conjugated by the j-th generator; and
        ``gens[i]`` generating ``orbit[i]``, ``gen_ids`` (which generate
        ``ids``) first.  The orbit grows breadth first by images under
        :meth:`conjugation_maps`, so it costs ``|G : N_G(H)|`` set images per
        generator; a conjugate first reached from L by generator j's map is
        generated by that map's images of ``gens(L)``."""
        maps = self.conjugation_maps()
        orbit, gens = [frozenset(ids)], [list(gen_ids)]
        where = {orbit[0]: 0}
        act = [[] for _ in maps]
        for L, lgens in zip(orbit, gens):
            for cmap, images in zip(maps, act):
                M = frozenset(take(cmap, L))
                if M not in where:
                    where[M] = len(orbit)
                    orbit.append(M)
                    gens.append(list(take(cmap, lgens)))
                images.append(where[M])
        return orbit, act, gens

    def conjugation_labels(self, act) -> tuple:
        """Per store id g, the index of ``H^g`` in the orbit of :meth:`conjugates`
        whose action table is ``act``; ``N_G(H)`` is the ids labelled 0.

        No walk of G but a :meth:`CayleyTable.spread` down the table's tree of
        left products: ``H^((s a)^-1) = (H^(a^-1))^(s^-1)``, so the label of
        ``x**-1`` spreads by the inverse action of each generator on the orbit,
        and is read back through the inverse ids."""
        mul = self.cayley()
        # Each act[j] permutes the orbit; sorting by it gives its inverse.
        back = [sorted(range(len(images)), key=images.__getitem__) for images in act]
        return take(mul.spread(0, back), mul.inv)

    # -- element facts, cached --------------------------------------------

    @memo
    def element_orders(self) -> list:
        """Element orders by store id.  Conjugates share an order, so the
        cycles of one member per conjugacy class are walked."""
        els = self.materialize()
        per_class = [els[cls[0]].order() for cls in self.conjugacy_partition()]
        return list(take(per_class, self._class_ids()))

    @memo
    def conjugacy_partition(self) -> list:
        """All conjugacy classes as sorted id tuples, by ascending least member;
        class i holds the ids that :meth:`_class_ids` maps to i."""
        classes = []
        for x, cid in enumerate(self._class_ids()):
            if cid == len(classes):
                classes.append([])
            classes[cid].append(x)
        return list(map(tuple, classes))

    @memo
    def _class_ids(self) -> list:
        """Per store id, the index of its conjugacy class.  Each class is the
        orbit of its least id under the full-length :meth:`conjugation_maps`:
        the partition reads every map at every id, which a list lookup does
        faster than :meth:`conjugation_orbit`'s column steps."""
        maps = self.conjugation_maps()
        class_ids = [-1] * len(self.materialize())
        cid = 0
        for start in range(len(class_ids)):
            if class_ids[start] >= 0:
                continue
            class_ids[start] = cid
            orbit = [start]
            for x in orbit:
                for cmap in maps:
                    y = cmap[x]
                    if class_ids[y] < 0:
                        class_ids[y] = cid
                        orbit.append(y)
            cid += 1
        return class_ids

    @memo
    def class_sizes(self) -> list:
        """Per store id, the size of its conjugacy class, ``|G : C_G(x)|``."""
        sizes = list(map(len, self.conjugacy_partition()))
        return list(take(sizes, self._class_ids()))


class CayleyTable:
    """The multiplication of a materialised group on store ids, filled on demand.

    ``col(s)[x] == id(x * s)`` is the right column of ``s`` and ``inv[x] ==
    id(x**-1)``; there are no rows.  The table keeps one left map ``x ->
    id(g * x)`` per generator and the breadth-first
    spanning tree of left multiplications from the identity (a Schreier
    vector), both taken from the walk that built the store
    (:func:`_left_walk`, which composed image tuples and made each store
    element a :class:`Permutation` once), so building the table costs list
    lookups and no permutation product.  Ids are composed with :func:`take`.
    Columns are held, oldest dropped first, within ``CAYLEY_CELL_BUDGET``
    cells.  A column is one take of its tree parent's column and a
    generator's, ``id(x * g * h) == col(h)[col(g)[x]]``, when the parent is
    held; while the whole table fits the budget :meth:`col` builds a parent
    that is not, and past it such a column is :meth:`spread` down the tree
    from the generator maps, ``id(g * a * s) == lmap_g[id(a * s)]``, as a
    generator's column always is.  A left product is read off a column,
    ``id(s * x) == inv[col(s**-1)[inv[x]]]``.  Only this module spreads or
    reads the inverses; the other modules ask :class:`Group` for columns,
    conjugates and labels.

    There is deliberately no ``__getitem__``: a ``mul[a][b]`` read of an
    all-rows table fails instead of reading a transpose.
    """

    def __init__(self, G: Group):
        G.materialize()
        # pos[x] is the walk place of store id x and rank[w] the store id at
        # place w; the group's copy of the walk is dropped once reindexed.
        pos, maps, blocks = G._walk
        G._walk = None
        rank = sorted(range(len(pos)), key=pos.__getitem__)
        self._lmaps = [list(take(rank, take(m, pos))) for m in maps]
        # The element at place w is gen[w] * up[w] in store ids; both are 0
        # for the identity and up[w] is 0 for a generator.
        up, gen = [0], [0]
        for j, parents in blocks:
            up += take(rank, parents)
            gen += [self._lmaps[j][0]] * len(parents)
        self._pos, self._blocks, self._up, self._gen = pos, blocks, up, gen
        self._cols: dict = {}
        self._cells = 0
        # id(g_j**-1) is where lmap_j reaches the identity.
        self.inv = self.spread(0, [self.col(lmap.index(0)) for lmap in self._lmaps])

    def __len__(self) -> int:
        return len(self._pos)

    def spread(self, seed: int, maps) -> list:
        """The list ``v`` by store id with ``v[id(1)] == seed`` and
        ``v[id(g_j * a)] == maps[j][v[id(a)]]`` down the tree, one list lookup
        per element: store ids for a column, orbit indices for the labels of
        a conjugation orbit."""
        vals = [seed]
        for j, parents in self._blocks:
            vals += take(maps[j], take(vals, parents))
        return list(take(vals, self._pos))

    def col(self, s: int) -> list:
        """``[id(x * s) for x in G]``.  While the whole table fits the budget
        (read per call) none is dropped, so the tree path from s up to a held
        column or a generator is built top down, in a loop: a cyclic group's
        tree is one path.  Past the budget s is spread unless its parent is held."""
        cols, pos, up = self._cols, self._pos, self._up
        cells = cols.get(s)
        if cells is not None:
            return cells
        path, w = [s], pos[s]
        if len(pos) ** 2 <= CAYLEY_CELL_BUDGET:
            while up[w] and up[w] not in cols:
                path.append(up[w])
                w = pos[up[w]]
        for t in reversed(path):
            w = pos[t]
            parent = up[w] and cols.get(up[w])
            if parent:
                cells = list(take(parent, self.col(self._gen[w])))
            else:
                cells = self.spread(t, self._lmaps)
            while cols and self._cells + len(cells) > CAYLEY_CELL_BUDGET:
                self._cells -= len(cols.pop(next(iter(cols))))
            cols[t] = cells
            self._cells += len(cells)
        return cells


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
    """``|G : C_G(x)|``, the conjugacy class size of ``x`` in ``G``, read off
    :func:`centraliser`, whose routes and errors it shares."""
    return G.order // centraliser(G, [x]).order


def centraliser(G: Group, S) -> "Subgroup":
    """``C_G(S)`` for a set (or Subgroup) ``S`` of elements of ``G``.

    Two routes.  On an unmaterialised direct product this is computed
    blockwise, which is exact because commutation in a product is
    componentwise: a product-form subgroup of ``G`` gives the product of its
    blocks' centralisers, ``C(S1 x S2) = C(S1) x C(S2)``, and only elements
    are split into blocks.  Otherwise ``G`` is materialised and its table decides
    commutation: the first element ``s`` keeps the ids ``g`` with
    ``id(g * s) == id(s * g)``, its left products read off a column as
    ``inv[col(s**-1)[inv[g]]]`` in two :func:`take` calls over all of G, and
    each later one tests only the ids kept.  Every
    element of ``S`` must lie in ``G``: one that mixes blocks raises
    ValueError, and any other non-member raises it through
    :meth:`Group.element_id`.

    For a :class:`Subgroup` the answer is memoised on ``S``, keyed by ``G``,
    since the elements of a subgroup of another group on the same points may
    lie in ``G`` too.
    """
    if isinstance(S, Subgroup):
        return _subgroup_centraliser(G, S)
    return _centraliser(G, S)


@memo(owner="S")
def _subgroup_centraliser(G: Group, S: "Subgroup") -> "Subgroup":
    if S.parent is G and G.blocks is not None:
        return Subgroup.from_factors(G, map(centraliser, G.blocks, S.factors))
    return _centraliser(G, S.generating_set())


def _centraliser(G: Group, gens) -> "Subgroup":
    gens = [s for s in gens if not s.is_identity()]
    if not gens:
        return Subgroup.full(G)
    if G.blocks is not None:
        return Subgroup.from_factors(
            G, [centraliser(f, col) for f, col in zip(G.blocks, zip(*map(G.split, gens)))]
        )
    first, *rest = [G.element_id(s) for s in gens]
    mul, eq = G.cayley(), operator.eq
    inv = mul.inv
    row = take(inv, take(mul.col(inv[first]), inv))
    ids = list(itertools.compress(range(len(mul)), map(eq, mul.col(first), row)))
    for s in rest:
        sx = take(inv, take(mul.col(inv[s]), take(inv, ids)))
        ids = list(itertools.compress(ids, map(eq, take(mul.col(s), ids), sx)))
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
      (frozensets give O(1) membership and canonical dedup keys), a plain
      slot that is None on a product-form subgroup: :meth:`ids_in_store`
      materialises the parent for those;
    * ``factors`` -- one subgroup of each block of ``parent.direct_factors``,
      in block order, for the product-form subgroups of a direct product
      (membership tested blockwise).

    ``order`` is stored once, at construction: the number of ids, or the
    product of the factor orders.

    :meth:`from_ids` and :meth:`from_factors` enforce this: a subgroup is
    ids of a materialised parent, or blocks of a direct product.  Building a
    subgroup from members that are not a product of block subgroups of an
    unmaterialised product materialises the parent's cap-guarded store,
    never its Cayley table, and an element outside the parent raises
    ValueError.

    Subgroups are canonical per parent: :meth:`from_ids` returns the one
    object for ``(parent, frozenset(ids))`` and :meth:`from_factors` the one
    for ``(parent, factors)`` while it is alive (the factors are canonical
    themselves), so facts memoised on it with :func:`memo` are computed once
    per group, whatever route reached the subgroup, and freed with it.  The
    parent holds its pool of canonical subgroups weakly, so the pool keeps
    neither them nor, through them, the parent alive.
    """

    __slots__ = ("parent", "order", "ids", "_factors", "_gen_ids", "_cache", "__weakref__")

    def __init__(self, parent, *, ids=None, factors=None):
        if (ids is None) == (factors is None):
            raise ValueError("exactly one subgroup backing must be supplied")
        self.parent = parent
        self.ids = ids
        self._factors = factors
        self._gen_ids = None  # set once; see generating_ids
        self._cache = {}
        self.order = len(ids) if ids is not None else math.prod(s.order for s in factors)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ids(cls, parent: Group, ids, gen_ids=None) -> "Subgroup":
        """The canonical subgroup of ``parent`` with these member ids; given
        ``gen_ids`` that generate it, its :meth:`generating_ids` unless set."""
        ids = frozenset(ids)
        S = parent._subgroups.get(ids)
        if S is None:
            S = parent._subgroups[ids] = cls(parent, ids=ids)
        if gen_ids is not None and S._gen_ids is None:
            S._gen_ids = list(gen_ids)
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
            factors = list(map(cls.from_members, parent.blocks, zip(*map(parent.split, members))))
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
        """Its blocks' trivial subgroups on an unmaterialised product, as
        :meth:`full` takes their full ones, else store id 0, the identity."""
        if parent.blocks is not None:
            return cls.from_factors(parent, map(cls.trivial, parent.blocks))
        parent.materialize()
        return cls.from_ids(parent, (0,), ())

    @classmethod
    def full(cls, parent: Group) -> "Subgroup":
        if parent.blocks is not None:
            return cls.from_factors(parent, map(cls.full, parent.blocks))
        return cls.from_ids(parent, range(len(parent.elements)))

    # -- basic facts ---------------------------------------------------------

    def __len__(self) -> int:
        return self.order

    def ids_in_store(self) -> frozenset:
        """Member ids in the parent store, materialising the parent if needed."""
        if self.ids is not None:
            return self.ids
        return self._store_ids()

    @memo
    def _store_ids(self) -> frozenset:
        return frozenset(map(self.parent.element_id, self.members()))

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name!r})"

    @property
    def factors(self):
        """The per-block subgroups of a product-form subgroup, or None."""
        return self._factors

    # -- membership and elements ----------------------------------------------

    def __contains__(self, p) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.parent.degree:
            return False
        try:
            if self.ids is not None:
                return self.parent.element_id(p) in self.ids
            return all(map(Subgroup.__contains__, self._factors, self.parent.split(p)))
        except ValueError:
            return False

    def members(self) -> tuple:
        """All elements, sorted lexicographically.  Each block shifts its points by
        a constant offset, so tuples of block members sort as their joins do, and
        the product of the blocks' sorted members is in order."""
        if self.ids is not None:
            els = self.parent.elements
            return tuple(els[i] for i in sorted(self.ids))
        check_enumerable("subgroup", self.order)
        blocks = [s.members() for s in self._factors]
        return tuple(map(join_blocks, itertools.product(*blocks)))

    @memo
    def generating_set(self) -> tuple:
        """A small generating set: the members at :meth:`generating_ids`, or
        the blocks' own generating sets embedded."""
        if self._factors is not None:
            degrees = [s.parent.degree for s in self._factors]
            return tuple(embed_block(degrees, i, g)
                         for i, s in enumerate(self._factors) for g in s.generating_set())
        els = self.parent.elements
        return tuple(els[i] for i in self.generating_ids())

    def generating_ids(self) -> list:
        """Generating ids in the parent store, each outside the subgroup the
        ones before it generate, so at most Omega(|S|) of them.

        A route that builds the subgroup from generators gives them through
        :meth:`from_ids`: the trivial subgroup's empty list, the Sylow
        search's, ``hgens + [x]`` in ``enumerate_subgroups``, and
        for a conjugate its orbit parent's mapped by :meth:`Group.conjugates`.
        Any other subgroup (the full one, a meet, centraliser or core) gets
        the greedy :func:`_small_generating_ids` when first asked.  Set once,
        so they follow the first route that reached the subgroup; every
        reader depends only on the subgroup they generate.  Materialises the
        parent.  Callers must not mutate the list: every user shares it.
        """
        if self._gen_ids is None:
            self._gen_ids = _small_generating_ids(self.parent, self.ids_in_store())
        return self._gen_ids

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
        """``|A B| = |A| |B| / |A n B|`` as a set count.  The meet is counted,
        never built: by ids, or block by block for two product-form subgroups
        (``|A B|`` is then the product of the blocks' ``|A_i B_i|``)."""
        if self.parent is not other.parent:
            raise ValueError("subgroups of different parents")
        if self._factors is not None and other._factors is not None:
            return math.prod(map(Subgroup.product_order, self._factors, other._factors))
        return self.order * other.order // len(self.ids_in_store() & other.ids_in_store())

    def subset_of(self, other: "Subgroup") -> bool:
        """``self <= other``: by ids, or block by block for two product-form
        subgroups (``S1 x S2 <= T1 x T2`` iff each ``Si <= Ti``), within one
        parent; otherwise, across parents too, by each generator's membership."""
        if self.parent is other.parent:
            if self.ids is not None and other.ids is not None:
                return self.ids <= other.ids
            if self._factors is not None and other._factors is not None:
                return all(map(Subgroup.subset_of, self._factors, other._factors))
        return all(g in other for g in self.generating_set())
