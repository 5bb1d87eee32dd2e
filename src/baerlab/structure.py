"""Characteristic subgroups, Sylow/Hall machinery, quotients and series.

Every operation here is a pure function of immutable groups.  Results are
memoised on the group object (write-once), keyed by operation name and
arguments, so sweeps never recompute per-group structure.  On annotated
direct products the operations that distribute over products (centre,
derived subgroup, Sylow, cores, Fitting terms, quotients by product-form
normal subgroups) recurse into the factors instead of materialising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapExceeded, InternalInvariantViolation
from .group import Group, Subgroup, _small_generating_ids, centraliser
from .numth import (
    classify_prime_power,
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


def _componentwise(G: Group, op) -> Subgroup:
    return Subgroup.from_factors(G, [op(f) for f in G.direct_factors])


def _use_components(G: Group) -> bool:
    return G.direct_factors is not None


# -- commutativity and elementary structure -----------------------------------


def is_abelian(obj) -> bool:
    """Works on groups and subgroups; generator pairs decide it.

    For a subgroup whose parent is within the Cayley-table gate the pairs are
    compared on the table (``mul[a][b] == mul[b][a]`` over the subgroup's
    generating ids); otherwise generator permutations are composed.
    """
    if isinstance(obj, Subgroup):
        if obj.parent.use_id_arithmetic():
            mul = obj.parent.cayley()
            gens = obj.generating_ids()
            return all(mul[a][b] == mul[b][a] for a in gens for b in gens)
        gens = obj.generating_set()
        return all(a * b == b * a for a in gens for b in gens)

    def build():
        if _use_components(obj):
            return all(is_abelian(f) for f in obj.direct_factors)
        return all(a * b == b * a for a in obj.generators for b in obj.generators)

    return _cached(obj, "abelian", build)


def exponent(G: Group) -> int:
    if _use_components(G) and not G.is_materialized:
        return math.lcm(*(exponent(f) for f in G.direct_factors))
    return _cached(G, "exponent", lambda: math.lcm(*(o for o in G.element_orders())))


def center(G: Group) -> Subgroup:
    def build():
        if _use_components(G):
            return _componentwise(G, center)
        return centraliser(G, G.generators)

    return _cached(G, "center", build)


def derived_subgroup(G: Group) -> Subgroup:
    def build():
        if _use_components(G):
            return _componentwise(G, derived_subgroup)
        gens = G.generators
        comms = [
            a.inverse() * b.inverse() * a * b for a in gens for b in gens if a != b
        ]
        return normal_closure(G, comms)

    return _cached(G, "derived", build)


def is_nilpotent(G: Group) -> bool:
    return fitting(G).order == G.order


# -- Sylow subgroups ------------------------------------------------------------


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


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
        if _use_components(G):
            return _componentwise(G, lambda f: sylow(f, p))
        G.materialize()
        orders = G.element_orders()
        seed, best = None, 0
        for i, o in enumerate(orders):
            if o > best and _is_p_power(o, p) and o > 1:
                seed, best = i, o
        H = G.closure_ids([], [seed])
        while len(H) < pk:
            norm = _normaliser_ids(G, H)
            grow = None
            for y in sorted(norm):
                if y not in H and orders[y] > 1 and _is_p_power(orders[y], p):
                    grow = y
                    break
            if grow is None:
                raise InternalInvariantViolation(
                    f"Sylow extension stalled at order {len(H)} < {pk}"
                )
            H = G.closure_ids(H, [grow])
        return Subgroup.from_ids(G, H)

    return _cached(G, ("sylow", p), build)


def _normaliser_ids(G: Group, H: frozenset) -> list:
    hgens = _small_generating_ids(G, H)
    out = []
    for g in range(len(G.elements)):
        if all(G.conjugate_id(h, g) in H for h in hgens):
            out.append(g)
    return out


def sylow_conjugates(G: Group, p: int) -> list:
    """All distinct conjugates of sylow(G, p), in first-appearance store order."""

    def build():
        P = sylow(G, p)
        if P.is_trivial():
            return [P]
        seen = set()
        out = []
        for g in G.elements:
            Q = P.conjugate(g)
            k = Q.key()
            if k not in seen:
                seen.add(k)
                out.append(Q)
        return out

    return _cached(G, ("sylow_conjugates", p), build)


# -- cores: O_p, O_pi ------------------------------------------------------------


def o_p(G: Group, p: int) -> Subgroup:
    """Largest normal p-subgroup, as the intersection of all Sylow p-conjugates."""

    def build():
        if _use_components(G):
            return _componentwise(G, lambda f: o_p(f, p))
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
    """Largest normal pi-subgroup: generated by the elements whose normal
    closure is a pi-group.  ``pi`` may be any prime set, so this covers both
    O_{p'} and general O_pi."""
    pi = frozenset(p for p in pi if G.order % p == 0)

    def build():
        if not pi:
            return Subgroup.trivial(G)
        if pi == frozenset(pi_of(G)):
            return Subgroup.full(G)
        if len(pi) == 1:
            return o_p(G, next(iter(pi)))
        if _use_components(G):
            return _componentwise(G, lambda f: o_pi(f, pi))
        G.materialize()
        orders = G.element_orders()
        gens = []
        for cls in G.conjugacy_partition():
            rep = cls[0]
            if orders[rep] == 1 or not is_pi_number(orders[rep], pi):
                continue
            nc = _normal_closure_ids(G, [rep])
            if is_pi_number(len(nc), pi):
                gens.extend(cls)
        if not gens:
            return Subgroup.trivial(G)
        core = Subgroup.from_ids(G, G.closure_ids([], gens))
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
        if _use_components(G):
            return _componentwise(G, fitting)
        parts = [o_p(G, p) for p in pi_of(G)]
        parts = [S for S in parts if not S.is_trivial()]
        if not parts:
            return Subgroup.trivial(G)
        if len(parts) == 1:
            return parts[0]
        ids = G.closure_ids(
            [], [i for S in parts for i in _small_generating_ids(G, S.ids_in_store())]
        )
        expected = math.prod(S.order for S in parts)
        if len(ids) != expected:
            raise InternalInvariantViolation("p-cores did not multiply to a direct product")
        return Subgroup.from_ids(G, ids)

    return _cached(G, "fitting", build)


def fitting2(G: Group) -> Subgroup:
    """Second Fitting term: preimage of F(G / F(G))."""

    def build():
        if _use_components(G):
            return _componentwise(G, fitting2)
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
    ``preimage`` pulls quotient subgroups back; ``lift_p_element`` lifts a
    p-element of the quotient to a p-element of ``G`` (the p-part of any
    coset representative).

    The quotient by the trivial subgroup is the identity quotient: its
    ``group`` is ``source`` itself, with no coset action built, so
    ``project``, ``preimage`` and ``lift_p_element`` are identities and
    work on ``G`` reuses ``G``'s own caches.
    """

    def __init__(self, source: Group, kernel: Subgroup, group: Group, parts=None,
                 coset_of=None, reps=None):
        self.source = source
        self.kernel = kernel
        self.group = group
        self._parts = parts
        self._coset_of = coset_of
        self._reps = reps

    def _assemble(self, part_perms) -> Permutation:
        images = []
        off = 0
        for perm in part_perms:
            images.extend(v + off for v in perm.images)
            off += perm.degree
        return Permutation._make(tuple(images))

    def _split_quotient(self, qp: Permutation) -> list:
        parts = []
        off = 0
        for q in self._parts:
            d = q.group.degree
            parts.append(Permutation._make(tuple(v - off for v in qp.images[off : off + d])))
            off += d
        return parts

    def is_identity(self) -> bool:
        return self.group is self.source

    def project(self, g: Permutation) -> Permutation:
        if self.is_identity():
            return g
        if self._parts is not None:
            return self._assemble(
                [q.project(part) for q, part in zip(self._parts, self.source.split(g))]
            )
        mul = self.source.cayley()
        gid = self.source.element_id(g)
        coset_of = self._coset_of
        return Permutation._make(tuple(coset_of[mul[r][gid]] for r in self._reps))

    def preimage(self, S: Subgroup) -> Subgroup:
        if self.is_identity():
            return S
        if self._parts is not None:
            if S._factors is None:
                raise CapExceeded("preimage in an unenumerated product needs a product-form subgroup")
            return Subgroup.from_factors(
                self.source, [q.preimage(s) for q, s in zip(self._parts, S._factors)]
            )
        quotient_members = S.member_set()
        keep = [c for c in range(len(self._reps))
                if self.project(self.source.elements[self._reps[c]]) in quotient_members]
        keep_set = set(keep)
        ids = [e for e, c in enumerate(self._coset_of) if c in keep_set]
        return Subgroup.from_ids(self.source, ids)

    def lift_p_element(self, qp: Permutation, p: int) -> Permutation:
        o = qp.order()
        if not _is_p_power(o, p):
            raise ValueError("quotient element is not a p-element")
        if self.is_identity():
            return qp
        if self._parts is not None:
            lifted = [q.lift_p_element(part, p)
                      for q, part in zip(self._parts, self._split_quotient(qp))]
            return self._assemble(lifted)
        rep = self.source.elements[self._reps[qp(0)]]
        ro = rep.order()
        m = ro // p_part(ro, p)
        if m == 1:
            return rep
        exp = m * pow(m, -1, p_part(ro, p))
        return rep**exp


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
        if _use_components(G) and not G.is_materialized:
            if N._factors is None:
                raise CapExceeded("quotient of an unenumerated product needs a product-form kernel")
            from .constructions import direct_product

            parts = [quotient_group(f, s) for f, s in zip(G.direct_factors, N._factors)]
            qgroup = direct_product([q.group for q in parts]) if len(parts) > 1 else parts[0].group
            return Quotient(G, N, qgroup, parts=parts)
        els = G.materialize()
        mul = G.cayley()
        nids = sorted(N.ids_in_store())
        coset_of = [-1] * len(els)
        reps = []
        for e in range(len(els)):
            if coset_of[e] >= 0:
                continue
            label = len(reps)
            reps.append(e)
            for nid in nids:
                coset_of[mul[nid][e]] = label
        m = len(reps)
        gen_perms = []
        for gid in G.generator_ids():
            gen_perms.append(Permutation._make(tuple(coset_of[mul[r][gid]] for r in reps)))
        qgroup = Group(
            m,
            gen_perms,
            order_hint=len(els) // len(nids),
            name=f"{G.name}/N{len(nids)}",
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


def is_prefactorised(F: Factorisation, S: Subgroup) -> bool:
    """Whether ``S = (S n A)(S n B)`` with respect to the factorisation."""
    ia = S.intersection(F.a)
    ib = S.intersection(F.b)
    return ia.product_order(ib) == S.order


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
        if _use_components(G) and not G.is_materialized:
            if F.a._factors is not None and F.b._factors is not None:
                parts = []
                for f, sa, sb in zip(G.direct_factors, F.a._factors, F.b._factors):
                    parts.append(find_prefactorised_sylow(Factorisation(f, sa, sb), p))
                return Subgroup.from_factors(G, parts)
            raise CapExceeded("prefactorised Sylow search needs product-form factors here")
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


def hall(G: Group, pi, budget: int = 50_000):
    """Best-effort Hall pi-subgroup search; ``None`` means "not found within
    budget", which is distinct from a nonexistence proof.

    Strategy: seed with the conjugates of a Sylow subgroup for the heaviest
    prime in pi and greedily adjoin pi-elements whose closure stays a
    pi-group, backtracking on dead ends, bounded by ``budget`` closures.
    """
    pi = frozenset(p for p in pi if G.order % p == 0)
    key = ("hall", pi, budget)

    def build():
        target = pi_part(G.order, pi)
        if target == 1:
            return Subgroup.trivial(G)
        if target == G.order:
            return Subgroup.full(G)
        if len(pi) == 1:
            return sylow(G, next(iter(pi)))
        if _use_components(G) and not G.is_materialized:
            parts = []
            for f in G.direct_factors:
                h = hall(f, pi, budget)
                if h is None:
                    return None
                parts.append(h)
            return Subgroup.from_factors(G, parts)
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
            hgens = _small_generating_ids(G, H)
            for x in candidates:
                if x in H:
                    continue
                if spent >= budget:
                    return None
                spent += 1
                K = G.closure_from_gen_ids(hgens + [x])
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
            if spent >= budget:
                break
        return None

    return _cached(G, key, build)


def hall_conjugates(G: Group, H: Subgroup) -> list:
    """Distinct conjugates of ``H`` in first-appearance store order."""
    seen = set()
    out = []
    for g in G.elements:
        Q = H.conjugate(g)
        k = Q.key()
        if k not in seen:
            seen.add(k)
            out.append(Q)
    return out


# -- decomposability and the upper p-series -------------------------------------------


def is_p_decomposable(G: Group, p: int) -> bool:
    """Whether ``G = O_p(G) x O_{p'}(G)``."""
    return o_p(G, p).order * o_p_prime(G, p).order == G.order


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


def _normal_closure_ids(G: Group, seed_ids) -> frozenset:
    gen_ids = list(seed_ids)
    K = G.closure_from_gen_ids(gen_ids)
    group_gens = G.generator_ids()
    changed = True
    while changed:
        changed = False
        for s in _small_generating_ids(G, K):
            for g in group_gens:
                c = G.conjugate_id(s, g)
                if c not in K:
                    gen_ids.append(c)
                    K = G.closure_from_gen_ids(gen_ids)
                    changed = True
    return K


def normal_closure(G: Group, S, cap: int | None = None) -> Subgroup:
    """Smallest normal subgroup of ``G`` containing ``S`` (iterable or Subgroup)."""
    gens = list(S.generating_set()) if isinstance(S, Subgroup) else list(S)
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return Subgroup.trivial(G)
    G.materialize(cap)
    ids = _normal_closure_ids(G, [G.element_id(g) for g in gens])
    return Subgroup.from_ids(G, ids)


def is_normal(G: Group, S: Subgroup) -> bool:
    """Whether ``S`` is normal in ``G``: generators conjugate generators into S.

    When ``S`` is a subgroup of ``G`` itself and ``G`` is within the
    Cayley-table gate, the conjugates are table lookups tested against S's
    store ids.  Otherwise, for instance for a subgroup of another group on
    the same points, the permutations are conjugated and tested for
    membership.
    """
    if S._whole or S.order == G.order:
        return True
    if S.parent is G and G.use_id_arithmetic():
        ids = S.ids_in_store()
        return all(
            G.conjugate_id(s, g) in ids for g in G.generator_ids() for s in S.generating_ids()
        )
    return all(
        s.conjugate(g) in S for g in G.generators for s in S.generating_set()
    )


# -- bounded subgroup enumeration ----------------------------------------------------


def enumerate_subgroups(G: Group, budget: int = 400_000, max_order: int = 200) -> list:
    """All subgroups, by layered closure of ``<H, x>`` over prime-power-order
    elements ``x``; every group is generated by such elements, so the layering
    is complete.  Results are sorted by (order, member ids) and cached."""

    def build():
        if G.order > max_order:
            raise CapExceeded(
                f"subgroup enumeration bound is {max_order}, group has order {G.order}",
                cap=max_order,
            )
        G.materialize()
        orders = G.element_orders()
        pp_ids = [
            i
            for i, o in enumerate(orders)
            if o > 1 and classify_prime_power(o).is_prime_power
        ]
        trivial = frozenset({G.element_id(G.identity())})
        found = {trivial}
        frontier = [trivial]
        spent = 0
        while frontier:
            new = []
            for H in frontier:
                hgens = _small_generating_ids(G, H)
                for x in pp_ids:
                    if x in H:
                        continue
                    spent += 1
                    if spent > budget:
                        raise CapExceeded(
                            f"subgroup enumeration exceeded budget {budget}", cap=budget
                        )
                    K = G.closure_from_gen_ids(hgens + [x])
                    if K not in found:
                        found.add(K)
                        new.append(K)
            frontier = new
        subs = [Subgroup.from_ids(G, ids) for ids in found]
        subs.sort(key=lambda S: (S.order, tuple(sorted(S.ids))))
        return subs

    return _cached(G, ("subgroups", budget, max_order), build)


def normal_subgroups(G: Group, max_order: int = 200) -> list:
    return _cached(
        G,
        ("normal_subgroups", max_order),
        lambda: [S for S in enumerate_subgroups(G, max_order=max_order) if is_normal(G, S)],
    )
