"""Factorisation predicates and their structural consequences.

The predicates: a factorisation G = AB is p-Baer when every p-element of
A u B has prime-power index in G, and Baer when that holds for every prime.
The checks in this module verify, on concrete groups, the structural
conclusions those predicates force (decomposability, normality of Sylow-core
products, unique index primes, centraliser-index characterisations, and the
coprime direct decomposition of groups in which every prime-power-order
element has prime-power index).

Every check has one shape, ``hypothesis => conclusions``, given by
:func:`_check`: unmet hypotheses make the report one ``not-applicable``
clause, a spent cap or budget one ``skipped`` clause, and otherwise each
conclusion is ``pass`` or ``fail`` (:meth:`TheoremReport.check`).  A ``fail``
means an engine bug, since the conclusions are established facts.  The
conclusions alone are the check's ``__wrapped__``.  Witness lists are
canonically sorted so reports are byte-reproducible.

Past its hypotheses, most of Theorems A, B and E speaks of G and a Sylow
p-subgroup P alone, so those clauses are rows memoised on what they read and
copied into each report: Theorem A's clauses 1-4 on P, Theorem B's two core
clauses on P and {q, r}, all of Theorem E on G and p, and the all-prime-power
right-hand side of :func:`check_p_index_decomposition` on G and p.  A group's
many factorisations work them out once per Sylow subgroup or prime.  What is
left per factorisation reads A and B: the hypotheses, the prefactorised Sylow
subgroup, the unique primes, the left-hand sides and Theorem A's clauses 5-6.

Facts read from one factor are memoised on that subgroup by
:func:`~baerlab.group.memo`, so every factorisation with the same side
shares them: its index profiles, statuses and primes, and its meets with G's
Sylow subgroups (:func:`~baerlab.structure.sylow_meets`), which give the
Sylow intersections of :func:`~baerlab.structure.find_prefactorised_sylow`.
A factorisation only combines them and intersects no subgroups; its own
verdicts, unique primes and prefactorised Sylow subgroup are memoised on it.
Facts about a factor as a group of its own (its Sylow subgroups and class
sizes, for Theorems A, D and F and Corollary C) are read in the parent's id
space by :func:`~baerlab.structure.factor_sylows` and
:func:`~baerlab.structure.factor_class_sizes`, not through a Group built per
factor.
Likewise a fact about a factor group G/M is read as a relative core in G
(``over=M`` in :mod:`~baerlab.structure`), and a ``quotient_order`` witness is
``|G| / |M|``.

The p-elements of a factor are read by kind (:func:`_kinds`): by their index
in G and, for Theorem D, their class size in the factor.  A factor with store
ids is read id by id; a product-form one folds its blocks' kinds, as a member
is a p-element exactly when every component is one, and its index and class
size are the products of its components'.  So a product-form factor's members
are never listed, the work is bounded by the distinct index and class-size
pairs, and the witnesses are the ones a member-by-member scan finds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import CapExceeded, InternalInvariantViolation
from .group import Group, Subgroup, centraliser, compiled, join_blocks, memo
from .numth import is_p_number, is_prime_power, pi_part, prime_divisors
from .perm import Permutation, format_cycles
from .reporting import NOT_APPLICABLE, SKIPPED, TheoremReport, row
from .structure import (
    Factorisation,
    central_quotient,
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
    sylow,
    upper_p_series,
)


# -- data types -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IndexWitness:
    element: Permutation
    locus: str
    index: int
    prime_power: bool

    def to_json_dict(self) -> dict:
        return {
            "element": format_cycles(self.element),
            "locus": self.locus,
            "index": self.index,
            "prime_power": self.prime_power,
        }


@dataclass(slots=True)
class BaerStatus:
    """Verdict of a p-Baer or Baer test, with index witnesses.

    For a single-prime query ``prime`` is set and ``is_baer`` is None; for the
    all-primes query ``is_baer`` is the conjunction over the prime verdicts in
    ``per_prime``.  Witnesses hold the first failure, or one representative
    per distinct (locus, index) pair on success.
    """

    factorisation: Factorisation
    prime: int | None
    is_p_baer: bool | None
    is_baer: bool | None
    witnesses: list = field(default_factory=list)
    per_prime: dict | None = None

    def holds(self) -> bool:
        return self.is_p_baer if self.prime is not None else self.is_baer


@dataclass(frozen=True, slots=True)
class UniquePrimes:
    """The index primes of the p-elements on each side of a factorisation.

    ``q`` (A side) or ``r`` (B side) is None when every p-element on that
    side is central, leaving the prime unconstrained.
    """

    p: int
    q: int | None
    r: int | None


@dataclass
class BaerDecomposition:
    """Coprime direct decomposition ``G = G_1 x ... x G_r`` by prime blocks."""

    factors: list
    prime_partition: list


# -- element-index profiles --------------------------------------------------------


@memo
def _kinds(S: Subgroup, p: int, inner: bool) -> dict:
    """The p-elements of S, the identity included, grouped into kinds; memoised
    on S per prime and ``inner``.

    A kind's key is ``(index in S.parent, class size in S, is the identity)``,
    with class size 1 unless ``inner``, and its value ``(member, count)``: the
    least member of S of that kind and how many members are of that kind.
    Kinds are in the order of their least members.  A product-form S folds
    its blocks' kinds (:func:`_fold_kinds`) whether or not G's store is
    built, so all kinds memoised on S have members of one form.  Otherwise S
    is one block, read by sorted store id, which is member order: orders
    from ``G.element_orders()``, indices from ``G.class_sizes()`` and class
    sizes from :func:`~baerlab.structure.factor_class_sizes`.  An S of full
    order is G, so it is read one conjugacy class at a time: order, index
    and class size are class functions, and the classes come by ascending
    least member, so the kinds arrive in the same order.
    """
    if S.factors is not None:
        parts = (_kinds(s, p, inner) for s in S.factors)
        return functools.reduce(_fold_kinds, parts, {(1, 1, True): ((), 1)})
    G = S.parent
    els, orders = G.elements, G.element_orders()
    kinds = {}
    if S.order == G.order:
        for cls in G.conjugacy_partition():
            if is_p_number(orders[cls[0]], p):
                key = (len(cls), len(cls) if inner else 1, orders[cls[0]] == 1)
                x, n = kinds.get(key, (els[cls[0]], 0))
                kinds[key] = (x, n + len(cls))
        return kinds
    index, sizes = G.class_sizes(), (factor_class_sizes(S) if inner else None)
    for i in sorted(S.ids_in_store()):
        if is_p_number(orders[i], p):
            key = (index[i], sizes[i] if inner else 1, orders[i] == 1)
            x, n = kinds.get(key, (els[i], 0))
            kinds[key] = (x, n + 1)
    return kinds


def _fold_kinds(left: dict, block: dict) -> dict:
    """The kinds of ``L x S_i`` from those of L and of the next block S_i.

    Indices and class sizes multiply and counts add over equal keys.  Members
    are tuples of block members, whose lexicographic order is the order of
    the joined permutations (:meth:`Subgroup.members`).  Both dicts are in
    member order, so the pairs arrive in lexicographic order and the first
    pair to reach a key holds the kind's least member.  Members are joined
    into permutations only when read (:func:`_member`).
    """
    out = {}
    for (idx, inner, one), (x, n) in left.items():
        for (b_idx, b_inner, b_one), (y, m) in block.items():
            key = (idx * b_idx, inner * b_inner, one and b_one)
            least, count = out.get(key, (x + (y,), 0))
            out[key] = (least, count + n * m)
    return out


def _member(x) -> Permutation:
    """A kind's member as a permutation: folded members are tuples of block members."""
    return x if isinstance(x, Permutation) else join_blocks(map(_member, x))


def _folded_kinds(S: Subgroup, primes, inner: bool) -> list:
    """``(member, index, class size in S, count)`` for the kinds of the
    nontrivial p-elements of S over ``primes`` (:func:`_kinds`), by least
    member.

    A nontrivial prime-power-order member is a p-element for one p only, so
    the kinds of different primes never share a member, and rows sort by
    member alone.
    """
    rows = [
        (x, idx, in_s, n)
        for p in primes
        for (idx, in_s, one), (x, n) in _kinds(S, p, inner).items()
        if not one
    ]
    rows.sort()
    return rows


@memo
def _side_profile(S: Subgroup, p: int | None = None) -> dict:
    """``{index in S.parent: first member with that index}`` over the nontrivial
    p-elements of S in member order (every nontrivial prime-power-order
    member for ``p=None``, the union over the primes of |S|); memoised on S
    per prime.  One member per index is joined from the kinds
    (:func:`_folded_kinds`).
    """
    first = {}
    primes = prime_divisors(S.order) if p is None else [p]
    for x, idx, _inner, _n in _folded_kinds(S, primes, False):
        first.setdefault(idx, x)
    return {idx: _member(x) for idx, x in first.items()}


@memo
def _side_status(S: Subgroup, p: int | None, locus: str) -> tuple:
    """``(failing witness or None, witnesses by index)`` of a side S at ``locus``;
    memoised on S per prime and locus.  The first index of S's
    :func:`_side_profile` that is no prime power fails."""
    witnesses = []
    for idx, x in _side_profile(S, p).items():
        if not is_prime_power(idx):
            return IndexWitness(x, locus, idx, False), None
        witnesses.append(IndexWitness(x, locus, idx, True))
    witnesses.sort(key=lambda w: w.index)
    return None, witnesses


def _status(F: Factorisation, p, subs) -> BaerStatus:
    """Combine the :func:`_side_status` of the ``(locus, S)`` pairs ``subs``, A's
    first: the first failing witness, else every witness, sorted by (locus, index)."""
    witnesses = []
    for locus, S in subs:
        bad, found = _side_status(S, p, locus)
        if bad is not None:
            return BaerStatus(F, p, False, None, witnesses=[bad])
        witnesses += found
    return BaerStatus(F, p, True, None, witnesses=witnesses)


@memo
def is_p_baer(F: Factorisation, p: int, via: str = "union") -> BaerStatus:
    """Decide whether ``G = AB`` is a p-Baer factorisation.

    ``via="union"`` scans every p-element of A u B; ``via="sylow"`` scans only
    the two Sylow intersections of a prefactorised Sylow p-subgroup, which is
    an equivalent test because Sylow subgroups are conjugate.  The two routes
    must agree; the sweep asserts that.  Both combine the :func:`_side_status`
    of each side, A and B or their Sylow intersections (p-groups, whose
    nontrivial members are all p-elements, read from
    :func:`~baerlab.structure.find_prefactorised_sylow`); the status is
    memoised on F.
    """
    if via == "union":
        subs = F.factors()
    elif via == "sylow":
        subs = zip(("A", "B"), find_prefactorised_sylow(F, p)[1:])
    else:
        raise ValueError(f"unknown route {via!r}")
    return _status(F, p, subs)


@memo
def is_baer(F: Factorisation) -> BaerStatus:
    """Conjunction of the p-Baer predicate over every prime dividing |G|;
    memoised on F."""
    per_prime = {}
    witnesses = []
    ok = True
    for p in pi_of(F.group):
        st = is_p_baer(F, p)
        per_prime[p] = st.is_p_baer
        if not st.is_p_baer:
            ok = False
            witnesses.extend(st.witnesses)
    if ok:
        witnesses = _status(F, None, F.factors()).witnesses
    return BaerStatus(F, None, None, ok, witnesses=witnesses, per_prime=per_prime)


# -- unique index primes -----------------------------------------------------------


@memo
def _index_primes(S: Subgroup, p: int | None = None) -> frozenset:
    """The primes dividing the indices of the noncentral p-elements of S
    (every prime-power-order member for ``p=None``, as in
    :func:`_side_profile`); memoised on S per prime."""
    return frozenset(q for idx in _side_profile(S, p) for q in prime_divisors(idx))


@memo
def unique_primes(F: Factorisation, p: int) -> UniquePrimes | None:
    """The unique primes q (A side) and r (B side) dividing the nontrivial
    indices of p-elements, or None when one side's indices have two prime
    divisors, which a p-Baer factorisation rules out; memoised on F."""
    out = {}
    for locus, sub in F.factors():
        primes = _index_primes(sub, p)
        if len(primes) > 1:
            return None
        out[locus] = next(iter(primes), None)
    return UniquePrimes(p, out["A"], out["B"])


# -- the shape of a check -------------------------------------------------------------


def _check(theorem: str, hypothesis=None):
    """Give a check its one shape: ``hypothesis => conclusions``.

    The decorated ``conclusions(report, ...)`` records its clauses on the
    report.  The check takes the conclusions' parameters after ``report``,
    defaults included, and returns a ``TheoremReport(theorem, p)``, p being
    the argument named ``p`` (None when there is none):

    * when ``hypothesis``, called with the same arguments, returns a reason,
      the report is one ``hypotheses`` clause, ``not-applicable``;
    * when either raises :class:`CapExceeded`, it is one ``cap`` clause,
      ``skipped``, whose witness carries the message, the cap and the
      partial count; any other exception, in particular
      :class:`InternalInvariantViolation`, propagates;
    * otherwise it holds the conclusions' clauses.

    The check is compiled once from the conclusions' parameter list, as
    :func:`~baerlab.group.memo` is (:func:`~baerlab.group.compiled`): Python
    binds each call, the report's prime is the check's own ``p`` parameter,
    and no ``*args, **kwargs`` are packed or unpacked.  ``__wrapped__`` runs
    the conclusions whatever the hypotheses.
    """

    def decorate(conclusions):
        code = conclusions.__code__
        params = code.co_varnames[1 : code.co_argcount]
        args = ", ".join(params)
        body = (
            f"    _report = _TheoremReport(_theorem, {'p' if 'p' in params else 'None'})\n"
            "    try:\n"
            f"        _reason = {f'_hypothesis({args})' if hypothesis else 'None'}\n"
            "        if _reason:\n"
            "            _report.add('hypotheses', _NOT_APPLICABLE, _reason)\n"
            "        else:\n"
            f"            _conclusions(_report, {args})\n"
            "    except _CapExceeded as _exc:\n"
            "        _report.clauses = []\n"
            "        _report.add('cap', _SKIPPED, {'message': str(_exc), 'cap': _exc.cap,\n"
            "                                      'partial': _exc.partial})\n"
            "    return _report\n"
        )
        scope = {"_TheoremReport": TheoremReport, "_theorem": theorem, "_hypothesis": hypothesis,
                 "_conclusions": conclusions, "_CapExceeded": CapExceeded,
                 "_NOT_APPLICABLE": NOT_APPLICABLE, "_SKIPPED": SKIPPED}
        return compiled(conclusions, params, body, scope)

    return decorate


def _p_baer(F: Factorisation, p: int) -> str | None:
    return None if is_p_baer(F, p).is_p_baer else "not a p-Baer factorisation"


def _baer(F: Factorisation, p: int | None = None) -> str | None:
    return None if is_baer(F).is_baer else "not a Baer factorisation"


# -- equivalence with the Sylow-centraliser predicate ----------------------------------


@memo
def _side_centraliser_indices(S: Subgroup) -> list:
    """``(p, |G : C_G(S_p)|, prime power?)`` for each prime p of ``G = S.parent``
    ascending, with ``S_p = factor_sylow(S, p)``; memoised on S.  The index
    does not depend on the choice of S_p: ``C_G(S_p^s) = C_G(S_p)^s``."""
    G = S.parent
    indices = [(p, G.order // centraliser(G, factor_sylow(S, p)).order) for p in sorted(pi_of(G))]
    return [(p, idx, is_prime_power(idx)) for p, idx in indices]


@memo
def _side_choice_independent(S: Subgroup) -> bool:
    """Whether each Sylow subgroup of S has its prime's centraliser index; memoised on S."""
    G = S.parent
    return all(
        G.order // centraliser(G, Q).order == idx
        for p, idx, _ok in _side_centraliser_indices(S)
        for Q in factor_sylows(S, p)
    )


@_check("F")
def check_theorem_f_equivalence(report: TheoremReport, F: Factorisation) -> None:
    """Cross-check two independent routes to the Baer property.

    Route 1 is the definition (indices of prime-power-order elements of
    A u B).  Route 2 asks that ``|G : C_G(A_p)|`` and ``|G : C_G(B_p)|`` be
    prime powers for Sylow subgroups A_p of A and B_p of B, for every prime.
    The two routes are equivalent; the report asserts their agreement and,
    on small groups, that the centraliser indices do not depend on the
    Sylow choice.  The indices and the choice check are memoised per side.
    """
    pred1 = is_baer(F).is_baer
    loci, indices = zip(*((locus, _side_centraliser_indices(sub)) for locus, sub in F.factors()))
    details = [
        {"prime": p, "locus": locus, "index": idx, "prime_power": ok}
        for rows in zip(*indices)
        for locus, (p, idx, ok) in zip(loci, rows)
    ]
    pred2 = all(d["prime_power"] for d in details)
    report.check("equivalence", pred1 == pred2, {"definition_predicate": pred1,
                 "centraliser_predicate": pred2, "centraliser_indices": details})
    # Small groups only: the clause centralises every Sylow subgroup of each side.
    if F.group.order <= 500:
        report.check("choice-independence",
                     all(_side_choice_independent(sub) for _locus, sub in F.factors()))


# -- structural consequences of a p-Baer factorisation -----------------------------------


@memo
def _theorem_a_rows(P: Subgroup, p: int) -> tuple:
    """Theorem A's clauses 1-4 as rows, which read only G = P.parent and its
    Sylow p-subgroup P; memoised on P per prime."""
    G = P.parent
    Op = o_p(G, p)
    C = centraliser(G, Op)
    Fit = fitting(G)
    pf = product_with_normal(G, P, Fit)
    popp = product_with_normal(G, P, o_pi(G, set(pi_of(G)) - {p}))
    series = upper_p_series(G, p)
    return (
        row("1:central-quotient-p-decomposable", is_p_decomposable(G, p, over=C),
            {"quotient_order": G.order // C.order}),
        row("2:sylow-core-products-normal-p-soluble",
            is_normal(G, pf) and is_normal(G, popp)
            and series.is_p_soluble and series.p_length <= 1,
            {"PF_order": pf.order, "POpprime_order": popp.order,
             "p_length": series.p_length, "p_soluble": series.is_p_soluble}),
        row("3:sylow-of-fitting-quotient-abelian", is_abelian(P, over=Op),
            {"quotient_order": G.order // Fit.order}),
        row("4:sylow-abelian-iff-core-abelian", is_abelian(P) == is_abelian(Op),
            {"sylow_abelian": is_abelian(P), "core_abelian": is_abelian(Op)}),
    )


@_check("A", _p_baer)
def report_theorem_a(report: TheoremReport, F: Factorisation, p: int) -> None:
    """Structure forced by a p-Baer factorisation.

    Clauses: (1) ``G/C_G(O_p(G))`` is p-decomposable; (2) both ``P F(G)`` and
    ``P O_{p'}(G)`` are normal and G is p-soluble of p-length at most 1; (3)
    the Sylow p-subgroup ``P F(G)/F(G)`` of ``G/F(G)``, isomorphic to
    ``P/O_p(G)`` as ``P n F(G) = O_p(G)``, is abelian; (4) P is abelian iff
    ``O_p(G)`` is; (5) a Sylow intersection not centralising ``O_p(G)``
    centralises every Hall p'-subgroup, which exists as G is p-soluble; (6)
    if both factors have non-abelian Sylow p-subgroups, G is p-decomposable.
    Clauses 1 and 3 are read in G; clauses 1-4 are P's rows
    (:func:`_theorem_a_rows`).
    """
    G = F.group
    P, PA, PB = find_prefactorised_sylow(F, p)
    report.extend(_theorem_a_rows(P, p))

    C = centraliser(G, o_p(G, p))
    applicable = [(locus, PX) for locus, PX in (("A", PA), ("B", PB)) if not PX.subset_of(C)]
    if not applicable:
        report.add("5:sylow-part-centralises-hall", NOT_APPLICABLE,
                   "both Sylow intersections centralise the p-core")
    elif (H := hall(G, set(pi_of(G)) - {p})) is None:
        report.check("5:sylow-part-centralises-hall", False,
                     "G has no Hall p'-subgroup although it is p-soluble (clause 2)")
    else:
        hgens = [Hg.generating_set() for Hg in hall_conjugates(G, H)]
        report.check(
            "5:sylow-part-centralises-hall",
            all(a * b == b * a for _locus, PX in applicable for a in PX.generating_set()
                for gens in hgens for b in gens),
            {"sides": [locus for locus, _ in applicable], "hall_order": H.order},
        )

    if is_abelian(factor_sylow(F.a, p)) or is_abelian(factor_sylow(F.b, p)):
        report.add("6:nonabelian-factor-sylows-force-decomposition", NOT_APPLICABLE,
                   "a factor has an abelian Sylow p-subgroup")
    else:
        report.check("6:nonabelian-factor-sylows-force-decomposition", is_p_decomposable(G, p))


@memo
def _theorem_b_rows(P: Subgroup, qr: frozenset) -> tuple:
    """Theorem B's clauses on P and the index primes ``qr`` as rows: P
    centralises the {q,r}-complement of F(G), and ``P O_q(G) O_r(G)`` is
    normal, G being P.parent; memoised on P per prime set."""
    G = P.parent
    # F(G) is nilpotent, so its {q,r}-complement is the product of the cores
    # O_s(G), s in pi(F(G)) - {q, r}: each is the Sylow s-subgroup of F(G).
    cores = [o_p(G, s) for s in prime_divisors(fitting(G).order) if s not in qr]
    CP = centraliser(G, P)
    K = P
    for s in sorted(qr):
        K = product_with_normal(G, K, o_p(G, s))
    return (
        row("centralises-fitting-complement", all(core.subset_of(CP) for core in cores),
            {"complement_order": math.prod(core.order for core in cores)}),
        row("sylow-core-product-normal", is_normal(G, K), {"product_order": K.order}),
    )


@_check("B", _p_baer)
def report_theorem_b(report: TheoremReport, F: Factorisation, p: int) -> None:
    """Index-prime structure of a p-Baer factorisation.

    After extracting the unique index primes (q, r), where a second prime
    on one side fails ``unique-primes`` and ends the report, checks that P
    centralises the {q,r}-complement of F(G), that ``P O_q(G) O_r(G)`` is
    normal, that q = r = p forces p-decomposability, and that p outside
    {q, r} forces P abelian.  An absent side prime is instantiated with the
    other side's prime (or p), which the established statements allow.
    """
    up = unique_primes(F, p)
    report.check("unique-primes", up is not None, {"q": up.q, "r": up.r} if up else None)
    if up is None:
        return
    G = F.group
    present = [x for x in (up.q, up.r) if x is not None]
    P = find_prefactorised_sylow(F, p)[0]
    report.extend(_theorem_b_rows(P, frozenset(present or [p])))

    if not present:
        report.add("1:q-equals-r-equals-p", NOT_APPLICABLE, "no noncentral p-element in either factor")
    elif all(x == p for x in present):
        report.check("1:q-equals-r-equals-p", is_p_decomposable(G, p))
    else:
        report.add("1:q-equals-r-equals-p", NOT_APPLICABLE, "an index prime differs from p")

    if p not in present:
        report.check("2:p-outside-forces-abelian", is_abelian(P))
    else:
        report.add("2:p-outside-forces-abelian", NOT_APPLICABLE, "p occurs as an index prime")


# -- consequences of a full Baer factorisation ---------------------------------------------


@_check("C", _baer)
def report_corollary_c(report: TheoremReport, F: Factorisation) -> None:
    """Global structure of a Baer factorisation: abelian Fitting quotient
    (read in G: G's generator commutators lie in F(G)), the A-group criterion,
    and the sigma-decomposition along the primes whose factor Sylow subgroups
    are both non-abelian."""
    G = F.group
    Fit = fitting(G)
    report.check("1:fitting-quotient-abelian", is_abelian(G, over=Fit),
                 {"quotient_order": G.order // Fit.order})

    all_sylow_abelian = all(is_abelian(sylow(G, p)) for p in pi_of(G))
    report.check("2:a-group-iff-abelian-fitting", all_sylow_abelian == is_abelian(Fit),
                 {"all_sylow_abelian": all_sylow_abelian, "fitting_abelian": is_abelian(Fit)})

    sigma = {p for p in pi_of(G)
             if not is_abelian(factor_sylow(F.a, p)) and not is_abelian(factor_sylow(F.b, p))}
    Os = o_pi(G, sigma)
    Osp = o_pi(G, set(pi_of(G)) - sigma)
    # O_sigma(G) is normal, so it is nilpotent iff it lies in F(G).
    report.check("3:sigma-decomposition", Os.order * Osp.order == G.order and Os.subset_of(Fit),
                 {"sigma": sorted(sigma), "order_sigma": Os.order})

    if sigma == set(pi_of(G)) and G.order > 1:
        report.check("4:all-nonabelian-forces-nilpotent", is_nilpotent(G))
    else:
        report.add("4:all-nonabelian-forces-nilpotent", NOT_APPLICABLE,
                   "some factor Sylow subgroup is abelian")


@memo
def _side_inheritance(S: Subgroup) -> tuple:
    """Theorem D on one factor S, memoised on S: ``(members checked, the first
    whose index in S does not inherit the prime of its index in S.parent,
    S is a Baer group)``.  S is a Baer group when every prime-power-order
    member has a prime-power class size in S.

    The members are read by kind (:func:`_folded_kinds`), each kind counting
    its members and only the first failing member being joined.
    """
    checked, bad, baer_group = 0, None, True
    for x, idx, inner, n in _folded_kinds(S, prime_divisors(S.order), True):
        checked += n
        baer_group = baer_group and is_prime_power(inner)
        ok = inner == 1 or is_prime_power(idx) and prime_divisors(inner) == prime_divisors(idx)
        if not ok and bad is None:
            bad = {"element": format_cycles(_member(x)), "outer_index": idx, "inner_index": inner}
    return checked, bad, baer_group


@_check("D", _baer)
def check_factor_inheritance(report: TheoremReport, F: Factorisation) -> None:
    """Baer factorisations push index primes down into the factors: a
    prime-power-order element whose G-index is a q-number also has q-number
    index inside its own factor, and both factors are Baer groups.  Each
    factor's part is memoised on it (:func:`_side_inheritance`)."""
    sides = [(locus, _side_inheritance(sub)) for locus, sub in F.factors()]
    bad = next(({"locus": locus, **side[1]} for locus, side in sides if side[1]), None)
    report.check("1:index-prime-inherited", bad is None,
                 bad or {"elements_checked": sum(side[0] for _locus, side in sides)})
    report.check("2:factors-are-baer-groups", all(side[2] for _locus, side in sides))


@memo
def _theorem_e_rows(G: Group, p: int) -> tuple:
    """Theorem E's clauses as rows, which read only G and p; memoised on G per prime."""
    P = sylow(G, p)
    idx = G.order // centraliser(G, P).order
    primes = set(prime_divisors(idx))
    witness = {"index": idx, "primes": sorted(primes)}
    if is_abelian(P):
        sylow_rows = (("1:nonabelian-sylow-index", NOT_APPLICABLE, "Sylow p-subgroup is abelian"),
                      row("2:abelian-sylow-index", p not in primes and len(primes) <= 2, witness))
    else:
        sylow_rows = (row("1:nonabelian-sylow-index", len(primes - {p}) <= 1, witness),
                      ("2:abelian-sylow-index", NOT_APPLICABLE, "Sylow p-subgroup is not abelian"))
    ok, quotient_order, complement_order = central_quotient(G, p)
    return (*sylow_rows,
            row("3:central-quotient-shape", ok and len(prime_divisors(complement_order)) <= 2,
                {"quotient_order": quotient_order, "complement_order": complement_order}))


@_check("E", _baer)
def report_theorem_e(report: TheoremReport, F: Factorisation, p: int) -> None:
    """Centraliser index of a Sylow subgroup in a Baer factorisation: at most
    two primes divide ``|G : C_G(P)|`` (avoiding p when P is abelian), and the
    quotient by ``C_G(O_p(G))`` is p-decomposable with an abelian p-complement
    touched by at most two primes, read in G (:func:`central_quotient`); all
    G's rows (:func:`_theorem_e_rows`)."""
    report.extend(_theorem_e_rows(F.group, p))


# -- coprime direct decompositions ------------------------------------------------------


@memo
def baer_decomposition(G: Group):
    """Finest coprime partition of the primes with ``G`` the direct product of
    the corresponding cores, for groups in which every prime-power-order
    element has prime-power index; None when the index condition fails.

    A prime set B splits G when ``|O_B(G)| |O_B'(G)| = |G|``.  Splitting sets
    are closed under intersection and complement, so the finest partition is
    their atoms: the block of p holds the primes in every splitting set that
    holds p.  The atoms' cores must multiply to |G|, and each
    non-prime-power-order factor must touch exactly two primes and have
    abelian Sylow subgroups; a violation is an internal red alert.  The
    answer, None included, is memoised on G.
    """
    if not is_baer(Factorisation.trivial(G)).is_baer:
        return None
    primes = frozenset(pi_of(G))
    sets = (frozenset(B) for r in range(1, len(primes)) for B in itertools.combinations(primes, r))
    splitting = [B for B in sets if o_pi(G, B).order * o_pi(G, primes - B).order == G.order]
    blocks = sorted({tuple(q for q in sorted(primes) if all(q in B for B in splitting if p in B))
                     for p in primes})
    factors = [o_pi(G, set(b)) for b in blocks]
    if math.prod(S.order for S in factors) != G.order:
        raise InternalInvariantViolation("atoms do not split G into a direct product")
    for block, S in zip(blocks, factors):
        shape_ok = is_prime_power(S.order) or (
            len(prime_divisors(S.order)) == 2
            and all(is_abelian(factor_sylow(S, q)) for q in block)
        )
        if not shape_ok:
            raise InternalInvariantViolation(f"decomposition factor of order {S.order} has the wrong shape")
        if not is_normal(G, S):
            raise InternalInvariantViolation("decomposition factor is not normal")
    for i, Si in enumerate(factors):
        for Sj in factors[i + 1 :]:
            gi, gj = Si.generating_set(), Sj.generating_set()
            if not all(a * b == b * a for a in gi for b in gj):
                raise InternalInvariantViolation("decomposition factors do not commute")
    return BaerDecomposition(factors, [list(b) for b in blocks])


# -- unconditional index facts (regression oracles) ----------------------------------------


def _first_class_outside(G: Group, members, qualifies) -> tuple:
    """``(checked, witness)`` over the conjugacy classes of G that
    ``qualifies`` accepts, in class order: the number of their elements up to
    the first such class with its least member outside ``members``, and that
    member with its index; the witness is None when there is no such class.

    For ``members`` a normal subgroup, a class lies in it or outside it, and
    the least member of the first class outside is the least element outside.
    """
    checked = 0
    for cls in G.conjugacy_partition():
        if qualifies(cls):
            checked += len(cls)
            if cls[0] not in members:
                return checked, {"element": format_cycles(G.elements[cls[0]]), "index": len(cls)}
    return checked, None


@_check("wielandt")
def check_wielandt(report: TheoremReport, G: Group) -> None:
    """A p-element whose index is a p-number lies in ``O_p(G)``; checked for
    every prime and every element, a conjugacy class at a time
    (:func:`_first_class_outside`), as order and index are class functions."""
    G.materialize()
    orders = G.element_orders()
    for p in sorted(pi_of(G)):
        checked, bad = _first_class_outside(
            G, o_p(G, p).ids_in_store(),
            lambda cls: is_p_number(orders[cls[0]], p) and is_p_number(len(cls), p),
        )
        report.check(f"p={p}", bad is None, bad or {"elements_checked": checked})


@_check("camina-camina")
def check_camina_camina(report: TheoremReport, G: Group) -> None:
    """Every element of prime-power index lies in the second Fitting term,
    checked a conjugacy class at a time as in :func:`check_wielandt`."""
    G.materialize()
    F2 = fitting2(G)
    checked, bad = _first_class_outside(G, F2.ids_in_store(), lambda cls: is_prime_power(len(cls)))
    report.check("prime-power-index-in-F2", bad is None,
                 bad or {"elements_checked": checked, "F2_order": F2.order})


@_check("berkovich-kazarin")
def check_lemma_bk(report: TheoremReport, G: Group) -> None:
    """For noncentral p-elements x, y with prime-power indices of distinct
    primes and ``i(xy)`` a prime power: their normal closure lies in
    ``O_p(G)``, ``i(xy)`` is the maximum of the two and a p-power, and the
    Sylow p-subgroup is non-abelian.  Exhaustive pair scan on store ids:
    indices are class sizes read by id, and ``xy`` is ``col(y)[x]``.  The
    rows ``(id, index, index prime)`` are read a conjugacy class at a time,
    as order and index are class functions, and scanned by id."""
    G.materialize()
    els = G.elements
    orders = G.element_orders()
    index = G.class_sizes()
    mul = G.cayley()
    classes = [(cls, prime_divisors(len(cls))[0]) for cls in G.conjugacy_partition()
               if len(cls) > 1 and is_prime_power(len(cls))]
    for p in sorted(pi_of(G)):
        rows = sorted((i, len(cls), q) for cls, q in classes
                      if is_p_number(orders[cls[0]], p) for i in cls)
        pairs, bad = 0, None
        for ai, (i, ix, px) in enumerate(rows):
            for j, iy, py in rows[ai + 1 :]:
                if px == py:
                    continue
                ixy = index[mul.col(j)[i]]
                if not is_prime_power(ixy):
                    continue
                pairs += 1
                x, y = els[i], els[j]
                conclusion = (
                    normal_closure(G, [x, y]).subset_of(o_p(G, p))
                    and ixy == max(ix, iy)
                    and is_p_number(ixy, p)
                    and not is_abelian(sylow(G, p))
                )
                if not conclusion and bad is None:
                    bad = {"x": format_cycles(x), "y": format_cycles(y),
                           "ix": ix, "iy": iy, "ixy": ixy}
        report.check(f"p={p}", bad is None, bad or {"qualifying_pairs": pairs})


# -- mixed-prime interplay ---------------------------------------------------------------


def _pq_baer(F: Factorisation, p: int, q: int) -> str | None:
    """Why the pq-Baer statement does not apply, or None when it does: the
    factorisation is p- and q-Baer for q != p, the noncentral p-elements have
    q-indices in A and r-indices in B, and one prime s divides the indices
    of the noncentral q-elements."""
    if q == p:
        return "q must differ from p"
    if not is_p_baer(F, p).is_p_baer or not is_p_baer(F, q).is_p_baer:
        return "not a p- and q-Baer factorisation"
    up = unique_primes(F, p)
    if up is None or up.q != q or up.r is None:
        return "requires noncentral p-elements with q-indices in A and r-indices in B"
    s = _index_primes(F.a, q) | _index_primes(F.b, q)
    if not s:
        return "all q-elements of the factors are central"
    if len(s) > 1:
        return "q-element indices are not powers of a single prime"
    return None


@_check("pq-baer", _pq_baer)
def check_pq_baer(report: TheoremReport, F: Factorisation, p: int, q: int) -> None:
    """When a factorisation is both p-Baer and q-Baer, with noncentral
    p-elements indexed by q on the A side and by r on the B side, the index
    prime s of the q-elements must lie in {p, r}; and if q = r then s = p and
    a normal Hall {p,q}-subgroup with abelian Sylow subgroups exists.  Such a
    subgroup contains every {p,q}-subgroup, so it exists iff ``O_{p,q}(G)``
    has the {p,q}-part of |G| as its order, and is then ``O_{p,q}(G)``."""
    rs = _index_primes(F.b, p)
    ss = _index_primes(F.a, q) | _index_primes(F.b, q)
    # Inside the hypotheses rs == {r} and ss == {s}, and the witness names r and s.
    r, s = (min(x) if len(x) == 1 else sorted(x) for x in (rs, ss))
    report.check("a:s-in-p-r", ss <= rs | {p}, {"s": s, "r": r, "q": q})
    if rs == {q}:
        G = F.group
        H = o_pi(G, {p, q})
        ok = ss == {p} and H.order == pi_part(G.order, {p, q})
        report.check("b:normal-hall-pq", ok and all(is_abelian(factor_sylow(H, x)) for x in (p, q)),
                     {"s": s, "hall_order": H.order})
    else:
        report.add("b:normal-hall-pq", NOT_APPLICABLE, "q differs from r")


@memo
def _decomposed_with_abelian_complement(G: Group, p: int) -> bool:
    """Whether ``G = O_p(G) x O_{p'}(G)`` with ``O_{p'}(G)`` abelian; memoised on G per prime."""
    return is_p_decomposable(G, p) and is_abelian(o_pi(G, set(pi_of(G)) - {p}))


@_check("p-index-decomposition")
def check_p_index_decomposition(report: TheoremReport, F: Factorisation, p: int,
                                scope: str = "p-elements") -> None:
    """Biconditionals tying index conditions on the factors to decomposability.

    Scope "p-elements": every p-element of A u B has p-number index iff G is
    p-decomposable.  Scope "all prime power": every prime-power-order element
    of A u B has p-number index iff ``G = O_p x O_{p'}`` with ``O_{p'}``
    abelian; on Baer factorisations additionally the quotient by
    ``C_G(O_p(G))`` is p-decomposable with abelian p-complement, read in G
    (:func:`central_quotient`).
    """
    if scope not in ("p-elements", "all prime power"):
        raise ValueError(f"unknown scope {scope!r}")
    G = F.group
    prime = p if scope == "p-elements" else None
    lhs = all(_index_primes(sub, prime) <= {p} for _l, sub in F.factors())
    if prime is not None:
        rhs = is_p_decomposable(G, p)
        report.check("biconditional-p-elements", lhs == rhs,
                     {"all_indices_p_numbers": lhs, "p_decomposable": rhs})
        return
    rhs = _decomposed_with_abelian_complement(G, p)
    report.check("biconditional-prime-power", lhs == rhs,
                 {"all_indices_p_numbers": lhs, "decomposed_with_abelian_complement": rhs})
    if is_baer(F).is_baer:
        ok, quotient_order, _ = central_quotient(G, p)
        report.check("baer-central-quotient", ok, {"quotient_order": quotient_order})
    else:
        report.add("baer-central-quotient", NOT_APPLICABLE, "not a Baer factorisation")
