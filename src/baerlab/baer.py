"""Factorisation predicates and their structural consequences.

The predicates: a factorisation G = AB is p-Baer when every p-element of
A u B has prime-power index in G, and Baer when that holds for every prime.
The checks in this module verify, on concrete groups, the structural
conclusions those predicates force (decomposability, normality of Sylow-core
products, unique index primes, centraliser-index characterisations, and the
coprime direct decomposition of groups in which every prime-power-order
element has prime-power index).

Every check distinguishes ``fail`` (hypotheses met, conclusion false, which
means an engine bug since the conclusions are established facts) from
``not-applicable`` (hypotheses unmet).  Witness lists are canonically sorted
so reports are byte-reproducible.

Facts read from one factor are memoised on that subgroup by
:func:`~baerlab.group.memo`, so every factorisation with the same side
shares them; a factorisation only combines them, and its own p-Baer and Baer
verdicts are memoised on it.
Facts about a factor as a group of its own (its Sylow subgroups and class
sizes, for Theorems A, D and F and Corollary C) are read in the parent's id
space by :func:`~baerlab.structure.factor_sylows` and
:func:`~baerlab.structure.factor_class_sizes`, not through a Group built per
factor.

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
import inspect
import math
from dataclasses import dataclass, field

from .errors import CapExceeded, InternalInvariantViolation
from .group import Group, Subgroup, centraliser, join_blocks, memo
from .numth import (
    PrimePower,
    classify_prime_power,
    is_p_number,
    pi_part,
    prime_divisors,
)
from .perm import Permutation, format_cycles
from .reporting import FAIL, NOT_APPLICABLE, PASS, SKIPPED, TheoremReport
from .structure import (
    Factorisation,
    _blockwise,
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
    o_p_prime,
    o_pi,
    pi_of,
    quotient_group,
    sylow,
    upper_p_series,
)


# -- data types -----------------------------------------------------------------


@dataclass(frozen=True)
class IndexWitness:
    element: Permutation
    locus: str
    index: int
    classification: PrimePower

    def to_json_dict(self) -> dict:
        return {
            "element": format_cycles(self.element),
            "locus": self.locus,
            "index": self.index,
            "prime_power": self.classification.is_prime_power,
        }


@dataclass
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


@dataclass(frozen=True)
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
    with class size 1 unless ``inner``, and its value ``(position, member,
    count)``: the least position in member order of S of a member of that
    kind, that member, and how many members are of that kind.  A
    product-form S folds its blocks' kinds (:func:`_fold_kinds`) whether or
    not G's store is built, so all kinds memoised on S have positions of one
    form.  Otherwise S is one block, read by sorted store id: orders from
    ``G.element_orders()``, indices from ``G.conjugacy_partition()`` and
    class sizes from :func:`~baerlab.structure.factor_class_sizes`; a
    position is the store id, the identity's, 0, being the least.
    """
    if S.factors is not None:
        parts = (_kinds(s, p, inner) for s in S.factors)
        return functools.reduce(_fold_kinds, parts, {(1, 1, True): ((), (), 1)})
    G = S.parent
    els, orders, classes = G.elements, G.element_orders(), G.conjugacy_partition()
    sizes = factor_class_sizes(S) if inner else None
    kinds = {}
    for i in sorted(S.ids_in_store()):
        if is_p_number(orders[i], p):
            key = (len(classes[G.class_of_id(i)]), sizes[i] if inner else 1, orders[i] == 1)
            first, x, n = kinds.get(key, (i, els[i], 0))
            kinds[key] = (first, x, n + 1)
    return kinds


def _fold_kinds(left: dict, block: dict) -> dict:
    """The kinds of ``L x S_i`` from those of L and of the next block S_i.

    Indices and class sizes multiply and counts add over equal keys.
    Positions and members are tuples of block positions and block members;
    block members are sorted, so the lexicographic order of positions is
    member order.  Both dicts are in position order, so the pairs arrive in
    lexicographic position order and the first pair to reach a key holds the
    kind's first member.  Members are joined into permutations only when
    read (:func:`_member`).
    """
    out = {}
    for (idx, inner, one), (first, x, n) in left.items():
        for (b_idx, b_inner, b_one), (b_first, y, m) in block.items():
            key = (idx * b_idx, inner * b_inner, one and b_one)
            old = out.get(key)
            if old is None:
                out[key] = (first + (b_first,), x + (y,), n * m)
            else:
                out[key] = (old[0], old[1], old[2] + n * m)
    return out


def _member(x) -> Permutation:
    """A kind's member as a permutation: folded members are tuples of block members."""
    return x if isinstance(x, Permutation) else join_blocks(map(_member, x))


def _folded_kinds(S: Subgroup, primes, inner: bool) -> list:
    """``(position, member, index, class size in S, count)`` for the kinds of the
    nontrivial p-elements of S over ``primes`` (:func:`_kinds`), by first
    position.

    A nontrivial prime-power-order member is a p-element for one p only, so
    the kinds of different primes never share a member.
    """
    rows = [
        (first, x, idx, in_s, n)
        for p in primes
        for (idx, in_s, one), (first, x, n) in _kinds(S, p, inner).items()
        if not one
    ]
    rows.sort()  # positions are distinct, so rows sort by position
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
    for _first, x, idx, _inner, _n in _folded_kinds(S, primes, False):
        first.setdefault(idx, x)
    return {idx: _member(x) for idx, x in first.items()}


def _status(F: Factorisation, p, subs) -> BaerStatus:
    """Combine the side profiles of the ``(locus, S)`` pairs ``subs``: the first
    index that is no prime power, in A's profile order and then B's, is the
    first failing member; else one witness per (locus, index), sorted."""
    witnesses = []
    for locus, S in subs:
        for idx, x in _side_profile(S, p).items():
            c = classify_prime_power(idx)
            if not c.is_prime_power:
                return BaerStatus(F, p, False, None, witnesses=[IndexWitness(x, locus, idx, c)])
            witnesses.append(IndexWitness(x, locus, idx, c))
    witnesses.sort(key=lambda w: (w.locus, w.index))
    return BaerStatus(F, p, True, None, witnesses=witnesses)


@memo
def is_p_baer(F: Factorisation, p: int, via: str = "union") -> BaerStatus:
    """Decide whether ``G = AB`` is a p-Baer factorisation.

    ``via="union"`` scans every p-element of A u B; ``via="sylow"`` scans only
    the two Sylow intersections of a prefactorised Sylow p-subgroup, which is
    an equivalent test because Sylow subgroups are conjugate.  The two routes
    must agree; the sweep asserts that.  Both combine the :func:`_side_profile`
    of each side, A and B or their Sylow intersections (p-groups, whose
    nontrivial members are all p-elements); the status is memoised on F.
    """
    if via == "union":
        subs = F.factors()
    elif via == "sylow":
        P = find_prefactorised_sylow(F, p)
        subs = [(locus, P.intersection(sub)) for locus, sub in F.factors()]
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


def unique_primes(F: Factorisation, p: int) -> UniquePrimes:
    """The unique primes q (A side) and r (B side) dividing the nontrivial
    indices of p-elements; a second prime on one side is a hard failure."""
    st = is_p_baer(F, p)
    if not st.is_p_baer:
        raise ValueError("unique index primes are only defined for p-Baer factorisations")
    out = {}
    for locus, sub in F.factors():
        primes = {classify_prime_power(idx).prime for idx in _side_profile(sub, p) if idx > 1}
        if len(primes) > 1:
            raise InternalInvariantViolation(
                f"two distinct index primes {sorted(primes)} on side {locus}"
            )
        out[locus] = primes.pop() if primes else None
    return UniquePrimes(p, out["A"], out["B"])


# -- caps in reports ------------------------------------------------------------------


def _skipped_on_cap(theorem: str):
    """Report a check whose cap or budget ran out as one ``skipped`` clause.

    The witness carries the message, the cap and the partial count of the
    :class:`CapExceeded` raised.  Any other exception, in particular
    :class:`InternalInvariantViolation`, still propagates.
    """

    def decorate(check):
        signature = inspect.signature(check)

        @functools.wraps(check)
        def run(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            except CapExceeded as exc:
                prime = signature.bind(*args, **kwargs).arguments.get("p")
                report = TheoremReport(theorem, prime)
                report.add("cap", SKIPPED,
                           {"message": str(exc), "cap": exc.cap, "partial": exc.partial})
                return report

        return run

    return decorate


# -- equivalence with the Sylow-centraliser predicate ----------------------------------


@memo
def _side_centraliser_indices(S: Subgroup) -> list:
    """``(p, |G : C_G(S_p)|, prime power?)`` for each prime p of ``G = S.parent``
    ascending, with ``S_p = factor_sylow(S, p)``; memoised on S.  The index
    does not depend on the choice of S_p: ``C_G(S_p^s) = C_G(S_p)^s``."""
    G = S.parent
    indices = [(p, G.order // centraliser(G, factor_sylow(S, p)).order) for p in sorted(pi_of(G))]
    return [(p, idx, classify_prime_power(idx).is_prime_power) for p, idx in indices]


@memo
def _side_choice_independent(S: Subgroup) -> bool:
    """Whether each Sylow subgroup of S has its prime's centraliser index; memoised on S."""
    G = S.parent
    return all(
        G.order // centraliser(G, Q).order == idx
        for p, idx, _ok in _side_centraliser_indices(S)
        for Q in factor_sylows(S, p)
    )


@_skipped_on_cap("F")
def check_theorem_f_equivalence(F: Factorisation) -> TheoremReport:
    """Cross-check two independent routes to the Baer property.

    Route 1 is the definition (indices of prime-power-order elements of
    A u B).  Route 2 asks that ``|G : C_G(A_p)|`` and ``|G : C_G(B_p)|`` be
    prime powers for Sylow subgroups A_p of A and B_p of B, for every prime.
    The two routes are equivalent; the report asserts their agreement and,
    on small groups, that the centraliser indices do not depend on the
    Sylow choice.  The indices and the choice check are memoised per side.
    """
    G = F.group
    report = TheoremReport("F")
    pred1 = is_baer(F).is_baer
    loci, indices = zip(*((locus, _side_centraliser_indices(sub)) for locus, sub in F.factors()))
    details = [
        {"prime": p, "locus": locus, "index": idx, "prime_power": ok}
        for rows in zip(*indices)
        for locus, (p, idx, ok) in zip(loci, rows)
    ]
    pred2 = all(d["prime_power"] for d in details)
    report.add(
        "equivalence",
        PASS if pred1 == pred2 else FAIL,
        {
            "definition_predicate": pred1,
            "centraliser_predicate": pred2,
            "centraliser_indices": details,
        },
    )
    # An unmaterialised product answers blockwise; building its store here
    # would take it off the blockwise route for every later check.
    if G.order <= 500:
        stable = all(_side_choice_independent(sub) for _locus, sub in F.factors())
        report.add("choice-independence", PASS if stable else FAIL, None)
    return report


# -- structural consequences of a p-Baer factorisation -----------------------------------


@_skipped_on_cap("A")
def report_theorem_a(F: Factorisation, p: int) -> TheoremReport:
    """Structure forced by a p-Baer factorisation.

    Clauses: (1) the quotient by ``C_G(O_p(G))`` is p-decomposable; (2) both
    ``P F(G)`` and ``P O_{p'}(G)`` are normal and G is p-soluble of p-length
    at most 1; (3) the Sylow p-subgroup of ``G/F(G)`` is abelian; (4) P is
    abelian iff ``O_p(G)`` is; (5) a Sylow intersection not centralising
    ``O_p(G)`` centralises every Hall p'-subgroup; (6) if both factors have
    non-abelian Sylow p-subgroups, G is p-decomposable.
    """
    if not is_p_baer(F, p).is_p_baer:
        return TheoremReport.not_applicable("A", p, "not a p-Baer factorisation")
    G = F.group
    report = TheoremReport("A", p)
    P = find_prefactorised_sylow(F, p)
    Op = o_p(G, p)
    C = centraliser(G, Op)

    quotient = quotient_group(G, C)
    report.add(
        "1:central-quotient-p-decomposable",
        PASS if is_p_decomposable(quotient.group, p) else FAIL,
        {"quotient_order": quotient.group.order},
    )

    Fit = fitting(G)
    pf = _product_with_normal(G, P, Fit)
    popp = _product_with_normal(G, P, o_p_prime(G, p))
    series = upper_p_series(G, p)
    ok2 = (
        is_normal(G, pf)
        and is_normal(G, popp)
        and series.is_p_soluble
        and series.p_length <= 1
    )
    report.add(
        "2:sylow-core-products-normal-p-soluble",
        PASS if ok2 else FAIL,
        {
            "PF_order": pf.order,
            "POpprime_order": popp.order,
            "p_length": series.p_length,
            "p_soluble": series.is_p_soluble,
        },
    )

    qf = quotient_group(G, Fit)
    report.add(
        "3:sylow-of-fitting-quotient-abelian",
        PASS if is_abelian(sylow(qf.group, p)) else FAIL,
        {"quotient_order": qf.group.order},
    )

    report.add(
        "4:sylow-abelian-iff-core-abelian",
        PASS if is_abelian(P) == is_abelian(Op) else FAIL,
        {"sylow_abelian": is_abelian(P), "core_abelian": is_abelian(Op)},
    )

    applicable = []
    for locus, sub in F.factors():
        PX = P.intersection(sub)
        if not PX.subset_of(C):
            applicable.append((locus, PX))
    if not applicable:
        report.add("5:sylow-part-centralises-hall", NOT_APPLICABLE,
                   "both Sylow intersections centralise the p-core")
    else:
        H = hall(G, set(pi_of(G)) - {p})
        if H is None:
            report.add(
                "5:sylow-part-centralises-hall",
                FAIL,
                "Hall p'-subgroup not found within budget despite guaranteed existence",
            )
        else:
            ok5 = True
            for locus, PX in applicable:
                pgens = PX.generating_set()
                for Hg in hall_conjugates(G, H):
                    hgens = Hg.generating_set()
                    if not all(a * b == b * a for a in pgens for b in hgens):
                        ok5 = False
            report.add(
                "5:sylow-part-centralises-hall",
                PASS if ok5 else FAIL,
                {"sides": [locus for locus, _ in applicable], "hall_order": H.order},
            )

    if is_abelian(factor_sylow(F.a, p)) or is_abelian(factor_sylow(F.b, p)):
        report.add("6:nonabelian-factor-sylows-force-decomposition", NOT_APPLICABLE,
                   "a factor has an abelian Sylow p-subgroup")
    else:
        report.add(
            "6:nonabelian-factor-sylows-force-decomposition",
            PASS if is_p_decomposable(G, p) else FAIL,
            None,
        )
    return report


@memo(owner="S")
def _product_with_normal(G: Group, S: Subgroup, N: Subgroup) -> Subgroup:
    """``S N`` for subgroups S and N of G with N normal; memoised on S, keyed
    by G and N.

    When G is an unmaterialised direct product, ``S N`` is the product of
    the blockwise ``S_i N_i`` (each ``N_i`` is normal in its block), so only
    the small blocks are closed and the result stays product-form.
    Otherwise S N is the closure of both generating sets on G's table
    (``G.closure_from_gen_ids``).  Either way the result's order is checked
    against ``|S| |N| / |S n N|``, the size of the set S N.
    """
    if (parts := _blockwise(G, _product_with_normal, S, N)) is not None:
        K = Subgroup.from_factors(G, parts)
    else:
        K = Subgroup.from_ids(G, G.closure_from_gen_ids(S.generating_ids() + N.generating_ids()))
    if K.order != S.product_order(N):
        raise InternalInvariantViolation("product with a normal subgroup is not its closure")
    return K


@_skipped_on_cap("B")
def report_theorem_b(F: Factorisation, p: int) -> TheoremReport:
    """Index-prime structure of a p-Baer factorisation.

    After extracting the unique index primes (q, r), checks that P
    centralises the {q,r}-complement of F(G), that ``P O_q(G) O_r(G)`` is
    normal, that q = r = p forces p-decomposability, and that p outside
    {q, r} forces P abelian.  An absent side prime is instantiated with the
    other side's prime (or p), which the established statements allow.
    """
    if not is_p_baer(F, p).is_p_baer:
        return TheoremReport.not_applicable("B", p, "not a p-Baer factorisation")
    G = F.group
    report = TheoremReport("B", p)
    up = unique_primes(F, p)
    present = [x for x in (up.q, up.r) if x is not None]
    q_eff = up.q if up.q is not None else (up.r if up.r is not None else p)
    r_eff = up.r if up.r is not None else (up.q if up.q is not None else p)
    report.add("unique-primes", PASS, {"q": up.q, "r": up.r})

    P = find_prefactorised_sylow(F, p)
    # F(G) is nilpotent, so its {q,r}-complement is the product of the cores
    # O_s(G), s in pi(F(G)) - {q, r}: each is the Sylow s-subgroup of F(G).
    cores = [o_p(G, s) for s in prime_divisors(fitting(G).order) if s not in (q_eff, r_eff)]
    CP = centraliser(G, P)
    report.add(
        "centralises-fitting-complement",
        PASS if all(b in CP for core in cores for b in core.generating_set()) else FAIL,
        {"complement_order": math.prod(core.order for core in cores)},
    )

    K = P
    for s in sorted({q_eff, r_eff}):
        K = _product_with_normal(G, K, o_p(G, s))
    report.add(
        "sylow-core-product-normal",
        PASS if is_normal(G, K) else FAIL,
        {"product_order": K.order},
    )

    if not present:
        report.add("1:q-equals-r-equals-p", NOT_APPLICABLE, "no noncentral p-element in either factor")
    elif all(x == p for x in present):
        report.add("1:q-equals-r-equals-p", PASS if is_p_decomposable(G, p) else FAIL, None)
    else:
        report.add("1:q-equals-r-equals-p", NOT_APPLICABLE, "an index prime differs from p")

    if p not in present:
        report.add("2:p-outside-forces-abelian", PASS if is_abelian(P) else FAIL, None)
    else:
        report.add("2:p-outside-forces-abelian", NOT_APPLICABLE, "p occurs as an index prime")
    return report


# -- consequences of a full Baer factorisation ---------------------------------------------


@_skipped_on_cap("C")
def report_corollary_c(F: Factorisation) -> TheoremReport:
    """Global structure of a Baer factorisation: abelian Fitting quotient,
    the A-group criterion, and the sigma-decomposition along the primes whose
    factor Sylow subgroups are both non-abelian."""
    if not is_baer(F).is_baer:
        return TheoremReport.not_applicable("C", None, "not a Baer factorisation")
    G = F.group
    report = TheoremReport("C")
    qf = quotient_group(G, fitting(G))
    report.add("1:fitting-quotient-abelian", PASS if is_abelian(qf.group) else FAIL,
               {"quotient_order": qf.group.order})

    all_sylow_abelian = all(is_abelian(sylow(G, p)) for p in pi_of(G))
    report.add(
        "2:a-group-iff-abelian-fitting",
        PASS if all_sylow_abelian == is_abelian(fitting(G)) else FAIL,
        {"all_sylow_abelian": all_sylow_abelian, "fitting_abelian": is_abelian(fitting(G))},
    )

    sigma = set()
    for p in pi_of(G):
        if not is_abelian(factor_sylow(F.a, p)) and not is_abelian(factor_sylow(F.b, p)):
            sigma.add(p)
    Os = o_pi(G, sigma)
    Osp = o_pi(G, set(pi_of(G)) - sigma)
    # O_sigma(G) is normal, so it is nilpotent iff it lies in F(G).
    ok3 = Os.order * Osp.order == G.order and Os.subset_of(fitting(G))
    report.add("3:sigma-decomposition", PASS if ok3 else FAIL,
               {"sigma": sorted(sigma), "order_sigma": Os.order})

    if sigma == set(pi_of(G)) and G.order > 1:
        report.add("4:all-nonabelian-forces-nilpotent", PASS if is_nilpotent(G) else FAIL, None)
    else:
        report.add("4:all-nonabelian-forces-nilpotent", NOT_APPLICABLE,
                   "some factor Sylow subgroup is abelian")
    return report


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
    for _first, x, idx, inner, n in _folded_kinds(S, prime_divisors(S.order), True):
        checked += n
        c = classify_prime_power(inner)
        baer_group = baer_group and c.is_prime_power
        ok = inner == 1 if idx == 1 else c.compatible_with(classify_prime_power(idx).prime)
        if not ok and bad is None:
            bad = {"element": format_cycles(_member(x)), "outer_index": idx, "inner_index": inner}
    return checked, bad, baer_group


@_skipped_on_cap("D")
def check_factor_inheritance(F: Factorisation) -> TheoremReport:
    """Baer factorisations push index primes down into the factors: a
    prime-power-order element whose G-index is a q-number also has q-number
    index inside its own factor, and both factors are Baer groups.  Each
    factor's part is memoised on it (:func:`_side_inheritance`)."""
    if not is_baer(F).is_baer:
        return TheoremReport.not_applicable("D", None, "not a Baer factorisation")
    report = TheoremReport("D")
    sides = [(locus, _side_inheritance(sub)) for locus, sub in F.factors()]
    bad = next(({"locus": locus, **side[1]} for locus, side in sides if side[1]), None)
    report.add("1:index-prime-inherited", FAIL if bad else PASS,
               bad or {"elements_checked": sum(side[0] for _locus, side in sides)})
    factors_baer = all(side[2] for _locus, side in sides)
    report.add("2:factors-are-baer-groups", PASS if factors_baer else FAIL, None)
    return report


@_skipped_on_cap("E")
def report_theorem_e(F: Factorisation, p: int) -> TheoremReport:
    """Centraliser index of a Sylow subgroup in a Baer factorisation: at most
    two primes divide ``|G : C_G(P)|`` (avoiding p when P is abelian), and the
    quotient by ``C_G(O_p(G))`` is p-decomposable with an abelian p-complement
    touched by at most two primes."""
    if not is_baer(F).is_baer:
        return TheoremReport.not_applicable("E", p, "not a Baer factorisation")
    G = F.group
    report = TheoremReport("E", p)
    P = sylow(G, p)
    idx = G.order // centraliser(G, P).order
    primes = set(prime_divisors(idx))
    if is_abelian(P):
        report.add("1:nonabelian-sylow-index", NOT_APPLICABLE, "Sylow p-subgroup is abelian")
        ok2 = p not in primes and len(primes) <= 2
        report.add("2:abelian-sylow-index", PASS if ok2 else FAIL,
                   {"index": idx, "primes": sorted(primes)})
    else:
        ok1 = len(primes - {p}) <= 1
        report.add("1:nonabelian-sylow-index", PASS if ok1 else FAIL,
                   {"index": idx, "primes": sorted(primes)})
        report.add("2:abelian-sylow-index", NOT_APPLICABLE, "Sylow p-subgroup is not abelian")

    C = centraliser(G, o_p(G, p))
    quotient = quotient_group(G, C)
    comp = o_p_prime(quotient.group, p)
    ok3 = (
        is_p_decomposable(quotient.group, p)
        and is_abelian(comp)
        and len(prime_divisors(comp.order)) <= 2
    )
    report.add("3:central-quotient-shape", PASS if ok3 else FAIL,
               {"quotient_order": quotient.group.order, "complement_order": comp.order})
    return report


# -- coprime direct decompositions ------------------------------------------------------


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def _partition_is_coprime_split(G: Group, blocks) -> bool:
    return math.prod(o_pi(G, set(b)).order for b in blocks) == G.order


@memo
def baer_decomposition(G: Group):
    """Finest coprime partition of the primes with ``G`` the direct product of
    the corresponding cores, for groups in which every prime-power-order
    element has prime-power index; None when the index condition fails.

    Each non-prime-power-order factor must touch exactly two primes and have
    abelian Sylow subgroups; a violation is an internal red alert.  The
    answer, None included, is memoised on G.
    """
    if not is_baer(Factorisation.trivial(G)).is_baer:
        return None
    primes = list(pi_of(G))
    best = None
    for part in _set_partitions(primes):
        if _partition_is_coprime_split(G, part):
            if best is None or len(part) > len(best):
                best = part
            elif len(part) == len(best) and part != best:
                raise InternalInvariantViolation("two distinct finest coprime partitions")
    if best is None:
        raise InternalInvariantViolation("no coprime partition despite the index condition")
    blocks = sorted([tuple(sorted(b)) for b in best])
    factors = [o_pi(G, set(b)) for b in blocks]
    for block, S in zip(blocks, factors):
        shape_ok = classify_prime_power(S.order).is_prime_power or (
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


@_skipped_on_cap("wielandt")
def check_wielandt(G: Group) -> TheoremReport:
    """A p-element whose index is a p-number lies in ``O_p(G)``; checked for
    every prime and every element.  Order and index are class functions and
    ``O_p(G)`` is normal, so the elements are walked a conjugacy class at a
    time; the least member of the first failing class is the least failing
    element."""
    report = TheoremReport("wielandt")
    G.materialize()
    orders = G.element_orders()
    classes = G.conjugacy_partition()
    for p in sorted(pi_of(G)):
        core = o_p(G, p).ids_in_store()
        bad = None
        checked = 0
        for cls in classes:
            if not is_p_number(orders[cls[0]], p) or not is_p_number(len(cls), p):
                continue
            checked += len(cls)
            if cls[0] not in core:
                bad = {"element": format_cycles(G.elements[cls[0]]), "index": len(cls)}
                break
        report.add(f"p={p}", FAIL if bad else PASS, bad or {"elements_checked": checked})
    return report


@_skipped_on_cap("camina-camina")
def check_camina_camina(G: Group) -> TheoremReport:
    """Every element of prime-power index lies in the second Fitting term.
    ``F_2(G)`` is normal, so the elements are walked a conjugacy class at a
    time, as in :func:`check_wielandt`."""
    report = TheoremReport("camina-camina")
    G.materialize()
    F2 = fitting2(G)
    members = F2.ids_in_store()
    bad = None
    checked = 0
    for cls in G.conjugacy_partition():
        if not classify_prime_power(len(cls)).is_prime_power:
            continue
        checked += len(cls)
        if cls[0] not in members:
            bad = {"element": format_cycles(G.elements[cls[0]]), "index": len(cls)}
            break
    report.add("prime-power-index-in-F2", FAIL if bad else PASS,
               bad or {"elements_checked": checked, "F2_order": F2.order})
    return report


@_skipped_on_cap("berkovich-kazarin")
def check_lemma_bk(G: Group) -> TheoremReport:
    """For noncentral p-elements x, y with prime-power indices of distinct
    primes and ``i(xy)`` a prime power: their normal closure lies in
    ``O_p(G)``, ``i(xy)`` is the maximum of the two and a p-power, and the
    Sylow p-subgroup is non-abelian.  Exhaustive pair scan on store ids:
    indices are class sizes read by id, and ``xy`` is ``col(y)[x]``."""
    report = TheoremReport("berkovich-kazarin")
    G.materialize()
    els = G.elements
    orders = G.element_orders()
    classes = G.conjugacy_partition()
    mul = G.cayley()

    def index(i: int) -> int:
        return len(classes[G.class_of_id(i)])

    for p in sorted(pi_of(G)):
        rows = []
        for i, o in enumerate(orders):
            if o == 1 or not is_p_number(o, p):
                continue
            idx = index(i)
            if idx == 1:
                continue
            c = classify_prime_power(idx)
            if c.is_prime_power:
                rows.append((i, idx, c.prime))
        pairs = 0
        bad = None
        for ai, (i, ix, px) in enumerate(rows):
            for j, iy, py in rows[ai + 1 :]:
                if px == py:
                    continue
                ixy = index(mul.col(j)[i])
                if not classify_prime_power(ixy).is_prime_power:
                    continue
                pairs += 1
                x, y = els[i], els[j]
                core = o_p(G, p)
                nc = normal_closure(G, [x, y])
                conclusion = (
                    nc.subset_of(core)
                    and ixy == max(ix, iy)
                    and is_p_number(ixy, p)
                    and not is_abelian(sylow(G, p))
                )
                if not conclusion and bad is None:
                    bad = {
                        "x": format_cycles(x), "y": format_cycles(y),
                        "ix": ix, "iy": iy, "ixy": ixy,
                    }
        report.add(f"p={p}", FAIL if bad else PASS, bad or {"qualifying_pairs": pairs})
    return report


# -- mixed-prime interplay ---------------------------------------------------------------


@_skipped_on_cap("pq-baer")
def check_pq_baer(F: Factorisation, p: int, q: int) -> TheoremReport:
    """When a factorisation is both p-Baer and q-Baer, with noncentral
    p-elements indexed by q on the A side and by r on the B side, the index
    prime s of the q-elements must lie in {p, r}; and if q = r then s = p and
    a normal Hall {p,q}-subgroup with abelian Sylow subgroups exists.  Such a
    subgroup contains every {p,q}-subgroup, so it exists iff ``O_{p,q}(G)``
    has the {p,q}-part of |G| as its order, and is then ``O_{p,q}(G)``."""
    if q == p:
        return TheoremReport.not_applicable("pq-baer", p, "q must differ from p")
    if not is_p_baer(F, p).is_p_baer or not is_p_baer(F, q).is_p_baer:
        return TheoremReport.not_applicable("pq-baer", p, "not a p- and q-Baer factorisation")
    up = unique_primes(F, p)
    if up.q != q or up.r is None:
        return TheoremReport.not_applicable(
            "pq-baer", p, "requires noncentral p-elements with q-indices in A and r-indices in B"
        )
    r = up.r
    uq = unique_primes(F, q)
    s_candidates = {x for x in (uq.q, uq.r) if x is not None}
    if not s_candidates:
        return TheoremReport.not_applicable("pq-baer", p, "all q-elements of the factors are central")
    if len(s_candidates) > 1:
        return TheoremReport.not_applicable(
            "pq-baer", p, "q-element indices are not powers of a single prime"
        )
    s = s_candidates.pop()
    report = TheoremReport("pq-baer", p)
    report.add("a:s-in-p-r", PASS if s in {p, r} else FAIL, {"s": s, "r": r, "q": q})
    if q == r:
        G = F.group
        H = o_pi(G, {p, q})
        ok = (
            s == p
            and H.order == pi_part(G.order, {p, q})
            and is_abelian(factor_sylow(H, p))
            and is_abelian(factor_sylow(H, q))
        )
        report.add("b:normal-hall-pq", PASS if ok else FAIL, {"s": s, "hall_order": H.order})
    else:
        report.add("b:normal-hall-pq", NOT_APPLICABLE, "q differs from r")
    return report


@_skipped_on_cap("p-index-decomposition")
def check_p_index_decomposition(F: Factorisation, p: int, scope: str = "p-elements") -> TheoremReport:
    """Biconditionals tying index conditions on the factors to decomposability.

    Scope "p-elements": every p-element of A u B has p-number index iff G is
    p-decomposable.  Scope "all prime power": every prime-power-order element
    of A u B has p-number index iff ``G = O_p x O_{p'}`` with ``O_{p'}``
    abelian; on Baer factorisations additionally the quotient by
    ``C_G(O_p(G))`` is p-decomposable with abelian p-complement.
    """
    G = F.group
    report = TheoremReport("p-index-decomposition", p)
    if scope == "p-elements":
        lhs = all(is_p_number(idx, p) for _l, sub in F.factors() for idx in _side_profile(sub, p))
        rhs = is_p_decomposable(G, p)
        report.add("biconditional-p-elements", PASS if lhs == rhs else FAIL,
                   {"all_indices_p_numbers": lhs, "p_decomposable": rhs})
    elif scope == "all prime power":
        lhs = all(is_p_number(idx, p) for _l, sub in F.factors() for idx in _side_profile(sub))
        rhs = is_p_decomposable(G, p) and is_abelian(o_p_prime(G, p))
        report.add("biconditional-prime-power", PASS if lhs == rhs else FAIL,
                   {"all_indices_p_numbers": lhs, "decomposed_with_abelian_complement": rhs})
        if is_baer(F).is_baer:
            quotient = quotient_group(G, centraliser(G, o_p(G, p)))
            ok = is_p_decomposable(quotient.group, p) and is_abelian(o_p_prime(quotient.group, p))
            report.add("baer-central-quotient", PASS if ok else FAIL,
                       {"quotient_order": quotient.group.order})
        else:
            report.add("baer-central-quotient", NOT_APPLICABLE, "not a Baer factorisation")
    else:
        raise ValueError(f"unknown scope {scope!r}")
    return report
