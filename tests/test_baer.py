import gc
import hashlib
import json
import weakref
from collections import Counter

import pytest

from baerlab import baer, group as group_module, structure
from baerlab.baer import check_theorem_f_equivalence, report_theorem_a
from baerlab.constructions import (
    cyclic,
    dihedral,
    direct_product,
    frobenius,
    parse_group_spec,
    semilinear,
    subgroup_from_words,
    symmetric,
)
from baerlab.errors import (
    CAYLEY_CELL_BUDGET,
    ENUMERATION_CAP,
    CapExceeded,
    InternalInvariantViolation,
)
from baerlab.group import Group, Subgroup, centraliser, memo
from baerlab.numth import is_p_number, is_prime_power, p_part, prime_divisors
from baerlab.perm import Permutation, format_cycles, parse_cycles
from baerlab.reporting import FAIL, NOT_APPLICABLE, PASS, SKIPPED, ClauseResult, TheoremReport
from baerlab.structure import (
    Factorisation,
    enumerate_subgroups,
    factor_sylow,
    find_prefactorised_sylow,
    hall,
    hall_conjugates,
    is_abelian,
    is_normal,
    o_p,
    pi_of,
    sylow,
    sylow_conjugates,
    sylow_meets,
    upper_p_series,
)
from test_structure import SWEEP_SPECS


@pytest.mark.parametrize("p", [3, 5])
def test_theorem_a_on_semilinear_2_4_trivial_factorisation(p):
    # The upper p-series starts from G/1, which must cost no degree-960
    # regular representation; at p = 5 clause 2 needs a normal O_p'(G).
    report = report_theorem_a(Factorisation.trivial(semilinear(2, 4)), p)
    assert all(c.verdict != FAIL for c in report.clauses)


def block_halves_factorisation(left, right) -> Factorisation:
    """``G = A x B`` on the unmaterialised product of ``left + right``, with A
    the product of the ``left`` blocks and B of the ``right`` ones."""
    G = direct_product(left + right)
    blocks = G.direct_factors
    k = len(left)
    A = Subgroup.from_factors(G, [Subgroup.full(f) for f in blocks[:k]]
                              + [Subgroup.trivial(f) for f in blocks[k:]])
    B = Subgroup.from_factors(G, [Subgroup.trivial(f) for f in blocks[:k]]
                              + [Subgroup.full(f) for f in blocks[k:]])
    return Factorisation(G, A, B)


def test_theorem_a_on_unmaterialised_product_factorisation():
    # G = A x B of order 30,240: the products P F(G) and P O_p'(G) of
    # clause 2 must be built block by block, never by closing G-sized sets.
    F = block_halves_factorisation([symmetric(4), dihedral(10)], [frobenius(7, 3), symmetric(3)])
    G = F.group
    assert G.order == 30_240
    for p in sorted(pi_of(G)):
        report = report_theorem_a(F, p)
        assert all(c.verdict != FAIL for c in report.clauses)
    assert not G.is_materialized


def test_theorem_a_on_a_product_past_the_enumeration_cap_is_decided():
    # The trivial factorisation of product(symmetric(7),symmetric(7)), of
    # order 25,401,600, past the enumeration cap: the union route folds the
    # blocks' kinds of 2-elements instead of listing A u B = G, finds a
    # transposition of index 21, and G's store is never built.
    G = direct_product([symmetric(7), symmetric(7)])
    assert G.order > ENUMERATION_CAP
    F = Factorisation.trivial(G)
    assert not baer.is_p_baer(F, 2).is_p_baer
    report = report_theorem_a(F, 2)
    assert (report.theorem, report.prime) == ("A", 2)
    assert [c.verdict for c in report.clauses] == [NOT_APPLICABLE]
    assert not G.is_materialized


def test_theorem_f_on_a_product_past_the_enumeration_cap_passes():
    G = direct_product([symmetric(7), symmetric(7)])
    assert G.order > ENUMERATION_CAP
    report = check_theorem_f_equivalence(Factorisation.trivial(G))
    assert report.theorem == "F" and report.prime is None
    assert [(c.clause, c.verdict) for c in report.clauses] == [("equivalence", PASS)]
    assert report.clauses[0].witness["definition_predicate"] is False
    assert not G.is_materialized


def test_cap_witness_and_invariant_violations(monkeypatch):
    F = Factorisation.trivial(symmetric(3))

    def capped(*_args):
        raise CapExceeded("walk too long", cap=7, partial=3)

    monkeypatch.setattr(baer, "is_p_baer", capped)
    # The prime is read whether it is passed by position or by keyword.
    for report in (baer.report_theorem_b(F, p=3), baer.report_theorem_b(F, 3),
                   report_theorem_a(F, p=3), baer.check_pq_baer(F, 3, q=2)):
        assert report.prime == 3
        [clause] = report.clauses
        assert clause.verdict == SKIPPED
        assert clause.witness == {"message": "walk too long", "cap": 7, "partial": 3}

    def broken(*_args):
        raise InternalInvariantViolation("engine bug")

    monkeypatch.setattr(baer, "is_p_baer", broken)
    with pytest.raises(InternalInvariantViolation):
        report_theorem_a(F, 3)


def test_an_unknown_scope_raises_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(baer, "_index_primes", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="unknown scope 'p-groups'"):
        baer.check_p_index_decomposition(Factorisation.trivial(symmetric(3)), 2, "p-groups")
    assert calls == []


def test_theorem_f_keeps_a_small_product_lazy():
    # Order 60 is under Theorem F's bound for the choice-independence
    # clause; the blockwise centraliser decides it without building G's store.
    F = block_halves_factorisation([symmetric(3)], [dihedral(10)])
    report = check_theorem_f_equivalence(F)
    assert [(c.clause, c.verdict) for c in report.clauses] == [
        ("equivalence", "pass"), ("choice-independence", "pass")
    ]
    assert not F.group.is_materialized


@pytest.mark.parametrize("left, right", [
    ("symmetric(4)", "frobenius(5,4)"), ("symmetric(3)", "dihedral(10)"),
    ("dihedral(8)", "symmetric(3)"),
])
def test_theorem_f_choice_independence_keeps_products_lazy(left, right):
    # Orders 480, 60 and 48 are within Theorem F's bound, so the clause lists
    # every Sylow subgroup of each side and takes its centraliser; both come
    # block by block, on G = A x B and on G = G G alike.
    halves = block_halves_factorisation([parse_group_spec(left)], [parse_group_spec(right)])
    for F in (halves, Factorisation.trivial(halves.group)):
        report = check_theorem_f_equivalence(F)
        assert [(c.clause, c.verdict) for c in report.clauses] == [
            ("equivalence", "pass"), ("choice-independence", "pass")
        ]
    assert not halves.group.is_materialized


def test_every_check_keeps_a_small_trivial_product_lazy():
    # On the trivial factorisation G = G G, Theorem F's choice-independence
    # clause walks the Sylow conjugates of G itself; they come block by
    # block, so no check builds G's store, and they are the conjugates a
    # materialised copy finds.
    G = direct_product([symmetric(3), dihedral(10)])
    factorisation_rows(Factorisation.trivial(G))
    assert not G.is_materialized
    whole = direct_product([symmetric(3), dihedral(10)])
    whole.materialize()
    for p in pi_of(G):
        lazy_sets = {frozenset(Q.members()) for Q in sylow_conjugates(G, p)}
        assert lazy_sets == {frozenset(Q.members()) for Q in sylow_conjugates(whole, p)}
    assert not G.is_materialized


def test_theorem_a_hall_clause_keeps_a_lazy_product_lazy():
    # Clause 5 applies at p = 2 and walks the conjugates of a Hall
    # 2'-subgroup; they come block by block, so G's store is never built,
    # and they are the conjugates a materialised copy finds.
    F = block_halves_factorisation([dihedral(8)], [cyclic(3)])
    G = F.group
    report = report_theorem_a(F, 2)
    assert ("5:sylow-part-centralises-hall", PASS) in [(c.clause, c.verdict) for c in report.clauses]
    assert not G.is_materialized
    whole = direct_product([dihedral(8), cyclic(3)])
    whole.materialize()
    lazy_sets = {frozenset(Q.members()) for Q in hall_conjugates(G, hall(G, {3}))}
    assert lazy_sets == {frozenset(Q.members()) for Q in hall_conjugates(whole, hall(whole, {3}))}
    assert not G.is_materialized


def test_lazy_product_profiles_and_normality_order_and_conjugate_only_block_permutations(
    monkeypatch,
):
    # Work-count guard: on G = A x B, element orders, class sizes and
    # normality come from the blocks, so no permutation of G's own degree is
    # ever ordered or conjugated.
    F = block_halves_factorisation([symmetric(4), dihedral(10)], [frobenius(7, 3), symmetric(3)])
    G = F.group
    calls = {"order": 0, "conjugate": 0}

    def counted(name):
        method = getattr(Permutation, name)

        def run(self, *args):
            if self.degree == G.degree:
                calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(Permutation, name, run)

    counted("order")
    counted("conjugate")
    for p in sorted(pi_of(G)):
        for via in ("union", "sylow"):
            baer.is_p_baer(F, p, via)
        for S in (F.a, F.b, sylow(G, p), o_p(G, p)):
            is_normal(G, S)
    assert calls == {"order": 0, "conjugate": 0}
    assert not G.is_materialized


def test_lazy_product_checks_split_no_permutation_and_join_only_witness_members(monkeypatch):
    # Work-count guard: product-form subgroups answer block by block (trivial
    # subgroups, subset tests, subgroup centralisers), so no check on G = A x B
    # splits a permutation of G into blocks, and the only ones joined from
    # blocks are the witness members of baer._member, which imports
    # join_blocks by name.  Group.split is the one splitter.
    F = block_halves_factorisation([symmetric(4), dihedral(10)], [frobenius(7, 3), symmetric(3)])
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args: calls.update([(owner.__name__, name)]) or fn(*args))

    counted(Group, "split")
    counted(group_module, "join_blocks")
    counted(baer, "join_blocks")
    factorisation_rows(F)
    assert set(calls) == {("baerlab.baer", "join_blocks")}
    assert not F.group.is_materialized


def test_theorem_f_fails_when_centralisers_are_wrong(monkeypatch):
    # Negative control: a centraliser that always answers G makes every
    # Sylow centraliser index 1, while symmetric(4) is no Baer group (a
    # transposition has index 6), so the equivalence must fail.
    monkeypatch.setattr(baer, "centraliser", lambda G, S: Subgroup.full(G))
    report = check_theorem_f_equivalence(Factorisation.trivial(symmetric(4)))
    assert report.clauses[0].clause == "equivalence"
    assert report.clauses[0].verdict == FAIL


def test_wielandt_fails_when_the_p_core_is_wrong(monkeypatch):
    # Negative control: with O_p(G) answered as 1, the reflections of D8, of
    # order and index 2, lie outside it; the least of the first class is the
    # witness.
    monkeypatch.setattr(baer, "o_p", lambda G, p: Subgroup.trivial(G))
    [clause] = baer.check_wielandt(dihedral(8)).clauses
    assert (clause.clause, clause.verdict) == ("p=2", FAIL)
    assert clause.witness == {"element": "(1 3)", "index": 2}


def test_camina_camina_fails_when_the_second_fitting_term_is_wrong(monkeypatch):
    # Negative control: with F2(S3) answered as 1, the transpositions, of
    # index 3, lie outside it.
    monkeypatch.setattr(baer, "fitting2", lambda G: Subgroup.trivial(G))
    [clause] = baer.check_camina_camina(symmetric(3)).clauses
    assert (clause.clause, clause.verdict) == ("prime-power-index-in-F2", FAIL)
    assert clause.witness == {"element": "(1 2)", "index": 3}


def test_a_hall_pair_past_the_lattice_gate_skips_theorem_a():
    # At p = 2 clause 5 reads a Hall {3,7}-subgroup of the materialised group
    # of order 168 from its lattice.  With a C9 factor the group has order
    # 1,512, past the lattice's order gate, so the report is skipped, not failed.
    spec = "subgroup(product(dihedral(8),frobenius(7,3)); g0, g1, g2, g3)"
    report = report_theorem_a(Factorisation.trivial(parse_group_spec(spec)), 2)
    witness = {"sides": ["A", "B"], "hall_order": 21}
    assert report_rows(report)[4] == ("A", 2, "5:sylow-part-centralises-hall", PASS, repr(witness))
    spec = "subgroup(product(dihedral(8),frobenius(7,3),cyclic(9)); g0, g1, g2, g3, g4)"
    F = Factorisation.trivial(parse_group_spec(spec))
    assert F.group.order == 1512 and baer.is_p_baer(F, 2).is_p_baer
    report = report_theorem_a(F, 2)
    [clause] = report.clauses
    assert (clause.clause, clause.verdict, report.overall) == ("cap", SKIPPED, SKIPPED)
    assert (clause.witness["cap"], clause.witness["partial"]) == (1296, None)


def conclusions(check, *args) -> dict:
    """``{clause: verdict}`` of a check's conclusions, run whatever its hypotheses."""
    report = TheoremReport(check.__name__)
    check.__wrapped__(report, *args)
    return {c.clause: c.verdict for c in report.clauses}


def test_conclusions_outside_their_hypotheses_say_no_on_real_groups():
    # Negative controls: off their hypotheses these conclusions are false, and
    # the checks must say so; a conclusion that passed everywhere would show
    # nothing about the engine.
    # symmetric(4) is not 2-Baer (a transposition has index 6), and
    # semilinear(2,3) is 2-Baer but not Baer (an element of order 3 has
    # index 28).
    S4 = Factorisation.trivial(symmetric(4))
    for check, reason in ((report_theorem_a, "not a p-Baer factorisation"),
                          (baer.report_theorem_b, "not a p-Baer factorisation"),
                          (baer.report_theorem_e, "not a Baer factorisation")):
        assert [(c.clause, c.verdict, c.witness) for c in check(S4, 2).clauses] == [
            ("hypotheses", NOT_APPLICABLE, reason)
        ]
    assert conclusions(report_theorem_a, S4, 2) == {
        "1:central-quotient-p-decomposable": FAIL,
        "2:sylow-core-products-normal-p-soluble": FAIL,
        "3:sylow-of-fitting-quotient-abelian": PASS,
        "4:sylow-abelian-iff-core-abelian": FAIL,
        "5:sylow-part-centralises-hall": FAIL,
        "6:nonabelian-factor-sylows-force-decomposition": FAIL,
    }
    # A transposition's index 6 has two prime divisors, so B ends at its first clause.
    assert conclusions(baer.report_theorem_b, S4, 2) == {"unique-primes": FAIL}
    assert conclusions(baer.report_theorem_e, S4, 2)["3:central-quotient-shape"] == FAIL
    # S4 is neither 2- nor 3-Baer.  At p = 2 the q-index prime s = 2 is p, so
    # "a" holds, and B's p-index primes {2, 3} are not {q}, so "b" does not
    # apply; at p = 3, q = 2 they are {2} and the q-index primes {2, 3} are not {p}.
    assert [(c.clause, c.verdict) for c in baer.check_pq_baer(S4, 2, 3).clauses] == [
        ("hypotheses", NOT_APPLICABLE)
    ]
    assert conclusions(baer.check_pq_baer, S4, 2, 3) == {
        "a:s-in-p-r": PASS, "b:normal-hall-pq": NOT_APPLICABLE
    }
    assert conclusions(baer.check_pq_baer, S4, 3, 2) == {"a:s-in-p-r": PASS, "b:normal-hall-pq": FAIL}
    assert conclusions(baer.report_corollary_c, S4)["1:fitting-quotient-abelian"] == FAIL
    assert set(conclusions(baer.check_factor_inheritance, S4).values()) == {FAIL}

    SL = Factorisation.trivial(semilinear(2, 3))
    assert baer.is_p_baer(SL, 2).is_p_baer and not baer.is_baer(SL).is_baer
    assert [c.clause for c in baer.report_theorem_e(SL, 2).clauses] == ["hypotheses"]
    assert conclusions(baer.report_theorem_b, SL, 3) == {"unique-primes": FAIL}  # index 28
    assert conclusions(baer.report_theorem_e, SL, 2)["3:central-quotient-shape"] == FAIL
    assert conclusions(baer.report_corollary_c, SL)["1:fitting-quotient-abelian"] == FAIL
    assert set(conclusions(baer.check_factor_inheritance, SL).values()) == {FAIL}


def test_theorem_d_lets_a_central_member_of_non_prime_power_index_through():
    # S4 = <(0 1)> A4 is not Baer: the transposition has index 6 in S4.  Its
    # index in A is 1, which passes whatever the index in G, so off the
    # hypothesis Theorem D's first clause still holds: a member whose index in
    # G is no prime power passes exactly when it is central in its factor.
    G = symmetric(4)
    A = Subgroup.from_generators(G, [parse_cycles("(0 1)", 4)])
    B = Subgroup.from_generators(G, [parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)])
    F = Factorisation(G, A, B)
    assert (A.order, B.order, A.product_order(B)) == (2, 12, 24)
    assert not baer.is_baer(F).is_baer
    report = TheoremReport("D")
    baer.check_factor_inheritance.__wrapped__(report, F)
    assert [(c.clause, c.verdict, c.witness) for c in report.clauses] == [
        ("1:index-prime-inherited", PASS, {"elements_checked": 12}),
        ("2:factors-are-baer-groups", PASS, None),
    ]


@pytest.mark.parametrize("materialised", [False, True], ids=["lazy", "materialised"])
def test_theorem_e_meets_its_two_prime_bounds_on_a_live_baer_factorisation(materialised):
    """Clauses 2 and 3 of Theorem E at their bound of two primes.

    Clause 3 sees two primes only where G = G·G is not p-Baer.  Let
    C = C_G(O_p(G)) and N/C = O_p'(G/C), which the clause asserts is abelian.
    An x in O_p(G) of prime-power index |G : C_G(x)| has |N : C_N(x)| a power
    of one prime q, so C_N(x)/C holds the q'-part of N/C.  If N/C had two
    primes and every x in O_p(G) qualified, O_p(G) would be the union of its
    subgroups centralised by N/C's two prime parts.  No group is the union of
    two proper subgroups, so one part would centralise O_p(G) and lie in C.
    So the witness is a Baer F = AB whose G is not 7-Baer.
    """
    G = parse_group_spec("product(frobenius(7,3),dihedral(14))")
    if materialised:
        G.materialize()
    F = Factorisation(G, subgroup_from_words(G, ["g0", "g1", "g3"]),
                      subgroup_from_words(G, ["g1", "g2", "g3"]))
    assert (G.order, F.a.order, F.b.order) == (294, 42, 42)
    assert baer.is_baer(F).is_baer
    assert not baer.is_p_baer(Factorisation.trivial(G), 7).is_p_baer
    rows = {c.clause: (c.verdict, c.witness) for c in baer.report_theorem_e(F, 7).clauses}
    assert rows["2:abelian-sylow-index"] == (PASS, {"index": 6, "primes": [2, 3]})
    # Two primes divide the complement, so a one-prime bound would fail here.
    assert rows["3:central-quotient-shape"] == (
        PASS, {"quotient_order": 6, "complement_order": 6}
    )
    assert G.is_materialized == materialised


# -- the whole paper layer on every factorisation of small groups ---------------------

PAPER_LAYER_SPECS = (
    "symmetric(3)", "dihedral(8)", "frobenius(5,4)", "product(symmetric(3),cyclic(2))"
)


def factorisation_pairs(G) -> list:
    """Index pairs ``i <= j`` into ``enumerate_subgroups(G)`` with ``G = S_i S_j``."""
    subs = enumerate_subgroups(G)
    return [
        (i, j)
        for i, A in enumerate(subs)
        for j, B in enumerate(subs[i:], i)
        if A.order * B.order == G.order * A.intersection(B).order
    ]


def report_rows(report) -> list:
    """The clauses of a report as rows, after asserting none failed or was skipped."""
    rows = [(report.theorem, report.prime, c.clause, c.verdict, repr(c.witness))
            for c in report.clauses]
    assert not [row for row in rows if row[3] in (FAIL, SKIPPED)]
    return rows


def factorisation_rows(F, reports=None) -> list:
    """Every factorisation check of ``baer`` on F, as comparable verdict rows.

    Each report is also appended to ``reports`` when it is given.
    """
    rows = []

    def record(name, result):
        if isinstance(result, TheoremReport):
            if reports is not None:
                reports.append(result)
            rows.extend(report_rows(result))
        else:
            rows.append((name, repr(result)))

    primes = sorted(pi_of(F.group))
    for p in primes:
        union = baer.is_p_baer(F, p, "union")
        via_sylow = baer.is_p_baer(F, p, "sylow")
        assert union.is_p_baer == via_sylow.is_p_baer
        record(f"p-baer[{p}]", (union.is_p_baer, union.witnesses))
        if union.is_p_baer:
            record(f"unique-primes[{p}]", baer.unique_primes(F, p))
        record("A", baer.report_theorem_a(F, p))
        record("B", baer.report_theorem_b(F, p))
        record("E", baer.report_theorem_e(F, p))
        for scope in ("p-elements", "all prime power"):
            record(scope, baer.check_p_index_decomposition(F, p, scope))
        for q in primes:
            record(f"pq[{q}]", baer.check_pq_baer(F, p, q))
    status = baer.is_baer(F)
    record("baer", (status.is_baer, status.per_prime, status.witnesses))
    record("F", baer.check_theorem_f_equivalence(F))
    record("C", baer.report_corollary_c(F))
    record("D", baer.check_factor_inheritance(F))
    return rows


def group_rows(G, reports=None) -> list:
    """Every group check of ``baer`` on G, as comparable verdict rows; each
    report is also appended to ``reports`` when it is given."""
    decomposition = baer.baer_decomposition(G)
    rows = [("decomposition", None if decomposition is None else decomposition.prime_partition)]
    for check in (baer.check_wielandt, baer.check_camina_camina, baer.check_lemma_bk):
        report = check(G)
        if reports is not None:
            reports.append(report)
        rows.extend(report_rows(report))
    return rows


def test_reports_and_index_witnesses_survive_json():
    G = parse_group_spec("dihedral(12)")
    subs = enumerate_subgroups(G)
    reports, witnesses = [], []
    for i, j in factorisation_pairs(G):
        F = Factorisation(G, subs[i], subs[j])
        factorisation_rows(F, reports)
        for p in pi_of(G):
            for via in ("union", "sylow"):
                witnesses += baer.is_p_baer(F, p, via).witnesses
    group_rows(G, reports)
    assert reports and witnesses
    for report in reports:
        back = json.loads(json.dumps(report.to_json_dict()))
        assert (back["theorem"], back["prime"], back["overall"]) == (
            report.theorem, report.prime, report.overall
        )
        assert [(c["clause"], c["verdict"]) for c in back["clauses"]] == [
            (c.clause, c.verdict) for c in report.clauses
        ]
    for w in witnesses:
        back = json.loads(json.dumps(w.to_json_dict()))
        assert parse_cycles(back["element"], G.degree) == w.element
        assert (back["locus"], back["index"], back["prime_power"]) == (
            w.locus, w.index, w.prime_power
        )


@pytest.mark.parametrize("spec", PAPER_LAYER_SPECS)
def test_every_check_on_every_factorisation(spec):
    # Shared: every factorisation of one G, so memos on G and on its
    # canonical subgroups carry over from one factorisation to the next.
    G = parse_group_spec(spec)
    subs = enumerate_subgroups(G)
    pairs = factorisation_pairs(G)
    shared = [factorisation_rows(Factorisation(G, subs[i], subs[j])) for i, j in pairs]
    shared_group = group_rows(G)

    # Fresh: each factorisation on its own copy of G, so nothing is reused.
    for (i, j), rows in zip(pairs, shared):
        H = parse_group_spec(spec)
        fresh = enumerate_subgroups(H)
        assert factorisation_rows(Factorisation(H, fresh[i], fresh[j])) == rows
    assert group_rows(parse_group_spec(spec)) == shared_group


def test_theorem_a_clause_6_floor_on_every_factorisation_of_d8_x_f21():
    # Clause 6 needs non-abelian Sylow subgroups in both factors, which few
    # small factorisations have; over the 677 factorisations of this group
    # it is decided 17 times, and never fails.
    G = parse_group_spec("product(dihedral(8),frobenius(7,3))")
    subs = enumerate_subgroups(G)
    pairs = factorisation_pairs(G)
    assert len(pairs) == 677
    decided = 0
    for i, j in pairs:
        F = Factorisation(G, subs[i], subs[j])
        for p in sorted(pi_of(G)):
            for row in report_rows(report_theorem_a(F, p)):
                decided += row[2].startswith("6:") and row[3] == PASS
    assert decided >= 17


def test_theorem_a_clause_5_on_a_nontrivial_hall_subgroup(monkeypatch):
    # Clause 5 needs a Sylow intersection that does not centralise O_p(G);
    # on this group of order 168 the Hall 2'-subgroup it commutes with has
    # order 21, so hall reads it from the lattice and the commutation test
    # runs.  The factorisations are the sweep's: the trivial one and every
    # pair of proper subgroups with |A||B| = |G||A n B|.
    G = parse_group_spec("subgroup(product(dihedral(8),frobenius(7,3)); g0, g1, g2, g3)")
    assert G.order == 168
    trivial = Factorisation.trivial(G)
    subs = enumerate_subgroups(G)
    facts = [trivial] + [
        Factorisation(G, A, B)
        for i, A in enumerate(subs) if A.order < G.order
        for B in subs[i:]
        if B.order < G.order and A.order * B.order == G.order * A.intersection(B).order
    ]
    assert len(facts) == 578
    # Work-count guard: the reports walk each subgroup's conjugates once, as
    # hall_conjugates is memoised on G per H.  Rebuilt per (F, p), the Hall
    # 2'-subgroup's were walked 579 times, 583 walks in all; now 5.
    walks = Counter()
    conjugates = Group.conjugates

    def counted(self, ids, gen_ids):
        walks[self, frozenset(ids)] += 1
        return conjugates(self, ids, gen_ids)

    monkeypatch.setattr(Group, "conjugates", counted)
    clause = [c for c in report_theorem_a(trivial, 2).clauses if c.clause.startswith("5:")]
    assert [(c.clause, c.verdict, c.witness["hall_order"]) for c in clause] == [
        ("5:sylow-part-centralises-hall", PASS, 21)
    ]
    decided = 0
    for F in facts:
        for p in sorted(pi_of(G)):
            for row in report_rows(report_theorem_a(F, p)):
                decided += row[2].startswith("5:") and row[3] in (PASS, FAIL)
    assert decided == 578
    assert list(walks.values()) == [1] * 5


def subgroup_key(S):
    """S's members as a value that does not keep S alive: store ids once its
    parent is materialised, else the keys of its block factors."""
    if S.parent.is_materialized:
        return ("ids", S.ids_in_store())
    return ("factors", tuple(subgroup_key(s) for s in S.factors))


def counted_kinds(monkeypatch, record):
    """Replace ``baer._kinds`` by a memoised copy that calls ``record(S, p,
    inner)`` once per build, not per memo hit."""
    kinds = baer._kinds.__wrapped__

    def built(S, p, inner):
        record(S, p, inner)
        return kinds(S, p, inner)

    monkeypatch.setattr(baer, "_kinds", memo(built))


def test_side_facts_are_built_once_per_subgroup(monkeypatch):
    # Work-count guard: every check on every factorisation of dihedral(12)
    # builds the kinds of each subgroup it profiles once per prime and
    # class-size flag, and closes each product S N once, however many
    # factorisations share S and N.
    G = dihedral(12)
    subs = enumerate_subgroups(G)
    profiled, products, closures = [], [], []
    product_with_normal = structure.product_with_normal
    closure = Group.closure_from_gen_ids

    def product(H, S, N):
        products.append((H, S, subgroup_key(N)))
        closures.append(0)
        try:
            return product_with_normal(H, S, N)
        finally:
            products[-1] += (closures.pop(),)

    def close(self, gen_ids, prefix=None):
        if closures:
            closures[-1] += 1
        return closure(self, gen_ids, prefix)

    counted_kinds(monkeypatch, lambda S, p, inner: profiled.append((S, p, inner)))
    monkeypatch.setattr(baer, "product_with_normal", product)
    monkeypatch.setattr(Group, "closure_from_gen_ids", close)
    pairs = factorisation_pairs(G)
    for i, j in pairs:
        factorisation_rows(Factorisation(G, subs[i], subs[j]))
    group_rows(G)
    assert len(profiled) == len(set(profiled))
    assert len({S for S, _p, _inner in profiled}) < 2 * len(pairs)
    distinct = {call[:3] for call in products}
    assert sum(call[3] for call in products) == len(distinct) < len(products)


# -- facts about the factors, read in G's id space -------------------------------------


def test_factor_facts_past_the_gate_keep_their_answers():
    # An all-rows table of cyclic(2500) would pass the cell budget; the
    # factors' facts are read on columns of G's table, and Theorems F and D
    # stay decided.
    G = cyclic(2500)
    assert G.order**2 > CAYLEY_CELL_BUDGET
    g = G.generators[0]
    A = Subgroup.from_generators(G, [g ** 625])
    B = Subgroup.from_generators(G, [g ** 4])
    F = Factorisation(G, A, B)
    assert [(c.clause, c.verdict) for c in check_theorem_f_equivalence(F).clauses] == [
        ("equivalence", PASS)
    ]
    for factorisation in (F, Factorisation.trivial(G)):
        report = baer.check_factor_inheritance(factorisation)
        assert [(c.clause, c.verdict) for c in report.clauses] == [
            ("1:index-prime-inherited", PASS), ("2:factors-are-baer-groups", PASS)
        ]


# The direct-products corpus of the benchmark: G = A x B with A and B whole
# blocks of a product that is never materialised.
PRODUCT_CASES = (
    ([symmetric(4), dihedral(10)], [frobenius(7, 3), symmetric(3)]),
    ([cyclic(3), frobenius(7, 2), frobenius(11, 5)], [cyclic(5)]),
    ([frobenius(11, 5), symmetric(3)], [frobenius(7, 3), dihedral(10)]),
    ([symmetric(4)], [frobenius(13, 3), dihedral(8)]),
)


def test_block_index_rows_are_built_once_per_block_subgroup(monkeypatch):
    # Work-count guard: the kinds of a block subgroup are memoised on it, so
    # every check on the direct-products corpus builds the kinds of each of
    # its 53 distinct block subgroups once per prime and class-size flag.  A
    # product-form subgroup is the fold of its blocks' kinds, so no subgroup
    # of a corpus group is read id by id.
    cases = [block_halves_factorisation(left, right) for left, right in PRODUCT_CASES]
    groups = {F.group for F in cases}
    blocks = {f for G in groups for f in G.direct_factors}
    calls, group_calls = [], []

    def record(S, p, inner):
        if S.factors is not None:
            return
        if S.parent in blocks:
            calls.append((S.parent, subgroup_key(S), p, inner))
        elif S.parent in groups:
            group_calls.append((S.parent, subgroup_key(S)))

    counted_kinds(monkeypatch, record)
    for F in cases:
        factorisation_rows(F)
        assert not F.group.is_materialized
    assert len(calls) == len(set(calls))
    assert len({call[:2] for call in calls}) == 53
    assert group_calls == []


@pytest.fixture
def built_groups(monkeypatch):
    """The names of the Groups built since the fixture was set up."""
    built = []
    init = Group.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Group, "__init__", counted_init)
    return built


def test_factor_facts_build_no_group_and_no_view(built_groups):
    # Work-count guard: every check on the 199 factorisations the benchmark
    # sweeps of semilinear(2,3) reads the factors' Sylow subgroups and class
    # sizes in G's id space, so no subgroup becomes a Group of its own, and
    # reads every fact about a factor group G/M as a relative core in G, so no
    # quotient becomes one either.
    G = semilinear(2, 3)
    subs = enumerate_subgroups(G)
    pairs = [(i, j) for i, j in factorisation_pairs(G)
             if subs[i].order < G.order and subs[j].order < G.order]
    factorisations = [Factorisation.trivial(G)] + [Factorisation(G, subs[i], subs[j]) for i, j in pairs]
    assert len(factorisations) == 199
    built_groups.clear()
    for F in factorisations:
        factorisation_rows(F)
    group_rows(G)
    assert built_groups == []


def test_trivial_battery_past_the_quotient_wall_builds_no_group(built_groups):
    # Work-count guard: the upper 2-series of S7 x C2 (order 10,080, no direct
    # product) steps over the centre C2 and then reads O_2'(G/C2) and
    # O_2(G/C2) of a factor group of order 5,040, in G as relative cores.
    G = parse_group_spec("subgroup(product(symmetric(7),cyclic(2)); g0, g1, g2)")
    G.materialize()
    built_groups.clear()
    factorisation_rows(Factorisation.trivial(G))
    group_rows(G)
    assert built_groups == []
    assert [t.order for t in upper_p_series(G, 2).terms] == [1, 2]


def output_lines(F) -> list:
    """The full output of every factorisation check of ``baer`` on F, as JSON lines:
    reports, statuses with their witnesses, and unique index primes."""
    def status(st):
        return {"holds": st.holds(), "per_prime": st.per_prime,
                "witnesses": [w.to_json_dict() for w in st.witnesses]}

    out = []
    primes = sorted(pi_of(F.group))
    for p in primes:
        out += [status(baer.is_p_baer(F, p, via)) for via in ("union", "sylow")]
        if baer.is_p_baer(F, p).is_p_baer:
            out.append(repr(baer.unique_primes(F, p)))
        out += [baer.report_theorem_a(F, p), baer.report_theorem_b(F, p), baer.report_theorem_e(F, p)]
        out += [baer.check_p_index_decomposition(F, p, s) for s in ("p-elements", "all prime power")]
        out += [baer.check_pq_baer(F, p, q) for q in primes]
    out.append(status(baer.is_baer(F)))
    out += [baer.check_theorem_f_equivalence(F), baer.report_corollary_c(F),
            baer.check_factor_inheritance(F)]
    return [json.dumps(r.to_json_dict() if isinstance(r, TheoremReport) else r, sort_keys=True)
            for r in out]


def group_output_lines(G) -> list:
    decomposition = baer.baer_decomposition(G)
    out = [None if decomposition is None else
           [decomposition.prime_partition, [S.order for S in decomposition.factors]]]
    out += [check(G).to_json_dict()
            for check in (baer.check_wielandt, baer.check_camina_camina, baer.check_lemma_bk)]
    return [json.dumps(r, sort_keys=True) for r in out]


@pytest.mark.parametrize("spec, digest", [
    ("semilinear(2,3)", "c3d005e36cc86c72ad8bd2187166d857ecac857dd6673457654593f2bd0d09a5"),
    ("dihedral(12)", "33b51a880b2cb950eae4706d2289ef63f1d0f7d4b55ef052415ccb147b0f2c1a"),
    ("symmetric(4)", "ac69f49b837687848ada30993cf7a0504f051382a6ba94ec4524bb8b2eb6451e"),
    ("frobenius(7,3)", "a3bf626b2a11c54a252757a2b02397992c903df8d84077857689969fa618209e"),
])
def test_every_output_on_every_factorisation_is_pinned(spec, digest):
    # Golden output: the sha256 of every report, witness and status over
    # every factorisation, so a changed witness shows even where the
    # verdicts, which the benchmark digests cover, stay the same.
    G = parse_group_spec(spec)
    subs = enumerate_subgroups(G)
    lines = [line for i, j in factorisation_pairs(G)
             for line in output_lines(Factorisation(G, subs[i], subs[j]))]
    lines += group_output_lines(G)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_every_output_on_lazy_products_is_pinned():
    # The same on two products that stay unmaterialised: the second is a
    # Baer factorisation, so Theorem D reads class sizes block by block.
    lines = []
    for left, right in [([symmetric(3)], [dihedral(10)]), PRODUCT_CASES[1]]:
        F = block_halves_factorisation(left, right)
        lines += output_lines(F)
        assert not F.group.is_materialized
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "88b78a01ab50ad32a6528ca3ba3cef3d4360c8b932bd6d3c3098fecf70412ec6"
    )


def test_index_primes_of_p_elements_in_the_prime_power_scope_fail_the_lazy_golden_output(monkeypatch):
    # Planted fault: _index_primes reads the check's p for None, so the "all
    # prime power" scope of check_p_index_decomposition sees the p-elements
    # only.  The two scopes' left sides then differ only where p splits G, as
    # 3 does in C3 x F(7,2) x F(11,5) x C5; no prime splits semilinear(2,3),
    # so its golden output cannot see the fault.
    index_primes, check = baer._index_primes, baer.check_p_index_decomposition
    prime = []
    monkeypatch.setattr(baer, "check_p_index_decomposition",
                        lambda F, p, scope: prime.append(p) or check(F, p, scope))
    monkeypatch.setattr(baer, "_index_primes", lambda S, p=None: index_primes(S, p or prime[-1]))
    with pytest.raises(AssertionError):
        test_every_output_on_lazy_products_is_pinned()


def failed_clauses(F) -> list:
    """``(theorem, prime, clause)`` for every failed clause in the output of F."""
    reports = [json.loads(line) for line in output_lines(F)]
    return [(r["theorem"], r["prime"], c["clause"]) for r in reports if isinstance(r, dict)
            for c in r.get("clauses", []) if c["verdict"] == FAIL]


def test_index_primes_of_p_elements_in_the_prime_power_scope_fail_where_p_splits_g(monkeypatch):
    # Planted fault, as above, on the trivial factorisation of S3 x C5: 5
    # splits G, and its complement S3 is nonabelian, so the "all prime power"
    # scope's left side is false at p = 5 while the p-elements' is true.
    # Only that biconditional fails; every other clause still passes.
    def trivial():
        return Factorisation.trivial(parse_group_spec("product(symmetric(3),cyclic(5))"))

    assert failed_clauses(trivial()) == []
    index_primes, check = baer._index_primes, baer.check_p_index_decomposition
    prime = []
    monkeypatch.setattr(baer, "check_p_index_decomposition",
                        lambda F, p, scope: prime.append(p) or check(F, p, scope))
    monkeypatch.setattr(baer, "_index_primes", lambda S, p=None: index_primes(S, p or prime[-1]))
    F = trivial()
    assert failed_clauses(F) == [("p-index-decomposition", 5, "biconditional-prime-power")]
    assert not F.group.is_materialized


def test_every_output_near_the_top_of_the_cell_budget_is_pinned():
    # Order 2,160: the whole table, 2,160**2 cells, still fits the budget,
    # so every column asked for is composed from held tree parents.
    G = parse_group_spec("subgroup(product(symmetric(6),cyclic(3)); g0, g1, g2)")
    G.materialize()
    assert G.order == 2160 and G.order**2 <= CAYLEY_CELL_BUDGET
    lines = output_lines(Factorisation.trivial(G)) + group_output_lines(G)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6184394f09c9f80058a6f44c7113147b923af24661e063d20552698d96f855ad"
    )


# -- prefactorised Sylow subgroups from the side memos ----------------------------------


def first_prefactorised_sylow(F, p) -> tuple:
    """``(P, P n A, P n B)`` for the first P of ``sylow_conjugates(G, p)`` whose
    meets with A and B, taken here, have the sides' p-parts and multiply to P."""
    pa, pb = p_part(F.a.order, p), p_part(F.b.order, p)
    for P in sylow_conjugates(F.group, p):
        ia, ib = P.intersection(F.a), P.intersection(F.b)
        if ia.order == pa and ib.order == pb and ia.product_order(ib) == P.order:
            return P, ia, ib
    raise AssertionError(f"no prefactorised Sylow {p}-subgroup")


def status_rows_of(subs, p) -> tuple:
    """``(holds, [(locus, element, index)])`` over the ``(locus, S)`` pairs: the
    first index of a side profile that is no prime power, in A's profile order
    and then B's, fails; otherwise one row per (locus, index), sorted."""
    rows = []
    for locus, S in subs:
        for idx, x in baer._side_profile(S, p).items():
            if not is_prime_power(idx):
                return False, [(locus, x, idx)]
            rows.append((locus, x, idx))
    return True, sorted(rows, key=lambda row: (row[0], row[2]))


def assert_prefactorised_sylows_match_the_first_match_loop(F):
    for p in sorted(pi_of(F.group)):
        P, PA, PB = find_prefactorised_sylow(F, p)
        assert (P, PA, PB) == first_prefactorised_sylow(F, p), p
        status = baer.is_p_baer(F, p, "sylow")
        rows = [(w.locus, w.element, w.index) for w in status.witnesses]
        assert (status.is_p_baer, rows) == status_rows_of([("A", PA), ("B", PB)], p), p


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_prefactorised_sylow_and_its_meets_match_the_first_match_loop(spec):
    # The engine reads both sides' meets with G's Sylow subgroups from their
    # memos; the loop above intersects per factorisation, as the search did
    # before the memos.  P, both meets and the witnesses of the sylow route
    # must be the same on every factorisation.
    G = parse_group_spec(spec)
    subs = enumerate_subgroups(G)
    for i, j in factorisation_pairs(G):
        assert_prefactorised_sylows_match_the_first_match_loop(Factorisation(G, subs[i], subs[j]))


def test_prefactorised_sylow_of_a_lazy_product_matches_the_first_match_loop():
    # The engine answers block by block; the loop scans the product's own
    # Sylow conjugates, which come in itertools.product order, so its first
    # match is the product of the blocks' first matches.
    for left, right in PRODUCT_CASES:
        F = block_halves_factorisation(left, right)
        assert_prefactorised_sylows_match_the_first_match_loop(F)
        assert not F.group.is_materialized


def test_sylow_meets_are_taken_once_per_side(monkeypatch):
    # Work-count guard: every check on the 302 factorisations of
    # semilinear(2,3), and its group checks, read each side's meets with G's
    # Sylow subgroups from the side's memo (structure.sylow_meets).  That is
    # 3,848 calls to Subgroup.intersection, down from 12,457 when each
    # factorisation intersected its own sides with the Sylow conjugates, and
    # from 4,757 when Subgroup.product_order, and so the search for a
    # prefactorised Sylow subgroup, built the meet it counts.
    G = semilinear(2, 3)
    subs = enumerate_subgroups(G)
    factorisations = [Factorisation(G, subs[i], subs[j]) for i, j in factorisation_pairs(G)]
    assert len(factorisations) == 302
    calls = []
    intersection = Subgroup.intersection

    def counted(self, other):
        calls.append(None)
        return intersection(self, other)

    monkeypatch.setattr(Subgroup, "intersection", counted)
    for F in factorisations:
        factorisation_rows(F)
    group_rows(G)
    assert len(calls) == 3848


# -- Berkovich-Kazarin, a conjugacy class at a time ------------------------------------


def lemma_bk_by_elements(G) -> list:
    """``(clause, verdict, witness)`` of ``check_lemma_bk`` with its rows read
    element by element in id order: every noncentral p-element of
    prime-power index, with that index and its prime."""
    els, orders, index, mul = G.elements, G.element_orders(), G.class_sizes(), G.cayley()
    out = []
    for p in sorted(pi_of(G)):
        rows = []
        for i, o in enumerate(orders):
            if o > 1 and is_p_number(o, p) and index[i] > 1 and is_prime_power(index[i]):
                rows.append((i, index[i], prime_divisors(index[i])[0]))
        pairs, bad = 0, None
        for ai, (i, ix, px) in enumerate(rows):
            for j, iy, py in rows[ai + 1 :]:
                ixy = index[mul.col(j)[i]]
                if px == py or not is_prime_power(ixy):
                    continue
                pairs += 1
                x, y = els[i], els[j]
                conclusion = (
                    baer.normal_closure(G, [x, y]).subset_of(o_p(G, p))
                    and ixy == max(ix, iy)
                    and is_p_number(ixy, p)
                    and not is_abelian(sylow(G, p))
                )
                if not conclusion and bad is None:
                    bad = {"x": format_cycles(x), "y": format_cycles(y),
                           "ix": ix, "iy": iy, "ixy": ixy}
        out.append((f"p={p}", PASS if bad is None else FAIL, bad or {"qualifying_pairs": pairs}))
    return out


@pytest.mark.parametrize("spec", SWEEP_SPECS + (
    "subgroup(semilinear(2,4); g0, g1, g2^2)", "wreath(dihedral(8),cyclic(3),natural)"
))
def test_lemma_bk_rows_read_by_class_match_the_element_loop(spec, monkeypatch):
    # Order and index are class functions, so check_lemma_bk reads its rows a
    # conjugacy class at a time.  D8 wr C3 (order 1,536) has 144 qualifying
    # pairs at p = 2, which both scans must close in the same order.  A
    # normal closure that is all of G then fails every qualifying pair, so
    # the witness is the first in pair order.
    G = parse_group_spec(spec)
    G.materialize()
    pairs = []
    closure = baer.normal_closure
    monkeypatch.setattr(baer, "normal_closure", lambda H, gens: pairs.append(gens) or closure(H, gens))

    def clauses():
        return [(c.clause, c.verdict, c.witness) for c in baer.check_lemma_bk(G).clauses]

    assert clauses() == lemma_bk_by_elements(G)
    assert pairs[: len(pairs) // 2] == pairs[len(pairs) // 2 :]
    monkeypatch.setattr(baer, "normal_closure", lambda H, _gens: Subgroup.full(H))
    assert clauses() == lemma_bk_by_elements(G)


def test_kinds_memoised_before_a_product_is_materialised_still_fold():
    # The kinds of a product-form factor are folded from its blocks whether
    # or not G's store is built, so those memoised while G is lazy and those
    # built after it is materialised have members of one form, and every
    # output matches a copy that stays lazy.
    F = block_halves_factorisation([symmetric(3)], [dihedral(10)])
    lazy = block_halves_factorisation([symmetric(3)], [dihedral(10)])
    assert baer.is_p_baer(F, 2).is_p_baer
    F.group.materialize()
    assert output_lines(F) == output_lines(lazy)
    assert not lazy.group.is_materialized


# -- clause rows shared by the factorisations of one group ---------------------------


@pytest.mark.parametrize("verdicts, overall", [
    ([PASS], PASS),
    ([PASS, NOT_APPLICABLE], PASS),
    ([NOT_APPLICABLE], NOT_APPLICABLE),
    ([NOT_APPLICABLE, NOT_APPLICABLE], NOT_APPLICABLE),
    ([], NOT_APPLICABLE),
    ([SKIPPED], SKIPPED),
    ([PASS, SKIPPED], SKIPPED),
    ([SKIPPED, FAIL], FAIL),
    ([PASS, NOT_APPLICABLE, FAIL], FAIL),
])
def test_overall_passes_only_when_a_clause_passes_and_none_fails_or_is_skipped(verdicts, overall):
    report = TheoremReport("X", 2, [ClauseResult(str(i), v) for i, v in enumerate(verdicts)])
    assert report.overall == overall == report.to_json_dict()["overall"]


def test_a_report_off_its_hypotheses_is_not_applicable_overall():
    # S4 is not 2-Baer: Theorem A's one clause is not-applicable, and so is
    # the report.  S3 is 3-Baer, and there the report passes.
    [clause] = report_theorem_a(Factorisation.trivial(symmetric(4)), 2).clauses
    assert (clause.clause, clause.verdict) == ("hypotheses", NOT_APPLICABLE)
    assert report_theorem_a(Factorisation.trivial(symmetric(4)), 2).overall == NOT_APPLICABLE
    assert report_theorem_a(Factorisation.trivial(symmetric(3)), 3).overall == PASS


# Clauses where they meet their bounds, each on the factorisation G = AB of a
# direct product with A and B its two blocks: (check, p, {clause: witness}).
# A bound tighter by one fails each row.
BOUND_ROWS = {
    # D8 x S3 is 2-Baer (the 2-elements have index 1, 2 or 3) of 2-length 1.
    "A2 at p-length 1": ("product(dihedral(8),symmetric(3))", report_theorem_a, 2, {
        "2:sylow-core-products-normal-p-soluble":
            {"PF_order": 48, "POpprime_order": 48, "p_length": 1, "p_soluble": True},
    }),
    # The 2-elements of S3 have index 3 and those of D10 index 5.  P acts on
    # both O_3(G) and O_5(G), and P O_s(G) is normal for neither prime alone,
    # so both rows need the two primes.
    "B with q != r": ("product(symmetric(3),dihedral(10))", baer.report_theorem_b, 2, {
        "unique-primes": {"q": 3, "r": 5},
        "centralises-fitting-complement": {"complement_order": 1},
        "sylow-core-product-normal": {"product_order": 60},
    }),
    # D8 x S3 = AB is Baer, and P = D8 x C2 is non-abelian with
    # |G : C_G(P)| = 48 / 4, so one prime besides p.
    "E1 with one prime besides p": ("product(dihedral(8),symmetric(3))", baer.report_theorem_e, 2, {
        "1:nonabelian-sylow-index": {"index": 12, "primes": [2, 3]},
    }),
}


@pytest.mark.parametrize("materialised", [False, True], ids=["lazy", "materialised"])
@pytest.mark.parametrize("name", BOUND_ROWS)
def test_clauses_pass_at_their_bounds(name, materialised):
    spec, check, p, want = BOUND_ROWS[name]
    G = parse_group_spec(spec)
    if materialised:
        G.materialize()
    F = Factorisation(G, subgroup_from_words(G, ["g0", "g1"]), subgroup_from_words(G, ["g2", "g3"]))
    assert F.a.order * F.b.order == G.order
    rows = {c.clause: (c.verdict, c.witness) for c in check(F, p).clauses}
    assert {clause: rows.get(clause) for clause in want} == {
        clause: (PASS, witness) for clause, witness in want.items()
    }
    assert G.is_materialized == materialised


def on_a_fresh_copy(spec, F) -> Factorisation:
    """F on a newly parsed and materialised copy of its group ``spec``, with
    the same subgroup ids: no memo is shared with F's group."""
    G = parse_group_spec(spec)
    G.materialize()
    return Factorisation(G, Subgroup.from_ids(G, F.a.ids), Subgroup.from_ids(G, F.b.ids))


@pytest.mark.parametrize("spec", ["semilinear(2,3)", "product(symmetric(4),cyclic(3))"])
def test_shared_rows_give_what_a_fresh_group_gives(spec):
    # Differential test: the checks of every factorisation, run in turn on
    # one group so that the rows of G and of its Sylow subgroups are shared,
    # give the JSON that each factorisation gives alone on a fresh copy.
    G = parse_group_spec(spec)
    subs = enumerate_subgroups(G)
    for i, j in factorisation_pairs(G):
        F = Factorisation(G, subs[i], subs[j])
        assert output_lines(F) == output_lines(on_a_fresh_copy(spec, F)), (i, j)


def test_reports_that_share_rows_keep_their_own_clauses():
    # semilinear(2,3), of order 168, has a normal Sylow 2-subgroup P, so its
    # trivial factorisation and G = P H, for H a Hall {3,7}-subgroup, share
    # Theorem A's rows at p = 2.
    G = semilinear(2, 3)
    trivial = Factorisation.trivial(G)
    P = find_prefactorised_sylow(trivial, 2)[0]
    F = Factorisation(G, P, hall(G, {3, 7}))
    assert find_prefactorised_sylow(F, 2)[0] is P
    for left, right in ((trivial, F), (F, F)):
        first, second = report_theorem_a(left, 2), report_theorem_a(right, 2)
        before = second.to_json_dict()
        assert first.clauses[0].witness is second.clauses[0].witness
        first.clauses.append(ClauseResult("planted", FAIL))
        first.clauses[0].verdict = FAIL
        assert second.to_json_dict() == before == report_theorem_a(right, 2).to_json_dict()
        assert first.overall == FAIL and second.overall == PASS


@pytest.mark.parametrize("spec, factorisations, decided, distinct", [
    ("semilinear(2,3)", 302, 302, 1),  # its Sylow 2-subgroup is normal
    ("product(symmetric(4),cyclic(3))", 356, 356, 4),
])
def test_theorem_a_rows_run_once_per_sylow_subgroup(monkeypatch, spec, factorisations, decided,
                                                    distinct):
    # Work-count guard: Theorem A on every factorisation and prime works out
    # its clauses 1-4 once per prefactorised Sylow subgroup P, not once per
    # factorisation.  Clause 1 is baer's one call of is_p_decomposable with
    # ``over``, so those calls count the evaluations.
    G = parse_group_spec(spec)
    subs = enumerate_subgroups(G)
    found = [Factorisation(G, subs[i], subs[j]) for i, j in factorisation_pairs(G)]
    runs = []
    is_p_decomposable = baer.is_p_decomposable

    def counted(H, p, over=None):
        if over is not None:
            runs.append(p)
        return is_p_decomposable(H, p, over)

    monkeypatch.setattr(baer, "is_p_decomposable", counted)
    reached = [(F, p) for F in found for p in sorted(pi_of(G))
               if report_theorem_a(F, p).clauses[0].clause != "hypotheses"]
    sylows = {(find_prefactorised_sylow(F, p)[0], p) for F, p in reached}
    assert (len(found), len(reached), len(sylows), len(runs)) == (
        factorisations, decided, distinct, distinct
    )


# -- the memo contract --------------------------------------------------------------


def test_memos_are_freed_with_their_owner():
    # Facts memoised on S live in S and are keyed without it, so reference
    # counting alone frees S once the caller drops it, while no value holds S.
    G = symmetric(4)
    a, b = parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)
    S = Subgroup.from_ids(G, G.closure_from_gen_ids([G.element_id(a), G.element_id(b)]))
    assert S.order == 12
    gc.disable()
    try:
        assert not is_abelian(S)
        assert factor_sylow(S, 2).order == 4
        assert centraliser(G, S).order == 1
        assert is_normal(G, S)
        # A4's 2-elements are the double transpositions, of index 3 in S4,
        # and it meets each of the three Sylow 2-subgroups of S4 in V4.
        assert [Q.order for Q in sylow_meets(S, 2)] == [4, 4, 4]
        assert [w.index for w in baer._side_status(S, 2, "A")[1]] == [3]
        assert baer._index_primes(S, 2) == {3}
        assert not baer._index_primes(S, 2) <= {2}
        alive = weakref.ref(S)
        del S
        assert alive() is None
        # A p-subgroup is its own Sylow subgroup and its own meet with the
        # Sylow subgroup of G above it, so its memos make a cycle that only
        # the cyclic collector frees.
        P = Subgroup.from_ids(G, G.closure_from_gen_ids([G.element_id(parse_cycles("(0 1)", 4))]))
        assert structure.factor_sylows(P, 2) == [P]
        assert P in sylow_meets(P, 2)
        alive = weakref.ref(P)
        del P
        assert alive() is not None
        gc.collect()
        assert alive() is None
    finally:
        gc.enable()


def test_memo_keys_fill_in_defaults():
    G = symmetric(4)
    F = Factorisation.trivial(G)
    assert baer.is_p_baer(F, 2) is baer.is_p_baer(F, 2, "union") is baer.is_p_baer(F, 2, via="union")
    assert baer.is_p_baer(F, 2, "sylow") is not baer.is_p_baer(F, 2)
    assert enumerate_subgroups(G) is enumerate_subgroups(G, budget=400_000)


def test_a_raise_stores_nothing_and_a_stored_none_is_a_hit(monkeypatch):
    G = symmetric(4)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            enumerate_subgroups(G, budget=3)
    # S4 has classes of size 6, so no Baer decomposition: the memo holds None.
    calls = []
    is_baer = baer.is_baer
    monkeypatch.setattr(baer, "is_baer", lambda F: calls.append(F) or is_baer(F))
    assert baer.baer_decomposition(G) is None
    assert baer.baer_decomposition(G) is None
    assert len(calls) == 1


@pytest.mark.parametrize("spec, partition, orders", [
    ("cyclic(12)", [[2], [3]], [4, 3]),
    ("product(symmetric(3),cyclic(5))", [[2, 3], [5]], [6, 5]),
    ("product(dihedral(8),cyclic(3))", [[2], [3]], [8, 3]),
    # Three primes or more: partitions coarser than the finest split G too.
    ("cyclic(30)", [[2], [3], [5]], [2, 3, 5]),
    ("product(frobenius(7,3),cyclic(5),cyclic(2))", [[2], [3, 7], [5]], [2, 21, 5]),
    ("product(frobenius(5,4),frobenius(7,3),cyclic(11))", [[2, 5], [3, 7], [11]], [20, 21, 11]),
])
def test_baer_decomposition_into_several_factors(spec, partition, orders):
    # Two factors or more, so the factors are checked to commute pairwise.
    G = parse_group_spec(spec)
    decomposition = baer.baer_decomposition(G)
    assert decomposition.prime_partition == partition
    assert [S.order for S in decomposition.factors] == orders
    assert G.direct_factors is None or not G.is_materialized


def test_baer_decomposition_raises_when_its_atoms_do_not_split(monkeypatch):
    # Negative control: with O_5 planted as trivial, {5} and {2, 3} no longer
    # split cyclic(30), but {2}, {3} and their complements still do, so the
    # atoms are {2}, {3}, {5} and their cores multiply to 6, not 30.
    G = cyclic(30)
    o_pi = baer.o_pi
    monkeypatch.setattr(
        baer, "o_pi", lambda H, pi, over=None:
            Subgroup.trivial(H) if set(pi) == {5} else o_pi(H, pi, over)
    )
    with pytest.raises(InternalInvariantViolation, match="atoms do not split"):
        baer.baer_decomposition(G)
