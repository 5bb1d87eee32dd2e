"""Hygiene of the package source, checked with the standard ``ast``.

A module may import a name only if it reads it or re-exports it through
``__all__``.  ``from __future__`` imports are compiler directives and exempt.

Only ``group.py`` touches the backing attributes of ``Subgroup``; every other
module goes through its public methods, so a backing can change in one place.
Likewise only ``group.py`` calls the ``Subgroup`` constructor or reads a
group's pool of canonical subgroups, so no id-backed subgroup bypasses
``Subgroup.from_ids``.

Only ``group.py`` reads or writes a memo: every write-once fact goes through
its ``memo`` decorator, so no module keys, fills or reads an owner's
``_cache`` by hand.  The one exception is the empty ``self._cache = {}`` that
an ``__init__`` gives a new owner (``Factorisation``'s, in ``structure.py``).

Only ``group.py`` reads a group's id tables (its Cayley table, inverse ids
and conjugation maps); every other module asks for them through the
``Group`` methods that build them, so how a table is built or held can
change in one place.

The paper layer reads facts about a subgroup as a group of its own in its
parent's id space; no module views a subgroup as a ``Group`` of its own.

Conjugation goes through ``Group.conjugation_maps``: no module but
``group.py`` and ``perm.py`` calls a ``.conjugate`` method, so no route
conjugates permutations one by one behind the id maps.

Every function and method of every module of the package has a reader
elsewhere in the package, so no code is kept alive by the tests alone; the
named entry points are exempt.

No module reads the process environment, so no setting can change the
engine's behaviour outside its arguments and constants.

Every paper check has one shape: each public ``report_*`` and ``check_*`` of
``baer.py`` is decorated with ``_check``, and no code but ``_check`` builds a
``TheoremReport``, so no check decides its own hypotheses, cap or verdict
form.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "baerlab"


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def read_names(tree: ast.Module) -> set:
    """Names the module reads, including those inside quoted annotations."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .group import Group, Subgroup as S, closure\n"
        "__all__ = ['closure']\n"
        "def f(x: 'S') -> int:\n"
        "    return math.prod(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Group")]


SUBGROUP_BACKINGS = frozenset({"_ids", "_factors"})


def backing_reads(source: str) -> list:
    """(line, attribute) for every access to a ``Subgroup`` backing attribute."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SUBGROUP_BACKINGS
    )


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "group.py"], ids=lambda p: p.name
)
def test_subgroup_backings_stay_in_group_module(path):
    assert backing_reads(path.read_text()) == []


def test_backing_read_detector():
    source = (
        "def f(S, G):\n"
        "    if S._ids or S.factors:\n"
        "        return G._cache, getattr(S, 'ids')\n"
        "    return [s for s in S._factors]\n"
    )
    assert backing_reads(source) == [(2, "_ids"), (4, "_factors")]


def pool_bypasses(source: str) -> list:
    """(line, what) for every direct ``Subgroup(...)`` call and read of the pool."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Subgroup":
                out.append((node.lineno, "Subgroup(...)"))
        elif isinstance(node, ast.Attribute) and node.attr == "_subgroups":
            out.append((node.lineno, "_subgroups"))
    return sorted(out)


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "group.py"], ids=lambda p: p.name
)
def test_subgroup_pool_stays_in_group_module(path):
    assert pool_bypasses(path.read_text()) == []


def test_pool_bypass_detector():
    source = (
        "def f(G, ids):\n"
        "    S = Subgroup.from_ids(G, ids)\n"
        "    T = Subgroup(G, ids=frozenset(ids))\n"
        "    U = group.Subgroup(G, whole=True)\n"
        "    return G._subgroups.get(ids), isinstance(S, Subgroup)\n"
    )
    assert pool_bypasses(source) == [
        (3, "Subgroup(...)"), (4, "Subgroup(...)"), (5, "_subgroups")
    ]


EMPTY_MEMO = frozenset({"self._cache = {}", "self._cache: dict = {}"})


def memo_accesses(source: str) -> list:
    """Lines of every access to an attribute named ``_cache``, except an empty
    ``self._cache = {}`` statement in the body of an ``__init__``."""
    tree = ast.parse(source)
    seeded = {
        stmt.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        for stmt in node.body
        if ast.unparse(stmt) in EMPTY_MEMO
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_cache" and node.lineno not in seeded
    )


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "group.py"], ids=lambda p: p.name
)
def test_memos_stay_behind_the_decorator(path):
    assert memo_accesses(path.read_text()) == []


def test_memo_access_detector():
    source = (
        "class F:\n"
        "    def __init__(self):\n"
        "        self._cache: dict = {}\n"
        "        self._cache = {'seeded': 1}\n"
        "    def reset(self):\n"
        "        self._cache = {}\n"
        "def f(G, key):\n"
        "    if key not in G._cache:\n"
        "        G._cache[key] = 1\n"
        "    return len(getattr(G, '_cache')), G.cache, G._cached\n"
    )
    assert memo_accesses(source) == [4, 6, 8, 9]


GROUP_TABLES = frozenset({"_cayley", "_inverse_ids", "_conj_maps"})


def table_reads(source: str) -> list:
    """(line, attribute) for every access to a group's private id tables."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in GROUP_TABLES
    )


@pytest.mark.parametrize(
    "path", [p for p in sorted(SOURCE.glob("*.py")) if p.name != "group.py"], ids=lambda p: p.name
)
def test_group_tables_stay_in_group_module(path):
    assert table_reads(path.read_text()) == []


def test_table_read_detector():
    source = (
        "def f(G, x, g):\n"
        "    mul = G.cayley() if G._cayley is None else G.cayley()\n"
        "    maps = G.conjugation_maps()\n"
        "    return mul[x][g], G._conj_maps[0][x], getattr(G, '_inverse_ids')\n"
    )
    assert table_reads(source) == [(2, "_cayley"), (4, "_conj_maps")]


def as_group_calls(source: str) -> list:
    """Lines of every ``.as_group()`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "as_group"
    )


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_subgroup_views_only_past_the_gate(path):
    """No subgroup becomes a ``Group`` of its own, within the gate or past it."""
    assert as_group_calls(path.read_text()) == []


def test_as_group_call_detector():
    source = (
        "def f(S):\n"
        "    def build():\n"
        "        return S.as_group()\n"
        "    return build, S.as_group\n"
        "V = [S.as_group() for S in ()]\n"
        "class C:\n"
        "    def g(self, S):\n"
        "        return (lambda: S.as_group())()\n"
    )
    assert as_group_calls(source) == [3, 5, 8]


def conjugate_calls(source: str) -> list:
    """Lines of every ``.conjugate(...)`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "conjugate"
    )


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SOURCE.glob("*.py")) if p.name not in ("group.py", "perm.py")],
    ids=lambda p: p.name,
)
def test_conjugation_goes_through_the_id_maps(path):
    assert conjugate_calls(path.read_text()) == []


def test_conjugate_call_detector():
    source = (
        "def f(G, S, x, g):\n"
        "    maps = G.conjugation_maps()\n"
        "    y = x.conjugate(g)\n"
        "    conjugate = S.conjugate\n"
        "    return [s.conjugate(g) in S for s in S.generating_set()], conjugate(g)\n"
    )
    assert conjugate_calls(source) == [3, 5]


ENVIRONMENT_READERS = frozenset({"environ", "getenv"})


def environment_reads(source: str) -> list:
    """(line, name) for every read of the process environment through ``os``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_READERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            out.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out.extend(
                (node.lineno, f"os.{a.name}") for a in node.names if a.name in ENVIRONMENT_READERS
            )
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_knobs(path):
    """Engine behaviour is fixed by its arguments and constants, never by the
    environment, so a run is reproducible from its inputs alone."""
    assert environment_reads(path.read_text()) == []


def test_environment_read_detector():
    source = (
        "import os\n"
        "from os import getenv as ge, path\n"
        "CAP = int(os.environ.get('CAP', 5))\n"
        "def f(environ):\n"
        "    return os.getenv('X'), environ, os.path.join('a')\n"
    )
    assert environment_reads(source) == [(2, "os.getenv"), (3, "os.environ"), (5, "os.getenv")]


def undecorated_checks(source: str) -> list:
    """(line, name) for every module-level ``report_*`` or ``check_*`` function
    that is not decorated with a ``_check(...)`` call."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(("report_", "check_"))
        and not any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_check"
            for d in node.decorator_list
        )
    )


def report_builds(source: str) -> list:
    """Lines of every call that builds a ``TheoremReport`` (the class or one
    of its class attributes) outside the body of ``_check``."""
    tree = ast.parse(source)
    inside = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_check"
        for line in range(node.lineno, node.end_lineno + 1)
    }

    def builds(func) -> bool:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.attr == "TheoremReport" or func.value.id == "TheoremReport"
        return isinstance(func, ast.Name) and func.id == "TheoremReport"

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and builds(node.func) and node.lineno not in inside
    )


def test_every_paper_check_is_decorated_with_check():
    assert undecorated_checks((SOURCE / "baer.py").read_text()) == []


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_reports_are_built_only_by_the_check_decorator(path):
    assert report_builds(path.read_text()) == []


def test_check_shape_detectors():
    source = (
        "def _check(theorem, hypothesis=None):\n"
        "    return TheoremReport(theorem)\n"
        "@_check('A', _p_baer)\n"
        "def report_a(report, F, p):\n"
        "    report.check('1', True)\n"
        "@_skipped_on_cap('B')\n"
        "def report_b(F, p):\n"
        "    return TheoremReport.not_applicable('B', p, 'no')\n"
        "@functools.wraps(report_a)\n"
        "def check_c(F):\n"
        "    return reporting.TheoremReport('C')\n"
        "def _check_d(F):\n"
        "    report = TheoremReport('D')\n"
        "class C:\n"
        "    def check_e(self):\n"
        "        return TheoremReports(), TheoremReport\n"
    )
    assert undecorated_checks(source) == [(7, "report_b"), (10, "check_c")]
    assert report_builds(source) == [8, 11, 13]


# Engine entry points with no caller in the package, each with its reader.
ENTRY_POINTS = frozenset({
    # builds the factorisation corpora of the benchmark and the tests
    "enumerate_subgroups",
    # checked against sympy by the tests
    "center", "derived_subgroup", "exponent",
    # the reference G/N that the tests compare relative cores against, and
    # whose calls the benchmark's traced run counts
    "quotient_group", "Quotient.project",
    # reads the group specs of the benchmark corpora, the tests and the CI runs
    "parse_group_spec",
    # a subgroup from generator words, as in a spec's subgroup(...) form
    "subgroup_from_words",
    # what a TheoremReport offers a reader: its JSON form
    "TheoremReport.to_json_dict",
})

# The verifier's public entry points with no caller in the package: the
# checks the benchmark battery and the tests run, and what their results
# offer a reader.
VERIFIER_ENTRY_POINTS = frozenset({
    "report_theorem_a", "report_theorem_b", "report_theorem_e", "report_corollary_c",
    "check_factor_inheritance", "check_theorem_f_equivalence", "check_p_index_decomposition",
    "check_pq_baer", "check_wielandt", "check_camina_camina", "check_lemma_bk",
    "baer_decomposition", "IndexWitness.to_json_dict", "BaerStatus.holds",
})


def definitions(tree: ast.Module) -> list:
    """(qualified name, node) for every module-level function and class method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out.extend(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, ast.FunctionDef | ast.AsyncFunctionDef)
            )
    return out


def name_reads(tree: ast.Module) -> list:
    """(name, line) for every name or attribute the module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
    return out


def definitions_without_a_reader(source: str, others, exempt=frozenset()) -> list:
    """(line, name) for each definition of ``source`` that neither ``source``
    outside the definition's own body nor any of ``others`` reads.

    Dunder methods and the names in ``exempt``, bare or qualified, are skipped.
    """
    tree = ast.parse(source)
    own = name_reads(tree)
    elsewhere = {name for text in others for name, _line in name_reads(ast.parse(text))}
    out = []
    for qualified, node in definitions(tree):
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or {name, qualified} & exempt:
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if name not in elsewhere and all(n != name or line in inside for n, line in own):
            out.append((node.lineno, qualified))
    return out


@pytest.mark.parametrize(
    "path", sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_engine_definitions_have_a_source_caller(path):
    others = [p.read_text() for p in sorted(SOURCE.glob("*.py")) if p != path]
    exempt = exported_names(ast.parse((SOURCE / "__init__.py").read_text())) | ENTRY_POINTS
    exempt |= VERIFIER_ENTRY_POINTS
    assert definitions_without_a_reader(path.read_text(), others, exempt) == []


def test_definition_without_a_reader_detector():
    source = (
        "def used(x):\n"
        "    return x\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def exported():\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.method = None\n"
        "    def method(self):\n"
        "        return used(self)\n"
        "    def read_elsewhere(self):\n"
        "        pass\n"
        "    def kept(self):\n"
        "        pass\n"
    )
    others = ["def f(c):\n    return c.read_elsewhere\n"]
    assert definitions_without_a_reader(source, others, {"exported", "C.kept"}) == [
        (3, "recursive"), (10, "C.method")
    ]
