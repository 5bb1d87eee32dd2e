"""Hygiene of the package source, checked with the standard ``ast``.

Most rules keep a token to some modules, so that a backing, table or route
is reached through one module and can change in that one place.  Each is a
row of ``RULES``: its tokens, the modules where they are allowed and the
reason.  One detector, :func:`token_uses`, finds the tokens, and one test
checks every module a rule covers; a new rule is a row and a detector case.

The rules of other shapes have detectors of their own:

* a module imports a name only to read it or re-export it through
  ``__all__`` (``from __future__`` imports are exempt);
* every write-once fact goes through ``group.memo``: no module but
  ``group.py`` touches an owner's ``_cache``, except the empty
  ``self._cache = {}`` that an ``__init__`` gives a new owner;
* lists of ids are composed with ``group.take``, one ``operator.itemgetter``
  call: no code but ``take`` maps an ``X.__getitem__`` over ids, which costs
  about twice as much (a sort's ``key=X.__getitem__`` is no composition);
* every function and method has a reader in the package, the named entry
  points aside, so no code is kept alive by the tests alone; readers are
  matched by bare name, so the names defined more than once are pinned;
* every name the benchmark's tracer wraps resolves in the package;
* no module reads the process environment, so a run depends on its
  arguments and constants alone;
* ``pyproject.toml`` declares no console script that does not import, no
  package data that does not exist and no ``test`` extra no test imports,
  and the CI workflow installs exactly that extra;
* every paper check has one shape: each public ``report_*`` and ``check_*``
  of ``baer.py`` is decorated with ``_check``, and no code but ``_check``
  builds a ``TheoremReport``.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "baerlab"
TESTS = Path(__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
MODULES = sorted(SOURCE.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


class Rule(NamedTuple):
    tokens: tuple  # in the forms of token_uses
    allowed: frozenset  # the modules where they may appear
    reason: str


GROUP_MODULE = frozenset({"group.py"})

RULES = {
    "subgroup-backings": Rule(
        ("._ids", "._factors"), GROUP_MODULE,
        "other modules read a Subgroup through its public methods"),
    "subgroup-pool": Rule(
        ("Subgroup(", "._subgroups"), GROUP_MODULE,
        "no id-backed subgroup bypasses Subgroup.from_ids and its pool of canonical subgroups"),
    "group-tables": Rule(
        ("._cayley", "._inverse_ids", "._conj_maps"), GROUP_MODULE,
        "other modules ask the Group methods that build a group's id tables for them"),
    "table-compositions": Rule(
        (".row(", ".inv"), GROUP_MODULE,
        "no module but group.py composes 'the id of s^-1 y s' from table columns"),
    "table-tree": Rule(
        (".spread(", "inverse_ids"), GROUP_MODULE,
        "conjugates and normalisers come from Group.conjugates and Group.conjugation_labels"),
    "subgroup-views": Rule(
        (".as_group(",), frozenset(),
        "no subgroup becomes a Group of its own: its facts are read in its parent's id space"),
    "conjugation": Rule(
        (".conjugate(",), frozenset({"group.py", "perm.py"}),
        "conjugation goes through the id maps of Group.conjugation_maps and its kin"),
    "sylow-meets": Rule(
        (".intersection(",), frozenset(p.name for p in MODULES) - {"baer.py"},
        "checks read Sylow meets from the side memos, through find_prefactorised_sylow"),
    "product-dispatch": Rule(
        (".blocks",), frozenset({"group.py", "structure.py"}),
        "a direct product is split by group.py's branches and structure._blockwise alone"),
    "process-caches": Rule(
        ("lru_cache", "cache"), frozenset({"numth.py"}),
        "group facts are memoised on their owner by group.memo and freed with it; a "
        "process-wide cache would keep every group alive, so only number facts share one"),
}


def spellings(node) -> tuple:
    """The token forms that name ``node`` (see :func:`token_uses`)."""
    if isinstance(node, ast.Call):
        return tuple(f"{s}(" for s in spellings(node.func))
    if isinstance(node, ast.Attribute):
        return f".{node.attr}", node.attr
    if isinstance(node, ast.Name):
        return (node.id,)
    return ()


def token_uses(source: str, tokens) -> list:
    """(line, token) for every use of one of ``tokens`` in ``source``.

    A token has one of four forms: ``.name(`` is a call of an attribute
    ``name``; ``name(`` is any call of ``name``, bare or as an attribute;
    ``.name`` is an attribute ``name``; ``name`` is a bare name or an
    attribute.  Strings, such as ``getattr(x, 'name')``, are no uses.
    """
    return sorted(
        (node.lineno, token)
        for node in ast.walk(ast.parse(source))
        for token in tokens
        if token in spellings(node)
    )


@pytest.mark.parametrize(
    "rule, path",
    [(name, p) for name, rule in RULES.items() for p in MODULES if p.name not in rule.allowed],
    ids=lambda v: getattr(v, "name", v),
)
def test_tokens_stay_in_their_modules(rule, path):
    assert token_uses(path.read_text(), RULES[rule].tokens) == [], RULES[rule].reason


# A snippet per rule, with the uses the detector must find in it.
TOKEN_CASES = {
    "subgroup-backings": (
        "def f(S, G):\n"
        "    if S._ids or S.factors:\n"
        "        return G._cache, getattr(S, 'ids')\n"
        "    return [s for s in S._factors]\n",
        [(2, "._ids"), (4, "._factors")],
    ),
    "subgroup-pool": (
        "def f(G, ids):\n"
        "    S = Subgroup.from_ids(G, ids)\n"
        "    T = Subgroup(G, ids=frozenset(ids))\n"
        "    U = group.Subgroup(G, whole=True)\n"
        "    return G._subgroups.get(ids), isinstance(S, Subgroup)\n",
        [(3, "Subgroup("), (4, "Subgroup("), (5, "._subgroups")],
    ),
    "group-tables": (
        "def f(G, x, g):\n"
        "    mul = G.cayley() if G._cayley is None else G.cayley()\n"
        "    maps = G.conjugation_maps()\n"
        "    return mul[x][g], G._conj_maps[0][x], getattr(G, '_inverse_ids')\n",
        [(2, "._cayley"), (4, "._conj_maps")],
    ),
    "table-compositions": (
        "def f(G, mul, x, s):\n"
        "    inv = mul.inv\n"
        "    orbit = G.conjugation_orbit(x, [s])\n"
        "    return mul.row(s)[x], mul.col(s)[inv[x]], G.inverse_ids(), row(s), mul.row\n",
        [(2, ".inv"), (4, ".row(")],
    ),
    "table-tree": (
        "def f(G, mul, act):\n"
        "    labels = mul.spread(0, act)\n"
        "    inv = G.inverse_ids()\n"
        "    spread, ok = mul.spread, G.conjugation_labels(act)\n"
        "    return take(labels, inverse_ids(G)), spread(0, act)\n",
        [(2, ".spread("), (3, "inverse_ids"), (5, "inverse_ids")],
    ),
    "subgroup-views": (
        "def f(S):\n"
        "    def build():\n"
        "        return S.as_group()\n"
        "    return build, S.as_group\n"
        "V = [S.as_group() for S in ()]\n"
        "class C:\n"
        "    def g(self, S):\n"
        "        return (lambda: S.as_group())()\n",
        [(3, ".as_group("), (5, ".as_group("), (8, ".as_group(")],
    ),
    "conjugation": (
        "def f(G, S, x, g):\n"
        "    maps = G.conjugation_maps()\n"
        "    y = x.conjugate(g)\n"
        "    conjugate = S.conjugate\n"
        "    return [s.conjugate(g) in S for s in S.generating_set()], conjugate(g)\n",
        [(3, ".conjugate("), (5, ".conjugate(")],
    ),
    "sylow-meets": (
        "def f(F, p):\n"
        "    P, PA, PB = find_prefactorised_sylow(F, p)\n"
        "    meets = [P.intersection(sub) for _locus, sub in F.factors()]\n"
        "    meet = P.intersection\n"
        "    return meets, meet(F.b), sylow_meets(F.a, p), F.a.intersection(\n"
        "        F.b)\n",
        [(3, ".intersection("), (5, ".intersection(")],
    ),
    "product-dispatch": (
        "def f(G, S, blocks):\n"
        "    if G.blocks is not None:\n"
        "        return [g for g in zip(G.blocks, S.factors)]\n"
        "    return blocks, G.direct_factors, getattr(G, 'blocks')\n",
        [(2, ".blocks"), (3, ".blocks")],
    ),
    "process-caches": (
        "@functools.lru_cache(maxsize=None)\n"
        "def f(G):\n"
        "    return G._cache, getattr(f, 'cache_info')\n"
        "@functools.cache\n"
        "def g(n):\n"
        "    return lru_cache(None)(f), memo(f)\n",
        [(1, "lru_cache"), (4, "cache"), (6, "lru_cache")],
    ),
}


@pytest.mark.parametrize("rule", RULES)
def test_token_use_detector(rule):
    source, expected = TOKEN_CASES[rule]
    assert token_uses(source, RULES[rule].tokens) == expected


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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "group.py"], ids=lambda p: p.name)
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


def test_traced_layers_resolve_in_the_package(monkeypatch):
    """Every ``(module, attribute)`` the benchmark's tracer wraps is a function
    of the package, looked up as the tracer looks it up, so deleting or
    renaming a wrapped name fails here and not only in a traced run.  The
    tracer is only imported, and no bytecode is written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, attr in tracer.LAYERS:
        home = importlib.import_module(f"baerlab.{module}")
        owner, _, leaf = attr.rpartition(".")
        if not callable(vars(getattr(home, owner) if owner else home).get(leaf)):
            missing.append(name)
    assert tracer.LAYERS and missing == []


def imported_modules(source: str) -> set:
    """Top-level modules that ``source`` imports, by a statement or by
    ``pytest.importorskip``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call) and ".importorskip(" in spellings(node):
            out.add(node.args[0].value.split(".")[0])
    return out


def undelivered_declarations(config: dict, root: Path, tests: Path) -> list:
    """Each ``[project.scripts]`` target of a parsed ``pyproject.toml`` that does
    not import, each package-data pattern that matches no file under
    ``root``, the directory the packages are found in, and each requirement
    of the ``test`` extra that no file under ``tests`` imports."""
    out = []
    for target in config["project"].get("scripts", {}).values():
        module, _, attr = target.partition(":")
        try:
            found = callable(getattr(importlib.import_module(module), attr, None))
        except ImportError:
            found = False
        if not found:
            out.append(target)
    for package, patterns in config["tool"]["setuptools"].get("package-data", {}).items():
        out += [f"{package}/{g}" for g in patterns if not list((root / package).glob(g))]
    imported = set().union(*(imported_modules(p.read_text()) for p in tests.rglob("*.py")))
    for requirement in config["project"].get("optional-dependencies", {}).get("test", []):
        if re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_") not in imported:
            out.append(f"test: {requirement}")
    return out


def test_pyproject_declares_only_what_exists():
    """An installed console script imports its target, declared package
    data ships and the ``test`` extra installs only what the tests import."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((SOURCE.parent.parent / "pyproject.toml").read_text())
    assert undelivered_declarations(config, SOURCE.parent, TESTS) == []


def test_undelivered_declaration_detector():
    config = {
        "project": {"scripts": {"baerlab": "baerlab.cli:main", "spec": "baerlab:parse_group_spec",
                                "ok": "baerlab.constructions:parse_group_spec"},
                    "optional-dependencies": {"test": ["pytest>=7", "jsonschema", "sympy"]}},
        "tool": {"setuptools": {"package-data": {"baerlab": ["report_schema.json", "*.py"]}}},
    }
    assert undelivered_declarations(config, SOURCE.parent, TESTS) == [
        "baerlab.cli:main", "baerlab:parse_group_spec", "baerlab/report_schema.json",
        "test: jsonschema",
    ]


def installed_packages(workflow: str, step: str) -> list:
    """The packages that the ``pip install`` of the workflow step named ``step``
    installs, in order; the step's ``run`` is one line."""
    command = re.search(rf"- name: {re.escape(step)}\n\s+run: (.*)", workflow).group(1)
    words = command.split()
    return words[words.index("install") + 1:]


def test_ci_installs_exactly_the_test_extra():
    """The tier-1 workflow installs the ``test`` extra of ``pyproject.toml``
    and nothing else, so the two lists cannot drift apart."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((SOURCE.parent.parent / "pyproject.toml").read_text())
    installed = installed_packages(WORKFLOW.read_text(), "Install test dependencies")
    assert installed == config["project"]["optional-dependencies"]["test"]


def test_installed_package_detector():
    workflow = (
        "      - name: Install test dependencies\n"
        "        run: python -m pip install pytest sympy\n"
        "      - name: Install docs\n"
        "        run: pip install -q sphinx\n"
    )
    assert installed_packages(workflow, "Install test dependencies") == ["pytest", "sympy"]
    assert installed_packages(workflow, "Install docs") == ["-q", "sphinx"]


def getitem_maps(source: str) -> list:
    """Lines of every ``map(X.__getitem__, ...)`` call outside the body of ``take``."""
    tree = ast.parse(source)
    inside = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "take"
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "map" and node.args
        and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "__getitem__"
        and node.lineno not in inside
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_id_lists_are_composed_with_take(path):
    assert getitem_maps(path.read_text()) == []


def test_getitem_map_detector():
    source = (
        "def take(seq, ids):\n"
        "    return list(map(seq.__getitem__, ids))\n"
        "def f(col, inv, ids, d):\n"
        "    a = take(col, ids)\n"
        "    b = list(map(col.__getitem__, map(inv.__getitem__, ids)))\n"
        "    c = sorted(ids, key=col.__getitem__)\n"
        "    return set(map(d.get, ids)), map(len, ids), (map(d.__getitem__, ids))\n"
    )
    assert getitem_maps(source) == [5, 5, 7]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
    # named by the benchmark tracer's layers; they leave with the benchmark
    # change that drops the tracer's zero-call layers
    "conjugacy_class", "class_index",
    # the inverse of format_cycles, how tests write elements
    "parse_cycles",
    # the reference G/N that the tests compare relative cores against, and
    # whose calls the benchmark's traced run counts
    "quotient_group", "Quotient.project",
    # reads the group specs of the benchmark corpora, the tests and the CI runs
    "parse_group_spec",
    # a subgroup from generator words, as in a spec's subgroup(...) form
    "subgroup_from_words",
    # what a TheoremReport offers a reader: its JSON form
    "TheoremReport.to_json_dict",
    # read by the benchmark battery and its tracer
    "Group.is_materialized",
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


# The bare names with more than one definition in the package, each with
# the readers of its definitions.  A definition whose name another one shares
# is read whenever the other is, as far as the reader test can tell, so each
# shared name needs its reason here; a new one fails until it is added.
SHARED_NAMES = {
    "add": "_GF.add builds the semilinear generators; TheoremReport.add records a clause",
    "factors": "Subgroup.factors drives the block routes; Factorisation.factors the side loops",
    "order": "Group.order and Permutation.order, read throughout",
    "take": "group.take composes ids; _SpecReader.take reads a spec's next token",
    "to_json_dict": "the JSON forms of IndexWitness and TheoremReport, both entry points",
    "trivial": "Subgroup.trivial and Factorisation.trivial, read in structure.py and baer.py",
}


def shared_names(sources) -> dict:
    """Bare name -> qualified names, for each name that :func:`definitions`
    finds more than once across ``sources``; dunder methods are skipped."""
    found = {}
    for source in sources:
        for qualified, node in definitions(ast.parse(source)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                found.setdefault(node.name, []).append(qualified)
    return {name: where for name, where in found.items() if len(where) > 1}


def test_shared_names_are_pinned():
    assert sorted(shared_names(p.read_text() for p in MODULES)) == sorted(SHARED_NAMES)


def test_shared_name_detector():
    sources = [
        "def identity(n):\n    pass\nclass C:\n    def __init__(self):\n        pass\n",
        "class G:\n    def identity(self):\n        pass\n    def __init__(self):\n        pass\n",
        "def f():\n    def identity():\n        pass\n",
    ]
    assert shared_names(sources) == {"identity": ["identity", "G.identity"]}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_engine_definitions_have_a_source_caller(path):
    others = [p.read_text() for p in MODULES if p != path]
    exempt = ENTRY_POINTS | VERIFIER_ENTRY_POINTS
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
