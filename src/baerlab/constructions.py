"""Deterministic constructors for the group species used across the package.

All constructors act on small point sets (disjoint-union actions for
products) rather than regular representations, so degrees stay proportional
to the construction parameters even when orders explode.  Each constructor
declares its closed-form order, which the element store verifies on
materialisation.

Group specs such as ``subgroup(semilinear(2,3); g0, g2)`` are read by one
loop over the table ``_GRAMMAR``, which maps each constructor name to its
function and argument form: the table is the grammar.  Generator words are
checked only by :func:`evaluate_word`.
"""

from __future__ import annotations

import functools
import math
import re

from .group import Group, Subgroup, embed_block
from .numth import is_prime
from .perm import Permutation, identity


# -- finite fields ----------------------------------------------------------


class _GF:
    """GF(p^k) on labels 0..p^k-1: the label sum c_i p^i is the polynomial
    sum c_i x^i, coefficients little-endian.

    The modulus is the least monic irreducible polynomial of degree k in the
    same encoding, so the construction is reproducible.
    """

    def __init__(self, p: int, k: int):
        self.p, self.k, self.size = p, k, p**k
        self.modulus = next(m for m in self._monic(k) if self._irreducible(m))

    def _irreducible(self, poly) -> bool:
        """No monic factor of degree at most half of ``poly``'s leaves remainder 0."""
        k = len(poly) - 1
        return all(any(self._rem(poly, d)) for deg in range(1, k // 2 + 1) for d in self._monic(deg))

    def _monic(self, deg: int):
        """The monic polynomials of degree ``deg`` in label order of their tails."""
        return (self._digits(tail, deg) + [1] for tail in range(self.p**deg))

    def _digits(self, n: int, k: int) -> list:
        out = []
        for _ in range(k):
            n, c = divmod(n, self.p)
            out.append(c)
        return out

    def _rem(self, coeffs, monic) -> list:
        """The remainder of ``coeffs`` modulo a monic polynomial."""
        r, d = list(coeffs), len(monic) - 1
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c:
                for j, m in enumerate(monic):
                    r[i - d + j] = (r[i - d + j] - c * m) % self.p
        return r[:d]

    def _label(self, coeffs) -> int:
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def add(self, a: int, b: int) -> int:
        k = self.k
        return self._label([(x + y) % self.p for x, y in zip(self._digits(a, k), self._digits(b, k))])

    def mul(self, a: int, b: int) -> int:
        cb = self._digits(b, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(self._digits(a, self.k)):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._label(self._rem(prod, self.modulus))

    def least_element_of_order(self, q: int) -> int:
        for a in range(1, self.size):
            x, n = a, 1
            while x != 1 and n < q:
                x, n = self.mul(x, a), n + 1
            if x == 1 and n == q:
                return a
        raise ValueError(f"no element of multiplicative order {q} in GF({self.size})")


# -- elementary species -----------------------------------------------------


def cyclic(n: int) -> Group:
    """Cyclic group of order n acting on n points."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    if n == 1:
        return Group(1, [], order_hint=1, name="cyclic(1)")
    gen = Permutation._make(tuple((i + 1) % n for i in range(n)))
    return Group(n, [gen], order_hint=n, name=f"cyclic({n})")


def dihedral(two_n: int) -> Group:
    """Dihedral group of order ``two_n`` acting on ``two_n/2`` points.

    ``dihedral(4)`` is the Klein four-group; it has no faithful 2-point
    action, so that single case acts on 4 points instead.
    """
    if two_n < 4 or two_n % 2:
        raise ValueError(f"dihedral order must be an even number >= 4, got {two_n}")
    if two_n == 4:
        gens = [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))]
        return Group(4, gens, order_hint=4, name="dihedral(4)")
    n = two_n // 2
    rot = Permutation._make(tuple((i + 1) % n for i in range(n)))
    ref = Permutation._make(tuple((n - i) % n for i in range(n)))
    return Group(n, [rot, ref], order_hint=two_n, name=f"dihedral({two_n})")


def symmetric(n: int) -> Group:
    """Symmetric group on n points."""
    if n < 1:
        raise ValueError(f"symmetric group needs n >= 1, got {n}")
    if n == 1:
        return Group(1, [], order_hint=1, name="symmetric(1)")
    gens = [Permutation._make((1, 0) + tuple(range(2, n)))]
    if n > 2:
        gens.append(Permutation._make(tuple((i + 1) % n for i in range(n))))
    return Group(n, gens, order_hint=math.factorial(n), name=f"symmetric({n})")


def elem_abelian(p: int, k: int) -> Group:
    """Elementary abelian group of order p^k on p*k points (k blocks of p-cycles)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    gens = []
    for block in range(k):
        images = list(range(p * k))
        for i in range(p):
            images[block * p + i] = block * p + (i + 1) % p
        gens.append(Permutation._make(tuple(images)))
    return Group(p * k, gens, order_hint=p**k, name=f"elemabelian({p},{k})")


def frobenius(p: int, q: int) -> Group:
    """Semidirect product of C_p by C_q acting on GF(p): x -> x+1 and x -> g x.

    Requires q to divide p - 1; q = 1 degenerates to the cyclic group C_p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if q < 1 or (p - 1) % q:
        raise ValueError(f"{q} does not divide {p} - 1")
    trans = Permutation._make(tuple((x + 1) % p for x in range(p)))
    gens = [trans]
    if q > 1:
        field = _GF(p, 1)
        g = field.least_element_of_order(q)
        gens.append(Permutation._make(tuple(g * x % p for x in range(p))))
    return Group(p, gens, order_hint=p * q, name=f"frobenius({p},{q})")


def semilinear(p: int, k: int) -> Group:
    """All maps x -> a * x^phi + b on GF(p^k), a != 0, phi a field automorphism.

    Acts on the p^k field points; order p^k * (p^k - 1) * k.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"field degree must be >= 1, got {k}")
    field = _GF(p, k)
    size = field.size
    gens = [Permutation._make(tuple(field.add(x, 1) for x in range(size)))]
    if size > 2:
        g = field.least_element_of_order(size - 1)
        gens.append(Permutation._make(tuple(field.mul(g, x) for x in range(size))))
    if k > 1:
        gens.append(Permutation._make(tuple(functools.reduce(field.mul, [x] * p) for x in range(size))))
    return Group(size, gens, order_hint=size * (size - 1) * k, name=f"semilinear({p},{k})")


# -- products ----------------------------------------------------------------


def direct_product(factors) -> Group:
    """Direct product acting on the disjoint union of the factor domains.

    The result carries the ``direct_factors`` annotation, so structural
    operations compute componentwise without materialising the product.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    degree = sum(f.degree for f in factors)
    degrees = [f.degree for f in factors]
    gens = [embed_block(degrees, i, g) for i, f in enumerate(factors) for g in f.generators]
    name = "product(" + ", ".join(f.name for f in factors) + ")"
    return Group(degree, gens, direct_factors=factors, name=name)


def wreath(base: Group, top: Group, action: str = "natural") -> Group:
    """Wreath product: base^n acted on by ``top``, imprimitively on n*deg(base) points.

    ``natural`` uses the top group's own action (n = top degree); ``regular``
    lets the top group act on its elements by right multiplication (n = |top|,
    which requires materialising the top group).  Generator construction
    always succeeds; materialising the result is a separate cap-guarded step.
    """
    if action not in ("natural", "regular"):
        raise ValueError(f"wreath action must be 'natural' or 'regular', got {action!r}")
    if action == "natural":
        n = top.degree

        def block_action(t):
            return t.images
    else:
        els = top.materialize()
        n = len(els)
        index = {e: i for i, e in enumerate(els)}

        def block_action(t):
            return tuple(index[els[j] * t] for j in range(n))

    d = base.degree
    degree = n * d

    def embed_top(t) -> Permutation:
        blocks = block_action(t)
        images = [0] * degree
        for j in range(n):
            tj = blocks[j]
            for i in range(d):
                images[j * d + i] = tj * d + i
        return Permutation._make(tuple(images))

    base_gens = [embed_block([d] * n, j, g) for j in range(n) for g in base.generators]
    top_gens = [embed_top(t) for t in top.generators]
    order = base.order**n * top.order
    name = f"wreath({base.name}, {top.name}, {action})"
    return Group(degree, base_gens + top_gens, order_hint=order, name=name)


# -- subgroups from generator words -------------------------------------------


_WORD_TERM_RE = re.compile(r"\s*g([0-9]+)\s*(?:\^\s*(-?\d+)\s*)?")


def evaluate_word(G: Group, word: str) -> Permutation:
    """Evaluate a generator word like ``g0*g1^-1`` in ``G``.

    A word is one or more terms ``g<i>`` or ``g<i>^<e>`` joined by ``*``,
    with spaces allowed between tokens.  Terms multiply left to right in the
    package's apply-left-first order.
    """
    out = identity(G.degree)
    for term in word.split("*"):
        m = _WORD_TERM_RE.fullmatch(term)
        if not m:
            raise ValueError(f"malformed generator word term: {term!r}")
        idx = int(m[1])
        if idx >= len(G.generators):
            raise ValueError(f"generator g{idx} out of range (group has {len(G.generators)})")
        out = out * G.generators[idx] ** int(m[2] or 1)
    return out


def subgroup_from_words(G: Group, words) -> Subgroup:
    """Closure of the evaluated generator words inside ``G``."""
    return Subgroup.from_generators(G, [evaluate_word(G, w) for w in words])


def _subgroup(parent: Group, words) -> Group:
    gens = [evaluate_word(parent, w) for w in words]
    name = ", ".join("".join(w.split()) for w in words)
    return Group(parent.degree, gens, name=f"subgroup({parent.name}; {name})")


# -- the GroupSpec text grammar ------------------------------------------------


class SpecError(ValueError):
    """Raised for malformed group-spec text, with a position hint."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Each constructor's function and argument form: ``n`` an integer, ``s`` a
# spec, ``+`` one or more specs as a list, ``a`` a name, ``w`` the generator
# words up to the closing parenthesis, and ``,`` or ``;`` that character.
_GRAMMAR = {
    "cyclic": (cyclic, "n"),
    "dihedral": (dihedral, "n"),
    "symmetric": (symmetric, "n"),
    "elemabelian": (elem_abelian, "n,n"),
    "frobenius": (frobenius, "n,n"),
    "semilinear": (semilinear, "n,n"),
    "product": (direct_product, "+"),
    "wreath": (wreath, "s,s,a"),
    "subgroup": (_subgroup, "s;w"),
}

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*)|(-?\d+)|(\S)|$)")
_WORDS_RE = re.compile(r"[^)]*")


class _SpecReader:
    """Reads one spec from its text, building each group as its ``)`` is read."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def peek(self) -> tuple:
        """``(kind, token, position, end)`` of the next token; its kind is
        ``name``, ``int``, the character itself, or "" at the end."""
        m = _TOKEN_RE.match(self.text, self.pos)
        i = m.lastindex or 0
        return ("", "name", "int", m[3])[i], m[i].strip(), m.start(i), m.end()

    def take(self, want: str) -> tuple:
        """Consume the next token, which must be of kind ``want``; ``(token, position)``."""
        kind, token, pos, self.pos = self.peek()
        if kind != want:
            raise SpecError(f"expected {want or 'the end'!r}, found {token or 'the end'!r}", pos)
        return token, pos

    def spec(self) -> Group:
        name, pos = self.take("name")
        if name.lower() not in _GRAMMAR:
            raise SpecError(f"unknown constructor {name!r}", pos)
        build, form = _GRAMMAR[name.lower()]
        self.take("(")
        args = []
        for item in form:
            if item in ",;":
                self.take(item)
            elif item == "n":
                args.append(int(self.take("int")[0]))
            elif item == "a":
                args.append(self.take("name")[0])
            elif item == "s":
                args.append(self.spec())
            elif item == "+":
                args.append(self.specs())
            else:
                args.append(self.words())
        self.take(")")
        try:
            return build(*args)
        except ValueError as exc:
            raise SpecError(str(exc), pos) from exc

    def specs(self) -> list:
        out = [self.spec()]
        while self.peek()[0] == ",":
            self.take(",")
            out.append(self.spec())
        return out

    def words(self) -> list:
        """The comma-separated texts up to the next ``)``, each checked by
        :func:`evaluate_word`; none when they are blank."""
        text = _WORDS_RE.match(self.text, self.pos)[0]
        self.pos += len(text)
        return text.split(",") if text.strip() else []


def parse_group_spec(text: str) -> Group:
    """Evaluate one group-spec expression, e.g. ``product(symmetric(3), dihedral(10))``.

    Grammar: ``cyclic(n)``, ``dihedral(2n)``, ``symmetric(n)``,
    ``elemabelian(p,k)``, ``frobenius(p,q)``, ``semilinear(p,k)``,
    ``product(spec, ...)``, ``wreath(base, top, natural|regular)``,
    ``subgroup(spec; w1, w2, ...)`` with words like ``g0*g1^-1``.
    """
    reader = _SpecReader(text)
    group = reader.spec()
    reader.take("")
    return group
