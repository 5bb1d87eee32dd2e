"""Deterministic constructors for the group species used across the package.

All constructors act on small point sets (disjoint-union actions for
products) rather than regular representations, so degrees stay proportional
to the construction parameters even when orders explode.  Each constructor
declares its closed-form order, which the element store verifies on
materialisation.
"""

from __future__ import annotations

import math
import re

from .group import Group, Subgroup, embed_block
from .numth import is_prime
from .perm import Permutation, identity


# -- finite fields ----------------------------------------------------------


class _GF:
    """GF(p^k) on labels 0..p^k-1, little-endian base-p coefficient vectors.

    The modulus is the least monic irreducible polynomial of degree k in the
    same encoding, so the construction is reproducible.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = self._least_irreducible()

    def _decode(self, n: int) -> list:
        coeffs = []
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return coeffs

    def _encode(self, coeffs) -> int:
        n = 0
        for c in reversed(list(coeffs)):
            n = n * self.p + (c % self.p)
        return n

    def _poly_mod(self, coeffs, modulus):
        coeffs = list(coeffs)
        dm = len(modulus) - 1
        for i in range(len(coeffs) - 1, dm - 1, -1):
            factor = coeffs[i]
            if factor:
                inv_lead = pow(modulus[dm], -1, self.p)
                scale = factor * inv_lead % self.p
                for j, m in enumerate(modulus):
                    coeffs[i - dm + j] = (coeffs[i - dm + j] - scale * m) % self.p
        return coeffs[:dm]

    def _least_irreducible(self):
        if self.k == 1:
            return [0, 1]
        # Monic degree-k polynomials in ascending constant-part encoding.
        for tail in range(self.size):
            poly = self._decode(tail) + [1]
            if self._is_irreducible(poly):
                return poly
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def _is_irreducible(self, poly) -> bool:
        k = len(poly) - 1
        for deg in range(1, k // 2 + 1):
            for tail in range(self.p**deg):
                divisor = self._decode(tail)[:deg] + [1]
                if self._divides(divisor, poly):
                    return False
        return True

    def _divides(self, divisor, poly) -> bool:
        rem = list(poly)
        dd = len(divisor) - 1
        while len(rem) - 1 >= dd:
            lead = rem[-1]
            if lead:
                for j, m in enumerate(divisor):
                    rem[len(rem) - 1 - dd + j] = (rem[len(rem) - 1 - dd + j] - lead * m) % self.p
            rem.pop()
        return all(c == 0 for c in rem)

    def add(self, a: int, b: int) -> int:
        ca, cb = self._decode(a), self._decode(b)
        return self._encode((x + y) % self.p for x, y in zip(ca, cb))

    def mul(self, a: int, b: int) -> int:
        ca, cb = self._decode(a), self._decode(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._encode(self._poly_mod(prod, self.modulus))

    def pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        x, n = a, 1
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def least_element_of_order(self, q: int) -> int:
        for a in range(1, self.size):
            if self.multiplicative_order(a) == q:
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
        gens.append(Permutation._make(tuple(field.pow(x, p) for x in range(size))))
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
    order = math.prod(f.order for f in factors)
    name = "product(" + ", ".join(f.name for f in factors) + ")"
    return Group(degree, gens, order_hint=order, direct_factors=factors, name=name)


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


_WORD_TERM_RE = re.compile(r"g(\d+)(?:\^(-?\d+))?$")


def evaluate_word(G: Group, word: str) -> Permutation:
    """Evaluate a generator word like ``g0*g1^-1`` in ``G``.

    Terms multiply left to right in the package's apply-left-first order.
    """
    out = identity(G.degree)
    word = word.replace(" ", "")
    if not word:
        return out
    for term in word.split("*"):
        m = _WORD_TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed generator word term: {term!r}")
        idx = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if idx >= len(G.generators):
            raise ValueError(f"generator g{idx} out of range (group has {len(G.generators)})")
        out = out * G.generators[idx] ** exp
    return out


def subgroup_from_words(G: Group, words) -> Subgroup:
    """Closure of the evaluated generator words inside ``G``."""
    return Subgroup.from_generators(G, [evaluate_word(G, w) for w in words])


# -- the GroupSpec text grammar ------------------------------------------------


class SpecError(ValueError):
    """Raised for malformed group-spec text, with a position hint."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SPEC_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9]*)|(-?\d+)|([(),;*^]))")


def _tokenize_spec(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _SPEC_TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise SpecError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1):
            tokens.append(("name", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("int", int(m.group(2)), m.start(2)))
        else:
            tokens.append(("punct", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize_spec(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise SpecError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Group:
        g = self.parse_spec()
        tok = self.peek()
        if tok[0] != "eof":
            raise SpecError(f"trailing input {tok[1]!r}", tok[2])
        return g

    def parse_spec(self) -> Group:
        kind, name, pos = self.next()
        if kind != "name":
            raise SpecError(f"expected a constructor name, found {name!r}", pos)
        name = name.lower()
        self.expect("punct", "(")
        if name == "cyclic":
            g = cyclic(self.parse_int())
        elif name == "dihedral":
            g = dihedral(self.parse_int())
        elif name == "symmetric":
            g = symmetric(self.parse_int())
        elif name == "elemabelian":
            p = self.parse_int()
            self.expect("punct", ",")
            g = elem_abelian(p, self.parse_int())
        elif name == "frobenius":
            p = self.parse_int()
            self.expect("punct", ",")
            g = frobenius(p, self.parse_int())
        elif name == "semilinear":
            p = self.parse_int()
            self.expect("punct", ",")
            g = semilinear(p, self.parse_int())
        elif name == "product":
            factors = [self.parse_spec()]
            while self.peek()[1] == ",":
                self.next()
                factors.append(self.parse_spec())
            g = direct_product(factors)
        elif name == "wreath":
            base = self.parse_spec()
            self.expect("punct", ",")
            top = self.parse_spec()
            self.expect("punct", ",")
            kind, action, pos = self.next()
            if kind != "name" or action not in ("natural", "regular"):
                raise SpecError("wreath action must be natural or regular", pos)
            g = wreath(base, top, action)
        elif name == "subgroup":
            parent = self.parse_spec()
            self.expect("punct", ";")
            words = []
            if self.peek()[1] != ")":
                words.append(self.parse_word())
                while self.peek()[1] == ",":
                    self.next()
                    words.append(self.parse_word())
            g = Group(
                parent.degree,
                [evaluate_word(parent, w) for w in words],
                name=f"subgroup({parent.name}; {', '.join(words)})",
            )
        else:
            raise SpecError(f"unknown constructor {name!r}", pos)
        self.expect("punct", ")")
        return g

    def parse_int(self) -> int:
        tok = self.next()
        if tok[0] != "int":
            raise SpecError(f"expected an integer, found {tok[1]!r}", tok[2])
        return tok[1]

    def parse_word(self) -> str:
        # Words are re-serialised to text and evaluated by evaluate_word.
        parts = []
        while True:
            kind, value, pos = self.next()
            if kind != "name" or not re.fullmatch(r"g\d+", value):
                raise SpecError(f"expected a generator term like g0, found {value!r}", pos)
            term = value
            if self.peek()[1] == "^":
                self.next()
                tok = self.next()
                if tok[0] != "int":
                    raise SpecError(f"expected an exponent, found {tok[1]!r}", tok[2])
                term += f"^{tok[1]}"
            parts.append(term)
            if self.peek()[1] == "*":
                self.next()
                continue
            return "*".join(parts)


def parse_group_spec(text: str) -> Group:
    """Evaluate one group-spec expression, e.g. ``product(symmetric(3), dihedral(10))``.

    Grammar: ``cyclic(n)``, ``dihedral(2n)``, ``symmetric(n)``,
    ``elemabelian(p,k)``, ``frobenius(p,q)``, ``semilinear(p,k)``,
    ``product(spec, ...)``, ``wreath(base, top, natural|regular)``,
    ``subgroup(spec; w1, w2, ...)`` with words like ``g0*g1^-1``.
    """
    return _SpecParser(text).parse()
