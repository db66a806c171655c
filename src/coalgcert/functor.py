"""Set-functor expressions: the grammar of system types.

A functor expression fixes the branching type of a coalgebra.  The unary
collection functors (powerset, monoid-valued, distribution) always apply to
the state set implicitly, so they appear as leaves of the expression; only
product, coproduct, exponent and composition combine sub-expressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class FunctorError(ValueError):
    pass


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Constant:
    atoms: tuple[str, ...]


@dataclass(frozen=True)
class Powerset:
    pass


# monoid kinds; B^(X), the boolean monoid, is read as P
REAL, INT, NAT = "real", "int", "nat"


@dataclass(frozen=True)
class MonoidValued:
    kind: str  # real | int | nat


@dataclass(frozen=True)
class Distribution:
    pass


@dataclass(frozen=True)
class Signature:
    ops: tuple[tuple[str, int], ...]  # (name, arity)

    def arity(self, name):
        for op, ar in self.ops:
            if op == name:
                return ar
        raise FunctorError("unknown operation %r" % name)


@dataclass(frozen=True)
class Product:
    parts: tuple


@dataclass(frozen=True)
class Coproduct:
    parts: tuple


@dataclass(frozen=True)
class Exponent:
    base: "FunctorExpr"
    labels: tuple[str, ...]


@dataclass(frozen=True)
class Composite:
    outer: "FunctorExpr"
    inner: "FunctorExpr"


FunctorExpr = (
    Identity | Constant | Powerset | MonoidValued | Distribution
    | Signature | Product | Coproduct | Exponent | Composite
)

_MONOID_TOKENS = {"R^(X)": REAL, "Z^(X)": INT, "N^(X)": NAT}
_MONOID_NAMES = {REAL: "R^(X)", INT: "Z^(X)", NAT: "N^(X)"}

_TOKEN_RE = re.compile(
    r"\s*(R\^\(X\)|Z\^\(X\)|N\^\(X\)|B\^\(X\)|D\(X\)|Sig\b|[A-Za-z_][A-Za-z_0-9]*"
    r"|\d+|\^\{|[(){},+./]|\^)"
)


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise FunctorError("bad character %r at position %d" % (text[pos], pos))
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    out.append((None, len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise FunctorError(
                "expected %r, got %r in functor %r" % (tok, got, self.text))
        return got

    def parse(self):
        f = self.expr()
        if self.peek() is not None:
            raise FunctorError(
                "trailing input %r in functor %r" % (self.peek(), self.text))
        return f

    def expr(self):
        # '.' (composition) binds loosest
        f = self.coprod()
        while self.peek() == ".":
            self.next()
            f = Composite(f, self.coprod())
        return f

    def coprod(self):
        parts = [self.prod()]
        while self.peek() == "+":
            self.next()
            parts.append(self.prod())
        return parts[0] if len(parts) == 1 else Coproduct(tuple(parts))

    def prod(self):
        parts = [self.postfix()]
        while self.peek() == "x":
            self.next()
            parts.append(self.postfix())
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def postfix(self):
        f = self.atom()
        while self.peek() == "^{":
            self.next()
            labels = self.ident_list("}")
            f = Exponent(f, labels)
        return f

    def ident_list(self, closer):
        names = []
        while True:
            tok = self.next()
            if tok is None or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*|\d+", tok):
                raise FunctorError("expected name, got %r" % (tok,))
            names.append(tok)
            tok = self.next()
            if tok == closer:
                break
            if tok != ",":
                raise FunctorError("expected ',' or %r, got %r" % (closer, tok))
        if len(set(names)) != len(names):
            raise FunctorError("duplicate name in %r" % (names,))
        return tuple(names)

    def atom(self):
        tok = self.next()
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok == "X":
            return Identity()
        if tok == "P" or tok == "B^(X)":
            return Powerset()
        if tok == "D(X)":
            return Distribution()
        if tok in _MONOID_TOKENS:
            return MonoidValued(_MONOID_TOKENS[tok])
        if tok == "C":
            self.expect("{")
            return Constant(self.ident_list("}"))
        if tok == "Sig":
            self.expect("(")
            ops = []
            while True:
                name = self.next()
                if name is None or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                    raise FunctorError("expected operation name, got %r" % (name,))
                self.expect("/")
                ar = self.next()
                if ar is None or not ar.isdigit():
                    raise FunctorError("expected arity, got %r" % (ar,))
                ops.append((name, int(ar)))
                tok = self.next()
                if tok == ")":
                    break
                if tok != ",":
                    raise FunctorError("expected ',' or ')', got %r" % (tok,))
            if len({n for n, _ in ops}) != len(ops):
                raise FunctorError("duplicate operation name")
            return Signature(tuple(ops))
        raise FunctorError("unexpected token %r in functor %r" % (tok, self.text))


def parse_functor(text):
    """Parse a functor expression from its concrete syntax."""
    return _Parser(text).parse()


def pretty_functor(f, _prec=0):
    """Render a functor expression; parse_functor round-trips the result."""
    # precedence levels: 0 composition, 1 coproduct, 2 product, 3 postfix/atom
    if isinstance(f, Identity):
        return "X"
    if isinstance(f, Powerset):
        return "P"
    if isinstance(f, Distribution):
        return "D(X)"
    if isinstance(f, MonoidValued):
        return _MONOID_NAMES[f.kind]
    if isinstance(f, Constant):
        return "C{%s}" % ",".join(f.atoms)
    if isinstance(f, Signature):
        return "Sig(%s)" % ", ".join("%s/%d" % op for op in f.ops)
    if isinstance(f, Exponent):
        s = "%s^{%s}" % (pretty_functor(f.base, 3), ",".join(f.labels))
        return s
    if isinstance(f, Product):
        s = " x ".join(pretty_functor(p, 3) for p in f.parts)
        return "(%s)" % s if _prec >= 3 else s
    if isinstance(f, Coproduct):
        s = " + ".join(pretty_functor(p, 2) for p in f.parts)
        return "(%s)" % s if _prec >= 2 else s
    if isinstance(f, Composite):
        s = "%s . %s" % (pretty_functor(f.outer, 1), pretty_functor(f.inner, 1))
        return "(%s)" % s if _prec >= 1 else s
    raise FunctorError("unknown functor node %r" % (f,))


def subfunctors(f):
    yield f
    if isinstance(f, (Product, Coproduct)):
        for p in f.parts:
            yield from subfunctors(p)
    elif isinstance(f, Exponent):
        yield from subfunctors(f.base)
    elif isinstance(f, Composite):
        yield from subfunctors(f.outer)
        yield from subfunctors(f.inner)


def is_zippable(f):
    """Whether the refinement engine handles this functor directly.

    Returns (ok, reason).  Composition is the one grammar construct that
    breaks the property; it must be unfolded into a many-sorted coalgebra
    first (see desugar_composite)."""
    for g in subfunctors(f):
        if isinstance(g, Composite):
            return False, "composition is not zippable; unfold it first"
    return True, "built from zippable constructors (polynomial, powerset, " \
                 "monoid-valued, distribution) closed under x, +, exponents"


def is_cancellative(f):
    """Whether one-sided splitting is sound for this functor.

    True for functors whose collection layers are valued in cancellative
    monoids (weights over R, Z, N, and probabilities); false as soon as a
    powerset layer occurs anywhere."""
    for g in subfunctors(f):
        if isinstance(g, Composite):
            raise FunctorError("unfold composition before querying cancellativity")
        if isinstance(g, Powerset):
            return False
    return True


def composite_spine(f):
    """Flatten nested composition into an outermost-first layer list."""
    if isinstance(f, Composite):
        return composite_spine(f.outer) + composite_spine(f.inner)
    return [f]
