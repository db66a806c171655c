"""Set-functor expressions: the grammar of system types.

A functor expression fixes the branching type of a coalgebra.  The unary
collection functors (powerset, monoid-valued, distribution) always apply to
the state set implicitly, so they appear as leaves of the expression; only
product, coproduct, exponent and composition combine sub-expressions.

This module is the bottom of the package's import graph, so it also holds
Scanner, the position in a text that every parser of the package reads
through: the functor grammar here, and the readers of model rows, value
literals and formulas, which import it (the formula readers with unnest).
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

_MONOID_NAMES = {REAL: "R^(X)", INT: "Z^(X)", NAT: "N^(X)"}


# ------------------------------------------------------------- scanning

_SPACE = re.compile(r"\s*").match
_NAME = re.compile(r"\s*(\w+)").match  # letters, digits and _


class Scanner:
    """Position in a text, shared by the package's parsers.

    Each method skips whitespace first.  Errors raise the subclass's
    ``error`` class, so every parser raises only its own error."""

    def __init__(self, text):
        self.text = text
        self.i = 0

    def done(self, value):
        """value, once nothing but whitespace is left of the text."""
        self.i = _SPACE(self.text, self.i).end()
        if self.i != len(self.text):
            raise self.error("trailing input %r" % self.text[self.i:])
        return value

    # eat and try_eat look for s before skipping whitespace, the rarer case
    def eat(self, s):
        text, i = self.text, self.i
        if not text.startswith(s, i):
            i = self.i = _SPACE(text, i).end()
            if not text.startswith(s, i):
                raise self.error("expected %r at %r" % (s, text[i:]))
        self.i = i + len(s)

    def try_eat(self, s):
        text, i = self.text, self.i
        if not text.startswith(s, i):
            i = self.i = _SPACE(text, i).end()
            if not text.startswith(s, i):
                return False
        self.i = i + len(s)
        return True

    def token(self, match=_NAME):
        m = match(self.text, self.i)
        if m is None:
            raise self.error("expected a name at %r" % self.text[self.i:])
        self.i = m.end()
        return m.group(1)

    def index(self, what):
        tok = self.token()
        if not tok.isdecimal():
            raise self.error("expected %s, got %r" % (what, tok))
        return int(tok)

    def items(self, close, item):
        """item(), comma-separated, up to the bracket ``close``."""
        out = []
        if not self.try_eat(close):
            while True:
                out.append(item())
                if self.try_eat(close):
                    return out
                self.eat(",")
        return out


def unnest(parse):
    """parse() run on an explicit stack: parse is a generator function in
    which ``(yield)`` stands for a nested call of parse() and evaluates to
    its result, so nesting depth is not bounded by Python's recursion."""
    stack, value = [parse()], None
    while stack:
        try:
            stack[-1].send(value)
            stack.append(parse())  # it asked for a nested formula
            value = None
        except StopIteration as stop:  # it returned one
            stack.pop()
            value = stop.value
    return value


# ------------------------------------------------------- functor grammar

_OPERATION = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)").match
_LABEL = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+)").match  # and atoms
_TIMES = re.compile(r"\s*x(?![A-Za-z_0-9])").match  # x, not a name's prefix
_LEAVES = {"R^(X)": MonoidValued(REAL), "Z^(X)": MonoidValued(INT),
           "N^(X)": MonoidValued(NAT), "B^(X)": Powerset(),
           "D(X)": Distribution()}


MAX_DEPTH = 100  # levels of parentheses, x, +, ^{...} and '.' in a functor


class _Parser(Scanner):
    error = FunctorError
    depth = 0  # open parentheses

    def expr(self):
        # '.' (composition) binds loosest
        f = self.coprod()
        while self.try_eat("."):
            f = Composite(f, self.coprod())
        return f

    def coprod(self):
        parts = [self.prod()]
        while self.try_eat("+"):
            parts.append(self.prod())
        return parts[0] if len(parts) == 1 else Coproduct(tuple(parts))

    def prod(self):
        parts = [self.postfix()]
        while _TIMES(self.text, self.i):
            self.eat("x")
            parts.append(self.postfix())
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def postfix(self):
        f = self.atom()
        while self.try_eat("^{"):
            f = Exponent(f, self.labels())
        return f

    def labels(self):
        """Distinct labels or atoms, comma-separated up to '}'."""
        out = self.items("}", lambda: self.token(_LABEL))
        if not out or len(set(out)) != len(out):
            raise FunctorError("expected distinct names, got %r" % (out,))
        return tuple(out)

    def operation(self):
        name = self.token(_OPERATION)
        self.eat("/")
        return name, self.index("an arity")

    def atom(self):
        if self.try_eat("("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise FunctorError("functor nested too deeply")
            f = self.expr()
            self.eat(")")
            self.depth -= 1
            return f
        for text, leaf in _LEAVES.items():
            if self.try_eat(text):
                return leaf
        name = self.token(_OPERATION)
        if name == "X":
            return Identity()
        if name == "P":
            return Powerset()
        if name == "C":
            self.eat("{")
            return Constant(self.labels())
        if name == "Sig":
            self.eat("(")
            ops = self.items(")", self.operation)
            if not ops or len(dict(ops)) != len(ops):
                raise FunctorError("expected distinct operations, got %r"
                                   % (ops,))
            return Signature(tuple(ops))
        raise FunctorError("unexpected %r in functor %r" % (name, self.text))


def parse_functor(text):
    """Parse a functor expression from its concrete syntax; it may nest
    MAX_DEPTH levels deep."""
    p = _Parser(text)
    f = p.done(p.expr())
    if max(depth for _g, depth in _levels(f)) > MAX_DEPTH:
        raise FunctorError("functor nested too deeply")
    return f


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
        return "%s^{%s}" % (pretty_functor(f.base, 3), ",".join(f.labels))
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


def _levels(f):
    """(g, depth) for f, at depth 1, and each subexpression g, in preorder,
    walked on an explicit stack."""
    stack = [(f, 1)]
    while stack:
        g, depth = stack.pop()
        yield g, depth
        parts = (g.parts if isinstance(g, (Product, Coproduct))
                 else (g.base,) if isinstance(g, Exponent)
                 else (g.outer, g.inner) if isinstance(g, Composite) else ())
        stack += [(h, depth + 1) for h in reversed(parts)]


def subfunctors(f):
    return (g for g, _depth in _levels(f))


def is_zippable(f):
    """Whether the refinement engine handles this functor directly.

    Returns (ok, reason).  Composition is the one grammar construct that
    breaks the property; it must be unfolded into a many-sorted coalgebra
    first, as coalgebra.parse_coalgebra does."""
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
