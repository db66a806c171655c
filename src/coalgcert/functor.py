"""Set-functor expressions: the grammar of system types.

A functor expression fixes the branching type of a coalgebra.  The unary
collection functors (powerset, monoid-valued, distribution) always apply to
the state set implicitly, so they appear as leaves of the expression; only
product, coproduct, exponent and composition combine sub-expressions.
Each constructor is a frozen dataclass that holds all its behaviour (see
FunctorExpr), so the functions at the end of the module test no class.

This module is the bottom of the package's import graph, so it also holds
Scanner, the position in a text that every parser of the package reads
through: the functor grammar here, and the readers of model rows, value
literals and formulas, which import it (the formula readers with unnest).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class FunctorError(ValueError):
    pass


class FunctorExpr:
    """A functor constructor: parts are its sub-expressions, text(prec) its
    syntax at precedence prec (0 '.', 1 '+', 2 'x', 3 '^{}' and atoms),
    random(draw) a term for oracle.generate, and reader(sc, slot, weights)
    a function reading a term at the Scanner sc's position: slot() reads an
    identity position, weights(g, slot) compiles weight layer g.  Only
    composition is not zippable or drawn, only powerset not cancellative."""

    parts = ()  # leaves
    zippable = cancellative = True


@dataclass(frozen=True)
class Identity(FunctorExpr):
    def text(self, prec):
        return "X"

    def reader(self, sc, slot, weights):
        return slot

    def random(self, draw):
        return draw.state()


@dataclass(frozen=True)
class Constant(FunctorExpr):
    atoms: tuple[str, ...]

    def text(self, prec):
        return "C{%s}" % ",".join(self.atoms)

    def reader(self, sc, slot, weights):
        def read():
            name = sc.token()
            if name not in self.atoms:
                raise sc.error("unknown atom %r" % name)
            return ("atom", name)
        return read

    def random(self, draw):
        return ("atom", self.atoms[draw.rng.randrange(len(self.atoms))])


@dataclass(frozen=True)
class Powerset(FunctorExpr):
    cancellative = False

    def text(self, prec):
        return "P"

    def reader(self, sc, slot, weights):
        def read():
            sc.eat("{")
            xs = sc.items("}", slot)
            if len(set(xs)) != len(xs):
                raise sc.error("duplicate element in set %r" % sc.text)
            return ("set", tuple(sorted(xs)))
        return read

    def random(self, draw):
        return ("set", tuple(draw.targets()))


# monoid kinds; B^(X), the boolean monoid, is read as P
REAL, INT, NAT = "real", "int", "nat"


@dataclass(frozen=True)
class MonoidValued(FunctorExpr):
    kind: str  # real | int | nat

    def text(self, prec):
        return {REAL: "R^(X)", INT: "Z^(X)", NAT: "N^(X)"}[self.kind]

    def reader(self, sc, slot, weights):
        return weights(self, slot)

    def random(self, draw):
        return ("vec", tuple((y, draw.weight(self.kind))
                             for y in draw.targets()))


@dataclass(frozen=True)
class Distribution(FunctorExpr):
    def text(self, prec):
        return "D(X)"

    def reader(self, sc, slot, weights):
        return weights(self, slot)

    def random(self, draw):
        ys = draw.targets() or [draw.state()]
        raw = [draw.rng.randint(1, 6) for _ in ys]
        total = sum(raw)
        return ("vec", tuple((y, Fraction(r, total))
                             for y, r in zip(ys, raw)))


@dataclass(frozen=True)
class Signature(FunctorExpr):
    ops: tuple[tuple[str, int], ...]  # (name, arity)

    def text(self, prec):
        return "Sig(%s)" % ", ".join("%s/%d" % op for op in self.ops)

    def reader(self, sc, slot, weights):
        def read():
            name = sc.token()
            ar = dict(self.ops).get(name)
            if ar is None:
                raise sc.error("unknown operation %r" % name)
            args = sc.items(")", slot) if sc.try_eat("(") else []
            if len(args) != ar:
                raise sc.error("operation %s expects %d arguments"
                               % (name, ar))
            return ("op", name, tuple(args))
        return read

    def random(self, draw):
        name, ar = self.ops[draw.rng.randrange(len(self.ops))]
        return ("op", name, tuple(draw.state() for _ in range(ar)))


@dataclass(frozen=True)
class Product(FunctorExpr):
    parts: tuple

    def text(self, prec):
        s = " x ".join(p.text(3) for p in self.parts)
        return "(%s)" % s if prec >= 3 else s

    def reader(self, sc, slot, weights):
        parts = [p.reader(sc, slot, weights) for p in self.parts]

        def read():
            sc.eat("(")
            out = []
            for j, part in enumerate(parts):
                if j:
                    sc.eat(",")
                out.append(part())
            sc.eat(")")
            return ("tuple", tuple(out))
        return read

    def random(self, draw):
        return ("tuple", tuple(p.random(draw) for p in self.parts))


@dataclass(frozen=True)
class Coproduct(FunctorExpr):
    parts: tuple

    def text(self, prec):
        s = " + ".join(p.text(2) for p in self.parts)
        return "(%s)" % s if prec >= 2 else s

    def reader(self, sc, slot, weights):
        parts = [p.reader(sc, slot, weights) for p in self.parts]

        def read():
            sc.eat("in")
            idx = sc.index("an injection number") - 1
            if not 0 <= idx < len(parts):
                raise sc.error("injection in%d out of range" % (idx + 1))
            sc.eat("(")
            v = parts[idx]()
            sc.eat(")")
            return ("in", idx, v)
        return read

    def random(self, draw):
        i = draw.rng.randrange(len(self.parts))
        return ("in", i, self.parts[i].random(draw))


@dataclass(frozen=True)
class Exponent(FunctorExpr):
    base: FunctorExpr
    labels: tuple[str, ...]
    parts = property(lambda self: (self.base,))

    def text(self, prec):
        return "%s^{%s}" % (self.base.text(3), ",".join(self.labels))

    def reader(self, sc, slot, weights):
        base = self.base.reader(sc, slot, weights)

        def labelled():
            lab = sc.token()
            sc.eat(":")
            return lab, base()

        def read():
            sc.eat("[")
            by_label = {}
            for lab, v in sc.items("]", labelled):
                if lab not in self.labels or lab in by_label:
                    raise sc.error("unknown or repeated label %r" % lab)
                by_label[lab] = v
            if len(by_label) != len(self.labels):
                raise sc.error("exponent must give every label of %s"
                               % (self.labels,))
            return ("fun", tuple([by_label[lab] for lab in self.labels]))
        return read

    def random(self, draw):
        return ("fun", tuple(self.base.random(draw) for _ in self.labels))


@dataclass(frozen=True)
class Composite(FunctorExpr):
    outer: FunctorExpr
    inner: FunctorExpr
    parts = property(lambda self: (self.outer, self.inner))
    zippable = False

    def text(self, prec):
        s = "%s . %s" % (self.outer.text(1), self.inner.text(1))
        return "(%s)" % s if prec >= 1 else s

    def reader(self, sc, slot, weights):
        def read():  # only the model reader unfolds composition
            raise sc.error("cannot read functor %s" % self.text(0))
        return read


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


def pretty_functor(f):
    """Render a functor expression; parse_functor round-trips the result."""
    return f.text(0)


def _levels(f):
    """(g, depth) for f, at depth 1, and each subexpression g, in preorder,
    walked on an explicit stack."""
    stack = [(f, 1)]
    while stack:
        g, depth = stack.pop()
        yield g, depth
        stack += [(h, depth + 1) for h in reversed(g.parts)]


def subfunctors(f):
    return (g for g, _depth in _levels(f))


def is_zippable(f):
    """Whether the refinement engine handles this functor directly.

    Returns (ok, reason).  Composition is the one grammar construct that
    breaks the property; it must be unfolded into a many-sorted coalgebra
    first, as coalgebra.parse_coalgebra does."""
    for g in subfunctors(f):
        if not g.zippable:
            return False, "composition is not zippable; unfold it first"
    return True, "built from zippable constructors (polynomial, powerset, " \
                 "monoid-valued, distribution) closed under x, +, exponents"


def is_cancellative(f):
    """Whether one-sided splitting is sound for this functor.

    True for functors whose collection layers are valued in cancellative
    monoids (weights over R, Z, N, and probabilities); false as soon as a
    powerset layer occurs anywhere."""
    for g in subfunctors(f):
        if not g.zippable:
            raise FunctorError("unfold composition before querying cancellativity")
        if not g.cancellative:
            return False
    return True


def composite_spine(f):
    """Flatten nested composition into an outermost-first layer list: the
    parts of a composition, the one constructor not zippable, are layers."""
    if f.zippable:
        return [f]
    return [g for h in f.parts for g in composite_spine(h)]
