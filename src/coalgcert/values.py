"""Elements of F(Y) and the functorial action F(g).

A structure term (coalgebra.py) is an element of F(states); applying the
functor to a colouring of the states gives an element of F(k) for a
palette size k.  Both are written in one encoding, so F(g) is a single
function, fmap, for every map g.  F(k) values are the split keys of the
refiner and the labels of modal operators; they are hashable, canonical
and printable.  Encoding (tagged tuples), with a state or a colour at
every identity position:

    int                              identity position
    ('set', (c1, c2, ...))           powerset layer, sorted, no dups
    ('vec', ((c, w), ...))           monoid or distribution weights, sorted
                                     by colour, zero weights dropped
    ('op', name, (c1, ..., cn))      signature operation
    ('tuple', (v1, ..., vn))         product
    ('in', i, v)                     coproduct injection, 0-based internally
    ('fun', (v_a, v_b, ...))         exponent, one value per label in order
    ('atom', name)                   constant

Value literals use the syntax of model rows, with colours at identity
positions and dense weights ``(w0, w1, ...)``, which is also how
pretty_value prints them.  ShapeReader reads both, and its mirror
ShapeWriter writes both, for pretty_value and coalgebra.pretty_model.
ShapeReader is a Scanner, the scanner of every parser in the package;
Scanner lives in functor.py, whose grammar is its first user, and is
imported here for the other parsers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .functor import (
    Constant, Coproduct, Distribution, Exponent, FunctorError,
    Identity, MonoidValued, Powerset, Product, Scanner, Signature,
    pretty_functor,
)


class ValueError_(FunctorError):
    pass


def fmap(t, g):
    """F(g)(t) for the map g (anything indexable: a list, a dict) from the
    states or colours at t's identity positions to colours.  Sets are re-sorted without
    duplicates; weights that land on one colour are summed, zeros dropped."""
    if type(t) is int:
        return g[t]
    tag = t[0]
    if tag == "set":
        return ("set", tuple(sorted({g[x] for x in t[1]})))
    if tag == "vec":
        acc = {}
        for x, w in t[1]:
            c = g[x]
            acc[c] = acc[c] + w if c in acc else w
        return ("vec", tuple(sorted((c, w) for c, w in acc.items() if w)))
    if tag == "op":
        return ("op", t[1], tuple([g[x] for x in t[2]]))
    if tag == "tuple" or tag == "fun":
        return (tag, tuple([fmap(u, g) for u in t[1]]))
    if tag == "in":
        return ("in", t[1], fmap(t[2], g))
    return t  # ('atom', name)


def parse_rational(text, error=ValueError_):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise error("bad rational %r: %s" % (text, e)) from None


# ------------------------------------------------------ concrete syntax

_NUMBER = re.compile(r"\s*([\w/.-]+)").match  # a rational: 3, -1/2, 0.25


class ShapeReader(Scanner):
    """Functor-directed reader of the syntax that structure terms and value
    literals share: products ``(t, u)``, injections ``in1(t)``, exponents
    ``[a: t, b: u]``, constants, signature terms ``f(x, y)`` and sets
    ``{x, y}``.  A subclass supplies ``slot()``, which reads an identity
    position (a state or a colour), and ``weights(f)``, a weight layer."""

    def rational(self):
        return parse_rational(self.token(_NUMBER), self.error)

    def labelled(self, f):
        lab = self.token()
        self.eat(":")
        return lab, self.read(f)

    def read(self, f):
        if isinstance(f, Identity):
            return self.slot()
        if isinstance(f, Powerset):
            self.eat("{")
            xs = self.items("}", self.slot)
            if len(set(xs)) != len(xs):
                raise self.error("duplicate element in set %r" % self.text)
            return ("set", tuple(sorted(xs)))
        if isinstance(f, (MonoidValued, Distribution)):
            return self.weights(f)
        if isinstance(f, Signature):
            name = self.token()
            ar = dict(f.ops).get(name)
            if ar is None:
                raise self.error("unknown operation %r" % name)
            args = self.items(")", self.slot) if self.try_eat("(") else []
            if len(args) != ar:
                raise self.error("operation %s expects %d arguments" % (name, ar))
            return ("op", name, tuple(args))
        if isinstance(f, Product):
            self.eat("(")
            parts = []
            for j, p in enumerate(f.parts):
                if j:
                    self.eat(",")
                parts.append(self.read(p))
            self.eat(")")
            return ("tuple", tuple(parts))
        if isinstance(f, Coproduct):
            self.eat("in")
            idx = self.index("an injection number") - 1
            if not 0 <= idx < len(f.parts):
                raise self.error("injection in%d out of range" % (idx + 1))
            self.eat("(")
            v = self.read(f.parts[idx])
            self.eat(")")
            return ("in", idx, v)
        if isinstance(f, Exponent):
            self.eat("[")
            by_label = {}
            for lab, v in self.items("]", lambda: self.labelled(f.base)):
                if lab not in f.labels or lab in by_label:
                    raise self.error("unknown or repeated label %r" % lab)
                by_label[lab] = v
            if len(by_label) != len(f.labels):
                raise self.error("exponent must give every label of %s"
                                 % (f.labels,))
            return ("fun", tuple(by_label[lab] for lab in f.labels))
        if isinstance(f, Constant):
            name = self.token()
            if name not in f.atoms:
                raise self.error("unknown atom %r" % name)
            return ("atom", name)
        raise self.error("cannot read functor %s" % pretty_functor(f))


class ShapeWriter:
    """Writer of the syntax ShapeReader reads, its mirror.  slot(x) is the
    text of an identity position, weights(entries) that of a weight layer's
    ((x, w), ...) entries, and sep separates the items of products, sets
    and operation arguments; exponents always separate with ", "."""

    def __init__(self, slot, weights, sep):
        self.slot, self.weights, self.sep = slot, weights, sep

    def write(self, f, t):
        if type(t) is int:
            return self.slot(t)
        tag = t[0]
        if tag == "set":
            return "{%s}" % self.sep.join(map(self.slot, t[1]))
        if tag == "vec":
            return self.weights(t[1])
        if tag == "op":
            if not t[2]:
                return t[1]
            return "%s(%s)" % (t[1], self.sep.join(map(self.slot, t[2])))
        if tag == "tuple":
            return "(%s)" % self.sep.join(
                [self.write(p, u) for p, u in zip(f.parts, t[1])])
        if tag == "in":
            return "in%d(%s)" % (t[1] + 1, self.write(f.parts[t[1]], t[2]))
        if tag == "fun":
            return "[%s]" % ", ".join(
                ["%s: %s" % (lab, self.write(f.base, u))
                 for lab, u in zip(f.labels, t[1])])
        return t[1]  # ('atom', name)


def pretty_value(f, v, k):
    """Print a value of F(k) in the concrete syntax of modal labels."""
    def dense(entries):
        ws = dict(entries)
        return "(%s)" % ",".join([str(ws.get(c, 0)) for c in range(k)])
    return ShapeWriter(str, dense, ",").write(f, v)


class _ValueReader(ShapeReader):
    """Value literals over a palette of k colours; weights are dense, and
    read into sparse ('vec', ((c, w), ...)) layers."""

    error = ValueError_

    def __init__(self, text, k):
        super().__init__(text)
        self.k = k

    def slot(self):
        c = self.index("a colour")
        if not 0 <= c < self.k:
            raise ValueError_("colour %d out of palette %d" % (c, self.k))
        return c

    def weights(self, f):
        self.eat("(")
        ws = self.items(")", self.rational)
        if len(ws) != self.k:
            raise ValueError_(
                "weight vector has %d entries, palette is %d" % (len(ws), self.k))
        return ("vec", tuple((c, w) for c, w in enumerate(ws) if w))


def parse_value(text, f, k):
    """Parse a value literal for functor f over palette k."""
    r = _ValueReader(text, k)
    return r.done(r.read(f))


def validate_value(f, v, k):
    """Check that v is a well-formed canonical value of F(k)."""
    if isinstance(f, Identity):
        return isinstance(v, int) and 0 <= v < k
    if not isinstance(v, tuple):
        return False
    if isinstance(f, Powerset):
        return (v[0] == "set" and list(v[1]) == sorted(set(v[1]))
                and all(0 <= c < k for c in v[1]))
    if isinstance(f, (MonoidValued, Distribution)):
        return (v[0] == "vec" and all(0 <= c < k and w for c, w in v[1])
                and list(v[1]) == sorted(dict(v[1]).items()))
    if isinstance(f, Signature):
        return (v[0] == "op" and f.arity(v[1]) == len(v[2])
                and all(0 <= c < k for c in v[2]))
    if isinstance(f, Product):
        return (v[0] == "tuple" and len(v[1]) == len(f.parts)
                and all(validate_value(p, x, k) for p, x in zip(f.parts, v[1])))
    if isinstance(f, Coproduct):
        return (v[0] == "in" and 0 <= v[1] < len(f.parts)
                and validate_value(f.parts[v[1]], v[2], k))
    if isinstance(f, Exponent):
        return (v[0] == "fun" and len(v[1]) == len(f.labels)
                and all(validate_value(f.base, x, k) for x in v[1]))
    if isinstance(f, Constant):
        return v[0] == "atom" and v[1] in f.atoms
    return False
