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
positions and dense weights ``(w0, w1, ...)``, as pretty_value prints
them.  shape_reader compiles a functor once, through one entry per
constructor in _SHAPES, into closures that read its terms: for
parse_value, validate_value and the model reader (coalgebra.py), which
read weights as ints (p, q) and build a Fraction only for a kept weight.
ShapeWriter writes the syntax back.  Scanner lives in functor.py, whose
grammar is its first user, and is imported here for the other parsers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .functor import (
    Composite, Constant, Coproduct, Distribution, Exponent, FunctorError,
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


# ------------------------------------------------------------- rationals

_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
_NUMBER = re.compile(r"\s*([\w/.-]+)").match  # a rational: 3, -1/2, 0.25


def ratio(text, error=ValueError_):
    """The rational text spells, as ints (p, q) with q > 0, not always in
    lowest terms: int reads integers and integer fractions, Fraction any
    other text.  Every 'bad rational' error comes from here."""
    m = _RATIO(text)
    if m is not None and int(m[2] or 1):
        return int(m[1]), int(m[2] or 1)
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise error("bad rational %r: %s" % (text, e)) from None
    return r.numerator, r.denominator


def parse_rational(text, error=ValueError_):
    return Fraction(*ratio(text, error))


def read_ratio(sc):
    """The rational token at the Scanner sc's position, as ratio reads it."""
    return ratio(sc.token(_NUMBER), sc.error)


# ------------------------------------------------------ concrete syntax

def shape_reader(f, sc, slot, weights):
    """Compile the functor f into a function that reads one term of f at
    the Scanner sc's position, in the syntax of terms and value literals:
    products ``(t, u)``, injections ``in1(t)``, exponents ``[a: t, b: u]``,
    constants, signature terms ``f(x, y)`` and sets ``{x, y}``.  slot()
    reads an identity position, weights(g, slot) compiles weight layer g."""
    return _SHAPES[type(f)](f, sc, slot, weights)


def _read_set(f, sc, slot, weights):
    def read():
        sc.eat("{")
        xs = sc.items("}", slot)
        if len(set(xs)) != len(xs):
            raise sc.error("duplicate element in set %r" % sc.text)
        return ("set", tuple(sorted(xs)))
    return read


def _read_op(f, sc, slot, weights):
    def read():
        name = sc.token()
        ar = dict(f.ops).get(name)
        if ar is None:
            raise sc.error("unknown operation %r" % name)
        args = sc.items(")", slot) if sc.try_eat("(") else []
        if len(args) != ar:
            raise sc.error("operation %s expects %d arguments" % (name, ar))
        return ("op", name, tuple(args))
    return read


def _read_tuple(f, sc, slot, weights):
    parts = [shape_reader(p, sc, slot, weights) for p in f.parts]

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


def _read_in(f, sc, slot, weights):
    parts = [shape_reader(p, sc, slot, weights) for p in f.parts]

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


def _read_fun(f, sc, slot, weights):
    base = shape_reader(f.base, sc, slot, weights)

    def labelled():
        lab = sc.token()
        sc.eat(":")
        return lab, base()

    def read():
        sc.eat("[")
        by_label = {}
        for lab, v in sc.items("]", labelled):
            if lab not in f.labels or lab in by_label:
                raise sc.error("unknown or repeated label %r" % lab)
            by_label[lab] = v
        if len(by_label) != len(f.labels):
            raise sc.error("exponent must give every label of %s"
                           % (f.labels,))
        return ("fun", tuple([by_label[lab] for lab in f.labels]))
    return read


def _read_atom(f, sc, slot, weights):
    def read():
        name = sc.token()
        if name not in f.atoms:
            raise sc.error("unknown atom %r" % name)
        return ("atom", name)
    return read


def _read_composite(f, sc, slot, weights):
    def read():  # only the model reader unfolds composition, layer by layer
        raise sc.error("cannot read functor %s" % pretty_functor(f))
    return read


# functor constructor -> the compiler of its reader, see shape_reader
_SHAPES = {
    Identity: lambda f, sc, slot, weights: slot,
    Powerset: _read_set,
    MonoidValued: lambda f, sc, slot, weights: weights(f, slot),
    Distribution: lambda f, sc, slot, weights: weights(f, slot),
    Signature: _read_op,
    Product: _read_tuple,
    Coproduct: _read_in,
    Exponent: _read_fun,
    Constant: _read_atom,
    Composite: _read_composite,
}


class ShapeWriter:
    """Writer of the syntax shape_reader reads, its mirror.  slot(x) is the
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


class _ValueReader(Scanner):
    """Value literals over a palette of k colours; weights are dense, and
    read into sparse ('vec', ((c, w), ...)) layers."""

    error = ValueError_

    def __init__(self, text, k):
        super().__init__(text)
        self.k = k

    def colour(self):
        c = self.index("a colour")
        if not 0 <= c < self.k:
            raise ValueError_("colour %d out of palette %d" % (c, self.k))
        return c

    def weights(self, f, slot):
        def read():
            self.eat("(")
            ws = self.items(")", lambda: read_ratio(self))
            if len(ws) != self.k:
                raise ValueError_("weight vector has %d entries, palette is %d"
                                  % (len(ws), self.k))
            return ("vec", tuple([(c, Fraction(p, q))
                                  for c, (p, q) in enumerate(ws) if p]))
        return read


def parse_value(text, f, k):
    """Parse a value literal for functor f over palette k."""
    r = _ValueReader(text, k)
    return r.done(shape_reader(f, r, r.colour, r.weights)())


def validate_value(f, v, k):
    """Whether v is a well-formed canonical value of F(k): whether it
    prints as a literal that parse_value reads back as v."""
    try:
        return parse_value(pretty_value(f, v, k), f, k) == v
    except (ValueError, LookupError, TypeError, AttributeError):
        return False
