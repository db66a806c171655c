"""Elements of F(Y) and the functorial action F(g).

A structure term (coalgebra.py) is an element of F(states); applying the
functor to a colouring of the states gives an element of F(k) for a
palette size k.  Both are written in one encoding, so F(g) is a single
function, fmap, for every map g.  F(k) values are the split keys of the
refiner and the labels of modal operators; they are hashable, canonical
and printable.  fmap does not share the refiner's walk
(coalgebra.walk_row) on purpose: the --verify proof keys with fmap, and
one walk would let one bug fool the refiner and its checker together
(McConnell et al., "Certifying algorithms", 2011).  Encoding (tagged
tuples), with a state or a colour at every identity position:

    int                              identity position
    ('set', (c1, c2, ...))           powerset layer, sorted, no dups
    ('vec', ((c, a), ...), d)        monoid or distribution weights a/d:
                                     ints a != 0 sorted by colour, d > 0
                                     and gcd(d, *a) == 1 (functor.vec)
    ('op', name, (c1, ..., cn))      signature operation
    ('tuple', (v1, ..., vn))         product
    ('in', i, v)                     coproduct injection, 0-based internally
    ('fun', (v_a, v_b, ...))         exponent, one value per label in order
    ('atom', name)                   constant

Value literals use the syntax of model rows, with colours at identity
positions and dense weights ``(w0, w1, ...)``, as pretty_value prints
them.  parse_value, validate_value and the model reader (coalgebra.py) read
terms through FunctorExpr.reader in functor.py, with weights read as ints
(p, q) and built into a layer by functor.rational_vec; ShapeWriter writes
the syntax back, each weight a/d in lowest terms.  Scanner is imported
here from functor.py for the other parsers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .functor import FunctorError, Scanner, rational_vec, vec


class ValueError_(FunctorError):
    pass


def fmap(t, g):
    """F(g)(t) for the map g (anything indexable: a list, a dict) from the
    states or colours at t's identity positions to colours.  Sets are re-sorted without
    duplicates; weights that land on one colour are summed over the
    layer's denominator, and functor.vec puts the sums in canonical form."""
    if type(t) is int:
        return g[t]
    tag = t[0]
    if tag == "set":
        return ("set", tuple(sorted({g[x] for x in t[1]})))
    if tag == "vec":
        acc = {}
        for x, a in t[1]:
            c = g[x]
            acc[c] = acc[c] + a if c in acc else a
        return vec(acc.items(), t[2])
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

def _ratio_text(a, d):
    """a/d in lowest terms, as str(Fraction(a, d)) writes it."""
    g = gcd(a, d)
    return str(a // g) if g == d else "%d/%d" % (a // g, d // g)


class ShapeWriter:
    """Writer of the syntax FunctorExpr.reader reads, its mirror.  slot(x)
    is the text of an identity position, weights(entries) that of a weight
    layer's entries as ((x, text of the weight), ...), and sep separates
    the items of products, sets and operation arguments; exponents always
    separate with ", "."""

    def __init__(self, slot, weights, sep):
        self.slot, self.weights, self.sep = slot, weights, sep

    def write(self, f, t):
        if type(t) is int:
            return self.slot(t)
        tag = t[0]
        if tag == "set":
            return "{%s}" % self.sep.join(map(self.slot, t[1]))
        if tag == "vec":
            d = t[2]
            return self.weights([(x, _ratio_text(a, d)) for x, a in t[1]])
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
    read into sparse ('vec', ((c, a), ...), d) layers."""

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
            return rational_vec([(c, p, q) for c, (p, q) in enumerate(ws)])
        return read


def parse_value(text, f, k):
    """Parse a value literal for functor f over palette k."""
    r = _ValueReader(text, k)
    return r.done(f.reader(r, r.colour, r.weights)())


def validate_value(f, v, k):
    """Whether v is a well-formed canonical value of F(k): whether it
    prints as a literal that parse_value reads back as v."""
    try:
        return parse_value(pretty_value(f, v, k), f, k) == v
    except (ValueError, LookupError, TypeError, AttributeError):
        return False
