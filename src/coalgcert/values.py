"""Canonical functor values over finite colour palettes.

Applying a functor to a colouring of the state set yields an element of
F(k) for a palette size k.  These values are the split keys of the refiner
and the labels of modal operators, so they must be hashable, canonical and
printable.  Representation (tagged tuples):

    int                              colour (identity functor)
    ('set', (c1, c2, ...))           powerset / boolean layer, sorted, no dups
    ('vec', (w0, ..., w_{k-1}))      monoid or distribution weights per colour
    ('op', name, (c1, ..., cn))      signature operation applied to colours
    ('tuple', (v1, ..., vn))         product
    ('in', i, v)                     coproduct injection, 0-based internally
    ('fun', (v_a, v_b, ...))         exponent, one value per label in order
    ('atom', name)                   constant
"""

from __future__ import annotations

from fractions import Fraction

from .functor import (
    BOOL, Constant, Coproduct, Distribution, Exponent, FunctorError,
    Identity, MonoidValued, Powerset, Product, Signature,
)


class ValueError_(FunctorError):
    pass


def f_apply_coloring(f, term, col, k):
    """Apply functor f to a colouring, evaluating a structure term.

    ``col`` maps state ids to colours in range(k); ``term`` is the encoded
    structure of one state (see coalgebra.py).  The result is the canonical
    value of F(colouring) at that state."""
    tag = term[0]
    if isinstance(f, Identity):
        return col[term[1]]
    if isinstance(f, (Powerset,)) or (isinstance(f, MonoidValued) and f.kind == BOOL):
        return ("set", tuple(sorted({col[s] for s in term[1]})))
    if isinstance(f, (MonoidValued, Distribution)):
        acc = [Fraction(0)] * k
        for s, w in term[1]:
            acc[col[s]] += w
        return ("vec", tuple(acc))
    if isinstance(f, Signature):
        return ("op", term[1], tuple(col[s] for s in term[2]))
    if isinstance(f, Product):
        return ("tuple", tuple(
            f_apply_coloring(p, t, col, k) for p, t in zip(f.parts, term[1])))
    if isinstance(f, Coproduct):
        return ("in", term[1], f_apply_coloring(f.parts[term[1]], term[2], col, k))
    if isinstance(f, Exponent):
        return ("fun", tuple(
            f_apply_coloring(f.base, t, col, k) for t in term[1]))
    if isinstance(f, Constant):
        return ("atom", term[1])
    raise FunctorError("cannot apply functor %r (tag %r)" % (f, tag))


def relabel_value(f, v, mapping, k_new):
    """Functorial action on a palette relabelling (merges colours)."""
    if isinstance(f, Identity):
        return mapping[v]
    if isinstance(f, Powerset) or (isinstance(f, MonoidValued) and f.kind == BOOL):
        return ("set", tuple(sorted({mapping[c] for c in v[1]})))
    if isinstance(f, (MonoidValued, Distribution)):
        acc = [Fraction(0)] * k_new
        for c, w in enumerate(v[1]):
            acc[mapping[c]] += w
        return ("vec", tuple(acc))
    if isinstance(f, Signature):
        return ("op", v[1], tuple(mapping[c] for c in v[2]))
    if isinstance(f, Product):
        return ("tuple", tuple(
            relabel_value(p, x, mapping, k_new) for p, x in zip(f.parts, v[1])))
    if isinstance(f, Coproduct):
        return ("in", v[1], relabel_value(f.parts[v[1]], v[2], mapping, k_new))
    if isinstance(f, Exponent):
        return ("fun", tuple(relabel_value(f.base, x, mapping, k_new) for x in v[1]))
    if isinstance(f, Constant):
        return v
    raise FunctorError("cannot relabel value for functor %r" % (f,))


def pretty_value(f, v):
    """Print a value in the concrete syntax used in modal labels."""
    if isinstance(f, Identity):
        return str(v)
    if isinstance(f, Powerset) or (isinstance(f, MonoidValued) and f.kind == BOOL):
        return "{%s}" % ",".join(str(c) for c in v[1])
    if isinstance(f, (MonoidValued, Distribution)):
        return "(%s)" % ",".join(str(w) for w in v[1])
    if isinstance(f, Signature):
        name, cols = v[1], v[2]
        return name if not cols else "%s(%s)" % (name, ",".join(map(str, cols)))
    if isinstance(f, Product):
        return "(%s)" % ",".join(
            pretty_value(p, x) for p, x in zip(f.parts, v[1]))
    if isinstance(f, Coproduct):
        return "in%d(%s)" % (v[1] + 1, pretty_value(f.parts[v[1]], v[2]))
    if isinstance(f, Exponent):
        return "[%s]" % ", ".join(
            "%s: %s" % (lab, pretty_value(f.base, x))
            for lab, x in zip(f.labels, v[1]))
    if isinstance(f, Constant):
        return v[1]
    raise FunctorError("cannot print value for functor %r" % (f,))


def parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError_("bad rational %r: %s" % (text, e))


class _ValueParser:
    """Shape-directed parser for value literals (palette known)."""

    def __init__(self, text, k):
        self.text = text
        self.k = k
        self.i = 0

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def eat(self, s):
        self.ws()
        if not self.text.startswith(s, self.i):
            raise ValueError_("expected %r at %r" % (s, self.text[self.i:]))
        self.i += len(s)

    def try_eat(self, s):
        self.ws()
        if self.text.startswith(s, self.i):
            self.i += len(s)
            return True
        return False

    def token(self, chars="_"):
        self.ws()
        j = self.i
        while j < len(self.text) and (self.text[j].isalnum() or self.text[j] in chars):
            j += 1
        if j == self.i:
            raise ValueError_("expected token at %r" % self.text[self.i:])
        tok = self.text[self.i:j]
        self.i = j
        return tok

    def index(self, what):
        tok = self.token()
        if not tok.isdecimal():
            raise ValueError_("expected %s, got %r" % (what, tok))
        return int(tok)

    def colour(self):
        c = self.index("a colour")
        if not 0 <= c < self.k:
            raise ValueError_("colour %d out of palette %d" % (c, self.k))
        return c

    def value(self, f):
        if isinstance(f, Identity):
            return self.colour()
        if isinstance(f, Powerset) or (isinstance(f, MonoidValued) and f.kind == BOOL):
            self.eat("{")
            cols = set()
            if not self.try_eat("}"):
                while True:
                    cols.add(self.colour())
                    if self.try_eat("}"):
                        break
                    self.eat(",")
            return ("set", tuple(sorted(cols)))
        if isinstance(f, (MonoidValued, Distribution)):
            self.eat("(")
            ws = []
            while True:
                ws.append(parse_rational(self.token("_/.-")))
                if self.try_eat(")"):
                    break
                self.eat(",")
            if len(ws) != self.k:
                raise ValueError_(
                    "weight vector has %d entries, palette is %d" % (len(ws), self.k))
            return ("vec", tuple(ws))
        if isinstance(f, Signature):
            name = self.token()
            ar = f.arity(name)
            cols = []
            if self.try_eat("("):
                if not self.try_eat(")"):
                    while True:
                        cols.append(self.colour())
                        if self.try_eat(")"):
                            break
                        self.eat(",")
            if len(cols) != ar:
                raise ValueError_("operation %s expects %d colours" % (name, ar))
            return ("op", name, tuple(cols))
        if isinstance(f, Product):
            self.eat("(")
            parts = []
            for j, p in enumerate(f.parts):
                if j:
                    self.eat(",")
                parts.append(self.value(p))
            self.eat(")")
            return ("tuple", tuple(parts))
        if isinstance(f, Coproduct):
            self.eat("in")
            idx = self.index("an injection number") - 1
            if not 0 <= idx < len(f.parts):
                raise ValueError_("injection in%d out of range" % (idx + 1))
            self.eat("(")
            v = self.value(f.parts[idx])
            self.eat(")")
            return ("in", idx, v)
        if isinstance(f, Exponent):
            self.eat("[")
            by_label = {}
            while True:
                lab = self.token()
                if lab not in f.labels:
                    raise ValueError_("unknown label %r" % lab)
                self.eat(":")
                by_label[lab] = self.value(f.base)
                if self.try_eat("]"):
                    break
                self.eat(",")
            if set(by_label) != set(f.labels):
                raise ValueError_("exponent value must list every label")
            return ("fun", tuple(by_label[lab] for lab in f.labels))
        if isinstance(f, Constant):
            name = self.token()
            if name not in f.atoms:
                raise ValueError_("unknown atom %r" % name)
            return ("atom", name)
        raise FunctorError("cannot parse value for functor %r" % (f,))


def parse_value(text, f, k):
    """Parse a value literal for functor f over palette k."""
    p = _ValueParser(text, k)
    v = p.value(f)
    p.ws()
    if p.i != len(text):
        raise ValueError_("trailing input in value %r" % text)
    return v


def validate_value(f, v, k):
    """Check that v is a well-formed canonical value of F(k)."""
    if isinstance(f, Identity):
        return isinstance(v, int) and 0 <= v < k
    if not isinstance(v, tuple):
        return False
    if isinstance(f, Powerset) or (isinstance(f, MonoidValued) and f.kind == BOOL):
        return (v[0] == "set" and list(v[1]) == sorted(set(v[1]))
                and all(0 <= c < k for c in v[1]))
    if isinstance(f, (MonoidValued, Distribution)):
        return v[0] == "vec" and len(v[1]) == k
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
