"""Finite coalgebras: states with one structured successor term each.

A structure term is an element of F(states) in the encoding of values.py:
it mirrors the functor shape and holds a bare state id at every identity
position; a weight layer is ('vec', ((sid, w), ...)).  Collection layers
are canonicalised at parse time (sets sorted and duplicate-free, weight
maps sorted with zero weights dropped), so terms are hashable and
comparable, and values.fmap relabels them.

For a composed functor the identity positions of an outer layer hold whole
inner terms, wrapped as ('sub', term); desugar_composite removes these by
introducing one auxiliary state per occurrence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .functor import (
    INT, NAT, Coproduct, Distribution, FunctorError, composite_spine,
    is_zippable, parse_functor, pretty_functor,
)
from .values import ShapeReader, fmap


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Coalgebra:
    functor: object
    states: tuple  # state names
    structure: tuple  # one term per state

    @property
    def n(self):
        return len(self.states)

    @cached_property
    def m(self):
        """Total number of state occurrences in all structure terms."""
        return sum(len(list(term_states(t))) for t in self.structure)

    def state_index(self):
        return {name: i for i, name in enumerate(self.states)}


def term_states(term):
    """Iterate the state ids occurring in a (plain) term, with multiplicity."""
    if type(term) is int:
        yield term
        return
    tag = term[0]
    if tag == "set":
        yield from term[1]
    elif tag == "vec":
        for s, _ in term[1]:
            yield s
    elif tag == "op":
        yield from term[2]
    elif tag == "tuple" or tag == "fun":
        for t in term[1]:
            yield from term_states(t)
    elif tag == "in":
        yield from term_states(term[2])
    elif tag == "atom":
        pass
    elif tag == "sub":
        yield from term_states(term[1])
    else:
        raise ModelError("bad term tag %r" % (tag,))


def predecessor_lists(c):
    """preds[y] = sorted list of states with at least one edge to y."""
    preds = [set() for _ in range(c.n)]
    for x, t in enumerate(c.structure):
        for y in set(term_states(t)):
            preds[y].add(x)
    return [sorted(p) for p in preds]


# ---------------------------------------------------------------- parsing

class _TermReader(ShapeReader):
    """Structure terms: identity positions hold state names, or whole
    terms of the next layer of a composed functor; weights are sparse
    ``{s: w, ...}``."""

    error = ModelError

    def __init__(self, f, state_ids):
        super().__init__("")
        self.layers = composite_spine(f)  # outermost first
        self.depth = 0
        self.state_ids = state_ids

    def term(self, text):
        self.text, self.i = text, 0
        return self.done(self.read(self.layers[0]))

    def slot(self):
        if self.depth + 1 < len(self.layers):
            self.depth += 1
            t = ("sub", self.read(self.layers[self.depth]))
            self.depth -= 1
            return t
        name = self.token()
        sid = self.state_ids.get(name)
        if sid is None:
            raise ModelError("unknown state %r" % name)
        return sid

    def entry(self):
        s = self.slot()
        self.eat(":")
        return s, self.rational()

    def weights(self, f):
        self.eat("{")
        entries = self.items("}", self.entry)
        ws = [w for _, w in entries]
        if isinstance(f, Distribution):
            if sum(ws, Fraction(0)) != 1:
                raise ModelError("distribution weights must sum to 1")
            if any(w < 0 for w in ws):
                raise ModelError("distribution weights must be nonnegative")
        elif f.kind == NAT:
            if any(w.denominator != 1 or w < 0 for w in ws):
                raise ModelError("N-weights must be nonnegative integers")
        elif f.kind == INT:
            if any(w.denominator != 1 for w in ws):
                raise ModelError("Z-weights must be integers")
        entries = [(s, w) for s, w in entries if w != 0]
        if entries and type(entries[0][0]) is tuple:
            return ("vec", tuple(entries))  # terms of a composed functor
        if len({s for s, _ in entries}) != len(entries):
            raise ModelError("duplicate state in %r" % self.text)
        return ("vec", tuple(sorted(entries)))


def parse_term(text, f, state_ids):
    return _TermReader(f, state_ids).term(text)


def parse_coalgebra(text):
    """Parse a model file: functor line, states line, one row per state."""
    functor = None
    states = None
    rows = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("functor:"):
                if functor is not None:
                    raise ModelError("duplicate functor: line")
                functor = parse_functor(line[len("functor:"):])
            elif line.startswith("states:"):
                if states is not None:
                    raise ModelError("duplicate states: line")
                names = [s.strip() for s in line[len("states:"):].split(",")]
                names = [s for s in names if s]
                if len(set(names)) != len(names):
                    raise ModelError("duplicate state name")
                states = tuple(names)
            elif "->" in line:
                name, rhs = line.split("->", 1)
                name = name.strip()
                if states is None or functor is None:
                    raise ModelError("rows must follow functor: and states: lines")
                if name in rows:
                    raise ModelError("duplicate row for state %r" % name)
                rows[name] = rhs.strip()
            else:
                raise ModelError("unrecognised line")
        except (ModelError, FunctorError) as e:
            raise ModelError("line %d: %s" % (lineno, e)) from None
    if functor is None:
        raise ModelError("missing functor: line")
    if states is None:
        raise ModelError("missing states: line")
    ids = {name: i for i, name in enumerate(states)}
    for name in rows:
        if name not in ids:
            raise ModelError("row for undeclared state %r" % name)
    reader = _TermReader(functor, ids)
    structure = []
    for name in states:
        if name not in rows:
            raise ModelError("missing row for state %r" % name)
        structure.append(reader.term(rows[name]))
    return Coalgebra(functor, states, tuple(structure))


# ------------------------------------------------------------- printing

def pretty_term(term, f, names, layers=None, depth=0):
    if layers is None:
        layers = composite_spine(f)
        f = layers[0]
    if type(term) is int:
        return names[term]
    tag = term[0]
    if tag == "sub":
        return pretty_term(term[1], layers[depth + 1], names, layers, depth + 1)
    if tag == "set":
        return "{%s}" % ", ".join(
            pretty_term(e, f, names, layers, depth) for e in term[1])
    if tag == "vec":
        return "{%s}" % ", ".join(
            "%s: %s" % (pretty_term(s, f, names, layers, depth), w)
            for s, w in term[1])
    if tag == "op":
        name, args = term[1], term[2]
        if not args:
            return name
        return "%s(%s)" % (name, ", ".join(
            pretty_term(a, f, names, layers, depth) for a in args))
    if tag == "tuple":
        return "(%s)" % ", ".join(
            pretty_term(t, p, names, layers, depth)
            for p, t in zip(f.parts, term[1]))
    if tag == "in":
        return "in%d(%s)" % (term[1] + 1,
                             pretty_term(term[2], f.parts[term[1]], names,
                                         layers, depth))
    if tag == "fun":
        return "[%s]" % ", ".join(
            "%s: %s" % (lab, pretty_term(t, f.base, names, layers, depth))
            for lab, t in zip(f.labels, term[1]))
    if tag == "atom":
        return term[1]
    raise ModelError("bad term tag %r" % (tag,))


def pretty_model(c):
    lines = ["functor: %s" % pretty_functor(c.functor),
             "states: %s" % ", ".join(c.states)]
    for name, term in zip(c.states, c.structure):
        lines.append("%s -> %s" % (name, pretty_term(term, c.functor, c.states)))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- quotient

def quotient(c, blocks):
    """Quotient coalgebra on the given partition (list of state-id lists).

    Block representatives keep their names; structure terms are relabelled
    and re-canonicalised (weights into a block are summed)."""
    block_of = {}
    for b, members in enumerate(blocks):
        for s in members:
            block_of[s] = b
    if len(block_of) != c.n:
        raise ModelError("blocks do not partition the state set")
    names = tuple(c.states[min(members)] for members in blocks)
    structure = tuple(fmap(c.structure[min(members)], block_of)
                      for members in blocks)
    return Coalgebra(c.functor, names, structure)


# -------------------------------------------------- composition unfolding

@dataclass
class Desugared:
    coalgebra: Coalgebra
    sort_of: list  # layer index per state; original states have sort 0
    original: int  # number of original states


def desugar_composite(c):
    """Unfold a composed functor F1 . F2 . ... . Fk into a coproduct.

    Every occurrence of an inner value becomes an auxiliary state carrying
    that value one layer down; original states keep their identity.  The
    result is a coalgebra for F1 + F2 + ... + Fk whose behavioural
    equivalence restricted to original states is unchanged."""
    layers = composite_spine(c.functor)
    if len(layers) == 1:
        return Desugared(c, [0] * c.n, c.n)
    for i, layer in enumerate(layers):
        ok, why = is_zippable(layer)
        if not ok:
            raise ModelError("composition layer %d: %s" % (i, why))
    names = list(c.states)
    used = set(names)
    sort_of = [0] * c.n
    inner = deque()  # (depth, term) of each auxiliary state, in id order

    class Slots:
        """fmap's map at one depth: a state to itself, an inner term
        ('sub', t) to a fresh auxiliary state holding t one layer down."""

        def __init__(self, depth):
            self.depth = depth

        def __getitem__(self, slot):
            if type(slot) is int:
                return slot
            name = "aux%d" % (len(names) - c.n)
            while name in used:
                name = "_" + name
            used.add(name)
            names.append(name)
            sort_of.append(self.depth + 1)
            inner.append((self.depth + 1, slot[1]))
            return len(names) - 1

    slots = [Slots(depth) for depth in range(len(layers))]
    structure = [("in", 0, fmap(t, slots[0])) for t in c.structure]
    while inner:
        depth, t = inner.popleft()
        structure.append(("in", depth, fmap(t, slots[depth])))
    new_functor = Coproduct(tuple(layers))
    out = Coalgebra(new_functor, tuple(names), tuple(structure))
    return Desugared(out, sort_of, c.n)
