"""Finite coalgebras: states with one structured successor term each.

A structure term is an element of F(states) in the encoding of values.py:
it mirrors the functor shape and holds a bare state id at every identity
position; a weight layer is ('vec', ((sid, w), ...)).  Collection layers
are canonicalised at parse time (sets sorted and duplicate-free, weight
maps sorted with zero weights dropped), so terms are hashable and
comparable, and values.fmap relabels them.

A composed functor F1 . F2 . ... . Fk is unfolded while the model is read,
into a coalgebra for the coproduct F1 + F2 + ... + Fk (the many-sorted
unfolding of Wissmann et al., LMCS 2020).  Each inner term at an identity
position of layer d becomes an auxiliary state whose row ('in', d + 1, t)
holds it, and the outer position holds that state.  The declared states
keep ids 0..n-1 and get rows ('in', 0, t); auxiliary ids follow layer by
layer, in reading order within a layer, and are named aux0, aux1, ...
(with a '_' prefix while the name is taken).  Behavioural equivalence on
the declared states is unchanged; Coalgebra.declared records n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .functor import (
    INT, NAT, Coproduct, Distribution, FunctorError, composite_spine,
    parse_functor, pretty_functor,
)
from .values import ShapeReader, fmap


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Coalgebra:
    functor: object
    states: tuple  # state names
    structure: tuple  # one term per state
    declared: int = None  # states the model declared, if it was unfolded

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
    """Structure terms, read into rows[d], the rows of layer d of the
    functor: an identity position holds a state name at the innermost
    layer, else a term of the next layer, whose index in that layer's rows
    it holds.  Weights are sparse ``{s: w, ...}``."""

    error = ModelError

    def __init__(self, layers, state_ids):
        super().__init__("")
        self.layers = layers  # outermost first
        self.rows = [[] for _ in layers]
        self.depth = 0
        self.state_ids = state_ids

    def term(self, text):
        self.text, self.i = text, 0
        self.rows[0].append(self.done(self.read(self.layers[0])))

    def slot(self):
        if self.depth + 1 < len(self.layers):
            self.depth += 1
            rows = self.rows[self.depth]
            rows.append(self.read(self.layers[self.depth]))
            self.depth -= 1
            return len(rows) - 1
        name = self.token()
        sid = self.state_ids.get(name)
        if sid is None:
            raise ModelError("unknown state %r" % name)
        return sid

    def entry(self):
        mark = [len(rows) for rows in self.rows]
        s = self.slot()
        self.eat(":")
        w = self.rational()
        if not w:  # a dropped entry keeps no inner rows
            for rows, k in zip(self.rows, mark):
                del rows[k:]
        return s, w

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
        if len({s for s, _ in entries}) != len(entries):
            raise ModelError("duplicate state in %r" % self.text)
        return ("vec", tuple(sorted(entries)))


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
                rows[name] = lineno, rhs.strip()
            else:
                raise ModelError("unrecognised line")
        except (ModelError, FunctorError) as e:
            raise ModelError("line %d: %s" % (lineno, e)) from None
    if functor is None:
        raise ModelError("missing functor: line")
    if states is None:
        raise ModelError("missing states: line")
    ids = {name: i for i, name in enumerate(states)}
    for name, (lineno, _rhs) in rows.items():
        if name not in ids:
            raise ModelError("line %d: row for undeclared state %r"
                             % (lineno, name))
    layers = composite_spine(functor)
    reader = _TermReader(layers, ids)
    for name in states:
        if name not in rows:
            raise ModelError("missing row for state %r" % name)
        lineno, rhs = rows[name]
        try:
            reader.term(rhs)
        except (ModelError, FunctorError) as e:
            raise ModelError("line %d: %s" % (lineno, e)) from None
    if len(layers) == 1:
        return Coalgebra(functor, states, tuple(reader.rows[0]))
    # unfold: row i of layer d becomes state start[d] + i
    start = [0]
    for layer_rows in reader.rows:
        start.append(start[-1] + len(layer_rows))
    names = list(states)
    for a in range(start[-1] - len(states)):
        name = "aux%d" % a
        while name in ids:
            name = "_" + name
        names.append(name)
    structure = []
    for d, layer_rows in enumerate(reader.rows):
        if d + 1 < len(layers):  # point identity positions at the next layer
            inner = range(start[d + 1], start[d + 2])
            layer_rows = [fmap(t, inner) for t in layer_rows]
        structure += [("in", d, t) for t in layer_rows]
    return Coalgebra(Coproduct(tuple(layers)), tuple(names), tuple(structure),
                     declared=len(states))


# ------------------------------------------------------------- printing

def pretty_term(term, f, names):
    if type(term) is int:
        return names[term]
    tag = term[0]
    if tag == "set":
        return "{%s}" % ", ".join(names[e] for e in term[1])
    if tag == "vec":
        return "{%s}" % ", ".join("%s: %s" % (names[s], w) for s, w in term[1])
    if tag == "op":
        name, args = term[1], term[2]
        if not args:
            return name
        return "%s(%s)" % (name, ", ".join(names[a] for a in args))
    if tag == "tuple":
        return "(%s)" % ", ".join(
            pretty_term(t, p, names) for p, t in zip(f.parts, term[1]))
    if tag == "in":
        return "in%d(%s)" % (term[1] + 1,
                             pretty_term(term[2], f.parts[term[1]], names))
    if tag == "fun":
        return "[%s]" % ", ".join(
            "%s: %s" % (lab, pretty_term(t, f.base, names))
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
