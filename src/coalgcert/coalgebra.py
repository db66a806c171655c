"""Finite coalgebras: states with one structured successor term each.

A structure term is an element of F(states) in the encoding of values.py:
it mirrors the functor shape and holds a bare state id at every identity
position; a weight layer is ('vec', ((sid, a), ...), d), integer weights
a over the layer's least common denominator d (functor.vec).  Collection
layers are canonicalised at parse time (sets sorted and duplicate-free,
weight layers by functor.vec), so terms are hashable and comparable, and
values.fmap relabels them.

Every state occurrence in a row is an edge, so a row f(x, x) has two
edges to x.  Coalgebra.m counts them: the m of the O((m + n) log n) bound
(Wissmann et al., LMCS 2020).  Coalgebra.edges lists them once, in an
EdgeTable: a row's skeleton, collection leaves and labelled edges
(Deifel et al., FM 2019).  Its in-edges are the one list of predecessors
that the refiner, the proof and the evaluator read.
walk_row is the one walk of that shape, so the table's leaf numbers and
the refiner's keys follow one order by construction.

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

import re
from array import array
from dataclasses import dataclass
from functools import cached_property, partial

from .functor import (
    INT, NAT, Coproduct, Distribution, FunctorError, MonoidValued, Scanner,
    composite_spine, parse_functor, pretty_functor, rational_vec,
)
from .values import ShapeWriter, fmap, read_ratio


class ModelError(ValueError):
    pass


class EdgeTable:
    """The edges of a coalgebra, in compressed rows grouped by target.

    The edges into y are the positions p in range(start[y], start[y + 1]),
    ordered by source: src[p] is the source and wt[p] the integer weight,
    which counts in slot slot[p] of the source: 0 at an identity or op
    position, else 1 + the index of the edge's collection leaf among its
    source's leaves.  Every set or vec node of a row is a collection leaf;
    the leaves of x are numbered leaf_start[x] onwards, in the order
    walk_row calls them back.  A vec leaf's weights and its total are
    integer multiples of 1 / scale, its denominator d; a set leaf has
    weight 1 per entry, its size as total and scale 0.  degree[x] counts
    the edges out of x, and positions[x] the leaves, identity and op
    positions of its row; ident[ident_start[x]:ident_start[x + 1]] are
    the targets of the identity and op positions, in row order."""

    def __init__(self, structure):
        n = len(structure)
        tgt, slots, wts = array("i"), array("i"), []
        self.total, self.scale = total, scale = [], []
        self.leaf_start = leaf_start = [0] * (n + 1)
        self.degree, self.positions = degree, positions = [0] * n, [0] * n
        self.ident, self.ident_start = ident, ident_start = [], [0] * (n + 1)

        def leaf(node):
            entries = node[1]
            if node[0] == "set":
                total.append(len(entries))
                scale.append(0)
                tgt.extend(entries)
                wts.extend([1] * len(entries))
            else:
                total.append(sum([a for _y, a in entries]))
                scale.append(node[2])
                tgt.extend([y for y, _a in entries])
                wts.extend([a for _y, a in entries])
            slots.extend([len(total) - base] * len(entries))

        def colour(y):
            ident.append(y)
            tgt.append(y)
            slots.append(0)
            wts.append(0)

        for x, t in enumerate(structure):
            base, lo = len(total), len(tgt)
            walk_row(t, leaf, colour)
            leaf_start[x + 1], ident_start[x + 1] = len(total), len(ident)
            degree[x] = len(tgt) - lo
            positions[x] = len(total) - base + slots[lo:].count(0)
        # group the edges by target, keeping the source order
        m = len(tgt)
        self.start = start = [0] * (n + 1)
        for y in tgt:
            start[y + 1] += 1
        for y in range(n):
            start[y + 1] += start[y]
        fill = start[:n]
        self.src, self.wt = src, wt = [0] * m, [0] * m
        self.slot = slot = array("i", bytes(4 * m))
        hi = 0
        for x, d in enumerate(degree):
            lo, hi = hi, hi + d
            for q in range(lo, hi):
                y = tgt[q]
                p = fill[y]
                fill[y] = p + 1
                src[p] = x
                slot[p] = slots[q]
                wt[p] = wts[q]


@dataclass(frozen=True)
class Coalgebra:
    functor: object
    states: tuple  # state names
    structure: tuple  # one term per state
    declared: int = None  # states the model declared, if it was unfolded

    @property
    def n(self):
        return len(self.states)

    @property
    def m(self):
        """The number of edges: state occurrences, with multiplicity."""
        return len(self.edges.src)

    @cached_property
    def edges(self):
        """The EdgeTable, built on first use."""
        return EdgeTable(self.structure)

    def state_index(self):
        return {name: i for i, name in enumerate(self.states)}


def walk_row(t, leaf, colour):
    """The value of F(k) that row t's shape gives with leaf(node) at its
    set and vec nodes and colour(y) at its identity and op positions,
    called in one order: the order of the nodes in t.  The contents of a
    collection are read only by leaf."""
    if type(t) is int:
        return colour(t)
    tag = t[0]
    if tag == "set" or tag == "vec":
        return leaf(t)
    if tag == "in":
        return ("in", t[1], walk_row(t[2], leaf, colour))
    if tag == "op":
        return ("op", t[1], tuple([colour(y) for y in t[2]]))
    if tag == "tuple" or tag == "fun":
        return (tag, tuple([walk_row(u, leaf, colour) for u in t[1]]))
    return t  # ('atom', name)


# ---------------------------------------------------------------- parsing

# An innermost weight entry ``name: p/q`` and the ',' or '}' after it, so
# the number is the whole token read_ratio would read; p/0 does not match.
_ENTRY = re.compile(r"\s*(\w+)\s*:\s*(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?"
                    r"\s*([,}])").match


def _append(read, rows):
    rows.append(read())
    return len(rows) - 1


class _TermReader(Scanner):
    """Structure terms, read into rows[d], the rows of layer d of the
    functor, by each layer's reader: an identity position holds a state
    name at the innermost layer, else a term of the next layer, whose
    index in its rows it holds.  Weights are sparse."""

    error = ModelError

    def __init__(self, layers, state_ids):
        super().__init__("")
        self.state_ids = state_ids
        self.rows = [[] for _ in layers]  # layers: outermost first
        self.top = self.state  # the innermost slot; each layer wraps it
        for d in range(len(layers) - 1, -1, -1):
            read = layers[d].reader(self, self.top,
                                    partial(self.weights, self.rows[d + 1:]))
            self.top = partial(_append, read, self.rows[d])

    def term(self, text):
        self.text, self.i = text, 0
        self.done(self.top())

    def state(self):
        name = self.token()
        sid = self.state_ids.get(name)
        if sid is None:
            raise ModelError("unknown state %r" % name)
        return sid

    def weights(self, inner, f, slot):
        """The reader of a weight layer of f, whose keys slot() reads.  A
        zero weight's entry keeps none of the rows it read into inner, the
        lower layers' rows.  _ENTRY reads innermost entries; the token path
        reads the rest and words every error.  A distribution's weights sum
        to 1 when the layer's numerators sum to its denominator."""
        dist, nat, ints = [f == g for g in (Distribution(), MonoidValued(NAT),
                                            MonoidValued(INT))]
        fast, ids = None if inner else _ENTRY, self.state_ids

        def entry():
            marks = [len(rows) for rows in inner]
            s = slot()
            self.eat(":")
            p, q = read_ratio(self)
            if not p:
                for rows, k in zip(inner, marks):
                    del rows[k:]
            return s, p, q

        def read():
            self.eat("{")
            entries = []
            if not self.try_eat("}"):
                while True:
                    m = fast and fast(self.text, self.i)
                    if m and m[1] in ids:
                        entries.append((ids[m[1]], int(m[2]), int(m[3] or 1)))
                        self.i = m.end()
                        if m[4] == "}":
                            break
                        continue
                    entries.append(entry())
                    if self.try_eat("}"):
                        break
                    self.eat(",")
            layer = rational_vec(entries)
            if dist and sum([a for _s, a in layer[1]]) != layer[2]:
                raise ModelError("distribution weights must sum to 1")
            if dist and any(p < 0 for _s, p, _q in entries):
                raise ModelError("distribution weights must be nonnegative")
            elif nat and any(p % q or p < 0 for _s, p, q in entries):
                raise ModelError("N-weights must be nonnegative integers")
            elif ints and any(p % q for _s, p, q in entries):
                raise ModelError("Z-weights must be integers")
            if len({s for s, _a in layer[1]}) != len(layer[1]):
                raise ModelError("duplicate state in %r" % self.text)
            return layer
        return read


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

def pretty_model(c):
    names = c.states

    def sparse(entries):
        return "{%s}" % ", ".join("%s: %s" % (names[s], w) for s, w in entries)
    write = ShapeWriter(names.__getitem__, sparse, ", ").write
    lines = ["functor: %s" % pretty_functor(c.functor),
             "states: %s" % ", ".join(names)]
    for name, term in zip(names, c.structure):
        lines.append("%s -> %s" % (name, write(c.functor, term)))
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
