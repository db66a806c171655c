"""Finite coalgebras: states with one structured successor term each.

Structure terms mirror the functor shape; at identity positions they hold a
state id.  Collection layers are canonicalised at parse time (sets sorted
and duplicate-free, weight maps sorted with zero weights dropped), so terms
are hashable and comparable.

Term encoding (plain, composition-free functor):

    ('state', sid)                    identity position
    ('set', (sid, ...))               powerset / boolean layer
    ('vec', ((sid, w), ...))          monoid or distribution weights
    ('op', name, (sid, ...))          signature operation
    ('tuple', (t1, ..., tn))          product
    ('in', i, t)                      coproduct injection, 0-based
    ('fun', (t_a, t_b, ...))          exponent, one term per label
    ('atom', name)                    constant

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
    BOOL, INT, NAT, Composite, Constant, Coproduct, Distribution,
    Exponent, FunctorError, Identity, MonoidValued, Powerset, Product,
    Signature, composite_spine, is_zippable, parse_functor, pretty_functor,
)
from .values import parse_rational


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
    tag = term[0]
    if tag == "state":
        yield term[1]
    elif tag == "set":
        yield from term[1]
    elif tag == "vec":
        for s, _ in term[1]:
            yield s
    elif tag == "op":
        yield from term[2]
    elif tag == "tuple":
        for t in term[1]:
            yield from term_states(t)
    elif tag == "in":
        yield from term_states(term[2])
    elif tag == "fun":
        for t in term[1]:
            yield from term_states(t)
    elif tag == "atom":
        pass
    elif tag == "sub":
        yield from term_states(term[1])
    else:
        raise ModelError("bad term tag %r" % (tag,))


def degrees(c):
    return [len(list(term_states(t))) for t in c.structure]


def predecessor_lists(c):
    """preds[y] = sorted list of states with at least one edge to y."""
    preds = [set() for _ in range(c.n)]
    for x, t in enumerate(c.structure):
        for y in set(term_states(t)):
            preds[y].add(x)
    return [sorted(p) for p in preds]


# ---------------------------------------------------------------- parsing

class _TermParser:
    def __init__(self, text, layers, state_ids):
        self.text = text
        self.layers = layers  # composition spine, outermost first
        self.state_ids = state_ids
        self.i = 0

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.ws()
        return self.text[self.i] if self.i < len(self.text) else None

    def eat(self, s):
        self.ws()
        if not self.text.startswith(s, self.i):
            raise ModelError("expected %r at %r" % (s, self.text[self.i:]))
        self.i += len(s)

    def try_eat(self, s):
        self.ws()
        if self.text.startswith(s, self.i):
            self.i += len(s)
            return True
        return False

    def token(self, extra="_"):
        self.ws()
        j = self.i
        while j < len(self.text) and (self.text[j].isalnum() or self.text[j] in extra):
            j += 1
        if j == self.i:
            raise ModelError("expected a name at %r" % self.text[self.i:])
        tok = self.text[self.i:j]
        self.i = j
        return tok

    def weight(self):
        return parse_rational(self.token("_/.-"))

    def slot(self, depth):
        # identity position of layer `depth`: a state name, or a whole term
        # of the next composition layer
        if depth + 1 < len(self.layers):
            return ("sub", self.term(self.layers[depth + 1], depth + 1))
        name = self.token()
        if name not in self.state_ids:
            raise ModelError("unknown state %r" % name)
        return ("state", self.state_ids[name])

    def term(self, f, depth):
        if isinstance(f, Identity):
            return self.slot(depth)
        if isinstance(f, Powerset) or (isinstance(f, MonoidValued)
                                       and f.kind == BOOL):
            self.eat("{")
            elems = []
            if not self.try_eat("}"):
                while True:
                    elems.append(self.slot(depth))
                    if self.try_eat("}"):
                        break
                    self.eat(",")
            if all(e[0] == "state" for e in elems):
                ids = [e[1] for e in elems]
                if len(set(ids)) != len(ids):
                    raise ModelError("duplicate state in set %r" % self.text)
                return ("set", tuple(sorted(ids)))
            return ("set", tuple(elems))  # composite layer, slots kept
        if isinstance(f, (MonoidValued, Distribution)):
            self.eat("{")
            entries = []
            if not self.try_eat("}"):
                while True:
                    s = self.slot(depth)
                    self.eat(":")
                    entries.append((s, self.weight()))
                    if self.try_eat("}"):
                        break
                    self.eat(",")
            self._check_weights(f, [w for _, w in entries])
            entries = [(s, w) for s, w in entries if w != 0]
            if all(s[0] == "state" for s, _ in entries):
                ids = [s[1] for s, _ in entries]
                if len(set(ids)) != len(ids):
                    raise ModelError("duplicate state in %r" % self.text)
                return ("vec", tuple(sorted((s[1], w) for s, w in entries)))
            return ("vec", tuple(entries))
        if isinstance(f, Signature):
            name = self.token()
            ar = f.arity(name)
            args = []
            if self.try_eat("("):
                if not self.try_eat(")"):
                    while True:
                        args.append(self.slot(depth))
                        if self.try_eat(")"):
                            break
                        self.eat(",")
            if len(args) != ar:
                raise ModelError("operation %s expects %d arguments" % (name, ar))
            if all(a[0] == "state" for a in args):
                return ("op", name, tuple(a[1] for a in args))
            return ("op", name, tuple(args))
        if isinstance(f, Product):
            self.eat("(")
            parts = []
            for j, p in enumerate(f.parts):
                if j:
                    self.eat(",")
                parts.append(self.term(p, depth))
            self.eat(")")
            return ("tuple", tuple(parts))
        if isinstance(f, Coproduct):
            self.eat("in")
            tok = self.token()
            if not tok.isdecimal():
                raise ModelError("expected an injection number, got 'in%s'"
                                 % tok)
            idx = int(tok) - 1
            if not 0 <= idx < len(f.parts):
                raise ModelError("injection in%d out of range" % (idx + 1))
            self.eat("(")
            t = self.term(f.parts[idx], depth)
            self.eat(")")
            return ("in", idx, t)
        if isinstance(f, Exponent):
            self.eat("[")
            by_label = {}
            if not self.try_eat("]"):
                while True:
                    lab = self.token()
                    if lab not in f.labels:
                        raise ModelError("unknown label %r" % lab)
                    if lab in by_label:
                        raise ModelError("duplicate label %r" % lab)
                    self.eat(":")
                    by_label[lab] = self.term(f.base, depth)
                    if self.try_eat("]"):
                        break
                    self.eat(",")
            if set(by_label) != set(f.labels):
                raise ModelError("exponent term must give every label of %s"
                                 % (f.labels,))
            return ("fun", tuple(by_label[lab] for lab in f.labels))
        if isinstance(f, Constant):
            name = self.token()
            if name not in f.atoms:
                raise ModelError("unknown atom %r" % name)
            return ("atom", name)
        raise FunctorError("cannot parse term for functor %r" % (f,))

    @staticmethod
    def _check_weights(f, weights):
        if isinstance(f, Distribution):
            if sum(weights, Fraction(0)) != 1:
                raise ModelError("distribution weights must sum to 1")
            if any(w < 0 for w in weights):
                raise ModelError("distribution weights must be nonnegative")
        elif f.kind == NAT:
            if any(w.denominator != 1 or w < 0 for w in weights):
                raise ModelError("N-weights must be nonnegative integers")
        elif f.kind == INT:
            if any(w.denominator != 1 for w in weights):
                raise ModelError("Z-weights must be integers")
        elif f.kind == BOOL:
            if any(w not in (0, 1) for w in weights):
                raise ModelError("B-weights must be 0 or 1")


def parse_term(text, f, state_ids):
    layers = composite_spine(f)
    p = _TermParser(text, layers, state_ids)
    t = p.term(layers[0], 0)
    p.ws()
    if p.i != len(text):
        raise ModelError("trailing input in term %r" % text)
    return t


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
                functor = parse_functor(line[len("functor:"):])
            elif line.startswith("states:"):
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
    structure = []
    for name in states:
        if name not in rows:
            raise ModelError("missing row for state %r" % name)
        structure.append(parse_term(rows[name], functor, ids))
    return Coalgebra(functor, states, tuple(structure))


# ------------------------------------------------------------- printing

def pretty_term(term, f, names, layers=None, depth=0):
    if layers is None:
        layers = composite_spine(f)
        f = layers[0]
    tag = term[0]
    if tag == "sub":
        return pretty_term(term[1], layers[depth + 1], names, layers, depth + 1)
    if tag == "state":
        return names[term[1]]
    if tag == "set":
        elems = [e if isinstance(e, tuple) and e[0] in ("state", "sub")
                 else ("state", e) for e in term[1]]
        return "{%s}" % ", ".join(
            pretty_term(e, Identity(), names, layers, depth) for e in elems)
    if tag == "vec":
        return "{%s}" % ", ".join(
            "%s: %s" % (pretty_term(s if isinstance(s, tuple) else ("state", s),
                                    Identity(), names, layers, depth), w)
            for s, w in term[1])
    if tag == "op":
        name, args = term[1], term[2]
        if not args:
            return name
        rendered = [pretty_term(a if isinstance(a, tuple) else ("state", a),
                                Identity(), names, layers, depth) for a in args]
        return "%s(%s)" % (name, ", ".join(rendered))
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

def relabel_term(term, f, mapping):
    """Rename state ids and re-canonicalise collection layers."""
    tag = term[0]
    if tag == "state":
        return ("state", mapping[term[1]])
    if tag == "set":
        return ("set", tuple(sorted({mapping[s] for s in term[1]})))
    if tag == "vec":
        acc = {}
        for s, w in term[1]:
            t = mapping[s]
            acc[t] = acc.get(t, Fraction(0)) + w
        return ("vec", tuple(sorted((s, w) for s, w in acc.items() if w != 0)))
    if tag == "op":
        return ("op", term[1], tuple(mapping[s] for s in term[2]))
    if tag == "tuple":
        return ("tuple", tuple(relabel_term(t, p, mapping)
                               for p, t in zip(f.parts, term[1])))
    if tag == "in":
        return ("in", term[1], relabel_term(term[2], f.parts[term[1]], mapping))
    if tag == "fun":
        return ("fun", tuple(relabel_term(t, f.base, mapping) for t in term[1]))
    if tag == "atom":
        return term
    raise ModelError("bad term tag %r" % (tag,))


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
    structure = tuple(
        relabel_term(c.structure[min(members)], c.functor, block_of)
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
    structure = [None] * c.n
    aux_rows = deque()  # (state slot index, depth, inner term) worklist

    def fresh_name():
        i = len(names) - c.n
        name = "aux%d" % i
        while name in used:
            name = "_" + name
        used.add(name)
        return name

    def convert(term, depth):
        tag = term[0]
        if tag == "sub":
            # allocate an auxiliary state holding the inner term
            sid = len(names)
            names.append(fresh_name())
            sort_of.append(depth + 1)
            structure.append(None)
            aux_rows.append((sid, depth + 1, term[1]))
            return sid
        if tag == "state":
            return term[1]
        raise ModelError("bad slot %r" % (tag,))

    def walk(term, f, depth):
        tag = term[0]
        if tag in ("state", "sub"):
            return ("state", convert(term, depth))
        if tag == "set":
            elems = [e if isinstance(e, tuple) else ("state", e) for e in term[1]]
            return ("set", tuple(sorted(convert(e, depth) for e in elems)))
        if tag == "vec":
            entries = [((s if isinstance(s, tuple) else ("state", s)), w)
                       for s, w in term[1]]
            return ("vec", tuple(sorted(
                (convert(s, depth), w) for s, w in entries)))
        if tag == "op":
            args = [a if isinstance(a, tuple) else ("state", a) for a in term[2]]
            return ("op", term[1], tuple(convert(a, depth) for a in args))
        if tag == "tuple":
            return ("tuple", tuple(walk(t, p, depth)
                                   for p, t in zip(f.parts, term[1])))
        if tag == "in":
            return ("in", term[1], walk(term[2], f.parts[term[1]], depth))
        if tag == "fun":
            return ("fun", tuple(walk(t, f.base, depth) for t in term[1]))
        if tag == "atom":
            return term
        raise ModelError("bad term tag %r" % (tag,))

    for x in range(c.n):
        structure[x] = ("in", 0, walk(c.structure[x], layers[0], 0))
    while aux_rows:
        sid, depth, inner = aux_rows.popleft()
        structure[sid] = ("in", depth, walk(inner, layers[depth], depth))
    new_functor = Coproduct(tuple(layers))
    out = Coalgebra(new_functor, tuple(names), tuple(structure))
    return Desugared(out, sort_of, c.n)
