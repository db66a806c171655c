"""References the tests compare the package against, and checks that
only the tests run.

check_extensions evaluates certificates over the whole state set, the
semantic reference of logic.check_certificates.  verify_dsi checks the
interpretation axioms of the domain-specific logics of translate.py.
ShapeReader is the functor-directed row and value reader as it was before
each functor constructor compiled its own reader into closures
(FunctorExpr.reader in functor.py): it dispatches on the functor at every
node of every term, and reads every weight with Fraction(text).
TermReader and ValueReader are its two readers, of model rows and of value
literals; tests/test_parsers.py reads the same texts through both and
through the compiled readers.
"""

from __future__ import annotations

import importlib
import re
from fractions import Fraction

from coalgcert.certdag import FormulaDag
from coalgcert.coalgebra import Coalgebra, ModelError
from coalgcert.functor import (
    INT, NAT, Constant, Coproduct, Distribution, Exponent, Identity,
    MonoidValued, Powerset, Product, Signature, pretty_functor,
)
from coalgcert.logic import _Extensions, _mask, _members
from coalgcert.values import Scanner, ValueError_, fmap

# the module, which the package's translate function hides
translate = importlib.import_module("coalgcert.translate")


def parse_rational(text, error=ValueError_):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise error("bad rational %r: %s" % (text, e)) from None



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


class ValueReader(ShapeReader):
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


class TermReader(ShapeReader):
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


def check_extensions(certs, c=None):
    """Verify that every block certificate evaluates exactly to its block,
    and every compound formula to the union of its compound's blocks.

    The semantic reference of check_certificates: it evaluates every node
    over the whole state set, so it also reads arenas that no trace built,
    such as translated listings.  Returns a list of mismatches (block id
    or 'betaC', expected, got); empty means the certificate set is sound
    and complete for the final partition."""
    if c is None:
        c = certs.coalgebra
    ev = _Extensions(c)
    memo = {}
    bad = []
    masks = [_mask(states) for states in certs.blocks]
    for bid, (states, want) in enumerate(zip(certs.blocks, masks)):
        got = ev.ext(certs.dag, certs.delta[bid], memo)
        if got != want:
            bad.append((bid, frozenset(states), frozenset(_members(got))))
    # each final block's compound, replayed from the trace: the initial
    # blocks start in compound 0, a split moves S into its new compound,
    # and a refinement's children join their parent's compound
    compound_of = {bid: 0 for bid, _val, _states in certs.trace.init.blocks}
    for split in certs.trace.splits:
        compound_of[split.splitter] = split.new_compound
        for ref_ in split.refinements:
            for cid, _val, _states in ref_.children:
                compound_of[cid] = compound_of[ref_.parent]
    union = {}
    for bid, mask in enumerate(masks):
        union[compound_of[bid]] = union.get(compound_of[bid], 0) | mask
    for cmp_id, ref in certs.beta.items():
        got = ev.ext(certs.dag, ref, memo)
        want = union.get(cmp_id, 0)
        if got != want:
            bad.append(("beta%d" % cmp_id, frozenset(_members(want)),
                        frozenset(_members(got))))
    return bad


def _one_step(f, k, values, dag, atoms):
    """Satisfaction of one-layer formulas by candidate values.

    The one-step coalgebra has the k colours of a palette as its states
    0..k-1, and state k+i with the i-th value as its row; the colours'
    rows repeat the first value and are never read.  atoms maps the
    arena's atom nodes to their colours.  Returns sat(phi), the set of
    values at which the formula phi holds."""
    values = list(values)
    rows = values[:1] * k + values
    ev = _Extensions(Coalgebra(f, tuple(range(len(rows))), tuple(rows)))
    memo = {nid: 1 << colour for nid, colour in atoms.items()}

    def sat(phi):
        return {values[i] for i in _members(ev.ext(dag, phi, memo) >> k)}
    return sat


def verify_dsi(logic, c, values1, values2, values3):
    """Brute-force check of the interpretation axioms on realizable values.

    values1/2/3 are the realizable one-, two- and three-colour values of
    the coalgebra.  For every o the closed formula tau(o) must single out o
    among the one-colour values; for every t the open formula lam(t) must
    single out t among the three-colour values that agree with t once the
    two inner colours are merged; analogously for kappa where defined.
    The formulas are evaluated by logic's bitset pass on the one-step
    coalgebra of each palette (see _one_step), where the atoms delta and
    rho hold at colours 2 and 1, and delta at colour 1 for kappa.
    Returns a list of violations (empty = all axioms hold)."""
    f = c.functor
    translate.check_compatible(logic, f)
    dag = FormulaDag()
    delta, rho = dag.add_ds(("atom", 0), ()), dag.add_ds(("atom", 1), ())
    bad = []
    sat = _one_step(f, 1, values1, dag, {})
    for o in values1:
        hits = sat(translate.tau(dag, logic, f, o))
        if hits != {o}:
            bad.append(("tau", o, hits))
    sat = _one_step(f, 3, values3, dag, {delta[0]: 2, rho[0]: 1})
    for t in values3:
        cls = fmap(t, [0, 1, 1])
        lam = translate.lam(dag, logic, f, t, delta, rho)
        hits = {t2 for t2 in sat(lam) if fmap(t2, [0, 1, 1]) == cls}
        if hits != {t}:
            bad.append(("lambda", t, hits))
    if logic in ("weighted", "signature"):
        sat = _one_step(f, 2, values2, dag, {delta[0]: 1})
        for s in values2:
            out = fmap(s, [0, 0])
            kappa = translate.kappa(dag, logic, f, s, delta)
            hits = {s2 for s2 in sat(kappa) if fmap(s2, [0, 0]) == out}
            if hits != {s}:
                bad.append(("kappa", s, hits))
    return bad
