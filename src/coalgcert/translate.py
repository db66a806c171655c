"""Translation of dag certificates into domain-specific logics.

A domain-specific logic is a set of modalities with decodings of functor
values into formulas over them.  Each of the four is one Logic object in
LOGICS, under its name, which default_logic, check_compatible, ds_label,
parse_ds, the evaluator logic._Extensions.modality and the command line's
--logic checks read.

Domain-specific formulas are nodes of a FormulaDag arena, like the
certificates they translate: ('ds', label, args) carries the modality of
tag label[0], ('or', l, r) comes only from parsed text, and negation is
the bit of an edge reference.  So logic.eval_ref evaluates them,
FormulaDag.tree_size sizes them, and certdag.serialize and certdag.expand
print them, with ds_label rendering their labels.

translate maps the certificate dag node by node, in one forward pass over
the nodes below the requested references: nullary labels map to the
logic's decoding tau, a binary label <t>(delta, beta) to its decoding
lam of t applied to (translated delta, translated beta minus delta), and
a unary label of a negation-free run to its decoding kappa.  The
translated arena is therefore linear in the certificate dag.  Both arenas
store their nodes in int columns (certdag's Storage), and the pass works
on packed references: the translation of each generic node is one int of
an array over the generic ids, and the translated arena is hash-consed
on a node's four column ints, unlike the certificate arena, whose nodes
logic._Induction tells apart by id.  The decodings build through the
arena's add_ methods, on (id, negated) references.
"""

from __future__ import annotations

from array import array
from fractions import Fraction

from .certdag import AND, MODAL, TOP, FormulaDag, pack, reach, unpack
from .functor import (
    Constant, Coproduct, Distribution, Exponent, MonoidValued, Powerset,
    Signature, pretty_functor, unnest,
)
from .values import Scanner, parse_rational


class TranslateError(ValueError):
    pass


def _weight(v, c):
    """Weight of colour c in a ('vec', ((c, a), ...), d) value."""
    return Fraction(dict(v[1]).get(c, 0), v[2])


class _SharedDag(FormulaDag):
    """A FormulaDag in which an equal node reuses the existing id."""

    def __init__(self):
        super().__init__()
        self.ids = {}  # (tag, left, right, label) -> packed reference

    def push(self, tag, left=0, right=0, label=0):
        key = (tag, left, right, label)
        ref = self.ids.get(key)
        if ref is None:
            ref = self.ids[key] = super().push(tag, left, right, label)
        return ref


def _and(dag, a, b):
    if a == TOP:
        return b
    if b == TOP:
        return a
    return dag.add_and(a, b)


# ------------------------------------------------------------- the logics

class Logic:
    """A domain-specific logic.  fits(f) tests the functor f.  The
    decodings pin a value among those of its class: tau(dag, f, o) is a
    closed formula whose one-colour extension is exactly o; lam(dag, f, t,
    delta, rho) a formula in delta (colour 2) and rho (colour 1) for a
    three-colour t, within the values agreeing with t outside the split;
    kappa(dag, f, s, delta), None where the logic has none, one in delta
    (colour 1) for a two-colour s of a negation-free run.  modalities maps
    each label tag to (text, holds): text(label) prints the label before
    its argument, holds(label, value, f) tells whether a value of F(2),
    the argument holding at colour 1, satisfies the modality."""

    kappa = None


class _HM(Logic):
    """Hennessy-Milner logic over P: <> holds where some successor
    satisfies the argument, the total [] where there is a successor and
    all satisfy it (v[1] is a sorted set)."""
    modalities = {
        "dia": (lambda label: "<>", lambda label, v, f: 1 in v[1]),
        "box": (lambda label: "[]", lambda label, v, f: v[1] == (1,))}

    def fits(self, f):
        return isinstance(f, Powerset)

    def tau(self, dag, f, o):
        return (dag.add_ds(("dia",), (TOP,))[0], not o[1])

    def lam(self, dag, f, t, delta, rho):
        s, rest = 2 in t[1], 1 in t[1]
        dia = lambda arg: dag.add_ds(("dia",), (arg,))
        if s and rest:
            return _and(dag, dia(delta), dia(rho))
        # into S only: ~<>rho (none in B - S); into B - S only: ~<>delta
        return (dia(rho if s else delta)[0], True) if s or rest else TOP


class _Weighted(Logic):
    """Monoid-valued functors over R, Z and N: <m> holds where the weight
    into the argument is exactly m (v weighs a/d, d > 0)."""
    modalities = {"w": (lambda label: "<%s>" % label[1], lambda label, v, f:
                        dict(v[1]).get(1, 0) == label[1] * v[2])}

    def fits(self, f):
        return isinstance(f, MonoidValued)

    def tau(self, dag, f, o):
        return dag.add_ds(("w", _weight(o, 0)), (TOP,))

    def lam(self, dag, f, t, delta, rho):
        # cancellative monoids: the weight into B\S follows by subtraction
        return dag.add_ds(("w", _weight(t, 2)), (delta,))

    def kappa(self, dag, f, s, delta):
        return dag.add_ds(("w", _weight(s, 1)), (delta,))


def _positions(v, colour):
    """The argument positions, from 1, that the operation v colours so."""
    return frozenset(i + 1 for i, cc in enumerate(v[2]) if cc == colour)


class _Signature(Logic):
    """Polynomial functors Sig(...): g holds where the operation is g,
    <{i, ...}> where the argument holds at exactly positions i, ..."""
    modalities = {
        "sig": (lambda label: label[1], lambda label, v, f: v[1] == label[1]),
        "args": (lambda label: "<{%s}>" % ",".join(map(str, sorted(label[1]))),
                 lambda label, v, f: _positions(v, 1) == label[1])}

    def fits(self, f):
        return isinstance(f, Signature)

    def tau(self, dag, f, o):
        return dag.add_ds(("sig", o[1]), ())

    def lam(self, dag, f, t, delta, rho):
        return dag.add_ds(("args", _positions(t, 2)), (delta,))

    def kappa(self, dag, f, s, delta):
        return dag.add_ds(("args", _positions(s, 1)), (delta,))


def _at_least(label, v, f):
    """The holds of <a>_{p}, for _Prob."""
    _, a, p = label
    if a not in f.labels:
        raise TranslateError("unknown label %r" % a)
    branch = v[1][f.labels.index(a)]
    return branch[1] == 0 and (dict(branch[2][1]).get(1, 0)
                               >= p * branch[2][2])


class _Prob(Logic):
    """Labelled Markov chains (D(X) + 1)^A: <a>_{p} holds where, on input
    a, the next state satisfies the argument with probability >= p."""
    modalities = {"prob": (lambda label: "<%s>_{%s}" % label[1:], _at_least)}

    def fits(self, f):
        base = f.base if isinstance(f, Exponent) else None
        return (isinstance(base, Coproduct) and list(map(type, base.parts))
                == [Distribution, Constant] and len(base.parts[1].atoms) == 1)

    def tau(self, dag, f, o):
        out = TOP
        for a, v in zip(f.labels, o[1]):
            nid, _ = dag.add_ds(("prob", a, Fraction(1)), (TOP,))
            out = _and(dag, out, (nid, v[1] != 0))
        return out

    def lam(self, dag, f, t, delta, rho):
        out = TOP
        for a, v in zip(f.labels, t[1]):
            if v[1] == 0:  # distribution branch
                for colour, arg in ((2, delta), (1, rho)):
                    out = _and(dag, out, dag.add_ds(
                        ("prob", a, _weight(v[2], colour)), (arg,)))
        return out


LOGICS = {"hm": _HM(), "weighted": _Weighted(), "signature": _Signature(),
          "prob": _Prob()}
# (text, holds) of every label tag; no two logics share a tag
MODALITY = {tag: m for lg in LOGICS.values()
            for tag, m in lg.modalities.items()}


def _named(logic):
    if logic not in LOGICS:
        raise TranslateError("unknown logic %r" % logic)
    return LOGICS[logic]


def default_logic(f):
    """The name of the logic that fits functor f, or None."""
    return next((name for name, lg in LOGICS.items() if lg.fits(f)), None)


def check_compatible(logic, f, mode="generic"):
    """The Logic named logic.  TranslateError unless it fits functor f and,
    for the certificates of a cancellative-mode run, has a kappa."""
    lg = _named(logic)
    if not lg.fits(f):
        raise TranslateError(
            "logic %r does not fit functor %s (expected %s)"
            % (logic, pretty_functor(f),
               default_logic(f) or "no supported logic"))
    if mode == "cancellative" and lg.kappa is None:
        raise TranslateError("logic %r needs certificates from generic mode"
                             % logic)
    return lg


# ------------------------------------------------------------ translation

def translate(certs, logic, refs):
    """Translate edge references of the certificate dag into ``logic``.

    One forward pass over the nodes that refs reach, children first, maps
    each node to a reference into a fresh arena.  Returns the arena and
    the translated references, in the order of refs."""
    f = certs.coalgebra.functor
    lg = check_compatible(logic, f, certs.trace.mode)
    g, dag = certs.dag, _SharedDag()
    tag, left, right, label, labels = g.tag, g.left, g.right, g.label, g.labels
    # packed translation by generic id; true (0) where nothing reaches
    out = array("i", [0]) * (max((nid for nid, _ in refs), default=-1) + 1)

    def tr(p):  # a packed generic reference, translated
        return out[p >> 1] ^ (p & 1)

    for nid in reach(g, refs):
        t = tag[nid]
        if t == AND:  # true, 0, is the unit of a conjunction
            a, b = tr(left[nid]), tr(right[nid])
            out[nid] = b if a == 0 else a if b == 0 else dag.push(AND, a, b)
        elif t == MODAL:
            out[nid] = pack(lg.tau(dag, f, labels[label[nid]]))
        elif t == MODAL + 2:
            d, b = unpack(tr(left[nid])), unpack(tr(right[nid]))
            out[nid] = pack(lg.lam(dag, f, labels[label[nid]], d,
                                   _and(dag, b, (d[0], not d[1]))))
        elif t == MODAL + 1:
            out[nid] = pack(lg.kappa(dag, f, labels[label[nid]],
                                     unpack(tr(left[nid]))))
    return dag, [unpack(tr(pack(r))) for r in refs]


def ds_label(node):
    """Label renderer of a domain-specific arena, for certdag.expand and
    certdag.serialize: the text of a node's label, before its argument."""
    label = node[1]  # an atom, which the tests' arenas hold, prints as _i
    return (MODALITY[label[0]][0](label) if label[0] in MODALITY
            else "_%d" % label[1])


# ------------------------------------------------------------- parsing

class _DSParser(Scanner):
    """The connectives of every logic and the shapes of their modalities;
    a modality that the logic does not own is refused."""
    error = TranslateError

    def __init__(self, text, logic, f):
        super().__init__(text)
        self.logic, self.owned, self.f = logic, _named(logic).modalities, f
        self.dag = FormulaDag()

    def modal(self, label, *args):
        if label[0] not in self.owned:
            raise TranslateError("logic %r has no %r modality"
                                 % (self.logic, label[0]))
        return self.dag.add_ds(label, args)

    def positions(self):
        """The argument positions of a label <{i, ...}>, read from its '{'
        to its '>': each counts from 1, appears once and fits f's arities."""
        self.eat("{")
        out = self.items("}", lambda: self.index("a position"))
        self.eat(">")
        if 0 in out or len(set(out)) < len(out):
            raise TranslateError("positions count from 1 and appear once, "
                                 "not %r" % out)
        if isinstance(self.f, Signature) and max(out, default=0) > max(
                a for _op, a in self.f.ops):
            raise TranslateError("no operation of %s has position %d"
                                 % (pretty_functor(self.f), max(out)))
        return frozenset(out)

    def formula(self):
        """A generator for unnest: each (yield) reads a nested formula."""
        if self.try_eat("true"):
            return TOP
        if self.try_eat("~"):
            nid, neg = yield
            return (nid, not neg)
        if self.try_eat("("):
            left = yield
            if self.try_eat("&"):
                add = self.dag.add_and
            else:
                self.eat("|")
                add = self.dag.add_or
            right = yield
            self.eat(")")
            return add(left, right)
        if self.try_eat("<>"):
            return self.modal(("dia",), (yield))
        if self.try_eat("[]"):
            return self.modal(("box",), (yield))
        if self.try_eat("<"):
            start = self.i
            content = self.upto(">").strip()  # an unclosed label fails here
            if content.startswith("{"):
                self.i = start
                return self.modal(("args", self.positions()), (yield))
            if self.try_eat("_{"):
                p = parse_rational(self.upto("}"))
                return self.modal(("prob", content, p), (yield))
            return self.modal(("w", parse_rational(content)), (yield))
        return self.modal(("sig", self.token()))  # a nullary operation


def parse_ds(text, logic, f=None):
    """Parse a formula of the domain-specific logic ``logic``, over functor
    f if given, into a fresh arena; returns (dag, reference).  Modalities of
    the other logics raise TranslateError."""
    try:
        p = _DSParser(text, logic, f)
        return p.dag, p.done(unnest(p.formula))
    except (ValueError, IndexError) as e:
        raise TranslateError("bad formula %r: %s" % (text, e)) from None
