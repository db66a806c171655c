"""Translation of dag certificates into domain-specific logics.

Four target logics are supported, each tied to a functor shape:

    hm         powerset: diamond modality
    weighted   monoid-valued over R, Z, N: <m> "weight into the argument
               set is exactly m"
    signature  polynomial functors: nullary operation tests and <I> "the
               set of argument positions satisfying the argument is I"
    prob       labelled Markov chains (D(X)+1)^A: <a>_p "on input a the
               next state satisfies the argument with probability >= p"

Domain-specific formulas are nodes of a FormulaDag arena, like the
certificates they translate: ('ds', label, args) carries one of the
modalities above (logic.ds_holds gives their meaning), ('or', l, r) comes
only from parsed text, and negation is the bit of an edge reference.  So
logic.eval_ref evaluates them, FormulaDag.tree_size sizes them, and
certdag.serialize and certdag.expand print them, with ds_label rendering
their labels.

translate maps the certificate dag node by node, in one forward pass over
the nodes below the requested references: nullary labels map to an
output-value test, and a binary label <t>(delta, beta) maps to the
logic's decoding of t applied to (translated delta, translated beta minus
delta).  Unary labels from negation-free runs use the one-argument
decoding (weighted and signature logics).  The translated arena is
therefore linear in the certificate dag.
"""

from __future__ import annotations

from fractions import Fraction

from .certdag import TOP, FormulaDag, reachable
from .functor import (
    Constant, Coproduct, Distribution, Exponent, MonoidValued, Powerset,
    Signature, pretty_functor,
)
from .logic import ds_holds
from .values import Scanner, fmap, parse_rational

LOGICS = ("hm", "weighted", "signature", "prob")


class TranslateError(ValueError):
    pass


def _weight(v, c):
    """Weight of colour c in a ('vec', ((c, w), ...)) value."""
    return dict(v[1]).get(c, Fraction(0))


def _and(dag, a, b):
    if a == TOP:
        return b
    if b == TOP:
        return a
    return dag.add_and(a, b)


def default_logic(f):
    if isinstance(f, Powerset):
        return "hm"
    if isinstance(f, MonoidValued):
        return "weighted"
    if isinstance(f, Signature):
        return "signature"
    if _prob_shape(f):
        return "prob"
    return None


def _prob_shape(f):
    return (isinstance(f, Exponent)
            and isinstance(f.base, Coproduct) and len(f.base.parts) == 2
            and isinstance(f.base.parts[0], Distribution)
            and isinstance(f.base.parts[1], Constant)
            and len(f.base.parts[1].atoms) == 1)


def check_compatible(logic, f):
    if logic not in LOGICS:
        raise TranslateError("unknown logic %r" % logic)
    want = default_logic(f)
    if want != logic:
        raise TranslateError(
            "logic %r does not fit functor %s (expected %s)"
            % (logic, pretty_functor(f), want or "no supported logic"))


# ------------------------------------- modality decodings per logic

def tau(dag, logic, f, o):
    """Closed formula whose one-colour extension is exactly the value o."""
    if logic == "hm":
        nid, _ = dag.add_ds(("dia",), (TOP,))
        return (nid, not o[1])
    if logic == "weighted":
        return dag.add_ds(("w", _weight(o, 0)), (TOP,))
    if logic == "signature":
        return dag.add_ds(("sig", o[1]), ())
    if logic == "prob":
        out = TOP
        for a, v in zip(f.labels, o[1]):
            nid, _ = dag.add_ds(("prob", a, Fraction(1)), (TOP,))
            out = _and(dag, out, (nid, v[1] != 0))
        return out
    raise TranslateError("unknown logic %r" % logic)


def lam(dag, logic, f, t, delta, rho):
    """Decoding of a three-colour value: a formula in (delta, rho) whose
    extension, within the class of values agreeing outside the split, pins
    the value t (2-coloured part satisfies delta, 1-coloured part rho)."""
    if logic == "hm":
        has_s, has_rest = 2 in t[1], 1 in t[1]
        if has_s and not has_rest:
            return (dag.add_ds(("dia",), (rho,))[0], True)
        if has_s and has_rest:
            return _and(dag, dag.add_ds(("dia",), (delta,)),
                        dag.add_ds(("dia",), (rho,)))
        if has_rest:
            return (dag.add_ds(("dia",), (delta,))[0], True)
        return TOP
    if logic == "weighted":
        # cancellative monoids: the weight into B\S follows by subtraction
        return dag.add_ds(("w", _weight(t, 2)), (delta,))
    if logic == "signature":
        into = frozenset(i + 1 for i, cc in enumerate(t[2]) if cc == 2)
        return dag.add_ds(("args", into), (delta,))
    if logic == "prob":
        out = TOP
        for a, v in zip(f.labels, t[1]):
            if v[1] == 0:  # distribution branch
                for colour, arg in ((2, delta), (1, rho)):
                    out = _and(dag, out, dag.add_ds(
                        ("prob", a, _weight(v[2], colour)), (arg,)))
        return out
    raise TranslateError("unknown logic %r" % logic)


def kappa(dag, logic, f, s, delta):
    """Decoding of a two-colour value (negation-free runs)."""
    if logic == "weighted":
        return dag.add_ds(("w", _weight(s, 1)), (delta,))
    if logic == "signature":
        into = frozenset(i + 1 for i, cc in enumerate(s[2]) if cc == 1)
        return dag.add_ds(("args", into), (delta,))
    raise TranslateError(
        "logic %r has no one-argument decoding; translate a certificate "
        "set built in generic mode" % logic)


# ------------------------------------------------------------ translation

def translate(certs, logic, refs):
    """Translate edge references of the certificate dag into ``logic``.

    One forward pass over the nodes that refs reach, children first, maps
    each node to a reference into a fresh arena.  Returns the arena and
    the translated references, in the order of refs."""
    f = certs.coalgebra.functor
    check_compatible(logic, f)
    dag, out = FormulaDag(), {}

    def tr(ref):
        nid, neg = out[ref[0]]
        return (nid, neg != ref[1])

    for nid in reachable(certs.dag, refs):
        node = certs.dag.nodes[nid]
        if node[0] == "top":
            out[nid] = TOP
        elif node[0] == "and":
            out[nid] = _and(dag, tr(node[1]), tr(node[2]))
        else:
            _, val, arity, args = node
            if arity == 0:
                out[nid] = tau(dag, logic, f, val)
            elif arity == 2:
                d, b = tr(args[0]), tr(args[1])
                out[nid] = lam(dag, logic, f, val, d,
                               _and(dag, b, (d[0], not d[1])))
            else:
                out[nid] = kappa(dag, logic, f, val, tr(args[0]))
    return dag, [tr(r) for r in refs]


# ------------------------------------------------------- lifting checks

def lift_eval(dag, ref, value, env, f, k):
    """Whether the F(k)-value satisfies a one-layer modal formula.

    The formula's modalities apply directly to `value`; their arguments
    are propositional over the palette {0..k-1}, with the nodes of env
    (node id -> colour set) as atoms.  A modal node's own extension is
    the whole palette or nothing, so the formula holds iff its extension
    is not empty."""
    full = frozenset(range(k))
    ext = dict(env)

    def at(r):
        return full - ext[r[0]] if r[1] else ext[r[0]]

    for nid in reachable(dag, [ref], env):
        node = dag.nodes[nid]
        if node[0] == "top":
            ext[nid] = full
        elif node[0] == "and":
            ext[nid] = at(node[1]) & at(node[2])
        elif node[0] == "or":
            ext[nid] = at(node[1]) | at(node[2])
        else:
            _, label, args = node
            holds = ds_holds(label, value, at(args[0]) if args else full, f)
            ext[nid] = full if holds else frozenset()
    return bool(at(ref))


def verify_dsi(logic, c, values1, values2, values3):
    """Brute-force check of the interpretation axioms on realizable values.

    values1/2/3 are the realizable one-, two- and three-colour values of
    the coalgebra.  For every o the closed formula tau(o) must single out o
    among the one-colour values; for every t the open formula lam(t) must
    single out t among the three-colour values that agree with t once the
    two inner colours are merged; analogously for kappa where defined.
    Returns a list of violations (empty = all axioms hold)."""
    f = c.functor
    check_compatible(logic, f)
    dag = FormulaDag()
    delta, rho = dag.add_ds(("atom", 0), ()), dag.add_ds(("atom", 1), ())
    bad = []
    for o in values1:
        phi = tau(dag, logic, f, o)
        hits = {o2 for o2 in values1 if lift_eval(dag, phi, o2, {}, f, 1)}
        if hits != {o}:
            bad.append(("tau", o, hits))
    env3 = {delta[0]: frozenset({2}), rho[0]: frozenset({1})}
    for t in values3:
        phi = lam(dag, logic, f, t, delta, rho)
        cls = fmap(t, [0, 1, 1])
        hits = {t2 for t2 in values3
                if fmap(t2, [0, 1, 1]) == cls
                and lift_eval(dag, phi, t2, env3, f, 3)}
        if hits != {t}:
            bad.append(("lambda", t, hits))
    if logic in ("weighted", "signature"):
        env2 = {delta[0]: frozenset({1})}
        for s in values2:
            phi = kappa(dag, logic, f, s, delta)
            out = fmap(s, [0, 0])
            hits = {s2 for s2 in values2
                    if fmap(s2, [0, 0]) == out
                    and lift_eval(dag, phi, s2, env2, f, 2)}
            if hits != {s}:
                bad.append(("kappa", s, hits))
    return bad


# ------------------------------------------------------------- printing

def ds_label(node):
    """Label renderer of a domain-specific arena, for certdag.expand and
    certdag.serialize: the text of a node's label, before its argument."""
    label = node[1]
    tag = label[0]
    if tag == "dia":
        return "<>"
    if tag == "box":
        return "[]"
    if tag == "w":
        return "<%s>" % label[1]
    if tag == "sig":
        return label[1]
    if tag == "args":
        return "<{%s}>" % ",".join(str(i) for i in sorted(label[1]))
    if tag == "prob":
        return "<%s>_{%s}" % label[1:]
    return "_%d" % label[1]  # an atom of verify_dsi


# ------------------------------------------------------------- parsing

# the modal node kinds of each logic; every logic has top, ~, & and |
_MODALITIES = {"hm": ("dia", "box"), "weighted": ("w",),
               "signature": ("sig", "args"), "prob": ("prob",)}


class _DSParser(Scanner):
    error = TranslateError

    def __init__(self, text, logic):
        super().__init__(text)
        if logic not in _MODALITIES:
            raise TranslateError("unknown logic %r" % logic)
        self.logic = logic
        self.dag = FormulaDag()

    def modal(self, label, *args):
        if label[0] not in _MODALITIES[self.logic]:
            raise TranslateError("logic %r has no %r modality"
                                 % (self.logic, label[0]))
        return self.dag.add_ds(label, args)

    def formula(self):
        if self.try_eat("true"):
            return TOP
        if self.try_eat("~"):
            nid, neg = self.formula()
            return (nid, not neg)
        if self.try_eat("("):
            left = self.formula()
            if self.try_eat("&"):
                add = self.dag.add_and
            else:
                self.eat("|")
                add = self.dag.add_or
            right = self.formula()
            self.eat(")")
            return add(left, right)
        if self.try_eat("<>"):
            return self.modal(("dia",), self.formula())
        if self.try_eat("[]"):
            return self.modal(("box",), self.formula())
        if self.try_eat("<"):
            j = self.text.index(">", self.i)
            content = self.text[self.i:j].strip()
            self.i = j + 1
            if content.startswith("{"):
                inner = content.strip("{}").strip()
                idxs = frozenset(int(t) for t in inner.split(",") if t.strip())
                return self.modal(("args", idxs), self.formula())
            if self.try_eat("_{"):
                jj = self.text.index("}", self.i)
                p = parse_rational(self.text[self.i:jj])
                self.i = jj + 1
                return self.modal(("prob", content, p), self.formula())
            return self.modal(("w", parse_rational(content)), self.formula())
        return self.modal(("sig", self.token()))  # a nullary operation


def parse_ds(text, logic):
    """Parse a formula of the domain-specific logic ``logic`` into a fresh
    arena; returns (dag, reference).  Modalities of the other logics raise
    TranslateError."""
    try:
        p = _DSParser(text, logic)
        return p.dag, p.done(p.formula())
    except (ValueError, IndexError) as e:
        raise TranslateError("bad formula %r: %s" % (text, e)) from None
    except RecursionError:  # the parser recurses once per nesting level
        raise TranslateError("formula nested too deeply") from None
