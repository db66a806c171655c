"""Translation of dag certificates into domain-specific logics.

Four target logics are supported, each tied to a functor shape:

    hm         powerset: diamond modality
    weighted   monoid-valued over R, Z, N: <m> "weight into the argument
               set is exactly m"
    signature  polynomial functors: nullary operation tests and <I> "the
               set of argument positions satisfying the argument is I"
    prob       labelled Markov chains (D(X)+1)^A: <a>_p "on input a the
               next state satisfies the argument with probability >= p"

A block certificate translates conjunct by conjunct: nullary labels map to
an output-value test, and a binary label <t>(delta, beta) maps to the
logic's decoding of t applied to (translated delta, translated beta minus
delta).  Unary labels from negation-free runs use the one-argument
decoding (weighted and signature logics).
"""

from __future__ import annotations

from fractions import Fraction

from .functor import (
    Constant, Coproduct, Distribution, Exponent, MonoidValued, Powerset,
    Signature,
)
from .values import Scanner, fmap, parse_rational

LOGICS = ("hm", "weighted", "signature", "prob")

TOP = ("top",)


class TranslateError(ValueError):
    pass


def _weight(v, c):
    """Weight of colour c in a ('vec', ((c, w), ...)) value."""
    return dict(v[1]).get(c, Fraction(0))


def _and(a, b):
    if a == TOP:
        return b
    if b == TOP:
        return a
    return ("and", a, b)


def _not(a):
    if a[0] == "not":
        return a[1]
    return ("not", a)


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
            "logic %r does not fit this functor (expected %s)"
            % (logic, want or "no supported logic"))


# ------------------------------------- modality decodings per logic

def tau(logic, f, o):
    """Closed formula whose one-colour extension is exactly the value o."""
    if logic == "hm":
        return ("dia", TOP) if o[1] else _not(("dia", TOP))
    if logic == "weighted":
        return ("w", _weight(o, 0), TOP)
    if logic == "signature":
        return ("sig", o[1])
    if logic == "prob":
        out = TOP
        for a, v in zip(f.labels, o[1]):
            clause = ("prob", a, Fraction(1), TOP)
            out = _and(out, clause if v[1] == 0 else _not(clause))
        return out
    raise TranslateError("unknown logic %r" % logic)


def lam(logic, f, t, delta, rho):
    """Decoding of a three-colour value: a formula in (delta, rho) whose
    extension, within the class of values agreeing outside the split, pins
    the value t (2-coloured part satisfies delta, 1-coloured part rho)."""
    if logic == "hm":
        has_s, has_rest = 2 in t[1], 1 in t[1]
        if has_s and not has_rest:
            return _not(("dia", rho))
        if has_s and has_rest:
            return _and(("dia", delta), ("dia", rho))
        if has_rest:
            return _not(("dia", delta))
        return TOP
    if logic == "weighted":
        # cancellative monoids: the weight into B\S follows by subtraction
        return ("w", _weight(t, 2), delta)
    if logic == "signature":
        into = frozenset(i + 1 for i, cc in enumerate(t[2]) if cc == 2)
        return ("args", into, delta)
    if logic == "prob":
        out = TOP
        for a, v in zip(f.labels, t[1]):
            if v[1] == 0:  # distribution branch
                out = _and(out, ("prob", a, _weight(v[2], 2), delta))
                out = _and(out, ("prob", a, _weight(v[2], 1), rho))
        return out
    raise TranslateError("unknown logic %r" % logic)


def kappa(logic, f, s, delta):
    """Decoding of a two-colour value (negation-free runs)."""
    if logic == "weighted":
        return ("w", _weight(s, 1), delta)
    if logic == "signature":
        into = frozenset(i + 1 for i, cc in enumerate(s[2]) if cc == 1)
        return ("args", into, delta)
    raise TranslateError(
        "logic %r has no one-argument decoding; translate a certificate "
        "set built in generic mode" % logic)


# ------------------------------------------------------------ translation

def translate_ref(certs, ref, logic, memo=None):
    if memo is None:
        memo = {}
    nid, neg = ref
    phi = _translate_node(certs, nid, logic, memo)
    return _not(phi) if neg else phi


def _translate_node(certs, nid, logic, memo):
    if nid in memo:
        return memo[nid]
    dag, f = certs.dag, certs.coalgebra.functor
    node = dag.nodes[nid]
    if node[0] == "top":
        out = TOP
    elif node[0] == "and":
        out = _and(translate_ref(certs, node[1], logic, memo),
                   translate_ref(certs, node[2], logic, memo))
    else:
        _, val, arity, args = node
        if arity == 0:
            out = tau(logic, f, val)
        elif arity == 2:
            d = translate_ref(certs, args[0], logic, memo)
            b = translate_ref(certs, args[1], logic, memo)
            out = lam(logic, f, val, d, _and(b, _not(d)))
        else:
            d = translate_ref(certs, args[0], logic, memo)
            out = kappa(logic, f, val, d)
    memo[nid] = out
    return out


def translate(certs, logic, blocks=None):
    """Translate block certificates; returns {block id: formula}."""
    check_compatible(logic, certs.coalgebra.functor)
    memo = {}
    ids = certs.block_ids if blocks is None else blocks
    return {bid: translate_ref(certs, certs.delta[bid], logic, memo)
            for bid in ids}


# ------------------------------------------------------------ evaluation

def _ds_args(phi):
    """The argument subformulas of a domain-specific formula node."""
    tag = phi[0]
    if tag in ("top", "sig", "atom"):
        return ()
    if tag in ("not", "dia", "box"):
        return (phi[1],)
    if tag in ("and", "or"):
        return phi[1:]
    if tag in ("w", "args"):
        return (phi[2],)
    if tag == "prob":
        return (phi[3],)
    raise TranslateError("bad formula node %r" % (tag,))


def _bottom_up(phi, node, memo):
    """memo[id(psi)] = node(psi) for phi and every subformula psi, each
    after its arguments, with an explicit stack; returns phi's entry."""
    todo = [phi]
    while todo:
        psi = todo[-1]
        if id(psi) in memo:
            todo.pop()
            continue
        args = [a for a in _ds_args(psi) if id(a) not in memo]
        if args:
            todo += args
        else:
            memo[id(todo.pop())] = node(psi)
    return memo[id(phi)]


def eval_ds(phi, c, memo=None):
    """Extension of a domain-specific formula over the coalgebra."""
    memo = {} if memo is None else memo
    universe = frozenset(range(c.n))

    def node(psi):
        tag = psi[0]
        if tag == "top":
            return universe
        if tag == "not":
            return universe - memo[id(psi[1])]
        if tag == "and":
            return memo[id(psi[1])] & memo[id(psi[2])]
        if tag == "or":
            return memo[id(psi[1])] | memo[id(psi[2])]
        if tag == "dia":
            ext = memo[id(psi[1])]
            return frozenset(x for x in range(c.n)
                             if any(y in ext for y in c.structure[x][1]))
        if tag == "box":
            # total box: at least one successor, and all successors satisfy
            ext = memo[id(psi[1])]
            return frozenset(x for x in range(c.n)
                             if c.structure[x][1]
                             and all(y in ext for y in c.structure[x][1]))
        if tag == "w":
            ext = memo[id(psi[2])]
            return frozenset(
                x for x in range(c.n)
                if sum((w for y, w in c.structure[x][1] if y in ext),
                       Fraction(0)) == psi[1])
        if tag == "sig":
            return frozenset(x for x in range(c.n)
                             if c.structure[x][1] == psi[1])
        if tag == "args":
            ext = memo[id(psi[2])]
            return frozenset(
                x for x in range(c.n)
                if frozenset(i + 1 for i, y in enumerate(c.structure[x][2])
                             if y in ext) == psi[1])
        if tag == "prob":
            a, p = psi[1], psi[2]
            if a not in c.functor.labels:
                raise TranslateError("unknown label %r" % a)
            idx = c.functor.labels.index(a)
            ext = memo[id(psi[3])]

            def holds(x):
                branch = c.structure[x][1][idx]
                if branch[1] != 0:
                    return False
                return sum((w for y, w in branch[2][1] if y in ext),
                           Fraction(0)) >= p
            return frozenset(x for x in range(c.n) if holds(x))
        raise TranslateError("unsubstituted placeholder in formula")

    return _bottom_up(phi, node, memo)


# ------------------------------------------------------- lifting checks

def _prop_ext(phi, env, k):
    """Extension of a propositional formula over the palette {0..k-1}."""
    tag = phi[0]
    if tag == "top":
        return frozenset(range(k))
    if tag == "atom":
        return env[phi[1]]
    if tag == "not":
        return frozenset(range(k)) - _prop_ext(phi[1], env, k)
    if tag == "and":
        return _prop_ext(phi[1], env, k) & _prop_ext(phi[2], env, k)
    if tag == "or":
        return _prop_ext(phi[1], env, k) | _prop_ext(phi[2], env, k)
    raise TranslateError("modal operator nested inside a modal argument")


def lift_eval(phi, value, env, f, k):
    """Whether the F(k)-value satisfies a one-layer modal formula.

    The formula's modalities are applied directly to `value`; their
    arguments are propositional over the palette with atoms bound by env."""
    tag = phi[0]
    if tag == "top":
        return True
    if tag == "not":
        return not lift_eval(phi[1], value, env, f, k)
    if tag == "and":
        return (lift_eval(phi[1], value, env, f, k)
                and lift_eval(phi[2], value, env, f, k))
    if tag == "or":
        return (lift_eval(phi[1], value, env, f, k)
                or lift_eval(phi[2], value, env, f, k))
    if tag == "dia":
        return len(set(value[1]) & _prop_ext(phi[1], env, k)) > 0
    if tag == "box":
        return (len(value[1]) > 0
                and set(value[1]) <= _prop_ext(phi[1], env, k))
    if tag == "w":
        ext = _prop_ext(phi[2], env, k)
        return sum((w for j, w in value[1] if j in ext), Fraction(0)) == phi[1]
    if tag == "sig":
        return value[1] == phi[1]
    if tag == "args":
        ext = _prop_ext(phi[2], env, k)
        return frozenset(i + 1 for i, cc in enumerate(value[2])
                         if cc in ext) == phi[1]
    if tag == "prob":
        a, p = phi[1], phi[2]
        idx = f.labels.index(a)
        branch = value[1][idx]
        if branch[1] != 0:
            return False
        ext = _prop_ext(phi[3], env, k)
        return sum((w for j, w in branch[2][1] if j in ext), Fraction(0)) >= p
    raise TranslateError("bad formula node %r" % (tag,))


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
    bad = []
    for o in values1:
        phi = tau(logic, f, o)
        hits = {o2 for o2 in values1 if lift_eval(phi, o2, {}, f, 1)}
        if hits != {o}:
            bad.append(("tau", o, hits))
    env3 = {0: frozenset({2}), 1: frozenset({1})}
    for t in values3:
        phi = lam(logic, f, t, ("atom", 0), ("atom", 1))
        cls = fmap(t, [0, 1, 1])
        hits = {t2 for t2 in values3
                if fmap(t2, [0, 1, 1]) == cls
                and lift_eval(phi, t2, env3, f, 3)}
        if hits != {t}:
            bad.append(("lambda", t, hits))
    if logic in ("weighted", "signature"):
        env2 = {0: frozenset({1})}
        for s in values2:
            phi = kappa(logic, f, s, ("atom", 0))
            out = fmap(s, [0, 0])
            hits = {s2 for s2 in values2
                    if fmap(s2, [0, 0]) == out
                    and lift_eval(phi, s2, env2, f, 2)}
            if hits != {s}:
                bad.append(("kappa", s, hits))
    return bad


# ------------------------------------------------------------- printing

def pretty_ds(phi):
    tag = phi[0]
    if tag == "top":
        return "true"
    if tag == "not":
        return "~" + pretty_ds(phi[1])
    if tag == "and":
        return "(%s & %s)" % (pretty_ds(phi[1]), pretty_ds(phi[2]))
    if tag == "or":
        return "(%s | %s)" % (pretty_ds(phi[1]), pretty_ds(phi[2]))
    if tag == "dia":
        return "<>" + pretty_ds(phi[1])
    if tag == "box":
        return "[]" + pretty_ds(phi[1])
    if tag == "w":
        return "<%s>%s" % (phi[1], pretty_ds(phi[2]))
    if tag == "sig":
        return phi[1]
    if tag == "args":
        return "<{%s}>%s" % (",".join(str(i) for i in sorted(phi[1])),
                             pretty_ds(phi[2]))
    if tag == "prob":
        return "<%s>_{%s}%s" % (phi[1], phi[2], pretty_ds(phi[3]))
    if tag == "atom":
        return "_%d" % phi[1]
    raise TranslateError("bad formula node %r" % (tag,))


def ds_size(phi, memo=None):
    """Tree size of a domain-specific formula (shared subtrees recounted)."""
    memo = {} if memo is None else memo
    return _bottom_up(
        phi, lambda psi: 1 + sum(memo[id(a)] for a in _ds_args(psi)), memo)


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

    def modal(self, *node):
        if node[0] not in _MODALITIES[self.logic]:
            raise TranslateError("logic %r has no %r modality"
                                 % (self.logic, node[0]))
        return node

    def formula(self):
        if self.try_eat("true"):
            return TOP
        if self.try_eat("~"):
            return _not(self.formula())
        if self.try_eat("("):
            left = self.formula()
            if self.try_eat("&"):
                op = "and"
            else:
                self.eat("|")
                op = "or"
            right = self.formula()
            self.eat(")")
            return (op, left, right)
        if self.try_eat("<>"):
            return self.modal("dia", self.formula())
        if self.try_eat("[]"):
            return self.modal("box", self.formula())
        if self.try_eat("<"):
            j = self.text.index(">", self.i)
            content = self.text[self.i:j].strip()
            self.i = j + 1
            if content.startswith("{"):
                inner = content.strip("{}").strip()
                idxs = frozenset(int(t) for t in inner.split(",") if t.strip())
                return self.modal("args", idxs, self.formula())
            if self.try_eat("_{"):
                jj = self.text.index("}", self.i)
                p = parse_rational(self.text[self.i:jj])
                self.i = jj + 1
                return self.modal("prob", content, p, self.formula())
            return self.modal("w", parse_rational(content), self.formula())
        return self.modal("sig", self.token())  # a nullary operation


def parse_ds(text, logic):
    """Parse a formula of the domain-specific logic ``logic``; modalities of
    the other logics raise TranslateError."""
    try:
        p = _DSParser(text, logic)
        return p.done(p.formula())
    except (ValueError, IndexError) as e:
        raise TranslateError("bad formula %r: %s" % (text, e)) from None
    except RecursionError:  # the parser recurses once per nesting level
        raise TranslateError("formula nested too deeply") from None
