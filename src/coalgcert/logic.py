"""Evaluation of dag formulas over a coalgebra.

The modal clause is colouring-based: a binary modality <t>(phi, psi) holds
at x when applying the functor to the three-colour map induced by the two
extensions (2 on both, 1 on psi only, 0 elsewhere) reproduces exactly the
value t; unary and nullary modalities use two- and one-colour maps.

An extension is an int bitset, bit x for state x.  The nodes below a
reference are evaluated in one forward pass in ascending id order, in
which children come before parents: ``top`` is the full mask, a
conjunction is ``&`` and a negated reference ``full ^ ext``.  A modal
node applies F to the colouring only at the predecessors of the states
outside its largest colour class L.  Every other state has all its
successors coloured L, so its key is F(const_L)(row), which depends on
the node only through L.  One table per L maps these keys to bitsets of
states.  The tables and the predecessor masks are built once per
evaluator, not once per node; check_certificates uses one evaluator for
all its formulas.

The domain-specific formulas of translate.py live in the same kind of
arena and go through the same pass: ``or`` is ``|``, and a node
('ds', label, args) holds where ds_holds accepts the row coloured 1 on
its argument and 0 elsewhere, decided once per key of the table for L
and once per keyed state."""

from __future__ import annotations

from fractions import Fraction

from .certdag import FormulaDag, reachable
from .coalgebra import predecessor_lists
from .values import (
    Scanner, ValueError_, fmap, parse_value, validate_value,
)


class EvalError(ValueError):
    pass


def _members(mask):
    """The state ids in a bitset, ascending."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def _mask(states):
    m = 0
    for x in states:
        m |= 1 << x
    return m


class _Extensions:
    """Bitset extensions of dag nodes over one coalgebra."""

    def __init__(self, c):
        self.c = c
        self.full = (1 << c.n) - 1
        self._preds = None  # preds[y]: the states with an edge to y
        self._const = {}    # L -> {F(const_L)(row): states with that key}

    def preds(self):
        if self._preds is None:
            self._preds = [_mask(p) for p in predecessor_lists(self.c)]
        return self._preds

    def const(self, L):
        table = self._const.get(L)
        if table is None:
            g = [L] * self.c.n
            table = self._const[L] = {}
            for x, t in enumerate(self.c.structure):
                key = fmap(t, g)
                table[key] = table.get(key, 0) | 1 << x
        return table

    def ext(self, dag, ref, memo):
        """Bitset extension of ref; memo maps node ids to bitsets, and
        gains every node below ref that it lacked."""
        for nid in reachable(dag, [ref], memo):
            node = dag.nodes[nid]
            if node[0] == "top":
                memo[nid] = self.full
            elif node[0] == "and":
                memo[nid] = self.at(node[1], memo) & self.at(node[2], memo)
            elif node[0] == "modal":
                memo[nid] = self.modal(node, memo)
            elif node[0] == "ds":
                memo[nid] = self.ds(node, memo)
            elif node[0] == "or":
                memo[nid] = self.at(node[1], memo) | self.at(node[2], memo)
            else:
                raise EvalError("bad node %r" % (node,))
        return self.at(ref, memo)

    def at(self, ref, memo):
        """Bitset extension of ref, whose node memo holds."""
        return self.full ^ memo[ref[0]] if ref[1] else memo[ref[0]]

    def recolour(self, classes):
        """(L, col, keyed) for the colour classes of a modal node: the
        largest class L, the colouring of the states by class, and the
        predecessors of the states outside L, the only states whose key
        is not F(const_L)(row).  col is None when L holds every state."""
        sizes = [m.bit_count() for m in classes]
        L = sizes.index(max(sizes))
        if sizes[L] == self.c.n:
            return L, None, 0
        col = [L] * self.c.n
        preds = self.preds()
        keyed = 0
        for colour, m in enumerate(classes):
            if colour != L:
                for y in _members(m):
                    col[y] = colour
                    keyed |= preds[y]
        return L, col, keyed

    def modal(self, node, memo):
        _, val, arity, args = node
        k = (1, 2, 3)[arity]
        if not validate_value(self.c.functor, val, k):
            raise EvalError("modal label %r does not fit palette %d" % (val, k))
        if arity == 0:
            classes = [self.full]
        elif arity == 1:
            phi = self.at(args[0], memo)
            classes = [self.full ^ phi, phi]
        else:
            phi, psi = self.at(args[0], memo), self.at(args[1], memo)
            classes = [self.full ^ psi, psi & ~phi, phi & psi]
        L, col, keyed = self.recolour(classes)
        out = self.const(L).get(val, 0)
        structure = self.c.structure
        hits = 0
        for x in _members(keyed):
            if fmap(structure[x], col) == val:
                hits |= 1 << x
        return out & ~keyed | hits

    def ds(self, node, memo):
        """A domain-specific modality holds at x when x's row, coloured 1
        on its argument's extension and 0 elsewhere, satisfies it."""
        _, label, args = node
        phi = self.at(args[0], memo) if args else self.full
        L, col, keyed = self.recolour([self.full ^ phi, phi])
        f = self.c.functor
        out = 0
        for key, states in self.const(L).items():
            if ds_holds(label, key, (1,), f):
                out |= states
        structure = self.c.structure
        hits = 0
        for x in _members(keyed):
            if ds_holds(label, fmap(structure[x], col), (1,), f):
                hits |= 1 << x
        return out & ~keyed | hits


def ds_holds(label, value, inside, f):
    """Whether a value of F(k) satisfies the domain-specific modality
    `label` of functor f, whose argument holds at the colours in `inside`.

        ('dia',)        some successor satisfies the argument
        ('box',)        there is a successor, and all satisfy it
        ('w', m)        the weight into the argument is exactly m
        ('sig', g)      the operation is g
        ('args', I)     the argument positions satisfying it are I
        ('prob', a, p)  on input a, the argument holds with
                        probability at least p"""
    tag = label[0]
    if tag == "dia":
        return any(j in inside for j in value[1])
    if tag == "box":
        return bool(value[1]) and all(j in inside for j in value[1])
    if tag == "w":
        return sum((w for j, w in value[1] if j in inside),
                   Fraction(0)) == label[1]
    if tag == "sig":
        return value[1] == label[1]
    if tag == "args":
        return frozenset(i + 1 for i, j in enumerate(value[2])
                         if j in inside) == label[1]
    if tag == "prob":
        _, a, p = label
        if a not in f.labels:
            raise EvalError("unknown label %r" % a)
        branch = value[1][f.labels.index(a)]
        return branch[1] == 0 and sum(
            (w for j, w in branch[2][1] if j in inside), Fraction(0)) >= p
    raise EvalError("unsubstituted placeholder in formula")


def eval_ref(dag, ref, c, memo=None):
    """Extension of a formula reference: the set of satisfying states.

    memo maps node ids to bitset extensions; the nodes below ref that it
    lacks are evaluated and added."""
    memo = {} if memo is None else memo
    return frozenset(_members(_Extensions(c).ext(dag, ref, memo)))


def check_certificates(certs, c=None):
    """Verify that every block certificate evaluates exactly to its block.

    Returns a list of mismatches (block id, expected, got); empty means the
    certificate set is sound and complete for the final partition."""
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
    block_at = [0] * c.n
    for i, states in enumerate(certs.blocks):
        for x in states:
            block_at[x] = i
    for cmp_id, ref in certs.beta.items():
        # compound formulas must cover whole unions of blocks
        got = ev.ext(certs.dag, ref, memo)
        covered = 0
        for i in {block_at[x] for x in _members(got)}:
            if masks[i] & got == masks[i]:
                covered |= masks[i]
        if got != covered:
            bad.append(("beta%d" % cmp_id, frozenset(_members(covered)),
                        frozenset(_members(got))))
    return bad


# ------------------------------------------------------------- parsing

class _FormulaParser(Scanner):
    error = EvalError

    def __init__(self, text, functor):
        super().__init__(text)
        self.functor = functor
        self.dag = FormulaDag()

    def formula(self):
        if self.try_eat("true"):
            return (0, False)
        if self.try_eat("~"):
            nid, neg = self.formula()
            return (nid, not neg)
        if self.try_eat("("):
            left = self.formula()
            self.eat("&")
            right = self.formula()
            self.eat(")")
            return self.dag.add_and(left, right)
        if self.try_eat("<"):
            j = self.text.index(">", self.i)
            literal = self.text[self.i:j]
            self.i = j + 1
            args = []
            if self.try_eat("("):
                args.append(self.formula())
                while self.try_eat(","):
                    args.append(self.formula())
                self.eat(")")
            arity = len(args)
            if arity > 2:
                raise EvalError("modalities take at most two arguments")
            val = parse_value(literal, self.functor, (1, 2, 3)[arity])
            return self.dag.add_modal(val, arity, tuple(args))
        raise EvalError("cannot parse formula at %r" % self.text[self.i:])


def parse_formula(text, functor):
    """Parse the generic formula syntax; returns (dag, reference)."""
    try:
        p = _FormulaParser(text, functor)
        return p.dag, p.done(p.formula())
    except (ValueError_, ValueError, IndexError) as e:
        raise EvalError("bad formula %r: %s" % (text, e)) from None
    except RecursionError:  # the parser recurses once per nesting level
        raise EvalError("formula nested too deeply") from None
