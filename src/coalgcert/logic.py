"""Evaluation of dag formulas over a coalgebra.

The modal clause is colouring-based: a binary modality <t>(phi, psi) holds
at x when applying the functor to the three-colour map induced by the two
extensions (2 on both, 1 on psi only, 0 elsewhere) reproduces exactly the
value t; unary and nullary modalities use two- and one-colour maps."""

from __future__ import annotations

from .certdag import FormulaDag, reachable
from .values import (
    Scanner, ValueError_, fmap, parse_value, validate_value,
)


class EvalError(ValueError):
    pass


def _colouring(n, ext_s, ext_b):
    col = [0] * n
    for y in ext_b:
        col[y] = 1
    for y in ext_s:
        if col[y] == 1:
            col[y] = 2
    return col


def eval_ref(dag, ref, c, memo=None):
    """Extension of a formula reference: the set of satisfying states.

    memo maps node ids to extensions.  The nodes below ref that it lacks
    are evaluated in one forward pass in ascending id order, in which
    children come before parents."""
    if memo is None:
        memo = {}
    for nid in reachable(dag, [ref], memo):
        memo[nid] = eval_node(dag, nid, c, memo)
    ext = memo[ref[0]]
    if ref[1]:
        return frozenset(range(c.n)) - ext
    return ext


def eval_node(dag, nid, c, memo):
    """Extension of node nid, whose children memo already holds."""
    node = dag.nodes[nid]
    if node[0] == "top":
        out = frozenset(range(c.n))
    elif node[0] == "and":
        out = eval_ref(dag, node[1], c, memo) & eval_ref(dag, node[2], c, memo)
    elif node[0] == "modal":
        _, val, arity, args = node
        k = (1, 2, 3)[arity]
        if not validate_value(c.functor, val, k):
            raise EvalError("modal label %r does not fit palette %d" % (val, k))
        if arity == 0:
            col = [0] * c.n
        elif arity == 1:
            ext = eval_ref(dag, args[0], c, memo)
            col = [1 if y in ext else 0 for y in range(c.n)]
        else:
            ext_s = eval_ref(dag, args[0], c, memo)
            ext_b = eval_ref(dag, args[1], c, memo)
            col = _colouring(c.n, ext_s, ext_b)
        out = frozenset(
            x for x in range(c.n) if fmap(c.structure[x], col) == val)
    else:
        raise EvalError("bad node %r" % (node,))
    return out


def check_certificates(certs, c=None):
    """Verify that every block certificate evaluates exactly to its block.

    Returns a list of mismatches (block id, expected, got); empty means the
    certificate set is sound and complete for the final partition."""
    if c is None:
        c = certs.coalgebra
    memo = {}
    bad = []
    for bid, states in zip(certs.block_ids, certs.blocks):
        got = eval_ref(certs.dag, certs.delta[bid], c, memo)
        if got != frozenset(states):
            bad.append((bid, frozenset(states), got))
    for cmp_id, ref in certs.beta.items():
        # compound formulas must cover whole unions of blocks
        got = eval_ref(certs.dag, ref, c, memo)
        covered = set()
        for bid, states in zip(certs.block_ids, certs.blocks):
            if set(states) <= got:
                covered |= set(states)
        if got != frozenset(covered):
            bad.append(("beta%d" % cmp_id, frozenset(covered), got))
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
