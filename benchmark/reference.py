"""Reference computations the benchmark checks the program against.

Independent of the package: a Moore-style signature fixpoint over the
benchmark's own model representation (models.py), the planted ground truth
of lmc-planted, and an evaluator for certificate formulas over powerset
systems.  ``self_check()`` tests the reference itself; run.py calls it
before every measurement, and ``python3 benchmark/reference.py`` runs it
alone.
"""

from __future__ import annotations

import sys
from fractions import Fraction

if __package__ in (None, ""):
    import models
else:
    from . import models


def _signature(kind, row, block):
    if kind == "lts":
        return frozenset(block[y] for y in row)
    if kind == "llts":
        return frozenset((lab, block[y]) for lab, y in row)
    if kind == "lmc":
        out = []
        for dist in row:
            if dist is None:
                out.append(None)
                continue
            acc = {}
            for y, w in dist:
                acc[block[y]] = acc.get(block[y], Fraction(0)) + w
            out.append(frozenset(acc.items()))
        return tuple(out)
    raise ValueError("unknown model kind %r" % kind)


def coarsest_partition(model):
    """Class id per state of behavioural equivalence.

    Moore-style: start from one class, and in every round split each class
    by the signature of its states' rows read modulo the current classes,
    until a round splits nothing.  Class ids are numbered by first
    occurrence."""
    kind, rows = model.kind, model.rows
    block = [0] * len(rows)
    count = 1 if rows else 0
    while True:
        ids = {}
        new = [ids.setdefault((block[x], _signature(kind, row, block)), len(ids))
               for x, row in enumerate(rows)]
        if len(ids) == count:
            return new
        block, count = new, len(ids)


def classes(block_of, names=None):
    """The partition as a set of frozensets (of names, if given)."""
    groups = {}
    for x, b in enumerate(block_of):
        groups.setdefault(b, []).append(x if names is None else names[x])
    return {frozenset(g) for g in groups.values()}


def planted_partition(model, base):
    """Ground truth of a planted chain: x and y are equivalent exactly when
    the base states they copy are equivalent in the base chain."""
    base_block = coarsest_partition(base)
    return [base_block[b] for b in model.base_of]


# ------------------------------------------------------ formula evaluation

def powerset_extensions(nodes, roots, rows):
    """Extensions of dag nodes over a powerset system, as sets of states.

    ``nodes`` is the certificate arena: ('top',), ('and', l, r) or
    ('modal', ('set', colours), arity, args), where l, r and args are
    (node id, negated) references and children precede parents.  A modality
    <t>(phi, psi) holds at x when the set of colours of x's successors is t,
    colouring 2 on phi and psi, 1 on psi only and 0 elsewhere; a unary one
    colours 1 on phi, a nullary one colours every state 0.  Only nodes
    reachable from ``roots`` are evaluated."""
    n = len(rows)
    every = frozenset(range(n))
    preds = [[] for _ in range(n)]
    for x, row in enumerate(rows):
        for y in row:
            preds[y].append(x)

    def pre(targets):
        out = set()
        for y in targets:
            out.update(preds[y])
        return out

    need = set()
    stack = list(roots)
    while stack:
        nid = stack.pop()
        if nid in need:
            continue
        need.add(nid)
        node = nodes[nid]
        if node[0] == "and":
            stack.extend((node[1][0], node[2][0]))
        elif node[0] == "modal":
            stack.extend(a for a, _neg in node[3])

    ext = {}

    def ref(r):
        nid, neg = r
        return every - ext[nid] if neg else ext[nid]

    for nid in sorted(need):
        node = nodes[nid]
        if node[0] == "top":
            ext[nid] = every
        elif node[0] == "and":
            ext[nid] = ref(node[1]) & ref(node[2])
        elif node[0] == "modal":
            _, value, arity, args = node
            if arity == 0:
                painted = [every, set(), set()]
            elif arity == 1:
                a = ref(args[0])
                painted = [every - a, a, set()]
            else:
                a, b = ref(args[0]), ref(args[1])
                painted = [every - b, b - a, a & b]
            want = set(value[1])
            out = set(every)
            for colour, states in enumerate(painted):
                if colour in want:
                    out &= pre(states)
                else:
                    out -= pre(states)
            ext[nid] = frozenset(out)
        else:
            raise ValueError("unknown formula node %r" % (node,))
    return ext


# ------------------------------------------------------------ self check

# ts1, the transition system documented in the package README
TS1_NAMES = ["x", "x1", "y", "z"]
TS1 = models.Model("lts", [(0, 1), (1, 3), (2, 3), ()])


def self_check():
    """Raise AssertionError unless the reference reproduces known answers."""
    got = classes(coarsest_partition(TS1), TS1_NAMES)
    want = {frozenset({"x"}), frozenset({"z"}), frozenset({"x1", "y"})}
    if got != want:
        raise AssertionError("reference partition of ts1 is %r" % got)
    # labels matter: the same graph with different labels on x's two
    # edges separates x from an otherwise identical state
    llts = models.Model("llts", [(("a", 1), ("b", 1)), (), (("a", 1),), ()])
    if classes(coarsest_partition(llts)) != {
            frozenset({0}), frozenset({1, 3}), frozenset({2})}:
        raise AssertionError("reference ignores transition labels")
    # a planted chain: copies of one base state stay together, and the
    # full fixpoint on the copies agrees with the base chain's classes
    rng = models.rng_for("self-check", 0, "planted")
    base = models.random_lmc(rng, 12)
    planted = models.planted_lmc(rng, base, 3)
    full = classes(coarsest_partition(planted))
    truth = classes(planted_partition(planted, base))
    if full != truth:
        raise AssertionError("planted classes differ from the fixpoint")
    for cls in full:
        bases = {planted.base_of[x] for x in cls}
        if {x for x, b in enumerate(planted.base_of) if b in bases} != cls:
            raise AssertionError("a class splits the copies of a base state")
    # the formula evaluator on ts1: <{0}> holds where some successor exists
    nodes = [("top",), ("modal", ("set", (0,)), 0, ())]
    if powerset_extensions(nodes, [1], TS1.rows)[1] != {0, 1, 2}:
        raise AssertionError("formula evaluator is wrong on ts1")


if __name__ == "__main__":
    self_check()
    print("reference self-check passed")
    sys.exit(0)
