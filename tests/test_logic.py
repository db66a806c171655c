"""Generic modal-logic semantics: evaluation, parsing, soundness checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.certdag import FormulaDag, build_certificates
from coalgcert.logic import (
    EvalError, _colouring, check_certificates, eval_ref, parse_formula,
)
from coalgcert.oracle import naive_bisimilarity
from coalgcert.refiner import refine
from coalgcert.values import fmap
from conftest import random_instances


def adequacy_probe(c, blocks, rng=None, samples=200, depth=3):
    """Sanity-check the logic against a known equivalence.

    Samples random formulas (with realizable modal labels) and verifies
    that states in the same block of `blocks` are never separated.  Returns
    the number of formulas tried; raises on any violation."""
    rng = rng or random.Random(0)
    n = c.n
    if n == 0:
        return 0
    dag = FormulaDag()
    block_of = {}
    for b, states in enumerate(blocks):
        for s in states:
            block_of[s] = b

    def rand_formula(d):
        r = rng.random()
        if d == 0 or r < 0.2:
            return (0, False)
        if r < 0.35:
            nid, neg = rand_formula(d - 1)
            return (nid, not neg)
        if r < 0.55:
            return dag.add_and(rand_formula(d - 1), rand_formula(d - 1))
        arity = rng.choice((0, 1, 2))
        x = rng.randrange(n)
        if arity == 0:
            val = fmap(c.structure[x], [0] * n)
            return dag.add_modal(val, 0, ())
        sub = [rand_formula(d - 1) for _ in range(arity)]
        memo = {}
        exts = [eval_ref(dag, s, c, memo) for s in sub]
        if arity == 1:
            col = [1 if y in exts[0] else 0 for y in range(n)]
        else:
            col = _colouring(n, exts[0], exts[1])
        val = fmap(c.structure[x], col)
        return dag.add_modal(val, arity, tuple(sub))

    for _ in range(samples):
        ref = rand_formula(depth)
        ext = eval_ref(dag, ref, c, {})
        for states in blocks:
            inside = sum(1 for s in states if s in ext)
            if inside not in (0, len(states)):
                raise EvalError(
                    "formula separates equivalent states in block %r" % states)
    return samples


def ext(text, c):
    dag, ref = parse_formula(text, c.functor)
    return eval_ref(dag, ref, c)


def test_eval_goldens(ts1):
    x, x1, y, z = range(4)
    assert ext("true", ts1) == {x, x1, y, z}
    assert ext("<{}>", ts1) == {z}                 # nullary: deadlock
    assert ext("~<{}>", ts1) == {x, x1, y}
    assert ext("<{1}>(<{}>, true)", ts1) == {x}    # successors avoid deadlock
    assert ext("(<{0}> & ~<{}>)", ts1) == {x, x1, y}


def test_eval_weighted(mc1):
    x = mc1.states.index("x")
    z1 = mc1.states.index("z1")
    # total outgoing weight 0: only the terminal state
    assert ext("<(0,0,0)>(true, true)", mc1) == {z1}
    assert x in ext("~<(0,0,0)>(true, true)", mc1)


def test_eval_deep_chain_without_recursion(ts1):
    # 5,000 nested conjunctions, far past the interpreter's recursion limit
    dag = FormulaDag()
    has_successor = dag.add_modal(("set", (0,)), 0, ())
    ref = has_successor
    for _ in range(5000):
        ref = dag.add_and(ref, has_successor)
    memo = {}
    assert eval_ref(dag, ref, ts1, memo) == {0, 1, 2}
    assert eval_ref(dag, (ref[0], True), ts1, memo) == {3}


def test_parse_formula_errors(ts1):
    for text in ("", "(", "<{", "<{9}>", "& true", "true true"):
        with pytest.raises(EvalError):
            parse_formula(text, ts1.functor)


def test_powerset_modal_semantics(ts1):
    """A powerset label {a, ...} holds exactly when the successor set's
    image under the argument colouring equals the label."""
    dag, ref = parse_formula("<{1,2}>(<{}>, true)", ts1.functor)
    got = eval_ref(dag, ref, ts1)
    deadlock = {s for s in range(ts1.n) if ts1.structure[s] == ("set", ())}
    expect = set()
    for s in range(ts1.n):
        succ = set(ts1.structure[s][1])
        cols = {2 if t in deadlock else 1 for t in succ}
        if cols == {1, 2}:
            expect.add(s)
    assert got == expect


def test_memoised_equals_fresh(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    memo = {}
    for bid in certs.block_ids:
        a = eval_ref(certs.dag, certs.delta[bid], ts1, memo)
        b = eval_ref(certs.dag, certs.delta[bid], ts1)
        assert a == b


def test_check_certificates_passes_everywhere():
    for label, c in random_instances(seeds=range(4), n=12):
        res = refine(c)
        certs = build_certificates(c, res)
        assert check_certificates(certs) == [], label


def test_check_certificates_detects_corruption(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    # point one block's certificate at top: its extension becomes everything
    victim = next(bid for bid, sts in zip(certs.block_ids, certs.blocks)
                  if len(sts) < ts1.n)
    certs.delta[victim] = (0, False)
    bad = check_certificates(certs)
    assert any(entry[0] == victim for entry in bad)


def test_adequacy_probe(ts1, mc1):
    for c in (ts1, mc1):
        blocks = naive_bisimilarity(c)
        tried = adequacy_probe(c, blocks, rng=random.Random(7), samples=150)
        assert tried > 0


def test_adequacy_probe_flags_wrong_partition(ts1):
    # pretending x and z are equivalent must trip the probe
    with pytest.raises(EvalError):
        adequacy_probe(ts1, [[0, 3], [1, 2]], rng=random.Random(7),
                       samples=300)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 1000))
def test_random_formula_never_splits_blocks(seed):
    for label, c in random_instances(seeds=(seed % 5,), n=8):
        blocks = naive_bisimilarity(c)
        adequacy_probe(c, blocks, rng=random.Random(seed), samples=30)
