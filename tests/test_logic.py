"""Generic modal-logic semantics: evaluation, parsing, soundness checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert import logic
from coalgcert.certdag import FormulaDag, build_certificates, reachable
from coalgcert.coalgebra import desugar_composite
from coalgcert.logic import (
    EvalError, check_certificates, eval_ref, parse_formula,
)
from coalgcert.oracle import GeneratorSpec, generate, naive_bisimilarity
from coalgcert.refiner import refine
from coalgcert.values import fmap
from conftest import CANCELLATIVE_FUNCTORS, FUNCTORS, random_instances
from test_acceptance import composite_instance


def _colouring(n, ext_s, ext_b):
    col = [0] * n
    for y in ext_b:
        col[y] = 1
    for y in ext_s:
        if col[y] == 1:
            col[y] = 2
    return col


def frozenset_ext(dag, ref, c, memo):
    """Reference evaluator: frozenset extensions, and every modal node
    applies F to the colouring of all n states."""
    for nid in reachable(dag, [ref], memo):
        node = dag.nodes[nid]
        if node[0] == "top":
            out = frozenset(range(c.n))
        elif node[0] == "and":
            out = (frozenset_ext(dag, node[1], c, memo)
                   & frozenset_ext(dag, node[2], c, memo))
        else:
            _, val, arity, args = node
            exts = [frozenset_ext(dag, a, c, memo) for a in args]
            if arity == 0:
                col = [0] * c.n
            elif arity == 1:
                col = [1 if y in exts[0] else 0 for y in range(c.n)]
            else:
                col = _colouring(c.n, exts[0], exts[1])
            out = frozenset(
                x for x in range(c.n) if fmap(c.structure[x], col) == val)
        memo[nid] = out
    ext = memo[ref[0]]
    return frozenset(range(c.n)) - ext if ref[1] else ext


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
    for bid in range(len(certs.blocks)):
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
    victim = next(bid for bid, sts in enumerate(certs.blocks)
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


def assert_extensions_match_reference(c, certs):
    memo, ref_memo = {}, {}
    for nid in range(len(certs.dag.nodes)):
        for neg in (False, True):
            got = eval_ref(certs.dag, (nid, neg), c, memo)
            assert got == frozenset_ext(certs.dag, (nid, neg), c, ref_memo)


@pytest.mark.parametrize("fx", FUNCTORS)
def test_extensions_match_reference_generic(fx):
    for label, c in random_instances([fx], seeds=range(4), n=14):
        assert_extensions_match_reference(c, build_certificates(c, refine(c)))


@pytest.mark.parametrize("fx", CANCELLATIVE_FUNCTORS)
def test_extensions_match_reference_cancellative(fx):
    unary = 0
    for label, c in random_instances([fx], seeds=range(4), n=14):
        certs = build_certificates(c, refine(c, mode="cancellative"))
        unary += sum(1 for node in certs.dag.nodes
                     if node[0] == "modal" and node[2] == 1)
        assert_extensions_match_reference(c, certs)
    assert unary


def test_extensions_match_reference_composite():
    for seed in range(4):
        c = desugar_composite(composite_instance(seed)).coalgebra
        assert_extensions_match_reference(c, build_certificates(c, refine(c)))


def test_check_certificates_detects_corrupt_beta_label(ts1):
    certs = build_certificates(ts1, refine(ts1))
    # the first modal node below a compound formula whose label a
    # different, well-formed label can replace
    for ref in certs.beta.values():
        for nid in reachable(certs.dag, [ref]):
            node = certs.dag.nodes[nid]
            if node[0] == "modal" and node[1] == ("set", (1,)):
                certs.dag.nodes[nid] = ("modal", ("set", (2,))) + node[2:]
                assert check_certificates(certs) != []
                return
    pytest.fail("no compound formula has a modal node labelled {1}")


def test_check_certificates_keys_only_rows_crossing_classes(monkeypatch):
    # mean out-degree 2: the saving shrinks as rows grow, since a state
    # must be keyed once any successor leaves the largest colour class
    c = generate(GeneratorSpec(functor="P", n=400, seed=0, density=0.005))
    certs = build_certificates(c, refine(c))
    calls = []

    def counted_fmap(t, g):
        calls.append(1)
        return fmap(t, g)

    monkeypatch.setattr(logic, "fmap", counted_fmap)
    assert check_certificates(certs) == []
    modal = sum(1 for node in certs.dag.nodes if node[0] == "modal")
    assert len(calls) < modal * c.n / 2
