"""Generic modal-logic semantics: evaluation, parsing, soundness checks."""

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert import logic
from coalgcert.certdag import FormulaDag, build_certificates, distinguish
from coalgcert.coalgebra import parse_coalgebra
from coalgcert.functor import is_cancellative
from coalgcert.logic import (
    EvalError, check_certificates, eval_ref, parse_formula,
)
from coalgcert.oracle import (
    GeneratorSpec, generate, layered_worstcase, naive_bisimilarity,
)
from coalgcert.refiner import PartitionResult, refine
from coalgcert.values import fmap
from conftest import CANCELLATIVE_FUNCTORS, FUNCTORS, random_instances
from reference import (
    check_certificates_full, check_extensions, colouring, frozenset_ext,
    predecessors, reachable, rewrite_trace, set_node, trace_events,
)
from test_acceptance import composite_instance


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
            col = colouring(n, exts[0], exts[1])
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
        assert check_extensions(certs) == [], label


def test_check_certificates_detects_corruption(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    # point one block's certificate at top: its extension becomes everything
    victim = next(bid for bid, sts in enumerate(certs.blocks)
                  if len(sts) < ts1.n)
    certs.delta[victim] = (0, False)
    bad = check_extensions(certs)
    assert any(entry[0] == victim for entry in bad)
    # the structural check evaluates the bad root alone to name a state
    outside = ts1.states[min(set(range(ts1.n)) - set(certs.blocks[victim]))]
    assert check_certificates(certs) == [
        "certificate of block %d: %s satisfies it but is not in the block"
        % (victim, outside)]


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


@settings(max_examples=60, deadline=None)
@given(fx=st.sampled_from(FUNCTORS), seed=st.integers(0, 1000),
       data=st.data())
def test_arena_evaluation_matches_tuple_nodes(fx, seed, data):
    # eval_ref reads the arena's columns, frozenset_ext the tuples of nodes
    c = generate(GeneratorSpec(functor=fx, n=10, seed=seed, density=0.25))
    certs = build_certificates(c, refine(c))
    ref = (data.draw(st.integers(0, len(certs.dag) - 1)), data.draw(
        st.booleans()))
    assert eval_ref(certs.dag, ref, c) == frozenset_ext(certs.dag, ref, c, {})


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
        c = composite_instance(seed)
        assert_extensions_match_reference(c, build_certificates(c, refine(c)))


def test_check_certificates_detects_corrupt_beta_label(ts1):
    certs = build_certificates(ts1, refine(ts1))
    # the first modal node below a compound formula whose label a
    # different, well-formed label can replace
    for ref in certs.beta.values():
        for nid in reachable(certs.dag, [ref]):
            node = certs.dag.nodes[nid]
            if node[0] == "modal" and node[1] == ("set", (1,)):
                set_node(certs.dag, nid, ("modal", ("set", (2,))) + node[2:])
                assert check_extensions(certs) != []
                assert check_certificates(certs) != []
                return
    pytest.fail("no compound formula has a modal node labelled {1}")


def test_check_extensions_keys_only_rows_crossing_classes(monkeypatch):
    # mean out-degree 2: the saving shrinks as rows grow, since a state
    # must be keyed once any successor leaves the largest colour class
    c = generate(GeneratorSpec(functor="P", n=400, seed=0, density=0.005))
    certs = build_certificates(c, refine(c))
    calls = []

    def counted_fmap(t, g):
        calls.append(1)
        return fmap(t, g)

    monkeypatch.setattr(logic, "fmap", counted_fmap)
    assert check_extensions(certs) == []
    modal = sum(1 for node in certs.dag.nodes if node[0] == "modal")
    assert len(calls) < modal * c.n / 2


def _proof_work(c, trace):
    """(fmap calls the proof may make, sum of |T| over the refinements)
    for a trace: the in-edges of each splitter S, the listed states, one
    merged key per refined or checked block, the initial keys and the
    stability pass.  A block is checked when a split touches it but does
    not refine it, it has two or more states, a later split refines it,
    and the mode is generic."""
    block_of = [None] * c.n
    init, splits = trace_events(trace)
    for bid, _v, states in init:
        for x in states:
            block_of[x] = bid
    last = {T: i for i, (_S, _B, refinements) in enumerate(splits)
            for T, _children in refinements}
    bound, parents = 2 * c.n, 0
    for i, (S, _B, refinements) in enumerate(splits):
        size = Counter(block_of)
        touched = set()
        for y in range(c.n):
            if block_of[y] == S:
                preds = predecessors(c, y)
                bound += len(preds)
                touched.update(block_of[x] for x in preds)
        refined = {T for T, _children in refinements}
        bound += len(refined) + sum(
            1 for b in touched - refined if trace.mode == "generic"
            and size[b] > 1 and last.get(b, -1) > i)
        for T, children in refinements:
            parents += size[T]
            for cid, _v, states in children:
                for x in states or ():
                    block_of[x] = cid
                bound += len(states or ())
    return bound, parents


def _assert_work_bound(monkeypatch, fx, mode):
    """The proof keys the splitter's predecessors and the listed states,
    and no other state: fewer keys than one per state of each refined
    parent T, the keying of tests/reference.py."""
    c = generate(GeneratorSpec(functor=fx, n=400, seed=0, density=0.005))
    certs = build_certificates(c, refine(c, mode=mode))
    bound, parents = _proof_work(c, certs.trace)
    calls = []

    def counted_fmap(t, g):
        calls.append(1)
        return fmap(t, g)

    monkeypatch.setattr(logic, "fmap", counted_fmap)
    assert check_certificates(certs) == []
    assert len(calls) <= bound, (len(calls), bound)
    assert len(calls) < parents + 2 * c.n, (len(calls), parents)
    modal = sum(1 for node in certs.dag.nodes if node[0] == "modal")
    assert len(calls) < modal * c.n / 20, (len(calls), modal)


def test_check_certificates_work_bound(monkeypatch):
    _assert_work_bound(monkeypatch, "P", "generic")


@pytest.mark.parametrize("fx, mode", [("R^(X)", "cancellative"),
                                      ("(D(X) + C{stop})^{a,b}", "generic")])
def test_check_certificates_work_bound_other_functors(monkeypatch, fx, mode):
    _assert_work_bound(monkeypatch, fx, mode)


def test_check_certificates_checks_the_default_key(ts1):
    # split 0's default child claims key {0, 1}, and its certificate is
    # built with it, but its one state x, which has no edge into S = {z},
    # has key {1}.  x is not keyed: the merged key {1} of the touched x1
    # and y tells
    res = refine(ts1)
    init, splits = trace_events(res.trace)
    splits[0][2][0][1][0] = [0, ("set", (0, 1)), None]
    res.trace = rewrite_trace(res.trace.mode, ts1.n, init, splits)
    certs = build_certificates(ts1, res)
    assert check_extensions(certs) != []
    assert check_certificates(certs) == check_certificates_full(certs) == [
        "split 0, block 0: x is in the block but does not satisfy it"]


def test_check_certificates_needs_the_invariant():
    # the refiner's trace, except that split 1 keeps block 1 = {x2, x4}
    # whole although x2 reaches S = {x1} and x4 does not; x2 moves at
    # split 2 instead, the next one.  There the touched x2 has key {0, 2},
    # and the default child claims its merged key {0, 1}, but the
    # untouched x4 has key {1}, since x2 is still in compound 0.  Only the
    # check of the unrefined block at split 1 sees that the invariant
    # broke there.  The final partition is the refiner's
    c = parse_coalgebra("functor: P\nstates: x0, x1, x2, x3, x4\n"
                        "x0 -> {}\nx1 -> {x0, x4}\nx2 -> {x1, x3}\n"
                        "x3 -> {x0}\nx4 -> {x2}\n")
    res = refine(c)
    init, splits = trace_events(res.trace)
    assert [(S, len(refinements)) for S, _B, refinements in splits] == [
        (0, 1), (2, 1), (1, 0), (3, 0)]
    splits[1:] = [[2, 0, []], [3, 0, [[
        1, [[1, ("set", (0, 1)), None], [4, ("set", (0, 2)), [2]]]]]],
                  [1, 0, []]]
    res.trace = rewrite_trace(res.trace.mode, c.n, init, splits)
    certs = build_certificates(c, res)
    assert check_extensions(certs)[0] == (1, frozenset({4}), frozenset())
    assert check_certificates_full(certs) == [
        "split 2, block 1: x4 is in the block but does not satisfy it"]
    assert check_certificates(certs) == [
        "split 1, block 1: x4 is in the block but does not satisfy it"]


def _clean_instances(draw):
    """A coalgebra from random_instances' generator, composite_instance or
    layered_worstcase."""
    kind = draw(st.sampled_from(["random", "composite", "layered"]))
    if kind == "layered":
        return layered_worstcase(draw(st.integers(0, 6)))
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 16))
    if kind == "composite":
        return composite_instance(seed, n=n)
    return generate(GeneratorSpec(
        functor=draw(st.sampled_from(FUNCTORS)), n=n, seed=seed,
        density=draw(st.sampled_from([0.1, 0.25, 0.5]))))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_certificates_no_false_alarm(data):
    c = _clean_instances(data.draw)
    for mode in ("generic", "cancellative"):
        if mode == "generic" or is_cancellative(c.functor):
            certs = build_certificates(c, refine(c, mode=mode))
            assert check_certificates(certs) == [], mode


def test_check_certificates_needs_stability(ts1):
    # a trace cut before its first split: the initial modalities still hold
    # at exactly their blocks, but that partition is not stable
    trace = refine(ts1).trace
    init, _splits = trace_events(trace)
    trace = rewrite_trace(trace.mode, trace.n, init, [])
    blocks = [states for _bid, _val, states in init]
    block_of = [bid for x in range(ts1.n)
                for bid, states in enumerate(blocks) if x in states]
    certs = build_certificates(ts1, PartitionResult(blocks, block_of, trace,
                                                    {}))
    assert check_extensions(certs) == []
    assert check_certificates(certs) == [
        "partition is not stable: block 0 holds x and x1, whose rows differ "
        "on the blocks"]


def _set_node(nid, node):
    return lambda certs: set_node(certs.dag, nid, node)


def _list_in_child(states):
    def corrupt(certs):
        init, splits = trace_events(certs.trace)
        splits[0][2][0][1][1][2] = list(states)
        certs.trace = rewrite_trace(certs.trace.mode, certs.trace.n, init,
                                    splits)
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    # node 0, the start of beta(0), is no longer true
    (_set_node(0, ("modal", ("set", ()), 0, ())),
     "compound formula beta0: x1 is in the compound but does not satisfy it"),
    # block 2's conjunct from split 0 hangs below block 1's certificate
    (_set_node(7, ("and", (2, False), (6, False))),
     "certificate of block 2: x1 is in the block but does not satisfy it"),
    # a child lists a state of another block, or one state twice
    (_list_in_child((1, 2, 3)),
     "split 0, block 2: z is not in the parent, or listed twice"),
    (_list_in_child((1, 2, 2)),
     "split 0, block 2: y is not in the parent, or listed twice"),
])
def test_check_certificates_names_the_defect(ts1, corrupt, message):
    certs = build_certificates(ts1, refine(ts1))
    corrupt(certs)
    assert check_certificates(certs) == [message]


WEIRD = [None, -1, 10**6, "a", 0, 1, (0, False), ("top",)]


def _malform(certs, draw):
    """One random defect in a certificate set's trace, dag or blocks.  A
    trace defect is written back through the trace's writer, which must
    refuse a value other than an int in an id or a state.  The arena's
    columns, delta and beta hold packed ints under the ids 0, 1, ...:
    they must refuse a node of no arena shape, or a reference whose id is
    not an int, with TypeError, and a key outside their ids with
    KeyError."""
    trace, nodes = certs.trace, certs.dag.nodes
    init, splits = trace_events(trace)
    weird = draw(st.sampled_from(WEIRD))
    kind = draw(st.integers(0, 7))
    refs = [ref for _S, _B, refinements in splits for ref in refinements]
    into_int = False  # whether weird went into an id or a state
    if kind == 0 and splits:  # the splitter or the compound
        draw(st.sampled_from(splits))[draw(st.integers(0, 1))] = weird
        into_int = True
    elif kind == 1 and refs:
        draw(st.sampled_from(refs))[0] = weird
        into_int = True
    elif kind in (2, 3) and (refs or kind == 3):
        children = draw(st.sampled_from(refs))[1] if kind == 2 else init
        if children:
            k = draw(st.integers(0, len(children) - 1))
            cid, val, states = children[k]
            variant = draw(st.integers(0, 4))
            children[k] = [[weird, val, states], [cid, weird, states],
                           [cid, val, None], [cid, val, []],
                           [cid, val, (states or []) + [weird]]][variant]
            into_int = variant in (0, 4)  # not the key, which any value is
    if kind <= 3:
        if into_int and type(weird) is not int:
            with pytest.raises(TypeError):
                rewrite_trace(trace.mode, trace.n, init, splits)
        else:
            certs.trace = rewrite_trace(trace.mode, trace.n, init, splits)
    elif kind == 4:
        nid = draw(st.integers(0, len(nodes) - 1))
        bad_and = ("and", (weird, False), (0, False))
        node = draw(st.sampled_from(list(nodes) + [bad_and, ("modal",), ()]))
        if node in (("modal",), ()) or node == bad_and \
                and type(weird) is not int:
            with pytest.raises(TypeError):
                set_node(certs.dag, nid, node)
        else:
            set_node(certs.dag, nid, node)
    elif kind == 5 and certs.delta:
        bid = draw(st.sampled_from(sorted(certs.delta)))
        if type(weird) is int:
            certs.delta[bid] = (weird, False)
        else:
            with pytest.raises(TypeError):
                certs.delta[bid] = (weird, False)
    elif kind == 6:
        ref = (draw(st.integers(0, len(nodes) - 1)), draw(st.booleans()))
        cmp_id = draw(st.sampled_from(sorted(certs.beta) + [weird]))
        if cmp_id in certs.beta:
            certs.beta[cmp_id] = ref
        else:
            with pytest.raises(KeyError):
                certs.beta[cmp_id] = ref
    elif kind == 7 and certs.blocks:
        k = draw(st.integers(0, len(certs.blocks) - 1))
        certs.blocks[k] = draw(st.sampled_from([[], [weird], [0]]))


def test_trace_storage_refuses_what_is_not_an_int(ts1):
    # ids and states live in int arrays: every WEIRD value that is not an
    # int is refused in each of those fields, while the key field takes
    # every WEIRD value through the key table
    trace = refine(ts1).trace
    fields = [lambda s, w: s[0].__setitem__(0, w),        # splitter
              lambda s, w: s[0].__setitem__(1, w),        # compound
              lambda s, w: s[0][2][0].__setitem__(0, w),  # parent
              lambda s, w: s[0][2][0][1][1].__setitem__(0, w),  # block id
              lambda s, w: s[0][2][0][1][1][2].append(w)]       # states
    for weird in WEIRD:
        for field in fields:
            init, splits = trace_events(trace)
            field(splits, weird)
            if type(weird) is int:
                rewrite_trace(trace.mode, trace.n, init, splits)
            else:
                with pytest.raises(TypeError):
                    rewrite_trace(trace.mode, trace.n, init, splits)
        init, splits = trace_events(trace)
        splits[0][2][0][1][1][1] = init[0][1] = weird
        init, splits = trace_events(rewrite_trace(trace.mode, trace.n, init,
                                                  splits))
        assert splits[0][2][0][1][1][1] == init[0][1] == weird


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_certificates_on_malformed_input(data):
    # malformed traces and dags give a mismatch, never an exception, and
    # every wrong extension, and every defect the full keying of
    # tests/reference.py finds, is among the mismatches
    fx = data.draw(st.sampled_from(FUNCTORS))
    c = generate(GeneratorSpec(functor=fx, n=10, seed=data.draw(
        st.integers(0, 100)), density=0.25))
    mode = "cancellative" if fx in CANCELLATIVE_FUNCTORS else "generic"
    certs = build_certificates(c, refine(c, mode=mode))
    for _ in range(data.draw(st.integers(1, 2))):
        _malform(certs, data.draw)
    bad = check_certificates(certs)
    assert type(bad) is list and all(type(m) is str for m in bad)
    assert bad or not check_certificates_full(certs)
    try:
        wrong = check_extensions(certs)
    except (EvalError, LookupError, TypeError, ValueError):
        return  # the reference cannot read this arena
    assert bad or not wrong, wrong


def test_malform_twice_on_beta(ts1):
    # a compound formula under a weird key, then another beta defect: beta
    # refuses the key, which is no compound id, and keeps the other
    certs = build_certificates(ts1, refine(ts1))
    draws = iter([None, 6, 3, False, None, 1, 6, 3, True, 1])
    _malform(certs, lambda strategy: next(draws))
    _malform(certs, lambda strategy: next(draws))
    assert set(certs.beta) == {0, 1, 2}
    assert certs.beta[1] == (3, True)
    assert check_certificates(certs) != []


def test_check_certificates_by_node_id(ts1):
    # ts1's second beta update negates delta(S) itself, node 5; a copy of
    # that node, equal to it but a fresh id, is negated instead: the check
    # tells the two apart by id and still accepts the copied chain
    certs = build_certificates(ts1, refine(ts1))
    nodes = certs.dag.nodes
    assert nodes[certs.beta[0][0]] == ("and", (3, False), (5, True))
    copy = certs.dag.add_and(*nodes[5][1:])
    certs.beta[0] = certs.dag.add_and((3, False), (copy[0], True))
    assert check_certificates(certs) == []
    assert check_extensions(certs) == []


def test_distinguishing_formulas_evaluate_in_little_memory():
    # the evaluator keys the sources of in-edges read off the edge table;
    # one n-bit set of predecessors per state took 6.9 MB here
    n = 2 ** 13
    c = generate(GeneratorSpec("P", n, seed=1, density=4 / n))
    certs = build_certificates(c, refine(c))
    pairs = [(0, 1), (5, n - 1), (100, n // 2)]
    refs = [distinguish(certs, x, y) for x, y in pairs]
    assert None not in refs
    tracemalloc.start()
    try:
        for (x, y), ref in zip(pairs, refs):
            ext = eval_ref(certs.dag, ref, c)
            assert x in ext and y not in ext
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
