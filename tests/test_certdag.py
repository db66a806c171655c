"""Certificate dag construction, distinguishing formulas, size bounds."""

import math

from coalgcert.certdag import (
    FormulaDag, build_certificates, distinguish, expand, reachable, serialize,
    value_label,
)
from coalgcert.logic import eval_ref
from coalgcert.oracle import layered_worstcase, naive_bisimilarity
from coalgcert.refiner import refine
from conftest import CANCELLATIVE_FUNCTORS, random_instances


def block_map(res):
    return dict(enumerate(res.blocks))


def test_ts1_certificates_golden(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    label = value_label(ts1.functor)
    rendered = {tuple(sorted(states)):
                expand(certs.dag, certs.delta[bid], label)
                for bid, states in enumerate(res.blocks)}
    assert rendered[(0,)] == "(<{0}> & <{1}>(<{}>, true))"
    assert rendered[(1, 2)] == "(<{0}> & <{1,2}>(<{}>, true))"
    assert rendered[(3,)] == "<{}>"


def test_ts1_distinguish_golden(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    x, x1, y, z = range(4)
    d = distinguish(certs, x, y)
    assert expand(certs.dag, d, value_label(ts1.functor)) == \
        "<{1}>(<{}>, true)"
    assert eval_ref(certs.dag, d, ts1) == {x}
    assert distinguish(certs, x1, y) is None
    d = distinguish(certs, y, z)
    got = eval_ref(certs.dag, d, ts1)
    assert y in got and z not in got


def test_mc1_cancellative_negation_free(mc1):
    res = refine(mc1, mode="cancellative")
    certs = build_certificates(mc1, res)
    listing = serialize(certs)
    assert "~" not in listing
    for bid, states in enumerate(res.blocks):
        assert eval_ref(certs.dag, certs.delta[bid], mc1) == set(states)


def test_extensions_match_blocks_everywhere():
    for label, c in random_instances(seeds=range(4), n=12):
        res = refine(c)
        certs = build_certificates(c, res)
        for bid, states in enumerate(res.blocks):
            ext = eval_ref(certs.dag, certs.delta[bid], c)
            assert ext == set(states), label


def test_reduced_and_unreduced_negation_agree():
    for label, c in random_instances(seeds=range(3), n=10):
        res = refine(c)
        full = build_certificates(c, res, reduced_negation=False)
        red = build_certificates(c, res, reduced_negation=True)
        for bid in range(len(res.blocks)):
            a = eval_ref(full.dag, full.delta[bid], c)
            b = eval_ref(red.dag, red.delta[bid], c)
            assert a == b, label


def test_distinguish_symmetric_soundness():
    for label, c in random_instances(seeds=range(3), n=10):
        res = refine(c)
        certs = build_certificates(c, res)
        for x in range(c.n):
            for y in range(x + 1, c.n):
                d = distinguish(certs, x, y)
                if res.block_of[x] == res.block_of[y]:
                    assert d is None, label
                else:
                    ext = eval_ref(certs.dag, d, c)
                    assert (x in ext) != (y in ext), label


def test_serialize_mentions_blocks(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    listing = serialize(certs)
    for name in ts1.states:
        assert name in listing
    assert "true" in listing or "<{}>" in listing


def test_size_and_height_bounds():
    for label, c in random_instances(seeds=range(4), n=24, density=0.2):
        res = refine(c)
        certs = build_certificates(c, res)
        n, m = c.n, c.m
        bound = 8 * (m * math.ceil(math.log2(max(n, 2))) + n)
        live = reachable(certs.dag, list(certs.delta.values()))
        assert len(live) <= bound, label
        assert certs.dag.height() <= n + 1, label


def test_layered_worstcase_growth():
    """Tree unfolding doubles per layer while the dag stays linear."""
    dag_sizes = []
    for k in range(3, 9):
        c = layered_worstcase(k)
        res = refine(c)
        assert all(len(b) == 1 for b in res.blocks)  # all states distinct
        certs = build_certificates(c, res)
        assert max(certs.dag.tree_size(r) for r in certs.delta.values()) \
            >= 2 ** k
        dag_sizes.append(
            len(reachable(certs.dag, list(certs.delta.values()))))
    # linear growth: bounded per-layer increment
    increments = [b - a for a, b in zip(dag_sizes, dag_sizes[1:])]
    assert max(increments) <= 40


def test_cancellative_certificates_random():
    for label, c in random_instances(CANCELLATIVE_FUNCTORS,
                                     seeds=range(3), n=10):
        res = refine(c, mode="cancellative")
        certs = build_certificates(c, res)
        assert certs.mode == "cancellative"
        for bid, states in enumerate(res.blocks):
            assert eval_ref(certs.dag, certs.delta[bid], c) == set(states), \
                label


def test_deep_chain_walks_without_recursion(ts1):
    # 5,000 nested conjunctions, far past the interpreter's recursion limit
    dag = FormulaDag()
    leaf = dag.add_modal(("set", (0,)), 0, ())
    ref = leaf
    for _ in range(5000):
        ref = dag.add_and(ref, leaf)
    assert dag.tree_size(ref) == 10001
    label = value_label(ts1.functor)
    text = expand(dag, ref, label)
    assert text == "(" * 5000 + "<{0}>" + " & <{0}>)" * 5000
    assert expand(dag, (ref[0], True), label) == "~" + text
