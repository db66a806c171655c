"""Certificate dag construction, distinguishing formulas, size bounds."""

import math
import random
from dataclasses import replace

import pytest

from coalgcert.certdag import (
    CertError, FormulaDag, _pieces, build_certificates, distinguish, expand,
    listing, reachable, serialize, value_label,
)
from coalgcert.coalgebra import parse_coalgebra
from coalgcert.functor import pretty_functor
from coalgcert.logic import eval_ref
from coalgcert.oracle import layered_worstcase, naive_bisimilarity
from coalgcert.refiner import refine
from coalgcert.translate import default_logic, ds_label, translate
from conftest import CANCELLATIVE_FUNCTORS, chain_text, random_instances
from test_acceptance import composite_instance


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


def scan_distinguish(certs, x, y):
    """Reference distinguish: follow x and y through the whole trace until
    a refinement puts them in different blocks."""
    trace = certs.trace
    bx = by = None
    for bid, _val, states in trace.init.blocks:
        if x in states:
            bx = bid
        if y in states:
            by = bid
    if bx is None or by is None:
        raise CertError("state out of range")
    if bx != by:
        return certs.modal_of[(-1, bx)]
    for i, ev in enumerate(trace.splits):
        for ref_ in ev.refinements:
            if ref_.parent != bx:
                continue
            bx = _child_of(ref_, x, bx)
            by = _child_of(ref_, y, by)
            if bx != by:
                return certs.modal_of[(i, bx)]
            break
    return None


def _child_of(ref_, s, parent):
    default = parent
    for cid, _val, states in ref_.children:
        if states is None:
            default = cid
        elif s in states:
            return cid
    return default


def reference_cases():
    """(label, coalgebra, mode) for the comparison with the scan."""
    for label, c in random_instances():
        yield label, c, "generic"
    for label, c in random_instances(CANCELLATIVE_FUNCTORS):
        yield label, c, "cancellative"
    for seed in range(16):
        yield "composite seed=%d" % seed, composite_instance(seed), "generic"
    for k in range(3, 7):
        yield "layered k=%d" % k, layered_worstcase(k), "generic"


def test_distinguish_matches_scan():
    for label, c, mode in reference_cases():
        certs = build_certificates(c, refine(c, mode=mode))
        for x in range(c.n):
            for y in range(c.n):
                assert distinguish(certs, x, y) == \
                    scan_distinguish(certs, x, y), (label, mode, x, y)


def test_distinguish_deep_chain_matches_scan():
    # version depth 1,499: far past the interpreter's recursion limit
    c = parse_coalgebra(chain_text(1500))
    certs = build_certificates(c, refine(c))
    rng = random.Random(0)
    pairs = [(rng.randrange(c.n), rng.randrange(c.n)) for _ in range(2000)]
    pairs += [(0, c.n - 1), (c.n - 1, 0), (c.n - 2, c.n - 1)]
    for x, y in pairs:
        assert distinguish(certs, x, y) == scan_distinguish(certs, x, y)
    _leaf, _par, jump, depth, _mod = certs.versions
    v = max(range(len(depth)), key=depth.__getitem__)
    assert depth[v] > 1000
    hops = 0  # jump pointers reach the root in O(log depth) hops
    while v:
        v, hops = jump[v], hops + 1
    assert hops <= 2 * math.log2(len(depth))


def test_distinguish_out_of_range(ts1):
    certs = build_certificates(ts1, refine(ts1))
    n = ts1.n
    for x, y in ((-1, 0), (n, 0), (0, -1), (0, n)):
        with pytest.raises(CertError):
            distinguish(certs, x, y)


def test_serialize_mentions_blocks(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    listing = serialize(certs)
    for name in ts1.states:
        assert name in listing
    assert "true" in listing or "<{}>" in listing


def _ref_str(ref):
    return ("~#%d" if ref[1] else "#%d") % ref[0]


def reference_listing(dag, roots, label):
    """(id, text) of the nodes roots reach, by reachable and expand's piece
    renderer: the reference of the one-pass listing."""
    return [(nid, "".join([p if type(p) is str else _ref_str(p)
                           for p in _pieces(dag.nodes[nid], label)]))
            for nid in reachable(dag, roots)]


def reference_serialize(certs, ids, label):
    c = certs.coalgebra
    lines = ["functor: %s" % pretty_functor(c.functor), "blocks:"]
    lines += ["  %d: %s" % (b, " ".join(c.states[s] for s in certs.blocks[b]))
              for b in ids]
    lines.append("dag:")
    lines += ["  #%d = %s" % item for item in reference_listing(
        certs.dag, [certs.delta[b] for b in ids], label)]
    lines.append("certificates:")
    lines += ["  %d: %s" % (b, _ref_str(certs.delta[b])) for b in ids]
    return "\n".join(lines) + "\n"


def listed_arenas(certs, mode):
    """(certificate set, label) of the certificates and, where a logic fits
    the functor, of their translation, as certify and translate print them."""
    c = certs.coalgebra
    yield certs, value_label(c.functor)
    logic = default_logic(c.functor)
    if logic is None or (logic == "prob" and mode == "cancellative"):
        return
    ids = range(len(certs.blocks))
    dag, refs = translate(certs, logic, [certs.delta[b] for b in ids])
    yield replace(certs, dag=dag, delta=dict(zip(ids, refs)), beta={}), \
        ds_label


def test_listing_matches_reference():
    rng = random.Random(0)
    labels = set()
    for label, c, mode in reference_cases():
        certs0 = build_certificates(c, refine(c, mode=mode))
        nb = len(certs0.blocks)
        subset = rng.sample(range(nb), nb // 2)  # strict, in any order
        for certs, lab in listed_arenas(certs0, mode):
            labels.add(lab)
            for ids in (None, subset, []):
                shown = range(nb) if ids is None else ids
                assert serialize(certs, ids, lab) == reference_serialize(
                    certs, shown, lab), (label, mode, ids)
    assert ds_label in labels  # translated arenas were listed


def test_listing_every_node_kind():
    """Each tag, negated references, shared children, unlisted nodes."""
    dag = FormulaDag()
    atom = dag.add_ds(("atom", 0), ())
    a = dag.add_ds(("dia",), [(atom[0], True)])
    unused = dag.add_or(a, atom)
    m0 = dag.add_modal(("set", (0,)), 0, ())
    m1 = dag.add_modal(("set", (0, 1)), 1, [(m0[0], True)])
    m2 = dag.add_modal(("set", (0, 1)), 2, [m1, (m0[0], True)])
    o = dag.add_or((a[0], True), dag.add_and(m2, (0, True)))
    label = lambda node: (ds_label(node) if node[0] == "ds"
                          else "<%s/%d>" % (node[1], node[2]))
    for roots in ([o], [m2, a, m2], [(o[0], True), m0], [(0, False)], []):
        got = list(listing(dag, roots, label))
        assert got == reference_listing(dag, roots, label), roots
        assert [nid for nid, _ in got] == reachable(dag, roots), roots
    assert unused[0] not in dict(listing(dag, [o], label))


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
