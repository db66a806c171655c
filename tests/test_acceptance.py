"""Acceptance gate: ten end-to-end criteria, one reported line each.

Each test prints `criterion N: PASS/FAIL - summary` on the real stdout so
the lines survive pytest's capture, then asserts.
"""

import gc
import math
import sys
import time
from fractions import Fraction

from coalgcert.certdag import build_certificates, distinguish, expand
from coalgcert.coalgebra import parse_coalgebra
from coalgcert.logic import eval_ref, parse_formula
from coalgcert.oracle import (
    GeneratorSpec, generate, layered_worstcase, naive_bisimilarity,
    partition_key,
)
from coalgcert.refiner import refine
from coalgcert.translate import ds_label, parse_ds, translate
from conftest import (
    CANCELLATIVE_FUNCTORS, FUNCTORS, composite_instance, load_model,
    realizable_values,
)
from reference import check_extensions, reachable, verify_dsi


def report(num, desc, ok, detail=""):
    line = "criterion %d: %s - %s%s" % (
        num, "PASS" if ok else "FAIL", desc,
        (" [%s]" % detail) if detail else "")
    print(line, file=sys.__stdout__)
    sys.__stdout__.flush()
    assert ok, line


def suite(seeds, sizes, composites=0):
    """Plain-functor instances plus composite instances, which the parser
    unfolds."""
    for fx in FUNCTORS:
        for seed in seeds:
            n = sizes[seed % len(sizes)]
            yield ("%s seed=%d" % (fx, seed), fx,
                   generate(GeneratorSpec(functor=fx, n=n, seed=seed,
                                          density=0.25)))
    for seed in range(composites):
        yield ("composite seed=%d" % seed, None,
               composite_instance(seed))


def test_criterion_01_partition_matches_oracle():
    t0 = time.monotonic()
    count, bad = 0, []
    sizes = [6, 10, 14, 20, 28, 40, 50]
    for label, fx, c in suite(range(42), sizes, composites=16):
        count += 1
        expected = partition_key(naive_bisimilarity(c))
        modes = ["generic"]
        if fx in CANCELLATIVE_FUNCTORS:
            modes.append("cancellative")
        for mode in modes:
            got = partition_key(refine(c, mode=mode).blocks)
            if got != expected:
                bad.append((label, mode))
    elapsed = time.monotonic() - t0
    report(1, "all refinement modes agree with the brute-force oracle",
           count >= 500 and not bad and elapsed < 60,
           "%d instances, %.1fs%s" % (count, elapsed,
                                      "" if not bad else ", bad=%r" % bad[:3]))


def test_criterion_02_certificates_characterise_blocks():
    t0 = time.monotonic()
    count, bad = 0, []
    for label, fx, c in suite(range(10), [8, 12, 16, 24], composites=6):
        count += 1
        res = refine(c)
        certs = build_certificates(c, res)
        if check_extensions(certs):
            bad.append(label)
        if fx in CANCELLATIVE_FUNCTORS:
            res1 = refine(c, mode="cancellative")
            if check_extensions(build_certificates(c, res1)):
                bad.append(label + " (cancellative)")
    elapsed = time.monotonic() - t0
    report(2, "every certificate's extension is exactly its block",
           not bad and elapsed < 120,
           "%d instances, %.1fs" % (count, elapsed))


def test_criterion_03_pairwise_distinguishing():
    bad = []
    for label, fx, c in suite(range(5), [8, 12, 16, 20], composites=4):
        res = refine(c)
        certs = build_certificates(c, res)
        memo = {}
        for x in range(c.n):
            for y in range(x + 1, c.n):
                d = distinguish(certs, x, y)
                if res.block_of[x] == res.block_of[y]:
                    if d is not None:
                        bad.append((label, x, y, "should be equivalent"))
                else:
                    if d is None:
                        bad.append((label, x, y, "missing formula"))
                        continue
                    ext = eval_ref(certs.dag, d, c, memo)
                    if (x in ext) == (y in ext):
                        bad.append((label, x, y, "does not separate"))
    report(3, "distinguishing formulas separate exactly the inequivalent "
              "pairs", not bad, "" if not bad else repr(bad[:3]))


def test_criterion_04_transition_system_golden():
    c = load_model("ts1.model")
    x, x1, y, z = range(4)
    ok = True
    res = refine(c)
    ok &= partition_key(res.blocks) == partition_key([[x], [x1, y], [z]])
    dag, ref = parse_formula("<{1}>(<{}>, true)", c.functor)
    certs = build_certificates(c, res)
    d = distinguish(certs, x, y)
    ok &= eval_ref(certs.dag, d, c) == {x}
    # surface box is total: exactly x can always eventually deadlock-avoid
    ok &= eval_ref(*parse_ds("[]<>true", "hm"), c) == {x}
    dag, (fx,) = translate(certs, "hm", [certs.delta[res.block_of[x]]])
    ext = eval_ref(dag, fx, c)
    ok &= (x in ext) and (y not in ext) and ext == {x}
    report(4, "transition-system golden model: partition, box formula, "
              "translated certificate", bool(ok))


def test_criterion_05_weighted_golden():
    c = load_model("mc1.model")
    idx = {s: c.states.index(s) for s in ("x", "z2", "y", "z1")}
    expected = partition_key([[idx["x"]], [idx["z2"], idx["y"]],
                              [idx["z1"]]])
    ok = True
    for mode in ("generic", "cancellative"):
        ok &= partition_key(refine(c, mode=mode).blocks) == expected
    res = refine(c, mode="cancellative")
    certs = build_certificates(c, res)
    dag, (fx,) = translate(certs, "weighted",
                           [certs.delta[res.block_of[idx["x"]]]])
    text = expand(dag, fx, ds_label)
    ok &= "~" not in text
    ext = eval_ref(dag, fx, c)
    ok &= ext == {idx["x"]}
    report(5, "weighted golden model: partition in all modes, negation-free "
              "certificate separating x from y", bool(ok))


def _dag_size_ok(c, factor=8):
    res = refine(c)
    certs = build_certificates(c, res)
    n, m = c.n, c.m
    bound = factor * (m * math.ceil(math.log2(max(n, 2))) + n)
    live = len(reachable(certs.dag, list(certs.delta.values())))
    return live <= bound and certs.dag.height() <= n + 1, live


def test_criterion_06_dag_size_bounds():
    bad = []
    for label, fx, c in suite(range(6), [8, 16, 32, 48], composites=4):
        ok, _ = _dag_size_ok(c)
        if not ok:
            bad.append(label)
    for k in range(2, 11):
        ok, _ = _dag_size_ok(layered_worstcase(k))
        if not ok:
            bad.append("layered k=%d" % k)
    report(6, "certificate dag stays within the quasilinear size bound and "
              "height n+1", not bad, "" if not bad else repr(bad[:3]))


def test_criterion_07_worstcase_tree_vs_dag():
    ok = True
    details = []
    for k in range(4, 11):
        c = layered_worstcase(k)
        res = refine(c)
        certs = build_certificates(c, res)
        tree = max(certs.dag.tree_size(r) for r in certs.delta.values())
        dag = len(reachable(certs.dag, list(certs.delta.values())))
        ok &= tree >= 2 ** k
        ok &= _dag_size_ok(c)[0]  # linear in k: n, m are linear in k
        details.append((k, tree, dag))
    report(7, "worst-case family: tree unfolding exponential, shared dag "
              "linear", bool(ok), "(k, tree, dag)=%s" % details[-1:])


def test_criterion_08_quasilinear_scaling():
    t0 = time.monotonic()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        results = []
        for exp in range(10, 15):
            n = 2 ** exp
            c = generate(GeneratorSpec(functor="P", n=n, seed=exp,
                                       density=4.0 / n, max_branch=16))
            best = None
            for _ in range(2):
                start = time.process_time()
                res = refine(c)
                dt = time.process_time() - start
                best = dt if best is None else min(best, dt)
            m = c.m
            unit = best / ((n + m) * math.log2(n))
            results.append((n, best, unit))
    finally:
        if gc_was_enabled:
            gc.enable()
    units = [u for _, _, u in results]
    ratio = max(units) / min(units)
    elapsed = time.monotonic() - t0
    report(8, "refinement time per (n+m)log n unit stays flat from n=2^10 "
              "to 2^14", ratio <= 3.0 and elapsed < 300,
           "ratio=%.2f, total %.1fs" % (ratio, elapsed))


def test_criterion_09_allocation_budget():
    bad = []
    cases = list(suite(range(6), [8, 16, 32, 48], composites=4))
    cases += [("layered k=%d" % k, None, layered_worstcase(k))
              for k in range(2, 9)]
    for label, fx, c in cases:
        res = refine(c)
        certs = build_certificates(c, res)
        st = res.stats
        split_events = (st["iterations"] + st["new_blocks"]
                        + st["refined_parents"])
        budget = 4 * split_events + 2 * c.n
        if len(certs.dag.nodes) > budget:
            bad.append((label, len(certs.dag.nodes), budget))
    report(9, "dag allocations stay within 4x split events + 2n",
           not bad, "" if not bad else repr(bad[:3]))


def test_criterion_10_logic_axioms():
    cases = {
        "hm": load_model("ts1.model"),
        "weighted": load_model("mc1.model"),
        "prob": load_model("pr1.model"),
        "signature": generate(GeneratorSpec(
            functor="Sig(f/2, g/0, h/1)", n=8, seed=3, density=0.5)),
    }
    extra = {
        "hm": generate(GeneratorSpec(functor="P", n=9, seed=11,
                                     density=0.3)),
        "weighted": generate(GeneratorSpec(functor="Z^(X)", n=9, seed=11,
                                           density=0.3)),
    }
    bad = []
    for logic, c in list(cases.items()) + list(extra.items()):
        v1, v2, v3 = realizable_values(c)
        out = verify_dsi(logic, c, v1, v2, v3)
        if out:
            bad.append((logic, out[:2]))
    report(10, "modality decodings satisfy the interpretation axioms in all "
               "four logics", not bad, "" if not bad else repr(bad[:2]))
