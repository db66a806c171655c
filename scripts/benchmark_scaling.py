#!/usr/bin/env python3
"""Scaling benchmark for the generic refiner.

Generates random coalgebras of doubling size for one functor (--functor,
powerset by default), runs partition refinement, certificate construction,
the certificate listing (serialize) and the proof of certify --verify
(check_certificates), and reports the refinement cost per
(n + m) * log2(n) unit, where m counts the edges.  A quasilinear
implementation keeps that unit flat as n grows.  splits counts the
refinement's splits and refine_us_per_split divides refine_s by it: the
constant per split, which the unit folds in with the edges read.
check_unit_ns is the proof's cost per the same unit, to read next to
refine's.  The nodes column counts the dag nodes that serialize lists
for all blocks, and nodes_per_u divides it by the same unit: the paper
bounds the dag size by O((m + n) log n).  cert_bytes_per_node is the
memory that the certificate set holds, measured with tracemalloc in a
separate, untimed pass, divided by the nodes of its arena: the constant
per node of that bound.

The cyclic garbage collector is disabled during timing: allocation-
triggered full GC passes scan the whole live heap and otherwise dominate
the variance.  CPU time (process_time) is measured, best of --repeat.
"""
import argparse
import gc
import math
import time
import tracemalloc

from coalgcert.certdag import build_certificates, reach, serialize
from coalgcert.logic import check_certificates
from coalgcert.oracle import GeneratorSpec, generate
from coalgcert.refiner import refine


def cert_bytes_per_node(c, res):
    """Bytes that build_certificates' result holds, per node of its arena
    (tracemalloc; not timed)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certs = build_certificates(c, res)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(certs.dag)


def run(args):
    print("%8s %9s %8s %10s %12s %8s %19s %10s %12s %9s %11s %9s %13s %19s"
          % ("n", "m", "blocks", "refine_s", "unit_ns", "splits",
             "refine_us_per_split", "certs_s", "serialize_s", "nodes",
             "nodes_per_u", "check_s", "check_unit_ns",
             "cert_bytes_per_node"))
    base_unit = None
    for exp in range(args.min_exp, args.max_exp + 1):
        n = 2 ** exp
        c = generate(GeneratorSpec(functor=args.functor, n=n, seed=args.seed,
                                   density=args.avg_degree / n,
                                   max_branch=args.max_branch))
        m = c.m
        best_refine = best_certs = best_serialize = best_check = float("inf")
        blocks = None
        for _ in range(args.repeat):
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                res = refine(c)
                t1 = time.process_time()
                certs = build_certificates(c, res)
                t2 = time.process_time()
                serialize(certs)
                t3 = time.process_time()
                if check_certificates(certs):
                    raise SystemExit("check_certificates failed at n=%d" % n)
                t4 = time.process_time()
            finally:
                gc.enable()
            best_refine = min(best_refine, t1 - t0)
            best_certs = min(best_certs, t2 - t1)
            best_serialize = min(best_serialize, t3 - t2)
            best_check = min(best_check, t4 - t3)
            blocks = len(res.blocks)
        u = (n + m) * math.log2(n)
        unit = best_refine / u
        if base_unit is None:
            base_unit = unit
        nodes = sum(1 for _ in reach(certs.dag, list(certs.delta.values())))
        per_node = cert_bytes_per_node(c, res)
        splits = res.stats["iterations"]
        print("%8d %9d %8d %10.3f %12.2f %8d %19.2f %10.3f %12.3f %9d %11.4f "
              "%9.3f %13.2f %19.1f   (x%.2f)"
              % (n, m, blocks, best_refine, unit * 1e9, splits,
                 best_refine / max(splits, 1) * 1e6, best_certs,
                 best_serialize, nodes, nodes / u, best_check,
                 best_check / u * 1e9, per_node, unit / base_unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--functor", default="P",
                    help="functor of the generated coalgebras (default P)")
    ap.add_argument("--min-exp", type=int, default=10,
                    help="smallest size as a power of two (default 2^10)")
    ap.add_argument("--max-exp", type=int, default=15,
                    help="largest size as a power of two (default 2^15)")
    ap.add_argument("--avg-degree", type=float, default=4.0,
                    help="average out-degree of generated states")
    ap.add_argument("--max-branch", type=int, default=16)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
