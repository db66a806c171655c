#!/usr/bin/env python3
"""Scaling benchmark for the generic refiner.

Generates random coalgebras of doubling size for one functor (--functor,
powerset by default), runs partition refinement, certificate construction
and the certificate listing (serialize), and reports the refinement cost
per (n + m) * log2(n) unit, where m counts the edges.  A quasilinear
implementation keeps that unit flat as n grows.

The cyclic garbage collector is disabled during timing: allocation-
triggered full GC passes scan the whole live heap and otherwise dominate
the variance.  CPU time (process_time) is measured, best of --repeat.
"""
import argparse
import gc
import math
import time

from coalgcert.certdag import build_certificates, serialize
from coalgcert.oracle import GeneratorSpec, generate
from coalgcert.refiner import refine


def run(args):
    print("%8s %9s %8s %10s %12s %10s %12s" %
          ("n", "m", "blocks", "refine_s", "unit_ns", "certs_s",
           "serialize_s"))
    base_unit = None
    for exp in range(args.min_exp, args.max_exp + 1):
        n = 2 ** exp
        c = generate(GeneratorSpec(functor=args.functor, n=n, seed=args.seed,
                                   density=args.avg_degree / n,
                                   max_branch=args.max_branch))
        m = c.m
        best_refine = best_certs = best_serialize = float("inf")
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
            finally:
                gc.enable()
            best_refine = min(best_refine, t1 - t0)
            best_certs = min(best_certs, t2 - t1)
            best_serialize = min(best_serialize, t3 - t2)
            blocks = len(res.blocks)
        unit = best_refine / ((n + m) * math.log2(n))
        if base_unit is None:
            base_unit = unit
        print("%8d %9d %8d %10.3f %12.2f %10.3f %12.3f   (x%.2f)" %
              (n, m, blocks, best_refine, unit * 1e9, best_certs,
               best_serialize, unit / base_unit))


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
