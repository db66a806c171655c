#!/usr/bin/env python3
"""Certificate sharing on the layered worst-case family.

The layered real-weighted coalgebra has certificates whose tree
unfolding doubles per layer (tree size >= 2^k in layer k) while the
shared formula dag grows only linearly.  This script prints both counts
per k, together with the dag height (bounded by n + 1).
"""
import argparse

from coalgcert.certdag import build_certificates, reach
from coalgcert.oracle import layered_worstcase
from coalgcert.refiner import refine


def run(args):
    print("%4s %5s %6s %14s %9s %7s" %
          ("k", "n", "m", "max_tree", "dag_live", "height"))
    for k in range(args.min_k, args.max_k + 1):
        c = layered_worstcase(k)
        n = len(c.states)
        m = sum(len(t[1]) for t in c.structure)
        res = refine(c)
        certs = build_certificates(c, res)
        tree = max(certs.dag.tree_size(r) for r in certs.delta.values())
        live = sum(1 for _ in reach(certs.dag, list(certs.delta.values())))
        print("%4d %5d %6d %14d %9d %7d" %
              (k, n, m, tree, live, certs.dag.height()))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-k", type=int, default=2)
    ap.add_argument("--max-k", type=int, default=12)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
