#!/usr/bin/env python3
"""Benchmark of coalgcert's command line and certificate queries.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
round runs, through the package's public entry points,

    certify     coalgcert certify MAIN --out FILE               (cli.main)
    minimize    coalgcert minimize MAIN' --out FILE             (cli.main)
    verify      coalgcert certify V --verify --out FILE, for each verify model
    distinguish certdag.distinguish on a seeded list of state pairs, once
                after each of the three steps above

and checks every output against the benchmark's own reference
(reference.py).  Rounds repeat until --seconds have passed.  With --trace 0
the commands of one round also run once in fresh processes, started through
rss_probe.py, for peak_rss_mb.  The last line
of standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1 (see README.md).
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import models
import reference
from tracing import LAYERS, Tracer, span_cost

RSS_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rss_probe.py")
SETUP_REPEATS = 7
PAIRS = 400          # distinguish queries per batch
LLTS_DEGREES = (0, 1, 2, 2, 3, 3, 4)

# Workload shapes; every model is drawn from models.rng_for(name, seed, part).
# ``verify`` is (number, size) of the small models certify --verify runs
# on; their sum is timed, since the cost of one small random model varies
# a lot from seed to seed.
WORKLOADS = {
    # composite labelled LTS: unfolding, many small splits, the largest dag
    "lts-labelled": dict(n=2500, verify=(4, 30), degrees=LLTS_DEGREES),
    # planted Markov chain: rational keys, few classes, real minimisation
    "lmc-planted": dict(base=200, copies=8, verify=(4, 12), verify_copies=5),
    # powerset system with high fan-out hubs: re-keying whole rows
    "lts-hub": dict(n=3000, verify=(4, 120), degrees=(0, 1, 2, 3), hubs=3,
                    hub_share=0.5),
    # powerset system sized for certify --verify, which runs on it
    "verify-lts": dict(n=800, degrees=(0, 1, 2, 3, 4)),
}


class CheckFailed(Exception):
    pass


# ----------------------------------------------------------------- inputs

def make_models(name, seed):
    """(main model, verify models, base chain of each or None)."""
    spec = WORKLOADS[name]
    rng = lambda part: models.rng_for(name, seed, part)
    if name == "verify-lts":
        main = models.random_lts(rng("main"), spec["n"], spec["degrees"])
        return main, [main], None
    count, size = spec["verify"]
    parts = ["main"] + ["verify-%d" % k for k in range(count)]
    sizes = [spec.get("n", spec.get("base"))] + [size] * count
    if name == "lmc-planted":
        bases = [models.random_lmc(rng(part + "-base"), n) for part, n in zip(parts, sizes)]
        copies = [spec["copies"]] + [spec["verify_copies"]] * count
        made = [models.planted_lmc(rng(part), base, c)
                for part, base, c in zip(parts, bases, copies)]
        return made[0], made[1:], bases
    if name == "lts-labelled":
        made = [models.random_llts(rng(part), n, spec["degrees"])
                for part, n in zip(parts, sizes)]
    else:
        made = [models.random_lts(rng(part), n, spec["degrees"], spec["hubs"],
                                  spec["hub_share"]) for part, n in zip(parts, sizes)]
    return made[0], made[1:], None


def minimize_encoding(model):
    # minimize refuses composed functors; the labelled system is the same
    # system over P^{a,b,c}
    return "llts-exp" if model.kind == "llts" else model.kind


def import_package(root):
    """Import coalgcert from ROOT/src afresh; return (cli, certdag)."""
    for mod in [m for m in sys.modules if m == "coalgcert" or m.startswith("coalgcert.")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    cli = importlib.import_module("coalgcert.cli")
    certdag = importlib.import_module("coalgcert.certdag")
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise ImportError("coalgcert was not imported from %s/src" % root)
    return cli, certdag


def setup(name, seed, root, work):
    """Import the package, generate the models and write the model files."""
    cli, certdag = import_package(root)
    main, vers, bases = make_models(name, seed)
    files = {"main": os.path.join(work, "main.model"),
             "minimize": os.path.join(work, "minimize.model"),
             "verify": [os.path.join(work, "verify-%d.model" % k)
                        for k in range(len(vers))]}
    writes = [(files["main"], main, None),
              (files["minimize"], main, minimize_encoding(main))]
    writes += [(path, model, None) for path, model in zip(files["verify"], vers)]
    for path, model, enc in writes:
        with open(path, "w") as fh:
            fh.write(models.model_text(model, enc))
    return cli, certdag, main, vers, bases, files


def truth(model, base):
    """Reference class id per state: planted ground truth or fixpoint."""
    if base is not None:
        return reference.planted_partition(model, base)
    return reference.coarsest_partition(model)


# ----------------------------------------------------------------- checks

def check_listing(text, model, block_of):
    """A certify listing names exactly the reference classes as blocks and
    gives each block one certificate root among its dag nodes.  Returns the
    number of dag nodes listed."""
    section, blocks, nodes, roots = None, {}, set(), {}
    for line in text.splitlines():
        if not line.startswith("  "):
            section = line.split(":", 1)[0]
            continue
        head, _, rest = line.strip().partition(" ")
        if section == "blocks":
            blocks[head.rstrip(":")] = frozenset(rest.split())
        elif section == "dag":
            nodes.add(head)
        elif section == "certificates":
            roots[head.rstrip(":")] = rest.lstrip("~")
    want = reference.classes(block_of, model.names())
    if set(blocks.values()) != want or len(blocks) != len(want):
        raise CheckFailed("certify blocks differ from the reference partition")
    if set(roots) != set(blocks) or not set(roots.values()) <= nodes:
        raise CheckFailed("certificate roots do not match the listed blocks")
    return len(nodes)


def _mapped_row(kind, row, rep_of):
    if kind == "lts":
        return tuple(sorted({rep_of[y] for y in row}))
    if kind == "llts":
        return tuple(sorted({(lab, rep_of[y]) for lab, y in row}))
    out = []
    for dist in row:
        if dist is None:
            out.append(None)
            continue
        acc = {}
        for y, w in dist:
            acc[rep_of[y]] = acc.get(rep_of[y], 0) + w
        out.append(tuple(sorted(acc.items())))
    return tuple(out)


def check_quotient(text, model, block_of):
    """minimize printed one state per reference class, each with its row
    read modulo the classes, and the reference finds the result minimal."""
    names = model.names()
    try:
        qnames, q = models.parse_model(text, minimize_encoding(model))
    except (ValueError, KeyError) as e:
        raise CheckFailed("cannot read the minimize output: %s" % e)
    ids = {nm: i for i, nm in enumerate(names)}
    if any(nm not in ids for nm in qnames):
        raise CheckFailed("minimize output names unknown states")
    reps = [ids[nm] for nm in qnames]
    if sorted(block_of[r] for r in reps) != sorted(set(block_of)):
        raise CheckFailed("minimize output does not have one state per class")
    rep_name = {block_of[r]: i for i, r in enumerate(reps)}
    rep_of = [rep_name[b] for b in block_of]
    for i, r in enumerate(reps):
        if _mapped_row(model.kind, model.rows[r], rep_of) != q.rows[i]:
            raise CheckFailed("minimize row of %s is wrong" % qnames[i])
    if len(set(reference.coarsest_partition(q))) != q.n:
        raise CheckFailed("the minimized system has equivalent states")


def check_verdicts(results, pairs, block_of):
    for (x, y), phi in zip(pairs, results):
        if (phi is None) != (block_of[x] == block_of[y]):
            raise CheckFailed("distinguish(%d, %d) disagrees with the reference"
                              % (x, y))


def check_formulas(results, pairs, certs, model):
    """Every distinguishing formula holds at x and fails at y."""
    refs = [(phi, x, y) for (x, y), phi in zip(pairs, results) if phi is not None]
    ext = reference.powerset_extensions(certs.dag.nodes, [p[0] for p, _, _ in refs],
                                        model.rows)
    for (nid, neg), x, y in refs:
        holds = lambda s: (s in ext[nid]) != neg
        if not holds(x) or holds(y):
            raise CheckFailed("formula for (%d, %d) does not separate them" % (x, y))


# ------------------------------------------------------------ measurement

CALIBRATION_S = 0.04   # the calibration task's time at the reference speed


class Calibration:
    """A fixed task, timed after every operation, that scales the run's
    times to one reference speed.

    On a shared host the speed one process sees drifts by up to 2x over
    seconds, through contention for cores, caches and memory; code that
    misses the cache slows down more than code that does not.  The task
    mixes the two: an integer loop and a walk in random order over 100,000
    tuples, about as far apart in memory as the program's own data.
    ``factor`` is CALIBRATION_S over the median of the run's calibration
    times; every time the run reports is its measured median times this
    factor, so the figures of runs made at different moments compare."""

    def __init__(self):
        rng = random.Random("calibration")
        self.cells = [(i & 255, 1, 2) for i in range(100_000)]
        self.order = rng.sample(range(100_000), 50_000)
        self.times = []

    def measure(self):
        gc.collect()
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        cells = self.cells
        for i in self.order:
            acc += cells[i][1]
        self.times.append(time.perf_counter() - t0)

    def factor(self):
        return CALIBRATION_S / statistics.median(self.times)


class Bench:
    def __init__(self, args, root, work):
        self.args = args
        self.root = root
        self.work = work
        self.cal = Calibration()
        self.cal.measure()
        setups = []
        for _ in range(SETUP_REPEATS):
            out, dt = self.timed(setup, args.workload, args.seed, root, work)
            setups.append(dt)
        # set-up is scaled by the calibrations around it alone: it lasts
        # about a second, at the start of the run
        self.setup_s = statistics.median(setups) * CALIBRATION_S / statistics.median(
            self.cal.times)
        self.cli, self.certdag, self.main, self.vers, bases, self.files = out
        reference.self_check()
        bases = bases or [None] * (1 + len(self.vers))
        self.truth_main = truth(self.main, bases[0])
        self.truth_vers = [truth(v, b) for v, b in zip(self.vers, bases[1:])]
        rng = models.rng_for(args.workload, args.seed, "pairs")
        n = self.main.n
        self.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(PAIRS)]
        # certificates for distinguish are built once, outside the timing,
        # the same way cli.py builds them
        c = self.cli._load(self.files["main"])
        c, _visible = self.cli._prepare(c, "generic")
        self.certs = self.certdag.build_certificates(c, self.cli.refine(c))
        self.checked = {}     # output file -> contents that passed the checks
        self.attempted = self.failed = 0
        self.samples = {}

    def timed(self, fn, *args):
        """Run fn(*args); return (result, seconds); calibrate after it."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        self.cal.measure()
        return result, dt

    def steps(self):
        """(step, [(argv, check)]) in round order; a step's time is the sum
        of its commands' times."""
        out = lambda name: os.path.join(self.work, name + ".out")
        f = self.files
        main = self.main
        verify = [(["certify", path, "--verify", "--out", out("verify-%d" % k)],
                   functools.partial(check_listing, model=model, block_of=blocks))
                  for k, (path, model, blocks)
                  in enumerate(zip(f["verify"], self.vers, self.truth_vers))]
        return [
            ("certify", [(["certify", f["main"], "--out", out("certify")],
                          functools.partial(self.check_certify, model=main))]),
            ("minimize", [(["minimize", f["minimize"], "--out", out("minimize")],
                           functools.partial(check_quotient, model=main,
                                             block_of=self.truth_main))]),
            ("certify_verify", verify),
        ]

    def check_exit(self, rc, argv):
        """VERIFY_ERROR means the program's certificates, its oracle or its
        naive mode disagree: a wrong output, not a failed operation."""
        if rc == self.cli.VERIFY_ERROR:
            raise CheckFailed("coalgcert %s exited %d: the program's own "
                              "verification failed" % (" ".join(argv), rc))

    def check_certify(self, text, model):
        self.cert_dag_nodes = check_listing(text, model, self.truth_main)

    def check(self, path, check):
        """Check an output file, unless it equals one that passed."""
        with open(path) as fh:
            text = fh.read()
        if self.checked.get(path) != text:
            check(text)
            self.checked[path] = text

    def check_distinguish(self, results):
        if self.checked.get("distinguish") == results:
            return
        check_verdicts(results, self.pairs, self.truth_main)
        if self.args.workload == "verify-lts":
            check_formulas(results, self.pairs, self.certs, self.main)
        self.checked["distinguish"] = results

    def record(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def run_cli(self, tracer, step, argv):
        try:
            if tracer is None:
                return self.cli.main(argv)
            return tracer.span("cli." + step, self.cli.main, argv)
        except Exception as e:  # a crash is a failed operation
            print("%s raised %r" % (step, e), file=sys.stderr)
            return None

    def queries(self, tracer):
        distinguish = self.certdag.distinguish
        if tracer is not None:
            distinguish = functools.partial(tracer.span, "certdag.distinguish",
                                            distinguish)
        out = []
        for x, y in self.pairs:
            try:
                out.append(distinguish(self.certs, x, y))
            except Exception as e:  # a crash is a failed operation
                print("distinguish raised %r" % (e,), file=sys.stderr)
                out.append(_FAILED)
        return out

    def round(self, tracer=None):
        """One round of every step."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for step, commands in self.steps():
            step_s, ok = 0.0, True
            layer_s = dict.fromkeys(LAYER_TIMES[step], 0.0)
            for argv, check in commands:
                self.attempted += 1
                mark = tracer.mark() if tracer else None
                rc, dt = self.timed(self.run_cli, tracer, step, argv)
                self.check_exit(rc, argv)
                if rc != 0:
                    self.failed += 1
                    ok = False
                    continue
                step_s += dt
                self.check(argv[-1], check)
                if tracer is not None:
                    for metric, span in LAYER_TIMES[step].items():
                        layer_s[metric] += tracer.total(mark, span)
                    for layer, t in tracer.self_times(mark).items():
                        self_s[layer] += t
                    if step == "certify":
                        self.layer_counters(tracer)
            if ok:
                self.record(step + "_s", step_s)
                if tracer is not None:
                    for metric, t in layer_s.items():
                        self.record(metric, t)
            self.distinguish_batch(tracer, self_s)
        if tracer is not None:
            for layer, t in self_s.items():
                self.record(layer + ".self_s", t)

    def distinguish_batch(self, tracer, self_s):
        mark = tracer.mark() if tracer else None
        results, dt = self.timed(self.queries, tracer)
        self.attempted += len(results)
        self.failed += sum(r is _FAILED for r in results)
        if _FAILED in results:
            return
        self.check_distinguish(results)
        self.record("distinguish_s", dt)
        if tracer is not None:
            self.record("certdag.distinguish_us",
                        tracer.total(mark, "certdag.distinguish") / len(results) * 1e6)
            for layer, t in tracer.self_times(mark).items():
                self_s[layer] += t

    def layer_counters(self, tracer):
        (c, *_rest), result = tracer.results["refiner.refine"]
        _args, certs = tracer.results["certdag.build"]
        n, m = c.n, c.m
        stats = result.stats
        self.counters = {
            "refiner.visited_edges": (stats["visited_edges"], "count"),
            "refiner.edges_per_nlogn": (
                stats["visited_edges"] / ((n + m) * math.log2(max(n, 2))), "ratio"),
            "refiner.iterations": (stats["iterations"], "count"),
            "refiner.splitter_states": (stats["splitter_states"], "count"),
            "certdag.nodes": (len(certs.dag.nodes), "count"),
            "certdag.height": (certs.dag.height(), "count"),
        }

    def peak_rss(self):
        """Run one round's commands through rss_probe.py, each in a fresh
        ``python -m coalgcert.cli`` process, and check their outputs.
        Returns how far the largest peak RSS of these processes rises above
        that of a process that only imports the package, in MB."""
        todo = [(argv, check) for _step, commands in self.steps()
                for argv, check in commands]
        probe = subprocess.run(
            [sys.executable, RSS_PROBE], cwd=self.root, stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=os.path.join(self.root, "src")),
            input=json.dumps([["-c", "import coalgcert.cli"]]
                             + [["-m", "coalgcert.cli", *argv] for argv, _c in todo]))
        if probe.returncode != 0:
            raise RuntimeError("the memory probe exited %d" % probe.returncode)
        (rc, base_kb), *results = json.loads(probe.stdout)
        if rc != 0:
            raise RuntimeError("a fresh process cannot import coalgcert")
        peak_kb = base_kb
        for (argv, check), (rc, kb) in zip(todo, results):
            self.attempted += 1
            self.check_exit(rc, argv)
            if rc != 0:
                self.failed += 1
                continue
            self.check(argv[-1], check)
            peak_kb = max(peak_kb, kb)
        return (peak_kb - base_kb) / 1024.0

    def run(self):
        t_end = time.perf_counter() + self.args.seconds
        tracer = Tracer() if self.args.trace else None
        if tracer is None:
            self.peak_rss_mb = self.peak_rss()
        # a first round, whose outputs are checked in full, warms the heap
        # up; its times are dropped
        self.round()
        self.samples.clear()
        if tracer is not None:
            for _ in range(5):
                self.record("span_cost_s", span_cost())
            tracer.install(self.cli)
        rounds = 0
        try:
            while rounds < 1 or time.perf_counter() < t_end:
                mark = tracer.mark() if tracer else 0
                self.round(tracer)
                if tracer is not None:
                    self.record("spans_per_round", len(tracer.spans) - mark)
                rounds += 1
        finally:
            if tracer is not None:
                tracer.uninstall(self.cli)
        self.rounds = rounds
        return tracer


_FAILED = object()

# per-layer metric and the span it is read from, by step
LAYER_TIMES = {
    "certify": {
        "coalgebra.parse_s": "coalgebra.parse",
        "coalgebra.unfold_s": "coalgebra.unfold",
        "refiner.refine_s": "refiner.refine",
        "certdag.build_s": "certdag.build",
        "certdag.serialize_s": "certdag.serialize",
    },
    "minimize": {"coalgebra.quotient_s": "coalgebra.quotient"},
    "certify_verify": {
        "refiner.naive_s": "refiner.naive",
        "logic.check_s": "logic.check",
        "oracle.bisim_s": "oracle.bisim",
    },
}


def median(bench, key):
    """Median of a time series, scaled to the reference speed; None if no
    operation of the series succeeded."""
    values = bench.samples.get(key)
    return statistics.median(values) * bench.cal.factor() if values else None


def present(metrics):
    """Leave out the metrics of steps that failed in every round."""
    return {k: (v, u) for k, (v, u) in metrics.items() if v is not None}


def end_to_end(bench):
    batch_s = median(bench, "distinguish_s")
    return present({
        "setup_s": (bench.setup_s, "s"),
        "certify_s": (median(bench, "certify_s"), "s"),
        "minimize_s": (median(bench, "minimize_s"), "s"),
        "certify_verify_s": (median(bench, "certify_verify_s"), "s"),
        "distinguish_qps": (batch_s and len(bench.pairs) / batch_s, "1/s"),
        "cert_dag_nodes": (getattr(bench, "cert_dag_nodes", None), "count"),
        "peak_rss_mb": (bench.peak_rss_mb or None, "MB"),
    })


def per_layer(bench):
    out = {metric: (median(bench, metric), "s")
           for spans in LAYER_TIMES.values() for metric in spans}
    out["certdag.distinguish_us"] = (median(bench, "certdag.distinguish_us"), "us/query")
    for layer in LAYERS:
        out[layer + ".self_s"] = (median(bench, layer + ".self_s"), "s")
    out.update(getattr(bench, "counters", {}))
    # what tracing adds to a round: the cost of one traced call times the
    # spans a traced round records
    out["trace.overhead_ms"] = (
        median(bench, "span_cost_s") * statistics.median(bench.samples["spans_per_round"])
        * 1e3, "ms")
    return present(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        import_package(root)
    except ImportError as e:
        print("cannot import coalgcert from ./src: %s" % e, file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", "%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        bench = Bench(args, root, work)
        gc.collect()
        gc.freeze()  # keep the benchmark's own data out of the program's GC passes
        tracer = bench.run()
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
        if tracer is not None:
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, "trace-%s-%d.json"
                                     % (args.workload, args.seed)),
                        {k: v for k, (v, _u) in bench.counters.items()})
    except CheckFailed as e:
        print("check failed: %s" % e, file=sys.stderr)
        correct, metrics = False, {}
    else:
        correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass
    print("workload %s seed %d: %d timed rounds, calibration median %.1f ms"
          % (args.workload, args.seed, getattr(bench, "rounds", 0),
             statistics.median(bench.cal.times) * 1e3), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
