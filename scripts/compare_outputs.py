#!/usr/bin/env python3
"""Compare the command-line outputs of two source trees of coalgcert.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``coalgcert`` package,
such as the ``src`` directories of two checkouts.  The script runs one
fixed matrix of CLI runs on each side, every run in a fresh process with
that side's directory on PYTHONPATH, and lists every run whose exit code,
standard output, standard error or ``--out`` file differs.  It exits 0
when no run differs, else 1.

The matrix, on the models of tests/models and on the seed-1 main, verify
and minimize models of the benchmark's four workloads (written with
benchmark/models.model_text):

    certify (to --out), certify --json, certify --verify (to --out),
    certify --mode cancellative, with and without --verify, minimize (to
    --out), translate --logic L (to --out) for each logic, distinguish x y
    in each mode, without a logic and with each logic, check M true,
    check M FORMULA for one domain-specific formula of each logic, with
    --logic naming that logic and without --logic, check M PHI for the
    formula PHI that the old side's distinguish prints for the model's
    first inequivalent pair (generic mode, no logic), and stats --json
    without its *_ms fields;

and ``gen`` (to --out) for a functor of each constructor.  distinguish
runs on three pairs of declared states (the first with the last, the
first with the second, the second with the third), on two more pairs
drawn by a generator seeded with the model's name, and on the composite
lts-labelled models also on two pairs that name an auxiliary state: the
first declared state with aux0, and aux0 with the last auxiliary state.
A run that takes longer than --timeout seconds is recorded as a timeout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import models  # noqa: E402  (benchmark/models.py)
import run as bench  # noqa: E402  (benchmark/run.py: the workloads' models)

LOGICS = ("hm", "weighted", "signature", "prob")
# one domain-specific formula per logic, for check
DS_FORMULAS = {"hm": "[](<>true | ~true)", "weighted": "<1/2>true",
               "signature": "<{1}>g", "prob": "<a>_{1/2}~<b>_{1}true"}
GEN_FUNCTORS = ("X", "C{a,b}", "P", "R^(X)", "Z^(X)", "N^(X)", "D(X)",
                "Sig(f/2, g/0, h/1)", "P x R^(X)", "D(X) + C{stop}",
                "P^{a,b}", "(D(X) + C{stop})^{a,b}", "P . P")


def aux_states(model, encoding=None):
    """How many auxiliary states reading model_text(model, encoding) makes:
    one per edge in the composite encoding of a labelled system,
    P . (C{a,b,c} x X), and none in the others."""
    return sum(map(len, model.rows)) if (encoding or model.kind) == "llts" \
        else 0


def write_models(work):
    """The model files of the matrix, written into work: [(name, path,
    number of auxiliary states)].  A workload's model whose text an
    earlier one has (the minimize model but on lts-labelled, the verify
    model of verify-lts) is left out."""
    out = [(p.name, p, 0) for p in sorted((ROOT / "tests" / "models").glob(
        "*.model"))]
    for workload in sorted(bench.WORKLOADS):
        main, vers, _bases = bench.make_models(workload, 1)
        enc = bench.minimize_encoding(main)
        texts = [("main", main, None), ("minimize", main, enc)]
        texts += [("verify-%d" % k, v, None) for k, v in enumerate(vers)]
        seen = set()
        for part, model, encoding in texts:
            text = models.model_text(model, encoding)
            if text in seen:
                continue
            seen.add(text)
            path = Path(work) / ("%s-%s.model" % (workload, part))
            path.write_text(text)
            out.append((path.name, path, aux_states(model, encoding)))
    return out


def state_names(path):
    for line in path.read_text().splitlines():
        if line.startswith("states:"):
            return [s.strip() for s in line[7:].split(",") if s.strip()]
    return []


def state_pairs(name, path, aux):
    """The pairs of states that distinguish runs on, sorted."""
    states = state_names(path)
    pairs = {(states[i], states[j]) for i, j in ((0, -1), (0, 1), (1, 2))
             if len(states) > 2}
    rng = random.Random(name)
    pairs.update(tuple(rng.sample(states, 2)) for _ in range(2)
                 if len(states) >= 2)
    if aux:
        pairs.update([(states[0], "aux0"), ("aux0", "aux%d" % (aux - 1))])
    return sorted(pairs)


def distinguish_label(x, y, flags, name):
    return "distinguish %s %s %s %s" % (x, y, " ".join(flags), name)


def formula_checks(model_files, old_outcomes):
    """[(label, argv, writes --out)] of one run of check M PHI per model, PHI
    the formula that the old side's distinguish printed, in generic mode and
    without a logic, for the model's first pair of inequivalent states."""
    runs = []
    for name, path, aux in model_files:
        for x, y in state_pairs(name, path, aux):
            code, out = old_outcomes[distinguish_label(
                x, y, ["--mode", "generic"], name)][:2]
            if code == 0 and out != b"equivalent\n":
                runs.append(("check distinguish(%s, %s) %s" % (x, y, name),
                             ["check", str(path), out.decode().strip()],
                             False))
                break
    return runs


def matrix(model_files):
    """[(label, argv, writes --out)] of every run."""
    runs = []
    for name, path, aux in model_files:
        m = str(path)
        runs += [("certify %s" % name, ["certify", m], True),
                 ("certify --json %s" % name, ["certify", m, "--json"], False),
                 ("certify --verify %s" % name, ["certify", m, "--verify"],
                  True),
                 ("certify cancellative %s" % name,
                  ["certify", m, "--mode", "cancellative"], False),
                 ("certify cancellative --verify %s" % name,
                  ["certify", m, "--mode", "cancellative", "--verify"],
                  False),
                 ("minimize %s" % name, ["minimize", m], True),
                 ("check true %s" % name, ["check", m, "true"], False),
                 ("stats --json %s" % name, ["stats", m, "--json"], False)]
        runs += [("translate %s %s" % (logic, name),
                  ["translate", m, "--logic", logic], True)
                 for logic in LOGICS]
        for logic in LOGICS:
            formula = DS_FORMULAS[logic]
            runs += [("check %s %s" % (formula, name),
                      ["check", m, formula], False),
                     ("check %s --logic %s %s" % (formula, logic, name),
                      ["check", m, formula, "--logic", logic], False)]
        for (x, y), mode, logic in itertools.product(
                state_pairs(name, path, aux), ("generic", "cancellative"),
                (None,) + LOGICS):
            flags = ["--mode", mode] + (["--logic", logic] if logic else [])
            runs.append((distinguish_label(x, y, flags, name),
                         ["distinguish", m, x, y] + flags, False))
    for fx in GEN_FUNCTORS:
        for n, seed in ((30, 1), (200, 3)):
            runs.append(("gen %s n=%d seed=%d" % (fx, n, seed),
                         ["gen", "--functor", fx, "--n", str(n), "--seed",
                          str(seed)], True))
    return runs


def outcome(src, argv, writes, cwd, timeout):
    """(exit code, stdout, stderr, --out file bytes or None) of one run."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = Path(cwd) / "out.txt"
    if out.exists():
        out.unlink()
    argv = argv + ["--out", out.name] if writes else argv
    try:
        p = subprocess.run([sys.executable, "-m", "coalgcert.cli", *argv],
                           cwd=cwd, env=env, capture_output=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return ("timeout", b"", b"", None)
    stdout = p.stdout
    if argv[0] == "stats" and p.returncode == 0:
        doc = json.loads(stdout)
        stdout = json.dumps({k: v for k, v in doc.items()
                             if not k.endswith("_ms")}, sort_keys=True)
    return (p.returncode, stdout, p.stderr,
            out.read_bytes() if out.exists() else None)


def compare(runs, sides, cwds, timeout, old_outcomes):
    """Run each run on both sides, print the ones that differ or time out,
    and record the old side's outcome by label; the number that differ."""
    differ = 0
    for label, run_argv, writes in runs:
        old, new = [outcome(src, run_argv, writes, cwd, timeout)
                    for src, cwd in zip(sides, cwds)]
        old_outcomes[label] = old
        parts = [what for what, a, b in zip(
            ("exit code", "stdout", "stderr", "--out file"), old, new)
            if a != b]
        if parts:
            differ += 1
            print("DIFFERS  %s: %s (exit %s -> %s)"
                  % (label, ", ".join(parts), old[0], new[0]))
            for stream, a, b in (("stdout", old[1], new[1]),
                                 ("stderr", old[2], new[2])):
                if a != b:
                    print("    %s old: %r" % (stream, a[:200]))
                    print("    %s new: %r" % (stream, b[:200]))
        elif "timeout" in (old[0], new[0]):
            print("TIMEOUT  %s" % label)
    return differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--timeout", type=float, default=300.0)
    args = ap.parse_args(argv)
    sides = [Path(args.old_src).resolve(), Path(args.new_src).resolve()]
    for src in sides:
        if not (src / "coalgcert" / "__init__.py").exists():
            ap.error("%s holds no coalgcert package" % src)
    with tempfile.TemporaryDirectory() as work:
        cwds = [Path(work) / side for side in ("old", "new")]
        for cwd in cwds:
            cwd.mkdir()
        model_files = write_models(work)
        runs, old_outcomes = matrix(model_files), {}
        differ = compare(runs, sides, cwds, args.timeout, old_outcomes)
        checks = formula_checks(model_files, old_outcomes)
        differ += compare(checks, sides, cwds, args.timeout, old_outcomes)
        runs += checks
        print("%d runs, %d differ" % (len(runs), differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
