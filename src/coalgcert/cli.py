"""Command-line front end.

Subcommands: certify, distinguish, minimize, check, translate, stats, gen.
Exit codes: 0 success, 2 malformed input, 3 internal verification failure,
4 request incompatible with the model (wrong mode or logic for the functor).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import cache

from .certdag import (
    CertError, build_certificates, distinguish, expand, listing, serialize,
    value_label,
)
from .coalgebra import ModelError, parse_coalgebra, pretty_model, quotient
from .functor import (
    FunctorError, is_cancellative, is_zippable, pretty_functor,
)
from .logic import EvalError, check_certificates, eval_ref, parse_formula
from .oracle import GeneratorSpec, generate
from .refiner import RefineError, refine
from .translate import (
    LOGICS, TranslateError, check_compatible, default_logic, ds_label,
    parse_ds, translate,
)
# benchmark/tracing.py wraps these three by name here; cli calls none of them
from .oracle import naive_bisimilarity, partition_key
from .refiner import replay_trace

OK, INPUT_ERROR, VERIFY_ERROR, INCOMPATIBLE = 0, 2, 3, 4


class CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass
class RunReport:
    functor: str
    n: int
    m: int
    mode: str
    iterations: int
    new_blocks: int
    visited_edges: int
    key_walks: int
    blocks: int
    dag_nodes: int
    dag_edges: int
    dag_height: int
    dag_allocs: int
    parse_ms: float
    refine_ms: float
    certify_ms: float

    def lines(self):
        return ["%s: %s" % (k, v) for k, v in asdict(self).items()]


def _load(path):
    """Read a model, refusing a composition that no layer of the unfolding
    can hold: one under a product, coproduct or exponent."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliFailure(INPUT_ERROR, str(e))
    try:
        c = parse_coalgebra(text)
    except (ModelError, FunctorError) as e:
        raise CliFailure(INPUT_ERROR, "cannot parse %s: %s" % (path, e))
    # unfolded from F1 . F2 . ... into F1 + F2 + ...
    layers = c.functor.parts if c.declared is not None else [c.functor]
    for i, layer in enumerate(layers):
        ok, why = is_zippable(layer)
        if not ok:
            raise CliFailure(INPUT_ERROR, "composition layer %d: %s"
                             % (i, why))
    return c


def _prepare(c, mode):
    """Refuse a run the refiner cannot make; returns (coalgebra, the ids of
    the states the model declared)."""
    visible = range(c.n if c.declared is None else c.declared)
    if mode == "cancellative" and not is_cancellative(c.functor):
        raise CliFailure(INCOMPATIBLE,
                         "functor %s is not cancellative; use --mode generic"
                         % pretty_functor(c.functor))
    return c, visible


def _run(c, mode):
    t0 = time.perf_counter()
    result = refine(c, mode=mode)
    t1 = time.perf_counter()
    certs = build_certificates(c, result)
    t2 = time.perf_counter()
    return result, certs, (t1 - t0) * 1000.0, (t2 - t1) * 1000.0


def _visible_blocks(certs, visible):
    return [bid for bid, states in enumerate(certs.blocks)
            if states[0] in visible]


def _verify(c, certs):
    """--verify: the proof of check_certificates.  A stable partition puts
    each block inside one behavioural class, and a certificate that holds
    at exactly its block tells it apart from every other block, so the
    partition is behavioural equivalence.  A failure names the step, a
    block or compound, and a state."""
    bad = check_certificates(certs, c)
    if bad:
        raise CliFailure(VERIFY_ERROR, bad[0])


def _check_out(out):
    """Refuse, before any work, an --out that cannot be written.  _output
    opens it only after the run, so a failed run leaves it as it was."""
    folder = os.path.dirname(out or "") or "."
    if out and (os.path.isdir(out) or not os.access(
            out if os.path.isfile(out) else folder, os.W_OK)):
        raise CliFailure(INPUT_ERROR, "cannot write --out %s" % out)


def _output(out):
    """The file named out, opened for writing, or else stdout."""
    try:
        return open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise CliFailure(INPUT_ERROR, str(e))


def cmd_certify(args):
    c0 = _load(args.model)
    c, visible = _prepare(c0, args.mode)
    result, certs, rms, cms = _run(c, args.mode)
    if args.verify:
        _verify(c, certs)
    ids = _visible_blocks(certs, visible)
    if args.json:
        nodes = listing(certs.dag, [certs.delta[b] for b in ids],
                        value_label(c.functor))
        payload = {
            "functor": pretty_functor(c.functor),
            "mode": args.mode,
            "blocks": [{"id": b,
                        "states": [c.states[s] for s in certs.blocks[b]]}
                       for b in ids],
            "dag": [{"id": nid, "node": text} for nid, text in nodes],
            "certificates": {str(b): "#%d" % certs.delta[b][0] for b in ids},
        }
        with _output(args.out) as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        with _output(args.out) as fh:
            serialize(certs, restrict_blocks=ids, out=fh)
    return OK


def cmd_distinguish(args):
    c0 = _load(args.model)
    c, _visible = _prepare(c0, args.mode)
    idx = c.state_index()
    for name in (args.x, args.y):
        if name not in idx:
            raise CliFailure(INPUT_ERROR, "unknown state %r" % name)
    if args.logic:
        _require_logic(c, args.logic, args.mode)
    result, certs, _, _ = _run(c, args.mode)
    ref = distinguish(certs, idx[args.x], idx[args.y])
    if ref is None:
        print("equivalent")
        return OK
    ext = eval_ref(certs.dag, ref, c)
    if idx[args.x] not in ext or idx[args.y] in ext:
        raise CliFailure(VERIFY_ERROR, "distinguishing formula check failed")
    if args.logic:
        dag, (phi,) = translate(certs, args.logic, [ref])
        ds_ext = eval_ref(dag, phi, c)
        if idx[args.x] not in ds_ext or idx[args.y] in ds_ext:
            raise CliFailure(VERIFY_ERROR, "translated formula check failed")
        print(expand(dag, phi, ds_label))
    else:
        print(expand(certs.dag, ref, value_label(c.functor)))
    return OK


def cmd_minimize(args):
    c = _load(args.model)
    if c.declared is not None:
        raise CliFailure(INCOMPATIBLE,
                         "minimize does not support composed functors")
    result = refine(c, mode=args.mode)
    q = quotient(c, result.blocks)
    with _output(args.out) as fh:
        fh.write(pretty_model(q))
    return OK


def cmd_check(args):
    c0 = _load(args.model)
    c, visible = _prepare(c0, "generic")
    if args.logic:
        _require_logic(c, args.logic, "generic")
    try:
        dag, ref = parse_formula(args.formula, c.functor)
        ext = eval_ref(dag, ref, c)
    except EvalError as e:
        why = "%s (generic syntax); " % e
        logic = args.logic or default_logic(c.functor)
        if logic is None:
            raise CliFailure(INPUT_ERROR, why + "no logic fits the functor")
        try:
            dag, ref = parse_ds(args.formula, logic, c.functor)
        except TranslateError as e:
            raise CliFailure(INPUT_ERROR, why + "%s (logic %s)" % (e, logic))
        ext = eval_ref(dag, ref, c)
    names = sorted(c.states[s] for s in ext if s in visible)
    print(" ".join(names))
    return OK


def cmd_translate(args):
    c0 = _load(args.model)
    c, visible = _prepare(c0, args.mode)
    _require_logic(c, args.logic, args.mode)
    result, certs, _, _ = _run(c, args.mode)
    ids = _visible_blocks(certs, visible)
    dag, refs = translate(certs, args.logic, [certs.delta[b] for b in ids])
    translated = replace(certs, dag=dag, delta=dict(zip(ids, refs)), beta={})
    with _output(args.out) as fh:
        serialize(translated, restrict_blocks=ids, label=ds_label, out=fh)
    return OK


def cmd_stats(args):
    t0 = time.perf_counter()
    c0 = _load(args.model)
    pms = (time.perf_counter() - t0) * 1000.0
    c, _visible = _prepare(c0, args.mode)
    result, certs, rms, cms = _run(c, args.mode)
    nodes, edges = certs.dag.size()
    report = RunReport(
        functor=pretty_functor(c.functor), n=c.n, m=c.m, mode=args.mode,
        **{k: result.stats[k] for k in ("iterations", "new_blocks",
                                        "visited_edges", "key_walks")},
        blocks=len(result.blocks), dag_nodes=nodes, dag_edges=edges,
        dag_height=certs.dag.height(), dag_allocs=len(certs.dag.nodes),
        parse_ms=round(pms, 3), refine_ms=round(rms, 3),
        certify_ms=round(cms, 3))
    if args.json:
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return OK


def cmd_gen(args):
    try:
        spec = GeneratorSpec(functor=args.functor, n=args.n, seed=args.seed,
                             density=args.density)
        c = generate(spec)
    except (FunctorError, ValueError) as e:
        raise CliFailure(INPUT_ERROR, str(e))
    with _output(args.out) as fh:
        fh.write(pretty_model(c))
    return OK


def _require_logic(c, logic, mode):
    """Refuse, with exit 4, a logic that check_compatible refuses."""
    try:
        check_compatible(logic, c.functor, mode)
    except TranslateError as e:
        raise CliFailure(INCOMPATIBLE, str(e))


@cache  # one parser per process: main may run many commands
def build_parser():
    p = argparse.ArgumentParser(
        prog="coalgcert",
        description="behavioural equivalence with certificates for "
                    "coalgebras of configurable set functors")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mode=True):
        sp.add_argument("model", help="model file")
        if mode:
            sp.add_argument("--mode", choices=("generic", "cancellative"),
                            default="generic")

    sp = sub.add_parser("certify", help="partition + certificate dag")
    common(sp)
    sp.add_argument("--verify", action="store_true",
                    help="prove each certificate by induction over the "
                         "trace and the final partition stable")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("distinguish",
                        help="formula separating two states, if any")
    common(sp)
    sp.add_argument("x")
    sp.add_argument("y")
    sp.add_argument("--logic", choices=LOGICS)
    sp.set_defaults(func=cmd_distinguish)

    sp = sub.add_parser("minimize", help="quotient by behavioural equivalence")
    common(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("check", help="states satisfying a formula")
    common(sp, mode=False)
    sp.add_argument("formula")
    sp.add_argument("--logic", choices=LOGICS)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("translate",
                        help="certificates in a domain-specific logic")
    common(sp)
    sp.add_argument("--logic", required=True, choices=LOGICS)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("stats", help="run report")
    common(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("gen", help="seeded random model")
    sp.add_argument("--functor", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--density", type=float, default=0.15)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))  # the commands with --out
        return args.func(args)
    except CliFailure as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except (ModelError, FunctorError, EvalError, TranslateError,
            CertError) as e:
        print("error: %s" % e, file=sys.stderr)
        return INPUT_ERROR
    except RefineError as e:  # e.g. minimize --mode cancellative on P
        print("error: %s" % e, file=sys.stderr)
        return INCOMPATIBLE


if __name__ == "__main__":
    sys.exit(main())
