"""Command-line interface: subcommands, exit codes, output formats."""

import itertools
import json
import random
import re
import runpy
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert import certdag, cli
from coalgcert.certdag import TOP, build_certificates
from coalgcert.cli import main
from coalgcert.coalgebra import parse_coalgebra
from coalgcert.functor import MAX_DEPTH, is_cancellative, pretty_functor
from coalgcert.logic import check_certificates
from coalgcert.refiner import refine
from coalgcert.translate import default_logic
from conftest import CANCELLATIVE_FUNCTORS, chain_text, random_instances
from reference import (
    check_certificates_full, check_extensions, predecessors, reachable,
    rewrite_trace, set_node, trace_events,
)

MODELS = Path(__file__).parent / "models"
TS1 = str(MODELS / "ts1.model")
MC1 = str(MODELS / "mc1.model")
PR1 = str(MODELS / "pr1.model")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify(capsys):
    code, out, _ = run(capsys, "certify", TS1, "--verify")
    assert code == 0
    assert "x1" in out and "blocks" in out.lower()


def test_certify_json(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", TS1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["functor"] == "P" and len(doc["blocks"]) == 3
    assert set(doc["certificates"]) == {"0", "1", "2"}


def test_certify_out_file(capsys, tmp_path):
    dest = tmp_path / "certs.txt"
    code, _, _ = run(capsys, "certify", TS1, "--out", str(dest))
    assert code == 0 and dest.exists()
    assert "x1" in dest.read_text()


def test_distinguish(capsys):
    code, out, _ = run(capsys, "distinguish", TS1, "x", "y")
    assert code == 0
    assert "<{1}>(<{}>, true)" in out


def test_distinguish_equivalent(capsys):
    code, out, _ = run(capsys, "distinguish", TS1, "x1", "y")
    assert code == 0
    assert "equivalent" in out.lower()


def test_distinguish_logic(capsys):
    code, out, _ = run(capsys, "distinguish", TS1, "x", "y", "--logic", "hm")
    assert code == 0
    assert "<>" in out


@pytest.mark.parametrize("model, x, y, flags", [
    (MC1, "z2", "y", ["--logic", "hm"]),  # equivalent states
    (MC1, "x", "z1", ["--logic", "hm"]),  # inequivalent states
    (PR1, "s", "t", ["--mode", "cancellative", "--logic", "prob"]),
])
def test_distinguish_refuses_a_logic_that_does_not_fit(capsys, model, x, y,
                                                       flags):
    # refused before refinement, whatever the states' classes, as translate
    # refuses it
    code, out, err = run(capsys, "distinguish", model, x, y, *flags)
    assert code == 4 and not out and err.startswith("error:")
    assert run(capsys, "translate", model, *flags)[0] == 4


@pytest.mark.parametrize("source", ["ts1", "mc1", "pr1", "P", "R^(X)"])
def test_check_reads_what_distinguish_prints(capsys, tmp_path, source):
    # for every ordered pair of inequivalent states, the printed formula,
    # fed back to check, lists x and not y: in the generic syntax, and in
    # the logic that fits the functor where there is one
    model = str(MODELS / (source + ".model"))
    if source in ("P", "R^(X)"):
        model = str(tmp_path / "gen.model")
        assert run(capsys, "gen", "--functor", source, "--n", "12", "--seed",
                   "1", "--out", model)[0] == 0
    c = parse_coalgebra(Path(model).read_text())
    block_of, logic = refine(c).block_of, default_logic(c.functor)
    checked = 0
    for (x, y), flags in itertools.product(
            itertools.permutations(range(c.n), 2),
            [[]] + ([["--logic", logic]] if logic else [])):
        code, out, err = run(capsys, "distinguish", model, c.states[x],
                             c.states[y], *flags)
        assert code == 0, err
        if block_of[x] == block_of[y]:
            assert out == "equivalent\n"
            continue
        code, listed, err = run(capsys, "check", model, out.strip(), *flags)
        assert code == 0, (out, err)
        listed = listed.split()
        assert c.states[x] in listed and c.states[y] not in listed, out
        checked += 1
    assert checked


def test_distinguish_unknown_state(capsys):
    code, _, err = run(capsys, "distinguish", TS1, "nope", "y")
    assert code == 2 and "nope" in err


def test_minimize(capsys):
    code, out, _ = run(capsys, "minimize", MC1)
    assert code == 0
    lines = [l for l in out.splitlines() if "->" in l]
    assert len(lines) == 3  # quotient has three states


# minimize's output byte for byte on the golden models, and on one seeded
# `gen` model per printed shape (operations, a product with sparse
# weights, an exponent of injections), after gen's own output
GEN_MODEL = ["--n", "6", "--seed", "3", "--density", "0.3"]
PRINTED_MODELS = {
    "ts1": """\
functor: P
states: x, z, x1
x -> {x, x1}
z -> {}
x1 -> {z, x1}
""",
    "mc1": """\
functor: R^(X)
states: x, z1, z2
x -> {z1: 1/2, z2: 1/2}
z1 -> {}
z2 -> {z1: 1}
""",
    "pr1": """\
functor: (D(X) + C{stop})^{a,b}
states: s, u, v, t
s -> [a: in1({u: 1/2, v: 1/2}), b: in2(stop)]
u -> [a: in2(stop), b: in1({u: 1})]
v -> [a: in2(stop), b: in2(stop)]
t -> [a: in1({u: 1}), b: in2(stop)]
""",
    "Sig(f/2, g/0, h/1)": """\
functor: Sig(f/2, g/0, h/1)
states: s0, s1, s2, s3, s4, s5
s0 -> f(s4, s4)
s1 -> f(s2, s4)
s2 -> g
s3 -> h(s4)
s4 -> f(s4, s0)
s5 -> g
functor: Sig(f/2, g/0, h/1)
states: s0, s2, s3, s1
s0 -> f(s0, s0)
s2 -> g
s3 -> h(s0)
s1 -> f(s2, s0)
""",
    "P x R^(X)": """\
functor: P x R^(X)
states: s0, s1, s2, s3, s4, s5
s0 -> ({s4}, {})
s1 -> ({s0, s3, s4}, {s2: 1, s3: 1})
s2 -> ({s1}, {s1: 4})
s3 -> ({s0, s1}, {s0: 1/3, s2: 1, s4: 1})
s4 -> ({s1, s3, s4}, {s0: 2, s1: 3/4, s5: 3/4})
s5 -> ({s3, s4}, {s4: 2})
functor: P x R^(X)
states: s0, s5, s2, s3, s4, s1
s0 -> ({s4}, {})
s5 -> ({s3, s4}, {s4: 2})
s2 -> ({s1}, {s1: 4})
s3 -> ({s0, s1}, {s0: 1/3, s2: 1, s4: 1})
s4 -> ({s3, s4, s1}, {s0: 2, s5: 3/4, s1: 3/4})
s1 -> ({s0, s3, s4}, {s2: 1, s3: 1})
""",
    "(D(X) + C{stop})^{a,b}": """\
functor: (D(X) + C{stop})^{a,b}
states: s0, s1, s2, s3, s4, s5
s0 -> [a: in1({s1: 5/9, s2: 4/9}), b: in1({s2: 5/7, s3: 2/7})]
s1 -> [a: in1({s1: 3/8, s3: 1/8, s4: 1/8, s5: 3/8}), \
b: in1({s0: 2/3, s3: 1/9, s4: 2/9})]
s2 -> [a: in1({s0: 1}), b: in2(stop)]
s3 -> [a: in2(stop), b: in2(stop)]
s4 -> [a: in2(stop), b: in1({s1: 1})]
s5 -> [a: in2(stop), b: in2(stop)]
functor: (D(X) + C{stop})^{a,b}
states: s1, s2, s3, s4, s0
s1 -> [a: in1({s1: 3/8, s3: 1/2, s4: 1/8}), \
b: in1({s3: 1/9, s4: 2/9, s0: 2/3})]
s2 -> [a: in1({s0: 1}), b: in2(stop)]
s3 -> [a: in2(stop), b: in2(stop)]
s4 -> [a: in2(stop), b: in1({s1: 1})]
s0 -> [a: in1({s1: 5/9, s2: 4/9}), b: in1({s2: 5/7, s3: 2/7})]
""",
}


@pytest.mark.parametrize("source", list(PRINTED_MODELS))
def test_printed_models_golden(capsys, tmp_path, source):
    model, printed = str(MODELS / ("%s.model" % source)), ""
    if source not in ("ts1", "mc1", "pr1"):
        model = str(tmp_path / "gen.model")
        code, _, _ = run(capsys, "gen", "--functor", source, *GEN_MODEL,
                         "--out", model)
        assert code == 0
        printed = Path(model).read_text()
    code, out, _ = run(capsys, "minimize", model)
    assert code == 0 and printed + out == PRINTED_MODELS[source]


def test_check_golden(capsys):
    code, out, _ = run(capsys, "check", TS1, "[]<>true")
    assert code == 0
    assert out.split() == ["x"]


def test_check_generic_syntax(capsys):
    code, out, _ = run(capsys, "check", TS1, "<{1}>(<{}>, true)")
    assert code == 0
    assert out.split() == ["x"]


def _best_of_three(fn):
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def test_check_costs_about_one_parse(capsys, tmp_path):
    # check lists the satisfying declared states in one pass; testing each
    # against a list of all states made `check MODEL true` quadratic,
    # about 25 times the parse at this size
    n, rng = 2 ** 14, random.Random(1)
    path = tmp_path / "p.model"
    path.write_text("functor: P\nstates: %s\n%s\n" % (
        ", ".join("s%d" % i for i in range(n)),
        "\n".join("s%d -> {%s}" % (i, ", ".join(
            "s%d" % y for y in sorted({rng.randrange(n) for _ in range(4)})))
            for i in range(n))))
    parse = _best_of_three(lambda: cli._load(str(path)))
    check = _best_of_three(lambda: main(["check", str(path), "true"]))
    assert len(capsys.readouterr().out.split()) == 3 * n
    assert check < 3 * parse, (parse, check)


def test_check_bad_formula(capsys):
    code, _, err = run(capsys, "check", TS1, "<oops")
    assert code == 2 and err


@pytest.mark.parametrize("model, formula, reasons", [
    ("ts1", "<{3}>", ["colour 3 out of palette 1 (generic syntax)",
                      "expected a name at '' (logic hm)"]),
    ("mc1", "<(1,2)>", ["weight vector has 2 entries, palette is 1 "
                        "(generic syntax)", "(logic weighted)"]),
    ("atoms", "<v>", ["unknown atom 'v' (generic syntax)",
                      "no logic fits the functor"]),
    ("ts1", "<{0}", ["expected '>' at '{0}' (generic syntax)",
                     "expected '>' at '{0}' (logic hm)"]),
    ("pr1", "<a>_{1/2", ["(generic syntax)",
                         "expected '}' at '1/2' (logic prob)"]),
])
def test_check_bad_formula_names_each_parsers_reason(capsys, tmp_path, model,
                                                     formula, reasons):
    path = tmp_path / "atoms.model"
    path.write_text("functor: C{u,w}\nstates: a, b\na -> u\nb -> w\n")
    model = str(path) if model == "atoms" else str(MODELS / (model + ".model"))
    code, out, err = run(capsys, "check", model, formula)
    assert code == 2 and not out
    for reason in reasons:
        assert reason in err, (reason, err)


def test_translate_weighted(capsys):
    code, out, _ = run(capsys, "translate", MC1, "--logic", "weighted",
                       "--mode", "cancellative")
    assert code == 0
    assert "~" not in out and "<1/2>" in out


def test_translate_prob(capsys):
    code, out, _ = run(capsys, "translate", PR1, "--logic", "prob")
    assert code == 0
    assert "_{1/2}" in out


TS1_HM_LISTING = """\
functor: P
blocks:
  0: x
  1: z
  2: x1 y
dag:
  #0 = true
  #1 = <>#0
  #2 = <>~#1
  #3 = (#1 & ~#2)
  #4 = <>#1
  #5 = (#2 & #4)
  #6 = (#1 & #5)
certificates:
  0: #3
  1: ~#1
  2: #6
"""


def test_translate_listing_golden(capsys):
    # the shared listing of certify, with the logic's modalities
    code, out, _ = run(capsys, "translate", TS1, "--logic", "hm")
    assert code == 0 and out == TS1_HM_LISTING


def test_translate_deep_dag(capsys, tmp_path):
    # a chain of 1,500 states: the certificate dag is deeper than the
    # interpreter's recursion limit
    n = 1500
    text = chain_text(n)
    model = tmp_path / "chain.model"
    model.write_text(text)
    c = parse_coalgebra(text)
    certs = build_certificates(c, refine(c))
    assert certs.dag.height() > 1000
    nodes = len(reachable(certs.dag, list(certs.delta.values())))
    code, out, err = run(capsys, "translate", str(model), "--logic", "hm")
    assert code == 0 and not err
    assert len(out.splitlines()) <= 5 * nodes + 3 * n


def test_translate_incompatible_logic(capsys):
    code, _, err = run(capsys, "translate", TS1, "--logic", "weighted")
    assert code == 4 and err


def test_translate_cancellative_needs_two_sided(capsys):
    code, _, err = run(capsys, "translate", MC1, "--logic", "weighted",
                       "--mode", "cancellative")
    assert code == 0
    code, _, err = run(capsys, "certify", TS1, "--mode", "cancellative")
    assert code == 4 and err


def _listed_certificates(listing):
    """{block's states: its certificate as one formula text} of a listing,
    each node reference replaced by the text of its node."""
    head, _, certs = listing.partition("certificates:\n")
    blocks = dict(re.findall(r"^  (\d+): (.*)$", head.split("dag:\n")[0],
                             re.M))
    nodes = dict(re.findall(r"^  #(\d+) = (.*)$", head, re.M))

    def text(ref):
        return re.sub(r"#(\d+)", lambda m: text(m.group(1)), nodes[ref])
    return {tuple(sorted(blocks[b].split())): text(ref)
            for b, ref in re.findall(r"^  (\d+): #(\d+)$", certs, re.M)}


def test_translate_signature_cancellative(capsys, tmp_path):
    # negation-free certificates of a cancellative run, through kappa
    model = str(tmp_path / "sig.model")
    assert run(capsys, "gen", "--functor", "Sig(f/2, g/0, h/1)", "--n", "12",
               "--seed", "3", "--out", model)[0] == 0
    code, out, err = run(capsys, "translate", model, "--logic", "signature",
                         "--mode", "cancellative")
    assert code == 0 and not err and "~" not in out
    certs = _listed_certificates(out)
    assert len(certs) > 3 and any("<{" in phi for phi in certs.values())
    for states, phi in certs.items():
        code, held, _ = run(capsys, "check", model, phi, "--logic",
                            "signature")
        assert code == 0 and tuple(held.split()) == states, phi
    code, out, err = run(capsys, "translate", PR1, "--logic", "prob",
                         "--mode", "cancellative")
    assert code == 4 and not out
    assert err == "error: logic 'prob' needs certificates from generic mode\n"


@pytest.mark.parametrize("argv", [
    ["certify", TS1], ["translate", TS1, "--logic", "hm"], ["minimize", TS1],
    ["gen", "--functor", "P", "--n", "3"],
], ids=lambda argv: argv[0])
def test_out_into_a_missing_directory(capsys, monkeypatch, tmp_path, argv):
    # refused before any work: the model is not even read
    def no_work(*args, **kw):
        pytest.fail("ran before refusing --out")
    for name in ("parse_coalgebra", "refine", "generate"):
        monkeypatch.setattr(cli, name, no_work)
    for dest in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(dest))
        assert code == 2 and not out and "Traceback" not in err
        assert err.startswith("error:") and str(dest) in err
    assert not (tmp_path / "missing").exists()


def test_distinguish_refuses_a_long_expansion(capsys, monkeypatch):
    # a formula over the limit exits 2, and the message names a command
    # that prints the shared dag
    monkeypatch.setattr(cli, "expand", partial(certdag.expand, limit=2))
    code, out, err = run(capsys, "distinguish", TS1, "x", "y")
    assert code == 2 and not out
    assert "exceeds 2 nodes" in err and "certify" in err


def test_minimize_cancellative_needs_cancellative_functor(capsys):
    code, out, err = run(capsys, "minimize", TS1, "--mode", "cancellative")
    assert code == 4 and not out
    assert err.startswith("error:") and "Traceback" not in err


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", TS1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["blocks"] == 3 and doc["iterations"] >= 1
    assert doc["parse_ms"] >= 0
    assert 1 <= doc["key_walks"] <= doc["visited_edges"]
    assert "key_walks: %d" % doc["key_walks"] in run(capsys, "stats", TS1)[1]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("formula, code, out", [
    ("<{3}>g", 2, ""), ("<{1,2,3}>g", 2, ""), ("<{1}>g", 0, "a\n"),
    ("<{2}>g", 0, "c\n"), ("<{}>g", 0, "b\n"),
])
def test_check_signature_positions_within_arity(capsys, tmp_path, formula,
                                                code, out):
    """A position above every operation's arity is refused, as the generic
    syntax refuses a colour out of its palette."""
    path = tmp_path / "sig.model"
    path.write_text("functor: Sig(f/2, g/0)\nstates: a, b, c\n"
                    "a -> f(b, c)\nb -> g\nc -> f(c, b)\n")
    got = run(capsys, "check", str(path), formula)
    assert got[:2] == (code, out), got
    if code:
        assert "no operation of Sig(f/2, g/0) has position 3" in got[2]


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    for dest in (a, b):
        code, _, _ = run(capsys, "gen", "--functor", "P", "--n", "12",
                         "--seed", "5", "--out", str(dest))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # generated models feed straight back into certify --verify
    code, _, _ = run(capsys, "certify", str(a), "--verify")
    assert code == 0


@pytest.mark.parametrize("flags", [
    ["--n", "-3"], ["--n", "3", "--density", "inf"],
    ["--n", "3", "--density=-1"], ["--n", "3", "--density", "nan"],
])
def test_gen_rejects_bad_size_or_density(capsys, flags):
    code, out, err = run(capsys, "gen", "--functor", "P", *flags)
    assert code == 2 and not out
    assert err.startswith("error: ") and "must be" in err


def test_gen_huge_density_saturates(capsys):
    code, out, _ = run(capsys, "gen", "--functor", "P", "--n", "3",
                       "--density", "1e308")
    assert code == 0 and out.count("{s0, s1, s2}") == 3


def test_composite_model(capsys, tmp_path):
    model = tmp_path / "comp.model"
    model.write_text(
        "functor: P . (C{a,b} x X)\nstates: s, t, u\n"
        "s -> {(a, s), (b, t)}\nt -> {}\nu -> {(a, u), (b, t)}\n")
    code, out, _ = run(capsys, "certify", str(model), "--verify")
    assert code == 0
    assert "aux" not in out  # helper states stay hidden
    code, out, _ = run(capsys, "distinguish", str(model), "s", "u")
    assert code == 0 and "equivalent" in out.lower()
    code, _, err = run(capsys, "minimize", str(model))
    assert code == 4


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "certify", "/nonexistent.model")
    assert code == 2 and err


def test_malformed_coproduct_row(capsys, tmp_path):
    model = tmp_path / "bad.model"
    model.write_text("functor: P + C{a}\nstates: s\ns -> inx({s})\n")
    code, _, err = run(capsys, "certify", str(model))
    assert code == 2 and "injection" in err


MC1_LISTING = """\
functor: R^(X)
blocks:
  0: x
  1: z1
  2: z2 y
dag:
  #0 = true
  #1 = <(1)>
  #2 = <(0)>
  #4 = <(0,1/2,1/2)>(#2, #0)
  #5 = (#1 & #4)
  #6 = <(0,0,1)>(#2, #0)
  #7 = (#1 & #6)
certificates:
  0: #5
  1: #2
  2: #7
"""

PR1_LISTING = """\
functor: (D(X) + C{stop})^{a,b}
blocks:
  0: s
  1: u
  2: v
  3: t
dag:
  #0 = true
  #1 = <[a: in1((1)), b: in2(stop)]>
  #2 = <[a: in2(stop), b: in1((1))]>
  #3 = <[a: in2(stop), b: in2(stop)]>
  #5 = <[a: in1((0,1/2,1/2)), b: in2(stop)]>(#2, #0)
  #6 = (#1 & #5)
  #7 = <[a: in1((0,0,1)), b: in2(stop)]>(#2, #0)
  #8 = (#1 & #7)
certificates:
  0: #6
  1: #2
  2: #3
  3: #8
"""


@pytest.mark.parametrize("model, listing", [(MC1, MC1_LISTING),
                                            (PR1, PR1_LISTING)],
                         ids=["mc1", "pr1"])
def test_certify_weighted_listing_golden(capsys, model, listing):
    # weights print densely, zero weights included, one per colour
    code, out, _ = run(capsys, "certify", model)
    assert code == 0 and out == listing


@pytest.mark.parametrize("formula, states", [
    ("~" * 100000 + "true", "x x1 y z"), ("<>" * 100000 + "true", "x x1 y")],
    ids=["negations", "diamonds"])
def test_check_deeply_nested_formula(capsys, formula, states):
    # the formula parsers keep their own stack, so depth has no limit
    code, out, err = run(capsys, "check", TS1, formula)
    assert (code, out, err) == (0, states + "\n", "")


def _deep_functor_model(kind, depth):
    """A one-state model whose functor nests `depth` levels deep: through
    exponents, compositions or parentheses."""
    n = depth - 1
    functor, row = {
        "exponents": ("C{u}" + "^{a}" * n, "[a: " * n + "u" + "]" * n),
        "compositions": (" . ".join(["P"] * depth), "{}"),
        "parentheses": ("(" * depth + "P" + ")" * depth, "{}"),
    }[kind]
    return "functor: %s\nstates: s\ns -> %s\n" % (functor, row)


@pytest.mark.parametrize("kind", ["exponents", "compositions",
                                  "parentheses"])
@pytest.mark.parametrize("command", [["certify", "--verify"], ["stats"]])
def test_deeply_nested_functor(capsys, tmp_path, kind, command):
    # one nesting limit for every way to nest a functor: at the limit the
    # model is read, past it (even far past) it exits 2, never 1
    path = tmp_path / "deep.model"
    for depth in (MAX_DEPTH, MAX_DEPTH + 1, 1000):
        path.write_text(_deep_functor_model(kind, depth))
        code, _out, err = run(capsys, command[0], str(path), *command[1:])
        if depth == MAX_DEPTH:
            assert (code, err) == (0, ""), (kind, depth)
        else:
            assert (code, err) == (2, "error: cannot parse %s: line 1: "
                                   "functor nested too deeply\n" % path)


def test_verify_names_block_and_state(capsys, monkeypatch):
    victims = []

    def wrong_delta(c, result):
        certs = build(c, result)
        # z's certificate says "has a successor": x, x1 and y satisfy it
        victims.append(result.block_of[c.states.index("z")])
        certs.delta[victims[0]] = certs.dag.add_modal(("set", (0,)), 0, ())
        return certs

    build = cli.build_certificates
    monkeypatch.setattr(cli, "build_certificates", wrong_delta)
    code, out, err = run(capsys, "certify", TS1, "--verify")
    assert code == 3 and not out
    assert err.startswith("error: certificate of block %d: x satisfies it "
                          "but is not in the block" % victims[0])


@pytest.mark.parametrize("model, formula, logic, code", [
    ("ts1", "<1/2>true", None, 2),      # a weight modality on a powerset
    ("mc1", "<>true", None, 2),         # a diamond on weights
    ("mc1", "<>true", "hm", 4),
    ("mc1", "true", "hm", 4),           # generic syntax, logic still checked
    ("pr1", "<c>_{1/2}true", None, 2),  # a label the functor lacks
    ("mc1", "<1/2>true", "weighted", 0),
])
def test_check_formula_of_another_logic(capsys, model, formula, logic, code):
    argv = ["check", str(MODELS / (model + ".model")), formula]
    argv += ["--logic", logic] if logic else []
    got, out, err = run(capsys, *argv)
    assert got == code
    assert bool(err) == (code != 0) and "Traceback" not in err


# pieces of the generic syntax and of the four domain-specific logics
FORMULA_PIECES = [
    "true", "~", "(", " & ", " | ", ")", ",", "<", ">", "{", "}", "0", "1",
    "2", "1/2", "<>", "[]", "<1/2>", "<{1}>", "<{}>", "<(0,1/2,1/2)>",
    "<a>_{1/2}", "<c>_{1}", "a", "stop", "in1(", "[a: ",
]


MODEL_FILES = sorted(MODELS.glob("*.model"))
STATE_NAMES = sorted({name for path in MODEL_FILES
                      for name in parse_coalgebra(path.read_text()).states})
# functors whose composition sits under a product: no row can be read, and
# every subcommand exits 2 on a model without states
UNREADABLE = ["P x (P . X)", "(P x (P . X)) . P"]


@pytest.fixture(scope="module")
def unreadable_models(tmp_path_factory):
    """Model files without states over the UNREADABLE functors."""
    paths = {}
    for functor in UNREADABLE:
        paths[functor] = tmp_path_factory.mktemp("unreadable") / "m.model"
        paths[functor].write_text("functor: %s\nstates:\n" % functor)
    return paths


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODEL_FILES + UNREADABLE),
       command=st.sampled_from(["check", "certify", "minimize",
                                "distinguish", "translate", "stats", "gen"]),
       pieces=st.lists(st.sampled_from(FORMULA_PIECES), max_size=8),
       mode=st.sampled_from([None, "generic", "cancellative", "naive"]),
       logic=st.sampled_from([None, "hm", "weighted", "signature", "prob"]),
       names=st.lists(st.sampled_from(STATE_NAMES + ["nope"]),
                      min_size=2, max_size=2),
       n=st.sampled_from([-3, -1, 0, 1, 5]),
       density=st.sampled_from([-1.0, -0.0, 0.0, 0.3, 2.5, 1e308,
                                float("inf"), float("-inf"), float("nan")]))
def test_check_exit_codes(unreadable_models, model, command, pieces, mode,
                          logic, names, n, density):
    # every subcommand ends in a documented exit code, never a traceback;
    # certify always runs --verify, and 3 would be a failed internal check
    unreadable = model in UNREADABLE
    if unreadable:
        model = unreadable_models[model]
    if command == "gen":
        functor = parse_coalgebra(model.read_text()).functor
        argv = ["gen", "--functor", pretty_functor(functor), "--n=%d" % n,
                "--density=%r" % density]
    else:
        argv = [command, str(model)]
    if command == "check":
        argv.append("".join(pieces))
    elif mode and command != "gen":
        argv += ["--mode", mode]
    if command == "distinguish":
        argv += names
    if command == "translate":
        argv += ["--logic", logic or "hm"]
    elif command == "certify":
        argv.append("--verify")
    elif logic and command in ("check", "distinguish"):
        argv += ["--logic", logic]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a malformed command line
        code = e.code
    if unreadable or "naive" in argv:
        assert code == 2, argv
    else:
        assert code in ((0, 2) if command == "gen" else (0, 2, 4))


def test_verify_is_the_proof_alone(capsys, monkeypatch):
    # --verify is check_certificates' proof and nothing else: the oracle
    # and the trace replay stay in cli's namespace only for the benchmark
    def retired(*args, **kw):
        raise AssertionError("--verify ran a retired check")
    for name in ("naive_bisimilarity", "partition_key", "replay_trace"):
        monkeypatch.setattr(cli, name, retired)
    for path in MODEL_FILES:
        modes = ["generic"]
        if is_cancellative(parse_coalgebra(path.read_text()).functor):
            modes.append("cancellative")
        for mode in modes:
            plain = run(capsys, "certify", str(path), "--mode", mode)
            assert plain[0] == 0, (path.name, mode)
            assert run(capsys, "certify", str(path), "--mode", mode,
                       "--verify") == plain, (path.name, mode)


def _relabel(result, certs, a, b):
    """Conjunct #a takes the label of its sibling #b: the states of a's
    block no longer satisfy it."""
    nodes = certs.dag.nodes
    set_node(certs.dag, a, ("modal", nodes[b][1]) + nodes[a][2:])


def _move_state(result, certs, x):
    """State x moves into the next block."""
    src = result.block_of[x]
    dst = (src + 1) % len(result.blocks)
    result.blocks[src].remove(x)
    result.blocks[dst] = sorted(result.blocks[dst] + [x])
    result.block_of[x] = dst


def _rewrite(result, certs, edit):
    """The trace, its splits edited in place by edit(splits), written
    back through the trace's writer (tests/reference.py)."""
    trace = result.trace
    init, splits = trace_events(trace)
    edit(splits)
    result.trace = certs.trace = rewrite_trace(trace.mode, trace.n, init,
                                               splits)


def _drop_state(result, certs, i, r, k, x):
    """Child k of refinement r of split i loses state x."""
    def edit(splits):
        child = splits[i][2][r][1][k]
        child[2] = [s for s in child[2] if s != x]
    _rewrite(result, certs, edit)


def _list_untouched(result, certs, i, r, x):
    """Child 1 of refinement r of split i also lists state x."""
    def edit(splits):
        splits[i][2][r][1][1][2].append(x)
    _rewrite(result, certs, edit)


def _drop_refinement(result, certs, i, r):
    """Split i loses its refinement r."""
    def edit(splits):
        del splits[i][2][r]
    _rewrite(result, certs, edit)


def _replayed(init, splits, n):
    """(i, split i, each state's block before split i's refinements)."""
    block_of = [None] * n
    for bid, _val, states in init:
        for x in states:
            block_of[x] = bid
    for i, ev in enumerate(splits):
        yield i, ev, list(block_of)
        for _T, children in ev[2]:
            for cid, _val, states in children:
                for x in states or ():
                    block_of[x] = cid


def _beta_true(result, certs, cmp_id):
    """Compound formula beta(C) becomes true."""
    certs.beta[cmp_id] = TOP


def _sibling_arg(result, certs, mod, sibling):
    """Modal node #mod takes node #sibling, the delta its earlier sibling
    got at the same split, as its first argument."""
    nodes = certs.dag.nodes
    args = nodes[mod][3]
    set_node(certs.dag, mod, nodes[mod][:3] + (((sibling, False),) + args[1:],))


def _neg_cut(result, certs, parent, cut):
    """The `and` node #cut, the deepest of a negated conjunction, gives way
    to its right operand in node #parent: its left one, the deepest
    walked conjunct, is dropped."""
    nodes = certs.dag.nodes
    kept = nodes[cut][2]
    if nodes[parent][1][0] == cut:  # parent is a fresh conjunction
        set_node(certs.dag, parent, ("and", kept, nodes[parent][2]))
    else:  # parent is the beta update
        set_node(certs.dag, parent, ("and", nodes[parent][1], (kept[0], True)))


def _neg_delta_cut(result, certs, update, cut):
    """The beta update #update negates the left operand of node #cut,
    delta(S) itself, in place of delta(S): its top conjunct is dropped."""
    nodes = certs.dag.nodes
    set_node(certs.dag, update,
             ("and", nodes[update][1], (nodes[cut][1][0], True)))


def _neg_cuts(certs):
    """(corrupt, args) for each beta update that negates a conjunction of
    two or more conjuncts: _neg_cut for a fresh conjunction, _neg_delta_cut
    for delta(S) itself.  The conjunctions are told from the delta chains'
    own `and` nodes by id."""
    nodes = certs.dag.nodes
    chain = set()
    for nid, _neg in certs.delta.values():
        while nodes[nid][0] == "and" and nid not in chain:
            chain.add(nid)
            nid = nodes[nid][1][0]

    def fresh(nid):
        return nodes[nid][0] == "and" and nid not in chain

    for ref in certs.beta.values():
        update = ref[0]
        while nodes[update][0] == "and" and nodes[update][2][1]:
            parent, cut = update, nodes[update][2][0]
            if fresh(cut):
                while fresh(nodes[cut][1][0]):
                    parent, cut = cut, nodes[cut][1][0]
                yield _neg_cut, (parent, cut)
            elif cut in chain:
                yield _neg_delta_cut, (update, cut)
            update = nodes[update][1][0]


def corruptions(result, certs):
    """(kind, corrupt, args): each corrupt(result, certs, *args) changes
    one run's output in place."""
    init, splits = trace_events(result.trace)
    # the modal refs of the versions, in version order: the initial blocks,
    # then each refinement's children (version 0 is the root)
    mods = iter(certs.versions[-1][1:])
    siblings = [[next(mods) for _ in children] for children in itertools.chain(
        [init], (children for _S, _B, refinements in splits
                 for _T, children in refinements))]
    for refs in siblings:
        if len(refs) >= 2:
            yield "label", _relabel, (refs[0][0], refs[1][0])
    if len(result.blocks) >= 2:
        for x in range(len(result.block_of)):
            yield "block", _move_state, (x,)
    # every compound of the trace is a proper part of the state set
    for cmp_id in certs.beta:
        yield "beta", _beta_true, (cmp_id,)
    nodes = certs.dag.nodes
    for refs in siblings[1:]:  # the children of one refinement each
        mods = [nid for nid, _neg in refs]
        for earlier, mod in zip(mods, mods[1:]):
            # the delta node made right after its modal node; a modal
            # node shared with an earlier parent's child may precede it,
            # and an argument must precede its node
            sibling = next(nid for nid in range(earlier, len(nodes))
                           if nodes[nid][0] == "and"
                           and nodes[nid][2] == (earlier, False))
            if sibling < mod:
                yield "sibling arg", _sibling_arg, (mod, sibling)
    for corrupt, args in _neg_cuts(certs):
        yield "neg cut", corrupt, args
    # a moved child loses a state that no later split moves, which then
    # replays into the wrong block, or each state that a later split moves
    # again, which replays into the right one
    for i, (_S, _B, refinements) in enumerate(splits):
        for r, (T, children) in enumerate(refinements):
            for k, (cid, _val, states) in enumerate(children):
                if cid == T:
                    continue
                x = next((x for x in states if result.block_of[x] == cid),
                         None)
                if x is not None:
                    yield "trace", _drop_state, (i, r, k, x)
    # a refinement of T, which holds predecessors of S, lists a state of T
    # that has no edge into S in a child that is not the default one, or
    # is dropped
    c = certs.coalgebra
    for i, (S, _B, refinements), block_of in _replayed(init, splits, c.n):
        touched = {x for y in range(c.n) if block_of[y] == S
                   for x in predecessors(c, y)}
        for r, (parent, children) in enumerate(refinements):
            T = [x for x in range(c.n) if block_of[x] == parent]
            listed = {x for _cid, _val, states in children
                      for x in states or ()}
            x = next((x for x in T if x not in touched and x not in listed),
                     None)
            if children[0][2] is None and x is not None:
                yield "untouched listed", _list_untouched, (i, r, x)
            if touched.intersection(T):
                yield "dropped refinement", _drop_refinement, (i, r)
    moved_later = set()  # states that a split after the current one moves
    for i in reversed(range(len(splits))):
        refinements = splits[i][2]
        for r, (T, children) in enumerate(refinements):
            for k, (cid, _val, states) in enumerate(children):
                if cid != T:
                    for x in moved_later.intersection(states):
                        yield "moved again", _drop_state, (i, r, k, x)
        moved_later.update(x for T, children in refinements
                           for cid, _val, states in children
                           if cid != T for x in states)


def _runs():
    """(label, coalgebra, mode) of the runs that corruptions() corrupts."""
    runs = [(label, c, "generic") for label, c in random_instances()]
    return runs + [(label, c, "cancellative")
                   for label, c in random_instances(CANCELLATIVE_FUNCTORS)]


def _corrupted_runs():
    """(label, mode, kind, args, c, certs, wrong) for each corruption of a
    fresh run, wrong telling whether check_extensions rejects it."""
    for label, c, mode in _runs():
        result = refine(c, mode=mode)
        for kind, corrupt, args in corruptions(result,
                                               build_certificates(c, result)):
            run_ = refine(c, mode=mode)
            certs = build_certificates(c, run_)
            corrupt(run_, certs, *args)
            wrong = check_extensions(certs, c) != []
            yield label, mode, kind, args, c, certs, wrong


def test_verify_catches_corrupted_output():
    # a modal label, a block assignment, a compound formula, a trace child,
    # a modal node's argument, a negated conjunction and a refinement, each
    # corrupted on its own in a fresh run.  A cut negation can be harmless:
    # _verify must then fail whenever the semantic check finds a wrong
    # extension
    caught = dict.fromkeys(["label", "block", "beta", "trace", "moved again",
                            "sibling arg", "neg cut", "untouched listed",
                            "dropped refinement"], 0)
    for label, mode, kind, args, c, certs, wrong in _corrupted_runs():
        try:
            cli._verify(c, certs)
        except cli.CliFailure as failure:
            assert failure.code == cli.VERIFY_ERROR, (label, kind, args)
            caught[kind] += 1
        else:
            assert kind == "neg cut" and not wrong, (label, mode, kind, args)
    assert min(caught.values()) >= 50, caught


def test_check_extensions_reports_a_dropped_refinement():
    # the children of a dropped refinement have no compound: a mismatch
    # naming the block, not a LookupError
    dropped = 0
    for label, c, mode in _runs():
        result = refine(c, mode=mode)
        for kind, corrupt, args in corruptions(result,
                                               build_certificates(c, result)):
            if kind != "dropped refinement":
                continue
            run_ = refine(c, mode=mode)
            certs = build_certificates(c, run_)
            corrupt(run_, certs, *args)
            bad = check_extensions(certs, c)
            assert any(got is None for _b, _want, got in bad), (label, args)
            dropped += 1
    assert dropped >= 50, dropped


def test_proof_rejects_what_the_references_reject():
    # the proof accepts every clean run, and rejects every corrupted one
    # that check_extensions or the full keying of tests/reference.py
    # rejects
    for label, c, mode in _runs():
        certs = build_certificates(c, refine(c, mode=mode))
        assert check_certificates(certs) == [] == check_certificates_full(
            certs), (label, mode)
    rejected = 0
    for label, mode, kind, args, c, certs, wrong in _corrupted_runs():
        if wrong or check_certificates_full(certs, c):
            assert check_certificates(certs, c), (label, mode, kind, args)
            rejected += 1
    assert rejected >= 1000, rejected


def test_benchmark_names_exist():
    # the benchmark harness reaches into cli and certdag by name: its
    # tracer wraps every key of tracing.CLI_CALLS, and run.py calls the
    # rest directly; read tracing.py by path, without importing benchmark/
    path = Path(__file__).parent.parent / "benchmark" / "tracing.py"
    calls = runpy.run_path(str(path))["CLI_CALLS"]  # writes no bytecode
    names = list(calls) + [
        "_load", "_prepare", "refine", "VERIFY_ERROR", "main"]
    assert [n for n in names if not hasattr(cli, n)] == []
    assert callable(certdag.build_certificates)
    assert callable(certdag.distinguish)


def test_benchmark_call_sequence(tmp_path):
    # the harness builds the certificates of a composite model the way cli
    # does: _load, _prepare, refine, build_certificates
    path = tmp_path / "llts.model"
    path.write_text("functor: P . (C{a,b} x X)\nstates: s, t, u\n"
                    "s -> {(a, t), (b, s)}\nt -> {}\nu -> {(a, t)}\n")
    c = cli._load(str(path))
    c, visible = cli._prepare(c, "generic")
    certs = certdag.build_certificates(c, cli.refine(c))
    assert list(visible) == [0, 1, 2] and c.n == 6
    assert certdag.distinguish(certs, 0, 2) is not None


@pytest.mark.parametrize("functor", ["(P x (P . X)) . P",
                                     "P . (C{a} + (P . X))"])
@pytest.mark.parametrize("command", [
    ["certify"], ["stats"], ["check", "true"], ["translate", "--logic", "hm"],
    ["distinguish", "a", "b"]])
def test_nested_composition_without_states(capsys, tmp_path, functor,
                                           command):
    # a layer that is itself composed cannot be unfolded; without rows
    # nothing reads it, and the run still exits 2
    path = tmp_path / "nested.model"
    path.write_text("functor: %s\nstates:\n" % functor)
    argv = [command[0], str(path)] + command[1:]
    code, out, err = run(capsys, *argv)
    layer = 0 if functor.startswith("(") else 1
    assert (code, out) == (2, "")
    assert err == ("error: composition layer %d: composition is not "
                   "zippable; unfold it first\n" % layer)
