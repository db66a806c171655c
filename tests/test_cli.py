"""Command-line interface: subcommands, exit codes, output formats."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert import cli
from coalgcert.certdag import build_certificates, reachable
from coalgcert.cli import main
from coalgcert.coalgebra import parse_coalgebra
from coalgcert.functor import pretty_functor
from coalgcert.refiner import refine
from conftest import chain_text, random_instances

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


def test_distinguish_unknown_state(capsys):
    code, _, err = run(capsys, "distinguish", TS1, "nope", "y")
    assert code == 2 and "nope" in err


def test_minimize(capsys):
    code, out, _ = run(capsys, "minimize", MC1)
    assert code == 0
    lines = [l for l in out.splitlines() if "->" in l]
    assert len(lines) == 3  # quotient has three states


def test_check_golden(capsys):
    code, out, _ = run(capsys, "check", TS1, "[]<>true")
    assert code == 0
    assert out.split() == ["x"]


def test_check_generic_syntax(capsys):
    code, out, _ = run(capsys, "check", TS1, "<{1}>(<{}>, true)")
    assert code == 0
    assert out.split() == ["x"]


def test_check_bad_formula(capsys):
    code, _, err = run(capsys, "check", TS1, "<oops")
    assert code == 2 and err


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
  #2 = <>#0
  #3 = <>~#2
  #4 = (#1 & ~#3)
  #5 = <>~#2
  #6 = <>#2
  #7 = (#5 & #6)
  #8 = (#1 & #7)
certificates:
  0: #4
  1: ~#2
  2: #8
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


def test_minimize_cancellative_needs_cancellative_functor(capsys):
    code, out, err = run(capsys, "minimize", TS1, "--mode", "cancellative")
    assert code == 4 and not out
    assert err.startswith("error:") and "Traceback" not in err


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", TS1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["blocks"] == 3 and doc["iterations"] >= 1


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


@pytest.mark.parametrize("formula", ["~" * 3000 + "true",
                                     "<>" * 3000 + "true"],
                         ids=["negations", "diamonds"])
def test_check_deeply_nested_formula(capsys, formula):
    code, out, err = run(capsys, "check", TS1, formula)
    assert code == 2 and not out
    assert err.startswith("error:") and "Traceback" not in err


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


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(MODEL_FILES),
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
def test_check_exit_codes(model, command, pieces, mode, logic, names, n,
                          density):
    # every subcommand ends in a documented exit code, never a traceback;
    # no draw requests --verify, so 3 would be a failed internal check
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
    elif logic and command in ("check", "distinguish"):
        argv += ["--logic", logic]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a malformed command line
        code = e.code
    if "naive" in argv:
        assert code == 2
    else:
        assert code in ((0, 2) if command == "gen" else (0, 2, 4))


@pytest.mark.parametrize("patch, message", [
    ("naive_bisimilarity", "partition differs from the oracle: x and z"),
    ("replay_trace", "trace replay puts y in block 0, not 2"),
])
def test_verify_names_oracle_and_replay_failures(capsys, monkeypatch, patch,
                                                 message):
    fakes = {"naive_bisimilarity": lambda c: [[0, 3], [1, 2]],
             "replay_trace": lambda trace: [0, 2, 0, 1]}
    monkeypatch.setattr(cli, patch, fakes[patch])
    code, out, err = run(capsys, "certify", TS1, "--verify")
    assert code == 3 and not out
    assert err == "error: %s\n" % message


def _relabel(result, certs, a, b):
    """Conjunct #a takes the label of its sibling #b: the states of a's
    block no longer satisfy it."""
    nodes = certs.dag.nodes
    nodes[a] = ("modal", nodes[b][1]) + nodes[a][2:]


def _move_state(result, certs, x):
    """State x moves into the next block."""
    src = result.block_of[x]
    dst = (src + 1) % len(result.blocks)
    result.blocks[src].remove(x)
    result.blocks[dst] = sorted(result.blocks[dst] + [x])
    result.block_of[x] = dst


def _drop_state(result, certs, i, r, k, x):
    """Child k of refinement r of split i loses state x."""
    ref = result.trace.splits[i].refinements[r]
    cid, val, states = ref.children[k]
    ref.children[k] = (cid, val, tuple(s for s in states if s != x))


def corruptions(result, certs):
    """(kind, corrupt, args): each corrupt(result, certs, *args) changes
    one run's output in place."""
    trace = result.trace
    siblings = [[certs.modal_of[(-1, b)] for b, _v, _s in trace.init.blocks]]
    siblings += [[certs.modal_of[(i, cid)] for cid, _v, _s in ref.children]
                 for i, ev in enumerate(trace.splits)
                 for ref in ev.refinements]
    for refs in siblings:
        if len(refs) >= 2:
            yield "label", _relabel, (refs[0][0], refs[1][0])
    if len(result.blocks) >= 2:
        for x in range(len(result.block_of)):
            yield "block", _move_state, (x,)
    # a moved child loses a state that no later split moves, which then
    # replays into the wrong block, or each state that a later split moves
    # again, which replays into the right one
    for i, ev in enumerate(trace.splits):
        for r, ref in enumerate(ev.refinements):
            for k, (cid, _val, states) in enumerate(ref.children):
                if cid == ref.parent:
                    continue
                x = next((x for x in states if result.block_of[x] == cid),
                         None)
                if x is not None:
                    yield "trace", _drop_state, (i, r, k, x)
    moved_later = set()  # states that a split after the current one moves
    for i in reversed(range(len(trace.splits))):
        for r, ref in enumerate(trace.splits[i].refinements):
            for k, (cid, _val, states) in enumerate(ref.children):
                if cid != ref.parent:
                    for x in moved_later.intersection(states):
                        yield "moved again", _drop_state, (i, r, k, x)
        moved_later.update(x for ref in trace.splits[i].refinements
                           for cid, _val, states in ref.children
                           if cid != ref.parent for x in states)


def test_verify_catches_corrupted_output():
    # a modal label, a block assignment and a trace child, each corrupted
    # on its own in a fresh run
    caught = dict.fromkeys(["label", "block", "trace", "moved again"], 0)
    for label, c in random_instances():
        result = refine(c)
        for kind, corrupt, args in corruptions(result,
                                               build_certificates(c, result)):
            run_ = refine(c)
            certs = build_certificates(c, run_)
            corrupt(run_, certs, *args)
            with pytest.raises(cli.CliFailure) as failure:
                cli._verify(c, run_, certs)
            assert failure.value.code == cli.VERIFY_ERROR, (label, kind, args)
            caught[kind] += 1
    assert min(caught.values()) >= 50, caught
