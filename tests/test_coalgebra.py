"""Model parsing, printing, quotients, and composition unfolding."""

from fractions import Fraction

import pytest

from coalgcert.coalgebra import (
    ModelError, desugar_composite, parse_coalgebra, parse_term,
    predecessor_lists, pretty_model, quotient,
)
from coalgcert.oracle import naive_bisimilarity
from conftest import random_instances

F = Fraction


def test_parse_ts1(ts1):
    assert ts1.n == 4 and ts1.m == 6
    assert list(ts1.states) == ["x", "x1", "y", "z"]
    assert ts1.structure[3] == ("set", ())


def test_parse_mc1(mc1):
    assert mc1.n == 4 and mc1.m == 4
    x = mc1.states.index("x")
    assert dict(mc1.structure[x][1]) == {
        mc1.states.index("z2"): F(1, 2), mc1.states.index("z1"): F(1, 2)}


def test_degrees_predecessors(ts1):
    preds = predecessor_lists(ts1)
    z = ts1.states.index("z")
    assert sorted(preds[z]) == [ts1.states.index("x1"), ts1.states.index("y")]


@pytest.mark.parametrize("text", [
    "states: a\na -> {a}",                          # missing functor
    "functor: P\nstates: a, a\na -> {}",            # duplicate name
    "functor: P\nstates: a, b\na -> {}",            # missing row
    "functor: P\nstates: a\na -> {b}",              # unknown state
    "functor: P\nstates: a\na -> {a, a}",           # duplicate element
    "functor: R^(X)\nstates: a\na -> {a: 1, a: 2}",  # duplicate key
    "functor: N^(X)\nstates: a\na -> {a: -1}",      # negative nat weight
    "functor: Z^(X)\nstates: a\na -> {a: 1/2}",     # fractional int weight
    "functor: D(X)\nstates: a\na -> {a: 1/2}",      # distribution sum != 1
    "functor: Sig(f/2)\nstates: a\na -> f(a)",      # arity mismatch
    "functor: P\nstates: a\na -> {a}\nb -> {}",     # row for unknown state
    "functor: P + C{a}\nstates: s\ns -> inx({s})",  # injection not a number
    "functor: Sig(f/1)\nstates: a\na -> t",       # unknown operation
    "functor: R^(X)\nstates: a\na -> {a: x}",     # weight not a number
    # a repeated header line; a functor nested past the recursion limit
    "functor: P\nfunctor: R^(X)\nstates: a, b\na -> {b: 1}\nb -> {}",
    "functor: P\nstates: a, b\nstates: a\na -> {}\nb -> {}",
    "functor: " + "(" * 3000 + "P" + ")" * 3000 + "\nstates: a\na -> {}",
])
def test_parse_errors(text):
    with pytest.raises(ModelError):
        parse_coalgebra(text)


@pytest.mark.parametrize("text,line,what", [
    ("functor: P\nfunctor: R^(X)\nstates: a\na -> {}", 2, "functor:"),
    ("functor: P\nstates: a\na -> {}\nfunctor: P", 4, "functor:"),
    ("states: a\nfunctor: P\nstates: a\na -> {}", 3, "states:"),
])
def test_duplicate_header_lines(text, line, what):
    # the second header line is refused where it stands, not overridden
    with pytest.raises(ModelError, match="line %d: duplicate %s line"
                       % (line, what)):
        parse_coalgebra(text)


def test_zero_weights_dropped():
    c = parse_coalgebra("functor: Z^(X)\nstates: a, b\n"
                        "a -> {a: 0, b: 2}\nb -> {}")
    assert c.structure[0] == ("vec", ((1, F(2)),))


def test_pretty_model_round_trip():
    for label, c in random_instances(seeds=range(3), n=6):
        again = parse_coalgebra(pretty_model(c))
        assert again.structure == c.structure, label
        assert again.functor == c.functor


def test_parse_term_shapes():
    from coalgcert.functor import parse_functor
    f = parse_functor("P x R^(X)")
    t = parse_term("({a, b}, {a: 1/2})", f, {"a": 0, "b": 1})
    assert t == ("tuple", (("set", (0, 1)), ("vec", ((0, F(1, 2)),))))
    g = parse_functor("(C{go} + D(X))^{u,v}")
    t = parse_term("[u: in1(go), v: in2({a: 1})]", g, {"a": 0})
    assert t == ("fun", (("in", 0, ("atom", "go")),
                         ("in", 1, ("vec", ((0, F(1)),)))))


def test_quotient_mc1(mc1):
    blocks = naive_bisimilarity(mc1)
    q = quotient(mc1, blocks)
    assert q.n == 3
    # the quotient of the weighted chain merges z2 and y into one state
    names = set(q.states)
    assert "x" in names and "z1" in names
    assert naive_bisimilarity(q) == [[i] for i in range(q.n)] or \
        all(len(b) == 1 for b in naive_bisimilarity(q))


def test_quotient_merges_weights():
    c = parse_coalgebra("functor: R^(X)\nstates: a, b, c\n"
                        "a -> {b: 1, c: 1}\nb -> {}\nc -> {}")
    q = quotient(c, [[0], [1, 2]])
    assert q.n == 2
    assert q.structure[0] == ("vec", ((1, F(2)),))


def test_desugar_composite_counts():
    c = parse_coalgebra(
        "functor: P . (C{a,b} x X)\nstates: s, t\n"
        "s -> {(a, s), (b, t)}\nt -> {}\n")
    d = desugar_composite(c)
    # two layers, one aux state per inner occurrence in a powerset row
    assert d.coalgebra.n == 2 + 2
    assert d.original == 2
    assert d.sort_of[:2] == [0, 0] and set(d.sort_of[2:]) == {1}


def test_desugar_preserves_equivalence():
    # unfolding must not merge or split the original states' classes
    c = parse_coalgebra(
        "functor: P . (C{a,b} x X)\nstates: s, t, u\n"
        "s -> {(a, s), (b, t)}\nt -> {}\nu -> {(a, u), (b, t)}\n")
    d = desugar_composite(c)
    blocks = naive_bisimilarity(d.coalgebra)
    cls = {}
    for i, b in enumerate(blocks):
        for s in b:
            cls[s] = i
    # s and u are behaviourally equivalent, t differs
    assert cls[0] == cls[2] and cls[0] != cls[1]
