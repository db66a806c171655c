"""Model parsing, printing, quotients, and composition unfolding."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.coalgebra import (
    ModelError, parse_coalgebra, pretty_model, quotient, walk_row,
)
from coalgcert.functor import parse_functor
from coalgcert.oracle import (
    GeneratorSpec, generate, layered_worstcase, naive_bisimilarity,
    partition_key,
)
from coalgcert.refiner import refine
from coalgcert.values import fmap
from conftest import CANCELLATIVE_FUNCTORS, FUNCTORS, random_instances
from reference import predecessors
from test_acceptance import composite_instance


def test_parse_ts1(ts1):
    assert ts1.n == 4 and ts1.m == 6
    assert list(ts1.states) == ["x", "x1", "y", "z"]
    assert ts1.structure[3] == ("set", ())


def test_parse_mc1(mc1):
    assert mc1.n == 4 and mc1.m == 4
    x = mc1.states.index("x")
    z2, z1 = mc1.states.index("z2"), mc1.states.index("z1")
    assert mc1.structure[x] == ("vec", tuple(sorted([(z2, 1), (z1, 1)])), 2)


class _Lookups:
    """A colouring of every state with 0 that counts its lookups: fmap
    looks up each identity and collection position once."""

    count = 0

    def __getitem__(self, _y):
        self.count += 1
        return 0


def test_degrees_predecessors(ts1):
    z = ts1.states.index("z")
    assert predecessors(ts1, z) == [ts1.states.index(s) for s in ("x1", "y")]
    twice = parse_coalgebra("functor: Sig(f/2)\nstates: x\nx -> f(x, x)")
    assert twice.m == 2 and predecessors(twice, 0) == [0, 0]
    # against a reference that does not read the edge table: x has an edge
    # to y iff colouring y apart changes x's row, and m counts positions
    cases = [("ts1", ts1)] + list(random_instances())
    cases += random_instances(CANCELLATIVE_FUNCTORS)
    cases += [("composite seed=%d" % seed, composite_instance(seed))
              for seed in range(8)]
    cases.append(("layered k=4", layered_worstcase(4)))
    for label, c in cases:
        zero = [0] * c.n
        for y in range(c.n):
            chi = [int(x == y) for x in range(c.n)]
            edge = [x for x, t in enumerate(c.structure)
                    if fmap(t, chi) != fmap(t, zero)]
            preds = predecessors(c, y)
            assert preds == sorted(preds) and sorted(set(preds)) == edge, (
                label, y)
        lookups = _Lookups()
        for t in c.structure:
            fmap(t, lookups)
        assert c.m == lookups.count, label


class _Occurrences(list):
    """A colouring of every state with 0 that records the states it is
    looked up at: fmap looks up each identity position and each entry of
    a collection once, so a row's lookups are its state occurrences."""

    def __getitem__(self, y):
        self.append(y)
        return 0


@settings(max_examples=100, deadline=None)
@given(fx=st.sampled_from(FUNCTORS), n=st.integers(0, 24),
       seed=st.integers(0, 10_000), density=st.sampled_from([0.1, 0.3, 0.8]))
def test_predecessors_are_the_occurrences(fx, n, seed, density):
    # the in-edges into y, which check_certificates reads to find the
    # states a split touches, are the occurrences of y in the rows, with
    # multiplicity, their sources ascending
    c = generate(GeneratorSpec(fx, n, seed=seed, density=density))
    want = [[] for _ in range(c.n)]
    for x, t in enumerate(c.structure):
        seen = _Occurrences()
        fmap(t, seen)
        for y in seen:
            want[y].append(x)
    assert [list(predecessors(c, y)) for y in range(c.n)] == want


def _walk_instance(which, n, seed, density):
    if which == "composite":
        return composite_instance(seed, n)
    if which == "layered":
        return layered_worstcase(seed % 4)
    return generate(GeneratorSpec(which, n, seed=seed, density=density))


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from(FUNCTORS + ["composite", "layered"]),
       n=st.integers(1, 16), seed=st.integers(0, 10_000),
       density=st.sampled_from([0.1, 0.3, 0.8]), data=st.data())
def test_walk_row_is_the_edge_tables_walk(which, n, seed, density, data):
    # walk_row with fmap at the leaves is fmap, and per row it calls leaf
    # once per edge-table leaf and leaf or colour once per position
    c = _walk_instance(which, n, seed, density)
    k = data.draw(st.integers(1, 3))
    g = data.draw(st.lists(st.integers(0, k - 1), min_size=c.n,
                           max_size=c.n))
    e = c.edges
    for x, t in enumerate(c.structure):
        calls = {"leaf": 0, "colour": 0}

        def leaf(node):
            calls["leaf"] += 1
            return fmap(node, g)

        def colour(y):
            calls["colour"] += 1
            return g[y]
        assert walk_row(t, leaf, colour) == fmap(t, g), (which, x)
        assert calls["leaf"] == e.leaf_start[x + 1] - e.leaf_start[x]
        assert calls["leaf"] + calls["colour"] == e.positions[x]


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
    assert c.structure[0] == ("vec", ((1, 2),), 1)


def test_pretty_model_round_trip():
    for label, c in random_instances(seeds=range(3), n=6):
        again = parse_coalgebra(pretty_model(c))
        assert again.structure == c.structure, label
        assert again.functor == c.functor


def test_parse_term_shapes():
    c = parse_coalgebra("functor: P x R^(X)\nstates: a, b\n"
                        "a -> ({a, b}, {a: 1/2})\nb -> ({}, {})")
    assert c.structure[0] == ("tuple", (("set", (0, 1)),
                                        ("vec", ((0, 1),), 2)))
    c = parse_coalgebra("functor: (C{go} + D(X))^{u,v}\nstates: a\n"
                        "a -> [u: in1(go), v: in2({a: 1})]")
    assert c.structure[0] == ("fun", (("in", 0, ("atom", "go")),
                                      ("in", 1, ("vec", ((0, 1),), 1))))


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
    assert q.structure[0] == ("vec", ((1, 2),), 1)


def test_composite_unfolds_while_reading():
    c = parse_coalgebra(
        "functor: P . (C{a,b} x X)\nstates: s, t\n"
        "s -> {(a, s), (b, t)}\nt -> {}\n")
    # two layers, one aux state per inner occurrence in a powerset row
    assert c.n == 2 + 2 and c.declared == 2
    assert c.functor == parse_functor("P + C{a,b} x X")
    assert [t[1] for t in c.structure] == [0, 0, 1, 1]  # injection = layer
    assert c.states == ("s", "t", "aux0", "aux1")
    assert parse_coalgebra("functor: P\nstates: s\ns -> {}").declared is None


def test_unfolding_preserves_equivalence():
    # unfolding must not merge or split the declared states' classes
    c = parse_coalgebra(
        "functor: P . (C{a,b} x X)\nstates: s, t, u\n"
        "s -> {(a, s), (b, t)}\nt -> {}\nu -> {(a, u), (b, t)}\n")
    blocks = naive_bisimilarity(c)
    cls = {}
    for i, b in enumerate(blocks):
        for s in b:
            cls[s] = i
    # s and u are behaviourally equivalent, t differs
    assert cls[0] == cls[2] and cls[0] != cls[1]


def _lts_rows(seed, n):
    """n states of a random labelled system: (label, target) pairs."""
    rng = random.Random(seed)
    return [sorted({(rng.choice("ab"), rng.randrange(n))
                    for _ in range(rng.randrange(0, 4))}) for _ in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_composite_matches_exponent_encoding(seed):
    # P . (C{a,b} x X) and P^{a,b} carry the same labelled system: the
    # refiner's partition of the unfolded system, cut to the declared
    # states, is the oracle's partition of the exponent system
    n = 12
    rows = _lts_rows(seed, n)
    head = "states: %s\n" % ", ".join("s%d" % i for i in range(n))
    comp = "functor: P . (C{a,b} x X)\n" + head + "".join(
        "s%d -> {%s}\n" % (i, ", ".join("(%s, s%d)" % p for p in row))
        for i, row in enumerate(rows))
    expo = "functor: P^{a,b}\n" + head + "".join(
        "s%d -> [a: {%s}, b: {%s}]\n" % (i, *(
            ", ".join("s%d" % y for lab, y in row if lab == want)
            for want in "ab"))
        for i, row in enumerate(rows))
    c, e = parse_coalgebra(comp), parse_coalgebra(expo)
    declared = [[x for x in b if x < n] for b in refine(c).blocks]
    assert partition_key([b for b in declared if b]) == \
        partition_key(naive_bisimilarity(e))


def test_zero_weight_outer_entry_keeps_no_rows():
    # a dropped entry's inner terms, at every depth below it, get no state
    c = parse_coalgebra(
        "functor: R^(X) . P . (C{a,b} x X)\nstates: s, t\n"
        "s -> {{(a, s), (b, t)}: 0, {(a, t)}: 2}\n"
        "t -> {{(b, s)}: 1, {}: 0, {(a, s), (b, s)}: 0}\n")
    assert c.states == ("s", "t", "aux0", "aux1", "aux2", "aux3")
    assert c.structure == (
        ("in", 0, ("vec", ((2, 2),), 1)),
        ("in", 0, ("vec", ((3, 1),), 1)),
        ("in", 1, ("set", (4,))),
        ("in", 1, ("set", (5,))),
        ("in", 2, ("tuple", (("atom", "a"), 1))),
        ("in", 2, ("tuple", (("atom", "b"), 0))),
    )


def test_three_layer_aux_numbering():
    # aux ids run layer by layer, in reading order within a layer; a name
    # that is taken gets a '_' prefix
    c = parse_coalgebra(
        "functor: P . P . (C{a} x X)\nstates: aux1, t\n"
        "aux1 -> {{(a, t)}, {(a, aux1), (a, t)}}\n"
        "t -> {{}}\n")
    assert c.states == ("aux1", "t", "aux0", "_aux1", "aux2",
                        "aux3", "aux4", "aux5")
    assert c.declared == 2
    assert c.structure == (
        ("in", 0, ("set", (2, 3))),
        ("in", 0, ("set", (4,))),
        ("in", 1, ("set", (5,))),
        ("in", 1, ("set", (6, 7))),
        ("in", 1, ("set", ())),
        ("in", 2, ("tuple", (("atom", "a"), 1))),
        ("in", 2, ("tuple", (("atom", "a"), 0))),
        ("in", 2, ("tuple", (("atom", "a"), 1))),
    )
