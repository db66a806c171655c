"""Functorial action on colourings, value printing/parsing, rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.coalgebra import parse_coalgebra
from coalgcert.functor import parse_functor
from coalgcert.oracle import GeneratorSpec, generate, layered_worstcase
from coalgcert.refiner import refine
from coalgcert.values import (
    ValueError_, fmap, parse_rational, parse_value, pretty_value,
    validate_value,
)
from reference import trace_events

F = Fraction


def test_f_apply_powerset():
    col = {0: 0, 1: 1, 2: 1}
    assert fmap(("set", (0, 1, 2)), col) == ("set", (0, 1))
    assert fmap(("set", ()), col) == ("set", ())


def test_f_apply_weights():
    col = {0: 0, 1: 1, 2: 1}
    v = fmap(("vec", ((0, 1), (1, 2), (2, -2)), 2), col)
    assert v == ("vec", ((0, 1),), 2)  # colour-1 weights cancel


def test_f_apply_product_coproduct_exponent():
    col = {0: 0, 1: 1}
    t = ("fun", (("in", 0, ("atom", "a")), ("in", 1, ("set", (0, 1)))))
    v = fmap(t, col)
    assert v == ("fun", (("in", 0, ("atom", "a")),
                         ("in", 1, ("set", (0, 1)))))


def test_f_apply_signature():
    col = {0: 1, 1: 0}
    assert fmap(("op", "f", (0, 0)), col) == ("op", "f", (1, 1))
    assert fmap(("op", "g", ()), col) == ("op", "g", ())


def test_relabel_value_merges():
    v = ("vec", ((0, 1), (1, 2), (2, 3)), 1)
    assert fmap(v, [0, 1, 1]) == ("vec", ((0, 1), (1, 5)), 1)
    assert fmap(("set", (0, 2)), [0, 1, 0]) == ("set", (0,))


def test_fmap_keeps_sparse_weights_over_a_huge_palette():
    # one entry per colour present, whatever the palette size
    g = list(range(10**6))
    assert fmap(("vec", ((0, 1), (5, 2)), 3), g) == ("vec", ((0, 1), (5, 2)),
                                                        3)


def _canonical(v):
    """Whether v is a weight layer ('vec', ((key, a), ...), d) with nonzero
    int weights a sorted by distinct keys, d > 0 and gcd(d, *a) == 1,
    checked without functor.vec."""
    if not (type(v) is tuple and len(v) == 3 and v[0] == "vec"):
        return False
    _tag, pairs, d = v
    keys, ints = [k for k, _a in pairs], [a for _k, a in pairs]
    return (type(d) is int and d > 0 and keys == sorted(set(keys))
            and all(type(a) is int and a for a in ints)
            and math.gcd(d, *ints) == 1)


def _by_fractions(pairs, g=None):
    """{g[key]: sum of its Fractions} over the (key, Fraction) pairs, zero
    sums dropped; g None keeps the keys."""
    acc = {}
    for k, w in pairs:
        c = k if g is None else g[k]
        acc[c] = acc.get(c, Fraction(0)) + w
    return {c: w for c, w in acc.items() if w}


def _fractions(v):
    return {k: Fraction(a, v[2]) for k, a in v[1]}


N_STATES = 6
_weights = st.tuples(st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(fx=st.sampled_from(["R^(X)", "Z^(X)"]),
       rows=st.lists(st.dictionaries(st.integers(0, N_STATES - 1), _weights,
                                     max_size=N_STATES),
                     min_size=N_STATES, max_size=N_STATES),
       cancel=st.booleans(),
       colours=st.lists(st.integers(0, 2), min_size=N_STATES,
                        max_size=N_STATES))
def test_weight_layers_match_fraction_arithmetic(fx, rows, cancel, colours):
    """The model reader, fmap, value literals and the refiner's keys build
    weight layers that are canonical and agree with Fraction arithmetic, on
    mixed denominators, negative Z weights, cancelling sums and empty
    layers."""
    if fx == "Z^(X)":
        rows = [{y: (p, 1) for y, (p, _q) in row.items()} for row in rows]
    if cancel:  # state y + 3 weighs minus state y: sums that cancel
        rows = [{**row, **{y + 3: (-p, q) for y, (p, q) in row.items()
                           if y < 3}} for row in rows]
    names = ["s%d" % y for y in range(N_STATES)]
    c = parse_coalgebra("functor: %s\nstates: %s\n%s\n" % (
        fx, ", ".join(names), "\n".join(
            "%s -> {%s}" % (x, ", ".join("%s: %d/%d" % (names[y], p, q)
                                         for y, (p, q) in row.items()))
            for x, row in zip(names, rows))))
    f = c.functor
    for row, t in zip(rows, c.structure):
        exact = [(y, Fraction(p, q)) for y, (p, q) in row.items()]
        assert _canonical(t) and _fractions(t) == _by_fractions(exact)
        for g in (colours, [0] * N_STATES):
            v = fmap(t, g)
            assert _canonical(v), (t, g)
            assert _fractions(v) == _by_fractions(exact, g), (t, g)
            assert parse_value(pretty_value(f, v, 3), f, 3) == v
    for mode in ("generic", "cancellative"):
        init, splits = trace_events(refine(c, mode=mode).trace)
        for _b, v, states in init:
            assert _canonical(v)
            assert all(_fractions(v) == _by_fractions(_fractions(
                c.structure[x]).items(), [0] * N_STATES) for x in states)
        assert all(_canonical(v) for _S, _B, refinements in splits
                   for _T, children in refinements for _b, v, _s in children)


def test_generated_weight_layers_are_canonical():
    for fx in ("R^(X)", "Z^(X)", "N^(X)", "D(X)"):
        for seed in range(5):
            c = generate(GeneratorSpec(fx, 8, seed=seed, density=0.5))
            assert all(map(_canonical, c.structure)), (fx, seed)
    assert all(map(_canonical, layered_worstcase(3).structure))


FUNCTORS_FOR_VALUES = ["P", "R^(X)", "D(X) + C{done}", "Sig(f/2, g/0, h/1)",
                       "P x R^(X)", "P^{a,b}", "B^(X)"]


@settings(max_examples=60, deadline=None)
@given(fx=st.sampled_from(FUNCTORS_FOR_VALUES),
       seed=st.integers(0, 500), n=st.integers(1, 8), k=st.integers(1, 4),
       data=st.data())
def test_naturality(fx, seed, n, k, data):
    """Relabelling after colouring equals colouring with the composite map:
    the action respects composition of palette maps."""
    c = generate(GeneratorSpec(functor=fx, n=n, seed=seed, density=0.4))
    col = {s: data.draw(st.integers(0, k - 1)) for s in range(n)}
    mapping = [data.draw(st.integers(0, 1)) for _ in range(k)]
    for t in c.structure:
        v = fmap(t, col)
        composed = {s: mapping[col[s]] for s in range(n)}
        assert fmap(v, mapping) == fmap(t, composed)
        assert validate_value(c.functor, v, k)


@settings(max_examples=60, deadline=None)
@given(fx=st.sampled_from(FUNCTORS_FOR_VALUES),
       seed=st.integers(0, 500), n=st.integers(1, 8), k=st.integers(1, 4),
       data=st.data())
def test_value_print_parse_round_trip(fx, seed, n, k, data):
    c = generate(GeneratorSpec(functor=fx, n=n, seed=seed, density=0.4))
    col = {s: data.draw(st.integers(0, k - 1)) for s in range(n)}
    for t in c.structure:
        v = fmap(t, col)
        assert parse_value(pretty_value(c.functor, v, k), c.functor, k) == v


@pytest.mark.parametrize("text,expected", [
    ("1/2", F(1, 2)), ("3", F(3)), ("-2/5", F(-2, 5)),
    ("0.25", F(1, 4)), ("-1.5", F(-3, 2)), ("0", F(0)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("fx, text", [
    ("P", "{x}"),                # colour not a number
    ("P + C{a}", "inx({1})"),    # injection not a number
])
def test_parse_value_rejects_bad_numbers(fx, text):
    with pytest.raises(ValueError_):
        parse_value(text, parse_functor(fx), 2)


@pytest.mark.parametrize("fx, text", [
    ("P^{a,b}", "[a: {0}, a: {1}, b: {}]"),  # repeated label
    ("P", "{0,0}"),                          # repeated colour
    ("Sig(f/1)", "t"),                       # unknown operation
])
def test_parse_value_rejects_what_rows_reject(fx, text):
    with pytest.raises(ValueError_):
        parse_value(text, parse_functor(fx), 2)


def test_parse_rational_rejects():
    for text in ("", "1/0", "x", "1.2.3"):
        with pytest.raises(ValueError):
            parse_rational(text)
