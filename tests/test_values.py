"""Functorial action on colourings, value printing/parsing, rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.functor import parse_functor
from coalgcert.oracle import GeneratorSpec, generate
from coalgcert.values import (
    ValueError_, fmap, parse_rational, parse_value, pretty_value,
    validate_value,
)

F = Fraction


def test_f_apply_powerset():
    col = {0: 0, 1: 1, 2: 1}
    assert fmap(("set", (0, 1, 2)), col) == ("set", (0, 1))
    assert fmap(("set", ()), col) == ("set", ())


def test_f_apply_weights():
    col = {0: 0, 1: 1, 2: 1}
    v = fmap(("vec", ((0, F(1, 2)), (1, F(1)), (2, F(-1)))), col)
    assert v == ("vec", ((0, F(1, 2)),))  # colour-1 weights cancel


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
    v = ("vec", ((0, F(1)), (1, F(2)), (2, F(3))))
    assert fmap(v, [0, 1, 1]) == ("vec", ((0, F(1)), (1, F(5))))
    assert fmap(("set", (0, 2)), [0, 1, 0]) == ("set", (0,))


def test_fmap_keeps_sparse_weights_over_a_huge_palette():
    # one entry per colour present, whatever the palette size
    g = list(range(10**6))
    assert fmap(("vec", ((0, 1), (5, 2))), g) == ("vec", ((0, 1), (5, 2)))


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
