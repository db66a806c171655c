"""Functor expression parsing, printing, and property classification."""

import pytest

from coalgcert.functor import (
    Composite, Constant, Coproduct, Distribution, Exponent, FunctorError,
    Identity, MonoidValued, Powerset, Product, REAL, Signature,
    composite_spine, is_cancellative, is_zippable, parse_functor,
    pretty_functor, subfunctors,
)

ROUND_TRIP = [
    "X",
    "P",
    "R^(X)",
    "Z^(X)",
    "N^(X)",
    "B^(X)",
    "D(X)",
    "C{a,b}",
    "Sig(f/2, g/0)",
    "P x R^(X)",
    "C{a,b} + P",
    "P^{a,b}",
    "(D(X) + C{done})^{a,b}",
    "P . (C{a,b} x X)",
    "P x R^(X) + C{s} x X",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_pretty_parse_round_trip(text):
    f = parse_functor(text)
    assert parse_functor(pretty_functor(f)) == f


def test_parse_structure():
    f = parse_functor("P x R^(X) + C{a}")
    # + binds looser than x
    assert isinstance(f, Coproduct)
    assert isinstance(f.parts[0], Product)
    assert f.parts[1] == Constant(("a",))
    g = parse_functor("P . C{a,b} x X")
    # . binds loosest
    assert isinstance(g, Composite)
    assert isinstance(g.inner, Product)


def test_parse_exponent_tightest():
    f = parse_functor("P x D(X)^{a,b}")
    assert isinstance(f, Product)
    assert f.parts[1] == Exponent(Distribution(), ("a", "b"))


@pytest.mark.parametrize("text", [
    "", "Q", "P x", "R^(Y)", "Sig(f)", "Sig(f/x)", "C{}", "P^{}",
    "( P", "P )", "X +", "D()",
])
def test_parse_errors(text):
    with pytest.raises(FunctorError):
        parse_functor(text)


def test_zippable():
    ok, _ = is_zippable(parse_functor("P x R^(X) + Sig(f/2)"))
    assert ok
    # any composition (top-level or nested) must be unfolded first
    for text in ("P x (P . X)", "P . (C{a,b} x X)"):
        ok, reason = is_zippable(parse_functor(text))
        assert not ok and "compos" in reason.lower()


@pytest.mark.parametrize("text,expected", [
    ("P", False),
    ("B^(X)", False),
    ("R^(X)", True),
    ("Z^(X)", True),
    ("N^(X)", True),
    ("D(X)", True),
    ("Sig(f/2, g/0)", True),
    ("R^(X) x D(X)", True),
    ("P x R^(X)", False),
    ("(C{a} + N^(X))^{u,v}", True),
    ("C{a} + P", False),
])
def test_cancellative(text, expected):
    assert is_cancellative(parse_functor(text)) == expected


def test_cancellative_needs_unfolding():
    with pytest.raises(FunctorError):
        is_cancellative(parse_functor("P . X"))


def test_composite_spine():
    f = parse_functor("P . R^(X) . X")
    assert composite_spine(f) == [Powerset(), MonoidValued(REAL), Identity()]
    assert composite_spine(Powerset()) == [Powerset()]
    # left-nested composition flattens the same way
    g = parse_functor("(P . X) . R^(X)")
    assert composite_spine(g) == [Powerset(), Identity(), MonoidValued(REAL)]


def test_subfunctors():
    f = parse_functor("P x C{a}")
    subs = list(subfunctors(f))
    assert Powerset() in subs and Constant(("a",)) in subs and f in subs
    # preorder over x, +, ^{} and .
    g = parse_functor("(P x C{a} + X)^{u} . D(X)")
    prod = Product((Powerset(), Constant(("a",))))
    coprod = Coproduct((prod, Identity()))
    exp = Exponent(coprod, ("u",))
    assert list(subfunctors(g)) == [
        g, exp, coprod, prod, Powerset(), Constant(("a",)), Identity(),
        Distribution()]
