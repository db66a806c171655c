"""Every parser raises only its own error class, whatever the text."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.certdag import expand
from coalgcert.coalgebra import ModelError, parse_coalgebra
from coalgcert.functor import (
    INT, NAT, REAL, Composite, Constant, Coproduct, Distribution, Exponent,
    FunctorError, Identity, MonoidValued, Powerset, Product, Signature,
    parse_functor, pretty_functor,
)
from coalgcert.logic import EvalError, parse_formula
from coalgcert.translate import LOGICS, TranslateError, ds_label, parse_ds
from coalgcert.values import ValueError_, parse_value
from conftest import COMPOSITE_FUNCTOR, FUNCTORS

# pieces of the concrete syntax, so that random texts get past the first
# token often enough to reach every branch of the readers
PIECES = ["a", "b", "f", "g", "t", "x", "in", "in1", "in2", "0", "1", "2",
          "1/2", "-1", "0.5", ":", ",", "{", "}", "(", ")", "[", "]", "<",
          ">", "<>", "~", "&", "|", "true", "_{", " "]

texts = st.one_of(st.text(max_size=24),
                  st.lists(st.sampled_from(PIECES), max_size=14).map("".join))
functors = st.sampled_from(FUNCTORS + [COMPOSITE_FUNCTOR])

# the prefixes and leaves of each domain-specific logic, for the operations
# f/2, g/0, h/1 and the input labels a, b of conftest's functors
DS_PREFIXES = {"hm": ["<>", "[]"], "weighted": ["<0>", "<1>", "<1/2>", "<-1>"],
               "signature": ["<{}>", "<{1}>", "<{1,2}>"],
               "prob": ["<a>_{1/2}", "<b>_{1}", "<a>_{0}"]}
DS_LEAVES = {"hm": ["true"], "weighted": ["true"], "prob": ["true"],
             "signature": ["true", "f", "g", "h"]}


def ds_texts(logic):
    """Well-formed formula texts of a domain-specific logic."""
    return st.recursive(
        st.sampled_from(DS_LEAVES[logic]),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(DS_PREFIXES[logic] + ["~"]), sub)
            .map("".join),
            st.tuples(sub, st.sampled_from([" & ", " | "]), sub)
            .map(lambda t: "(%s%s%s)" % t)),
        max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(fx=functors, a=texts, b=texts)
def test_model_rows_raise_model_error(fx, a, b):
    # a malformed row, or a line that a text breaks off it, names its line
    try:
        parse_coalgebra("functor: %s\nstates: a, b\na -> %s\nb -> %s\n"
                        % (fx, a, b))
    except ModelError as e:
        assert re.match(r"line \d+: ", str(e)), str(e)


@pytest.mark.parametrize("text, message", [
    ("functor: P\nstates: a\na -> {b}\n", "line 3: unknown state 'b'"),
    ("functor: P\n# rows\nstates: a, b\n\nb -> {}\na -> {c}\n",
     "line 6: unknown state 'c'"),
    ("functor: P\nstates: a\na -> {}\nb -> {}\n",
     "line 4: row for undeclared state 'b'"),
    ("functor: (P x (P . X)) . P\nstates: a\na -> ({}, {})\n",
     "line 3: cannot read functor P . X"),
])
def test_row_errors_name_their_line(text, message):
    with pytest.raises(ModelError) as e:
        parse_coalgebra(text)
    assert str(e.value) == message


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=60))
def test_model_text_raises_model_error(text):
    try:
        parse_coalgebra(text)
    except ModelError:
        pass


@settings(max_examples=300, deadline=None)
@given(fx=functors, text=texts, k=st.integers(1, 3))
def test_value_literals_raise_value_error(fx, text, k):
    try:
        parse_value(text, parse_functor(fx), k)
    except ValueError_:
        pass


@settings(max_examples=300, deadline=None)
@given(fx=functors, text=texts)
def test_formulas_raise_eval_error(fx, text):
    try:
        parse_formula(text, parse_functor(fx))
    except EvalError:
        pass


@settings(max_examples=300, deadline=None)
@given(logic=st.sampled_from(LOGICS), text=texts)
def test_ds_formulas_raise_translate_error(logic, text):
    try:
        parse_ds(text, logic)
    except TranslateError:
        pass


@settings(max_examples=200, deadline=None)
@given(logic=st.sampled_from(LOGICS), data=st.data())
def test_ds_formulas_print_as_parsed(logic, data):
    # printing drops only double negations, so it is a fixed point of
    # parsing then printing
    text = expand(*parse_ds(data.draw(ds_texts(logic)), logic), ds_label)
    assert expand(*parse_ds(text, logic), ds_label) == text


# ------------------------------------------- functor grammar reference

# The functor grammar as a regex tokenizer and a parser over its tokens,
# kept as the reference of the accepted language: parse_functor reads the
# same grammar through Scanner.
_TOKEN_RE = re.compile(
    r"\s*(R\^\(X\)|Z\^\(X\)|N\^\(X\)|B\^\(X\)|D\(X\)|Sig\b|[A-Za-z_][A-Za-z_0-9]*"
    r"|\d+|\^\{|[(){},+./]|\^)"
)
_MONOID_TOKENS = {"R^(X)": REAL, "Z^(X)": INT, "N^(X)": NAT}


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise FunctorError("bad character %r at position %d"
                               % (text[pos], pos))
        out.append(m.group(1))
        pos = m.end()
    out.append(None)
    return out


class _TokenParser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok):
        if self.next() != tok:
            raise FunctorError("expected %r" % tok)

    def parse(self):
        f = self.expr()
        if self.peek() is not None:
            raise FunctorError("trailing input")
        return f

    def expr(self):
        f = self.coprod()
        while self.peek() == ".":
            self.next()
            f = Composite(f, self.coprod())
        return f

    def coprod(self):
        parts = [self.prod()]
        while self.peek() == "+":
            self.next()
            parts.append(self.prod())
        return parts[0] if len(parts) == 1 else Coproduct(tuple(parts))

    def prod(self):
        parts = [self.postfix()]
        while self.peek() == "x":
            self.next()
            parts.append(self.postfix())
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def postfix(self):
        f = self.atom()
        while self.peek() == "^{":
            self.next()
            f = Exponent(f, self.ident_list("}"))
        return f

    def ident_list(self, closer):
        names = []
        while True:
            tok = self.next()
            if tok is None or not re.fullmatch(
                    r"[A-Za-z_][A-Za-z_0-9]*|\d+", tok):
                raise FunctorError("expected name")
            names.append(tok)
            tok = self.next()
            if tok == closer:
                break
            if tok != ",":
                raise FunctorError("expected ','")
        if len(set(names)) != len(names):
            raise FunctorError("duplicate name")
        return tuple(names)

    def atom(self):
        tok = self.next()
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok == "X":
            return Identity()
        if tok == "P" or tok == "B^(X)":
            return Powerset()
        if tok == "D(X)":
            return Distribution()
        if tok in _MONOID_TOKENS:
            return MonoidValued(_MONOID_TOKENS[tok])
        if tok == "C":
            self.expect("{")
            return Constant(self.ident_list("}"))
        if tok == "Sig":
            self.expect("(")
            ops = []
            while True:
                name = self.next()
                if name is None or not re.fullmatch(
                        r"[A-Za-z_][A-Za-z_0-9]*", name):
                    raise FunctorError("expected operation name")
                self.expect("/")
                ar = self.next()
                if ar is None or not ar.isdigit():
                    raise FunctorError("expected arity")
                ops.append((name, int(ar)))
                tok = self.next()
                if tok == ")":
                    break
                if tok != ",":
                    raise FunctorError("expected ','")
            if len({n for n, _ in ops}) != len(ops):
                raise FunctorError("duplicate operation name")
            return Signature(tuple(ops))
        raise FunctorError("unexpected token %r" % (tok,))


def token_parse_functor(text):
    return _TokenParser(text).parse()


# the functor alphabet, with pieces that sit on the edges of its names:
# a non-ASCII letter, digits glued to letters and '_', names that start
# like keywords, and '^' without its brace
FUNCTOR_PIECES = [
    "X", "P", "x", " x ", "+", ".", "(", ")", "{", "}", ",", "/", "^{",
    "^", "R^(X)", "Z^(X)", "N^(X)", "B^(X)", "D(X)", "C", "C{", "Sig",
    "Sig(", "Sigma", "a", "b", "f", "_", "0", "1", "2", "12", "1_2", "1a",
    "a1", "é", "٣", "R", "D", "(X)", " ", "\t",
]
functor_texts = st.one_of(
    st.lists(st.sampled_from(FUNCTOR_PIECES), max_size=16).map("".join),
    st.text(alphabet="XPxRZNBDCSig^(){},+./_01a é", max_size=20),
    # a valid functor with one piece inserted, often still valid
    st.tuples(functors, st.integers(0, 24), st.sampled_from(FUNCTOR_PIECES))
    .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


@settings(max_examples=1500, deadline=None)
@given(text=functor_texts)
def test_functor_grammar_matches_token_reference(text):
    try:
        want = token_parse_functor(text)
    except FunctorError:
        want = FunctorError
    try:
        got = parse_functor(text)  # only FunctorError may escape
    except FunctorError:
        got = FunctorError
    assert got == want, text


@pytest.mark.parametrize("text", [
    "C{é}", "C{1_21}", "C{1a}", "Sig(f/2a)", "Sig(1/2)", "D(X)xP", "X xP",
    "Sigé(f/1)", "P ^{a}", "P^ {a}", "C{}", "Sig()", "C{a,}", "",
    "C{Sig}", "Sig(Sig/1, x/0)", "C{٣}", "P^{a}^{b}",
])
def test_functor_grammar_edge_cases(text):
    try:
        want = token_parse_functor(text)
    except FunctorError:
        with pytest.raises(FunctorError):
            parse_functor(text)
    else:
        assert parse_functor(text) == want


NAMES = ["a", "b", "x", "X", "P", "C", "Sig", "_1", "go"]
LABELS = NAMES + ["0", "1", "12"]
leaf_functors = st.one_of(
    st.sampled_from([Identity(), Powerset(), Distribution()]
                    + [MonoidValued(k) for k in (REAL, INT, NAT)]),
    st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True)
    .map(lambda xs: Constant(tuple(xs))),
    st.lists(st.tuples(st.sampled_from(NAMES), st.integers(0, 3)),
             min_size=1, max_size=3, unique_by=lambda op: op[0])
    .map(lambda ops: Signature(tuple(ops))))
functor_asts = st.recursive(leaf_functors, lambda sub: st.one_of(
    st.lists(sub, min_size=2, max_size=3).map(
        lambda ps: Product(tuple(ps))),
    st.lists(sub, min_size=2, max_size=3).map(
        lambda ps: Coproduct(tuple(ps))),
    st.tuples(sub, st.lists(st.sampled_from(LABELS), min_size=1,
                            max_size=3, unique=True))
    .map(lambda t: Exponent(t[0], tuple(t[1]))),
    st.tuples(sub, sub).map(lambda t: Composite(*t))), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(f=functor_asts)
def test_functor_print_parse_round_trip(f):
    assert parse_functor(pretty_functor(f)) == f
