"""Every parser raises only its own error class, whatever the text."""

import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference
from coalgcert import coalgebra, values
from coalgcert.certdag import expand
from coalgcert.coalgebra import ModelError, parse_coalgebra, pretty_model
from coalgcert.functor import (
    INT, NAT, REAL, Composite, Constant, Coproduct, Distribution, Exponent,
    FunctorError, Identity, MonoidValued, Powerset, Product, Signature,
    parse_functor, pretty_functor,
)
from coalgcert.logic import EvalError, parse_formula
from coalgcert.translate import LOGICS, TranslateError, ds_label, parse_ds
from coalgcert.oracle import GeneratorSpec, generate
from coalgcert.values import (
    ShapeWriter, ValueError_, fmap, parse_rational, parse_value, pretty_value,
)
from conftest import COMPOSITE_FUNCTOR, FUNCTORS, random_instances

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
@given(logic=st.sampled_from(tuple(LOGICS)), text=texts)
def test_ds_formulas_raise_translate_error(logic, text):
    try:
        parse_ds(text, logic)
    except TranslateError:
        pass


@pytest.mark.parametrize("logic, text, message", [
    (None, "<{0}", "expected '>' at '{0}'"),  # the generic syntax over P
    ("hm", "<{0}", "expected '>' at '{0}'"),
    ("prob", "<a>_{1/2", "expected '}' at '1/2'"),
    ("weighted", " < 1/2", "expected '>' at ' 1/2'"),
])
def test_unclosed_labels_name_their_bracket(logic, text, message):
    # a label runs up to its closing bracket; a missing one is the
    # parser's own error, not str.index's "substring not found"
    with pytest.raises((EvalError, TranslateError)) as info:
        if logic is None:
            parse_formula(text, parse_functor("P"))
        else:
            parse_ds(text, logic)
    assert str(info.value) == "bad formula %r: %s" % (text, message)


@pytest.mark.parametrize("text, message", [
    ("<{1>g", "expected ',' at '>g'"),
    ("<{1}}>g", "expected '>' at '}>g'"),
    ("<{{1}>g", "expected a name at '{1}>g'"),
    ("<{1,,2}>g", "expected a name at ',2}>g'"),
    ("<{1 2}>g", "expected ',' at '2}>g'"),
    ("<{-1}>g", "expected a name at '-1}>g'"),
    ("<{0}>g", "positions count from 1 and appear once, not [0]"),
    ("<{1, 1}>g", "positions count from 1 and appear once, not [1, 1]"),
])
def test_signature_position_sets_are_read_item_by_item(text, message):
    # a position set is a bracketed list of positive indices, each once;
    # stray brackets, empty items and repeats are the parser's own error
    with pytest.raises(TranslateError) as info:
        parse_ds(text, "signature")
    assert str(info.value) == "bad formula %r: %s" % (text, message)


@pytest.mark.parametrize("text, positions", [
    ("<{}>g", ()), ("<{1,2}>g", (1, 2)), ("< { 2 , 1 } >g", (1, 2))])
def test_signature_position_sets_read_back(text, positions):
    dag, (nid, _) = parse_ds(text, "signature")
    node = dag.nodes[nid]
    assert node[1] == ("args", frozenset(positions))
    assert ds_label(node) == "<{%s}>" % ",".join(map(str, positions))


@settings(max_examples=200, deadline=None)
@given(logic=st.sampled_from(tuple(LOGICS)), data=st.data())
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


# ------------------------------------------ compiled readers vs reference

ROW_PIECES = PIECES + ["1/0", "1_0", "٣", "-0", "/", ".", "e3", "2/4"]
ROW_FUNCTORS = FUNCTORS + [COMPOSITE_FUNCTOR, "R^(X) . P", "D(X) . X x P",
                           "(N^(X) + C{stop}) . Z^(X)"]


def _reference_parse(text):
    with mock.patch.object(coalgebra, "_TermReader", reference.TermReader):
        return parse_coalgebra(text)


def _outcome(parse, text, error=ModelError):
    """repr of what parse(text) returns, which shows the weights' types,
    or the message of the error it raises."""
    try:
        return repr(parse(text))
    except error as e:
        return "error: %s" % e


def _writer(slot):
    def sparse(entries):
        return "{%s}" % ", ".join("%s: %s" % (slot(x), w) for x, w in entries)
    return ShapeWriter(slot, sparse, ", ").write


def _nested_model(outer, inner, seed):
    """A model of outer . inner: the row of x is outer's random row of x,
    with inner's random row of y written at each identity position y."""
    co, ci = [generate(GeneratorSpec(functor=fx, n=4, seed=seed + i,
                                     density=0.5))
              for i, fx in enumerate((outer, inner))]
    inner_row = lambda y: _writer(co.states.__getitem__)(ci.functor,
                                                           ci.structure[y])
    rows = ["%s -> %s" % (x, _writer(inner_row)(co.functor, t))
            for x, t in zip(co.states, co.structure)]
    return "functor: (%s) . (%s)\nstates: %s\n%s\n" % (
        outer, inner, ", ".join(co.states), "\n".join(rows))


_NESTED = [_nested_model(o, i, s) for s, (o, i) in enumerate([
    ("P", "C{a,b} x X"), ("R^(X)", "P"), ("D(X) + C{done}", "P x R^(X)"),
    ("X x C{u,v}", "(D(X) + C{stop})^{a,b}"), ("Z^(X)", "Sig(f/2, g/0, h/1)"),
    ("N^(X)", "D(X) + C{done}")])]
VALID_MODELS = ([pretty_model(c) for _label, c in random_instances(
    seeds=range(2), n=4, density=0.5)] + _NESTED
    + [pretty_model(parse_coalgebra(text)) for text in _NESTED])


def _insert(text, at, piece, start=0):
    """text with piece inserted at a position from start on."""
    at = start + at % (len(text) - start + 1)
    return text[:at] + piece + text[at:]


def _mutated(args):
    """A valid model with one piece inserted into its rows."""
    text, at, piece = args
    return _insert(text, at, piece, text.index("\n", text.index("states:")))


model_texts = st.one_of(
    st.tuples(st.sampled_from(ROW_FUNCTORS), texts, texts).map(
        lambda t: "functor: %s\nstates: a, b\na -> %s\nb -> %s\n" % t),
    st.sampled_from(VALID_MODELS),
    st.tuples(st.sampled_from(VALID_MODELS), st.integers(0, 10**4),
              st.sampled_from(ROW_PIECES)).map(_mutated))


@settings(max_examples=600, deadline=None)
@given(text=model_texts)
def test_compiled_row_reader_matches_reference(text):
    # equal terms, weights of equal types, or equal messages and lines
    assert (_outcome(parse_coalgebra, text)
            == _outcome(_reference_parse, text)), text


@pytest.mark.parametrize("text", [
    "functor: R^(X) . P\nstates: a, b\na -> {{a}: 0, {b}: 1/2}\nb -> {}\n",
    "functor: R^(X) . P\nstates: a\na -> {{a}: 0, {a, a}: 1}\n",
    "functor: R^(X)\nstates: a\na -> {a: 0, a: 1}\n",
    "functor: R^(X)\nstates: a\na -> {a: 1, a: -0}\n",
    "functor: R^(X)\nstates: a\na -> {a: 1, a: 2}\n",
    "functor: D(X)\nstates: a, b\na -> {a: 2/4, b: 1/2}\nb -> {a:1}\n",
    "functor: D(X)\nstates: a, b\na -> {a: 3/2, b: -1/2}\nb -> {a: 1}\n",
    "functor: D(X)\nstates: a\na -> {}\n",
    "functor: N^(X)\nstates: a\na -> {a: 4/2}\n",
    "functor: N^(X)\nstates: a\na -> {a: 3/2}\n",
    "functor: N^(X)\nstates: a\na -> {a: -2}\n",
    "functor: Z^(X)\nstates: a\na -> {a: -6/3}\n",
    "functor: Z^(X)\nstates: a\na -> {a: 1/3}\n",
    "functor: R^(X)\nstates: a, b\na -> { a :1/2 ,b: 1 }\nb -> {b:1,}\n",
    "functor: R^(X)\nstates: a, b\na -> {a: 1/2 b: 1}\nb -> {}\n",
    "functor: R^(X)\nstates: a\na -> {c: 1/2}\n",
    "functor: R^(X)\nstates: a\na -> {a: 1/2/3}\n",
    "functor: R^(X)\nstates: a\na -> {a: 1/2x}\n",
    "functor: R^(X)\nstates: a\na -> {a: 1/02}\n",
    "functor: C{a,b} + P\nstates: a\na -> in0(a)\n",
    "functor: C{a,b} + P\nstates: a\na -> in3({})\n",
    "functor: P^{a,b}\nstates: s\ns -> [a: {}]\n",
    "functor: P^{a,b}\nstates: s\ns -> [a: {}, b: {s}, a: {}]\n",
    "functor: P^{a,b}\nstates: s\ns -> [a: {}, c: {s}]\n",
    "functor: Sig(f/2, g/0)\nstates: s\ns -> f(s)\n",
    "functor: Sig(f/2, g/0)\nstates: s\ns -> g()\n",
    "functor: X x C{u}\nstates: s\ns -> (s, u, s)\n",
])
def test_rows_match_reference(text):
    assert (_outcome(parse_coalgebra, text)
            == _outcome(_reference_parse, text))


@pytest.mark.parametrize("functor", ["R^(X)", "N^(X)", "Z^(X)", "D(X)"])
@pytest.mark.parametrize("text", [
    "1_000", "1e3", "-0", "٣", ".5", "5.", "1/0", "1/-2", "1_0/3",
    "007", "-2/4", "0/5", "1/00", "+3"])
def test_rational_edge_cases(functor, text):
    # int() and Fraction() both take underscores and other scripts'
    # digits; ratio reads only ASCII integers itself and leaves every
    # other text to Fraction, which accepts and words errors as before
    try:
        want = repr(Fraction(text))
    except (ValueError, ZeroDivisionError) as e:
        want = "error: bad rational %r: %s" % (text, e)
    assert _outcome(parse_rational, text, ValueError_) == want
    model = "functor: %s\nstates: a\na -> {a: %s}\n" % (functor, text)
    assert (_outcome(parse_coalgebra, model)
            == _outcome(_reference_parse, model))


def test_integer_weights_build_no_fraction_from_text(monkeypatch):
    made = []

    def spy(*args):
        made.append(args)
        return Fraction(*args)
    monkeypatch.setattr(values, "Fraction", spy)
    text = ("functor: (D(X) + C{stop})^{a,b}\nstates: s, t\n"
            "s -> [a: in1({s: 1/3, t: 4/6}), b: in2(stop)]\n"
            "t -> [a: in1({t: 1}), b: in1({s: 0, t: 1})]\n")
    parse_coalgebra(text)
    parse_coalgebra("functor: Z^(X) . R^(X)\nstates: s\n"
                    "s -> {{s: -3}: 2, {s: 1/2}: 0}\n")
    parse_value("in1((1/2,0,1/2))", parse_functor("D(X) + C{stop}"), 3)
    assert not made  # integer texts are read as ints, into int layers
    parse_value("(0.5)", parse_functor("R^(X)"), 1)
    assert made == [("0.5",)]  # other texts go through Fraction(text)


@settings(max_examples=300, deadline=None)
@given(fx=functors, k=st.integers(1, 3), data=st.data())
def test_compiled_value_reader_matches_reference(fx, k, data):
    f = parse_functor(fx)
    if fx == COMPOSITE_FUNCTOR:
        text = data.draw(texts)
    else:
        c = generate(GeneratorSpec(functor=fx, n=3, seed=data.draw(
            st.integers(0, 50)), density=0.6))
        col = [data.draw(st.integers(0, k - 1)) for _ in range(c.n)]
        text = _insert(pretty_value(f, fmap(c.structure[0], col), k),
                       data.draw(st.integers(0, 99)),
                       data.draw(st.sampled_from(ROW_PIECES + [""])))

    def ref(text):
        r = reference.ValueReader(text, k)
        return r.done(r.read(f))
    assert (_outcome(lambda t: parse_value(t, f, k), text, ValueError_)
            == _outcome(ref, text, ValueError_)), text
