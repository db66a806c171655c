"""Every parser raises only its own error class, whatever the text."""

from hypothesis import given, settings, strategies as st

from coalgcert.certdag import expand
from coalgcert.coalgebra import ModelError, parse_coalgebra
from coalgcert.functor import parse_functor
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
    try:
        parse_coalgebra("functor: %s\nstates: a, b\na -> %s\nb -> %s\n"
                        % (fx, a, b))
    except ModelError:
        pass


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
