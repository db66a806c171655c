"""Translation of certificates into the four domain-specific logics."""

from fractions import Fraction

import pytest

from coalgcert.certdag import build_certificates
from coalgcert.coalgebra import parse_coalgebra
from coalgcert.functor import parse_functor
from coalgcert.refiner import refine
from coalgcert.translate import (
    LOGICS, TranslateError, check_compatible, default_logic, ds_size,
    eval_ds, kappa, lam, parse_ds, pretty_ds, tau, translate, verify_dsi,
)
from conftest import load_model, random_instances, realizable_values

F = Fraction
TOP = ("top",)

DEFAULT_LOGIC_FUNCTORS = {
    "hm": ["P", "B^(X)"],
    "weighted": ["R^(X)", "Z^(X)", "N^(X)"],
    "signature": ["Sig(f/2, g/0, h/1)"],
    "prob": ["(D(X) + C{stop})^{a,b}"],
}


def test_default_logic():
    for logic, fxs in DEFAULT_LOGIC_FUNCTORS.items():
        for fx in fxs:
            assert default_logic(parse_functor(fx)) == logic
    assert default_logic(parse_functor("P x R^(X)")) is None


def test_check_compatible_rejects_mismatch():
    with pytest.raises(TranslateError):
        check_compatible("hm", parse_functor("R^(X)"))
    with pytest.raises(TranslateError):
        check_compatible("nonsense", parse_functor("P"))


def test_tau_goldens():
    p = parse_functor("P")
    assert pretty_ds(tau("hm", p, ("set", (0,)))) == "<>true"
    assert pretty_ds(tau("hm", p, ("set", ()))) == "~<>true"
    r = parse_functor("R^(X)")
    assert tau("weighted", r, ("vec", ((0, F(3, 2)),))) == ("w", F(3, 2), TOP)
    sig = parse_functor("Sig(f/2, g/0)")
    assert tau("signature", sig, ("op", "g", ())) == ("sig", "g")


def test_lam_goldens():
    p = parse_functor("P")
    d, r = ("atom", 0), ("atom", 1)
    assert lam("hm", p, ("set", (2,)), d, r) == ("not", ("dia", r))
    assert lam("hm", p, ("set", (1, 2)), d, r) == \
        ("and", ("dia", d), ("dia", r))
    assert lam("hm", p, ("set", (1,)), d, r) == ("not", ("dia", d))
    assert lam("hm", p, ("set", ()), d, r) == TOP
    w = parse_functor("R^(X)")
    assert lam("weighted", w, ("vec", ((1, F(1)), (2, F(2)))), d, r) == \
        ("w", F(2), d)
    sig = parse_functor("Sig(f/2, g/0)")
    assert lam("signature", sig, ("op", "f", (2, 1)), d, r) == \
        ("args", frozenset({1}), d)


def test_kappa_goldens():
    w = parse_functor("R^(X)")
    assert kappa("weighted", w, ("vec", ((0, F(1)), (1, F(4)))), ("atom", 0)) == \
        ("w", F(4), ("atom", 0))
    for logic in ("hm", "prob"):
        with pytest.raises(TranslateError):
            kappa(logic, parse_functor("P"), ("set", (0,)), ("atom", 0))


def test_ts1_hm_translation_golden(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    phi = translate(certs, "hm")
    by_states = {tuple(sorted(sts)): phi[bid]
                 for bid, sts in zip(res.block_ids, res.blocks)}
    assert pretty_ds(by_states[(0,)]) == "(<>true & ~<>~<>true)"
    # the formula for x's class separates x from y
    ext = eval_ds(by_states[(0,)], ts1)
    assert ext == {0}


def test_mc1_weighted_translation_golden(mc1):
    res = refine(mc1, mode="cancellative")
    certs = build_certificates(mc1, res)
    phi = translate(certs, "weighted")
    x = mc1.states.index("x")
    bid = res.block_of[x]
    text = pretty_ds(phi[bid])
    assert "~" not in text  # negation-free end to end
    assert eval_ds(phi[bid], mc1) == {x}


def test_translated_extensions_match_blocks():
    for logic, fxs in DEFAULT_LOGIC_FUNCTORS.items():
        for label, c in random_instances(fxs, seeds=range(4), n=10):
            res = refine(c)
            certs = build_certificates(c, res)
            phi = translate(certs, logic)
            for bid, states in zip(res.block_ids, res.blocks):
                assert eval_ds(phi[bid], c) == set(states), (logic, label)


def test_cancellative_translation_weighted_only(mc1):
    res = refine(mc1, mode="cancellative")
    certs = build_certificates(mc1, res)
    phi = translate(certs, "weighted")
    assert all("~" not in pretty_ds(p) for p in phi.values())
    with pytest.raises(TranslateError):
        translate(certs, "hm")


def test_verify_dsi_all_logics(ts1, mc1):
    cases = {
        "hm": ts1,
        "weighted": mc1,
        "prob": load_model("pr1.model"),
    }
    from coalgcert.oracle import GeneratorSpec, generate
    cases["signature"] = generate(GeneratorSpec(
        functor="Sig(f/2, g/0, h/1)", n=8, seed=3, density=0.5))
    for logic, c in cases.items():
        v1, v2, v3 = realizable_values(c)
        assert verify_dsi(logic, c, v1, v2, v3) == [], logic


def test_total_box_semantics(ts1):
    phi = parse_ds("[]<>true", "hm")
    # box requires at least one successor: false at the deadlock state
    assert eval_ds(phi, ts1) == {0}
    assert eval_ds(parse_ds("[]true", "hm"), ts1) == {0, 1, 2}


@pytest.mark.parametrize("logic,text", [
    ("hm", "(<>true & ~<>~<>true)"),
    ("hm", "[](<>true | ~true)"),
    ("weighted", "<1/2><0>true"),
    ("weighted", "(<1>true & <1/2><0>true)"),
    ("signature", "g"),
    ("signature", "<{1,3}>g"),
    ("prob", "<a>_{1/2}~<b>_{1}true"),
])
def test_parse_pretty_round_trip(logic, text):
    phi = parse_ds(text, logic)
    assert parse_ds(pretty_ds(phi), logic) == phi


def test_ds_size_counts_tree():
    phi = parse_ds("(<>true & ~<>~<>true)", "hm")
    assert ds_size(phi) == 8
    assert LOGICS == ("hm", "weighted", "signature", "prob")
