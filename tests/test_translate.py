"""Translation of certificates into the four domain-specific logics."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.certdag import FormulaDag, build_certificates, expand
from coalgcert.functor import parse_functor
from coalgcert.logic import check_certificates, eval_ref
from coalgcert.oracle import GeneratorSpec, generate
from coalgcert.refiner import refine
from coalgcert.translate import (
    LOGICS, TranslateError, check_compatible, default_logic, ds_label, kappa,
    lam, parse_ds, tau, translate, verify_dsi,
)
from conftest import load_model, random_instances, realizable_values
from test_parsers import ds_texts, texts

F = Fraction

DEFAULT_LOGIC_FUNCTORS = {
    "hm": ["P", "B^(X)"],
    "weighted": ["R^(X)", "Z^(X)", "N^(X)"],
    "signature": ["Sig(f/2, g/0, h/1)"],
    "prob": ["(D(X) + C{stop})^{a,b}"],
}


def pretty(dag, ref):
    return expand(dag, ref, ds_label)


def with_atoms():
    """An arena with the atoms _0 and _1, as verify_dsi builds it."""
    dag = FormulaDag()
    return dag, dag.add_ds(("atom", 0), ()), dag.add_ds(("atom", 1), ())


# ------------------------------------------- tuple reference evaluation

def as_tuple(dag, ref, memo):
    """The formula of ref as nested tuples, ('not', phi) for a negated
    edge; memo keeps one tuple per node, so sharing survives."""
    nid, neg = ref
    if nid not in memo:
        node = dag.nodes[nid]
        if node[0] == "top":
            memo[nid] = ("top",)
        elif node[0] in ("and", "or"):
            memo[nid] = (node[0], as_tuple(dag, node[1], memo),
                         as_tuple(dag, node[2], memo))
        else:
            _, label, args = node
            memo[nid] = label + tuple(as_tuple(dag, a, memo) for a in args)
    return ("not", memo[nid]) if neg else memo[nid]


def _ds_args(phi):
    """The argument subformulas of a domain-specific formula node."""
    tag = phi[0]
    if tag in ("top", "sig", "atom"):
        return ()
    if tag in ("not", "dia", "box"):
        return (phi[1],)
    if tag in ("and", "or"):
        return phi[1:]
    if tag in ("w", "args"):
        return (phi[2],)
    if tag == "prob":
        return (phi[3],)
    raise TranslateError("bad formula node %r" % (tag,))


def _bottom_up(phi, node, memo):
    """memo[id(psi)] = node(psi) for phi and every subformula psi, each
    after its arguments, with an explicit stack; returns phi's entry."""
    todo = [phi]
    while todo:
        psi = todo[-1]
        if id(psi) in memo:
            todo.pop()
            continue
        args = [a for a in _ds_args(psi) if id(a) not in memo]
        if args:
            todo += args
        else:
            memo[id(todo.pop())] = node(psi)
    return memo[id(phi)]


def tuple_ext(phi, c):
    """Reference evaluator: extension of a tuple formula as a frozenset,
    each modality read off the rows directly."""
    memo = {}
    universe = frozenset(range(c.n))

    def node(psi):
        tag = psi[0]
        if tag == "top":
            return universe
        if tag == "not":
            return universe - memo[id(psi[1])]
        if tag == "and":
            return memo[id(psi[1])] & memo[id(psi[2])]
        if tag == "or":
            return memo[id(psi[1])] | memo[id(psi[2])]
        if tag == "dia":
            ext = memo[id(psi[1])]
            return frozenset(x for x in range(c.n)
                             if any(y in ext for y in c.structure[x][1]))
        if tag == "box":
            # total box: at least one successor, and all successors satisfy
            ext = memo[id(psi[1])]
            return frozenset(x for x in range(c.n)
                             if c.structure[x][1]
                             and all(y in ext for y in c.structure[x][1]))
        if tag == "w":
            ext = memo[id(psi[2])]
            return frozenset(
                x for x in range(c.n)
                if sum((w for y, w in c.structure[x][1] if y in ext),
                       Fraction(0)) == psi[1])
        if tag == "sig":
            return frozenset(x for x in range(c.n)
                             if c.structure[x][1] == psi[1])
        if tag == "args":
            ext = memo[id(psi[2])]
            return frozenset(
                x for x in range(c.n)
                if frozenset(i + 1 for i, y in enumerate(c.structure[x][2])
                             if y in ext) == psi[1])
        if tag == "prob":
            a, p = psi[1], psi[2]
            if a not in c.functor.labels:
                raise TranslateError("unknown label %r" % a)
            idx = c.functor.labels.index(a)
            ext = memo[id(psi[3])]

            def holds(x):
                branch = c.structure[x][1][idx]
                if branch[1] != 0:
                    return False
                return sum((w for y, w in branch[2][1] if y in ext),
                           Fraction(0)) >= p
            return frozenset(x for x in range(c.n) if holds(x))
        raise TranslateError("unsubstituted placeholder in formula")

    return _bottom_up(phi, node, memo)


# ------------------------------------------------------------------ tests

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
    dag = FormulaDag()
    p = parse_functor("P")
    assert pretty(dag, tau(dag, "hm", p, ("set", (0,)))) == "<>true"
    assert pretty(dag, tau(dag, "hm", p, ("set", ()))) == "~<>true"
    r = parse_functor("R^(X)")
    phi = tau(dag, "weighted", r, ("vec", ((0, F(3, 2)),)))
    assert pretty(dag, phi) == "<3/2>true"
    sig = parse_functor("Sig(f/2, g/0)")
    assert pretty(dag, tau(dag, "signature", sig, ("op", "g", ()))) == "g"


def test_lam_goldens():
    dag, d, r = with_atoms()
    p = parse_functor("P")
    for t, text in [((2,), "~<>_1"), ((1, 2), "(<>_0 & <>_1)"),
                    ((1,), "~<>_0"), ((), "true")]:
        assert pretty(dag, lam(dag, "hm", p, ("set", t), d, r)) == text
    w = parse_functor("R^(X)")
    phi = lam(dag, "weighted", w, ("vec", ((1, F(1)), (2, F(2)))), d, r)
    assert pretty(dag, phi) == "<2>_0"
    sig = parse_functor("Sig(f/2, g/0)")
    phi = lam(dag, "signature", sig, ("op", "f", (2, 1)), d, r)
    assert pretty(dag, phi) == "<{1}>_0"


def test_kappa_goldens():
    dag, d, _ = with_atoms()
    w = parse_functor("R^(X)")
    phi = kappa(dag, "weighted", w, ("vec", ((0, F(1)), (1, F(4)))), d)
    assert pretty(dag, phi) == "<4>_0"
    for logic in ("hm", "prob"):
        with pytest.raises(TranslateError):
            kappa(dag, logic, parse_functor("P"), ("set", (0,)), d)


def test_ts1_hm_translation_golden(ts1):
    res = refine(ts1)
    certs = build_certificates(ts1, res)
    dag, (phi,) = translate(certs, "hm", [certs.delta[res.block_of[0]]])
    assert pretty(dag, phi) == "(<>true & ~<>~<>true)"
    # the formula for x's class separates x from y
    assert eval_ref(dag, phi, ts1) == {0}


def test_mc1_weighted_translation_golden(mc1):
    res = refine(mc1, mode="cancellative")
    certs = build_certificates(mc1, res)
    x = mc1.states.index("x")
    dag, (phi,) = translate(certs, "weighted", [certs.delta[res.block_of[x]]])
    assert "~" not in pretty(dag, phi)  # negation-free end to end
    assert eval_ref(dag, phi, mc1) == {x}


def translated_instances(seeds=range(4), n=10):
    """(logic, label, coalgebra, certificate set, arena, translated block
    certificates) over random_instances of every logic's functors."""
    for logic, fxs in DEFAULT_LOGIC_FUNCTORS.items():
        for label, c in random_instances(fxs, seeds=seeds, n=n):
            certs = build_certificates(c, refine(c))
            roots = [certs.delta[b] for b in range(len(certs.blocks))]
            dag, refs = translate(certs, logic, roots)
            yield logic, label, c, certs, dag, refs


def test_translated_extensions_match_blocks():
    for logic, label, c, certs, dag, refs in translated_instances():
        for ref, states in zip(refs, certs.blocks):
            assert eval_ref(dag, ref, c) == set(states), (logic, label)
        # the listing that `translate` prints passes the certificate check
        listing = replace(certs, dag=dag, beta={},
                          delta=dict(enumerate(refs)))
        assert check_certificates(listing) == [], (logic, label)


def test_arena_evaluation_matches_tuple_reference():
    for logic, label, c, certs, dag, refs in translated_instances():
        for ref in refs:
            want = tuple_ext(as_tuple(dag, ref, {}), c)
            assert eval_ref(dag, ref, c) == want, (logic, label)


def test_translation_is_linear_in_the_dag():
    # a modal node becomes at most four nodes in hm, and in prob one
    # conjunction plus two modalities and two conjunctions per input label
    for logic, label, c, certs, dag, refs in translated_instances(n=16):
        per_node = 9 if logic == "prob" else 4
        assert len(dag.nodes) <= per_node * len(certs.dag.nodes), label


# one model per logic for the parsed-formula property
DS_MODELS = {logic: next(random_instances(fxs[:1], seeds=[1], n=10))[1]
             for logic, fxs in DEFAULT_LOGIC_FUNCTORS.items()}


def assert_matches_reference(text, logic):
    try:
        dag, ref = parse_ds(text, logic)
    except TranslateError:
        return
    c = DS_MODELS[logic]
    assert eval_ref(dag, ref, c) == tuple_ext(as_tuple(dag, ref, {}), c)


@settings(max_examples=200, deadline=None)
@given(logic=st.sampled_from(LOGICS), data=st.data())
def test_parsed_formulas_match_tuple_reference(logic, data):
    assert_matches_reference(data.draw(ds_texts(logic)), logic)
    assert_matches_reference(data.draw(texts), logic)


def test_cancellative_translation_weighted_only(mc1):
    res = refine(mc1, mode="cancellative")
    certs = build_certificates(mc1, res)
    refs = list(certs.delta.values())
    dag, phis = translate(certs, "weighted", refs)
    assert all("~" not in pretty(dag, p) for p in phis)
    with pytest.raises(TranslateError):
        translate(certs, "hm", refs)


def test_verify_dsi_all_logics(ts1, mc1):
    cases = {
        "hm": ts1,
        "weighted": mc1,
        "prob": load_model("pr1.model"),
    }
    cases["signature"] = generate(GeneratorSpec(
        functor="Sig(f/2, g/0, h/1)", n=8, seed=3, density=0.5))
    for logic, c in cases.items():
        v1, v2, v3 = realizable_values(c)
        assert verify_dsi(logic, c, v1, v2, v3) == [], logic


def test_total_box_semantics(ts1):
    # box requires at least one successor: false at the deadlock state
    assert eval_ref(*parse_ds("[]<>true", "hm"), ts1) == {0}
    assert eval_ref(*parse_ds("[]true", "hm"), ts1) == {0, 1, 2}


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
    assert pretty(*parse_ds(text, logic)) == text


def test_ds_size_counts_tree():
    # negation is the bit of an edge, not a node of the tree
    dag, ref = parse_ds("(<>true & ~<>~<>true)", "hm")
    assert dag.tree_size(ref) == 6
    assert LOGICS == ("hm", "weighted", "signature", "prob")
