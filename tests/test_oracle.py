"""Brute-force oracle, random instance generator, worst-case family."""

import hashlib
from fractions import Fraction

import pytest

from coalgcert.coalgebra import parse_coalgebra, pretty_model
from coalgcert.oracle import (
    GeneratorSpec, generate, layered_worstcase, naive_bisimilarity,
    partition_key,
)

F = Fraction


def test_bisimilarity_ts1(ts1):
    assert partition_key(naive_bisimilarity(ts1)) == \
        partition_key([[0], [1, 2], [3]])


def test_bisimilarity_mc1(mc1):
    x, z2, y, z1 = (mc1.states.index(s) for s in ("x", "z2", "y", "z1"))
    assert partition_key(naive_bisimilarity(mc1)) == \
        partition_key([[x], [z2, y], [z1]])


def test_bisimilarity_weighted_merging():
    # p and q are equivalent, so a's two unit weights merge into one class
    # and a becomes equivalent to b despite the different branching
    c = parse_coalgebra(
        "functor: Z^(X)\nstates: a, b, p, q\n"
        "a -> {p: 1, q: 1}\nb -> {p: 2}\np -> {}\nq -> {}")
    key = partition_key(naive_bisimilarity(c))
    assert key == partition_key([[0, 1], [2, 3]])
    # with distinct targets the split reappears
    c2 = parse_coalgebra(
        "functor: Z^(X)\nstates: a, b, p, q\n"
        "a -> {p: 1, q: 1}\nb -> {p: 2}\np -> {p: 1}\nq -> {}")
    key2 = partition_key(naive_bisimilarity(c2))
    assert key2 == partition_key([[0], [1], [2], [3]])


def test_generate_deterministic():
    spec = GeneratorSpec(functor="P x R^(X)", n=15, seed=42, density=0.3)
    a, b = generate(spec), generate(spec)
    assert a.structure == b.structure
    assert pretty_model(a) == pretty_model(b)
    other = generate(GeneratorSpec(functor="P x R^(X)", n=15, seed=43,
                                   density=0.3))
    assert other.structure != a.structure


# sha1 of pretty_model(generate(...)), one composition-free functor per
# constructor: the generated models that the reference cases and the
# counted tests are built from must not change by a single draw
GENERATED = {
    "X": "ab213e90e38d56c2a6281c25890af4661ab499bd",
    "P": "ffa40dff7938f4e62df4d3d9e94d04d17f4853e2",
    "R^(X)": "3b340e16148f40090f3ffed930553f47a98fb555",
    "Z^(X)": "2ff577f00b1bcf21bbd584c926b97e823987c7f2",
    "N^(X)": "84cec357609babf1f79c7945210ea6c9f3f97e0d",
    "D(X) + C{done}": "1e9b4c0e29bc48f0112e0336268a23355f2c5a2c",
    "Sig(f/2, g/0)": "68b66da884c83340150c7887b1f0cf37bf205dc4",
    "P x R^(X)": "61f770db15689a46f891461758e7ec1479e89e28",
    "(D(X) + C{stop})^{a,b}": "82d981d51b54cf109584537e16fd0465641a6946",
}


def test_generate_valid_models():
    for fx, sha1 in GENERATED.items():
        c = generate(GeneratorSpec(functor=fx, n=10, seed=7, density=0.3))
        assert c.n == 10
        # round-trips through the printer/parser
        text = pretty_model(c)
        assert parse_coalgebra(text).structure == c.structure
        assert hashlib.sha1(text.encode()).hexdigest() == sha1, fx


@pytest.mark.parametrize("settings", [
    dict(weight_range=(0, 0)),
    dict(weight_range=(1, 0)),
    dict(weight_range=(-2, -1)),
    dict(weight_range=(1, 2.5)),
    dict(max_branch=-1),
    dict(max_branch=1.5),
], ids=repr)
def test_generator_spec_rejects_undrawable_settings(settings):
    # (0, 0) has no nonzero Z-weight: generate would redraw one forever
    for fx in ("Z^(X)", "N^(X)", "R^(X)"):
        with pytest.raises(ValueError):
            GeneratorSpec(fx, 6, seed=1, density=0.5, **settings)


def test_layered_worstcase_shape():
    k = 4
    c = layered_worstcase(k)
    assert c.n == 4 * (k + 1)
    # layer-0 states have distinct self-loop weights
    w0 = {c.structure[i][1][0][1] for i in range(4)}
    assert w0 == {F(1), F(2), F(3), F(4)}
    # every higher-layer state points one layer down with total weight 6
    for j in range(1, k + 1):
        for i in range(4 * j, 4 * j + 4):
            targets = dict(c.structure[i][1])
            assert all(4 * (j - 1) <= t < 4 * j for t in targets)
            assert sum(targets.values()) == 6
    # all states are pairwise distinguishable
    assert all(len(b) == 1 for b in naive_bisimilarity(c))
