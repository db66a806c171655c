"""Shared fixtures: golden models and a seeded random-instance helper."""

import random
from pathlib import Path

import pytest

from coalgcert.coalgebra import Coalgebra, parse_coalgebra
from coalgcert.functor import parse_functor
from coalgcert.oracle import GeneratorSpec, generate

MODELS = Path(__file__).parent / "models"

# Functor grammar coverage used by the randomized suites.  One entry per
# constructor kind plus mixtures; the composite entry exercises unfolding.
FUNCTORS = [
    "P",
    "R^(X)",
    "Z^(X)",
    "N^(X)",
    "B^(X)",
    "D(X) + C{done}",
    "Sig(f/2, g/0, h/1)",
    "P x R^(X)",
    "C{a,b} + P",
    "P^{a,b}",
    "X x C{u,v}",
    "(D(X) + C{stop})^{a,b}",
]

COMPOSITE_FUNCTOR = "P . (C{a,b} x X)"

# Functors with no powerset/boolean layer admit the single-argument
# refinement mode and its negation-free certificates.
CANCELLATIVE_FUNCTORS = [
    "R^(X)",
    "Z^(X)",
    "D(X) + C{done}",
    "Sig(f/2, g/0, h/1)",
    "X x C{u,v}",
    "(D(X) + C{stop})^{a,b}",
]


def load_model(name):
    return parse_coalgebra((MODELS / name).read_text())


@pytest.fixture
def ts1():
    """Four-state transition system: x and y are distinguished only two
    levels deep; x1 and y are behaviourally equivalent."""
    return load_model("ts1.model")


@pytest.fixture
def mc1():
    """Four-state real-weighted chain: z2 and y are equivalent."""
    return load_model("mc1.model")


def chain_text(n):
    """Model text of the powerset chain s0 -> s1 -> ... -> s(n-1): n
    classes, split one per refinement, so the certificate dag and the
    block-version tree are about n deep."""
    names = ["s%d" % i for i in range(n)]
    rows = ["%s -> {%s}" % (a, b) for a, b in zip(names, names[1:])]
    return "functor: P\nstates: %s\n%s\n%s -> {}\n" % (
        ", ".join(names), "\n".join(rows), names[-1])


def random_instances(functors=FUNCTORS, seeds=range(8), n=12, density=0.25):
    """Deterministic stream of (label, coalgebra) pairs for cross-checks."""
    for fx in functors:
        for seed in seeds:
            spec = GeneratorSpec(functor=fx, n=n, seed=seed, density=density)
            yield "%s seed=%d" % (fx, seed), generate(spec)


def composite_instance(seed, n=10):
    """Random labelled transition system over the composed functor
    P . (C{a,b} x X)."""
    rng = random.Random(10_000 + seed)
    rows = []
    for s in range(n):
        deg = rng.randrange(0, 4)
        pairs = sorted({(rng.choice("ab"), "s%d" % rng.randrange(n))
                        for _ in range(deg)})
        rows.append("s%d -> {%s}" % (
            s, ", ".join("(%s, %s)" % p for p in pairs)))
    text = ("functor: %s\nstates: %s\n%s\n"
            % (COMPOSITE_FUNCTOR, ", ".join("s%d" % i for i in range(n)),
               "\n".join(rows)))
    return parse_coalgebra(text)


def hub_line(k):
    """The fan-out family hub-line(k) of P, 3k + 5 states: three lines
    c0 -> ... -> c(k-1) -> {}, a0 -> ... -> ak -> {} and
    b0 -> ... -> b(k+1) -> {}, and two hubs h1 -> {c0, ..., c(k-1), a0}
    and h2 -> {c0, ..., c(k-1), b0}.  The hubs share a block until the a
    and b lines tell them apart, after the c line is peeled."""
    names, rows = [], []
    for line, length in (("c", k), ("a", k + 1), ("b", k + 2)):
        first = len(names)
        names += ["%s%d" % (line, i) for i in range(length)]
        rows += [("set", (first + i + 1,)) for i in range(length - 1)]
        rows.append(("set", ()))
    hub = tuple(range(k))
    names += ["h1", "h2"]
    rows += [("set", hub + (k,)), ("set", hub + (2 * k + 1,))]
    return Coalgebra(parse_functor("P"), tuple(names), tuple(rows))


def realizable_values(c, rng=None, extra_subsets=8):
    """One-, two- and three-colour values realized by the coalgebra.

    Two-colour values come from indicator colourings of state subsets S;
    three-colour values from nested pairs S within B (colour 2 on S, 1 on
    the rest of B, 0 outside).  Subsets are the behavioural-equivalence
    blocks, their unions, and a few random subsets."""
    import random

    from coalgcert.oracle import naive_bisimilarity
    from coalgcert.values import fmap

    rng = rng or random.Random(0)
    n = c.n
    everything = set(range(n))
    subsets = [set(b) for b in naive_bisimilarity(c)] + [everything]
    for _ in range(extra_subsets):
        subsets.append({s for s in range(n) if rng.random() < 0.5})
    v1, v2, v3 = set(), set(), set()
    col1 = {s: 0 for s in range(n)}
    for t in c.structure:
        v1.add(fmap(t, col1))
    for S in subsets:
        col2 = {s: int(s in S) for s in range(n)}
        for t in c.structure:
            v2.add(fmap(t, col2))
    for B in subsets:
        for S in subsets:
            if S and S < B:
                col3 = {s: 2 if s in S else (1 if s in B else 0)
                        for s in range(n)}
                for t in c.structure:
                    v3.add(fmap(t, col3))
    return v1, v2, v3
