"""Reference implementations used to cross-check the refinement engine.

naive_bisimilarity computes behavioural equivalence as a plain fixed point
(repeatedly rekey every state against the current partition), sharing only
the functorial action values.fmap with the fast engine.  generate draws
seeded random coalgebras for any composition-free functor, each row by the
functor's random method, and layered_worstcase builds the weighted system
whose minimal negation-free certificates grow exponentially with the layer
index while the shared dag stays linear.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .coalgebra import Coalgebra
from .functor import (
    INT, NAT, REAL, FunctorError, MonoidValued, is_zippable, parse_functor,
)
from .values import fmap


def naive_bisimilarity(c):
    """Behavioural equivalence by fixed-point iteration.

    Returns the partition as a list of sorted state-id lists, ordered by
    first state occurrence.  Quadratic-ish and trusted: each round rekeys
    every state by applying the functor to the current block colouring."""
    n = c.n
    if n == 0:
        return []
    zero = [0] * n
    keys = [fmap(t, zero) for t in c.structure]
    block_of = _group(range(n), keys)
    while True:
        keys = [(block_of[x], fmap(c.structure[x], block_of))
                for x in range(n)]
        new = _group(range(n), keys)
        if new == block_of:
            break
        block_of = new
    blocks = {}
    for x in range(n):
        blocks.setdefault(block_of[x], []).append(x)
    return [sorted(v) for v in blocks.values()]


def _group(xs, keys):
    ids = {}
    out = []
    for x in xs:
        out.append(ids.setdefault(keys[x], len(ids)))
    return out


def partition_key(blocks):
    """Canonical form of a partition for equality checks."""
    return sorted(tuple(sorted(b)) for b in blocks)


# ------------------------------------------------------------ generation

@dataclass
class GeneratorSpec:
    functor: object            # FunctorExpr or concrete syntax
    n: int
    seed: int = 0
    density: float = 0.15      # expected fraction of targets per collection
    max_branch: int = 6        # cap on successors per collection layer
    weight_range: tuple = (1, 4)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative, got %d" % self.n)
        if not (math.isfinite(self.density) and self.density >= 0):
            raise ValueError("density must be a nonnegative finite number, "
                             "got %r" % self.density)
        lo, hi = self.weight_range
        if not (type(lo) is type(hi) is int and lo <= hi and hi >= 1):
            raise ValueError("weight_range must be integers lo <= hi with "
                             "hi >= 1, got %r" % (self.weight_range,))
        if not (type(self.max_branch) is int and self.max_branch >= 0):
            raise ValueError("max_branch must be a nonnegative integer, "
                             "got %r" % self.max_branch)

    def resolved_functor(self):
        f = self.functor
        return parse_functor(f) if isinstance(f, str) else f


def generate(spec):
    """Seeded random coalgebra; identical spec => identical output."""
    f = spec.resolved_functor()
    ok, why = is_zippable(f)
    if not ok:
        raise FunctorError(why)
    rng = random.Random(spec.seed)
    n = spec.n
    names = tuple("s%d" % i for i in range(n))
    lo, hi = spec.weight_range

    def targets():
        # clamped before int(): a huge density overflows to inf
        want = min(int(min(rng.random() * 2 * spec.density * n + 0.5, n)),
                   spec.max_branch)
        return sorted(rng.sample(range(n), want))

    def weight(kind):
        if kind == NAT:
            return Fraction(rng.randint(max(1, lo), hi))
        if kind == INT:
            w = 0
            while w == 0:
                w = rng.randint(-hi, hi)
            return Fraction(w)
        num = rng.randint(max(1, lo), hi)
        den = rng.randint(1, 4)
        return Fraction(num, den)

    # the choices FunctorExpr.random draws a term from
    draw = SimpleNamespace(rng=rng, state=lambda: rng.randrange(n),
                           targets=targets, weight=weight)
    return Coalgebra(f, names, tuple(f.random(draw) for _ in names))


# -------------------------------------------------------- layered system

def layered_worstcase(k):
    """Weighted system with k+1 layers of four pairwise-inequivalent states.

    Every state of layer j+1 sees total weight 3 on each of the four layer-j
    states' columns arranged so that distinguishing within the layer needs
    certificates whose tree unfolding doubles per layer, while the shared
    dag only grows linearly."""
    f = MonoidValued(REAL)
    names = []
    structure = []
    for j in range(k + 1):
        names += ["w%d" % j, "x%d" % j, "y%d" % j, "z%d" % j]
    idx = {name: i for i, name in enumerate(names)}

    def row(entries):
        return ("vec", tuple(sorted(
            (idx[s], Fraction(w)) for s, w in entries.items())))

    structure.append(row({"w0": 1}))
    structure.append(row({"x0": 2}))
    structure.append(row({"y0": 3}))
    structure.append(row({"z0": 4}))
    for j in range(k):
        w, x, y, z = "w%d" % j, "x%d" % j, "y%d" % j, "z%d" % j
        structure.append(row({w: 1, x: 2, y: 1, z: 2}))
        structure.append(row({w: 1, x: 2, y: 2, z: 1}))
        structure.append(row({w: 2, x: 1, y: 1, z: 2}))
        structure.append(row({w: 2, x: 1, y: 2, z: 1}))
    return Coalgebra(f, tuple(names), tuple(structure))
