"""The benchmark's own model representation, seeded generators and writers.

Nothing here imports the package: the inputs the program receives, and the
reference the benchmark checks it against, depend only on this file and the
seed.

A model is a list of rows, one per state, in one of three kinds:

    lts    sorted tuple of successor ids                     functor P
    llts   sorted tuple of (label, successor id) pairs       P . (C{a,b,c} x X)
    lmc    one entry per label: None (stop), or a sorted     (D(X) + C{stop})^{a,b}
           tuple of (successor id, Fraction) with sum 1
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

LTS_LABELS = ("a", "b", "c")
LMC_LABELS = ("a", "b")

# the functor line each encoding writes
FUNCTORS = {
    "lts": "P",
    "llts": "P . (C{a,b,c} x X)",
    "llts-exp": "P^{a,b,c}",
    "lmc": "(D(X) + C{stop})^{a,b}",
}


@dataclass
class Model:
    kind: str
    rows: list
    # lmc-planted only: the base-chain state each state is a copy of
    base_of: list = None

    @property
    def n(self):
        return len(self.rows)

    def names(self):
        return ["s%d" % i for i in range(len(self.rows))]


def rng_for(workload, seed, part):
    """Independent stream per workload, seed and model; str seeds are
    hashed with SHA-512, so streams do not depend on PYTHONHASHSEED."""
    return random.Random("%s:%d:%s" % (workload, seed, part))


def dealt(rng, n, values):
    """n values dealt from ``values`` in turn, then shuffled: every value
    occurs in the same share on every seed."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def random_lts(rng, n, degrees, hubs=0, hub_share=0.0):
    """Bounded-degree random powerset system.

    Out-degrees are dealt from ``degrees``.  With ``hubs`` > 0, that many
    randomly placed states instead get ``hub_share * n`` successors each:
    high fan-out rows that every splitter reaches."""
    rows = [tuple(sorted(rng.sample(range(n), d))) for d in dealt(rng, n, degrees)]
    for h in rng.sample(range(n), hubs):
        rows[h] = tuple(sorted(rng.sample(range(n), int(hub_share * n))))
    return Model("lts", rows)


def random_llts(rng, n, degrees):
    """Bounded-degree random labelled transition system over a, b, c, with
    out-degrees dealt from ``degrees``."""
    rows = []
    for d in dealt(rng, n, degrees):
        pairs = set()
        while len(pairs) < d:
            pairs.add((rng.choice(LTS_LABELS), rng.randrange(n)))
        rows.append(tuple(sorted(pairs)))
    return Model("llts", rows)


def _distribution(rng, targets):
    raw = [rng.randint(1, 6) for _ in targets]
    total = sum(raw)
    return [(y, Fraction(r, total)) for y, r in zip(targets, raw)]


def random_lmc(rng, n, supports=(0, 1, 1, 2, 2, 2, 3, 3, 3, 3)):
    """Random labelled Markov chain that may halt on each label.

    The support size of each (state, label) is dealt from ``supports``;
    0 means the state stops on that label."""
    sizes = iter(dealt(rng, n * len(LMC_LABELS), supports))
    rows = []
    for _ in range(n):
        row = []
        for _lab in LMC_LABELS:
            k = next(sizes)
            row.append(tuple(sorted(_distribution(rng, rng.sample(range(n), k))))
                       if k else None)
        rows.append(tuple(row))
    return Model("lmc", rows)


def planted_lmc(rng, base, copies, max_split=3):
    """Copy every state of ``base`` ``copies`` times, in shuffled order.

    Each copy of x keeps x's row shape; the mass x sends to y is split at
    random over 1..max_split copies of y.  Every copy therefore sends the
    same mass into each set of copies, so copies of a base state are
    behaviourally equivalent to it and to each other."""
    nb = base.n
    order = list(range(nb * copies))
    rng.shuffle(order)
    copy_ids = [order[b * copies:(b + 1) * copies] for b in range(nb)]
    rows = [None] * (nb * copies)
    base_of = [None] * (nb * copies)
    for b, brow in enumerate(base.rows):
        for x in copy_ids[b]:
            base_of[x] = b
            row = []
            for dist in brow:
                if dist is None:
                    row.append(None)
                    continue
                entries = []
                for y, p in dist:
                    ys = rng.sample(copy_ids[y], rng.randint(1, max_split))
                    entries.extend((z, p * q) for z, q in _distribution(rng, ys))
                row.append(tuple(sorted(entries)))
            rows[x] = tuple(row)
    return Model("lmc", rows, base_of)


# ------------------------------------------------------------- writing

def _row_text(encoding, row, names):
    if encoding == "lts":
        return "{%s}" % ", ".join(names[y] for y in row)
    if encoding == "llts":
        return "{%s}" % ", ".join("(%s, %s)" % (lab, names[y]) for lab, y in row)
    if encoding == "llts-exp":
        return "[%s]" % ", ".join(
            "%s: {%s}" % (lab, ", ".join(names[y] for l2, y in row if l2 == lab))
            for lab in LTS_LABELS)
    if encoding == "lmc":
        return "[%s]" % ", ".join(
            "%s: %s" % (lab, "in2(stop)" if dist is None else "in1({%s})" % ", ".join(
                "%s: %s" % (names[y], w) for y, w in dist))
            for lab, dist in zip(LMC_LABELS, row))
    raise ValueError("unknown encoding %r" % encoding)


def model_text(model, encoding=None):
    """Model file text in the package's input format.

    ``encoding`` defaults to the model's kind; an ``llts`` model can also be
    written as ``llts-exp``, the same system over the plain functor
    P^{a,b,c}."""
    enc = encoding or model.kind
    names = model.names()
    lines = ["functor: %s" % FUNCTORS[enc], "states: %s" % ", ".join(names)]
    lines.extend("%s -> %s" % (names[x], _row_text(enc, row, names))
                 for x, row in enumerate(model.rows))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- reading

_SET_RE = re.compile(r"^\{([^{}]*)\}$")
_LABEL_SET_RE = re.compile(r"(\w+): \{([^{}]*)\}")
_LABEL_DIST_RE = re.compile(r"(\w+): (?:in2\(stop\)|in1\(\{([^{}]*)\}\))")


def _names(text):
    return [s.strip() for s in text.split(",") if s.strip()]


def parse_model(text, encoding):
    """Read a model file written in ``encoding`` back into a Model.

    Returns (state names, Model).  An ``llts-exp`` file reads back as an
    ``llts`` model.  Raises ValueError or KeyError on anything model_text
    would not write."""
    lines = text.splitlines()
    if not lines or lines[0] != "functor: %s" % FUNCTORS[encoding]:
        raise ValueError("unexpected functor line %r" % lines[:1])
    if len(lines) < 2 or not lines[1].startswith("states: "):
        raise ValueError("missing states line")
    names = _names(lines[1][len("states: "):])
    ids = {name: i for i, name in enumerate(names)}
    rows = [None] * len(names)
    for line in lines[2:]:
        name, _, rhs = line.partition(" -> ")
        x = ids[name]
        if encoding == "lts":
            m = _SET_RE.match(rhs)
            if not m:
                raise ValueError("bad row %r" % line)
            rows[x] = tuple(sorted(ids[y] for y in _names(m.group(1))))
        elif encoding == "llts-exp":
            pairs = [(lab, ids[y]) for lab, ys in _LABEL_SET_RE.findall(rhs)
                     for y in _names(ys)]
            rows[x] = tuple(sorted(pairs))
        elif encoding == "lmc":
            row = []
            for lab, body in _LABEL_DIST_RE.findall(rhs):
                if not body:
                    row.append(None)
                    continue
                entries = [e.split(": ") for e in _names(body)]
                row.append(tuple(sorted((ids[y], Fraction(w)) for y, w in entries)))
            if len(row) != len(LMC_LABELS):
                raise ValueError("bad row %r" % line)
            rows[x] = tuple(row)
        else:
            raise ValueError("cannot read encoding %r" % encoding)
    if any(r is None for r in rows):
        raise ValueError("a state has no row")
    kind = "llts" if encoding == "llts-exp" else encoding
    return names, Model(kind, rows)
