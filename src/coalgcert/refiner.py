"""Quasilinear partition refinement for coalgebras.

The loop keeps two partitions: the fine partition P (a RefinablePartition)
and a coarser one Q, represented implicitly by grouping P-blocks into
compound descriptors.  While some compound holds at least two P-blocks, a
sub-block S with 2|S| <= |B| is extracted from its compound B, and every
P-block is refined by the key

    generic mode        F(chi_S^B) . c      over palette {0: outside B,
                                            1: in B minus S, 2: in S}
    cancellative mode   F(chi_S) . c        over palette {0: outside S, 1: in S}

A split costs the edges into S, not the rows of their sources.  The
in-edges of S, with their weights and collection leaves, come from the
coalgebra's edge table (coalgebra.EdgeTable), whose vec weights are
integers over their layer's denominator: bookkeeping adds and subtracts
integers, and functor.vec builds a key's weight layers, as it builds
fmap's.  A leaf's weight w(l, C) into a compound C lives in a cell shared
by the leaves of its state: cell (x, C) holds the number of edges from x
into C and, per leaf l of x, w(l, C).
Initially each state has one cell, toward the root compound, holding its
totals, and each in-edge points at its source's cell toward the compound
of its target.  Splitting S off B:

  1. walk the in-edges of S; for each source x (a touched state) remember
     its cell (x, B) from the edge, accumulate its weights into S in a
     fresh cell (x, S), each in its leaf's slot, and point the edge at
     that cell;
  2. group the touched states by a flat signature, read from the cells,
     never a collection's contents: per leaf, in leaf order, a set leaf's
     mask of the colours present among (total - w(l,B), w(l,B) - w_S,
     w_S), a vec leaf's three weights (two-colour: total - w_S, w_S) and
     its denominator, divided by their gcd; then the colours of its
     identity and op positions (EdgeTable.ident), in row order;
  3. subtract the weights into S from cell (x, B); a cell no edge points
     to any more is recycled.

A block of one state can never split, so its touched state is not keyed;
steps 1 and 3 still run for it, to keep its cells right.  States without
an edge into S keep their block's shared default key.  P is stable for Q:
the states of a block share the value of F(chi_C) for every compound C.
So the default key is the key any state of the block gets with S merged
back into its surroundings (into B in generic mode, into the outside in
cancellative mode); it is computed from the block's first touched state.
Keyed states whose key equals the default key (possible with cancelling
weights) merge back into the default group.

A group's key is fmap's value, kept in one table per run by (initial
block, signature); a miss builds it from the signature by walk_row, the
walk that numbered the leaves.  F! . c records every tag, atom, operation,
arity, set emptiness and vec total, so an initial block's rows share their
shape; both codes are injective, so there equal signatures are equal keys.
As F! of a key is its initial block's value, equal keys are one object.

Every refinement step is recorded in a trace from which the certificate
builder and the distinguishing-formula search replay the whole run.  It
holds each block's key.  logic, oracle and quotient key with fmap; they
share functor.vec, the canonical form of a weight layer, with the
refiner, but not its cells.  logic's proof reads the edge table's
in-edges, to find the states that a split touches, but not its weights.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from math import gcd

from .coalgebra import walk_row
from .functor import is_cancellative, is_zippable, vec
from .partition import RefinablePartition

MODES = ("generic", "cancellative")


# key of a set leaf, by the colours present: bit i set when colour i occurs
_SET_KEYS = [("set", tuple(i for i in range(3) if mask >> i & 1))
             for mask in range(8)]


class RefineError(RuntimeError):
    pass


@dataclass
class InitEvent:
    # (block id, value of F! . c on the block, states)
    blocks: list


@dataclass
class Refinement:
    parent: int
    # (child block id, split key value, moved states or None for the
    # untouched remainder that keeps the parent id)
    children: list


@dataclass
class SplitEvent:
    splitter: int          # P-block id of S at the time of the split
    compound: int          # descriptor of B (keeps describing B minus S)
    new_compound: int      # fresh descriptor for {S}
    refinements: list


@dataclass
class Trace:
    mode: str
    n: int
    init: InitEvent
    splits: list


@dataclass
class PartitionResult:
    blocks: list       # sorted state lists, by block id
    block_of: list
    trace: Trace
    stats: dict


def initial_partition(c):
    """Group states by the output value F! . c (palette of size 1), keyed
    from the edge table's leaf totals.

    Returns (partition, [(block id, value)])."""
    part = RefinablePartition(c.n)
    if c.n == 0:
        return part, []
    e = c.edges
    leaf_start, total, scale = e.leaf_start, e.total, e.scale

    def leaf(j):
        d = scale[j]
        return vec(((0, total[j]),), d) if d else _SET_KEYS[total[j] > 0]

    def key(x):
        leaves = map(leaf, range(leaf_start[x], leaf_start[x + 1]))
        return walk_row(c.structure[x], lambda _node: next(leaves),
                        lambda _y: 0)

    return part, part.split_by_key(0, key)


class _SplitWeights:
    """Per-compound leaf weights over the coalgebra's edge table (see the
    module docstring).  Cells live in the flat list cw: cell c holds the
    edge count at cw[c] and the weight of leaf j at cw[c + 1 + j]; edge p
    counts in cell cell[p] of its source."""

    def __init__(self, c):
        n = c.n
        self.edges = e = c.edges
        leaf_start, total = e.leaf_start, e.total
        self.cw = cw = [0]  # cell 0: the dummy cell of every leafless state
        home = [0] * n
        for x, d in enumerate(e.degree):
            lo, hi = leaf_start[x], leaf_start[x + 1]
            if hi > lo:
                home[x] = len(cw)
                cw.append(d)
                cw.extend(total[lo:hi])
        self.cell = array("i", map(home.__getitem__, e.src))
        widest = max((leaf_start[x + 1] - leaf_start[x] for x in range(n)),
                     default=0)
        self.zeros = [[0] * (k + 1) for k in range(widest + 1)]
        self.free = [[] for _ in range(widest + 1)]  # recycled cells by width
        # per state, valid for the touched states of the current split:
        # its cell toward B, its cell toward S, and the split it was
        # last touched in
        self.toward_B = [0] * n
        self.toward_S = [0] * n
        self.touched_in = [0] * n
        self.splits = 0

    def collect(self, S_states, block_of):
        """Read the edges into S.

        Returns (touched states grouped by block in order of first touch,
        number of edges read).  Each touched state's cell toward B and its
        fresh cell holding its weights into S are kept for key() and
        commit().  States without leaves share the dummy cell 0."""
        e, cell, cw = self.edges, self.cell, self.cw
        start, src, slot, wt, leaf_start = (
            e.start, e.src, e.slot, e.wt, e.leaf_start)
        free, zeros = self.free, self.zeros
        toward_B, toward_S, touched_in = (
            self.toward_B, self.toward_S, self.touched_in)
        self.splits += 1
        now = self.splits
        touched = {}
        read = 0
        for y in S_states:
            lo, hi = start[y], start[y + 1]
            read += hi - lo
            for p in range(lo, hi):
                x = src[p]
                if touched_in[x] == now:
                    cs = toward_S[x]
                else:
                    touched_in[x] = now
                    toward_B[x] = cell[p]
                    width = leaf_start[x + 1] - leaf_start[x]
                    if not width:
                        cs = 0
                    elif free[width]:
                        cs = free[width].pop()
                        cw[cs:cs + width + 1] = zeros[width]
                    else:
                        cs = len(cw)
                        cw.extend(zeros[width])
                    toward_S[x] = cs
                    touched.setdefault(block_of[x], []).append(x)
                cell[p] = cs
                cw[cs] += 1
                s = slot[p]
                if s:
                    cw[cs + s] += wt[p]
        return touched, read

    def sig(self, x, colour, three, merged=False):
        """The signature of touched state x (module docstring, step 2).
        With ``merged`` S counts as part of B (generic) or of the outside
        (two-colour): that is the block's default key."""
        e, cw = self.edges, self.cw
        total, scale, ident_start = e.total, e.scale, e.ident_start
        lo, hi = e.leaf_start[x], e.leaf_start[x + 1]
        b = self.toward_B[x] + 1 - lo   # cw[b + j] is leaf j's weight into B
        s = self.toward_S[x] + 1 - lo
        out = []
        for j in range(lo, hi):
            t, d, wb = total[j], scale[j], cw[b + j]
            ws = 0 if merged else cw[s + j]
            if not d:
                out.append((t > wb) | (wb > ws) << 1 | (ws > 0) << 2)
                continue  # a vec leaf; cancellative functors have no sets
            w = (t - wb, wb - ws, ws, d) if three else (t - ws, ws, d)
            g = gcd(*w)
            out.append(tuple([a // g for a in w]) if g > 1 else w)
        if ident_start[x + 1] > ident_start[x]:
            cols = map(colour, e.ident[ident_start[x]:ident_start[x + 1]])
            out += [1 if k and three else 0 for k in cols] if merged else cols
        return tuple(out)

    def commit(self, touched):
        """Move the weights into S out of the touched states' cells toward B."""
        cw, leaf_start, free = self.cw, self.edges.leaf_start, self.free
        for states in touched.values():
            for x in states:
                width = leaf_start[x + 1] - leaf_start[x]
                if not width:
                    continue
                cb, cs = self.toward_B[x], self.toward_S[x]
                cw[cb] -= cw[cs]
                if cw[cb] == 0:  # every edge of x into B went into S
                    free[width].append(cb)
                else:
                    for i in range(1, width + 1):
                        cw[cb + i] -= cw[cs + i]


def refine(c, mode="generic", audit=False):
    """Run partition refinement to behavioural equivalence.

    mode: 'generic' uses three-colour keys; 'cancellative' uses the cheaper
    two-colour keys (sound only for cancellative functors).
    """
    if mode not in MODES:
        raise RefineError("unknown mode %r" % mode)
    ok, why = is_zippable(c.functor)
    if not ok:
        raise RefineError(why)
    if mode == "cancellative" and not is_cancellative(c.functor):
        raise RefineError("functor is not cancellative; use generic mode")
    structure = c.structure
    n = c.n
    part, init_groups = initial_partition(c)
    init = InitEvent([(b, v, tuple(sorted(part.block_states(b))))
                      for b, v in init_groups])
    trace = Trace(mode, n, init, [])
    visited, in_splitter = 0, [0] * n  # edges read; times each x was in S
    block_of = part.block_of
    init_of = list(block_of)
    weights = _SplitWeights(c)
    positions, leaf_start = c.edges.positions, c.edges.leaf_start
    keys = {}  # (initial block, signature) -> split key

    def key_of(x, sig):
        r = (init_of[x], sig)
        if r not in keys:  # a miss: walk x's row, reading sig's codes
            k = leaf_start[x + 1] - leaf_start[x]  # x's leaves' codes
            leaves = iter([vec(enumerate(a[:-1]), a[-1]) if type(a) is tuple
                           else _SET_KEYS[a] for a in sig[:k]])
            colours = iter(sig[k:])
            keys[r] = walk_row(structure[x], lambda _node: next(leaves),
                               lambda _y: next(colours))
        return keys[r]

    qof = {}            # block id -> compound id
    members = {}        # compound id -> insertion-ordered dict of block ids
    cmp_size = {}
    queue = deque()
    queued = set()
    next_cmp = 0

    def new_compound(block_ids, size):
        nonlocal next_cmp
        cid = next_cmp
        next_cmp += 1
        members[cid] = dict.fromkeys(block_ids)
        cmp_size[cid] = size
        for b in block_ids:
            qof[b] = cid
        return cid

    def maybe_enqueue(cid):
        if len(members[cid]) >= 2 and cid not in queued:
            queue.append(cid)
            queued.add(cid)

    # colours of a state under the current split of S off B
    three = mode == "generic"
    if three:
        def colour(y):
            b = block_of[y]
            return 2 if b == S else (1 if qof[b] == cmpB else 0)
    else:
        def colour(y):
            return 1 if block_of[y] == S else 0

    if n:
        root = new_compound(list(range(part.num_blocks())), n)
        maybe_enqueue(root)

    while queue:
        cmpB = queue.popleft()
        queued.discard(cmpB)
        if len(members[cmpB]) < 2:
            continue  # became simple while waiting: stale entry
        it = iter(members[cmpB])
        a = next(it)
        b2 = next(it)
        S = a if part.size(a) <= part.size(b2) else b2
        assert 2 * part.size(S) <= cmp_size[cmpB]
        S_states = tuple(part.block_states(S))
        for s in S_states:
            in_splitter[s] += 1

        # phase 1: key the affected states while S still counts as part of B
        plans = []  # (parent, signature -> states, default key or None)
        touched, read = weights.collect(S_states, block_of)
        visited += read
        for T, t_states in touched.items():
            if part.size(T) == 1:
                continue  # a one-state block cannot split
            for x in t_states:
                part.mark(x)
            groups = {}  # signature -> states
            for x in t_states:
                visited += positions[x]
                groups.setdefault(weights.sig(x, colour, three), []).append(x)
            default = None
            if part.marked[T] < part.size(T):
                x = t_states[0]
                visited += positions[x]
                default = weights.sig(x, colour, three, merged=True)
                groups.pop(default, None)  # cancelled back to the default
                if not groups:
                    part.marked[T] = 0
                    continue
                default = key_of(x, default)
            elif len(groups) == 1:
                part.marked[T] = 0
                continue
            part.marked[T] = 0
            plans.append((T, groups, default))
        weights.commit(touched)

        # phase 2: extract S from its compound (refine Q)
        members[cmpB].pop(S)
        cmp_size[cmpB] -= len(S_states)
        cmpS = new_compound([S], len(S_states))
        maybe_enqueue(cmpB)

        # phase 3: refine P and record the event
        refinements = []
        for T, groups, default in plans:
            items = [(key_of(g[0], sig), g) for sig, g in groups.items()]
            if default is not None:
                children = [(T, default, None)]
                moved = items
            else:
                children = [(T, items[0][0], tuple(items[0][1]))]
                moved = items[1:]
            new_ids = part.extract_groups(T, [g for _, g in moved])
            children.extend((nb, key, tuple(g))
                            for nb, (key, g) in zip(new_ids, moved))
            cmpT = qof[T]
            for nb in new_ids:
                members[cmpT][nb] = None
                qof[nb] = cmpT
            maybe_enqueue(cmpT)
            refinements.append(Refinement(T, children))
        trace.splits.append(SplitEvent(S, cmpB, cmpS, refinements))
        if audit:
            part.audit()
            assert all(len(ms) >= 1 for ms in members.values())

    stats = dict(  # the counters, read once the run is over
        iterations=len(trace.splits), splitter_states=sum(in_splitter),
        max_in_splitter=max(in_splitter, default=0), visited_edges=visited,
        new_blocks=part.num_blocks() - len(init_groups), key_walks=len(keys),
        refined_parents=sum([len(ev.refinements) for ev in trace.splits]))
    blocks = [sorted(part.block_states(b)) for b in range(part.num_blocks())]
    return PartitionResult(blocks, list(part.block_of), trace, stats)


def replay_trace(trace):
    """Rebuild the final block assignment from the trace alone.  Each
    refinement of T must list distinct states of T, all of them unless a
    default child keeps the rest, or RefineError(split, T, state, why).
    certify --verify does not run it: logic.check_certificates makes the
    same checks in its own replay."""
    block_of, listed_in, size = [None] * trace.n, [-1] * trace.n, {}
    for bid, _val, states in trace.init.blocks:
        size[bid] = len(states)
        for s in states:
            block_of[s] = bid
    for i, ev in enumerate(trace.splits):
        for ref in ev.refinements:
            T, rest = ref.parent, size[ref.parent]  # rest: listed by no child
            for cid, _val, states in ref.children:
                for s in states or ():
                    if block_of[s] != T or listed_in[s] == i:
                        raise RefineError(i, T, s, "is not in the block, "
                                          "or listed twice")
                    listed_in[s], block_of[s] = i, cid
                if states is not None:
                    rest -= len(states)
                    size[cid] = len(states)
            if ref.children[0][2] is None:  # the default child keeps the rest
                if not rest:
                    raise RefineError(i, T, s,
                                      "leaves the default child empty")
                size[T] = rest
            elif rest:
                x = next(x for x in range(trace.n)
                         if block_of[x] == T and listed_in[x] != i)
                raise RefineError(i, T, x, "is in the block but in no child")
    return block_of
