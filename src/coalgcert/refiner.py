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
As F! of a key is its initial block's value, equal split keys are one
entry of the key table.

The compounds.  Q's blocks are compounds of P-blocks, numbered in order
of creation: the root compound 0 holds the initial blocks, and split i
makes compound i + 1 = {S}.  Each compound keeps its blocks on one doubly
linked list, in insertion order, in flat lists indexed by block id (the
compound, the next and the previous block) and by compound id (the
list's ends, its numbers of blocks and of states, whether it is queued),
as Valmari and Franceschinis keep blocks and cords ("Simple O(m log n)
time Markov chain lumping", TACAS 2010).  S is the smaller of its
compound's first two blocks, the first on a tie; it is unlinked, and a
refined block's new children join the end of their parent's list.  A
compound of two or more blocks waits in a FIFO queue.

The trace.  Every refinement step is recorded in a Trace, from which the
certificate builder, the proof and the distinguishing-formula search
replay the whole run; it holds no object per split, only int arrays
and the key table, written through its add_ methods and read through
Trace.event:

  per split i:       its splitter and its compound B (the new compound
                     {S} is i + 1), and the offset of its refinements;
  per refinement:    its parent, and the offset of its children;
                     refinement 0 is the initial partition;
  per child:         its block id, its key's index in the key table
                     (~index for the default child, which keeps the
                     states that no other child lists), and the end of
                     its states in one shared states array.

The key table lists each key value once per (initial block, signature),
and each initial block's F! . c.  logic, oracle and quotient key with
fmap; they share functor.vec, the canonical form of a weight layer, with
the refiner, but not its cells.  logic's proof reads the edge table's
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


class Trace:
    """The steps of one run in int arrays (module docstring, "The trace").
    refine writes it through add_key, add_split, add_refinement and
    add_child; readers read it through event(i), and a split's refined
    blocks alone through parents(i).  len() counts the splits."""

    def __init__(self, mode, n):
        self.mode, self.n = mode, n
        self.keys = []  # the key table
        self.split_S, self.split_B = array("i"), array("i")
        # offsets: the refinements of split i are split_refs[i + 1] up to
        # split_refs[i + 2]; refinement 0 is the initial partition
        self.split_refs = array("i", [0, 1])
        self.ref_parent = array("i", [-1])
        self.ref_children = array("i", [0, 0])
        self.child_block, self.child_key = array("i"), array("i")
        self.child_states, self.states = array("i", [0]), array("i")

    def __len__(self):
        return len(self.split_S)

    def add_key(self, value):
        """Enter a key into the table; its index."""
        self.keys.append(value)
        return len(self.keys) - 1

    def add_split(self, splitter, compound):
        self.split_S.append(splitter)
        self.split_B.append(compound)
        self.split_refs.append(self.split_refs[-1])

    def add_refinement(self, parent):
        """Open a refinement of the last split."""
        self.ref_parent.append(parent)
        self.ref_children.append(self.ref_children[-1])
        self.split_refs[-1] += 1

    def add_child(self, block, key, states):
        """Add a child to the last refinement, or to the initial partition
        before the first split: its block id, its key's index in the
        table, and its states, or None for the default child."""
        self.child_block.append(block)
        if states is None:
            self.child_key.append(~key)
        else:
            self.child_key.append(key)
            self.states.extend(states)
        self.child_states.append(len(self.states))
        self.ref_children[-1] += 1

    def parents(self, i):
        """The ids of the blocks that split i refines, in trace order."""
        return self.ref_parent[self.split_refs[i + 1]:self.split_refs[i + 2]]

    def event(self, i):
        """Split i as (splitter, compound, refinements), each refinement
        a (parent, children) pair and each child a (block id, key, states)
        triple, states None for the default child.  Split i's new
        compound is i + 1.  Split -1 is the initial partition, as
        (None, None, [(None, children)])."""
        keys, at, states = self.keys, self.child_states, self.states
        block, key, parent = self.child_block, self.child_key, self.ref_parent
        refinements = []
        for r in range(self.split_refs[i + 1], self.split_refs[i + 2]):
            children = []
            for k in range(self.ref_children[r], self.ref_children[r + 1]):
                j = key[k]
                children.append((block[k], keys[j], states[at[k]:at[k + 1]])
                                if j >= 0 else (block[k], keys[~j], None))
            refinements.append((parent[r] if i >= 0 else None, children))
        if i < 0:
            return None, None, refinements
        return self.split_S[i], self.split_B[i], refinements


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

    def sigs(self, states, colour, three, merged=False):
        """The signatures of touched states, in order (module docstring,
        step 2).  With ``merged`` S counts as part of B (generic) or of the
        outside (two-colour): that is the block's default key."""
        e, cw, toward_B, toward_S = (
            self.edges, self.cw, self.toward_B, self.toward_S)
        total, scale, leaf_start, ident, ident_start = (
            e.total, e.scale, e.leaf_start, e.ident, e.ident_start)
        out = []
        for x in states:
            lo, hi = leaf_start[x], leaf_start[x + 1]
            b = toward_B[x] + 1 - lo   # cw[b + j] is leaf j's weight into B
            s = toward_S[x] + 1 - lo
            sig = []
            for j in range(lo, hi):
                t, d, wb = total[j], scale[j], cw[b + j]
                ws = 0 if merged else cw[s + j]
                if not d:
                    sig.append((t > wb) | (wb > ws) << 1 | (ws > 0) << 2)
                    continue  # a vec leaf; cancellative functors have no sets
                w = (t - wb, wb - ws, ws, d) if three else (t - ws, ws, d)
                g = gcd(*w)
                sig.append(tuple([a // g for a in w]) if g > 1 else w)
            if ident_start[x + 1] > ident_start[x]:
                cols = map(colour, ident[ident_start[x]:ident_start[x + 1]])
                sig += ([1 if k and three else 0 for k in cols] if merged
                        else cols)
            out.append(tuple(sig))
        return out

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
    trace = Trace(mode, n)
    for b, v in init_groups:
        trace.add_child(b, trace.add_key(v), sorted(part.block_states(b)))
    visited, in_splitter = 0, [0] * n  # edges read; times each x was in S
    block_of, first, end, marked = part.block_of, part.first, part.end, \
        part.marked
    init_of = list(block_of)
    weights = _SplitWeights(c)
    positions, leaf_start = c.edges.positions, c.edges.leaf_start
    keys = {}  # (initial block, signature) -> index in the key table

    def key_of(x, sig):
        r = (init_of[x], sig)
        if r not in keys:  # a miss: walk x's row, reading sig's codes
            k = leaf_start[x + 1] - leaf_start[x]  # x's leaves' codes
            leaves = iter([vec(enumerate(a[:-1]), a[-1]) if type(a) is tuple
                           else _SET_KEYS[a] for a in sig[:k]])
            colours = iter(sig[k:])
            keys[r] = trace.add_key(walk_row(
                structure[x], lambda _node: next(leaves),
                lambda _y: next(colours)))
        return keys[r]

    # the compounds (module docstring, "The compounds"): per block its
    # compound and its neighbours on the compound's list, -1 for none; per
    # compound its list's ends, its numbers of blocks and of states, and
    # whether it waits in the queue.  There are at most n of each
    cmp_of, nxt, prv = [0] * n, [-1] * n, [-1] * n
    head, tail, count = [-1] * n, [-1] * n, [0] * n
    cmp_size, queued = [0] * n, [False] * n
    queue = deque()

    def link(b, cid):  # block b joins the end of compound cid's list
        t = tail[cid]
        if t < 0:
            head[cid] = b
        else:
            nxt[t] = b
        prv[b], nxt[b], cmp_of[b], tail[cid] = t, -1, cid, b
        count[cid] += 1

    def enqueue(cid):
        if count[cid] >= 2 and not queued[cid]:
            queue.append(cid)
            queued[cid] = True

    # colours of a state under the current split of S off B
    three = mode == "generic"
    if three:
        def colour(y):
            b = block_of[y]
            return 2 if b == S else (1 if cmp_of[b] == cmpB else 0)
    else:
        def colour(y):
            return 1 if block_of[y] == S else 0

    if n:  # the root compound 0 lists the initial blocks
        for b in range(part.num_blocks()):
            link(b, 0)
        cmp_size[0] = n
        enqueue(0)

    refined = 0
    while queue:
        cmpB = queue.popleft()
        queued[cmpB] = False
        if count[cmpB] < 2:
            continue  # became simple while waiting: stale entry
        a = head[cmpB]
        b2 = nxt[a]
        S = a if end[a] - first[a] <= end[b2] - first[b2] else b2
        S_states = part.block_states(S)
        size_S = len(S_states)
        assert 2 * size_S <= cmp_size[cmpB]
        for s in S_states:
            in_splitter[s] += 1

        # phase 1: key the affected states while S still counts as part of B
        plans = []  # (parent, signature -> states, default key or None)
        touched, read = weights.collect(S_states, block_of)
        visited += read
        for T, t_states in touched.items():
            size = end[T] - first[T]
            if size == 1:
                continue  # a one-state block cannot split
            part.mark(*t_states)  # to the front of T's slice, whose order
            marked[T] = 0         # later splits read
            groups = {}  # signature -> states
            for x, sig in zip(t_states, weights.sigs(t_states, colour, three)):
                visited += positions[x]
                groups.setdefault(sig, []).append(x)
            default = None
            if len(t_states) < size:
                x = t_states[0]
                visited += positions[x]
                default = weights.sigs((x,), colour, three, merged=True)[0]
                groups.pop(default, None)  # cancelled back to the default
                if not groups:
                    continue
                default = key_of(x, default)
            elif len(groups) == 1:
                continue
            plans.append((T, groups, default))
        weights.commit(touched)

        # phase 2: extract S from its compound (refine Q) into a new one
        p, q = prv[S], nxt[S]
        if p < 0:
            head[cmpB] = q
        else:
            nxt[p] = q
        if q < 0:
            tail[cmpB] = p
        else:
            prv[q] = p
        count[cmpB] -= 1
        cmp_size[cmpB] -= size_S
        cmpS = len(trace) + 1
        link(S, cmpS)
        cmp_size[cmpS] = size_S
        enqueue(cmpB)

        # phase 3: refine P and record the split
        trace.add_split(S, cmpB)
        refined += len(plans)
        for T, groups, default in plans:
            trace.add_refinement(T)
            items = [(key_of(g[0], sig), g) for sig, g in groups.items()]
            if default is not None:
                trace.add_child(T, default, None)
                moved = items
            else:
                trace.add_child(T, *items[0])
                moved = items[1:]
            new_ids = part.extract_groups(T, [g for _, g in moved])
            cmpT = cmp_of[T]
            for nb, (key, g) in zip(new_ids, moved):
                trace.add_child(nb, key, g)
                link(nb, cmpT)
            enqueue(cmpT)
        if audit:
            part.audit()
            _audit_compounds(part, len(trace) + 1, cmp_of, nxt, prv, head,
                             tail, count, cmp_size, queued, queue)

    stats = dict(  # the counters, read once the run is over
        iterations=len(trace), splitter_states=sum(in_splitter),
        max_in_splitter=max(in_splitter, default=0), visited_edges=visited,
        new_blocks=part.num_blocks() - len(init_groups), key_walks=len(keys),
        refined_parents=refined)
    blocks = [sorted(part.block_states(b)) for b in range(part.num_blocks())]
    return PartitionResult(blocks, list(part.block_of), trace, stats)


def _audit_compounds(part, compounds, cmp_of, nxt, prv, head, tail, count,
                     cmp_size, queued, queue):
    """Each block is on exactly one compound's list, each list is linked
    both ways and matches its compound's counts, and the compounds of two
    or more blocks are the queued ones (tests only)."""
    on = [0] * part.num_blocks()
    for C in range(compounds):
        b, before, k, size = head[C], -1, 0, 0
        while b >= 0:
            assert cmp_of[b] == C and prv[b] == before
            on[b] += 1
            k += 1
            size += part.size(b)
            before, b = b, nxt[b]
        assert tail[C] == before and count[C] == k and cmp_size[C] == size
        assert k < 2 or queued[C]
    assert on == [1] * len(on)
    assert sorted(queue) == [C for C in range(compounds) if queued[C]]


def replay_trace(trace):
    """Rebuild the final block assignment from the trace alone.  Each
    refinement of T must list distinct states of T, all of them unless a
    default child keeps the rest, or RefineError(split, T, state, why).
    certify --verify does not run it: logic.check_certificates makes the
    same checks in its own replay."""
    block_of, listed_in, size = [None] * trace.n, [-1] * trace.n, {}
    _S, _B, [(_T, init)] = trace.event(-1)
    for bid, _val, states in init:
        size[bid] = len(states)
        for s in states:
            block_of[s] = bid
    for i in range(len(trace)):
        for T, children in trace.event(i)[2]:
            rest = size[T]  # states listed by no child
            for cid, _val, states in children:
                for s in states or ():
                    if block_of[s] != T or listed_in[s] == i:
                        raise RefineError(i, T, s, "is not in the block, "
                                          "or listed twice")
                    listed_in[s], block_of[s] = i, cid
                if states is not None:
                    rest -= len(states)
                    size[cid] = len(states)
            if children[0][2] is None:  # the default child keeps the rest
                if not rest:
                    raise RefineError(i, T, s,
                                      "leaves the default child empty")
                size[T] = rest
            elif rest:
                x = next(x for x in range(trace.n)
                         if block_of[x] == T and listed_in[x] != i)
                raise RefineError(i, T, x, "is in the block but in no child")
    return block_of
