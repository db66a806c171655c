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
of its target.  Splitting S off B is one pass of refine's loop, in
phases over flat arrays bound once per run (the edge table, the cells,
and the partition's elems, loc, first and end), with no call per edge
or per child; a keyed state costs one call, for its signature:

  1. walk the in-edges of S; for each source x (a touched state) remember
     its cell (x, B) from the edge, accumulate its weights into S in a
     fresh cell (x, S), each in its leaf's slot, and point the edge at
     that cell;
  2. per touched block, move its touched states to the front of its
     slice and group them by a flat signature, read from the cells,
     never a collection's contents: per leaf, in leaf order, a set leaf's
     mask of the colours present among (total - w(l,B), w(l,B) - w_S,
     w_S), a vec leaf's three weights (two-colour: total - w_S, w_S) and
     its denominator, divided by their gcd; then the colours of its
     identity and op positions (EdgeTable.ident), in row order;
  3. subtract the weights into S from cell (x, B); a cell no edge points
     to any more is recycled;
  4. extract S from its compound into a new one (below);
  5. split each refined block's groups off, in one partition call, and
     record the refinement in one trace call.

A block of one state can never split, so its touched state is not keyed;
phases 1 and 3 still run for it, to keep its cells right.  States without
an edge into S keep their block's shared default key.  P is stable for Q:
the states of a block share the value of F(chi_C) for every compound C.
So the default key is the key any state of the block gets with S merged
back into its surroundings (into B in generic mode, into the outside in
cancellative mode); it is computed from the block's first touched state.
Keyed states whose key equals the default key (possible with cancelling
weights) merge back into the default group.

A group's key is fmap's value, kept per run in one table per initial
block, by signature; a miss builds it from the signature by walk_row, the
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
and the key table, written through add_key, add_split and one
add_refinement per refinement.  certdag.build_certificates reads the
arrays; readers that need a split's states read Trace.event:

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
    """The steps of one run in int arrays (module docstring, "The trace"),
    written through add_key, add_split and add_refinement.  event(i) reads
    split i with its states, parents(i) its refined blocks alone; len()
    counts the splits."""

    def __init__(self, mode, n):
        self.mode, self.n = mode, n
        self.keys = []  # the key table
        self.split_S, self.split_B = array("i"), array("i")
        # offsets: the refinements of split i are split_refs[i + 1] up to
        # split_refs[i + 2]; refinement 0 is the initial partition
        self.split_refs = array("i", [0, 0])
        self.ref_parent, self.ref_children = array("i"), array("i", [0])
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

    def add_refinement(self, parent, children):
        """Add a refinement of block parent to the last split, or the
        initial partition (parent -1) before the first split.  children
        are (block id, index of its key in the table, states) triples,
        states None for the default child."""
        block, key, at, states = (
            self.child_block, self.child_key, self.child_states, self.states)
        self.ref_parent.append(parent)
        for b, k, g in children:
            block.append(b)
            if g is None:
                key.append(~k)
            else:
                key.append(k)
                states.extend(g)
            at.append(len(states))
        self.ref_children.append(len(block))
        self.split_refs[-1] += 1

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


def _cells(e, n):
    """The initial cells over the edge table e (module docstring), as
    (cw, cell, width, zeros, free).  Cells live in the flat list cw: cell c
    holds the edge count at cw[c] and the weight of leaf j at cw[c + 1 + j];
    edge p counts in cell cell[p] of its source; state x has width[x]
    leaves.  Cell 0 is the dummy cell of every leafless state; zeros[k] is
    a fresh cell of k leaves, and free[k] lists the recycled ones."""
    leaf_start, total = e.leaf_start, e.total
    width = [leaf_start[x + 1] - leaf_start[x] for x in range(n)]
    cw, home = [0], [0] * n
    for x, d in enumerate(e.degree):
        if width[x]:
            home[x] = len(cw)
            cw.append(d)
            cw.extend(total[leaf_start[x]:leaf_start[x + 1]])
    cell = array("i", map(home.__getitem__, e.src))
    widest = max(width, default=0)
    zeros = [[0] * (k + 1) for k in range(widest + 1)]
    return cw, cell, width, zeros, [[] for _ in range(widest + 1)]


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
    structure, n, e = c.structure, c.n, c.edges
    part, init_groups = initial_partition(c)
    trace = Trace(mode, n)
    trace.add_refinement(-1, [
        (b, trace.add_key(v), sorted(part.block_states(b)))
        for b, v in init_groups])
    elems, loc, block_of, first, end = (
        part.elems, part.loc, part.block_of, part.first, part.end)
    init_of = list(block_of)
    # per initial block: signature -> index of its key in the key table
    tables = [{} for _ in init_groups]
    cw, cell, width, zeros, free = _cells(e, n)
    start, src, slot, wt, positions, total, scale = (
        e.start, e.src, e.slot, e.wt, e.positions, e.total, e.scale)
    leaf_start, ident, ident_start = e.leaf_start, e.ident, e.ident_start
    # per state, valid for the touched states of the current split: its
    # cell toward B, its cell toward S, and the split it was last touched in
    toward_B, toward_S, touched_in = [0] * n, [0] * n, [-1] * n
    # edges read; times each x was in S; signatures read
    visited, in_splitter, keyed = 0, [0] * n, 0
    three = mode == "generic"
    in_S = 2 if three else 1  # the colour of S

    def walk(x, sig):  # a key-table miss: walk x's row, reading sig's codes
        k = width[x]  # x's leaves' codes
        leaves = iter([vec(enumerate(a[:-1]), a[-1]) if type(a) is tuple
                       else _SET_KEYS[a] for a in sig[:k]])
        colours = iter(sig[k:])
        return trace.add_key(walk_row(
            structure[x], lambda _node: next(leaves),
            lambda _y: next(colours)))

    def signature(x, merged):
        """x's signature (module docstring, phase 2).  With ``merged`` S
        counts as part of B (generic) or of the outside (two-colour): that
        is the block's default key."""
        lo, hi = leaf_start[x], leaf_start[x + 1]
        b = toward_B[x] + 1 - lo  # cw[b + j] is leaf j's weight into B
        s = toward_S[x] + 1 - lo
        sig = []
        for j in range(lo, hi):
            t, d, wb = total[j], scale[j], cw[b + j]
            ws = 0 if merged else cw[s + j]
            if not d:
                sig.append((t > wb) | (wb > ws) << 1 | (ws > 0) << 2)
            elif three:  # a vec leaf's weights, divided by their gcd
                w0, w1 = t - wb, wb - ws
                g = gcd(w0, w1, ws, d)
                sig.append((w0 // g, w1 // g, ws // g, d // g) if g > 1
                           else (w0, w1, ws, d))
            else:  # cancellative functors have no sets
                w0 = t - ws
                g = gcd(w0, ws, d)
                sig.append((w0 // g, ws // g, d // g) if g > 1
                           else (w0, ws, d))
        for y in ident[ident_start[x]:ident_start[x + 1]]:
            b = block_of[y]  # y's colour: in S, elsewhere in B, or outside
            sig.append(in_S if b == S and not merged else
                       1 if three and cmp_of[b] == cmpB else 0)
        return tuple(sig)

    # the compounds (module docstring, "The compounds"): per block its
    # compound and its neighbours on the compound's list, -1 for none; per
    # compound its list's ends, its numbers of blocks and of states, and
    # whether it waits in the queue.  There are at most n of each
    cmp_of, nxt, prv = [0] * n, [-1] * n, [-1] * n
    head, tail, count = [-1] * n, [-1] * n, [0] * n
    cmp_size, queued = [0] * n, [False] * n
    queue = deque()

    if n:  # the root compound 0 lists the initial blocks, in order
        k = len(init_groups)
        for b in range(1, k):
            nxt[b - 1], prv[b] = b, b - 1
        head[0], tail[0], count[0], cmp_size[0] = 0, k - 1, k, n
        if k >= 2:
            queue.append(0)
            queued[0] = True

    splits = refined = 0
    while queue:
        cmpB = queue.popleft()
        queued[cmpB] = False
        if count[cmpB] < 2:
            continue  # became simple while waiting: stale entry
        a = head[cmpB]
        b2 = nxt[a]
        S = a if end[a] - first[a] <= end[b2] - first[b2] else b2
        S_states = elems[first[S]:end[S]]
        size_S = len(S_states)
        assert 2 * size_S <= cmp_size[cmpB]

        # phase 1: read the in-edges of S into the touched states' cells
        touched = {}  # block -> its touched states, in order of first touch
        for y in S_states:
            in_splitter[y] += 1
            lo, hi = start[y], start[y + 1]
            visited += hi - lo
            for p in range(lo, hi):
                x = src[p]
                if touched_in[x] == splits:
                    cs = toward_S[x]
                else:
                    touched_in[x] = splits
                    toward_B[x] = cell[p]
                    k = width[x]
                    if not k:
                        cs = 0
                    elif free[k]:
                        cs = free[k].pop()
                        cw[cs:cs + k + 1] = zeros[k]
                    else:
                        cs = len(cw)
                        cw += zeros[k]
                    toward_S[x] = cs
                    T = block_of[x]
                    if T in touched:
                        touched[T].append(x)
                    else:
                        touched[T] = [x]
                cell[p] = cs
                cw[cs] += 1
                s = slot[p]
                if s:
                    cw[cs + s] += wt[p]

        # phases 2 and 3, per touched block T: key its touched states while
        # S still counts as part of B, then move their weights into S out of
        # their cells toward B
        plans = []  # (T, its key table, signature -> states, default key)
        for T, t_states in touched.items():
            f = first[T]
            size = end[T] - f
            if size > 1:  # a one-state block cannot split
                x = t_states[0]
                default = None
                if len(t_states) < size:
                    visited += positions[x]
                    default = signature(x, True)
                    keyed += 1
                tbl = tables[init_of[x]]
                groups = {}  # signature -> states
                for x in t_states:
                    # to the front of T's slice, whose order later splits read
                    i, y = loc[x], elems[f]
                    elems[i], elems[f], loc[y], loc[x] = y, x, i, f
                    f += 1
                    visited += positions[x]
                    sig = signature(x, False)
                    if sig in groups:
                        groups[sig].append(x)
                    else:
                        groups[sig] = [x]
                keyed += len(t_states)
                if default is not None:
                    groups.pop(default, None)  # cancelled back to the default
                    if groups:
                        j = tbl.get(default)
                        if j is None:
                            j = tbl[default] = walk(t_states[0], default)
                        plans.append((T, tbl, groups, j))
                elif len(groups) > 1:
                    plans.append((T, tbl, groups, None))
            for x in t_states:
                k = width[x]
                if k:
                    cb, cs = toward_B[x], toward_S[x]
                    cw[cb] -= cw[cs]
                    if cw[cb] == 0:  # every edge of x into B went into S
                        free[k].append(cb)
                    else:
                        for i in range(1, k + 1):
                            cw[cb + i] -= cw[cs + i]

        # phase 4: extract S from its compound (refine Q) into a new one
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
        splits += 1
        cmpS = splits  # split i's new compound is i + 1
        head[cmpS], tail[cmpS], count[cmpS], cmp_size[cmpS] = S, S, 1, size_S
        prv[S], nxt[S], cmp_of[S] = -1, -1, cmpS
        if count[cmpB] >= 2 and not queued[cmpB]:
            queue.append(cmpB)
            queued[cmpB] = True

        # phase 5: refine P and record the split
        trace.add_split(S, cmpB)
        refined += len(plans)
        for T, tbl, groups, default in plans:
            new = nb = len(first)  # the id of T's first new block
            children = [] if default is None else [(T, default, None)]
            for sig, g in groups.items():
                j = tbl.get(sig)
                if j is None:
                    j = tbl[sig] = walk(g[0], sig)
                if children:
                    children.append((nb, j, g))
                    nb += 1
                else:  # no default child: the first group keeps T's id
                    children.append((T, j, g))
            part.extract_groups(T, [g for _b, _j, g in children[1:]])
            trace.add_refinement(T, children)
            cmpT = cmp_of[T]
            t = tail[cmpT]  # the new blocks join the end of T's compound
            for b in range(new, nb):
                nxt[t], prv[b], cmp_of[b] = b, t, cmpT
                t = b
            tail[cmpT] = t
            count[cmpT] += nb - new
            if not queued[cmpT]:
                queue.append(cmpT)
                queued[cmpT] = True
        if audit:
            part.audit()
            _audit_compounds(part, splits + 1, cmp_of, nxt, prv, head, tail,
                             count, cmp_size, queued, queue)

    stats = dict(  # the counters, read once the run is over
        iterations=len(trace), splitter_states=sum(in_splitter),
        max_in_splitter=max(in_splitter, default=0), visited_edges=visited,
        new_blocks=part.num_blocks() - len(init_groups),
        key_walks=sum(map(len, tables)), keyed_states=keyed,
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
