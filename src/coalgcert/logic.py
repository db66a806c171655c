"""Evaluation of dag formulas over a coalgebra.

The modal clause is colouring-based: a binary modality <t>(phi, psi) holds
at x when applying the functor to the three-colour map induced by the two
extensions (2 on both, 1 on psi only, 0 elsewhere) reproduces exactly the
value t; unary and nullary modalities use two- and one-colour maps.

An extension is an int bitset, bit x for state x.  The nodes below a
reference are evaluated in one forward pass in ascending id order, in
which children come before parents (certdag.reach; a node the memo
holds is skipped): ``top`` is the full mask, a conjunction is ``&`` and
a negated reference ``full ^ ext``.  A modal node and a domain-specific
node take one step: colour the states by the classes of their arguments'
extensions, key the rows that need it, and keep the keys that pass the
node's test.  Only the sources of the edges into the states outside the
largest colour class L are keyed, read off the in-edges of the
coalgebra's edge table.  Every other state has all its successors
coloured L, so its key is F(const_L)(row), which depends on the node only
through L.  One table per L, built once per evaluator, maps these keys to
bitsets of states.  No per-state set of predecessors is kept.

check_certificates, the one check of ``certify --verify``, instead
replays the trace and checks each split's keys, the dag's shape and the
final partition's stability: an induction over the trace (see
_Induction), with no formula evaluated over the whole state set.  Like
the refiner, a split keys only the sources of the edges into its
splitter and the states a refinement lists.  The other states keep
their block's key, since each block gives all its states one value of
F(chi_C)(row) for every compound C.  The tests' check_extensions, which
evaluates every certificate, is its semantic reference.

The domain-specific formulas of translate.py live in the same kind of
arena and go through the same pass: ``or`` is ``|``, and a node
('ds', label, args) holds where the holds of label[0] in
translate.MODALITY accepts the row coloured 1 on its argument and 0
elsewhere, decided once per key of the table for L and per keyed state."""

from __future__ import annotations

from functools import partial
from operator import eq

from .certdag import AND, DS, MODAL, OR, TOP_NODE, FormulaDag, pack, reach
from .functor import unnest
from .partition import RefinablePartition
from .translate import MODALITY
from .values import (
    Scanner, ValueError_, fmap, parse_value, validate_value,
)


class EvalError(ValueError):
    pass


def _members(mask):
    """The state ids in a bitset, ascending."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def _mask(states):
    m = 0
    for x in states:
        m |= 1 << x
    return m


class _Extensions:
    """Bitset extensions of dag nodes over one coalgebra."""

    def __init__(self, c):
        self.c = c
        self.full = (1 << c.n) - 1
        self._const = {}    # L -> {F(const_L)(row): states with that key}

    def const(self, L):
        table = self._const.get(L)
        if table is None:
            g = [L] * self.c.n
            table = self._const[L] = {}
            for x, t in enumerate(self.c.structure):
                key = fmap(t, g)
                table[key] = table.get(key, 0) | 1 << x
        return table

    def ext(self, dag, ref, memo):
        """Bitset extension of ref; memo maps node ids to bitsets, and
        gains every node below ref that it lacked."""
        tag, left, right, label, labels = (
            dag.tag, dag.left, dag.right, dag.label, dag.labels)
        at = self.at
        for nid in reach(dag, [ref]):
            if nid in memo:  # and so is every node below it
                continue
            t = tag[nid]
            if t == AND:
                memo[nid] = at(left[nid], memo) & at(right[nid], memo)
            elif t == OR:
                memo[nid] = at(left[nid], memo) | at(right[nid], memo)
            elif t == TOP_NODE:
                memo[nid] = self.full
            elif t < DS:
                memo[nid] = self.modal(labels[label[nid]], t - MODAL,
                                       dag.args(nid), memo)
            else:
                memo[nid] = self.ds(labels[label[nid]], dag.args(nid), memo)
        return at(pack(ref), memo)

    def at(self, p, memo):
        """Bitset extension of the packed reference p, whose node memo
        holds."""
        return self.full ^ memo[p >> 1] if p & 1 else memo[p >> 1]

    def modal(self, val, arity, args, memo):
        k = (1, 2, 3)[arity]
        if not validate_value(self.c.functor, val, k):
            raise EvalError("modal label %r does not fit palette %d" % (val, k))
        full = self.full
        if arity == 0:
            classes = [full]
        elif arity == 1:
            phi = self.at(args[0], memo)
            classes = [full ^ phi, phi]
        else:
            phi, psi = self.at(args[0], memo), self.at(args[1], memo)
            classes = [full ^ psi, psi & ~phi, phi & psi]
        return self.step(classes, partial(eq, val),
                         lambda table: table.get(val, 0))

    def ds(self, label, args, memo):
        """A domain-specific modality holds at x when its holds accepts x's
        row, coloured 1 on its argument's extension and 0 elsewhere."""
        if label[0] not in MODALITY:
            raise EvalError("unsubstituted placeholder in formula")
        test = partial(MODALITY[label[0]][1], label, f=self.c.functor)
        phi = self.at(args[0], memo) if args else self.full
        return self.step([self.full ^ phi, phi], test, lambda table: sum(
            states for key, states in table.items() if test(key)))

    def step(self, classes, test, seed):
        """The states whose key, their row coloured by classes, passes test.
        seed(table) gives those states from the table of the largest class
        L (its bitsets are disjoint, so a sum is their union).  Only the
        sources of the edges into the states outside L are keyed."""
        c = self.c
        sizes = [m.bit_count() for m in classes]
        L = sizes.index(max(sizes))
        out = seed(self.const(L))
        if sizes[L] == c.n:
            return out
        col, keyed = [L] * c.n, set()
        src, start = c.edges.src, c.edges.start
        for colour, m in enumerate(classes):
            if colour != L:
                for y in _members(m):
                    col[y] = colour
                    keyed.update(src[start[y]:start[y + 1]])
        structure = c.structure
        # out as the digits "0" and "1", bits[x] for state x, bit 0 first
        bits = bytearray(bin(out)[:1:-1].ljust(c.n, "0"), "ascii")
        for x in keyed:
            bits[x] = 49 if test(fmap(structure[x], col)) else 48
        return int(bits[::-1], 2)


def eval_ref(dag, ref, c, memo=None):
    """Extension of a formula reference: the set of satisfying states.

    memo maps node ids to bitset extensions; the nodes below ref that it
    lacks are evaluated and added."""
    memo = {} if memo is None else memo
    return frozenset(_members(_Extensions(c).ext(dag, ref, memo)))


# why a state and a formula disagree, by whether the state satisfies it
_WHY = ("is in the %s but does not satisfy it",
        "satisfies it but is not in the %s")


class _Mismatch(Exception):
    """The first failed step of check_certificates, as its message."""


def check_certificates(certs, c=None):
    """Prove that every block certificate holds at exactly its final block
    and every compound formula at exactly its compound's final blocks, and
    that the final partition is stable: by induction over the trace (see
    _Induction), with no formula evaluated over the whole state set.

    Returns [] or a list of one message naming the failed step, a block or
    compound, and a state where there is one."""
    try:
        _Induction(certs, certs.coalgebra if c is None else c).run()
    except _Mismatch as e:
        return [str(e)]
    return []


class _Induction:
    """check_certificates' proof.  Each initial block and each refinement
    child is a version, with its block, parent version (-1 for an initial
    block), depth, key and split (-1 for an initial block).

    1. Keys.  The replay keeps the blocks on a RefinablePartition.  Every
       state is keyed with F!.  At a split, before any state moves, each
       refined parent T keys its touched states (with an edge into S) and
       its listed ones with fmap(row, self), the colouring of __getitem__:
       each must have its child's key, an unlisted one the default
       child's, and the children's keys differ.  The other states of T
       are not keyed.  Such an x has no successor in S, so its key is
       F(chi_B)(row x), F! in cancellative mode.  Invariant: each block
       gives all its states one value of F(chi_C)(row), for every
       compound C.  The F! keying makes it true, and functoriality keeps
       it, as chi_S and chi_{B - S} are images of the checked key.  So the
       default child's key must be fmap(k, merge) for the key k of any
       keyed state of T.  To keep the invariant, a block of two or more
       states that the split touches but does not refine, and a later
       split refines, must give its touched states one key, the merged
       one if it has others (generic mode).  So if delta(S) and beta(B)
       hold at exactly S and B, delta(T) /\\ <key>(delta(S), beta(B))
       holds at exactly the child.
    2. The replayed partition is certs.blocks, and it is stable.
    3. Walked down from certs.delta, a version's node is `and`(its parent
       version's node, a modal node), an initial version's <key>.  Chain
       nodes are compared by id; one modal node may serve many versions.
    4. Walked down from certs.beta, compound 0 starts at true and compound
       C > 0 at delta(S) of split C - 1.  Split i updates beta(B) to
       beta(B) /\\ ~neg, where neg is delta(S) or a conjunction of a top
       segment of delta(S)'s conjunct chain.  The rest it drops, below
       version v, holds on all of B when v is no deeper than the version
       that started B, since B's blocks all descend from that one;
       compound 0 drops nothing.
    5. Each version's modal node equals <key>(delta(S), beta(B)), with its
       version's key and the formulas as they were at its split."""

    def __init__(self, certs, c):
        self.certs, self.c, self.dag = certs, c, certs.dag
        self.binary = certs.trace.mode != "cancellative"
        self.top = 2 if self.binary else 1  # the colour of S
        self.merge = [0, 1, 1] if self.binary else [0, 0]  # S into the rest
        self.vblock, self.vpar, self.vdepth, self.vval, self.vsplit = (
            [], [], [], [], [])
        self.version, self.compound = [], []
        # per split: the version of its splitter, and its compound
        self.split_S, self.split_B = [], []
        self.part = RefinablePartition(c.n)
        self.block_of = self.part.block_of
        # per state: the split + 1 (0: the initial partition) that last
        # listed it, and the child it listed it in
        self.listed, self.child, self.now = [-1] * c.n, [0] * c.n, 0
        trace = certs.trace  # the last split refining each block
        self.last = {T: i for i in range(len(trace)) for T in trace.parents(i)}

    def __getitem__(self, y):
        """The colour of state y at the current split: 2 on S, 1 on the
        rest of B, 0 elsewhere (1 on S, 0 elsewhere in cancellative mode,
        where B is None)."""
        b = self.block_of[y]
        if b == self.S:
            return self.top
        return 1 if self.compound[b] == self.B else 0

    def run(self):
        self.replay()
        self.final_partition()
        node_of, mod_of = self.delta_chains()
        before = self.beta_chains(node_of, mod_of)
        for v, i in enumerate(self.vsplit):  # 5. modal nodes
            if i < 0:
                continue
            dS = 2 * node_of[self.split_S[i]]
            args = (dS, before[i]) if self.binary else (dS,)
            if not self.is_modal(mod_of[v], self.vval[v], args):
                b = self.vblock[v]
                self.bad_root("block", b, self.certs.delta[b], self.states[b])

    def name(self, x):
        ok = type(x) is int and 0 <= x < self.c.n
        return self.c.states[x] if ok else repr(x)

    def tag(self, nid):
        """The tag of node nid, or -1 when nid is not a node id."""
        tag = self.dag.tag
        return tag[nid] if type(nid) is int and 0 <= nid < len(tag) else -1

    def is_modal(self, nid, val, args):
        """Whether node nid is the modality <val>(args), args packed."""
        dag = self.dag
        return (self.tag(nid) == MODAL + len(args)
                and dag.labels[dag.label[nid]] == val
                and dag.args(nid) == args)

    def conj(self, nid, negated=False):
        """(left id, right id) of the `and` node nid, whose left operand is
        positive and whose right one is negated just when `negated`; else
        None."""
        if self.tag(nid) != AND:
            return None
        left, right = self.dag.left[nid], self.dag.right[nid]
        if (left & 1) == 0 and ((right & 1) == 1) == negated:
            return left >> 1, right >> 1
        return None

    # ------------------------------------------------------ 1. keys
    def replay(self):
        trace, part = self.certs.trace, self.part
        _S, _B, [(_T, blocks)] = trace.event(-1)
        self.group("initial partition", None, blocks, [0] * self.c.n, 0)
        self.apply(-1, None, blocks)
        for i in range(len(trace)):
            self.split(i, *trace.event(i))
        self.states = [part.block_states(b) for b in range(part.num_blocks())]
        # steps 2 to 5 read only states and block_of
        del self.part, self.listed, self.child, self.last

    def split(self, i, S, B, refinements):
        where, part = "split %d" % i, self.part
        blocks, block_of, marked = part.num_blocks(), self.block_of, part.marked
        if not (0 <= S < blocks and self.compound[S] == B):
            raise _Mismatch("%s: block %d is not in compound %d"
                            % (where, S, B))
        self.S, self.B = S, B if self.binary else None
        self.split_S.append(self.version[S])
        self.split_B.append(B)
        e, sources, self.now = self.c.edges, set(), i + 1
        for y in part.block_states(S):  # the sources of the edges into S
            sources.update(e.src[e.start[y]:e.start[y + 1]])
        touched = list(dict.fromkeys(map(block_of.__getitem__, sources)))
        part.mark(*sources)
        refined, fresh = set(), blocks
        for T, children in refinements:
            if not 0 <= T < blocks or T in refined:
                raise _Mismatch("%s: %d is not a block, or refined twice"
                                % (where, T))
            refined.add(T)
            self.group(where, T, children, self, fresh)
            fresh += len(children) - 1
        for b in touched:  # kept whole, but refined later: one key
            if b not in refined and self.binary and part.size(b) > 1 \
                    and self.last.get(b, -1) > i:
                self.keys(where, b, b, None, b, self)
            marked[b] = 0
        self.compound[S] = i + 1
        for T, children in refinements:
            self.apply(i, T, children)

    def group(self, where, T, children, g, fresh):
        """Check the children of block T (None: the initial partition, in
        block 0).  The first child keeps id T, the others take fresh ids."""
        ids = [cid for cid, _val, _states in children]
        keep = [] if T is None else [T]
        if ids != keep + list(range(fresh, fresh + len(ids) - len(keep))):
            raise _Mismatch("%s, block %r: children %r are not the block and "
                            "fresh ones" % (where, T, ids))
        part, b, n = self.part, 0 if T is None else T, self.c.n
        by_key, default, moved = {}, None, 0
        for k, (cid, val, states) in enumerate(children):
            by_key.setdefault(val, cid)
            if states is None:  # a default child keeps the rest
                if k or T is None:
                    raise _Mismatch("%s, block %d: only a refinement's first "
                                    "child may keep the rest" % (where, cid))
                default, states = cid, ()
            for x in states:
                if not 0 <= x < n or self.listed[x] == self.now \
                        or self.block_of[x] != b:
                    raise _Mismatch("%s, block %d: %s is not in the parent, "
                                    "or listed twice"
                                    % (where, cid, self.name(x)))
                self.listed[x], self.child[x] = self.now, cid
            part.mark(*states)
            moved += len(states)
        if part.n:  # else the initial partition has no block 0
            self.keys(where, T, b, by_key, default, g)
        for cid, _val, states in children:
            if not (states or states is None and moved < part.size(b)):
                raise _Mismatch("%s, block %d: the block is empty"
                                % (where, cid))

    def keys(self, where, T, b, by_key, default, g):
        """Check that block b's marked states, and one other by the merged
        key of the first, have their children's keys; clear the marks.
        by_key None: b is not refined, and its key is the first one's."""
        part, structure, first = self.part, self.c.structure, None
        lo = part.first[b]
        hi, part.marked[b] = lo + part.marked[b], 0
        for x in part.elems[lo:hi]:
            key = fmap(structure[x], g)
            if first is None:
                first = key
                by_key = {key: default} if by_key is None else by_key
            self.hit(where, T, x, by_key.get(key), self.child[x]
                     if self.listed[x] == self.now else default)
        if hi < part.end[b]:  # neither touched nor listed
            x = part.elems[hi]
            self.hit(where, T, x, by_key.get(
                fmap(structure[x], g) if first is None or default is None
                else fmap(first, self.merge)), default)

    def hit(self, where, T, x, hit, mine):
        """Raise unless state x of block T, whose key is child hit's, is
        in child mine."""
        if hit is None or hit != mine:
            b, why = ((hit, _WHY[1] % "block") if hit is not None else
                      (mine, _WHY[0] % "block") if mine is not None else
                      (T, "is in no child"))
            raise _Mismatch("%s, block %s: %s %s"
                            % (where, b, self.name(x), why))

    def apply(self, i, T, children):
        """Record the children of T at split i (-1 and None: the initial
        blocks) as versions, and move the states of all but the first."""
        parent = -1 if T is None else self.version[T]
        depth = 0 if T is None else self.vdepth[parent] + 1
        compound = 0 if T is None else self.compound[T]
        if len(children) > 1:
            self.part.extract_groups(0 if T is None else T, [
                states for _cid, _val, states in children[1:]])
        for cid, val, _states in children:
            v = len(self.vpar)
            self.vblock.append(cid)
            self.vpar.append(parent)
            self.vdepth.append(depth)
            self.vval.append(val)
            self.vsplit.append(i)
            if cid == len(self.version):
                self.version.append(v)
                self.compound.append(compound)
            else:
                self.version[cid] = v

    # ------------------------------------------- 2. the final partition
    def final_partition(self):
        blocks, states = self.certs.blocks, self.states
        if len(blocks) != len(states):
            raise _Mismatch("the partition has %d blocks, the trace makes %d"
                            % (len(blocks), len(states)))
        for bid, (want, got) in enumerate(zip(blocks, states)):
            diff = set(want).symmetric_difference(got)
            if diff:  # name the lowest state id, then anything else
                x = min(diff, key=lambda x: (0, x) if type(x) is int
                        else (1, repr(x)))
                raise _Mismatch("certificate of block %d: %s %s" % (
                    bid, self.name(x), _WHY[x in got] % "block"))
        structure, block_of = self.c.structure, self.block_of
        for bid, xs in enumerate(states):
            key = fmap(structure[xs[0]], block_of)
            for x in xs[1:]:
                if fmap(structure[x], block_of) != key:
                    raise _Mismatch("partition is not stable: block %d holds "
                                    "%s and %s, whose rows differ on the "
                                    "blocks" % (bid, self.name(xs[0]),
                                                self.name(x)))

    def bad_root(self, kind, ident, ref, states):
        """Raise for a final root that the trace does not build, naming a
        state where the root, evaluated alone, holds wrongly."""
        place = ("certificate of block %d" if kind == "block"
                 else "compound formula beta%d") % ident
        try:
            diff = _Extensions(self.c).ext(self.certs.dag, ref, {}) \
                ^ _mask(states)
        except (EvalError, LookupError, TypeError, ValueError):
            diff = 0
        if not diff:
            raise _Mismatch("%s: not the formula that the trace builds"
                            % place)
        x = (diff & -diff).bit_length() - 1
        raise _Mismatch("%s: %s %s" % (place, self.c.states[x],
                                       _WHY[x not in states] % kind))

    # ------------------------------------- 3. and 4. the dag's shape
    def delta_chains(self):
        """(node id, modal node id) of each version."""
        vpar = self.vpar
        node_of, mod_of = [None] * len(vpar), [None] * len(vpar)
        for bid, v in enumerate(self.version):
            ref = self.certs.delta.get(bid, (None, True))
            nid = None if ref[1] else ref[0]
            while node_of[v] is None:
                node_of[v] = nid
                if vpar[v] < 0:  # an initial block's modality ends the chain
                    ok = self.is_modal(nid, self.vval[v], ())
                    mod_of[v] = nid
                    break
                ops = self.conj(nid)
                ok = ops is not None
                if not ok:
                    break
                mod_of[v] = ops[1]
                nid, v = ops[0], vpar[v]
            else:  # joined a chain walked before
                ok = node_of[v] == nid
            if not ok:
                self.bad_root("block", bid, ref, self.states[bid])
        return node_of, mod_of

    def beta_chains(self, node_of, mod_of):
        """before[i]: the packed reference of beta(B) at split i, before
        the update; None in cancellative mode, which has no compound
        formulas."""
        beta, trace = self.certs.beta, self.certs.trace
        made = range(len(trace) + 1 if len(trace) and self.binary else 0)
        if set(beta) != set(made):
            raise _Mismatch("compound formulas %r, but the trace makes %r"
                            % (sorted(beta, key=repr), list(made)))
        if not self.binary:
            return None
        updates = [[] for _ in made]
        for i, B in enumerate(self.split_B):
            updates[B].append(i)
        before = [None] * len(trace)
        for C in made:
            ref = pack(beta[C])
            for i in reversed(updates[C]):
                ops = None if ref & 1 else self.conj(ref >> 1, negated=True)
                if ops is None or not self.negation(i, C, ops[1], node_of,
                                                    mod_of):
                    break
                before[i] = ref = 2 * ops[0]
            else:  # down to true, or to delta(S) of split C - 1
                if C == 0 and ref == 0 and self.tag(0) == TOP_NODE \
                        or C and ref == 2 * node_of[self.split_S[C - 1]]:
                    continue
            union = [x for bid, xs in enumerate(self.states)
                     if self.compound[bid] == C for x in xs]
            self.bad_root("compound", C, beta[C], union)
        return before

    def negation(self, i, B, nid, node_of, mod_of):
        """Whether node nid is a top segment of delta(S)'s conjunct chain
        at split i whose dropped rest holds on all of compound B."""
        v = self.split_S[i]
        while v >= 0:
            if nid == node_of[v]:  # the rest kept whole
                return True
            if nid == mod_of[v]:  # the chain below v dropped
                return B > 0 and (self.vdepth[self.vpar[v]]
                                  <= self.vdepth[self.split_S[B - 1]])
            ops = self.conj(nid)
            if ops is None or ops[1] != mod_of[v]:
                return False
            nid, v = ops[0], self.vpar[v]
        return False


# ------------------------------------------------------------- parsing

class _FormulaParser(Scanner):
    error = EvalError

    def __init__(self, text, functor):
        super().__init__(text)
        self.functor = functor
        self.dag = FormulaDag()

    def formula(self):
        """A generator for unnest: each (yield) reads a nested formula."""
        if self.try_eat("true"):
            return (0, False)
        if self.try_eat("~"):
            nid, neg = yield
            return (nid, not neg)
        if self.try_eat("("):
            left = yield
            self.eat("&")
            right = yield
            self.eat(")")
            return self.dag.add_and(left, right)
        if self.try_eat("<"):
            literal = self.upto(">")
            args = []
            if self.try_eat("("):
                args.append((yield))
                while self.try_eat(","):
                    args.append((yield))
                self.eat(")")
            arity = len(args)
            if arity > 2:
                raise EvalError("modalities take at most two arguments")
            val = parse_value(literal, self.functor, (1, 2, 3)[arity])
            return self.dag.add_modal(val, arity, tuple(args))
        raise EvalError("cannot parse formula at %r" % self.text[self.i:])


def parse_formula(text, functor):
    """Parse the generic formula syntax; returns (dag, reference)."""
    try:
        p = _FormulaParser(text, functor)
        return p.dag, p.done(unnest(p.formula))
    except (ValueError_, ValueError, IndexError) as e:
        raise EvalError("bad formula %r: %s" % (text, e)) from None
