"""References the tests compare the package against, and checks that
only the tests run.

check_extensions evaluates certificates over the whole state set, the
semantic reference of logic.check_certificates.  check_certificates_full
is that proof with its first step as it was before the proof keyed only
the splitter's predecessors: it keys every state of every refined parent
at every split, so it needs no invariant.  verify_dsi checks the
interpretation axioms of the domain-specific logics of translate.py.
ShapeReader is the functor-directed row and value reader as it was before
each functor constructor compiled its own reader into closures
(FunctorExpr.reader in functor.py): it dispatches on the functor at every
node of every term, and reads every weight with Fraction(text).
TermReader and ValueReader are its two readers, of model rows and of value
literals; tests/test_parsers.py reads the same texts through both and
through the compiled readers.  Their Fraction weight layers are put in the
package's form ('vec', ((key, a), ...), d) by one adapter, canonical_vec.
reachable is the set-based walk that certdag.reach's listings are compared
against, and predecessors(c, y) reads the in-edges of c's edge table.
trace_events and rewrite_trace edit a refinement trace: the first reads it
into lists, the second writes edited lists back through the trace's
writer.  set_node writes a node, given as the tuple FormulaDag.nodes
reads, over an arena's int columns.  frozenset_ext is the evaluator of
those tuples that logic.eval_ref is compared against.
"""

from __future__ import annotations

import importlib
import re
from fractions import Fraction
from math import lcm

from coalgcert.certdag import AND, DS, MODAL, OR, TOP_NODE, FormulaDag, pack
from coalgcert.coalgebra import Coalgebra, ModelError
from coalgcert.functor import (
    INT, NAT, Constant, Coproduct, Distribution, Exponent, Identity,
    MonoidValued, Powerset, Product, Signature, pretty_functor,
)
from coalgcert.logic import (
    _WHY, _Extensions, _Induction, _mask, _members, _Mismatch,
)
from coalgcert.refiner import Trace
from coalgcert.values import Scanner, ValueError_, fmap

# the module, which the package's translate function hides
translate = importlib.import_module("coalgcert.translate")


def parse_rational(text, error=ValueError_):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise error("bad rational %r: %s" % (text, e)) from None



def reachable(dag, refs, known=()):
    """Ids of the nodes reachable from refs without entering a node in
    ``known``, in ascending order: arena ids order children before parents."""
    seen = set()
    stack = [nid for nid, _ in refs]
    while stack:
        nid = stack.pop()
        if nid in seen or nid in known:
            continue
        seen.add(nid)
        stack.extend(cid for cid, _ in dag.children(nid))
    return sorted(seen)


def set_node(dag, nid, node):
    """Write node, a tuple as dag.nodes reads it, over node nid's columns.
    A tuple the columns cannot hold, of another shape or with an id that
    is not an int, raises TypeError and leaves the arena as it was."""
    shape = (node[0], len(node)) if type(node) is tuple and node else None
    if shape == ("top", 1):
        tag, args, label = TOP_NODE, (), 0
    elif shape in (("and", 3), ("or", 3)):
        tag, args, label = AND if shape[0] == "and" else OR, node[1:], 0
    elif shape == ("modal", 4) and node[2] == len(node[3]) <= 2:
        tag, args, label = MODAL + node[2], node[3], node[1]
    elif shape == ("ds", 3) and len(node[2]) <= 2:
        tag, args, label = DS + len(node[2]), node[2], node[1]
    else:
        raise TypeError("no arena node has the form %r" % (node,))
    ops = [pack(a) for a in args] + [0, 0]
    label = dag.intern(label) if tag >= MODAL else 0
    for column, value in zip((dag.tag, dag.left, dag.right, dag.label),
                             (tag, ops[0], ops[1], label)):
        column[nid] = value


def colouring(n, ext_s, ext_b):
    col = [0] * n
    for y in ext_b:
        col[y] = 1
    for y in ext_s:
        if col[y] == 1:
            col[y] = 2
    return col


def frozenset_ext(dag, ref, c, memo):
    """Reference evaluator: frozenset extensions, and every modal node
    applies F to the colouring of all n states."""
    for nid in reachable(dag, [ref], memo):
        node = dag.nodes[nid]
        if node[0] == "top":
            out = frozenset(range(c.n))
        elif node[0] == "and":
            out = (frozenset_ext(dag, node[1], c, memo)
                   & frozenset_ext(dag, node[2], c, memo))
        else:
            _, val, arity, args = node
            exts = [frozenset_ext(dag, a, c, memo) for a in args]
            if arity == 0:
                col = [0] * c.n
            elif arity == 1:
                col = [1 if y in exts[0] else 0 for y in range(c.n)]
            else:
                col = colouring(c.n, exts[0], exts[1])
            out = frozenset(
                x for x in range(c.n) if fmap(c.structure[x], col) == val)
        memo[nid] = out
    ext = memo[ref[0]]
    return frozenset(range(c.n)) - ext if ref[1] else ext


def predecessors(c, y):
    """The sources of the edges into state y, ascending, with multiplicity."""
    e = c.edges
    return e.src[e.start[y]:e.start[y + 1]]


_NUMBER = re.compile(r"\s*([\w/.-]+)").match  # a rational: 3, -1/2, 0.25


def canonical_vec(layer):
    """A ('vec', ((key, w), ...)) layer of nonzero Fractions w, sorted by
    key, as ('vec', ((key, w * d), ...), d) over the least common
    denominator d of the (lowest-terms) weights."""
    d = lcm(*[w.denominator for _k, w in layer[1]])
    return ("vec", tuple([(k, int(w * d)) for k, w in layer[1]]), d)


class ShapeReader(Scanner):
    """Functor-directed reader of the syntax that structure terms and value
    literals share: products ``(t, u)``, injections ``in1(t)``, exponents
    ``[a: t, b: u]``, constants, signature terms ``f(x, y)`` and sets
    ``{x, y}``.  A subclass supplies ``slot()``, which reads an identity
    position (a state or a colour), and ``weights(f)``, a weight layer."""

    def rational(self):
        return parse_rational(self.token(_NUMBER), self.error)

    def labelled(self, f):
        lab = self.token()
        self.eat(":")
        return lab, self.read(f)

    def read(self, f):
        if isinstance(f, Identity):
            return self.slot()
        if isinstance(f, Powerset):
            self.eat("{")
            xs = self.items("}", self.slot)
            if len(set(xs)) != len(xs):
                raise self.error("duplicate element in set %r" % self.text)
            return ("set", tuple(sorted(xs)))
        if isinstance(f, (MonoidValued, Distribution)):
            return canonical_vec(self.weights(f))
        if isinstance(f, Signature):
            name = self.token()
            ar = dict(f.ops).get(name)
            if ar is None:
                raise self.error("unknown operation %r" % name)
            args = self.items(")", self.slot) if self.try_eat("(") else []
            if len(args) != ar:
                raise self.error("operation %s expects %d arguments" % (name, ar))
            return ("op", name, tuple(args))
        if isinstance(f, Product):
            self.eat("(")
            parts = []
            for j, p in enumerate(f.parts):
                if j:
                    self.eat(",")
                parts.append(self.read(p))
            self.eat(")")
            return ("tuple", tuple(parts))
        if isinstance(f, Coproduct):
            self.eat("in")
            idx = self.index("an injection number") - 1
            if not 0 <= idx < len(f.parts):
                raise self.error("injection in%d out of range" % (idx + 1))
            self.eat("(")
            v = self.read(f.parts[idx])
            self.eat(")")
            return ("in", idx, v)
        if isinstance(f, Exponent):
            self.eat("[")
            by_label = {}
            for lab, v in self.items("]", lambda: self.labelled(f.base)):
                if lab not in f.labels or lab in by_label:
                    raise self.error("unknown or repeated label %r" % lab)
                by_label[lab] = v
            if len(by_label) != len(f.labels):
                raise self.error("exponent must give every label of %s"
                                 % (f.labels,))
            return ("fun", tuple(by_label[lab] for lab in f.labels))
        if isinstance(f, Constant):
            name = self.token()
            if name not in f.atoms:
                raise self.error("unknown atom %r" % name)
            return ("atom", name)
        raise self.error("cannot read functor %s" % pretty_functor(f))


class ValueReader(ShapeReader):
    """Value literals over a palette of k colours; weights are dense, and
    read into sparse ('vec', ((c, w), ...)) layers."""

    error = ValueError_

    def __init__(self, text, k):
        super().__init__(text)
        self.k = k

    def slot(self):
        c = self.index("a colour")
        if not 0 <= c < self.k:
            raise ValueError_("colour %d out of palette %d" % (c, self.k))
        return c

    def weights(self, f):
        self.eat("(")
        ws = self.items(")", self.rational)
        if len(ws) != self.k:
            raise ValueError_(
                "weight vector has %d entries, palette is %d" % (len(ws), self.k))
        return ("vec", tuple((c, w) for c, w in enumerate(ws) if w))


class TermReader(ShapeReader):
    """Structure terms, read into rows[d], the rows of layer d of the
    functor: an identity position holds a state name at the innermost
    layer, else a term of the next layer, whose index in that layer's rows
    it holds.  Weights are sparse ``{s: w, ...}``."""

    error = ModelError

    def __init__(self, layers, state_ids):
        super().__init__("")
        self.layers = layers  # outermost first
        self.rows = [[] for _ in layers]
        self.depth = 0
        self.state_ids = state_ids

    def term(self, text):
        self.text, self.i = text, 0
        self.rows[0].append(self.done(self.read(self.layers[0])))

    def slot(self):
        if self.depth + 1 < len(self.layers):
            self.depth += 1
            rows = self.rows[self.depth]
            rows.append(self.read(self.layers[self.depth]))
            self.depth -= 1
            return len(rows) - 1
        name = self.token()
        sid = self.state_ids.get(name)
        if sid is None:
            raise ModelError("unknown state %r" % name)
        return sid

    def entry(self):
        mark = [len(rows) for rows in self.rows]
        s = self.slot()
        self.eat(":")
        w = self.rational()
        if not w:  # a dropped entry keeps no inner rows
            for rows, k in zip(self.rows, mark):
                del rows[k:]
        return s, w

    def weights(self, f):
        self.eat("{")
        entries = self.items("}", self.entry)
        ws = [w for _, w in entries]
        if isinstance(f, Distribution):
            if sum(ws, Fraction(0)) != 1:
                raise ModelError("distribution weights must sum to 1")
            if any(w < 0 for w in ws):
                raise ModelError("distribution weights must be nonnegative")
        elif f.kind == NAT:
            if any(w.denominator != 1 or w < 0 for w in ws):
                raise ModelError("N-weights must be nonnegative integers")
        elif f.kind == INT:
            if any(w.denominator != 1 for w in ws):
                raise ModelError("Z-weights must be integers")
        entries = [(s, w) for s, w in entries if w != 0]
        if len({s for s, _ in entries}) != len(entries):
            raise ModelError("duplicate state in %r" % self.text)
        return ("vec", tuple(sorted(entries)))


def check_extensions(certs, c=None):
    """Verify that every block certificate evaluates exactly to its block,
    and every compound formula to the union of its compound's blocks.

    The semantic reference of check_certificates: it evaluates every node
    over the whole state set, so it also reads arenas that no trace built,
    such as translated listings.  Returns a list of mismatches (block id
    or 'betaC', expected, got), with got None for a block that the trace
    does not make; empty means the certificate set is sound and complete
    for the final partition."""
    if c is None:
        c = certs.coalgebra
    ev = _Extensions(c)
    memo = {}
    bad = []
    masks = [_mask(states) for states in certs.blocks]
    for bid, (states, want) in enumerate(zip(certs.blocks, masks)):
        got = ev.ext(certs.dag, certs.delta[bid], memo)
        if got != want:
            bad.append((bid, frozenset(states), frozenset(_members(got))))
    # each final block's compound, replayed from the trace: the initial
    # blocks start in compound 0, a split moves S into its new compound,
    # and a refinement's children join their parent's compound.  A block
    # made by no event, such as a child of a dropped refinement, has none
    trace = certs.trace
    _S, _B, [(_T, init)] = trace.event(-1)
    compound_of = {bid: 0 for bid, _val, _states in init}
    for i in range(len(trace)):
        S, _B, refinements = trace.event(i)
        if S in compound_of:
            compound_of[S] = i + 1
        for T, children in refinements:
            if T in compound_of:
                for cid, _val, _states in children:
                    compound_of[cid] = compound_of[T]
    union = {}
    for bid, mask in enumerate(masks):
        if bid not in compound_of:
            bad.append((bid, frozenset(certs.blocks[bid]), None))
            continue
        union[compound_of[bid]] = union.get(compound_of[bid], 0) | mask
    for cmp_id, ref in certs.beta.items():
        got = ev.ext(certs.dag, ref, memo)
        want = union.get(cmp_id, 0)
        if got != want:
            bad.append(("beta%d" % cmp_id, frozenset(_members(want)),
                        frozenset(_members(got))))
    return bad


def trace_events(trace):
    """(initial blocks, splits) of a trace, read through its accessor into
    lists to edit: each initial block and child a list [block id, key,
    states], states a list or None; each split a list [splitter,
    compound, refinements], each refinement a list [parent, children]."""
    def children(kids):
        return [[b, key, None if states is None else list(states)]
                for b, key, states in kids]
    _S, _B, [(_T, init)] = trace.event(-1)
    splits = []
    for i in range(len(trace)):
        S, B, refinements = trace.event(i)
        splits.append([S, B, [[T, children(kids)] for T, kids in refinements]])
    return children(init), splits


def rewrite_trace(mode, n, init, splits):
    """A trace written through the writer from trace_events' lists; equal
    keys share one entry of the key table.  The writer refuses a non-int
    id or state with TypeError."""
    out, index = Trace(mode, n), {}

    def add(b, key, states):
        if key not in index:
            index[key] = out.add_key(key)
        out.add_child(b, index[key], states)

    for child in init:
        add(*child)
    for S, B, refinements in splits:
        out.add_split(S, B)
        for T, kids in refinements:
            out.add_refinement(T)
            for child in kids:
                add(*child)
    return out


def check_certificates_full(certs, c=None):
    """logic.check_certificates with FullInduction's replay."""
    try:
        FullInduction(certs, certs.coalgebra if c is None else c).run()
    except _Mismatch as e:
        return [str(e)]
    return []


class FullInduction(_Induction):
    """logic._Induction with step 1 keying every state of every refined
    parent T once per split, with fmap(row, self), before any state moves;
    the initial blocks are keyed with F!.  A listed state has its child's
    key, any other state the default child's, and the children's keys
    differ.  It keeps each block's states in a list, and rebuilds the
    default child's by scanning T."""

    def __init__(self, certs, c):
        super().__init__(certs, c)
        self.states, self.block_of = [], [None] * c.n

    def replay(self):
        trace, n = self.certs.trace, self.c.n
        _S, _B, [(_T, init)] = trace.event(-1)
        self.apply(-1, None, init, self.group(
            "initial partition", None, range(n), init, [0] * n, 0))
        for i in range(len(trace)):
            self.split(i, *trace.event(i))

    def split(self, i, S, B, refinements):
        where, blocks = "split %d" % i, len(self.states)
        if not (0 <= S < blocks and self.compound[S] == B):
            raise _Mismatch("%s: block %d is not in compound %d"
                            % (where, S, B))
        self.S, self.B = S, B if self.binary else None
        self.split_S.append(self.version[S])
        self.split_B.append(B)
        plans, fresh = {}, blocks
        for T, children in refinements:
            if not 0 <= T < blocks or T in plans:
                raise _Mismatch("%s: %d is not a block, or refined twice"
                                % (where, T))
            plans[T] = self.group(where, T, self.states[T], children, self,
                                  fresh)
            fresh += len(children) - 1
        self.compound[S] = i + 1
        for T, children in refinements:
            self.apply(i, T, children, plans[T])

    def group(self, where, T, members, children, g, fresh):
        """Check the children of block T (None: the initial partition)
        against the keys fmap(row, g) of its members; returns each child's
        states.  The first child keeps id T, the others take fresh ids."""
        ids = [cid for cid, _val, _states in children]
        keep = [] if T is None else [T]
        if ids != keep + list(range(fresh, fresh + len(ids) - len(keep))):
            raise _Mismatch("%s, block %r: children %r are not the block and "
                            "fresh ones" % (where, T, ids))
        by_key, own, default, groups = {}, {}, None, []
        for k, (cid, val, states) in enumerate(children):
            by_key.setdefault(val, cid)
            if states is None:  # a default child keeps the rest
                if k or T is None:
                    raise _Mismatch("%s, block %d: only a refinement's first "
                                    "child may keep the rest" % (where, cid))
                default, states = cid, ()
            for x in states:
                if not 0 <= x < self.c.n or x in own \
                        or self.block_of[x] != T:
                    raise _Mismatch("%s, block %d: %s is not in the parent, "
                                    "or listed twice"
                                    % (where, cid, self.name(x)))
                own[x] = cid
            groups.append(list(states))
        structure = self.c.structure
        for x in members:
            mine = own.get(x, default)
            hit = by_key.get(fmap(structure[x], g))
            if hit is None or hit != mine:
                b, why = ((hit, _WHY[1] % "block") if hit is not None else
                          (mine, _WHY[0] % "block") if mine is not None else
                          (T, "is in no child"))
                raise _Mismatch("%s, block %s: %s %s"
                                % (where, b, self.name(x), why))
            if x not in own:
                groups[0].append(x)
        for cid, states in zip(ids, groups):
            if not states:
                raise _Mismatch("%s, block %d: the block is empty"
                                % (where, cid))
        return groups

    def apply(self, i, T, children, groups):
        """Record the children of T at split i (-1 and None: the initial
        blocks) as versions, and move their states."""
        parent = -1 if T is None else self.version[T]
        depth = 0 if T is None else self.vdepth[parent] + 1
        compound = 0 if T is None else self.compound[T]
        for (cid, val, _states), states in zip(children, groups):
            v = len(self.vpar)
            self.vblock.append(cid)
            self.vpar.append(parent)
            self.vdepth.append(depth)
            self.vval.append(val)
            self.vsplit.append(i)
            if cid == len(self.version):
                self.version.append(v)
                self.states.append(states)
                self.compound.append(compound)
            else:
                self.version[cid] = v
                self.states[cid] = states
            for x in states:
                self.block_of[x] = cid


def _one_step(f, k, values, dag, atoms):
    """Satisfaction of one-layer formulas by candidate values.

    The one-step coalgebra has the k colours of a palette as its states
    0..k-1, and state k+i with the i-th value as its row; the colours'
    rows repeat the first value and are never read.  atoms maps the
    arena's atom nodes to their colours.  Returns sat(phi), the set of
    values at which the formula phi holds."""
    values = list(values)
    rows = values[:1] * k + values
    ev = _Extensions(Coalgebra(f, tuple(range(len(rows))), tuple(rows)))
    memo = {nid: 1 << colour for nid, colour in atoms.items()}

    def sat(phi):
        return {values[i] for i in _members(ev.ext(dag, phi, memo) >> k)}
    return sat


# the logics whose one-argument decoding kappa verify_dsi checks, kept here
# and not read off translate.LOGICS, so a dropped kappa is a test failure
KAPPA_LOGICS = ("weighted", "signature")


def verify_dsi(logic, c, values1, values2, values3):
    """Brute-force check of the interpretation axioms on realizable values.

    values1/2/3 are the realizable one-, two- and three-colour values of
    the coalgebra.  For every o the closed formula tau(o) must single out o
    among the one-colour values; for every t the open formula lam(t) must
    single out t among the three-colour values that agree with t once the
    two inner colours are merged; analogously for kappa where defined.
    The formulas are evaluated by logic's bitset pass on the one-step
    coalgebra of each palette (see _one_step), where the atoms delta and
    rho hold at colours 2 and 1, and delta at colour 1 for kappa.
    Returns a list of violations (empty = all axioms hold)."""
    f = c.functor
    lg = translate.check_compatible(logic, f)
    dag = FormulaDag()
    delta, rho = dag.add_ds(("atom", 0), ()), dag.add_ds(("atom", 1), ())
    bad = []
    sat = _one_step(f, 1, values1, dag, {})
    for o in values1:
        hits = sat(lg.tau(dag, f, o))
        if hits != {o}:
            bad.append(("tau", o, hits))
    sat = _one_step(f, 3, values3, dag, {delta[0]: 2, rho[0]: 1})
    for t in values3:
        cls = fmap(t, [0, 1, 1])
        lam = lg.lam(dag, f, t, delta, rho)
        hits = {t2 for t2 in sat(lam) if fmap(t2, [0, 1, 1]) == cls}
        if hits != {t}:
            bad.append(("lambda", t, hits))
    if logic in KAPPA_LOGICS:
        sat = _one_step(f, 2, values2, dag, {delta[0]: 1})
        for s in values2:
            out = fmap(s, [0, 0])
            kappa = lg.kappa(dag, f, s, delta)
            hits = {s2 for s2 in sat(kappa) if fmap(s2, [0, 0]) == out}
            if hits != {s}:
                bad.append(("kappa", s, hits))
    return bad
