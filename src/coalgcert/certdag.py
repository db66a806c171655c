r"""Certificate construction over a shared formula dag.

Certificates are built by replaying a refinement trace.  Every block of the
initial partition gets a nullary modal formula; afterwards each split of a
block appends one conjunct per child:

    delta(child) = delta(parent) /\ <key>(delta(S), beta(B))     three-colour
    delta(child) = delta(parent) /\ <key>(delta(S))              two-colour

where S is the splitter and B its surrounding compound.  The compound
formulas evolve as beta({S}) = delta(S) and beta(B\\S) = beta(B) /\ ~d',
where d' drops conjuncts of delta(S) that are conjuncts of beta(B).  Per
node we store which compound's beta formula inherited it (the conjuncts
of delta(S) become conjuncts of beta of the fresh compound {S}).  The walk
down delta(S)'s chain stops at the first owned node: if B owns it, d' is a
fresh conjunction of the modal conjuncts above it; if another compound
does, or at the chain base, d' is delta(S) itself and no node is made.
A plain boolean "in some beta" flag would be unsound here: a conjunct
inherited by a *different* compound's beta may separate blocks that are
still together inside B, so it must stay in the negation target.  Each
node is tagged at most once, so the walks of a run are linear in the
arena size.

Sharing.  At one split delta(S) and beta(B) are fixed, so all children
with key t, under any parent, share one modal node <t>(delta(S), beta(B)):
it holds at exactly the states with key t.  Owner tags sit only on `and`
nodes, one fresh per child, and on chain bases, never on a split's modal
nodes, so each tagged node still lies on one delta chain.

distinguish answers from a block-version tree, built in O(n + trace) on its
first call and kept in CertificateSet.versions: each initial block (under
a virtual root) and each refinement child is a version, child of T's
version before the split.  A query climbs to the LCA in O(log n) with
Myers' skew-binary jump pointers.

Rendering.  listing writes the nodes that a set of roots reaches in one
linear pass, for serialize and certify --json.  Arena ids put children
before parents, so one downward scan over a bytearray, from the largest
root, marks the children of each marked node (reach, which translate
walks too); the marked ids are then streamed in ascending order.  Each
node is formatted directly by its tag.
A label is rendered once per distinct node[:-1] (all of a node but its
arguments, which is all a label renderer reads) and kept in a dict: a
large dag has many modal nodes but few distinct labels.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import chain, compress

from .functor import pretty_functor
from .values import pretty_value

TOP = (0, False)  # edge reference: (node id, negated)


class CertError(RuntimeError):
    pass


class FormulaDag:
    """Arena of formula nodes addressed by (id, negated) edge references.

    Nodes: ('top',) | ('and', left, right) | ('modal', value, arity, args)
    for certificates, and ('or', left, right) | ('ds', label, args) for the
    domain-specific formulas of translate.py; left/right/args are edge
    references, and every node's children precede it."""

    def __init__(self):
        self.nodes = [("top",)]

    def _add(self, node):
        self.nodes.append(node)
        return (len(self.nodes) - 1, False)

    def add_and(self, left, right):
        return self._add(("and", left, right))

    def add_or(self, left, right):
        return self._add(("or", left, right))

    def add_modal(self, value, arity, args):
        if len(args) != arity:
            raise CertError("modal arity %d, %d arguments" % (arity, len(args)))
        return self._add(("modal", value, arity, args))

    def add_ds(self, label, args):
        return self._add(("ds", label, args))

    def children(self, nid):
        node = self.nodes[nid]
        tag = node[0]
        if tag == "and" or tag == "or":
            return node[1:]
        if tag == "top":
            return ()
        return node[-1]  # modal and ds nodes end in their arguments

    def size(self):
        nodes = len(self.nodes)
        edges = sum(len(self.children(i)) for i in range(nodes))
        return nodes, edges

    def height(self):
        """Height of the deepest formula in the arena.

        Each refinement step logically allocates one node holding both the
        conjunction and the modality it appends, so a conjunction whose
        right operand is a modality counts as a single level together with
        that modality.  All other edges contribute one level each."""
        nodes, h = self.nodes, [0] * len(self.nodes)
        for i, node in enumerate(nodes):  # children always precede parents
            if node[0] == "and" and nodes[node[2][0]][0] == "modal":
                h[i] = max(1 + h[node[1][0]], h[node[2][0]])
            else:
                h[i] = 1 + max((h[c] for c, _ in self.children(i)), default=0)
        return max(h, default=0)

    def tree_size(self, ref, _memo=None):
        """Number of nodes of the formula read as a tree (full unfolding)."""
        memo = _memo if _memo is not None else {}
        for nid in reachable(self, [ref], memo):  # children before parents
            memo[nid] = 1 + sum(memo[cid] for cid, _ in self.children(nid))
        return memo[ref[0]]


@dataclass
class CertificateSet:
    coalgebra: object
    dag: FormulaDag
    mode: str
    delta: dict      # block id -> edge reference
    beta: dict       # compound id -> edge reference
    modal_of: dict   # (event index, block id) -> the conjunct's modal ref
    trace: object
    blocks: list     # final partition, sorted state lists, by block id
    versions: tuple = field(default=None, init=False, repr=False)


def _negation_target(dag, owner, delta_ref, reduced, compound, new_compound):
    """The formula negated in a beta update: delta(S) minus beta(B)'s part.

    Walks delta(S)'s conjunct chain from the root, collecting conjuncts
    until it reaches an owned node.  An owner tag on a chain node records
    which compound's beta formula implies it, so a node owned by the
    surrounding compound B -- and everything below it -- already
    constrains every member of B and is dropped; the collected conjuncts
    form a fresh conjunction.  At a node of a foreign compound, which says
    nothing about B, or at the chain base, the target is delta_ref itself
    (conjuncts implied by beta(B) are harmless inside the negation).  Each
    walked node is tagged once, with the fresh compound {S} whose beta
    inherits the chain, so the walks of a run are linear in the arena size.

    owner[i] is the id of the compound whose beta formula inherited node i
    as a conjunct, or None while it only appears in delta chains; nodes
    past the list's end are unowned.  build_certificates keeps the list."""
    if not reduced:
        return delta_ref
    owner.extend([None] * (len(dag.nodes) - len(owner)))
    refs, cur = [], delta_ref[0]  # delta chains hold positive references
    while owner[cur] is None:
        owner[cur] = new_compound
        node = dag.nodes[cur]
        if node[0] != "and":
            return delta_ref  # chain base reached: delta(S) kept whole
        refs.append(node[2])
        cur = node[1][0]
    if owner[cur] != compound:
        return delta_ref  # foreign chain: delta(S) kept whole
    if not refs:  # delta(S) = beta(B) would force S = B; cannot happen
        raise CertError("splitter certificate has no unshared conjunct")
    ref = refs.pop()
    while refs:
        ref = dag.add_and(ref, refs.pop())
    return ref


def build_certificates(c, result, reduced_negation=True):
    """Replay a refinement trace into a certificate set.

    Generic traces carry three-colour keys and produce binary
    modalities with compound formulas; cancellative traces carry two-colour
    keys and produce unary, negation-free certificates."""
    trace = result.trace
    binary = trace.mode != "cancellative"
    dag = FormulaDag()
    owner = []  # see _negation_target
    delta, beta, modal_of = {}, {}, {}
    for bid, val, _states in trace.init.blocks:
        delta[bid] = modal_of[(-1, bid)] = dag.add_modal(val, 0, ())
    for i, ev in enumerate(trace.splits):
        dS = delta[ev.splitter]
        bB = beta.get(ev.compound, TOP)
        if binary:
            beta[ev.new_compound] = dS
            neg = _negation_target(dag, owner, dS, reduced_negation,
                                   ev.compound, ev.new_compound)
            beta[ev.compound] = dag.add_and(bB, (neg[0], True))
        args = (dS, bB) if binary else (dS,)
        mods = {}  # key -> its modal node at this split
        for ref_ in ev.refinements:
            old = delta[ref_.parent]
            for cid, val, _states in ref_.children:
                mod = mods.get(val)
                if mod is None:
                    mod = mods[val] = dag.add_modal(val, len(args), args)
                delta[cid] = dag.add_and(old, mod)
                modal_of[(i, cid)] = mod
    # blocks are never removed, so every block id in delta is final
    return CertificateSet(c, dag, trace.mode, delta, beta, modal_of, trace,
                          result.blocks)


def _version_tree(certs):
    """(leaf version by state, then parent, jump, depth and modal ref by
    version) of the block-version tree (see the module docstring)."""
    par, jump, depth, mod = [0], [0], [0], [None]
    cur = {None: 0}  # block id -> its current version; None: the root
    trace = certs.trace
    for i, T, children in chain(
            [(-1, None, trace.init.blocks)],
            ((i, ref_.parent, ref_.children)
             for i, ev in enumerate(trace.splits) for ref_ in ev.refinements)):
        p = cur[T]
        for cid, _val, _states in children:
            j = jump[p]
            skew = depth[p] - depth[j] == depth[j] - depth[jump[j]]
            jump.append(jump[j] if skew else p)
            par.append(p)
            depth.append(depth[p] + 1)
            mod.append(certs.modal_of[(i, cid)])
            cur[cid] = len(par) - 1
    leaf = {s: cur[bid] for bid, states in enumerate(certs.blocks)
            for s in states}
    return leaf, par, jump, depth, mod


def distinguish(certs, x, y):
    """Smallest recorded conjunct separating x from y.

    Returns an edge reference satisfied by x but not by y, or None when the
    two states are behaviourally equivalent.  The formula is the modal ref
    of the version on x's side just below the LCA of their leaf versions."""
    if certs.versions is None:
        certs.versions = _version_tree(certs)
    leaf, par, jump, depth, mod = certs.versions
    if x not in leaf or y not in leaf:
        raise CertError("state out of range")
    a, b = leaf[x], leaf[y]
    if a == b:
        return None
    while depth[a] > depth[b]:  # lift the deeper version
        a = jump[a] if depth[jump[a]] >= depth[b] else par[a]
    while depth[b] > depth[a]:
        b = jump[b] if depth[jump[b]] >= depth[a] else par[b]
    while par[a] != par[b]:  # climb to the two children of the LCA
        up = jump if jump[a] != jump[b] else par
        a, b = up[a], up[b]
    return mod[a]


# ------------------------------------------------------------- rendering

def _ref_str(ref):
    nid, neg = ref
    return ("~#%d" % nid) if neg else ("#%d" % nid)


def value_label(functor):
    """Label renderer of a certificate arena: a modal node's value."""
    return lambda node: "<%s>" % pretty_value(functor, node[1], node[2] + 1)


def _pieces(node, label):
    """A node's text: strings, and the edge references of its children.
    label(node) is the text of a modal node's label; a generic node's
    arguments follow it in parentheses, a domain-specific node's one
    argument directly."""
    tag = node[0]
    if tag == "top":
        return ["true"]
    if tag == "and" or tag == "or":
        return ["(", node[1], " & " if tag == "and" else " | ", node[2], ")"]
    pieces = [label(node)]
    args = node[-1]
    if tag == "ds":
        pieces += args
    elif args:
        pieces.append("(")
        for a in args:
            pieces += (a, ", ")
        pieces[-1] = ")"
    return pieces


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


def reach(dag, refs):
    """An iterator over the ids of the nodes reachable from refs, ascending
    (see Rendering in the module docstring)."""
    mark = bytearray(max((nid for nid, _ in refs), default=-1) + 1)
    for nid, _ in refs:
        mark[nid] = 1
    for nid in compress(range(len(mark) - 1, -1, -1), reversed(mark)):
        for cid, _ in dag.children(nid):
            mark[cid] = 1
    return compress(range(len(mark)), mark)


def listing(dag, refs, label):
    """(id, text) of each node reachable from refs, in ascending id order,
    the node's children written as #id references (see Rendering in the
    module docstring)."""
    nodes = dag.nodes
    labels = {}
    for nid in reach(dag, refs):
        node = nodes[nid]
        tag = node[0]
        if tag == "and" or tag == "or":
            (lid, lneg), (rid, rneg) = node[1], node[2]
            text = "(%s#%d %s %s#%d)" % ("~" if lneg else "", lid,
                                         "&" if tag == "and" else "|",
                                         "~" if rneg else "", rid)
        elif tag == "top":
            text = "true"
        else:
            head = node[:-1]
            text = labels.get(head)
            if text is None:
                text = labels[head] = label(node)
            args = node[-1]
            if args:
                texts = [_ref_str(a) for a in args]
                text += ("".join(texts) if tag == "ds"
                         else "(%s)" % ", ".join(texts))
        yield nid, text


def serialize(certs, restrict_blocks=None, label=None, out=None):
    """Shared-dag listing: header, block table, nodes, certificate roots,
    written line by line to the text file out, or returned without out.
    label renders modal labels, by default as values of the functor."""
    if out is None:
        out = io.StringIO()
        serialize(certs, restrict_blocks, label, out)
        return out.getvalue()
    c = certs.coalgebra
    label = label or value_label(c.functor)
    ids = (range(len(certs.blocks)) if restrict_blocks is None
           else restrict_blocks)
    write = out.write
    write("functor: %s\nblocks:\n" % pretty_functor(c.functor))
    for bid in ids:
        states = certs.blocks[bid]
        write("  %d: %s\n" % (bid, " ".join(c.states[s] for s in states)))
    write("dag:\n")
    for nid, text in listing(certs.dag, [certs.delta[bid] for bid in ids],
                             label):
        write("  #%d = %s\n" % (nid, text))
    write("certificates:\n")
    for bid in ids:
        write("  %d: %s\n" % (bid, _ref_str(certs.delta[bid])))


def expand(dag, ref, label, limit=100000):
    """Fully expanded formula text; refuses beyond `limit` tree nodes."""
    if dag.tree_size(ref) > limit:
        raise CertError("expansion exceeds %d nodes; print the shared dag "
                        "instead" % limit)
    out, todo = [], [ref]  # todo: references and text, the next one last
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item[1]:
            out.append("~")
        todo += reversed(_pieces(dag.nodes[item[0]], label))
    return "".join(out)
