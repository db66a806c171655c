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

Storage.  The arena is four parallel int arrays, one entry per node: its
tag, its left and right operands, and the index of its label in a table
of distinct labels (a modal node's value, a domain-specific node's
label).  A modal or domain-specific node's tag adds its number of
arguments to MODAL or DS, and its arguments sit in left and right.
Inside the arena an edge reference is one int, 2 id + neg, so negating
it flips bit 0 and true is 0.  At the package's interface references
stay (id, negated) pairs: the add_ methods take and return them, the
certificate set's delta and beta give them (Refs, over packed arrays),
and FormulaDag.nodes reads each node back as the tuple it was added as.
Owner tags and the delta and beta formulas are int arrays too.  The
version tree keeps one (id, negated) pair per modal node, shared by its
versions, which distinguish returns as it is.

distinguish answers from a block-version tree that build_certificates
grows with the conjuncts (CertificateSet.versions): each initial block
(under a virtual root) and each refinement child is a version, child of
T's version before the split, with its conjunct's modal ref; a state's
leaf is its block's last version.  A query climbs from two leaves to their
LCA in O(log n) with Myers' skew-binary jump pointers.

Rendering.  listing writes the nodes that a set of roots reaches in one
linear pass, for serialize and certify --json.  Arena ids put children
before parents, so one downward scan over a bytearray, from the largest
root, marks the operands of each marked node, read off the columns; the
marked ids are then streamed in ascending order.  That walk, reach, is the
package's one reachability walk: translate, FormulaDag.tree_size and
logic's evaluator walk it too.  Each node is formatted directly by its
tag.  A label is rendered once per distinct (tag, label index), which is
all a label renderer reads, and kept in a dict: a large dag has many
modal nodes but few distinct labels.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import compress, repeat

from .functor import pretty_functor
from .values import pretty_value

TOP = (0, False)  # edge reference: (node id, negated)

# node tags; a modal or domain-specific node adds its number of arguments
TOP_NODE, AND, OR, MODAL, DS = 0, 1, 2, 3, 6
ARITY = bytes([0, 2, 2, 0, 1, 2, 0, 1, 2])  # operands, by tag


class CertError(RuntimeError):
    pass


def pack(ref):
    """The int 2 id + neg of an (id, negated) edge reference."""
    nid, neg = ref
    return 2 * nid + bool(neg)


def unpack(p):
    """The (id, negated) edge reference of a packed one."""
    return p >> 1, (p & 1) == 1


class FormulaDag:
    """Arena of formula nodes in int columns (Storage in the module
    docstring), addressed at its interface by (id, negated) references.

    Nodes, as nodes[i] reads them: ('top',) | ('and', left, right) |
    ('modal', value, arity, args) for certificates, and ('or', left, right)
    | ('ds', label, args) for the domain-specific formulas of translate.py;
    left/right/args are edge references, and every node's children precede
    it.  Node 0 is true."""

    def __init__(self):
        self.tag = array("B", [TOP_NODE])
        self.left, self.right = array("i", [0]), array("i", [0])
        self.label = array("i", [0])
        self.labels, self._label_index = [], {}  # the table of labels

    def __len__(self):
        return len(self.tag)

    def push(self, tag, left=0, right=0, label=0):
        """Append a node of packed operands; its packed reference."""
        self.tag.append(tag)
        self.left.append(left)
        self.right.append(right)
        self.label.append(label)
        return 2 * len(self.tag) - 2

    def intern(self, label):
        """The index of label in the table of labels, entered if new."""
        index = self._label_index.get(label)
        if index is None:
            index = self._label_index[label] = len(self.labels)
            self.labels.append(label)
        return index

    def _add(self, tag, args, label):
        ops = [pack(a) for a in args] + [0, 0]
        return unpack(self.push(tag, ops[0], ops[1], self.intern(label)))

    def add_and(self, left, right):
        return unpack(self.push(AND, pack(left), pack(right)))

    def add_or(self, left, right):
        return unpack(self.push(OR, pack(left), pack(right)))

    def add_modal(self, value, arity, args):
        if len(args) != arity or arity > 2:
            raise CertError("modal arity %d, %d arguments" % (arity, len(args)))
        return self._add(MODAL + arity, args, value)

    def add_ds(self, label, args):
        if len(args) > 2:
            raise CertError("%d arguments, at most 2" % len(args))
        return self._add(DS + len(args), args, label)

    def args(self, nid):
        """The packed references of node nid's operands."""
        k = ARITY[self.tag[nid]]
        return ((), (self.left[nid],), (self.left[nid], self.right[nid]))[k]

    def children(self, nid):
        """The (id, negated) references of node nid's operands."""
        return tuple(map(unpack, self.args(nid)))

    def node(self, nid):
        """Node nid as the tuple it was added as."""
        tag, args = self.tag[nid], self.children(nid)
        if tag == TOP_NODE:
            return ("top",)
        if tag == AND or tag == OR:
            return ("and" if tag == AND else "or",) + args
        label = self.labels[self.label[nid]]
        if tag < DS:
            return ("modal", label, tag - MODAL, args)
        return ("ds", label, args)

    @property
    def nodes(self):
        """The nodes as a read-only sequence of tuples (see node)."""
        return _Nodes(self)

    def size(self):
        return len(self.tag), sum(map(ARITY.__getitem__, self.tag))

    def height(self):
        """Height of the deepest formula in the arena.

        Each refinement step logically allocates one node holding both the
        conjunction and the modality it appends, so a conjunction whose
        right operand is a modality counts as a single level together with
        that modality.  All other edges contribute one level each."""
        tag, left, right = self.tag, self.left, self.right
        h = [0] * len(tag)
        for i, t in enumerate(tag):  # children always precede parents
            k = ARITY[t]
            if k == 0:
                h[i] = 1
            elif k == 1:
                h[i] = 1 + h[left[i] >> 1]
            elif t == AND and MODAL <= tag[right[i] >> 1] < DS:
                h[i] = max(1 + h[left[i] >> 1], h[right[i] >> 1])
            else:
                h[i] = 1 + max(h[left[i] >> 1], h[right[i] >> 1])
        return max(h, default=0)

    def tree_size(self, ref):
        """Number of nodes of the formula read as a tree (full unfolding)."""
        size = {}
        for nid in reach(self, [ref]):  # children before parents
            size[nid] = 1 + sum(size[p >> 1] for p in self.args(nid))
        return size[ref[0]]


class _Nodes(Sequence):
    """FormulaDag.nodes: node i built as a tuple on access; no assignment."""

    def __init__(self, dag):
        self._dag = dag

    def __len__(self):
        return len(self._dag)

    def __getitem__(self, i):
        return self._dag.node(i)


class Refs(Mapping):
    """(id, negated) references under the keys 0 .. len - 1, stored packed
    in the int array ``packed``; a reference can be replaced, but no key
    added or removed."""

    def __init__(self, packed):
        self.packed = packed

    def _index(self, key):
        if type(key) is not int or not 0 <= key < len(self.packed):
            raise KeyError(key)
        return key

    def __getitem__(self, key):
        return unpack(self.packed[self._index(key)])

    def __setitem__(self, key, ref):
        self.packed[self._index(key)] = pack(ref)

    def __iter__(self):
        return iter(range(len(self.packed)))

    def __len__(self):
        return len(self.packed)


@dataclass
class CertificateSet:
    coalgebra: object
    dag: FormulaDag
    delta: Mapping   # block id -> edge reference (a Refs)
    beta: Mapping    # compound id -> edge reference (a Refs)
    trace: object
    blocks: list     # final partition, sorted state lists, by block id
    # block-version tree (module docstring): (leaf version by state, then
    # parent, jump pointer, depth and modal ref by version; 0 the root)
    versions: tuple


def _negation_target(dag, owner, delta_ref, compound, new_compound):
    """The formula negated in a beta update: delta(S) minus beta(B)'s part.
    References are packed.

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
    as a conjunct, or -1 while it only appears in delta chains; nodes past
    the array's end are unowned.  build_certificates keeps the array."""
    owner.extend(repeat(-1, len(dag) - len(owner)))
    tag, left, right = dag.tag, dag.left, dag.right
    refs, cur = [], delta_ref >> 1  # delta chains hold positive references
    while owner[cur] < 0:
        owner[cur] = new_compound
        if tag[cur] != AND:
            return delta_ref  # chain base reached: delta(S) kept whole
        refs.append(right[cur])
        cur = left[cur] >> 1
    if owner[cur] != compound:
        return delta_ref  # foreign chain: delta(S) kept whole
    if not refs:  # delta(S) = beta(B) would force S = B; cannot happen
        raise CertError("splitter certificate has no unshared conjunct")
    ref = refs.pop()
    while refs:
        ref = dag.push(AND, ref, refs.pop())
    return ref


def _add_version(par, jump, depth, mod, p, ref):
    """Append a version under version p, with modal ref ref; its index."""
    j = jump[p]
    skew = depth[p] - depth[j] == depth[j] - depth[jump[j]]
    jump.append(jump[j] if skew else p)
    par.append(p)
    depth.append(depth[p] + 1)
    mod.append(ref)
    return len(par) - 1


def build_certificates(c, result):
    """Replay a refinement trace into a certificate set.

    Generic traces carry three-colour keys and produce binary
    modalities with compound formulas; cancellative traces carry two-colour
    keys and produce unary, negation-free certificates."""
    trace = result.trace
    binary = trace.mode != "cancellative"
    dag = FormulaDag()
    push, intern = dag.push, dag.intern
    owner = array("i")  # see _negation_target
    # packed references, by block id and by compound id
    delta = array("i", [0]) * len(result.blocks)
    beta = array("i", [0]) * (len(trace) + 1 if binary and len(trace) else 0)
    tree = par, jump, depth, modal = [0], [0], [0], [None]
    version = [0] * len(result.blocks)  # block id -> its current version
    _S, _B, [(_T, init)] = trace.event(-1)
    for bid, val, _states in init:
        delta[bid] = push(MODAL, 0, 0, intern(val))
        version[bid] = _add_version(*tree, 0, unpack(delta[bid]))
    tag = MODAL + 2 if binary else MODAL + 1
    bB = 0  # true: cancellative modalities have no second argument
    for i in range(len(trace)):
        S, B, refinements = trace.event(i)
        dS = delta[S]
        if binary:
            bB = beta[B]
            beta[i + 1] = dS  # split i's new compound {S}
            neg = _negation_target(dag, owner, dS, B, i + 1)
            beta[B] = push(AND, bB, neg | 1)
        mods = {}  # key -> its modal node at this split, packed and pair
        for T, children in refinements:
            old, p = delta[T], version[T]
            for cid, val, _states in children:
                mod = mods.get(val)
                if mod is None:
                    ref = push(tag, dS, bB, intern(val))
                    mod = mods[val] = ref, unpack(ref)
                delta[cid] = push(AND, old, mod[0])
                version[cid] = _add_version(*tree, p, mod[1])
    # the loop made the version ids among the dag's ints; a query, often on
    # a cold cache, reads fewer lines when they are one run of int objects
    ids = list(range(len(par)))
    leaf = [ids[version[b]] for b in result.block_of]
    par, jump = [ids[v] for v in par], [ids[v] for v in jump]
    # blocks are never removed, so every block id in delta is final
    return CertificateSet(c, dag, Refs(delta), Refs(beta), trace,
                          result.blocks, (leaf, par, jump, depth, modal))


def distinguish(certs, x, y):
    """Smallest recorded conjunct separating x from y.

    Returns an edge reference satisfied by x but not by y, or None when the
    two states are behaviourally equivalent.  The formula is the modal ref
    of the version on x's side just below the LCA of their leaf versions."""
    leaf, par, jump, depth, mod = certs.versions
    try:
        if x < 0 or y < 0:
            raise IndexError
        a, b = leaf[x], leaf[y]
    except (IndexError, TypeError):  # not a state id
        raise CertError("state out of range") from None
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

def _ref_str(p):
    """A packed reference as listings write it: #id or ~#id."""
    return ("~#%d" if p & 1 else "#%d") % (p >> 1)


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


def reach(dag, refs):
    """An iterator over the ids of the nodes reachable from refs, ascending
    (see Rendering in the module docstring)."""
    mark = bytearray(max((nid for nid, _ in refs), default=-1) + 1)
    for nid, _ in refs:
        mark[nid] = 1
    tag, left, right = dag.tag, dag.left, dag.right
    for nid in compress(range(len(mark) - 1, -1, -1), reversed(mark)):
        k = ARITY[tag[nid]]
        if k:
            mark[left[nid] >> 1] = 1
            if k == 2:
                mark[right[nid] >> 1] = 1
    return compress(range(len(mark)), mark)


def listing(dag, refs, label):
    """(id, text) of each node reachable from refs, in ascending id order,
    the node's children written as #id references (see Rendering in the
    module docstring)."""
    tag, left, right, lab = dag.tag, dag.left, dag.right, dag.label
    texts = {}
    for nid in reach(dag, refs):
        t = tag[nid]
        if t == AND or t == OR:
            a, b = left[nid], right[nid]
            text = "(%s#%d %s %s#%d)" % ("~" if a & 1 else "", a >> 1,
                                         "&" if t == AND else "|",
                                         "~" if b & 1 else "", b >> 1)
        elif t == TOP_NODE:
            text = "true"
        else:
            head = (t, lab[nid])
            text = texts.get(head)
            if text is None:
                text = texts[head] = label(dag.node(nid))
            k = ARITY[t]
            if k:
                args = [_ref_str(left[nid])]
                if k == 2:
                    args.append(_ref_str(right[nid]))
                text += "".join(args) if t >= DS else "(%s)" % ", ".join(args)
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
    roots = [certs.delta[bid] for bid in ids]
    for nid, text in listing(certs.dag, roots, label):
        write("  #%d = %s\n" % (nid, text))
    write("certificates:\n")
    for bid, ref in zip(ids, roots):
        write("  %d: %s\n" % (bid, _ref_str(pack(ref))))


def expand(dag, ref, label, limit=100000):
    """Fully expanded formula text; refuses beyond `limit` tree nodes."""
    if dag.tree_size(ref) > limit:
        raise CertError("expansion exceeds %d nodes; certify (or translate "
                        "for --logic) lists every certificate as a shared "
                        "dag" % limit)
    out, todo = [], [ref]  # todo: references and text, the next one last
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item[1]:
            out.append("~")
        todo += reversed(_pieces(dag.node(item[0]), label))
    return "".join(out)
