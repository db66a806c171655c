"""Partition refinement: goldens, mode agreement, traces, complexity bounds."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest

from coalgcert.coalgebra import Coalgebra, parse_coalgebra
from coalgcert import refiner
from coalgcert.functor import is_cancellative, parse_functor, pretty_functor
from coalgcert.oracle import (
    GeneratorSpec, generate, naive_bisimilarity, partition_key,
)
from coalgcert.refiner import (
    InitEvent, Refinement, RefineError, SplitEvent, Trace, initial_partition,
    refine, replay_trace,
)
from coalgcert.values import fmap
from conftest import CANCELLATIVE_FUNCTORS, FUNCTORS, random_instances


def canon(blocks):
    return partition_key(blocks)


def test_ts1_golden(ts1):
    res = refine(ts1)
    # x alone; x1 and y equivalent; z the deadlock
    assert canon(res.blocks) == canon([[0], [1, 2], [3]])


def test_mc1_golden_all_modes(mc1):
    expected = canon(naive_bisimilarity(mc1))
    for mode in ("generic", "cancellative"):
        res = refine(mc1, mode=mode, audit=True)
        assert canon(res.blocks) == expected, mode


def test_modes_agree_with_oracle():
    for label, c in random_instances(seeds=range(6), n=14):
        res = refine(c)
        assert canon(res.blocks) == canon(naive_bisimilarity(c)), label
    for label, c in random_instances(CANCELLATIVE_FUNCTORS,
                                     seeds=range(6), n=14):
        res = refine(c, mode="cancellative")
        assert canon(res.blocks) == canon(naive_bisimilarity(c)), label


def test_cancellative_rejected_on_powerset(ts1):
    with pytest.raises(RefineError):
        refine(ts1, mode="cancellative")


def test_unknown_mode(ts1):
    with pytest.raises(RefineError):
        refine(ts1, mode="bogus")


def test_replay_trace_reproduces_partition():
    for functors, mode in ((FUNCTORS, "generic"),
                           (CANCELLATIVE_FUNCTORS, "cancellative")):
        for label, c in random_instances(functors, seeds=range(4), n=10):
            res = refine(c, mode=mode)
            assert replay_trace(res.trace) == res.block_of, (label, mode)


def test_replay_trace_checks_listings():
    # each refinement without a default child, listed wrongly in one of
    # three ways: replay names its split, its block and the state
    checked = 0
    for label, c in random_instances():
        trace = refine(c).trace
        for i, ev in enumerate(trace.splits):
            for ref in ev.refinements:
                saved = ref.children
                (T, val, kept), (cid, val2, moved), *rest = saved
                if kept is None:
                    continue
                wrong = [
                    ([(T, val, kept[1:])] + saved[1:], kept[0], "in no child"),
                    ([(T, val, kept + kept[:1])] + saved[1:], kept[0],
                     "listed twice"),
                    ([(T, val, None)] + rest + [(cid, val2, moved + kept)],
                     kept[-1], "leaves the default child empty"),
                ]
                for children, x, why in wrong:
                    ref.children = children
                    with pytest.raises(RefineError) as err:
                        replay_trace(trace)
                    assert err.value.args[:3] == (i, T, x), label
                    assert why in err.value.args[3], label
                    checked += 1
                ref.children = saved
    assert checked >= 100, checked


def test_block_of_consistent():
    for label, c in random_instances(seeds=range(3), n=10):
        res = refine(c)
        for bid, states in enumerate(res.blocks):
            assert all(res.block_of[s] == bid for s in states), label


def test_splitter_occurrence_bound():
    """No state enters a splitter more than log2(n) + 1 times."""
    for label, c in random_instances(seeds=range(4), n=32, density=0.15):
        res = refine(c)
        assert res.stats["max_in_splitter"] <= math.log2(max(c.n, 2)) + 1, label


def test_edge_cases():
    empty = Coalgebra(parse_functor("P"), (), ())
    res = refine(empty)
    assert res.blocks == [] and res.block_of == []
    one = parse_coalgebra("functor: P\nstates: a\na -> {a}")
    res = refine(one)
    assert res.blocks == [[0]]
    # constant functor: everything equivalent immediately
    const = parse_coalgebra("functor: C{k}\nstates: a, b\na -> k\nb -> k")
    res = refine(const)
    assert res.blocks == [[0, 1]]
    assert res.trace.splits == []


def test_stats_counters_present():
    res = refine(generate(GeneratorSpec(functor="P", n=20, seed=1,
                                        density=0.2)))
    st = res.stats
    for key in ("iterations", "new_blocks", "refined_parents",
                "visited_edges", "splitter_states", "max_in_splitter"):
        assert key in st and st[key] >= 0
    assert st["new_blocks"] == len(res.blocks) - len(res.trace.init.blocks)


def whole_row_trace(c, mode):
    """Reference trace: the same splitter queue, but every predecessor of
    the splitter and one untouched representative per block are keyed by
    fmap over their whole row."""
    n = c.n
    part, init_groups = initial_partition(c)
    trace = Trace(mode, n, InitEvent(
        [(b, v, tuple(sorted(part.block_states(b)))) for b, v in init_groups]),
        [])
    qof, members = {}, {}
    queue = deque()

    def compound(blocks):
        cid = len(members)
        members[cid] = dict.fromkeys(blocks)
        for b in blocks:
            qof[b] = cid
        if len(blocks) >= 2:
            queue.append(cid)
        return cid

    if n:
        compound(list(range(part.num_blocks())))
    while queue:
        cmpB = queue.popleft()
        if len(members[cmpB]) < 2:
            continue
        a, b2 = list(members[cmpB])[:2]
        S = a if part.size(a) <= part.size(b2) else b2
        S_states = tuple(part.block_states(S))
        in_S = set(S_states)
        if mode == "cancellative":
            col, k = [int(y in in_S) for y in range(n)], 2
        else:
            col = [2 if y in in_S else int(qof[part.block_of[y]] == cmpB)
                   for y in range(n)]
            k = 3
        touched = {}
        for y in S_states:
            for x in c.predecessors(y):
                states = touched.setdefault(part.block_of[x], [])
                if x not in states:
                    states.append(x)
        plans = []
        for T, t_states in touched.items():
            for x in t_states:
                part.mark(x)
            groups = {}
            for x in t_states:
                groups.setdefault(fmap(c.structure[x], col), []).append(x)
            default = None
            if part.marked[T] < part.size(T):
                rep = part.elems[part.first[T] + part.marked[T]]
                default = fmap(c.structure[rep], col)
                groups.pop(default, None)
            part.marked[T] = 0
            if len(groups) > (default is None):
                plans.append((T, groups, default))
        members[cmpB].pop(S)
        cmpS = compound([S])
        if len(members[cmpB]) >= 2 and cmpB not in queue:
            queue.append(cmpB)
        refinements = []
        for T, groups, default in plans:
            items = list(groups.items())
            if default is None:
                children = [(T, items[0][0], tuple(items[0][1]))]
                items = items[1:]
            else:
                children = [(T, default, None)]
            new_ids = part.extract_groups(T, [g for _, g in items])
            children += [(nb, key, tuple(g))
                         for nb, (key, g) in zip(new_ids, items)]
            cmpT = qof[T]
            for nb in new_ids:
                members[cmpT][nb] = None
                qof[nb] = cmpT
            if len(members[cmpT]) >= 2 and cmpT not in queue:
                queue.append(cmpT)
            refinements.append(Refinement(T, children))
        trace.splits.append(SplitEvent(S, cmpB, cmpS, refinements))
    return trace


def test_split_keys_match_whole_row_reference():
    """Keys read from stored weights give the whole-row trace exactly."""
    cases = [(c, "generic") for _l, c in random_instances(seeds=range(5), n=16)]
    cases += [(c, "cancellative") for _l, c in random_instances(
        CANCELLATIVE_FUNCTORS, seeds=range(5), n=16)]
    for c, mode in cases:
        assert refine(c, mode=mode, audit=True).trace == whole_row_trace(
            c, mode), (pretty_functor(c.functor), mode)


def test_cancelling_weights_fall_back_to_default_key():
    """x sends +1 and -1 into the splitter {s1, s2}: its key equals the
    default key of its block, so x stays with the untouched y."""
    c = parse_coalgebra(
        "functor: Z^(X)\nstates: x, y, s1, s2, a, b, c\n"
        "x -> {s1: 1, s2: -1}\ny -> {}\ns1 -> {a: 1}\ns2 -> {b: 1}\n"
        "a -> {a: 2}\nb -> {a: 2}\nc -> {a: 2}\n")
    for mode in ("generic", "cancellative"):
        res = refine(c, mode=mode, audit=True)
        assert res.trace == whole_row_trace(c, mode)
        assert [res.blocks[ev.splitter] for ev in res.trace.splits] == [
            [0, 1], [2, 3]]
        assert all(not ev.refinements for ev in res.trace.splits)
        assert canon(res.blocks) == canon([[0, 1], [2, 3], [4, 5, 6]])


@pytest.mark.parametrize("text", [
    # x and y weigh 1/2 into b ~ c over leaf scales 4 and 2
    "functor: D(X) + C{stop}\nstates: x, y, z, a, b, c\n"
    "x -> in1({a: 1/2, b: 1/4, c: 1/4})\ny -> in1({a: 1/2, b: 1/2})\n"
    "z -> in1({a: 1/4, b: 3/4})\na -> in2(stop)\nb -> in1({a: 1})\n"
    "c -> in1({a: 1})\n",
    # x's weights into {s1, s2} cancel to y's, the default key
    "functor: Z^(X)\nstates: x, y, s1, s2, a, b\n"
    "x -> {s1: 2, s2: -2, a: 1}\ny -> {a: 1}\ns1 -> {a: 3}\n"
    "s2 -> {b: 3}\na -> {a: 2}\nb -> {a: 2}\n",
    # the same over scales 6 and 3
    "functor: R^(X)\nstates: x, y, s1, s2, a, b\n"
    "x -> {s1: 1/2, s2: -1/2, a: 1/3}\ny -> {a: 1/3}\ns1 -> {a: 3}\n"
    "s2 -> {b: 3}\na -> {a: 2}\nb -> {a: 2}\n",
])
def test_keys_canonical_over_leaf_scales(text):
    """Rows with equal rational weights key alike, whatever their leaf
    denominators: x and y end in one block."""
    c = parse_coalgebra(text)
    expected = canon(naive_bisimilarity(c))
    for mode in ("generic", "cancellative"):
        if mode == "cancellative" and not is_cancellative(c.functor):
            continue
        res = refine(c, mode=mode, audit=True)
        assert res.trace == whole_row_trace(c, mode), mode
        assert canon(res.blocks) == expected, mode
        assert res.block_of[0] == res.block_of[1], mode
        for _b, value, states in res.trace.init.blocks:
            assert all(fmap(c.structure[x], [0] * c.n) == value
                       for x in states)


def _weight_entries(v):
    """Number of weights in a recorded value."""
    if type(v) is int:
        return 0
    if v[0] == "vec":
        return len(v[1])
    if v[0] == "in":
        return _weight_entries(v[2])
    if v[0] in ("tuple", "fun"):
        return sum(map(_weight_entries, v[1]))
    return 0


def test_fractions_only_for_recorded_values(monkeypatch):
    """refine builds a Fraction only for a weight of a recorded value: none
    on unweighted functors, at most one per weight in the trace on the
    others."""
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(refiner, "Fraction", counted)
    built = {}
    for label, c in random_instances(seeds=range(4), n=16):
        fx = label.split(" seed=")[0]
        for mode in ("generic", "cancellative"):
            if mode == "cancellative" and not is_cancellative(c.functor):
                continue
            made.clear()
            trace = refine(c, mode=mode).trace
            values = [v for _b, v, _s in trace.init.blocks]
            values += [v for ev in trace.splits for ref in ev.refinements
                       for _b, v, _s in ref.children]
            assert len(made) <= sum(map(_weight_entries, values)), (label,
                                                                    mode)
            built[fx] = built.get(fx, 0) + len(made)
    for fx in ("P", "Sig(f/2, g/0, h/1)", "P^{a,b}"):
        assert built[fx] == 0, fx
    assert built["R^(X)"] and built["(D(X) + C{stop})^{a,b}"]


def test_one_state_blocks_are_not_keyed(monkeypatch):
    """refine marks, and then keys, only states of blocks with at least two
    states; skipping the others leaves the whole-row reference's trace."""
    mark = refiner.RefinablePartition.mark
    marked = []

    def checked(part, s):
        assert part.size(part.block_of[s]) >= 2, s
        marked.append(s)
        mark(part, s)

    for label, c in random_instances(seeds=range(4), n=16):
        for mode in refiner.MODES:
            if mode == "cancellative" and not is_cancellative(c.functor):
                continue
            want = whole_row_trace(c, mode)  # marks one-state blocks too
            with monkeypatch.context() as m:
                m.setattr(refiner.RefinablePartition, "mark", checked)
                assert refine(c, mode=mode).trace == want, (label, mode)
    assert marked


def hub_family(n, hubs=3):
    """A chain 0 -> 1 -> ... -> n-1 whose first states instead point at a
    random half of all states."""
    rng = random.Random(n)
    rows = [("set", (i + 1,)) for i in range(n - 1)] + [("set", ())]
    for h in range(hubs):
        rows[h] = ("set", tuple(sorted(rng.sample(range(n), n // 2))))
    return Coalgebra(parse_functor("P"), tuple("s%d" % i for i in range(n)),
                     tuple(rows))


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_hub_work_follows_edges_into_splitter(n):
    """Rekeying reads the edges into the splitter, not the hubs' rows."""
    c = hub_family(n)
    res = refine(c)
    assert len(res.blocks) == n
    assert res.stats["visited_edges"] <= 2 * (n + c.m) * math.log2(n)
