"""Partition refinement: goldens, mode agreement, traces, complexity bounds."""

import math
import random
import tracemalloc
from collections import deque

import pytest

from coalgcert.coalgebra import Coalgebra, parse_coalgebra
from coalgcert import refiner
from coalgcert.functor import is_cancellative, parse_functor, pretty_functor
from coalgcert.oracle import (
    GeneratorSpec, generate, naive_bisimilarity, partition_key,
)
from coalgcert.refiner import (
    RefineError, initial_partition, refine, replay_trace,
)
from coalgcert.values import fmap
from conftest import (
    CANCELLATIVE_FUNCTORS, FUNCTORS, composite_instance, hub_line,
    random_instances,
)
from reference import predecessors, rewrite_trace, trace_events


def canon(blocks):
    return partition_key(blocks)


def events(trace):
    """A trace's content, read through its accessor, for comparisons."""
    return trace.mode, trace.n, trace_events(trace)


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
        init, splits = trace_events(trace)
        for i, (_S, _B, refinements) in enumerate(splits):
            for ref in refinements:
                T, saved = ref
                [_T, val, kept], [cid, val2, moved], *rest = saved
                if kept is None:
                    continue
                wrong = [
                    ([[T, val, kept[1:]]] + saved[1:], kept[0], "in no child"),
                    ([[T, val, kept + kept[:1]]] + saved[1:], kept[0],
                     "listed twice"),
                    ([[T, val, None]] + rest + [[cid, val2, moved + kept]],
                     kept[-1], "leaves the default child empty"),
                ]
                for children, x, why in wrong:
                    ref[1] = children
                    with pytest.raises(RefineError) as err:
                        replay_trace(rewrite_trace(trace.mode, trace.n, init,
                                                   splits))
                    assert err.value.args[:3] == (i, T, x), label
                    assert why in err.value.args[3], label
                    checked += 1
                ref[1] = saved
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
    assert len(res.trace) == 0


def test_stats_counters_present():
    res = refine(generate(GeneratorSpec(functor="P", n=20, seed=1,
                                        density=0.2)))
    st = res.stats
    for key in ("iterations", "new_blocks", "refined_parents",
                "visited_edges", "splitter_states", "max_in_splitter"):
        assert key in st and st[key] >= 0
    init, _splits = trace_events(res.trace)
    assert st["new_blocks"] == len(res.blocks) - len(init)


def whole_row_trace(c, mode):
    """Reference trace: the same splitter queue, but every predecessor of
    the splitter and one untouched representative per block are keyed by
    fmap over their whole row."""
    n = c.n
    part, init_groups = initial_partition(c)
    init = [[b, v, sorted(part.block_states(b))] for b, v in init_groups]
    splits = []
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
            for x in predecessors(c, y):
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
                children = [[T, items[0][0], items[0][1]]]
                items = items[1:]
            else:
                children = [[T, default, None]]
            new_ids = part.extract_groups(T, [g for _, g in items])
            children += [[nb, key, g] for nb, (key, g) in zip(new_ids, items)]
            cmpT = qof[T]
            for nb in new_ids:
                members[cmpT][nb] = None
                qof[nb] = cmpT
            if len(members[cmpT]) >= 2 and cmpT not in queue:
                queue.append(cmpT)
            refinements.append([T, children])
        assert cmpS == len(splits) + 1
        splits.append([S, cmpB, refinements])
    return rewrite_trace(mode, n, init, splits)


def keyed_cases(n, seeds=range(5)):
    """(coalgebra, mode): every functor in generic mode, the composite
    included, and the cancellative ones in cancellative mode."""
    for _l, c in random_instances(seeds=seeds, n=n):
        yield c, "generic"
    for seed in seeds:
        yield composite_instance(seed, n), "generic"
    for _l, c in random_instances(CANCELLATIVE_FUNCTORS, seeds, n):
        yield c, "cancellative"


def test_split_keys_match_whole_row_reference():
    """Keys read from stored weights give the whole-row trace exactly.  At
    n = 40 keys repeat across splits and initial blocks, so the key table
    is hit."""
    for n in (16, 40):
        for c, mode in keyed_cases(n):
            assert events(refine(c, mode=mode, audit=True).trace) == events(
                whole_row_trace(c, mode)), (pretty_functor(c.functor), mode, n)


def trace_keys(trace):
    """(initial block, key) of every child of every refinement."""
    init, splits = trace_events(trace)
    root = {b: b for b, _v, _states in init}
    for _S, _B, refinements in splits:
        for T, children in refinements:
            for child, key, _states in children:
                root[child] = root[T]
                yield root[child], key


def test_equal_split_keys_are_one_object():
    """Equal split keys are one entry of the key table."""
    for c, mode in keyed_cases(40, seeds=range(3)):
        seen = {}
        for _r, key in trace_keys(refine(c, mode=mode).trace):
            assert seen.setdefault(key, key) is key, pretty_functor(c.functor)


def planted_copies(c, copies):
    """copies disjoint copies of c: copy i of state x is i * n + x."""
    n = c.n
    rows = [fmap(t, range(i * n, (i + 1) * n)) for i in range(copies)
            for t in c.structure]
    names = tuple("%s_%d" % (s, i) for i in range(copies) for s in c.states)
    return Coalgebra(c.functor, names, tuple(rows))


def test_key_walks_count_distinct_keys(monkeypatch):
    """One row walk per distinct (initial block, key) of the trace, far
    fewer than the states keyed on planted copies."""
    sigs = refiner._SplitWeights.sigs
    calls = []  # one per state keyed

    def counted(self, states, *args, **kw):
        calls.extend(states)
        return sigs(self, states, *args, **kw)

    base = generate(GeneratorSpec("(D(X) + C{stop})^{a,b}", 30, seed=1,
                                  density=0.1))
    c = planted_copies(base, 8)
    monkeypatch.setattr(refiner._SplitWeights, "sigs", counted)
    for mode in refiner.MODES:
        calls.clear()
        res = refine(c, mode=mode)
        walks = res.stats["key_walks"]
        assert walks == len(set(trace_keys(res.trace))), mode
        assert 0 < 4 * walks < len(calls), (mode, walks, len(calls))


def test_cancelling_weights_fall_back_to_default_key():
    """x sends +1 and -1 into the splitter {s1, s2}: its key equals the
    default key of its block, so x stays with the untouched y."""
    c = parse_coalgebra(
        "functor: Z^(X)\nstates: x, y, s1, s2, a, b, c\n"
        "x -> {s1: 1, s2: -1}\ny -> {}\ns1 -> {a: 1}\ns2 -> {b: 1}\n"
        "a -> {a: 2}\nb -> {a: 2}\nc -> {a: 2}\n")
    for mode in ("generic", "cancellative"):
        res = refine(c, mode=mode, audit=True)
        assert events(res.trace) == events(whole_row_trace(c, mode))
        _init, splits = trace_events(res.trace)
        assert [res.blocks[S] for S, _B, _r in splits] == [[0, 1], [2, 3]]
        assert all(not refinements for _S, _B, refinements in splits)
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
        assert events(res.trace) == events(whole_row_trace(c, mode)), mode
        assert canon(res.blocks) == expected, mode
        assert res.block_of[0] == res.block_of[1], mode
        for _b, value, states in trace_events(res.trace)[0]:
            assert all(fmap(c.structure[x], [0] * c.n) == value
                       for x in states)


def test_one_state_blocks_are_not_keyed(monkeypatch):
    """refine marks, and then keys, only states of blocks with at least two
    states; skipping the others leaves the whole-row reference's trace."""
    mark = refiner.RefinablePartition.mark
    marked = []

    def checked(part, *states):
        for s in states:
            assert part.size(part.block_of[s]) >= 2, s
        marked.extend(states)
        mark(part, *states)

    for label, c in random_instances(seeds=range(4), n=16):
        for mode in refiner.MODES:
            if mode == "cancellative" and not is_cancellative(c.functor):
                continue
            want = whole_row_trace(c, mode)  # marks one-state blocks too
            with monkeypatch.context() as m:
                m.setattr(refiner.RefinablePartition, "mark", checked)
                assert events(refine(c, mode=mode).trace) == events(want), (
                    label, mode)
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


def test_hub_line_work_is_quasilinear():
    """On hub-line(k) refine's visited edges per (n + m) log2 n stay within
    x1.5 as k grows eightfold, and the trace is the whole-row one."""
    ratios = []
    for k in (500, 1000, 2000, 4000):
        c = hub_line(k)
        ratios.append(refine(c).stats["visited_edges"]
                      / ((c.n + c.m) * math.log2(c.n)))
    assert max(ratios) <= 1.5 * min(ratios), ratios
    c = hub_line(20)
    assert events(refine(c, audit=True).trace) == events(
        whole_row_trace(c, "generic"))


def test_refine_trace_is_compact():
    """The trace holds int arrays and the key table, no object per split:
    at most 250 bytes per split on a composite system of 5,031 states."""
    c = composite_instance(1, n=2000)
    c.edges  # built before the measurement
    tracemalloc.start()
    try:
        res = refine(c)
        splits = len(res.trace)
        held = tracemalloc.get_traced_memory()[0]
        res.trace = None
        trace_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert c.n == 5031 and splits == 2678, (c.n, splits)
    assert trace_bytes <= 250 * splits, trace_bytes / splits


def test_trace_parents_are_the_refined_blocks():
    # parents(i) reads split i's refined blocks without decoding children
    for label, c in random_instances(seeds=range(3), n=20):
        trace = refine(c).trace
        for i in range(len(trace)):
            assert list(trace.parents(i)) == [
                T for T, _children in trace.event(i)[2]], label
