"""Refinable-partition data structure: unit cases and random audits."""

import pytest
from hypothesis import given, settings, strategies as st

from coalgcert.partition import PartitionError, RefinablePartition


def test_initial():
    p = RefinablePartition(4)
    assert p.num_blocks() == 1 and p.block_states(0) == [0, 1, 2, 3]
    assert RefinablePartition(0).num_blocks() == 0


def test_extract_groups():
    p = RefinablePartition(6)
    ids = p.extract_groups(0, [[1, 2], [5]])
    assert len(ids) == 2
    assert sorted(p.block_states(ids[0])) == [1, 2]
    assert sorted(p.block_states(ids[1])) == [5]
    assert sorted(p.block_states(0)) == [0, 3, 4]
    assert p.audit()


def test_extract_groups_requires_remainder():
    p = RefinablePartition(2)
    with pytest.raises(PartitionError):
        p.extract_groups(0, [[0], [1]])


def test_extract_groups_rejects_foreign_state():
    p = RefinablePartition(4)
    b = p.extract_groups(0, [[3]])[0]
    with pytest.raises(PartitionError):
        p.extract_groups(0, [[3]])  # 3 now lives in block b
    assert p.block_of[3] == b


def test_split_by_key_first_group_keeps_id():
    p = RefinablePartition(6)
    out = p.split_by_key(0, lambda s: s % 3)
    assert out[0][0] == 0 and out[0][1] == 0  # first occurrence is state 0
    assert {k for _, k in out} == {0, 1, 2}
    got = {k: sorted(p.block_states(b)) for b, k in out}
    assert got == {0: [0, 3], 1: [1, 4], 2: [2, 5]}
    assert p.audit()


def test_split_by_key_single_group():
    p = RefinablePartition(3)
    assert p.split_by_key(0, lambda s: "same") == [(0, "same")]
    assert p.num_blocks() == 1


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 24), data=st.data())
def test_random_operation_sequence(n, data):
    """Arbitrary interleavings of marks and keyed splits keep the structure
    consistent and agree with a straightforward set-of-sets model."""
    p = RefinablePartition(n)
    model = [set(range(n))]  # model[b] mirrors block b
    steps = data.draw(st.integers(0, 30))
    for _ in range(steps):
        op = data.draw(st.sampled_from(["mark", "key"]))
        if op == "mark":
            s = data.draw(st.integers(0, n - 1))
            p.mark(s)
        else:
            b = data.draw(st.integers(0, p.num_blocks() - 1))
            r = data.draw(st.integers(2, 4))
            out = p.split_by_key(b, lambda s: s % r)
            if len(out) > 1:
                by_key = {}
                for s in model[b]:
                    by_key.setdefault(s % r, set()).add(s)
                order = sorted(by_key, key=lambda k: min(
                    p.loc[s] for s in by_key[k]))
                assert len(out) == len(by_key)
                model[b] = by_key[out[0][1]]
                for nb, k in out[1:]:
                    model.append(by_key[k])
        assert p.audit()
        # clear stray marks in the model's view: marks don't change blocks
        for b in range(p.num_blocks()):
            assert set(p.block_states(b)) == model[b]
