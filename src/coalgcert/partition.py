"""Refinable partition of the state set with O(1) marking and splitting.

States live in a permuted array; each block owns a contiguous slice and a
counter for the marked prefix.  Marking a state moves it to the front of
its block's slice, so the refiner can tell in O(1) whether it touched every
state of a block.  Splitting moves only the states that leave the block, so
the cost of a split is proportional to how many states were marked or
keyed, never to the total number of states.
"""

from __future__ import annotations


class PartitionError(RuntimeError):
    pass


class RefinablePartition:
    def __init__(self, n):
        self.n = n
        self.elems = list(range(n))
        self.loc = list(range(n))
        self.block_of = [0] * n
        # per-block slices; block 0 holds everything (no blocks when n = 0)
        self.first = [0] if n else []
        self.end = [n] if n else []
        self.marked = [0] if n else []

    def num_blocks(self):
        return len(self.first)

    def size(self, b):
        return self.end[b] - self.first[b]

    def block_states(self, b):
        return self.elems[self.first[b]:self.end[b]]

    def mark(self, *states):
        """Move each state into the marked prefix of its block
        (idempotent), with no call per state."""
        elems, loc, block_of, first, marked = (
            self.elems, self.loc, self.block_of, self.first, self.marked)
        for s in states:
            b = block_of[s]
            i, m = loc[s], first[b] + marked[b]
            if i >= m:
                e = elems[m]
                elems[i], elems[m], loc[e], loc[s] = e, s, i, m
                marked[b] += 1

    def extract_groups(self, b, groups):
        """Split off explicit state groups from block b.

        ``groups`` is a list of disjoint non-empty state lists, all inside b
        and jointly proper (their union must not equal b).  Each becomes a
        fresh block at the tail of b's slice; untouched states keep id b.
        Returns the new block ids in order."""
        elems, loc, block_of, first, end = (
            self.elems, self.loc, self.block_of, self.first, self.end)
        total = sum(map(len, groups))
        if total >= end[b] - first[b]:
            raise PartitionError("extract_groups must leave a remainder")
        tail = end[b]
        for g in reversed(groups):
            for s in g:
                if block_of[s] != b:
                    raise PartitionError("state %d not in block %d" % (s, b))
                tail -= 1
                i, e = loc[s], elems[tail]
                elems[i], elems[tail], loc[e], loc[s] = e, s, i, tail
        pos = cut = end[b] - total
        new_ids = list(range(len(first), len(first) + len(groups)))
        for new, g in zip(new_ids, groups):
            first.append(pos)
            pos += len(g)
            end.append(pos)
            self.marked.append(0)
            for s in g:
                block_of[s] = new
        end[b] = cut
        self.marked[b] = min(self.marked[b], cut - first[b])
        return new_ids

    def split_by_key(self, b, key):
        """Group block b by key(state); returns [(block_id, key_value)].

        Groups are formed in order of first occurrence within the block's
        current slice; the first group keeps id b.  A single group means no
        split happened."""
        groups = {}
        for s in self.block_states(b):
            groups.setdefault(key(s), []).append(s)
        items = list(groups.items())
        if len(items) == 1:
            return [(b, items[0][0])]
        new_ids = self.extract_groups(b, [g for _, g in items[1:]])
        out = [(b, items[0][0])]
        out.extend((nb, k) for nb, (k, _) in zip(new_ids, items[1:]))
        return out

    def audit(self):
        """Structural consistency check (tests only)."""
        assert sorted(self.elems) == list(range(self.n))
        for s in range(self.n):
            assert self.elems[self.loc[s]] == s
        covered = []
        for b in range(self.num_blocks()):
            assert 0 <= self.first[b] < self.end[b] <= self.n
            assert 0 <= self.marked[b] <= self.size(b)
            for i in range(self.first[b], self.end[b]):
                assert self.block_of[self.elems[i]] == b
            covered.append((self.first[b], self.end[b]))
        covered.sort()
        pos = 0
        for f, e in covered:
            assert f == pos
            pos = e
        assert pos == self.n
        return True
