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

    def _swap(self, i, j):
        ei, ej = self.elems[i], self.elems[j]
        self.elems[i], self.elems[j] = ej, ei
        self.loc[ei], self.loc[ej] = j, i

    def mark(self, s):
        """Move s into the marked prefix of its block (idempotent)."""
        b = self.block_of[s]
        i = self.loc[s]
        m = self.first[b] + self.marked[b]
        if i < m:
            return
        self._swap(i, m)
        self.marked[b] += 1

    def extract_groups(self, b, groups):
        """Split off explicit state groups from block b.

        ``groups`` is a list of disjoint non-empty state lists, all inside b
        and jointly proper (their union must not equal b).  Each becomes a
        fresh block at the tail of b's slice; untouched states keep id b.
        Returns the new block ids in order."""
        total = sum(len(g) for g in groups)
        if total >= self.size(b):
            raise PartitionError("extract_groups must leave a remainder")
        tail = self.end[b]
        new_ids = []
        for g in reversed(groups):
            for s in g:
                if self.block_of[s] != b:
                    raise PartitionError("state %d not in block %d" % (s, b))
                tail -= 1
                self._swap(self.loc[s], tail)
        cut = self.end[b] - total
        pos = cut
        for g in groups:
            new = len(self.first)
            self.first.append(pos)
            pos += len(g)
            self.end.append(pos)
            self.marked.append(0)
            for i in range(self.first[new], self.end[new]):
                self.block_of[self.elems[i]] = new
            new_ids.append(new)
        self.end[b] = cut
        self.marked[b] = min(self.marked[b], self.size(b))
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
