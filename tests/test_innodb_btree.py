"""Unit tests for the update-in-place B+tree (InnoDB tables)."""

import bisect

import pytest

from repro.innodb.btree import BTree
from repro.innodb.page import Page


class TreeHarness:
    """In-memory page store standing in for pool + tablespace."""

    def __init__(self, leaf_capacity=4, internal_fanout=4):
        self.pages = {}
        self.next_id = 0
        self.lsn = 0
        self.tree = BTree("t", fetch=self.fetch, write=self.write,
                          allocate=self.allocate, next_lsn=self.next_lsn,
                          leaf_capacity=leaf_capacity,
                          internal_fanout=internal_fanout)

    def fetch(self, page_id):
        return self.pages[page_id]

    def write(self, page):
        self.pages[page.page_id] = page

    def allocate(self):
        self.next_id += 1
        return self.next_id - 1

    def next_lsn(self):
        self.lsn += 1
        return self.lsn


@pytest.fixture
def harness():
    return TreeHarness()


def test_empty_tree(harness):
    assert harness.tree.get(1) is None
    assert not harness.tree.contains(1)
    assert list(harness.tree.items()) == []
    assert harness.tree.depth() == 1


def test_put_get_roundtrip(harness):
    assert harness.tree.put(5, "five")
    assert harness.tree.get(5) == "five"
    assert harness.tree.entry_count == 1


def test_overwrite_returns_false(harness):
    harness.tree.put(5, "v1")
    assert not harness.tree.put(5, "v2")
    assert harness.tree.get(5) == "v2"
    assert harness.tree.entry_count == 1


def test_splits_preserve_order(harness):
    keys = list(range(100))
    import random
    random.Random(1).shuffle(keys)
    for key in keys:
        harness.tree.put(key, ("row", key))
    assert [k for k, __ in harness.tree.items()] == sorted(range(100))
    assert harness.tree.depth() >= 3


def test_get_after_heavy_insert(harness):
    for key in range(200):
        harness.tree.put(key, key * 2)
    for key in range(200):
        assert harness.tree.get(key) == key * 2


def test_delete(harness):
    for key in range(30):
        harness.tree.put(key, key)
    assert harness.tree.delete(7)
    assert harness.tree.get(7) is None
    assert not harness.tree.delete(7)
    assert harness.tree.entry_count == 29


def test_range_scan(harness):
    for key in range(0, 100, 2):
        harness.tree.put(key, key)
    got = list(harness.tree.range(10, 20))
    assert got == [(10, 10), (12, 12), (14, 14), (16, 16), (18, 18), (20, 20)]


def test_range_with_limit(harness):
    for key in range(50):
        harness.tree.put(key, key)
    got = list(harness.tree.range(0, 49, limit=5))
    assert len(got) == 5
    assert got[0] == (0, 0)


def test_range_empty_window(harness):
    harness.tree.put(1, "a")
    harness.tree.put(100, "b")
    assert list(harness.tree.range(2, 99)) == []


def test_tuple_keys(harness):
    harness.tree.put((1, 0, 5), "link-a")
    harness.tree.put((1, 0, 9), "link-b")
    harness.tree.put((1, 1, 2), "link-c")
    harness.tree.put((2, 0, 1), "link-d")
    got = list(harness.tree.range((1, 0, -1), (1, 0, 1 << 62)))
    assert [v for __, v in got] == ["link-a", "link-b"]


def test_validation():
    h = TreeHarness()
    with pytest.raises(ValueError):
        BTree("x", h.fetch, h.write, h.allocate, h.next_lsn, leaf_capacity=1)
    with pytest.raises(ValueError):
        BTree("x", h.fetch, h.write, h.allocate, h.next_lsn,
              internal_fanout=2)


def test_mixed_workload_consistency(harness):
    import random
    rng = random.Random(42)
    model = {}
    for step in range(2000):
        key = rng.randrange(300)
        action = rng.random()
        if action < 0.5:
            model[key] = step
            harness.tree.put(key, step)
        elif action < 0.7:
            model.pop(key, None)
            harness.tree.delete(key)
        else:
            assert harness.tree.get(key) == model.get(key)
    assert sorted(model.items()) == list(harness.tree.items())


# --------------------------------------------------------------------------
# Range scans: which leaves a scan fetches
# --------------------------------------------------------------------------
#
# The buffer pool's LRU order and hit counts depend on exactly which pages
# a range scan fetches, so the scan must touch the descent path, then only
# the leaves it could still continue into.


class FetchLog(TreeHarness):
    def __init__(self):
        super().__init__()
        self.fetched = None     # None: not recording

    def fetch(self, page_id):
        if self.fetched is not None:
            self.fetched.append(page_id)
        return super().fetch(page_id)

    def scan(self, low, high, limit=None):
        self.fetched = []
        try:
            return list(self.tree.range(low, high, limit)), self.fetched
        finally:
            self.fetched = None


def _spaced_tree():
    """Keys 0, 10, ..., 490 in leaves of at most four keys."""
    log = FetchLog()
    for key in range(0, 500, 10):
        log.tree.put(key, ("row", key))
    return log


def _leaves(log):
    """(page id, keys) of every leaf in key order, read without logging."""
    node = log.pages[log.tree.root_page_id].payload
    while node[0] == "internal":
        page_id = node[2][0]
        node = log.pages[page_id].payload
    out = []
    while True:
        out.append((page_id, node[1]))
        if node[3] is None:
            return out
        page_id = node[3]
        node = log.pages[page_id].payload


def _descent(log, key):
    log.fetched = []
    __, __, path = log.tree._descend(key)
    fetched, log.fetched = log.fetched, None
    assert fetched[:-1] == path
    return fetched


def _rowwise_range(tree, low, high, limit=None):
    """Row-at-a-time reference scan: yields one row per step and fetches
    the next leaf only when it runs off the end of the current one."""
    __, node, __ = tree._descend(low)
    yielded = 0
    while True:
        __, keys, rows, next_leaf = node
        for index in range(bisect.bisect_left(keys, low), len(keys)):
            if keys[index] > high:
                return
            yield keys[index], rows[index]
            yielded += 1
            if limit is not None and yielded >= limit:
                return
        if next_leaf is None:
            return
        node = tree._node(next_leaf)


def test_range_limit_ending_at_leaf_end_fetches_no_next_leaf():
    log = _spaced_tree()
    leaves = _leaves(log)
    leaf_id, keys = leaves[2]
    rows, fetched = log.scan(keys[0], 10_000, limit=len(keys))
    assert [key for key, __ in rows] == list(keys)
    assert fetched == _descent(log, keys[0])
    assert fetched[-1] == leaf_id


def test_range_empty_fetches_only_the_descent():
    log = _spaced_tree()
    __, keys = _leaves(log)[3]
    low, high = keys[0] + 1, keys[1] - 1   # strictly between two keys
    rows, fetched = log.scan(low, high)
    assert rows == []
    assert fetched == _descent(log, low)


def test_range_low_above_high_past_leaf_end_fetches_next_leaf():
    log = _spaced_tree()
    leaves = _leaves(log)
    (leaf_id, keys), (next_id, __) = leaves[1], leaves[2]
    low = keys[-1] + 5          # past this leaf's last key
    rows, fetched = log.scan(low, low - 1)
    assert rows == []
    assert fetched == _descent(log, low) + [next_id]
    assert fetched[-2] == leaf_id


def test_range_spanning_leaves_fetches_each_leaf_once():
    log = _spaced_tree()
    leaves = _leaves(log)
    first, last = leaves[1], leaves[4]
    assert len(last[1]) >= 2
    low, high = first[1][1], last[1][0]
    rows, fetched = log.scan(low, high)
    assert [key for key, __ in rows] == list(range(low, high + 1, 10))
    assert fetched == (_descent(log, low)
                       + [page_id for page_id, __ in leaves[2:5]])
    # A high equal to a leaf's last key runs off that leaf's end, so the
    # next leaf is fetched and its first key stops the scan.
    rows, fetched = log.scan(low, last[1][-1])
    assert rows[-1][0] == last[1][-1]
    assert fetched == (_descent(log, low)
                       + [page_id for page_id, __ in leaves[2:6]])


def test_range_matches_rowwise_scan_rows_and_fetches():
    log = _spaced_tree()
    for key in (40, 50, 60, 70, 200):   # leave some leaves short or empty
        log.tree.delete(key)
    bounds = list(range(-5, 505, 5))
    for low in bounds[::3]:
        for high in bounds[::7]:
            for limit in (None, 0, 1, 3, 4, 7):
                rows, fetched = log.scan(low, high, limit)
                log.fetched = []
                want = list(_rowwise_range(log.tree, low, high, limit))
                want_fetched, log.fetched = log.fetched, None
                assert (rows, fetched) == (want, want_fetched), \
                    (low, high, limit)
