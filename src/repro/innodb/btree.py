"""Update-in-place B+tree over the buffer pool.

This is the InnoDB-style index: nodes are pages, updates modify pages in
place (in the pool; the device still writes out of place internally), and
the *flush* path — not the tree — is what differs between DWB and SHARE
modes.  Keys are arbitrary comparable Python values; rows are opaque.

Deletion is lazy (no rebalancing): emptied leaves stay linked until the
tree is rebuilt, which matches what the experiments need — LinkBench never
shrinks the database meaningfully.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import EngineError
from repro.innodb.page import Page

LEAF = "leaf"
INTERNAL = "internal"


def _leaf_payload(keys: List[Any], rows: List[Any],
                  next_leaf: Optional[int]) -> tuple:
    return (LEAF, tuple(keys), tuple(rows), next_leaf)


def _internal_payload(keys: List[Any], children: List[int]) -> tuple:
    return (INTERNAL, tuple(keys), tuple(children))


class BTree:
    """A B+tree whose nodes live in the buffer pool.

    The tree talks to storage through three callbacks supplied by the
    engine: ``fetch(page_id) -> Page``, ``write(page) -> None`` (installs
    the new image dirty in the pool), and ``allocate() -> page_id``.
    """

    def __init__(self, name: str,
                 fetch: Callable[[int], Page],
                 write: Callable[[Page], None],
                 allocate: Callable[[], int],
                 next_lsn: Callable[[], int],
                 leaf_capacity: int = 32,
                 internal_fanout: int = 64,
                 root_page_id: Optional[int] = None) -> None:
        if leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2: {leaf_capacity}")
        if internal_fanout < 3:
            raise ValueError(f"internal_fanout must be >= 3: {internal_fanout}")
        self.name = name
        self._fetch = fetch
        self._write = write
        self._allocate = allocate
        self._next_lsn = next_lsn
        self.leaf_capacity = leaf_capacity
        self.internal_fanout = internal_fanout
        if root_page_id is None:
            root_page_id = self._allocate()
            self._write(Page(root_page_id, self._next_lsn(),
                             _leaf_payload([], [], None)))
        self.root_page_id = root_page_id
        self.entry_count = 0

    # ------------------------------------------------------------ plumbing

    def _node(self, page_id: int) -> tuple:
        page = self._fetch(page_id)
        if not page.checksum_ok:
            raise EngineError(f"torn page {page_id} read through B+tree")
        return page.payload

    def _store(self, page_id: int, payload: tuple) -> None:
        self._write(Page(page_id, self._next_lsn(), payload))

    def _descend(self, key: Any) -> Tuple[int, tuple, List[int]]:
        """Leaf holding ``key``'s position: its page id, its (already
        fetched) payload, and the internal path (root first).

        Every node access in the tree funnels through here, so the walk
        is written flat: the fetched leaf payload is returned rather
        than refetched by the caller — at steady state that drops one
        pool hit (dict probe + LRU move) per get/put/delete."""
        fetch = self._fetch
        bisect_right = bisect.bisect_right
        path: List[int] = []
        page_id = self.root_page_id
        while True:
            page = fetch(page_id)
            if not page.checksum_ok:
                raise EngineError(
                    f"torn page {page_id} read through B+tree")
            node = page.payload
            if node[0] != INTERNAL:
                return page_id, node, path
            path.append(page_id)
            page_id = node[2][bisect_right(node[1], key)]

    # -------------------------------------------------------------- lookup

    def get(self, key: Any) -> Optional[Any]:
        """Row stored under ``key``, or None."""
        __, node, __ = self._descend(key)
        keys = node[1]
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return node[2][index]
        return None

    def contains(self, key: Any) -> bool:
        return self.get(key) is not None

    def range(self, low: Any, high: Any, limit: Optional[int] = None
              ) -> List[Tuple[Any, Any]]:
        """(key, row) for low <= key <= high in key order, at most
        ``limit`` of them (a limit below 1 still returns the first row).

        Each leaf contributes one slice between ``bisect_left(low)`` and
        ``bisect_right(high)``.  The next leaf is fetched only while the
        scan could still continue into it: the limit is not yet reached
        and no key of this leaf from ``low`` on lies above ``high``."""
        __, node, __ = self._descend(low)
        bisect_left = bisect.bisect_left
        bisect_right = bisect.bisect_right
        room = None if limit is None else max(limit, 1)
        out: List[Tuple[Any, Any]] = []
        while True:
            __, keys, rows, next_leaf = node
            start = bisect_left(keys, low)
            stop = max(start, bisect_right(keys, high))
            full = room is not None and stop - start >= room
            if full:
                stop = start + room
            out.extend(zip(keys[start:stop], rows[start:stop]))
            if full or stop < len(keys) or next_leaf is None:
                return out
            if room is not None:
                room -= stop - start
            node = self._node(next_leaf)

    # -------------------------------------------------------------- insert

    def put(self, key: Any, row: Any) -> bool:
        """Insert or overwrite; returns True when the key was new."""
        was_new, __ = self.upsert(key, row)
        return was_new

    def upsert(self, key: Any, row: Any) -> Tuple[bool, Optional[Any]]:
        """Insert or overwrite in one descent; returns ``(was_new,
        previous_row)``.  The transaction layer uses the previous row as
        its undo record, replacing a separate :meth:`get` per write."""
        leaf_id, node, path = self._descend(key)
        __, keys, rows, next_leaf = node
        keys = list(keys)
        rows = list(rows)
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            old_row = rows[index]
            rows[index] = row
            self._store(leaf_id, _leaf_payload(keys, rows, next_leaf))
            return False, old_row
        keys.insert(index, key)
        rows.insert(index, row)
        self.entry_count += 1
        if len(keys) <= self.leaf_capacity:
            self._store(leaf_id, _leaf_payload(keys, rows, next_leaf))
            return True, None
        self._split_leaf(leaf_id, keys, rows, next_leaf, path)
        return True, None

    def _split_leaf(self, leaf_id: int, keys: List[Any], rows: List[Any],
                    next_leaf: Optional[int], path: List[int]) -> None:
        mid = len(keys) // 2
        right_id = self._allocate()
        self._store(right_id, _leaf_payload(keys[mid:], rows[mid:], next_leaf))
        self._store(leaf_id, _leaf_payload(keys[:mid], rows[:mid], right_id))
        self._insert_into_parent(path, leaf_id, keys[mid], right_id)

    def _insert_into_parent(self, path: List[int], left_id: int,
                            separator: Any, right_id: int) -> None:
        if not path:
            new_root = self._allocate()
            self._store(new_root, _internal_payload([separator],
                                                    [left_id, right_id]))
            self.root_page_id = new_root
            return
        parent_id = path[-1]
        __, keys, children = self._node(parent_id)
        keys = list(keys)
        children = list(children)
        index = bisect.bisect_right(keys, separator)
        keys.insert(index, separator)
        children.insert(index + 1, right_id)
        if len(children) <= self.internal_fanout:
            self._store(parent_id, _internal_payload(keys, children))
            return
        mid = len(keys) // 2
        push_up = keys[mid]
        right_internal = self._allocate()
        self._store(right_internal,
                    _internal_payload(keys[mid + 1:], children[mid + 1:]))
        self._store(parent_id,
                    _internal_payload(keys[:mid], children[:mid + 1]))
        self._insert_into_parent(path[:-1], parent_id, push_up, right_internal)

    # -------------------------------------------------------------- delete

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns True when it existed (lazy, no merge)."""
        __, existed = self.pop(key)
        return existed

    def pop(self, key: Any) -> Tuple[Optional[Any], bool]:
        """Remove ``key`` in one descent; returns ``(removed_row,
        existed)`` — the row feeds the transaction layer's undo record.
        The existed flag disambiguates a stored ``None`` row."""
        leaf_id, node, __ = self._descend(key)
        __, keys, rows, next_leaf = node
        index = bisect.bisect_left(keys, key)
        if index >= len(keys) or keys[index] != key:
            return None, False
        old_row = rows[index]
        keys = list(keys)
        rows = list(rows)
        del keys[index]
        del rows[index]
        self.entry_count -= 1
        self._store(leaf_id, _leaf_payload(keys, rows, next_leaf))
        return old_row, True

    # --------------------------------------------------------------- debug

    def depth(self) -> int:
        """Levels from root to leaf inclusive."""
        depth = 1
        node = self._node(self.root_page_id)
        while node[0] == INTERNAL:
            depth += 1
            node = self._node(node[2][0])
        return depth

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Full scan in key order."""
        page_id = self.root_page_id
        node = self._node(page_id)
        while node[0] == INTERNAL:
            page_id = node[2][0]
            node = self._node(page_id)
        while page_id is not None:
            __, keys, rows, next_leaf = self._node(page_id)
            for key, row in zip(keys, rows):
                yield key, row
            page_id = next_leaf
            if page_id is not None:
                node = self._node(page_id)
