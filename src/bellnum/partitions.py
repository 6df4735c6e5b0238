"""Brute-force set-partition oracle.

Set partitions of ``{1..n}`` are enumerated through their restricted
growth strings (``a_1 = 0`` and each later code at most one above the
running maximum), visited in lexicographic code order so output is
deterministic.  Everything counted here is counted by sheer exhaustion,
independent of any recurrence, which is exactly what makes it a useful
oracle for the exact kernel at small n.

One iterative walker, Knuth's Algorithm H, steps through the first n - 1
codes in place, changing O(1) codes per step on average.  Each caller
then places the last element in every block of the prefix and in a new
one: ``rgs_strings`` builds the tuples, counting-only enumeration counts
the placements one by one, and ``collect_stats`` keeps the prefix's
block sizes and an integer shape key up to date as codes change, so each
partition costs one tally, and turns the keys into shapes at the end.

Caps: full enumeration up to n = 13 (about 2.8e7 visits), statistics
collection up to n = 12 where the per-partition bookkeeping dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .exact import PartitionShape

__all__ = [
    "ENUM_CAP",
    "STATS_CAP",
    "PartitionStats",
    "rgs_strings",
    "rgs_to_blocks",
    "enumerate_partitions",
    "collect_stats",
    "genjiko_patterns",
]

ENUM_CAP = 13
STATS_CAP = 12


@dataclass(frozen=True)
class PartitionStats:
    """Exhaustive tallies over all set partitions of an n-set.

    ``block_of_element1_size_hist[k]`` counts partitions whose block
    containing element 1 has size k (index 0 unused);
    ``singleton_count_hist[k]`` counts partitions with exactly k
    singleton blocks.
    """

    n: int
    total: int
    no_singleton_total: int
    by_shape: dict[PartitionShape, int]
    block_of_element1_size_hist: tuple[int, ...]
    singleton_count_hist: tuple[int, ...]


def _prefixes(n: int) -> Iterator[tuple[int, list[int], int]]:
    """Knuth's Algorithm H (TAOCP Vol. 4A, 7.2.1.5) over the first n - 1
    codes of a restricted growth string of length n.

    Yields ``(j, head, m)`` once per prefix ``head`` (one list, updated in
    place), in lexicographic order; the last code may then take any value
    in ``0..m``, where ``m = 1 + max(head)`` (0 when n = 1) is also the
    number of blocks of the prefix.  Between two yields ``head[j]`` rises
    by one and each later code, every one of which had opened a block of
    its own, falls to 0; the first yield has ``j = n - 1``.
    """
    last = n - 1
    head = [0] * last
    # bound[i] = 1 + max(head[:i]), the largest code position i may take;
    # bound[0] = 1 > head[0] stops the scan below at position 0
    bound = [1] * n
    yield last, head, 1 if last else 0
    if last < 2:
        return  # a prefix of at most one code is all zeros
    q = last - 1
    while True:
        # step the prefix's last code through 1..bound[q]
        b = bound[q]
        for c in range(1, b):
            head[q] = c
            yield q, head, b
        head[q] = b
        yield q, head, b + 1
        # find the rightmost code below its bound, raise it, zero the rest
        j = q - 1
        while head[j] == bound[j]:
            j -= 1
        if not j:
            return
        c = head[j] = head[j] + 1
        m = bound[j] + (c == bound[j])
        for i in range(j + 1, last):
            head[i] = 0
            bound[i] = m
        yield j, head, m


def rgs_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all restricted growth strings of length n in lex order."""
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"n must be in 1..{ENUM_CAP}")
    tails = [(c,) for c in range(n)]
    for _, head, m in _prefixes(n):
        prefix = tuple(head)
        for tail in tails[:m + 1]:
            yield prefix + tail


def rgs_to_blocks(codes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Blocks of positions 1..n, ordered by first appearance."""
    nblocks = max(codes) + 1
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for pos, c in enumerate(codes, start=1):
        blocks[c].append(pos)
    return tuple(tuple(b) for b in blocks)


def enumerate_partitions(n: int, visitor: Callable[[tuple[int, ...]], None] | None = None) -> int:
    """Visit every set partition of {1..n} exactly once; return the count.

    The visitor, if given, receives the restricted growth string of each
    partition (use :func:`rgs_to_blocks` to materialize blocks).
    """
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"n must be in 1..{ENUM_CAP}")
    count = 0
    if visitor is None:
        # counting only: each placement of the last element is one visit
        for _, _, m in _prefixes(n):
            for _ in range(m + 1):
                count += 1
        return count
    for codes in rgs_strings(n):
        visitor(codes)
        count += 1
    return count


def collect_stats(n: int) -> PartitionStats:
    """Exhaustive statistics over all set partitions of an n-set."""
    if not 1 <= n <= STATS_CAP:
        raise ValueError(f"n must be in 1..{STATS_CAP}")
    # Each partition is tallied under one integer key: in base n + 1,
    # digit 0 is the size of element 1's block and digit s the number of
    # blocks of size s, so a block of size s adds weight[s] = base**s.
    base = n + 1
    weight = [0] + [base**s for s in range(1, n + 2)]
    grow = [weight[s + 1] - weight[s] for s in range(n + 1)]  # a block of size s gains one
    sizes = [0] * (n + 1)  # the prefix's blocks, then zeros: sizes[m] is the new block
    sizes[0] = n - 1  # the first prefix is all zeros
    key = weight[n - 1] + n - 1  # the prefix's key
    blocks = 1 if n > 1 else 0
    tally: dict[int, int] = {}
    get = tally.get
    for j, head, m in _prefixes(n):
        if j < n - 1:
            singles = n - 2 - j
            if singles:
                # the codes after j had each opened a block: the last ones
                blocks -= singles
                sizes[blocks:blocks + singles] = [0] * singles
                key -= singles * base
            # element j + 1 moves from block c - 1 to block c
            c = head[j]
            s = sizes[c - 1]
            sizes[c - 1] = s - 1
            key -= grow[s - 1] + (c == 1)
            s = sizes[c]
            sizes[c] = s + 1
            key += grow[s]
            if singles:
                # and the codes after j, now 0, join block 0
                s = sizes[0]
                sizes[0] = s + singles
                key += weight[s + singles] - weight[s] + singles
            blocks = m
        # the last element joins each block of the prefix, then a new one
        k = key + grow[sizes[0]] + 1
        tally[k] = get(k, 0) + 1
        for s in sizes[1:m + 1]:
            k = key + grow[s]
            tally[k] = get(k, 0) + 1
    by_shape: dict[PartitionShape, int] = {}
    block1_hist = [0] * (n + 1)
    singleton_hist = [0] * (n + 1)
    for key, count in tally.items():
        key, block1 = divmod(key, base)
        mult = {}
        for s in range(1, n + 1):
            key, mult[s] = divmod(key, base)
        shape = PartitionShape(tuple((s, c) for s, c in mult.items() if c))
        by_shape[shape] = by_shape.get(shape, 0) + count
        block1_hist[block1] += count
        singleton_hist[mult[1]] += count
    return PartitionStats(
        n=n,
        total=sum(tally.values()),
        no_singleton_total=singleton_hist[0],
        by_shape=by_shape,
        block_of_element1_size_hist=tuple(block1_hist),
        singleton_count_hist=tuple(singleton_hist),
    )


def genjiko_patterns() -> list[tuple[tuple[int, ...], ...]]:
    """The 52 ways to link five incenses, i.e. all set partitions of a
    5-set, in canonical (lexicographic growth-string) order.

    Each pattern is the tuple of linked groups over positions 1..5;
    right-to-left bar drawing is the display layer's concern.
    """
    return [rgs_to_blocks(codes) for codes in rgs_strings(5)]
