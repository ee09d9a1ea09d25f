"""Bitsliced evaluation of graph properties over a window of the labelled
enumeration (Biham, "A fast new DES implementation in software", FSE 1997).

A window lays up to ``BLOCK`` graphs end to end in *parts*, each a run of
consecutive indices [lo, hi) of the Gray-code order of the m-vertex graphs
of ``constructions.iter_masks`` inside one aligned block of ``BLOCK``
indices. The engine keeps one Python int per edge variable: bit p is set
when the graph at position p has that edge. A property of every graph of
the window is then one int, its *indicator*, built from the edge variables
with AND, OR and XOR, so one big-int operation evaluates the whole window.

The graph at index i has edge k when bit k of its Gray mask i ^ (i >> 1)
is set, that is when X_k ^ X_{k+1} is set, X_k being bit k of the index.
When 2^k is at least the window's width, bit k flips at most once inside
the window, so X_k is bit k of lo up to that place and its complement
after it; below that, X_k is cut from its block-wide pattern, masked to
the window's bits before it is shifted.
Counts come from carry-save adders. Building a window costs the same for 2
graphs as for 2^16, so it is paid per window, not per graph, and the sizes
of a sharded run share one window: a part of fewer vertices than the
window's gets isolated vertices, which change none of its indicator bits.

The induced-K_{2,t} filter and the clique number come as ladders, one pass
per window each, and both run on one depth-first set walk, ``_walk``: a set
of s vertices ORs its indicator into the entry for s. ``Window.induced_k2t``
walks the independent sets of each non-adjacent pair's common
neighbourhood, up to the largest t asked for, so one walk per pair serves
every t. ``Window.clique_ladder`` walks the cliques of the window once, and
its entry k gives omega >= k.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations
from typing import Iterator, Optional

from .constructions import ENUMERATION_CAP, pair_order
from .graphs import Graph, GraphError, bits

BLOCK_BITS = 16
BLOCK = 1 << BLOCK_BITS


@functools.cache
def _index_bits() -> tuple[int, ...]:
    """X_k for k < BLOCK_BITS over a whole block: bit p set iff bit k of p."""
    out = []
    for k in range(BLOCK_BITS):
        period = 2 << k
        pattern = ((1 << (1 << k)) - 1) << (1 << k)
        while period < BLOCK:
            pattern |= pattern << period
            period *= 2
        out.append(pattern)
    return tuple(out)


def windows(slices) -> Iterator["Window"]:
    """The windows over ``slices``, each (m, lo, hi) of the m-vertex graphs,
    cut at the multiples of ``BLOCK``; consecutive parts share a window
    while it holds at most ``BLOCK`` graphs."""
    parts, width = [], 0
    for m, lo, hi in slices:
        while lo < hi:
            cut = min(hi, (lo // BLOCK + 1) * BLOCK)
            if width + cut - lo > BLOCK:
                yield Window(parts)
                parts, width = [], 0
            parts.append((m, lo, cut))
            width += cut - lo
            lo = cut
    if parts:
        yield Window(parts)


@functools.lru_cache(maxsize=64)
def _copies(n: int, h: Graph) -> list[tuple[int, ...]]:
    """The distinct edge sets (as pair indices) of the copies of h in K_n."""
    index = {}
    for k, (u, v) in enumerate(pair_order(n)):
        index[u, v] = index[v, u] = k
    found = set()
    for image in permutations(range(n), h.n):
        found.add(tuple(sorted(index[image[u], image[v]] for u, v in h.edges())))
    return sorted(found)


def _walk(at: list, cands: list, rel: list, low: int, size: int = 0) -> None:
    """OR into at[size + k], for k = 1 .. len(at) - 1 - size, the positions
    of every k-subset S of ``cands``, a list of (vertex, indicator): the
    indicators of S AND rel[u][v] for every pair u, v of S. One
    depth-first walk; each child's indicator carries its prefix, and the
    last level ORs its candidates without a list. A branch that cannot
    reach ``low`` vertices is left out, so only the entries from at[low]
    on are complete."""
    top = len(at) - 1
    for i, (u, x) in enumerate(cands):
        if size + len(cands) - i < low:
            break
        at[size + 1] |= x
        row = rel[u]
        if size + 2 == top:
            hit = 0
            for v, c in cands[i + 1:]:
                hit |= c & row[v]
            at[top] |= x & hit
        elif size + 2 < top:
            rest = [(v, y) for v, c in cands[i + 1:] if (y := x & c & row[v])]
            if rest:
                _walk(at, rest, rel, low, size + 1)


class Window:
    """The edge variables of the graphs of ``parts``, each (m, lo, hi) of the
    m-vertex graphs inside one block, laid end to end, and the indicators
    built from them: ``all`` holds every graph, ``sizes[m]`` the m-vertex
    ones. A part with fewer vertices than the largest gets isolated ones,
    which lie in no induced K_{2,t} (whose vertices have degree >= 2), no
    clique of 2 or more vertices and no neighbourhood: each part reads as a
    window of its own."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.n = n = max(m for m, _, _ in self.parts)
        self.edge = [[0] * n for _ in range(n)]
        self.sizes: dict[int, int] = {}
        low, offset = _index_bits(), 0
        for m, lo, hi in self.parts:
            if not (0 <= lo < hi and (hi - 1) // BLOCK == lo // BLOCK):
                raise ValueError(f"window [{lo}, {hi}) is empty or crosses a block")
            if hi > 1 << math.comb(m, 2):
                raise ValueError(f"window [{lo}, {hi}) ends past the {m}-vertex graphs")
            width = hi - lo
            full = (1 << width) - 1
            pairs = pair_order(m)
            x = []
            for k in range(len(pairs)):
                if width <= 1 << k:
                    flip = -lo % (1 << k)
                    before = (1 << flip) - 1 if 0 < flip < width else full
                    x.append(before if (lo >> k) & 1 else full ^ before)
                else:
                    s = lo % (2 << k)
                    x.append((low[k] & ((1 << (s + width)) - 1)) >> s)
            x.append(0)
            for k, (u, v) in enumerate(pairs):
                e = x[k] ^ x[k + 1]  # The first part needs no copying OR.
                self.edge[u][v] = self.edge[u][v] | e << offset if offset else e
            self.sizes[m] = self.sizes.get(m, 0) | full << offset
            offset += width
        self.all = (1 << offset) - 1
        self.non_edge = [[self.all] * n for _ in range(n)]
        for u, v in pair_order(n):
            e = self.edge[v][u] = self.edge[u][v]
            self.non_edge[u][v] = self.non_edge[v][u] = self.all ^ e

    def of_size(self, m: int) -> int:
        """The positions that hold m-vertex graphs."""
        return self.sizes.get(m, 0)

    def induced_k2t(self, t_values) -> dict[int, int]:
        """{t: graphs with a non-adjacent pair (a, b) whose common
        neighbourhood holds an independent t-set} for each t >= 2 of
        ``t_values``: one walk per pair over the independent sets of its
        common neighbourhood, each set size OR-ing into its own entry."""
        n, e, non = self.n, self.edge, self.non_edge
        at, low = [0] * (max(t_values) + 1), min(t_values)
        for a, b in combinations(range(n), 2):
            # e[a][a] = e[b][b] = 0, so a and b are left out.
            pair = non[a][b]
            common = [(s, x) for s in range(n) if (x := e[a][s] & e[b][s] & pair)]
            _walk(at, common, non, low)
        return {t: at[t] for t in t_values}

    def clique_ladder(self) -> list[int]:
        """at[k]: graphs with a clique of k vertices (omega >= k), for
        k = 0 .. max omega + 1, the last entry being 0: one walk over the
        cliques, each clique OR-ing into the entry for its size."""
        at = [self.all] + [0] * (self.n + 1)
        _walk(at, [(v, self.all) for v in range(self.n)], self.edge, 1)
        return at[: at.index(0) + 1]

    def contains_pattern(self, h: Graph) -> int:
        """Graphs with a (not necessarily induced) copy of h, all of h.n or more vertices."""
        wide = sum(x for m, x in self.sizes.items() if m >= h.n)
        if not wide:
            return 0
        edge = [self.edge[u][v] for u, v in pair_order(self.n)]
        out = 0
        for copy in _copies(self.n, h):
            ind = wide
            for k in copy:
                ind &= edge[k]
            out |= ind
        return out

    def edge_classes(self) -> list[int]:
        """The indicators of edge count 0, 1, ..., C(n, 2)."""
        pairs = pair_order(self.n)
        digits = count_digits([self.edge[u][v] for u, v in pairs])
        return [self.count_equals(digits, e) for e in range(len(pairs) + 1)]

    def triangle_digits(self) -> list[int]:
        """Bitsliced binary digits of each graph's triangle count."""
        e = self.edge
        return count_digits(
            [e[u][v] & e[u][w] & e[v][w] for u, v, w in combinations(range(self.n), 3)]
        )

    def count_equals(self, digits: list[int], value: int) -> int:
        """Graphs whose count, given by its ``digits``, equals ``value``."""
        if value < 0 or value >> len(digits):
            return 0
        out = self.all
        for j, d in enumerate(digits):
            out &= d if (value >> j) & 1 else self.all ^ d
        return out

    def count_less(self, digits: list[int], value: int) -> int:
        """Graphs whose count, given by its ``digits``, is below ``value``:
        a comparator from the most significant digit down."""
        if value <= 0:
            return 0
        if value >> len(digits):
            return self.all
        less, equal = 0, self.all
        for j in reversed(range(len(digits))):
            if (value >> j) & 1:
                less |= equal & ~digits[j]
                equal &= digits[j]
            else:
                equal &= ~digits[j]
        return less

    def missing_terms(self, v: int) -> list[int]:
        """One indicator per pair {a, b} of the other vertices: a and b lie
        in N(v) and are not adjacent. ``count_digits`` of them gives m_v."""
        row, non = self.edge[v], self.non_edge
        others = [u for u in range(self.n) if u != v]
        return [row[a] & row[b] & non[a][b] for a, b in combinations(others, 2)]

    def packing_levels(self, v: int, t: int) -> list[int]:
        """Entry j: the graphs whose greedy packing of N(v) has more than j
        parts. ``witness.greedy_packing`` takes the lex-least independent
        t-set of what is left of N(v) until none is left; the t-sets it
        passes over never qualify later, so this is one pass over the
        t-sets in ``combinations`` order taking each one that qualifies."""
        left, non = list(self.edge[v]), self.non_edge
        levels = [0] * ((self.n - 1) // t)
        for s in combinations([u for u in range(self.n) if u != v], t):
            take = self.all
            for u in s:
                if not (take := take & left[u]):
                    break
            else:
                for a, b in combinations(s, 2):
                    if not (take := take & non[a][b]):
                        break
                else:
                    keep = ~take
                    for u in s:
                        left[u] &= keep
                    for j in reversed(range(1, len(levels))):
                        levels[j] |= levels[j - 1] & take
                    levels[0] |= take
        return levels

    def graphs(self, indicator: int) -> Iterator[tuple[int, Graph]]:
        """(position, graph) of each graph in ``indicator``, in increasing
        position order, each graph with its own vertex count."""
        offset = 0
        for m, lo, hi in self.parts:
            pairs = pair_order(m)
            for p in bits((indicator >> offset) & ((1 << (hi - lo)) - 1)):
                mask = (lo + p) ^ ((lo + p) >> 1)
                adj = [0] * m
                for k in bits(mask):
                    u, v = pairs[k]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                yield offset + p, Graph._trusted(m, adj, mask.bit_count())
            offset += hi - lo


def count_digits(indicators: list[int]) -> list[int]:
    """The binary digits, least significant first (possibly ending in
    zeros), of how many ``indicators`` hold each position: a carry-save
    adder (Wallace 1964), whose full adders turn three values of one weight
    into a sum of that weight and a carry of the next."""
    digits, column = [], list(indicators)
    while column:
        carries = []
        while len(column) > 1:
            a, b = column.pop(), column.pop()
            c = column.pop() if column else 0
            column.append(a ^ b ^ c)
            carries.append(a & b | c & (a ^ b))
        digits.append(column[0])
        column = carries
    return digits


def count_top(digits: list[int], among: int) -> tuple[Optional[int], int]:
    """The largest count, given by its ``digits``, over the positions of
    ``among`` (None when ``among`` is empty), and the positions that hold
    it: from the most significant digit down, ``among`` keeps the
    positions with the digit set whenever any has it."""
    if not among:
        return None, 0
    best = 0
    for j in reversed(range(len(digits))):
        high = among & digits[j]
        if high:
            among = high
            best |= 1 << j
    return best, among


def block_count(lo: int, hi: int) -> int:
    """How many aligned blocks of ``BLOCK`` indices [lo, hi) meets."""
    return (hi - 1) // BLOCK - lo // BLOCK + 1 if lo < hi else 0


def triangle_maxima(w: Window, h: Graph, t: int) -> tuple[int, int, dict[int, int]]:
    """The graphs of ``w`` with no induced K_{2,t}, those of them with no copy
    of h either, and the most triangles of the latter per vertex count (or 0)."""
    free = w.all & ~w.induced_k2t((t,))[t]
    allowed = free & ~w.contains_pattern(h)
    digits = w.triangle_digits()
    return free, allowed, {m: count_top(digits, allowed & w.of_size(m))[0] or 0 for m in w.sizes}


def delta_max(n: int, h: Graph, t: int) -> int:
    """Greatest triangle count over all labelled n-vertex graphs with no
    copy of h and no induced K_{2,t} (exhaustive, n <= 7)."""
    if n > ENUMERATION_CAP:
        raise GraphError(
            f"delta_max enumerates exhaustively and caps at n = {ENUMERATION_CAP}"
        )
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    return max(
        triangle_maxima(w, h, t)[2][n] for w in windows([(n, 0, 1 << math.comb(n, 2))])
    )
