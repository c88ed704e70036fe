"""Orbit-count oracle for the regular-graph census.

The labelings of one graph G on n vertices form a single orbit of the
symmetric group, of size n!/|Aut G|.  So over the isomorphism classes of
k-regular graphs on n vertices, the sum of n!/|Aut G| is L(n, k), the
number of labeled k-regular graphs.  A missing class makes the sum too
small and a duplicated class makes it too large.

Both sides are computed here without the census module's code: L(n, k)
by a recursion over residual-degree multisets, and |Aut G| by
orbit-stabilizer over a pinned backtracking search on the class's edge
list.  The same pinned search is the oracle for `is_vertex_transitive`:
a graph is vertex-transitive exactly when the orbit of vertex 0 holds
every vertex.  Only public census names are imported.
"""

import random
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from primegraphs.census import (
    GraphClass,
    catalog,
    enumerate_regular,
    is_vertex_transitive,
)
from test_census import relabel


def _splits(caps, total):
    """Tuples t with 0 <= t[j] <= caps[j] and sum(t) == total."""
    if not caps:
        if total == 0:
            yield ()
        return
    for t in range(min(caps[0], total) + 1):
        for tail in _splits(caps[1:], total - t):
            yield (t, *tail)


@lru_cache(maxsize=None)
def _labeled(counts):
    """Labeled graphs realizing a residual-degree multiset: counts[j]
    vertices still need j + 1 edges, and counts[-1] > 0.

    One vertex of the largest residual degree d is removed; its d
    neighbours are picked t[j] at a time from each residual class, in
    prod C(counts[j], t[j]) ways, and each picked vertex drops one class.
    """
    if not counts:
        return 1
    d = len(counts)
    rest = (*counts[:-1], counts[-1] - 1)
    total = 0
    for picks in _splits(rest, d):
        moved = [rest[j] - picks[j] + (picks[j + 1] if j + 1 < d else 0) for j in range(d)]
        while moved and moved[-1] == 0:
            moved.pop()
        total += prod(comb(c, t) for c, t in zip(rest, picks)) * _labeled(tuple(moved))
    return total


def labeled_count(n, k):
    """L(n, k), the number of labeled k-regular graphs on n vertices."""
    return _labeled((0,) * (k - 1) + (n,)) if k else 1


def _adjacency(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _extends(adj, pinned):
    """Whether some automorphism maps x to y for every pair (x, y) of
    `pinned`.  The other vertices are placed in turn, each one with the
    most neighbours already placed, and every image is checked against the
    adjacency to the vertices placed before it."""
    n = len(adj)
    order = [x for x, _ in pinned]
    free = [v for v in range(n) if v not in order]
    while free:
        placed = sum(1 << x for x in order)
        best = max(free, key=lambda v: (adj[v] & placed).bit_count())
        free.remove(best)
        order.append(best)
    image = [-1] * n

    def fits(i, y):
        x = order[i]
        return all(
            (adj[x] >> order[j] & 1) == (adj[y] >> image[order[j]] & 1)
            for j in range(i)
        )

    def place(i, used):
        if i == n:
            return True
        x = order[i]
        targets = [pinned[i][1]] if i < len(pinned) else range(n)
        for y in targets:
            if not used >> y & 1 and fits(i, y):
                image[x] = y
                if place(i + 1, used | 1 << y):
                    return True
        image[x] = -1
        return False

    return place(0, 0)


def automorphism_count(n, edges):
    """|Aut G| as the product, down the vertex list, of the orbit of each
    vertex under the automorphisms fixing the vertices before it."""
    adj = _adjacency(n, edges)
    order = 1
    for v in range(n):
        fixed = [(x, x) for x in range(v)]
        order *= sum(1 for w in range(v, n) if _extends(adj, fixed + [(v, w)]))
    return order


def vertex_transitive(rows):
    """Whether some automorphism maps vertex 0 onto each vertex."""
    return all(_extends(list(rows), [(0, w)]) for w in range(len(rows)))


def _brute_automorphisms(n, edges):
    es = {frozenset(e) for e in edges}
    return sum(
        1 for p in permutations(range(n)) if {frozenset((p[a], p[b])) for a, b in es} == es
    )


def test_automorphism_count_on_known_graphs():
    cycle = [(i, (i + 1) % 7) for i in range(7)]
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    two_k5 = [(a + s, b + s) for s in (0, 5) for a, b in combinations(range(5), 2)]
    assert automorphism_count(7, cycle) == 14
    assert automorphism_count(10, petersen) == 120
    assert automorphism_count(6, k33) == 72
    assert automorphism_count(10, two_k5) == 2 * factorial(5) ** 2
    assert automorphism_count(6, list(combinations(range(6), 2))) == factorial(6)
    assert automorphism_count(4, []) == factorial(4)
    assert automorphism_count(8, [(0, 1), (2, 3), (4, 5), (6, 7)]) == 2**4 * factorial(4)


def test_automorphism_count_matches_brute_force():
    for n in range(1, 8):
        for k in range(n):
            for g in enumerate_regular(n, k):
                edges = g.edges()
                assert automorphism_count(n, edges) == _brute_automorphisms(n, edges), (n, edges)


def test_labeled_counts_match_brute_force():
    # every labeled graph on n <= 6 vertices, sorted by its degrees
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        found = [0] * n
        for mask in range(1 << len(pairs)):
            degrees = [0] * n
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    degrees[a] += 1
                    degrees[b] += 1
            if len(set(degrees)) == 1:
                found[degrees[0]] += 1
        assert found == [labeled_count(n, k) for k in range(n)], n


def test_labeled_counts_are_pinned():
    assert labeled_count(6, 3) == 70
    assert labeled_count(8, 3) == 19355
    assert labeled_count(10, 3) == 11_180_820
    assert labeled_count(9, 4) == 1_024_380
    assert labeled_count(10, 4) == 66_462_606
    for n in range(1, 11):
        for k in range(n):
            # complementing is a bijection between labelings
            assert labeled_count(n, k) == labeled_count(n, n - 1 - k), (n, k)
            assert (labeled_count(n, k) == 0) == (n * k % 2 == 1), (n, k)


@pytest.mark.parametrize("n", range(1, 11))
def test_orbit_sums_match_labeled_counts(n):
    for k in range(n):
        census = enumerate_regular(n, k)
        orbits = 0
        for g in census:
            aut = automorphism_count(n, g.edges())
            assert factorial(n) % aut == 0, (n, k, g.edges())
            orbits += factorial(n) // aut
        assert orbits == labeled_count(n, k), (n, k, len(census))


def test_vertex_transitivity_matches_pinned_search():
    # Every regular class through ten vertices, and every catalog graph
    # with its complement, each also under three seeded relabelings.
    graphs = [
        g for n in range(1, 11) for k in range(n) for g in enumerate_regular(n, k)
    ]
    for g in catalog().values():
        full = (1 << g.n) - 1
        co = tuple(full ^ row ^ 1 << v for v, row in enumerate(g.rows))
        graphs += [g, GraphClass(g.n, co)]
    rng = random.Random(2014)
    transitive = 0
    for g in graphs:
        expected = vertex_transitive(g.rows)
        transitive += expected
        assert is_vertex_transitive(g) == expected, (g.n, g.rows)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = GraphClass(g.n, relabel(g.n, g.rows, perm))
            assert is_vertex_transitive(h) == expected, (g.n, h.rows)
    assert 0 < transitive < len(graphs)
