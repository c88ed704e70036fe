"""Property tests for the bitmask-row graph core shared by GraphClass and
PrimeGraph, each against a brute force over plain edge lists or vertex maps
that shares no code with the rows."""

from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from primegraphs.census import (
    _find_isomorphism,
    _triangles,
    class_from_edges,
    contains_subgraph,
    rows_from_edges,
)
from primegraphs.prime_graph import PrimeGraph

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@st.composite
def prime_graphs(draw, max_vertices=12):
    """(vertices, edges): a random vertex set drawn from PRIMES and a random
    edge list over it, each edge in a random orientation, some repeated."""
    vs = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=max_vertices))
    pairs = list(combinations(vs, 2))
    edges = []
    for p, q in pairs:
        copies = draw(st.sampled_from((0, 0, 1, 1, 2)))
        edges += [(q, p) if draw(st.booleans()) else (p, q) for _ in range(copies)]
    return vs, edges


def index_graphs(max_n):
    """(n, edges) with vertices 0..n-1."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)
            if n >= 2
            else st.just([]),
        )
    )


def brute_embeds(n, g_edges, m, h_edges):
    g = {frozenset(e) for e in g_edges}
    h = {frozenset(e) for e in h_edges}
    for image in permutations(range(n), m):
        ok = True
        for u, v in combinations(range(m), 2):
            in_h = frozenset((u, v)) in h
            in_g = frozenset((image[u], image[v])) in g
            if in_h and not in_g:
                ok = False
                break
        if ok:
            return True
    return False


@st.composite
def moved_edge_patterns(draw, max_n):
    """(host, pattern): a random graph on 0..n-1 and the subgraph that an
    injection of 0..m-1, m >= n - 1, induces in it, with one edge uv then
    moved to an open pair uw where w has one neighbour fewer than v.  The
    move keeps the pattern's degrees as a multiset, so some injection still
    fits every degree, yet the pattern often does not embed: the search
    must then reject every injection on adjacency alone.  Each host pair is
    an edge with even odds, as sparse hosts mostly give patterns that
    still embed."""
    n = draw(st.integers(0, max_n))
    g_edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    image = draw(st.permutations(range(n)))[: draw(st.integers(max(n - 1, 0), n))]
    m = len(image)
    host = {frozenset(e) for e in g_edges}
    edges = [
        (u, v) for u, v in combinations(range(m), 2)
        if frozenset((image[u], image[v])) in host
    ]
    degree = [sum(x in e for e in edges) for x in range(m)]
    moves = [
        (e, (min(u, w), max(u, w)))
        for e in edges
        for u, v in (e, e[::-1])
        for w in range(m)
        if w not in e and degree[w] == degree[v] - 1
        and (min(u, w), max(u, w)) not in edges
    ]
    if moves:
        old, new = draw(st.sampled_from(moves))
        edges.remove(old)
        edges.append(new)
    return (n, g_edges), (m, edges)


@given(st.one_of(st.tuples(index_graphs(6), index_graphs(6)), moved_edge_patterns(6)))
@settings(max_examples=300, deadline=None)
def test_embedding_matches_brute_force_over_injections(pair):
    (n, g_edges), (m, h_edges) = pair
    # The host as a prime-labelled graph, the pattern as a class: the
    # embedding tests read only n and rows, so either type works.
    g = PrimeGraph(PRIMES[:n], [(PRIMES[i], PRIMES[j]) for i, j in g_edges])
    h = class_from_edges(m, h_edges)
    assert contains_subgraph(g, h) == brute_embeds(n, g_edges, m, h_edges)


@st.composite
def equal_size_pairs(draw, max_n):
    """(n, edges, other edges): a random graph on 0..n-1 and either a random
    relabelling of it or an independent graph with as many edges."""
    n, edges = draw(index_graphs(max_n))
    if draw(st.booleans()):
        image = draw(st.permutations(range(n)))
        other = [(image[u], image[v]) for u, v in edges]
    else:
        other = draw(st.permutations(list(combinations(range(n), 2))))[: len(edges)]
    return n, edges, other


def brute_isomorphic(n, a_edges, b_edges):
    a = {frozenset(e) for e in a_edges}
    b = {frozenset(e) for e in b_edges}
    return any(
        {frozenset(image[v] for v in e) for e in a} == b
        for image in permutations(range(n))
    )


@given(equal_size_pairs(6))
@settings(max_examples=300, deadline=None)
def test_isomorphism_matches_brute_force_over_permutations(case):
    n, edges, other = case
    a, b = rows_from_edges(n, edges), rows_from_edges(n, other)
    found = _find_isomorphism(a, b, _triangles(a)[1], _triangles(b)[1])
    assert found == brute_isomorphic(n, edges, other)


def brute_components(vs, edges):
    def reach(p):
        seen = {p}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                if (a in seen) != (b in seen):
                    seen |= {a, b}
                    changed = True
        return frozenset(seen)

    return sorted({reach(p) for p in vs}, key=min)


@given(prime_graphs())
@settings(max_examples=300, deadline=None)
def test_prime_graph_queries_match_edge_list(graph):
    vs, edges = graph
    g = PrimeGraph(vs, edges)
    plain = {(min(e), max(e)) for e in edges}

    assert tuple(g.vertices) == tuple(sorted(vs))
    assert g.edges == tuple(sorted(plain))
    degree = {p: sum(p in e for e in plain) for p in vs}
    assert {p: g.degree(p) for p in vs} == degree
    assert g.degree_sequence() == tuple(sorted(degree.values(), reverse=True))
    assert g.is_complete() == (len(plain) == len(vs) * (len(vs) - 1) // 2)

    comps = brute_components(vs, plain)
    assert [set(c) for c in g.connected_components()] == [set(c) for c in comps]
    if len(vs) == 1:
        complete = set(vs)
    else:
        complete = {
            p for c in comps if len(c) > 1 for p in c if degree[p] == len(c) - 1
        }
    assert set(g.complete_vertices()) == complete

    assert g.palfy_condition() == all(
        any(e in plain for e in combinations(t, 2))
        for t in combinations(sorted(vs), 3)
    )


@st.composite
def clique_unions(draw, max_vertices=12):
    """(vertices, cliques): a random vertex set drawn from PRIMES and random
    cliques of 1-5 of its primes, each in a random order."""
    vs = draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=max_vertices))
    if not vs:
        return vs, []
    clique = st.lists(st.sampled_from(vs), unique=True, min_size=1, max_size=5)
    return vs, draw(st.lists(clique.map(tuple), max_size=6))


@given(clique_unions())
@settings(max_examples=300, deadline=None)
def test_prime_graph_is_the_union_of_its_cliques(graph):
    vs, cliques = graph
    g = PrimeGraph(vs, cliques)
    pairs = {pair for c in cliques for pair in combinations(sorted(c), 2)}
    assert tuple(g.vertices) == tuple(sorted(vs))
    assert g.edges == tuple(sorted(pairs))


@given(prime_graphs(max_vertices=10))
@settings(max_examples=200, deadline=None)
def test_shape_matches_own_relabelling(graph):
    vs, edges = graph
    index = {p: i for i, p in enumerate(sorted(vs))}
    expected = class_from_edges(len(vs), [(index[p], index[q]) for p, q in edges])
    assert PrimeGraph(vs, edges).shape() == expected
