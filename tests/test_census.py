import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegraphs import census
from primegraphs.census import (
    MAX_VERTICES,
    GraphClass,
    _labeled_regular,
    canonicalize,
    catalog,
    class_from_edges,
    complete_class,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    is_vertex_transitive,
    max_dominating_in_induced,
    named,
    rows_from_edges,
    triangle_count,
)


def relabel(n, rows, perm):
    out = [0] * n
    for v in range(n):
        for w in range(n):
            if rows[v] >> w & 1:
                out[perm[v]] |= 1 << perm[w]
    return tuple(out)


C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def test_canonical_fixed_point():
    g = class_from_edges(5, C5)
    assert canonicalize(g.rows) == g


def test_canonical_invariant_under_relabeling():
    rows = rows_from_edges(5, C5)
    base = canonicalize(rows)
    rng = random.Random(3)
    for _ in range(100):
        perm = list(range(5))
        rng.shuffle(perm)
        assert canonicalize(relabel(5, rows, perm)) == base


def test_canonical_distinguishes():
    assert named("house") != named("butterfly")
    # same degree sequence, different graphs
    assert class_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]) != (
        class_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    )


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize((0,) * 11)
    with pytest.raises(ValueError):
        canonicalize((1, 0))  # a loop at vertex 0


def test_canonicalize_empty_graph():
    assert canonicalize(()) == GraphClass(())


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] < e[1])
            ),
            st.permutations(range(n)),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_canonical_relabel_property(case):
    n, edges, perm = case
    rows = rows_from_edges(n, edges)
    assert canonicalize(relabel(n, rows, perm)) == canonicalize(rows)


@pytest.mark.parametrize(
    "n, rows, reason",
    [
        (MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1), "not supported"),
        # A graph has one vertex per row: a bit past the last row is out of
        # range, in whichever row it sits.
        (3, (0, 0, 0b1000), "in range"),
        (2, (0b10, 0b101), "in range"),
        (2, (0b100, 0), "in range"),
        (2, (-1, 0), "in range"),
        (1, (1,), "loop-free"),
        (3, (0b010, 0b101, 0b110), "loop-free"),
        (3, (0b010, 0, 0), "symmetric"),
        (4, (0b1000, 0b0100, 0b0010, 0), "symmetric"),
    ],
)
def test_canonicalize_rejects_each_bad_input_kind(n, rows, reason):
    assert len(rows) == n
    with pytest.raises(ValueError, match=reason):
        canonicalize(rows)


def adjacency_code(n, rows, order):
    """The adjacency code of rows read in the given vertex order, straight
    from the definition: position j contributes its adjacency to positions
    0..j-1, position 0 in the highest bit."""
    return tuple(
        sum((rows[order[j]] >> order[i] & 1) << (j - 1 - i) for i in range(j))
        for j in range(1, n)
    )


def assert_canonical_is_brute_force_minimum(n, rows):
    # The canonical rows, read in their own order, must give the minimum
    # code over all n! orders.  A code fixes the whole ordered adjacency
    # matrix, so this also shows that the canonical rows are rows relabeled.
    brute = min(adjacency_code(n, rows, order) for order in permutations(range(n)))
    g = canonicalize(rows)
    assert adjacency_code(n, g.rows, range(n)) == brute, (n, rows)


def test_canonical_matches_brute_force_on_every_small_graph():
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
            assert_canonical_is_brute_force_minimum(n, rows_from_edges(n, edges))


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] < e[1])
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_canonical_matches_brute_force(case):
    n, edges = case
    assert_canonical_is_brute_force_minimum(n, rows_from_edges(n, edges))


# sha256 over the canonical rows of every enumerate_regular(n, k) class with
# n <= 9 and of every catalog graph, recorded with the earlier dict-frontier
# canonical form.  Catalog lookups and claim equalities compare GraphClass
# values, so a change of canonical form must update this on purpose.
PINNED_CANONICAL_SHA256 = (
    "f5b6fe028837b0443a826fed2b3fa3310661a0320fd3c2bcd235e51598361c19"
)


def test_canonical_forms_are_pinned():
    h = hashlib.sha256()
    for n in range(1, 10):
        for k in range(n):
            for g in enumerate_regular(n, k):
                h.update(f"{n} {k} {g.rows}\n".encode())
    for name in sorted(catalog()):
        g = catalog()[name]
        h.update(f"{name} {g.n} {g.rows}\n".encode())
    assert h.hexdigest() == PINNED_CANONICAL_SHA256


def cycle_rows(n):
    return rows_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement_rows(n, rows):
    full = (1 << n) - 1
    return tuple(full ^ row ^ 1 << v for v, row in enumerate(rows))


def disjoint_union_rows(*parts):
    rows, offset = [], 0
    for n, part in parts:
        rows += [row << offset for row in part]
        offset += n
    return tuple(rows)


def complete_bipartite_rows(a, b):
    return rows_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


PETERSEN = rows_from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
CUBE = rows_from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
# Vertex-transitive and other highly symmetric graphs on 8 and 10 vertices,
# where a relabeling rarely lands on the canonical labeling by chance.
SYMMETRIC = {
    "C10": (10, cycle_rows(10)),
    "Petersen": (10, PETERSEN),
    "K5,5": (10, complete_bipartite_rows(5, 5)),
    "5K2": (10, disjoint_union_rows(*[(2, (2, 1))] * 5)),
    "2C5": (10, disjoint_union_rows((5, cycle_rows(5)), (5, cycle_rows(5)))),
    "Q3": (8, CUBE),
    "K4,4": (8, complete_bipartite_rows(4, 4)),
}
SYMMETRIC.update(
    {f"co-{name}": (n, complement_rows(n, rows)) for name, (n, rows) in SYMMETRIC.items()}
)


def test_relabel_round_trip_past_brute_force_range():
    graphs = [canonicalize(rows) for _, rows in SYMMETRIC.values()]
    graphs += list(catalog().values())
    graphs += [g for n in range(1, 11) for k in range(n) for g in enumerate_regular(n, k)]
    rng = random.Random(8)
    for g in graphs:
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonicalize(relabel(g.n, g.rows, perm)) == g, g


def test_canonical_form_where_a_minimum_degree_root_loses():
    # The smallest code starts at vertex 9, of degree 2.  Searching only
    # from minimum-degree roots (vertex 6, of degree 1) would give the
    # chunks (0, 0, 0, 0, 1, 13, 45, 113, 324), above the true minimum
    # (0, 0, 0, 0, 1, 12, 43, 201, 417).
    rows = (132, 816, 257, 208, 138, 386, 8, 313, 678, 258)
    assert canonicalize(rows).rows == (
        768, 896, 64, 704, 288, 144, 140, 362, 659, 267
    )


def searched_roots(monkeypatch, rows):
    """The roots of each breadth-first search and each depth-first tie probe
    that canonicalize(rows) runs, in order."""
    calls = []
    search, probe = census._rooted_search, census._tie_probe

    def counting_search(rows, roots, *rest):
        calls.append(roots)
        return search(rows, roots, *rest)

    def counting_probe(rows, root, bound):
        calls.append([root])
        return probe(rows, root, bound)

    monkeypatch.setattr(census, "_rooted_search", counting_search)
    monkeypatch.setattr(census, "_tie_probe", counting_probe)
    canonicalize(rows)
    return calls


@pytest.mark.parametrize(
    "rows",
    [
        cycle_rows(8),
        cycle_rows(10),
        PETERSEN,
        complement_rows(8, cycle_rows(8)),
    ],
    ids=["C8", "C10", "Petersen", "co-C8"],
)
def test_found_automorphisms_skip_roots(monkeypatch, rows):
    # Every vertex is a root of its own (no twins) and all share one orbit:
    # without skipping, each of the n roots would be searched.
    assert len(searched_roots(monkeypatch, rows)) <= 2


def test_every_tie_probe_outcome_reaches_the_brute_force_minimum(monkeypatch):
    # Among the graphs on 5 vertices the tie probe meets all three outcomes:
    # a tie, a root that beats the bound and a root that the bound cuts.
    outcomes = []
    probe = census._tie_probe

    def recording(*args):
        found = probe(*args)
        if found is None:
            outcomes.append("cut")
        else:
            outcomes.append("beats" if found is census._BEATS else "tie")
        return found

    monkeypatch.setattr(census, "_tie_probe", recording)
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        rows = rows_from_edges(5, [e for b, e in enumerate(pairs) if mask >> b & 1])
        probed = len(outcomes)
        canonicalize(rows)
        if len(outcomes) > probed:
            assert_canonical_is_brute_force_minimum(5, rows)
    assert set(outcomes) == {"tie", "beats", "cut"}


@pytest.mark.parametrize(
    "rows, roots",
    [
        # Degrees 3, 2, 2, 1, 0: vertices 1 and 2 are adjacent twins.
        ((14, 5, 3, 1, 0), [0, 1, 3, 4]),
        # The star K1,4: its leaves are non-adjacent twins.
        ((30, 1, 1, 1, 1), [0, 1]),
    ],
)
def test_roots_alone_in_their_degree_share_one_search(monkeypatch, rows, roots):
    # One root per twin class, and those roots have distinct degrees, so
    # they take one search together.
    assert searched_roots(monkeypatch, rows) == [roots]


def test_census_counts():
    assert len(enumerate_regular(5, 4)) == 1
    assert enumerate_regular(5, 4).classes[0] == complete_class(5)
    assert len(enumerate_regular(6, 4)) == 1
    assert len(enumerate_regular(7, 4)) == 2
    assert len(enumerate_regular(8, 4)) == 6
    assert len(enumerate_regular(9, 4)) == 16


def test_census_parity():
    census = enumerate_regular(7, 3)
    assert not census.parity_ok and len(census) == 0
    assert enumerate_regular(6, 3).parity_ok


def test_census_classes_are_regular_and_canonical():
    for n, k in ((6, 3), (7, 4), (8, 4), (9, 4)):
        for g in enumerate_regular(n, k):
            assert g.is_k_regular(k)
            assert canonicalize(g.rows) == g


def test_census_rejects_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_regular(5, 5)
    with pytest.raises(ValueError):
        enumerate_regular(11, 4)


def test_oracle_agreement(oracle_cells):
    for (n, k), (fast, slow) in oracle_cells.items():
        assert fast.classes == slow.classes, (n, k)
        assert fast.parity_ok == slow.parity_ok


def partitions(n, smallest=3):
    """Partitions of n into parts >= smallest."""
    if n == 0:
        return 1
    return sum(partitions(n - p, p) for p in range(smallest, n + 1))


# Published class counts (disconnected graphs included).  Cubic n = 10: 19
# connected (OEIS A002851) plus K4 with each of the 2 connected cubic graphs
# on 6 vertices.  Quartic n = 10: 59 connected (OEIS A006820) plus K5 + K5.
PUBLISHED = {
    (4, 3): 1, (6, 3): 2, (8, 3): 6, (10, 3): 21,
    (5, 4): 1, (6, 4): 1, (7, 4): 2, (8, 4): 6, (9, 4): 16, (10, 4): 60,
}


def test_census_through_ten_vertices():
    counts = {
        (n, k): len(enumerate_regular(n, k)) for n in range(1, 11) for k in range(n)
    }
    for (n, k), count in counts.items():
        if n * k % 2:
            assert count == 0, (n, k)
        elif k == 2:
            assert count == partitions(n), (n, k)
        elif k in (0, 1, n - 1):
            assert count == 1, (n, k)
        assert count == counts[n, n - 1 - k], (n, k)
    for cell, count in PUBLISHED.items():
        assert counts[cell] == count, cell


def test_pruned_labeled_graphs_are_regular_and_distinct():
    total = 0
    for n in range(1, 10):
        for k in range(n):
            if n * k % 2:
                continue
            graphs = list(_labeled_regular(n, k, prune=True))
            assert graphs, (n, k)
            for rows in graphs:
                assert rows_from_edges(n, GraphClass(rows).edges()) == rows
                assert all(row.bit_count() == k for row in rows), (n, k)
            assert len(set(graphs)) == len(graphs), (n, k)
            total += len(graphs)
    # The class rule keeps 417 labeled graphs over these 45 cells; pinning
    # only vertex 0's row would keep 18 351.
    assert total <= 500


def test_failed_catalog_load_is_not_kept(monkeypatch, tmp_path):
    lines = (census._DATA_DIR / "catalog.txt").read_text().splitlines()
    assert lines[-1].startswith("octahedron =")
    (tmp_path / "catalog.txt").write_text("\n".join(lines[:-1] + ["octahedron = 6; 0-1"]))
    monkeypatch.setattr(census, "_DATA_DIR", tmp_path)
    catalog.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(ValueError, match="octahedron is not 4-regular"):
                catalog()
    finally:
        catalog.cache_clear()


def test_catalog_is_read_only():
    house = named("house")
    try:
        with pytest.raises(TypeError):
            catalog()["house"] = complete_class(5)
        with pytest.raises(AttributeError):
            catalog().pop("house")
        assert named("house") == house
    finally:
        catalog.cache_clear()


def test_triangle_counts():
    assert sorted(triangle_count(g) for g in enumerate_regular(7, 4)) == [6, 7]
    assert triangle_count(complete_class(5)) == 10
    assert triangle_count(named("octahedron")) == 8
    assert triangle_count(named("quartic7-7tri")) == 7
    assert triangle_count(named("quartic7-6tri")) == 6


def test_vertex_transitivity():
    assert is_vertex_transitive(named("quartic7-7tri"))
    assert not is_vertex_transitive(named("house"))
    assert not is_vertex_transitive(named("quartic7-6tri"))
    assert is_vertex_transitive(named("octahedron"))
    assert is_vertex_transitive(complete_class(5))


@pytest.mark.parametrize(
    "n, edges, transitive",
    [
        (0, [], True),
        (1, [], True),
        (4, [], True),
        (5, [(a, b) for a in range(5) for b in range(a + 1, 5)], True),
        (6, [(a, b) for a in range(3) for b in range(3, 6)], True),
        (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], True),
        (6, [(a, b) for a in range(6) for b in range(a + 1, 6) if b - a != 3], True),
        (6, C5, False),
    ],
    ids=["K0", "K1", "empty4", "K5", "K3,3", "2K3", "K2,2,2", "C5+K1"],
)
def test_vertex_transitivity_from_twins(n, edges, transitive):
    # Most of these graphs' symmetry is swaps of twins (vertices with equal
    # neighbourhoods apart from each other), which the canonical search
    # skips rather than searches.
    assert is_vertex_transitive(GraphClass(rows_from_edges(n, edges))) == transitive


def test_containment():
    triangle = complete_class(3)
    assert contains_subgraph(named("butterfly"), triangle)
    for g in enumerate_regular(7, 4):
        assert not contains_clique(g, 4)
    assert contains_subgraph(named("quartic9-k4-a"), named("k5-minus-cherry"))
    # the house is C5 plus one chord, so C5 is a subgraph of it
    c5 = class_from_edges(5, C5)
    assert contains_subgraph(named("house"), c5)


def test_k4_counts():
    hits8 = [g for g in enumerate_regular(8, 4) if contains_clique(g, 4)]
    assert hits8 == [named("quartic8-k4")]
    hits9 = {g for g in enumerate_regular(9, 4) if contains_clique(g, 4)}
    assert hits9 == {named("quartic9-k4-a"), named("quartic9-k4-b")}


def test_k5_freeness():
    for n in range(6, 10):
        for g in enumerate_regular(n, 4):
            assert not contains_clique(g, 5), n


def test_max_dominating():
    assert max_dominating_in_induced(named("quartic7-7tri"), 5) == 1
    assert max_dominating_in_induced(named("quartic7-6tri"), 5) == 2
    assert max_dominating_in_induced(named("quartic8-k4"), 5) == 1
    assert max_dominating_in_induced(named("quartic9-k4-b"), 5) == 1
    assert max_dominating_in_induced(named("octahedron"), 5) == 1
    assert max_dominating_in_induced(complete_class(5), 5) == 5
    assert max_dominating_in_induced(named("k5-minus-cherry"), 5) == 2
    with pytest.raises(ValueError):
        max_dominating_in_induced(named("house"), 6)


def test_catalog_membership():
    cat = catalog()
    assert set(cat) >= {
        "house",
        "butterfly",
        "octahedron",
        "quartic7-7tri",
        "quartic7-6tri",
        "quartic8-k4",
        "quartic9-k4-a",
        "quartic9-k4-b",
        "k5-minus-cherry",
    }
    for name in ("quartic7-7tri", "quartic7-6tri"):
        assert cat[name] in enumerate_regular(7, 4).classes
    assert named("octahedron") in enumerate_regular(6, 4).classes
    assert named("quartic8-k4") in enumerate_regular(8, 4).classes
    assert named("quartic9-k4-a") in enumerate_regular(9, 4).classes
    assert named("quartic9-k4-b") in enumerate_regular(9, 4).classes
    assert named("quartic9-k4-a") != named("quartic9-k4-b")


def test_graphclass_basics():
    g = named("house")
    assert g.n == 5
    assert len(g.edges()) == 6
    assert not g.is_k_regular(2)
    assert complete_class(4).is_k_regular(3)
