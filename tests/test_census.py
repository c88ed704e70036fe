import hashlib
import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegraphs import census, cli
from primegraphs.census import (
    MAX_VERTICES,
    GraphClass,
    _bucket_key,
    _edge_invariant,
    _find_isomorphism,
    _labeled_regular,
    _triangles,
    canonicalize,
    catalog,
    class_from_edges,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    enumerate_regular_oracle,
    is_vertex_transitive,
    max_dominating_in_induced,
    named,
    rows_from_edges,
    triangle_count,
)
from primegraphs.prime_graph import PrimeGraph


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
    """The root of each breadth-first search and each depth-first tie probe
    that canonicalize(rows) runs, in order."""
    calls = []
    search, probe = census._rooted_search, census._tie_probe

    def counting_search(rows, root, *rest):
        calls.append(root)
        return search(rows, root, *rest)

    def counting_probe(rows, root, bound):
        calls.append(root)
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


def test_a_root_the_bound_cuts_skips_its_orbit(monkeypatch):
    # The path 0-3-1-2.  The middle vertex 1 is cut by the bound from end 0;
    # end 2 ties, and its ordering maps 1 onto 3, which is then skipped.
    rows = rows_from_edges(4, [(0, 3), (3, 1), (1, 2)])
    assert searched_roots(monkeypatch, rows) == [0, 1, 2]


def orbit_root(orbit, v):
    """The root of v's class in the search's union-find parent list."""
    while orbit[v] != v:
        v = orbit[v]
    return v


def test_each_orbit_class_is_named_by_its_smallest_vertex():
    # The root loop takes a vertex exactly when it names its class, so the
    # partition's representatives must be the smallest vertices.
    rng = random.Random(3)
    graphs = [rows for _, rows in SYMMETRIC.values()]
    for _ in range(2000):
        n = rng.randint(1, 10)
        density = rng.random()
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        graphs.append(rows_from_edges(n, edges))
    for rows in graphs:
        _, orbit = census._canonical_search(rows)
        reps = [orbit_root(orbit, v) for v in range(len(rows))]
        for v, rep in enumerate(reps):
            assert rep == reps.index(rep), (rows, v)


def brute_force_orbits_and_starts(n, rows):
    """The automorphism orbits, by brute force over all n! orders, and the
    set of vertices that start an order reaching the smallest code.  An
    order is an automorphism when it reads the identity order's code."""
    identity = adjacency_code(n, rows, range(n))
    orbit_of = [{v} for v in range(n)]
    best, starts = None, set()
    for order in permutations(range(n)):
        code = adjacency_code(n, rows, order)
        if code == identity:
            for v in range(n):
                orbit_of[v].add(order[v])
        if best is None or code < best:
            best, starts = code, {order[0]}
        elif code == best:
            starts.add(order[0])
    return orbit_of, starts


def test_orbit_classes_lie_inside_automorphism_orbits():
    # Every union the search makes must be an automorphism, so each class
    # of its partition lies in one orbit; and the vertices that start a
    # minimal order, one orbit, must be exactly one class.
    graphs = []
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
            graphs.append(rows_from_edges(n, edges))
    rng = random.Random(26)
    pairs = list(combinations(range(6), 2))
    for _ in range(300):
        graphs.append(rows_from_edges(6, [e for e in pairs if rng.random() < 0.5]))
    for rows in graphs:
        n = len(rows)
        _, orbit = census._canonical_search(rows)
        orbit_of, starts = brute_force_orbits_and_starts(n, rows)
        classes = {}
        for v in range(n):
            classes.setdefault(orbit_root(orbit, v), set()).add(v)
        for members in classes.values():
            assert members <= orbit_of[min(members)], rows
        assert starts in classes.values(), rows


def twin_class_minima(rows, unplaced, cand):
    """The lowest candidate of each twin class: u and v are twins when they
    agree on every other unplaced vertex."""
    kept = []
    for v in range(len(rows)):
        if cand >> v & 1 and not any(
            (rows[u] ^ rows[v]) & unplaced & ~(1 << u | 1 << v) == 0 for u in kept
        ):
            kept.append(v)
    return kept


def test_twin_filter_keeps_the_lowest_of_each_open_and_closed_twin_class():
    # Vertex 0 is placed.  Among the unplaced vertices, 1 and 2 are open
    # twins (apart, both joined to 3 alone), 4 and 5 closed twins (joined,
    # both joined to 3), and 3 is no one's twin: one seen-set for both kinds
    # must keep exactly 1, 3 and 4.
    rows = rows_from_edges(6, [(0, 1), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    unplaced = 0b111110
    rep, _ = census._layout(6)
    packed = rows[0] & unplaced
    out = census._extensions(rows, unplaced, packed, unplaced, rep[1], 6)
    assert [v for v, _ in out] == [1, 3, 4] == twin_class_minima(rows, unplaced, unplaced)
    for v, (rest, _) in out:
        assert rest == unplaced ^ 1 << v
    rng = random.Random(5)
    pairs = list(combinations(range(8), 2))
    for _ in range(500):
        density = rng.random()
        rows = rows_from_edges(8, [e for e in pairs if rng.random() < density])
        unplaced = rng.randrange(1, 256)
        cand = unplaced & rng.randrange(1, 256) or unplaced
        out = census._extensions(rows, unplaced, 0, cand, 0, 8)
        assert [v for v, _ in out] == twin_class_minima(rows, unplaced, cand), rows


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


def test_every_later_search_follows_a_probe_that_beats(monkeypatch):
    # Only the first root is searched outright.  Every later root is probed
    # first, and searched only when the probe finds a code below the bound.
    events = []
    search, probe = census._rooted_search, census._tie_probe

    def recording_search(rows, root, *rest):
        events.append(("search", root))
        return search(rows, root, *rest)

    def recording_probe(rows, root, bound):
        found = probe(rows, root, bound)
        events.append(("beats" if found is census._BEATS else "probe", root))
        return found

    monkeypatch.setattr(census, "_rooted_search", recording_search)
    monkeypatch.setattr(census, "_tie_probe", recording_probe)
    graphs = list(SYMMETRIC.values())
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
            graphs.append((n, rows_from_edges(n, edges)))
    later = 0
    for n, rows in graphs:
        events.clear()
        canonicalize(rows)
        assert events[0][0] == "search", rows
        for before, (kind, root) in zip(events, events[1:]):
            if kind == "search":
                assert before == ("beats", root), rows
                later += 1
    assert later > 0


def test_census_counts():
    assert len(enumerate_regular(5, 4)) == 1
    assert enumerate_regular(5, 4).classes[0] == class_from_edges(5, combinations(range(5), 2))
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


def test_oracle_rejects_bad_parameters():
    for n, k in ((9, 4), (4, 4), (4, -1)):
        with pytest.raises(ValueError) as exc:
            enumerate_regular_oracle(n, k)
        assert exc.value.args == ("oracle supports 0 <= k < n <= 8",)


@pytest.mark.parametrize(
    "edge, message",
    [((1, 1), "bad edge 1-1 for 3 vertices"), ((0, 3), "bad edge 0-3 for 3 vertices"),
     ((-1, 2), "bad edge -1-2 for 3 vertices")],
    ids=["loop", "too-high", "negative"],
)
def test_rows_from_edges_rejects_a_bad_edge(edge, message):
    with pytest.raises(ValueError) as exc:
        rows_from_edges(3, [(0, 1), edge])
    assert exc.value.args == (message,)


def test_census_is_shared_and_errors_are_not_cached():
    # One immutable Census per (n, k) per process; a bad call raises every time.
    census = enumerate_regular(9, 4)
    assert enumerate_regular(9, 4) is census
    with pytest.raises(AttributeError):
        census.classes = ()
    for n, k in ((5, 5), (11, 4)):
        for _ in range(2):
            with pytest.raises(ValueError):
                enumerate_regular(n, k)


def test_census_cache_keys_on_integer_arguments():
    # A float is rejected even once (9, 4) is cached, and keyword calls
    # share the positional entry rather than computing the cell again.
    cell = enumerate_regular(9, 4)
    for _ in range(2):
        with pytest.raises(TypeError):
            enumerate_regular(9.0, 4)
        with pytest.raises(TypeError):
            enumerate_regular(9, 4.0)
    assert enumerate_regular(n=9, k=4) is cell
    assert enumerate_regular(9, k=4) is cell


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


# `fill` frames the pruned generator opens per cell, indexed [n][k].
FILL_FRAMES = {
    1: (2,),
    2: (3, 3),
    3: (4, 1, 4),
    4: (5, 5, 5, 5),
    5: (6, 3, 6, 3, 6),
    6: (7, 7, 12, 17, 7, 7),
    7: (8, 5, 19, 20, 36, 4, 8),
    8: (9, 9, 27, 138, 203, 80, 9, 9),
    9: (10, 7, 41, 174, 1479, 483, 186, 5, 10),
}


def test_pruned_generator_opens_the_pinned_number_of_fill_frames():
    # The feasibility cut only prunes branches that yield nothing, so the
    # labelings cannot show a weaker cut; the frames it lets open can.
    # Admitting a vertex that needs as many edges as there are short
    # vertices makes 7 495 frames over these cells, 2 379 at (9, 4).
    # A generator's resumptions raise "call" events too, so each frame is
    # counted once.
    frames = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "fill" and frame.f_globals is vars(census):
            frames.add(frame)

    for n, row in FILL_FRAMES.items():
        for k, want in enumerate(row):
            frames.clear()
            sys.setprofile(profile)
            try:
                for _ in _labeled_regular(n, k, prune=True):
                    pass
            finally:
                sys.setprofile(None)
            assert len(frames) == want, (n, k)


def test_every_generated_labeling_passes_the_input_check():
    # The census and the oracle hand their labelings to the canonical search
    # without `canonicalize`'s input check, so a generator that built rows
    # out of range, with a loop or asymmetric would pass unseen.
    for prune, labelings in ((False, 47067), (True, 113)):
        total = 0
        for n in range(1, 9):
            for k in range(n):
                for rows in _labeled_regular(n, k, prune):
                    census._check_rows(rows)
                    total += 1
        assert total == labelings


# sha256 over the labelings `_labeled_regular` yields, in order, for every
# (n, k, prune) with n * k even: pruned up to n = 10, unpruned up to n = 8.
# The census and the oracle take the labelings as they come, and no other
# test pins their order, so a change to the generator must keep these.
LABELING_SHA256 = {
    (1, 0, True): "90dd6212d45c23da2f5ef8473c4d61dc4bc5755b41d72345125b541a6c52f00d",
    (2, 0, True): "89b8cf24c62cf091139ec7b206f0ac995b076988831f5fec537b0d3a9d508356",
    (2, 1, True): "0c6d2903ccf2f30ebd0ca38a587a9f635bd5fccae8045032c08840a4908fa500",
    (3, 0, True): "c784747aebaf236875cfb11f60cac92d271fe4093e024af1d5b27555e0616d06",
    (3, 2, True): "58122f35965164f48d770e5abcbf23b596709107027ab76bd5821eb6a9eb7cf4",
    (4, 0, True): "53770b163d5e9377a0e1a8a0889de694cfbf2005dee506ee4cdea589e216fd30",
    (4, 1, True): "4f03ececf34ba034e2ab8419b97d0e8f237bef002bda6d3df8f3f4b3b3636bc6",
    (4, 2, True): "c460dbe8c8c5f7b6e5abe84951400ab65c4d0dac47452c3515dc3e6e1c97a1a6",
    (4, 3, True): "5b9368374327b7c1f96a669afbdb3e13d14d1d44e599ba8c7c40d9e5e7f7bdeb",
    (5, 0, True): "3019fa02e54c7234ba44bed08c676469957c86b3c4a3f225b1d4cfc4f9eed805",
    (5, 2, True): "21ba8c40b50775220a616e3283cec3e919870ca138b0742b34a3f9f24ee66fff",
    (5, 4, True): "65b354292386b5587ce76ee816dcfc43421a836a874b1faa1b9efab7a70ee420",
    (6, 0, True): "e51f624c1b1ebf43ca6eeade26dd42c3ff197b8ec16271741a1e465dd6c96752",
    (6, 1, True): "80cd152de7cd5fbe11ff8096c1a5ca848b33c81a5a568b32536448276a9c260c",
    (6, 2, True): "7a1d60aaeaf80e08fc3fc11f01a9d4af6082c43940fcf2fc5a5c388dee4e63d2",
    (6, 3, True): "8ded24f2bc080d13c0b180aa05e37db36a1418ae92cb8fd19e266dbaf8d56ad4",
    (6, 4, True): "d82aca242fc5e6a0cd7454ab64fe807d72713a2f7782d76ef1621bb7e0e67feb",
    (6, 5, True): "0e7496987edb536271a2b5ae3db9252c2e7c25be02bb17602accd11b9b1772ea",
    (7, 0, True): "4e743c1f436d8dc607af6fbf4699d1cf0a893f5567b7b3d0f1f948653a90dad7",
    (7, 2, True): "6564e78223499d4e44135f4ce4dadd524c0541e38d5e1eb00aaa178a9d2b89d1",
    (7, 4, True): "f7b525ac48c4fb6ad7027930c2ab90bad2f4d6d1c3273d5745203b5446a8aac4",
    (7, 6, True): "d42042f0820dccdf858a0c756c11bb4f011ab7b800c06faadaba1fe31fd115fd",
    (8, 0, True): "9f53fedf002d5878f35fa45cd93f96f69ad764f3a85b26f6ca03308faf54f54d",
    (8, 1, True): "df697c1293c1e88fcb7628550432638f29ec3f0b5a5ce797a1185d554668f3eb",
    (8, 2, True): "ac7b9cff850aa24f52d9e5b44e7a406451429cd49ac579f7d67596d96dc0720f",
    (8, 3, True): "9498f18d9a630b411cd513cdcd670966beaad4131226897543c4a3f7e2548fa3",
    (8, 4, True): "289f530f71d88373689c90326933ace4b31d51b2902ebdc6303b37b9e190b669",
    (8, 5, True): "a7b6b59ae84e3215bddffd5cf36222ac8756e5336569bcda0a4398b3d73f9900",
    (8, 6, True): "db448afcb54de11be176205110c568173179fbf68c657451ed03b3e5ce9407da",
    (8, 7, True): "2510fca76dd51242ceccf2266f8a6509f5e4cec941ed0b3896ad6ba5af22d26c",
    (9, 0, True): "194363dd9a9ab6f40a67eb908faaaec6db2a37d8386e970c64386ab10e76eee4",
    (9, 2, True): "0842b6c939a887ae85b8bd6ecd4b672d58d2f872affd9b64536211b92a34a07b",
    (9, 4, True): "aef8d81a1b6dd12c1db3cfec16817ddcd59d02db9e2d60b3ee0ae1079bcc6c1e",
    (9, 6, True): "f1ce73e72ece02c5d56bd8e90c532188f2fb0bd5061220f6969046699864d5f6",
    (9, 8, True): "42856362c9cb56f66887027cb98dcfcb703f266dc0e4ce8807bc9bee4563f9e2",
    (10, 0, True): "8781d25688120587219da542fe631722374cb3b4be786275d2b01e0d3c476400",
    (10, 1, True): "0b4ab89c70eeef068e6fcea7adb728220372b5f86a57efaa64e5f7da12e1c965",
    (10, 2, True): "be85fc596ec641c876fd8408adee87927dd5e3e83b27c28289dd5841790d5bc2",
    (10, 3, True): "e9398f388f527a5858c15ee27bd83df5d9a1bd55a7fd3c866ccc5ad58deb1963",
    (10, 4, True): "2e77cee6324a8e3b1bbe6670631fa1903864c7ff5c5875d18d43c264d9a9c3f2",
    (10, 5, True): "c5761301558805091c29dbb71ab3ce6fcf025e86e62af364618d136f13810833",
    (10, 6, True): "958b8a930d85f2f03d898ac042d0404498359795b3815e755ece3c88b2a2ddfa",
    (10, 7, True): "5d7fa6473ca1c949901aea3ea25c1debaa4e50f6ba8deec0807dfa124273a9d3",
    (10, 8, True): "110abb2b2b6a03c64eb42764e216e3d7bf01ae838230f20ad6b086f81d416996",
    (10, 9, True): "3737dacacb4634203211d1685a346fe85a748aa77cb633a63afcc7146ba1001a",
    (1, 0, False): "90dd6212d45c23da2f5ef8473c4d61dc4bc5755b41d72345125b541a6c52f00d",
    (2, 0, False): "89b8cf24c62cf091139ec7b206f0ac995b076988831f5fec537b0d3a9d508356",
    (2, 1, False): "0c6d2903ccf2f30ebd0ca38a587a9f635bd5fccae8045032c08840a4908fa500",
    (3, 0, False): "c784747aebaf236875cfb11f60cac92d271fe4093e024af1d5b27555e0616d06",
    (3, 2, False): "58122f35965164f48d770e5abcbf23b596709107027ab76bd5821eb6a9eb7cf4",
    (4, 0, False): "53770b163d5e9377a0e1a8a0889de694cfbf2005dee506ee4cdea589e216fd30",
    (4, 1, False): "a2fa789a65bbab737f8ac4f99dc9cc75178187f85647377d16e16405e8c29e93",
    (4, 2, False): "12c7beaab99c1b1dc8fc96200737fa7bbea696eb8566fbe26dc131281f9e2c20",
    (4, 3, False): "5b9368374327b7c1f96a669afbdb3e13d14d1d44e599ba8c7c40d9e5e7f7bdeb",
    (5, 0, False): "3019fa02e54c7234ba44bed08c676469957c86b3c4a3f225b1d4cfc4f9eed805",
    (5, 2, False): "9148f358f9f5b9448572cfa8f108014d8188b2a7e043ee921f17267a0462d297",
    (5, 4, False): "65b354292386b5587ce76ee816dcfc43421a836a874b1faa1b9efab7a70ee420",
    (6, 0, False): "e51f624c1b1ebf43ca6eeade26dd42c3ff197b8ec16271741a1e465dd6c96752",
    (6, 1, False): "d5944786775d0f8eba22b090bc37e016ccc9d07e3f69d9af3d860432b503946d",
    (6, 2, False): "0e928ad2d6889eb1d60dd441cb3a20d7b427d116afa8b7955c3e605f3dbb5d74",
    (6, 3, False): "ade9f10cbf5100f11a9a03e6eea243247f004614bcf34d23ffb98c85d948921d",
    (6, 4, False): "77fdce3ab98013da8279997163b2928a848e46914e181e0caf541041a21b046c",
    (6, 5, False): "0e7496987edb536271a2b5ae3db9252c2e7c25be02bb17602accd11b9b1772ea",
    (7, 0, False): "4e743c1f436d8dc607af6fbf4699d1cf0a893f5567b7b3d0f1f948653a90dad7",
    (7, 2, False): "dcb79617db9905e1d7f9663229e630691496f7a0a5fc0b1e7eb281d2321c112a",
    (7, 4, False): "5675ca1a115a93af01ff5752ecf41f1846216a27e55a197aceddecb02287e34f",
    (7, 6, False): "d42042f0820dccdf858a0c756c11bb4f011ab7b800c06faadaba1fe31fd115fd",
    (8, 0, False): "9f53fedf002d5878f35fa45cd93f96f69ad764f3a85b26f6ca03308faf54f54d",
    (8, 1, False): "1a4065eae90c4fb095c74532bbd84b999916ab21bf87ba7c624b27802b6fb5d8",
    (8, 2, False): "57759ec37e1705b9090d5107eb98a54a442ec1394a9646cd41519243bc4e85be",
    (8, 3, False): "bb09b177ccb705e0f8eacfadb2f0340e61b24d76a189fce2ceb0c7fc36c1ab28",
    (8, 4, False): "5e8732f08d97bf8cdff5708b02e3738b4b7f2422d9691a0ce4a894838077ad7a",
    (8, 5, False): "f02e16238a68fe2bd3c45c479623acf2072dbdb589f993e647fdb01d539bd1f7",
    (8, 6, False): "4b393a9f2c276436d148c90591d857be8552af12d23054fe6e9625bf2ce7d086",
    (8, 7, False): "2510fca76dd51242ceccf2266f8a6509f5e4cec941ed0b3896ad6ba5af22d26c",
}


def test_generator_yields_the_pinned_labelings_in_order():
    for prune, top in ((True, 10), (False, 8)):
        for n in range(1, top + 1):
            for k in range(n):
                h = hashlib.sha256()
                for rows in _labeled_regular(n, k, prune):
                    h.update(f"{rows}\n".encode())
                if n * k % 2:
                    assert h.hexdigest() == hashlib.sha256().hexdigest(), (n, k)
                else:
                    assert h.hexdigest() == LABELING_SHA256[n, k, prune], (n, k, prune)


def test_isomorphism_tests_in_each_invariant_bucket_match_canonical_forms():
    # Every pair of pruned labelings the census dedup could compare: the
    # same cell and the same edge invariant.  Six pairs over n <= 9 are not
    # isomorphic, the cases the invariant alone cannot settle.
    pairs = distinct = 0
    for n in range(1, 10):
        for k in range(n):
            buckets = {}
            for rows in _labeled_regular(n, k, prune=True):
                on_edge, tri = _triangles(rows)
                buckets.setdefault(_bucket_key(on_edge, tri), []).append((rows, tri))
            for bucket in buckets.values():
                forms = [canonicalize(rows) for rows, _ in bucket]
                for i, j in combinations(range(len(bucket)), 2):
                    (a, tri_a), (b, tri_b) = bucket[i], bucket[j]
                    same = forms[i] == forms[j]
                    assert _find_isomorphism(a, b, tri_a, tri_b) == same, (n, k)
                    pairs += 1
                    distinct += not same
    assert (pairs, distinct) == (3788, 6)


# Per cell with n <= 9 and n * k even: pruned labelings, those that lead
# (`_edge_invariant`), and the census dedup's isomorphism tests and how
# many of them succeed.
LEADING = {
    (1, 0): (1, 1, 0, 0), (2, 0): (1, 1, 0, 0), (2, 1): (1, 1, 0, 0),
    (3, 0): (1, 1, 0, 0), (3, 2): (1, 1, 0, 0), (4, 0): (1, 1, 0, 0),
    (4, 1): (1, 1, 0, 0), (4, 2): (1, 1, 0, 0), (4, 3): (1, 1, 0, 0),
    (5, 0): (1, 1, 0, 0), (5, 2): (1, 1, 0, 0), (5, 4): (1, 1, 0, 0),
    (6, 0): (1, 1, 0, 0), (6, 1): (1, 1, 0, 0), (6, 2): (2, 2, 0, 0),
    (6, 3): (3, 2, 0, 0), (6, 4): (1, 1, 0, 0), (6, 5): (1, 1, 0, 0),
    (7, 0): (1, 1, 0, 0), (7, 2): (3, 2, 0, 0), (7, 4): (6, 3, 1, 1),
    (7, 6): (1, 1, 0, 0), (8, 0): (1, 1, 0, 0), (8, 1): (1, 1, 0, 0),
    (8, 2): (4, 3, 1, 0), (8, 3): (25, 10, 5, 4), (8, 4): (35, 10, 4, 4),
    (8, 5): (13, 6, 3, 3), (8, 6): (1, 1, 0, 0), (8, 7): (1, 1, 0, 0),
    (9, 0): (1, 1, 0, 0), (9, 2): (6, 5, 3, 1), (9, 4): (268, 49, 33, 33),
    (9, 6): (28, 11, 7, 7), (9, 8): (1, 1, 0, 0),
}


def test_only_labelings_that_lead_reach_the_dedup(monkeypatch):
    # Every class keeps a labeling whose vertices 0 and 1 lead on triangles,
    # so the canonical forms of those labelings are those of all pruned
    # ones; the forms are compared without an isomorphism test.
    tests = []
    find = census._find_isomorphism

    def recording(*args):
        tests.append(find(*args))
        return tests[-1]

    monkeypatch.setattr(census, "_find_isomorphism", recording)
    census._census.cache_clear()
    try:
        for (n, k), want in LEADING.items():
            labelings = list(_labeled_regular(n, k, prune=True))
            leading = [rows for rows in labelings if _edge_invariant(rows) is not None]
            before = len(tests)
            assert {canonicalize(rows) for rows in leading} == {
                canonicalize(rows) for rows in labelings
            }, (n, k)
            assert len(tests) == before, (n, k)
            enumerate_regular(n, k)
            run = tests[before:]
            assert (len(labelings), len(leading), len(run), sum(run)) == want, (n, k)
    finally:
        census._census.cache_clear()
    assert [sum(cell) for cell in zip(*LEADING.values())] == [417, 127, 57, 53]


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


@pytest.mark.parametrize(
    "lines, message",
    [
        # the edges of quartic7-6tri under the name of the 7-triangle graph
        (["quartic7-7tri = 7 ; 0-1 1-2 2-3 4-5 6-5 3-4 6-0 2-0 2-6 1-4 1-5 3-0 3-5 6-4"],
         "catalog graph quartic7-7tri has wrong triangle count"),
        (["house = 5 ; 0-1 1-2 2-3 3-0 2-4 3-4"] * 2, "duplicate catalog name house"),
    ],
    ids=["triangles", "duplicate"],
)
def test_catalog_rejects_a_wrong_triangle_count_and_a_repeated_name(
    monkeypatch, tmp_path, lines, message
):
    (tmp_path / "catalog.txt").write_text("\n".join(lines))
    monkeypatch.setattr(census, "_DATA_DIR", tmp_path)
    catalog.cache_clear()
    try:
        with pytest.raises(ValueError) as exc:
            catalog()
        assert exc.value.args == (message,)
    finally:
        catalog.cache_clear()


def test_catalog_is_read_only():
    house = named("house")
    try:
        with pytest.raises(TypeError):
            catalog()["house"] = class_from_edges(5, combinations(range(5), 2))
        with pytest.raises(AttributeError):
            catalog().pop("house")
        assert named("house") == house
    finally:
        catalog.cache_clear()


def test_triangle_counts():
    assert sorted(triangle_count(g) for g in enumerate_regular(7, 4)) == [6, 7]
    assert triangle_count(class_from_edges(5, combinations(range(5), 2))) == 10
    assert triangle_count(named("octahedron")) == 8
    assert triangle_count(named("quartic7-7tri")) == 7
    assert triangle_count(named("quartic7-6tri")) == 6


def triangles_by_triples(n, edges):
    # Every vertex triple whose three pairs are edges.
    edge_set = set(edges)
    return [
        t for t in combinations(range(n), 3)
        if all(pair in edge_set for pair in combinations(t, 2))
    ]


def triangles_at_vertices(rows):
    n = len(rows)
    triangles = triangles_by_triples(n, GraphClass(rows).edges())
    return [sum(v in t for t in triangles) for v in range(n)]


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_triangle_counts_match_triple_enumeration(density):
    rng = random.Random(round(density * 10))
    for _ in range(100):
        n = rng.randint(0, 10)
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        rows = rows_from_edges(n, edges)
        triangles = triangles_by_triples(n, edges)
        assert triangle_count(GraphClass(rows)) == len(triangles)
        on_edge, at_vertex = census._triangles(rows)
        assert at_vertex == [sum(v in t for t in triangles) for v in range(n)]
        assert on_edge == [
            sum(v in t and w in t for t in triangles) for v, w in edges
        ]


def test_each_labeling_has_its_triangles_counted_once(monkeypatch):
    # The dedup's key and its isomorphism tests read one pass per labeling.
    calls = []
    triangles = census._triangles

    def counting(rows):
        calls.append(rows)
        return triangles(rows)

    monkeypatch.setattr(census, "_triangles", counting)
    census._census.cache_clear()
    try:
        assert len(enumerate_regular(9, 4)) == 16
    finally:
        census._census.cache_clear()
    labelings = list(_labeled_regular(9, 4, prune=True))
    assert calls == labelings
    assert len(calls) == 268


def test_isomorphism_tests_try_only_images_with_equal_triangle_counts(monkeypatch):
    calls = []
    search = census._search

    def recording_search(a, b, fits):
        calls.append((a, b, fits))
        return search(a, b, fits)

    monkeypatch.setattr(census, "_search", recording_search)
    census._census.cache_clear()
    try:
        assert len(enumerate_regular(9, 4)) == 16
    finally:
        census._census.cache_clear()
    # The dedup reaches the search only through _find_isomorphism.
    assert calls
    narrowed = False
    for a, b, fits in calls:
        at_a, at_b = triangles_at_vertices(a), triangles_at_vertices(b)
        assert fits == [
            sum(1 << w for w in range(9) if at_b[w] == at_a[v]) for v in range(9)
        ]
        narrowed |= any(mask != (1 << 9) - 1 for mask in fits)
    assert narrowed
    # The embedding tests keep their degree masks: a K3 vertex may go to
    # any vertex of degree 2 or more, here 0-3 but not the tail's end 4.
    calls.clear()
    tailed = GraphClass(rows_from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]))
    assert contains_subgraph(tailed, class_from_edges(3, combinations(range(3), 2)))
    [(_, _, fits)] = calls
    assert fits == [0b01111] * 3


def test_clique_search_matches_brute_force():
    # The package asks it of a GraphClass; exported, it takes a PrimeGraph too.
    rng = random.Random(11)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for _ in range(300):
        n = rng.randint(0, 10)
        density = rng.random()
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        rows = rows_from_edges(n, edges)
        edge_set = set(edges)
        pg = PrimeGraph(primes[:n], [(primes[a], primes[b]) for a, b in edges])
        assert pg.rows == rows
        for k in (*range(n + 2), 10**6):
            expected = any(
                all(pair in edge_set for pair in combinations(c, 2))
                for c in combinations(range(n), k)
            )
            assert contains_clique(GraphClass(rows), k) == expected, (rows, k)
            assert contains_clique(pg, k) == expected, (rows, k)


def test_enum_searches_each_class_once(monkeypatch, capsys):
    # canonicalize's search already settles vertex-transitivity, so
    # `enum --stats` runs one canonical search per class: 16 at (9, 4).
    calls = []
    search = census._canonical_search

    def counting(rows):
        calls.append(rows)
        return search(rows)

    monkeypatch.setattr(census, "_canonical_search", counting)
    census._census.cache_clear()
    try:
        assert cli.main(["enum", "--n", "9", "--k", "4", "--stats"]) == 0
    finally:
        census._census.cache_clear()
    out = capsys.readouterr().out
    assert out.startswith("16 classes") and out.count("vertex-transitive=y") == 3
    assert len(calls) == 16


def test_vertex_transitivity_verdict_is_no_part_of_the_class():
    g = named("octahedron")
    bare = GraphClass(g.rows)
    assert g.transitive is True and bare.transitive is None
    assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
    assert not g < bare and not bare < g
    assert is_vertex_transitive(bare)
    assert named("house").transitive is False


def test_vertex_transitivity():
    assert is_vertex_transitive(named("quartic7-7tri"))
    assert not is_vertex_transitive(named("house"))
    assert not is_vertex_transitive(named("quartic7-6tri"))
    assert is_vertex_transitive(named("octahedron"))
    assert is_vertex_transitive(GraphClass(rows_from_edges(5, combinations(range(5), 2))))


@pytest.mark.parametrize(
    "rows, message",
    [
        ((0b10, 0), "symmetric"),
        ((0b1, 0b10), "loop-free"),
        ((0b100, 0), "in range"),
        ((0,) * 11, "not supported"),
    ],
    ids=["asymmetric", "looped", "out-of-range", "11-vertices"],
)
def test_vertex_transitivity_checks_bare_rows(rows, message):
    # A class built directly from rows meets canonicalize's input check.
    with pytest.raises(ValueError, match=message):
        is_vertex_transitive(GraphClass(rows))


def test_a_graph_class_rejects_asymmetric_rows():
    # Vertex 0 lists 1 and vertex 1 does not list 0: the predicates would
    # disagree on such rows (edges() has (0, 1), is_k_regular(1) is False).
    with pytest.raises(ValueError, match="symmetric"):
        GraphClass((0b10, 0))


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
    triangle = class_from_edges(3, combinations(range(3), 2))
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
    assert max_dominating_in_induced(class_from_edges(5, combinations(range(5), 2)), 5) == 5
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
    assert class_from_edges(4, combinations(range(4), 2)).is_k_regular(3)
