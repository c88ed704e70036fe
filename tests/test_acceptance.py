"""Acceptance suite: one test per headline criterion, each printing a
single PASS line with its timing so the run reads as a checklist."""

import random
import time
from itertools import combinations

from primegraphs.arithmetic import PrimeSet
from primegraphs.census import (
    class_from_edges,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    named,
    triangle_count,
)
from primegraphs.groups import (
    GroupSpec,
    all_specs,
    bundled_table_names,
    character_degrees,
    degree_table,
    prime_powers,
    prime_set_of_group,
)
from primegraphs.prime_graph import PrimeGraph, graph_from_degrees, graph_of, product_graph
from primegraphs.verify import Bounds, run_one


def report(label, elapsed):
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_1_small_psl2_graphs():
    start = time.perf_counter()

    cd64 = tuple(character_degrees(GroupSpec.psl2(64)))
    assert cd64 == (1, 63, 64, 65)
    g64 = graph_from_degrees(character_degrees(GroupSpec.psl2(64)))
    assert [tuple(c) for c in g64.connected_components()] == [
        (2,), (3, 7), (5, 13),
    ]

    cd125 = tuple(character_degrees(GroupSpec.psl2(125)))
    assert cd125 == (1, 63, 124, 125, 126)
    g125 = graph_from_degrees(character_degrees(GroupSpec.psl2(125)))
    assert g125.edges == ((2, 3), (2, 7), (2, 31), (3, 7))
    assert tuple(g125.complete_vertices()) == (2,)
    assert g125.degree(5) == 0

    g256 = graph_from_degrees(character_degrees(GroupSpec.psl2(256)))
    assert g256.edges == ((3, 5), (3, 17), (5, 17))
    assert g256.degree(2) == 0 and g256.degree(257) == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    report("criterion 1: small PSL2 degree sets and graphs", elapsed)


def test_criterion_2_censuses():
    start = time.perf_counter()

    c5 = enumerate_regular(5, 4)
    assert len(c5) == 1 and c5.classes[0] == class_from_edges(5, combinations(range(5), 2))
    assert len(enumerate_regular(6, 4)) == 1
    c7 = enumerate_regular(7, 4)
    assert len(c7) == 2
    assert sorted(triangle_count(g) for g in c7) == [6, 7]
    c8 = enumerate_regular(8, 4)
    assert sum(contains_clique(g, 4) for g in c8) == 1
    c9 = enumerate_regular(9, 4)
    assert sum(contains_clique(g, 4) for g in c9) == 2
    for g in enumerate_regular(6, 4):
        assert not contains_clique(g, 4)
    for g in c7:
        assert not contains_clique(g, 4)
    for n in range(6, 10):
        for g in enumerate_regular(n, 4):
            assert not contains_clique(g, 5)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s, budget 60s"
    report("criterion 2: 4-regular censuses on 5..9 vertices", elapsed)


def test_criterion_3_oracles(oracle_cells):
    # The census loop is shared with test_census.test_oracle_agreement
    # through the session fixture, so the elapsed time below leaves it out.
    start = time.perf_counter()

    for (n, k), (fast, slow) in oracle_cells.items():
        assert fast.classes == slow.classes, (n, k)
        assert fast.parity_ok == slow.parity_ok, (n, k)

    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    for n in range(3, 9):
        for k in range(0, n):
            for g in enumerate_regular(n, k):
                pg = PrimeGraph(
                    primes[:n], [(primes[i], primes[j]) for i, j in g.edges()]
                )
                edges = set(pg.edges)
                brute = all(
                    any(pair in edges for pair in combinations(t, 2))
                    for t in combinations(primes[:n], 3)
                )
                assert pg.palfy_condition() == brute

    elapsed = time.perf_counter() - start
    report("criterion 3: census and three-vertex-condition oracles", elapsed)


def test_criterion_4_regular_implies_complete():
    start = time.perf_counter()

    count = 0
    for spec in all_specs(10**4, 2**15, 200, 200):
        g = graph_of(spec)
        count += 1
        degrees = set(g.degree_sequence())
        if len(degrees) == 1 and degrees.pop() >= 1:
            assert g.is_complete(), f"counterexample: {spec}"
    assert count > 1400

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s, budget 120s"
    report(f"criterion 4: regular-implies-complete over {count} groups", elapsed)


def test_criterion_5_pentagon_taxonomy():
    start = time.perf_counter()

    from primegraphs.census import class_from_edges

    house, butterfly = named("house"), named("butterfly")
    allowed = {
        named("pentagon-matching"),
        named("pentagon-paw"),
        named("pentagon-triangle"),
    }
    hits = 0
    for q in (f.value for f in prime_powers(4, 10**4)):
        spec = GroupSpec.psl2(q)
        if len(prime_set_of_group(spec)) != 5:
            continue
        g = graph_of(spec)
        index = {p: i for i, p in enumerate(g.vertices)}
        shape = class_from_edges(5, [(index[p], index[q]) for p, q in g.edges])
        if contains_subgraph(house, shape) or contains_subgraph(butterfly, shape):
            hits += 1
            assert shape in allowed, f"counterexample: psl2 {q}"
    # The claim reaches the same verdicts through its per-pattern memo.
    claim = run_one("pentagon-shapes", Bounds(psl2_max=10**4))
    assert claim.detail == f"{hits} matching groups, all of the three shapes"
    assert hits == 293

    elapsed = time.perf_counter() - start
    report(f"criterion 5: pentagon taxonomy over {hits} five-prime groups", elapsed)


def test_criterion_6_data_integrity():
    start = time.perf_counter()

    for name in bundled_table_names():
        table = degree_table(name)
        assert (
            sum(m * d * d for d, m in table.degrees_with_multiplicity)
            == table.order
        )

    for idx in (266, 1045, 1463, 1540, 1596, 2926, 4180):
        assert idx in degree_table("j1").maximal_indices
        assert idx % 2 == 0 or idx % 19 == 0

    j1 = graph_of(GroupSpec.sporadic("j1"))
    assert j1.degree(2) == 4
    assert j1.degree(7) == 3 and j1.degree(19) == 3
    assert j1.degree(3) == 2 and j1.degree(5) == 2 and j1.degree(11) == 2
    assert j1.degree_sequence() == (4, 3, 3, 2, 2, 2)

    m11 = graph_of(GroupSpec.sporadic("m11"))
    assert m11.degree(2) == 2 and m11.degree(11) == 2
    assert m11.degree(5) == 3 and m11.degree(3) == 1

    elapsed = time.perf_counter() - start
    report("criterion 6: bundled data integrity and graph degrees", elapsed)


def test_criterion_7_product_join():
    start = time.perf_counter()

    rng = random.Random(42)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(1000):
        a_verts = rng.sample(pool, rng.randint(1, 6))
        a = PrimeGraph(
            a_verts,
            [e for e in combinations(sorted(a_verts), 2) if rng.random() < 0.4],
        )
        shared = rng.sample(a_verts, rng.randint(0, len(a_verts)))
        fresh = rng.sample(
            [p for p in pool if p not in a_verts], rng.randint(1, 3)
        )
        b_edges = list(combinations(sorted(fresh), 2))
        b_edges += [
            (min(p, q), max(p, q))
            for p in shared
            for q in shared + fresh
            if p != q and rng.random() < 0.5
        ]
        b = PrimeGraph(sorted(shared + fresh), b_edges)
        prod = product_graph(a, b)
        assert len(prod.complete_vertices()) >= len(b.vertices)
        for p in PrimeSet(shared):
            assert p in prod.complete_vertices()

    elapsed = time.perf_counter() - start
    report("criterion 7: product-join complete-vertex bound, 1000 trials", elapsed)


def test_criterion_8_dominating_bounds():
    start = time.perf_counter()

    from primegraphs.census import max_dominating_in_induced

    assert max_dominating_in_induced(named("quartic7-7tri"), 5) == 1
    assert max_dominating_in_induced(named("quartic7-6tri"), 5) == 2
    assert max_dominating_in_induced(named("quartic8-k4"), 5) == 1
    assert max_dominating_in_induced(named("quartic9-k4-b"), 5) == 1
    assert contains_subgraph(named("quartic9-k4-a"), named("k5-minus-cherry"))

    elapsed = time.perf_counter() - start
    report("criterion 8: dominating-vertex bounds on the named graphs", elapsed)
