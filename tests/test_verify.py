import json
import random
from itertools import combinations

import pytest

from primegraphs import census, prime_graph, verify
from primegraphs.arithmetic import MAX_SUPPORTED, prime_set
from primegraphs.census import (
    Census,
    class_from_edges,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    named,
)
from primegraphs.cli import main
from primegraphs.groups import (
    MAX_SIEVED_BOUND,
    Family,
    FourPrimeCase,
    GroupSpec,
    family_specs,
    prime_set_of_group,
)
from primegraphs.prime_graph import PrimeGraph, graph_of
from primegraphs.verify import Bounds, claim_ids, run_all, run_one

SMALL = Bounds(psl2_max=500, suzuki_max=2**9, psl3_max=50, psu3_max=50,
               product_trials=50)


@pytest.fixture(scope="module")
def small_report():
    return run_all(SMALL)


def test_all_claims_pass_at_small_bounds(small_report):
    assert small_report.ok, small_report.to_table()
    assert len(small_report.entries) == len(claim_ids())


def test_run_one_matches_run_all(small_report):
    full = {e.id: e for e in small_report.entries}
    for cid in ("order6-census", "j1-data", "palfy-oracle"):
        single = run_one(cid, SMALL)
        assert single.status == full[cid].status
        assert single.detail == full[cid].detail


def test_unknown_claim():
    with pytest.raises(KeyError):
        run_one("no-such-claim", SMALL)


def test_raising_claim_fails(monkeypatch, capsys):
    def boom(b):
        raise ValueError("boom")

    monkeypatch.setitem(verify._REGISTRY, "boom", boom)
    entry = run_one("boom", SMALL)
    assert (entry.status, entry.detail) == ("fail", "raised ValueError('boom')")
    assert main(["verify", "--only", "boom"]) == 1
    out = capsys.readouterr()
    assert out.err == "" and "boom  fail  raised ValueError('boom')" in out.out


def _edit_census(monkeypatch, cell, edit):
    # verify's census at `cell` becomes edit(classes); every other is real.
    real = verify.enumerate_regular

    def edited(n, k):
        census = real(n, k)
        if (n, k) != cell:
            return census
        return Census(n, k, edit(census.classes))

    monkeypatch.setattr(verify, "enumerate_regular", edited)


def _alias(monkeypatch, aliases):
    # verify's catalog lookups return aliases[name] where one is given.
    real = verify.named
    monkeypatch.setattr(verify, "named", lambda name: aliases.get(name) or real(name))


@pytest.mark.parametrize(
    "cid, n, size", [("order8-k4-count", 8, 6), ("order9-k4-count", 9, 16)]
)
def test_k4_count_claims_check_the_census_size(monkeypatch, cid, n, size):
    def losing_a_k4_free_class(classes):
        lost = next(g for g in classes if not contains_clique(g, 4))
        return tuple(g for g in classes if g != lost)

    _edit_census(monkeypatch, (n, 4), losing_a_k4_free_class)
    entry = run_one(cid, SMALL)
    assert (entry.status, entry.detail) == ("fail", f"census size {size - 1}")


# K4 plus a disjoint edge on 6 vertices, and K4 plus a disjoint K3 on 7.
K4_K2 = class_from_edges(6, [*combinations(range(4), 2), (4, 5)])
K4_K3 = class_from_edges(7, [*combinations(range(4), 2), *combinations(range(4, 7), 2)])


@pytest.mark.parametrize(
    "cid, n, extra, detail",
    [
        ("order6-census", 6, K4_K2, "census size 2"),
        ("order6-census", 6, None, "census size 0"),
        ("order7-census", 7, K4_K3, "size 3, triangles [5, 6, 7]"),
        ("order7-census", 7, None, "size 1, triangles [7]"),
        ("k4-free-small", 6, K4_K2, f"witness: order-6 class with edges {K4_K2.edges()}"),
        ("k4-free-small", 7, K4_K3, f"witness: order-7 class with edges {K4_K3.edges()}"),
    ],
    ids=["order6-added", "order6-lost", "order7-added", "order7-lost",
         "k4-free-order6", "k4-free-order7"],
)
def test_census_claims_fail_when_the_census_gains_or_loses_a_class(
    monkeypatch, cid, n, extra, detail
):
    # A class added at the end, or the census's last class lost.
    _edit_census(
        monkeypatch, (n, 4), lambda classes: classes[:-1] if extra is None else (*classes, extra)
    )
    entry = run_one(cid, SMALL)
    assert (entry.status, entry.detail) == ("fail", detail)


def test_order6_census_checks_the_octahedron_triangles(monkeypatch):
    # The census's one class is the catalog's octahedron, but with the
    # prism's 2 triangles.
    prism = class_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                 (0, 3), (1, 4), (2, 5)])
    _edit_census(monkeypatch, (6, 4), lambda classes: (prism,))
    _alias(monkeypatch, {"octahedron": prism})
    entry = run_one("order6-census", SMALL)
    assert (entry.status, entry.detail) == ("fail", "octahedron triangle count wrong")


@pytest.mark.parametrize(
    "cid, name, alias, detail",
    [
        ("order7-census", "quartic7-6tri", "quartic7-7tri",
         "census classes do not match the catalog pair"),
        ("vertex-transitivity", "quartic7-6tri", "quartic7-7tri",
         "7tri transitive: True, 6tri transitive: True"),
        ("vertex-transitivity", "quartic7-7tri", "quartic7-6tri",
         "7tri transitive: False, 6tri transitive: False"),
    ],
    ids=["order7-pair", "transitive-6tri", "intransitive-7tri"],
)
def test_order7_claims_check_the_catalog_pair(monkeypatch, cid, name, alias, detail):
    # One catalog graph of the order-7 pair is read as the other one.
    _alias(monkeypatch, {name: named(alias)})
    entry = run_one(cid, SMALL)
    assert (entry.status, entry.detail) == ("fail", detail)


def test_k5_closure_reports_a_k5_that_is_not_a_whole_component(monkeypatch):
    tailed = class_from_edges(6, [*combinations(range(5), 2), (0, 5), (1, 5)])
    _edit_census(monkeypatch, (6, 4), lambda classes: (*classes, tailed))
    entry = run_one("k5-closure", SMALL)
    assert (entry.status, entry.detail) == (
        "fail", f"witness: order-6 class with edges {tailed.edges()}"
    )


@pytest.mark.parametrize("cid, name", [("j1-graph-degrees", "j1"), ("m11-graph-degrees", "m11")])
def test_degree_claims_report_the_degrees_they_found(monkeypatch, cid, name):
    real = verify.graph_of
    spec = GroupSpec.sporadic(name)
    primes = real(spec).vertices
    star = PrimeGraph(primes, [(2, p) for p in primes if p != 2])
    monkeypatch.setattr(verify, "graph_of", lambda s: star if s == spec else real(s))
    entry = run_one(cid, SMALL)
    degrees = {p: len(primes) - 1 if p == 2 else 1 for p in primes}
    assert (entry.status, entry.detail) == ("fail", f"degrees {degrees}")


@pytest.mark.parametrize(
    "cid, name, key, value, detail",
    [
        ("regular-implies-complete", "graph_of", GroupSpec.psl2(7),
         PrimeGraph([2, 3, 5, 7], [(2, 3), (5, 7)]),
         "witness: psl2 7 with edges ((2, 3), (5, 7))"),
        ("structural-agreement", "structural_graph", GroupSpec.psl2(13),
         PrimeGraph([2, 3, 7, 13], []), "witness: psl2 13"),
        ("pentagon-shapes", "named", "pentagon-paw", named("house"),
         "witness: psl2 29 with shape edges ((1, 4), (2, 3), (2, 4), (3, 4))"),
        ("three-prime-groups", "prime_set_of_group", GroupSpec.psl2(8),
         prime_set(3 * 7 * 13), "witness: psl2 8 with primes (3, 7, 13)"),
        ("three-prime-groups", "canonical_key", GroupSpec.psl2(8), "psl2_9",
         "found ['a5', 'a6', 'psl2_17', 'psl2_7', 'psl2_9', 'psl3_3', 'psu3_3'], "
         "expected ['a5', 'a6', 'psl2_17', 'psl2_7', 'psl2_8', 'psl3_3', 'psu3_3']"),
        ("four-prime-psl2-cases", "classify_four_prime_psl2", GroupSpec.psl2(32),
         FourPrimeCase.CASE_R, "witness: psl2 32 misclassified as largest-prime case"),
        ("four-prime-psl2-cases", "classify_four_prime_psl2", GroupSpec.psl2(11),
         FourPrimeCase.CASE_MERSENNE, "witness: psl2 11 misclassified as Mersenne case"),
        ("four-prime-psl2-cases", "classify_four_prime_psl2", GroupSpec.psl2(11),
         FourPrimeCase.NONE, "witness: psl2 11 gave none, expected r"),
    ],
    ids=["regular", "structural", "pentagon", "three-prime-witness", "three-prime-set",
         "four-prime-r", "four-prime-mersenne", "four-prime-anchor"],
)
def test_sweep_claims_report_their_witness(monkeypatch, cid, name, key, value, detail):
    # One item of the sweep breaks: the claim fails and names that item.
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda arg: value if arg == key else real(arg))
    entry = run_one(cid, SMALL)
    assert (entry.status, entry.detail) == ("fail", detail)


@pytest.mark.parametrize(
    "g",
    [
        PrimeGraph([]),
        PrimeGraph([5]),
        PrimeGraph([2, 3, 5]),
        PrimeGraph([2, 3, 5, 7], [(2, 3, 5, 7)]),
        PrimeGraph([2, 3, 5], [(2, 3), (3, 5)]),
    ],
    ids=["empty", "one-vertex", "edgeless", "complete", "path"],
)
def test_regular_claim_passes_graphs_that_are_no_witness(monkeypatch, g):
    # only a regular graph of positive degree that is not complete fails
    monkeypatch.setattr(verify, "graph_of", lambda spec: g)
    assert run_one("regular-implies-complete", SMALL).status == "pass"


def _edge_list_factors(seed, trials):
    """The factor pairs that product-join-bound tests, drawn as edge lists
    and built through the checked constructor."""
    rng = random.Random(seed)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(trials):
        a_verts = rng.sample(pool, rng.randint(1, 6))
        a_edges = [e for e in combinations(sorted(a_verts), 2) if rng.random() < 0.4]
        shared = rng.sample(a_verts, rng.randint(0, len(a_verts)))
        fresh = rng.sample([p for p in pool if p not in a_verts], rng.randint(1, 3))
        b_verts = sorted(shared + fresh)
        b_edges = list(combinations(sorted(fresh), 2))
        b_edges += [(p, q) for p in shared for q in b_verts if p < q and rng.random() < 0.5]
        yield PrimeGraph(a_verts, a_edges), PrimeGraph(b_verts, b_edges)


@pytest.mark.parametrize("seed", [Bounds().seed, 7])
def test_product_join_draws_the_edge_list_factors(monkeypatch, seed):
    # The claim draws its factors straight into rows; every trial must test
    # the same pair, drawn from the same random stream, as the edge lists.
    drawn = []
    product = verify.product_graph

    def spy(a, b):
        drawn.append((a, b))
        return product(a, b)

    monkeypatch.setattr(verify, "product_graph", spy)
    bounds = Bounds(seed=seed)
    assert run_one("product-join-bound", bounds).detail == "1000 randomized trials"
    expected = list(_edge_list_factors(seed, bounds.product_trials))
    assert len(drawn) == len(expected)
    for trial, (got, want) in enumerate(zip(drawn, expected)):
        assert got == want, trial


def test_palfy_oracle_graphs_match_their_edge_lists(monkeypatch):
    # The claim labels census vertex i with the i-th prime and takes the
    # census rows as they are.
    built = []
    condition = PrimeGraph.palfy_condition

    def spy(g):
        built.append(g)
        return condition(g)

    monkeypatch.setattr(PrimeGraph, "palfy_condition", spy)
    assert run_one("palfy-oracle", SMALL).detail == "45 graphs checked"
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    assert built == [
        PrimeGraph(primes[:n], [(primes[i], primes[j]) for i, j in g.edges()])
        for n in range(3, 9)
        for k in range(n)
        for g in enumerate_regular(n, k)
    ]


def test_report_is_deterministic(small_report):
    a = small_report
    census._census.cache_clear()  # else the second run only reads the cache
    b = run_all(SMALL)
    assert [(e.id, e.status, e.detail) for e in a.entries] == [
        (e.id, e.status, e.detail) for e in b.entries
    ]


def test_run_all_generates_each_census_once(monkeypatch):
    # Several claims share a census, (9, 4) among them: each (n, k) is
    # generated once per process.
    generated = []
    labeled = census._labeled_regular

    def counting(n, k, prune):
        generated.append((n, k))
        return labeled(n, k, prune)

    monkeypatch.setattr(census, "_labeled_regular", counting)
    census._census.cache_clear()
    try:
        run_all(SMALL)
    finally:
        census._census.cache_clear()
    assert (9, 4) in generated
    assert len(generated) == len(set(generated))


def five_prime_psl2(psl2_max):
    for spec in family_specs(Family.PSL2, psl2_max):
        if len(prime_set_of_group(spec)) == 5:
            yield spec


def test_pentagon_shapes_decides_each_row_pattern_once(monkeypatch):
    patterns = {graph_of(spec).rows for spec in five_prime_psl2(Bounds().psl2_max)}
    census.catalog()  # loaded before counting: it canonicalizes its graphs
    calls = {"canonicalize": 0, "_embeds": 0}
    for name in calls:
        original = getattr(census, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (census, prime_graph, verify):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    entry = run_one("pentagon-shapes")
    assert entry.status == "pass", entry.detail
    assert calls["canonicalize"] == len(patterns)
    assert 0 < calls["_embeds"] <= 2 * len(patterns)


def test_pentagon_shapes_witness_is_the_first_failing_parameter(monkeypatch):
    # With the paw swapped for a graph no spec has, the claim fails at the
    # smallest parameter whose shape is the paw inside the house or the
    # butterfly, found here one spec at a time.
    paw, house, butterfly = named("pentagon-paw"), named("house"), named("butterfly")
    for spec in five_prime_psl2(Bounds().psl2_max):
        shape = graph_of(spec).shape()
        if shape == paw and (
            contains_subgraph(house, shape) or contains_subgraph(butterfly, shape)
        ):
            break
    decoy = class_from_edges(6, combinations(range(6), 2))
    real = verify.named
    monkeypatch.setattr(
        verify, "named", lambda name: decoy if name == "pentagon-paw" else real(name)
    )
    entry = run_one("pentagon-shapes")
    assert str(spec).startswith("psl2 ")
    assert (entry.status, entry.detail) == (
        "fail",
        f"witness: {spec} with shape edges {paw.edges()}",
    )


def test_pentagon_shapes_at_the_sweep_wide_bound():
    entry = run_one("pentagon-shapes", Bounds(psl2_max=30000))
    assert entry.detail == "531 matching groups, all of the three shapes"


def test_report_serialization(small_report):
    report = small_report
    table = report.to_table()
    assert f"{len(report.entries)} claims, 0 failed" in table
    doc = json.loads(report.to_json())
    assert doc["ok"] is True
    assert {c["id"] for c in doc["claims"]} == set(claim_ids())
    assert all(c["status"] == "pass" for c in doc["claims"])


def test_claim_ids_unique_and_stable():
    ids = claim_ids()
    assert len(ids) == len(set(ids))
    assert "regular-implies-complete" in ids
    assert "pentagon-shapes" in ids
    assert "product-join-bound" in ids


@pytest.mark.parametrize(
    "value, field",
    [
        (value, field)
        for value in (0, -5)
        for field in ("psl2_max", "suzuki_max", "psl3_max", "psu3_max")
    ]
    # The sieved sweeps are capped; the cap is checked before any sieve.
    + [(MAX_SIEVED_BOUND + 1, field) for field in ("psl2_max", "psl3_max", "psu3_max")]
    # PSL3 and PSU3 are capped where q^2 +- q + 1 leaves the range of factor.
    + [(3037000500, field) for field in ("psl3_max", "psu3_max")]
    # Suzuki parameters are capped by the 63-bit range of factor.
    + [(MAX_SUPPORTED + 1, "suzuki_max"), (10**20, "suzuki_max")],
)
def test_bounds_reject_non_positive_maxima(value, field):
    with pytest.raises(ValueError, match=field):
        Bounds(**{field: value})


def test_bounds_accept_the_cap():
    assert Bounds(psl2_max=MAX_SIEVED_BOUND).psl2_max == MAX_SIEVED_BOUND
    assert Bounds(suzuki_max=MAX_SIEVED_BOUND + 1).suzuki_max == MAX_SIEVED_BOUND + 1
    assert Bounds(suzuki_max=MAX_SUPPORTED).suzuki_max == MAX_SUPPORTED
    assert Bounds(psl3_max=3037000499).psl3_max == 3037000499
    assert Bounds(psu3_max=3037000499).psu3_max == 3037000499


def test_bounds_product_trials():
    with pytest.raises(ValueError, match="product_trials"):
        Bounds(product_trials=-1)
    assert Bounds(product_trials=0).product_trials == 0
