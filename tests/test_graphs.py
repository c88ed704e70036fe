import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegraphs.census import contains_clique
from primegraphs.groups import (
    DegreeSet,
    Family,
    GroupSpec,
    UnsupportedFamilyError,
    all_specs,
    character_degrees,
    degree_table,
    family_specs,
    prime_powers,
)
from primegraphs.prime_graph import (
    PrimeGraph,
    graph_from_degrees,
    graph_of,
    product_graph,
    structural_graph,
)
from primegraphs.verify import Bounds


def complete_on(primes):
    return PrimeGraph(primes, [(p, q) for p in primes for q in primes if p < q])


def test_graph_construction_validates():
    with pytest.raises(ValueError):
        PrimeGraph([2, 3], [(2, 2)])
    with pytest.raises(ValueError):
        PrimeGraph([2, 3], [(2, 5)])
    g = PrimeGraph([3, 2], [(3, 2), (2, 3)])
    assert tuple(g.vertices) == (2, 3)
    assert g.edges == ((2, 3),)


def test_graph_from_degrees_psl2_64():
    g = graph_from_degrees(character_degrees(GroupSpec.psl2(64)))
    assert tuple(g.vertices) == (2, 3, 5, 7, 13)
    assert g.edges == ((3, 7), (5, 13))
    assert [tuple(c) for c in g.connected_components()] == [(2,), (3, 7), (5, 13)]


def test_graph_from_degrees_psl2_125():
    g = graph_from_degrees(character_degrees(GroupSpec.psl2(125)))
    assert tuple(g.vertices) == (2, 3, 5, 7, 31)
    assert g.edges == ((2, 3), (2, 7), (2, 31), (3, 7))
    assert tuple(g.complete_vertices()) == (2,)
    assert g.degree(5) == 0


def test_graph_from_degrees_psl2_256():
    g = graph_from_degrees(character_degrees(GroupSpec.psl2(256)))
    assert g.edges == ((3, 5), (3, 17), (5, 17))
    assert g.degree(2) == 0 and g.degree(257) == 0


def test_graph_from_trivial_degrees():
    g = graph_from_degrees(DegreeSet([1]))
    assert len(g.vertices) == 0 and g.edges == ()


_PRIMES_TO_3000 = [
    p for p in range(2, 3001) if all(p % k for k in range(2, math.isqrt(p) + 1))
]


@given(st.sets(st.integers(1, 3000), max_size=6))
@settings(max_examples=300, deadline=None)
def test_graph_from_degrees_matches_definition(degrees):
    # p is a vertex iff it divides some degree, and p-q an edge iff pq
    # divides some degree, decided with % alone
    degrees |= {1}
    vertices = [p for p in _PRIMES_TO_3000 if any(d % p == 0 for d in degrees)]
    edges = [
        (p, q) for p, q in combinations(vertices, 2)
        if any(d % (p * q) == 0 for d in degrees)
    ]
    g = graph_from_degrees(DegreeSet(degrees))
    assert list(g.vertices) == vertices
    assert list(g.edges) == edges
    assert g == PrimeGraph(vertices, edges)  # rows too, loop-free


def _primes_of(*values):
    # trial division by every integer, written apart from primegraphs
    out = set()
    for n in values:
        d = 2
        while d * d <= n:
            while n % d == 0:
                out.add(d)
                n //= d
            d += 1
        if n > 1:
            out.add(n)
    return out


def _white_rule_edges(spec):
    """The vertices and edges structural_graph's docstring gives for a
    Lie-type spec, decided one pair at a time."""
    fam, q = spec.family, spec.parameter
    if fam is Family.SUZUKI:
        r = math.isqrt(2 * q)
        minus = _primes_of(q - 1)
        pi = _primes_of(q, q - 1, q + r + 1, q - r + 1)

        def adjacent(a, b):  # a < b
            return a != 2 or b in minus
    elif fam in (Family.PSL3, Family.PSU3):
        cyc = q * q + q + 1 if fam is Family.PSL3 else q * q - q + 1
        split = q - 1 if fam is Family.PSL3 else q + 1
        torus = _primes_of(q + 1 if fam is Family.PSL3 else q - 1, cyc)
        p = min(_primes_of(q))
        pi = _primes_of(q, q - 1, q + 1, cyc)
        complete = _primes_of(split) <= {2, 3}

        def adjacent(a, b):
            if complete or p not in (a, b):
                return True
            return (b if a == p else a) in torus
    else:
        p = min(_primes_of(q))
        minus, plus = _primes_of(q - 1), _primes_of(q + 1)
        pi = _primes_of(q, q - 1, q + 1)

        def adjacent(a, b):
            if p in (a, b):
                return False
            if q % 2 and a == 2:
                return True
            return {a, b} <= minus or {a, b} <= plus
    vertices = sorted(pi)
    return vertices, [(a, b) for a, b in combinations(vertices, 2) if adjacent(a, b)]


def test_structural_graph_matches_rules_edge_by_edge():
    b = Bounds()
    checked = 0
    for spec in all_specs(b.psl2_max, b.suzuki_max, b.psl3_max, b.psu3_max):
        if spec.family in (Family.SPORADIC, Family.ALTERNATING):
            continue
        if (spec.family, spec.parameter) in (
            (Family.PSL2, 5), (Family.PSL3, 2), (Family.PSL3, 4)
        ):
            continue  # the exceptions, built from their degree sets
        vertices, edges = _white_rule_edges(spec)
        g = structural_graph(spec)
        assert list(g.vertices) == vertices, spec
        assert list(g.edges) == edges, spec
        assert g == PrimeGraph(vertices, edges), spec
        checked += 1
    assert checked == 1399


def test_structural_suzuki_8():
    g = structural_graph(GroupSpec.suzuki(8))
    assert tuple(g.vertices) == (2, 5, 7, 13)
    assert g.has_edge(5, 7) and g.has_edge(5, 13) and g.has_edge(7, 13)
    assert g.has_edge(2, 7)
    assert not g.has_edge(2, 5) and not g.has_edge(2, 13)
    # and the bundled degree list gives the same graph
    assert graph_from_degrees(degree_table("sz8").degree_set) == g


def test_structural_psl2_81():
    g = structural_graph(GroupSpec.psl2(81))
    assert g.degree(3) == 0
    assert g.has_edge(2, 5) and g.has_edge(2, 41)
    assert not g.has_edge(5, 41)


def test_structural_rejects_table_groups():
    with pytest.raises(UnsupportedFamilyError):
        structural_graph(GroupSpec.sporadic("j1"))
    with pytest.raises(UnsupportedFamilyError):
        structural_graph(GroupSpec.alternating(7))


def test_structural_agrees_with_degrees_for_psl2():
    for q in (f.value for f in prime_powers(4, 10**4)):
        spec = GroupSpec.psl2(q)
        assert structural_graph(spec) == graph_from_degrees(
            character_degrees(spec)
        ), q


def test_structural_psl3_complete_cases():
    # q - 1 of the form 2^i 3^j with i >= 1 forces a complete graph
    assert structural_graph(GroupSpec.psl3(3)).is_complete()
    assert structural_graph(GroupSpec.psl3(5)).is_complete()
    assert structural_graph(GroupSpec.psl3(13)).is_complete()
    g = structural_graph(GroupSpec.psl3(8))
    assert not g.is_complete()
    assert g.degree(2) < len(g.vertices) - 1


def test_structural_psu3_complete_cases():
    # mirrored condition on q + 1, now allowing i = 0
    assert structural_graph(GroupSpec.psu3(3)).is_complete()
    assert structural_graph(GroupSpec.psu3(8)).is_complete()
    assert not structural_graph(GroupSpec.psu3(4)).is_complete()


def test_structural_psl3_aliases_and_exceptions():
    assert structural_graph(GroupSpec.psl3(2)) == structural_graph(GroupSpec.psl2(7))
    g4 = structural_graph(GroupSpec.psl3(4))
    assert tuple(g4.vertices) == (2, 3, 5, 7)
    assert tuple(g4.complete_vertices()) == (5,)
    assert not g4.has_edge(2, 3) and not g4.has_edge(2, 7)


def test_structural_exceptions_are_built_from_degrees():
    # the three members White's rules get wrong
    for spec in (GroupSpec.psl2(5), GroupSpec.psl3(2), GroupSpec.psl3(4)):
        assert structural_graph(spec) == graph_from_degrees(character_degrees(spec)), spec


def test_suzuki_sweep_regularity():
    # 2 is never adjacent to the large-torus primes, so no Suzuki graph is
    # regular with positive degree
    for spec in family_specs(Family.SUZUKI, 2**15):
        g = structural_graph(spec)
        degs = set(g.degree_sequence())
        assert len(degs) > 1 or degs == {0}, spec


def test_product_identical_factors():
    p8 = graph_of(GroupSpec.psl2(8))
    assert p8.edges == ()
    prod = product_graph(p8, p8)
    assert prod.is_complete() and tuple(prod.vertices) == (2, 3, 7)


def test_product_single_vertex_identity():
    single = PrimeGraph([5])
    empty = PrimeGraph([])
    assert product_graph(single, empty) == single
    assert product_graph(empty, single) == single


def test_product_complete_vertex_bound():
    a = graph_of(GroupSpec.psl2(64))
    b = graph_of(GroupSpec.psl2(8))
    prod = product_graph(a, b)
    cv = prod.complete_vertices()
    assert {2, 3, 7} <= set(cv)
    assert len(cv) >= len(b.vertices)


def test_product_commutative_associative():
    a = graph_of(GroupSpec.psl2(64))
    b = graph_of(GroupSpec.psl2(8))
    c = graph_of(GroupSpec.suzuki(8))
    assert product_graph(a, b) == product_graph(b, a)
    assert product_graph(product_graph(a, b), c) == product_graph(
        a, product_graph(b, c)
    )


degree_sets = st.sets(st.integers(2, 2000), max_size=4).map(lambda s: s | {1})


@given(degree_sets, degree_sets)
@settings(max_examples=200, deadline=None)
def test_product_graph_is_graph_of_degree_products(a, b):
    # Degrees of a direct product are the products of the factors' degrees.
    product = product_graph(
        graph_from_degrees(DegreeSet(a)), graph_from_degrees(DegreeSet(b))
    )
    assert product == graph_from_degrees(DegreeSet(x * y for x in a for y in b))


def test_predicates_on_k5():
    k5 = complete_on([2, 3, 5, 7, 11])
    assert k5.is_complete()
    assert k5.degree_sequence() == (4,) * 5
    assert contains_clique(k5, 5) and not contains_clique(k5, 6)
    assert len(k5.complete_vertices()) == 5
    assert k5.palfy_condition()


def test_palfy_condition_small():
    empty3 = PrimeGraph([2, 3, 5])
    assert not empty3.palfy_condition()
    path = PrimeGraph([2, 3, 5], [(2, 3), (3, 5)])
    assert path.palfy_condition()


def test_serialization_stable():
    g = graph_from_degrees(character_degrees(GroupSpec.psl2(64)))
    assert g.to_json() == (
        '{"vertices": [2, 3, 5, 7, 13], "edges": [[3, 7], [5, 13]]}\n'
    )
    assert g.to_dot() == (
        "graph {\n  2;\n  3;\n  5;\n  7;\n  13;\n"
        "  3 -- 7;\n  5 -- 13;\n}\n"
    )
    assert g.to_edgelist() == "2\n3 7\n5 13\n"


def test_json_roundtrip():
    import json

    g = structural_graph(GroupSpec.suzuki(32))
    obj = json.loads(g.to_json())
    assert PrimeGraph(obj["vertices"], obj["edges"]) == g
