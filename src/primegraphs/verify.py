"""Registry of machine-checkable claims about degree graphs of simple
groups and the small regular-graph censuses, with a deterministic
pass/fail report.

Each claim is a pure function of the sweep bounds.  A failing claim
reports a concrete witness (a group spec or an edge list) sufficient to
reproduce it with run_one.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Callable

from .arithmetic import MAX_SUPPORTED, is_prime, prime_set
from .census import (
    GraphClass,
    class_from_edges,
    complete_class,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    is_vertex_transitive,
    max_dominating_in_induced,
    named,
    triangle_count,
)
from .groups import (
    Family,
    FourPrimeCase,
    GroupSpec,
    all_specs,
    bundled_table_names,
    canonical_key,
    character_degrees,
    classify_four_prime_psl2,
    degree_table,
    family_specs,
    group_order,
    prime_set_of_group,
)
from .prime_graph import PrimeGraph, graph_from_degrees, graph_of, product_graph, structural_graph


# The PSL2/PSL3/PSU3 sweeps sieve the primes up to the square root of their
# bound before the first group: about 1 s and 6 MiB at 10**12, gigabytes at
# 10**18.  The 63-bit range of `factor` caps the others: Suzuki parameters,
# powers of 2 that need no sieve, and PSL3 and PSU3 parameters, as
# q^2 + q + 1 or q^2 - q + 1 leaves that range for every prime power q
# above isqrt(MAX_SUPPORTED).
MAX_SIEVED_BOUND = 10**12
_CAPS = {
    "psl2_max": MAX_SIEVED_BOUND,
    "suzuki_max": MAX_SUPPORTED,
    "psl3_max": isqrt(MAX_SUPPORTED),
    "psu3_max": isqrt(MAX_SUPPORTED),
}


@dataclass(frozen=True)
class Bounds:
    psl2_max: int = 10**4
    suzuki_max: int = 2**15
    psl3_max: int = 200
    psu3_max: int = 200
    product_trials: int = 1000
    seed: int = 20260823

    def __post_init__(self) -> None:
        for name, cap in _CAPS.items():
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if value > cap:
                raise ValueError(f"{name} must be <= {cap}, got {value}")
        if self.product_trials < 0:
            raise ValueError(
                f"product_trials must be non-negative, got {self.product_trials}"
            )


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    checker: Callable[[Bounds], tuple[bool, str]]


@dataclass(frozen=True)
class ReportEntry:
    id: str
    status: str  # "pass" or "fail"
    detail: str
    elapsed: float


@dataclass(frozen=True)
class Report:
    entries: tuple[ReportEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def to_table(self) -> str:
        width = max(len(e.id) for e in self.entries)
        lines = [
            f"{e.id:<{width}}  {e.status:<4}  {e.detail}" for e in self.entries
        ]
        failed = sum(e.status == "fail" for e in self.entries)
        lines.append(f"{len(self.entries)} claims, {failed} failed")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "claims": [
                {"id": e.id, "status": e.status, "detail": e.detail}
                for e in self.entries
            ],
            "ok": self.ok,
        }
        return json.dumps(obj, separators=(", ", ": ")) + "\n"


_REGISTRY: dict[str, Claim] = {}


def _claim(id: str, description: str):
    def register(fn: Callable[[Bounds], tuple[bool, str]]) -> Claim:
        if id in _REGISTRY:
            raise ValueError(f"duplicate claim id {id}")
        c = Claim(id, description, fn)
        _REGISTRY[id] = c
        return c

    return register


# A sweep that reaches no item of its kind proves nothing, so it fails.
_VACUOUS = (False, "checked nothing: bounds too small")


# ---------------------------------------------------------------------------
# Sweeps over the group families.

@_claim(
    "regular-implies-complete",
    "every regular degree graph of an implemented simple group is complete",
)
def _check_regular_complete(b: Bounds) -> tuple[bool, str]:
    count = 0
    for spec in all_specs(b.psl2_max, b.suzuki_max, b.psl3_max, b.psu3_max):
        g = graph_of(spec)
        count += 1
        degrees = set(g.degree_sequence())
        if len(degrees) == 1 and degrees.pop() >= 1 and not g.is_complete():
            return False, f"witness: {spec} with edges {g.edges}"
    return True, f"{count} groups swept, no noncomplete regular graph"


@_claim(
    "structural-agreement",
    "structural and degree-set constructions agree on all of PSL2",
)
def _check_structural_agreement(b: Bounds) -> tuple[bool, str]:
    count = 0
    for spec in family_specs(Family.PSL2, b.psl2_max):
        if structural_graph(spec) != graph_from_degrees(character_degrees(spec)):
            return False, f"witness: {spec}"
        count += 1
    if not count:
        return _VACUOUS
    return True, f"{count} parameters checked"


@_claim(
    "pentagon-shapes",
    "five-prime PSL2 graphs inside the house or butterfly take one of "
    "three shapes",
)
def _check_pentagon_shapes(b: Bounds) -> tuple[bool, str]:
    house, butterfly = named("house"), named("butterfly")
    allowed = {
        named("pentagon-matching"),
        named("pentagon-paw"),
        named("pentagon-triangle"),
    }
    hits = 0
    for spec in family_specs(Family.PSL2, b.psl2_max):
        if len(prime_set_of_group(spec)) != 5:
            continue
        shape = graph_of(spec).shape()
        if not (
            contains_subgraph(house, shape) or contains_subgraph(butterfly, shape)
        ):
            continue
        hits += 1
        if shape not in allowed:
            return False, f"witness: {spec} with shape edges {shape.edges()}"
    if not hits:
        return _VACUOUS
    return True, f"{hits} matching groups, all of the three shapes"


_THREE_PRIME_CAP = 272


@_claim(
    "three-prime-groups",
    "the simple groups with exactly three prime divisors are the known "
    "seven, each divisible by 2 and 3",
)
def _check_three_prime(b: Bounds) -> tuple[bool, str]:
    expected = {"a5", "a6", "psl2_7", "psl2_8", "psl2_17", "psl3_3", "psu3_3"}
    found = set()
    # Every Lie-type order is at least q(q^2 - 1)/2, which reaches 10**7 at
    # q = 273, so no parameter past _THREE_PRIME_CAP can pass the filter.
    bounds = (b.psl2_max, b.suzuki_max, b.psl3_max, b.psu3_max)
    for spec in all_specs(*(min(m, _THREE_PRIME_CAP) for m in bounds)):
        if group_order(spec) >= 10**7:
            continue
        pi = prime_set_of_group(spec)
        if len(pi) == 3:
            if 2 not in pi or 3 not in pi:
                return False, f"witness: {spec} with primes {tuple(pi)}"
            found.add(canonical_key(spec))
    if found != expected:
        return False, f"found {sorted(found)}, expected {sorted(expected)}"
    return True, f"exactly {sorted(found)}"


@_claim(
    "four-prime-psl2-cases",
    "the four-prime PSL2 case detector is consistent with its definitions",
)
def _check_four_prime(b: Bounds) -> tuple[bool, str]:
    counts = {case: 0 for case in FourPrimeCase}
    for spec in family_specs(Family.PSL2, b.psl2_max):
        q = spec.parameter
        pi = prime_set_of_group(spec)
        if len(pi) != 4:
            continue
        case = classify_four_prime_psl2(spec)
        counts[case] += 1
        if case is FourPrimeCase.CASE_R and not (is_prime(q) and q == pi.max()):
            return False, f"witness: psl2 {q} misclassified as largest-prime case"
        if case is FourPrimeCase.CASE_MERSENNE and pi.max() != q - 1:
            return False, f"witness: psl2 {q} misclassified as Mersenne case"
    for q, want in ((11, FourPrimeCase.CASE_R), (32, FourPrimeCase.CASE_MERSENNE)):
        got = classify_four_prime_psl2(GroupSpec.psl2(q))
        if got is not want:
            return False, f"witness: psl2 {q} gave {got.value}, expected {want.value}"
    if not any(counts.values()):
        return _VACUOUS
    detail = ", ".join(f"{c.value}:{n}" for c, n in counts.items())
    return True, detail


# ---------------------------------------------------------------------------
# Census claims.

@_claim("order6-census", "exactly one 4-regular graph on 6 vertices: the octahedron")
def _check_order6(b: Bounds) -> tuple[bool, str]:
    census = enumerate_regular(6, 4)
    if len(census) != 1 or census.classes[0] != named("octahedron"):
        return False, f"census size {len(census)}"
    if triangle_count(census.classes[0]) != 8:
        return False, "octahedron triangle count wrong"
    return True, "|census(6,4)| = 1, 8 triangles"


@_claim(
    "order7-census",
    "exactly two 4-regular graphs on 7 vertices, with 7 and 6 triangles",
)
def _check_order7(b: Bounds) -> tuple[bool, str]:
    census = enumerate_regular(7, 4)
    triangles = sorted(triangle_count(g) for g in census)
    if len(census) != 2 or triangles != [6, 7]:
        return False, f"size {len(census)}, triangles {triangles}"
    if set(census.classes) != {named("quartic7-7tri"), named("quartic7-6tri")}:
        return False, "census classes do not match the catalog pair"
    return True, "|census(7,4)| = 2, triangles {6, 7}"


@_claim(
    "vertex-transitivity",
    "the 7-triangle order-7 graph is vertex-transitive; the 6-triangle one "
    "is not",
)
def _check_vertex_transitivity(b: Bounds) -> tuple[bool, str]:
    a = is_vertex_transitive(named("quartic7-7tri"))
    c = is_vertex_transitive(named("quartic7-6tri"))
    if not a or c:
        return False, f"7tri transitive: {a}, 6tri transitive: {c}"
    return True, "as expected"


@_claim("order8-k4-count", "exactly one 4-regular graph on 8 vertices contains K4")
def _check_order8_k4(b: Bounds) -> tuple[bool, str]:
    census = enumerate_regular(8, 4)
    if len(census) != 6:
        return False, f"census size {len(census)}"
    hits = [g for g in census if contains_clique(g, 4)]
    if len(hits) != 1 or hits[0] != named("quartic8-k4"):
        return False, f"{len(hits)} classes contain K4"
    return True, "1 of 6 classes, matching the catalog graph"


@_claim("order9-k4-count", "exactly two 4-regular graphs on 9 vertices contain K4")
def _check_order9_k4(b: Bounds) -> tuple[bool, str]:
    census = enumerate_regular(9, 4)
    if len(census) != 16:
        return False, f"census size {len(census)}"
    hits = {g for g in census if contains_clique(g, 4)}
    expected = {named("quartic9-k4-a"), named("quartic9-k4-b")}
    if hits != expected:
        return False, f"{len(hits)} classes contain K4"
    return True, "2 of 16 classes, matching the catalog pair"


@_claim("k4-free-small", "the 4-regular graphs on 6 and 7 vertices are K4-free")
def _check_k4_free(b: Bounds) -> tuple[bool, str]:
    for n in (6, 7):
        for g in enumerate_regular(n, 4):
            if contains_clique(g, 4):
                return False, f"witness: order-{n} class with edges {g.edges()}"
    return True, "no K4 on 6 or 7 vertices"


@_claim(
    "k5-closure",
    "a 4-regular graph on 5..9 vertices containing K5 is a disjoint union "
    "of K5's",
)
def _check_k5_closure(b: Bounds) -> tuple[bool, str]:
    k5 = complete_class(5)
    qualifying = 0
    for n in range(5, 10):
        for g in enumerate_regular(n, 4):
            if not contains_subgraph(g, k5):
                continue
            qualifying += 1
            if n % 5 or g != _disjoint_k5s(n // 5):
                return False, f"witness: order-{n} class with edges {g.edges()}"
    return True, f"{qualifying} class(es) contain K5, all unions of K5's"


def _disjoint_k5s(copies: int) -> GraphClass:
    edges = []
    for c in range(copies):
        base = 5 * c
        edges += [(base + i, base + j) for i in range(5) for j in range(i + 1, 5)]
    return class_from_edges(5 * copies, edges)


@_claim(
    "dominating-bounds",
    "induced five-vertex subgraphs of the named 4-regular graphs have the "
    "stated maximal number of dominating vertices",
)
def _check_dominating(b: Bounds) -> tuple[bool, str]:
    expected = {
        "quartic7-7tri": 1,
        "quartic7-6tri": 2,
        "quartic8-k4": 1,
        "quartic9-k4-b": 1,
        "octahedron": 1,
    }
    for name, want in expected.items():
        got = max_dominating_in_induced(named(name), 5)
        if got != want:
            return False, f"witness: {name} gives {got}, expected {want}"
    if not contains_subgraph(named("quartic9-k4-a"), named("k5-minus-cherry")):
        return False, "order-9 class (a) lacks the two-dominating-vertex subgraph"
    return True, "all five bounds hold, plus the order-9 embedding"


# ---------------------------------------------------------------------------
# Graph-theoretic predicates.

@_claim(
    "palfy-oracle",
    "the three-vertices-span-an-edge condition equals complement "
    "triangle-freeness on all census graphs up to 8 vertices",
)
def _check_palfy(b: Bounds) -> tuple[bool, str]:
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    checked = 0
    for n in range(3, 9):
        for k in range(0, n):
            for g in enumerate_regular(n, k):
                pg = PrimeGraph(
                    primes[:n],
                    [(primes[i], primes[j]) for i, j in g.edges()],
                )
                complement = PrimeGraph(
                    primes[:n],
                    [e for e in combinations(primes[:n], 2) if not pg.has_edge(*e)],
                )
                if pg.palfy_condition() == contains_clique(complement, 3):
                    return False, f"witness: edges {g.edges()}"
                checked += 1
    return True, f"{checked} graphs checked"


@_claim(
    "product-join-bound",
    "a product with a clique-spanning second factor has at least as many "
    "complete vertices as that factor has vertices",
)
def _check_product_join(b: Bounds) -> tuple[bool, str]:
    if not b.product_trials:
        return _VACUOUS
    rng = random.Random(b.seed)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for trial in range(b.product_trials):
        a_verts = rng.sample(pool, rng.randint(1, 6))
        a_edges = [
            e for e in combinations(sorted(a_verts), 2) if rng.random() < 0.4
        ]
        a = PrimeGraph(a_verts, a_edges)
        shared = rng.sample(a_verts, rng.randint(0, len(a_verts)))
        fresh = rng.sample(
            [p for p in pool if p not in a_verts], rng.randint(1, 3)
        )
        b_verts = sorted(shared + fresh)
        b_edges = [(p, q) for p, q in combinations(sorted(fresh), 2)]
        b_edges += [
            (p, q)
            for p in shared
            for q in b_verts
            if p < q and rng.random() < 0.5
        ]
        bg = PrimeGraph(b_verts, b_edges)
        prod = product_graph(a, bg)
        if len(prod.complete_vertices()) < len(bg.vertices):
            return False, (
                f"witness: a = {a.edges} on {tuple(a.vertices)}, "
                f"b = {bg.edges} on {tuple(bg.vertices)}"
            )
    return True, f"{b.product_trials} randomized trials"


# ---------------------------------------------------------------------------
# Data integrity.

@_claim("table-integrity", "every bundled degree table passes its order check")
def _check_tables(b: Bounds) -> tuple[bool, str]:
    names = bundled_table_names()  # loading each table checks its order
    return True, f"{len(names)} tables: {', '.join(names)}"


@_claim(
    "j1-data",
    "the first Janko group: degree set, and every maximal-subgroup index "
    "divisible by 2 or 19",
)
def _check_j1_data(b: Bounds) -> tuple[bool, str]:
    table = degree_table("j1")
    degrees = tuple(table.degree_set)
    if degrees != (1, 56, 76, 77, 120, 133, 209):
        return False, f"degree set {degrees}"
    indices = table.maximal_indices
    if indices != (266, 1045, 1463, 1540, 1596, 2926, 4180):
        return False, f"maximal indices {indices}"
    for idx in indices:
        if idx % 2 and idx % 19:
            return False, f"witness: index {idx} avoids both 2 and 19"
    return True, "7 maximal indices, each divisible by 2 or 19"


@_claim(
    "sz8-data",
    "the smallest Suzuki group: maximal-subgroup index prime sets and "
    "projective character degree factors",
)
def _check_sz8_data(b: Bounds) -> tuple[bool, str]:
    table = degree_table("sz8")
    if table.maximal_indices != (65, 560, 1456, 2080):
        return False, f"maximal indices {table.maximal_indices}"
    index_primes = [tuple(prime_set(i)) for i in table.maximal_indices]
    expected = [(5, 13), (2, 5, 7), (2, 7, 13), (2, 5, 13)]
    if index_primes != expected:
        return False, f"index prime sets {index_primes}"
    if table.projective_factors != (40, 56, 64, 104):
        return False, f"projective factors {table.projective_factors}"
    return True, "index prime sets and projective factors as expected"


@_claim(
    "j1-graph-degrees",
    "vertex degrees of the first Janko group's graph",
)
def _check_j1_degrees(b: Bounds) -> tuple[bool, str]:
    g = graph_of(GroupSpec.sporadic("j1"))
    want = {2: 4, 7: 3, 19: 3, 3: 2, 5: 2, 11: 2}
    got = {p: g.degree(p) for p in g.vertices}
    if got != want:
        return False, f"degrees {got}"
    return True, "deg(2)=4, deg(7)=deg(19)=3, deg(3)=deg(5)=deg(11)=2"


@_claim(
    "m11-graph-degrees",
    "vertex degrees of the smallest Mathieu group's graph",
)
def _check_m11_degrees(b: Bounds) -> tuple[bool, str]:
    g = graph_of(GroupSpec.sporadic("m11"))
    want = {2: 2, 11: 2, 5: 3, 3: 1}
    got = {p: g.degree(p) for p in g.vertices}
    if got != want:
        return False, f"degrees {got}"
    return True, "deg(2)=deg(11)=2, deg(5)=3, deg(3)=1"


# ---------------------------------------------------------------------------
# Runner.

def claim_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_one(id: str, bounds: Bounds = Bounds()) -> ReportEntry:
    if id not in _REGISTRY:
        raise KeyError(f"unknown claim {id!r}")
    claim = _REGISTRY[id]
    start = time.perf_counter()
    try:
        ok, detail = claim.checker(bounds)
    except Exception as exc:
        # A crashing claim is a failed claim, not a usage error.
        ok, detail = False, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return ReportEntry(id, "pass" if ok else "fail", detail, elapsed)


def run_all(bounds: Bounds = Bounds()) -> Report:
    return Report(tuple(run_one(id, bounds) for id in _REGISTRY))
