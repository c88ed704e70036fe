"""Registry of machine-checkable claims about degree graphs of simple
groups and the small regular-graph censuses, with a deterministic
pass/fail report.

A claim is a pure function of the sweep bounds, registered under its id
with `@_claim(id)`; its docstring states the claim.  A failing claim
reports a concrete witness (a group spec or an edge list) sufficient to
reproduce it with run_one.  A sweep ends through `_swept`, which fails it
when it reached no item of its kind.
"""

from __future__ import annotations

import operator
import random
import time
from typing import Callable

from .arithmetic import Frozen, PrimeSet, is_prime, prime_set
from .census import (
    GraphClass,
    Rows,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    is_vertex_transitive,
    max_dominating_in_induced,
    named,
    triangle_count,
)
from .groups import (
    LIE_FAMILIES,
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


class Bounds(Frozen):
    """The sweep bounds: integers, each a keyword of the constructor."""

    # Each bound and its default: the one declaration that the constructor,
    # the repr and the `verify` flags (`cli._BOUND_FLAGS`) read.
    DEFAULTS = {
        "psl2_max": 10**4,
        "suzuki_max": 2**15,
        "psl3_max": 200,
        "psu3_max": 200,
        "product_trials": 1000,
        "seed": 20260823,
    }
    _fields = tuple(DEFAULTS)

    def __init__(self, **given: int) -> None:
        fields = vars(self)
        fields.update(self.DEFAULTS)
        for name, bound in given.items():
            if name not in self.DEFAULTS:
                raise TypeError(f"Bounds got an unexpected argument {name!r}")
            fields[name] = operator.index(bound)
        # Each family's sweep bound is capped by its record (LIE_FAMILIES).
        for lie in LIE_FAMILIES.values():
            value = getattr(self, name := f"{lie.family.value}_max")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if value > lie.cap:
                raise ValueError(f"{name} must be <= {lie.cap}, got {value}")
        if self.product_trials < 0:
            raise ValueError(
                f"product_trials must be non-negative, got {self.product_trials}"
            )


class ReportEntry(Frozen):
    id: str
    status: str  # "pass" or "fail"
    detail: str
    elapsed: float
    _fields = ("id", "status", "detail", "elapsed")


class Report(Frozen):
    entries: tuple[ReportEntry, ...]
    _fields = ("entries",)

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
        import json  # here, so that a launch that writes no JSON never loads it

        obj = {
            "claims": [
                {"id": e.id, "status": e.status, "detail": e.detail}
                for e in self.entries
            ],
            "ok": self.ok,
        }
        return json.dumps(obj, separators=(", ", ": ")) + "\n"


Checker = Callable[[Bounds], tuple[bool, str]]

_REGISTRY: dict[str, Checker] = {}


def _claim(id: str) -> Callable[[Checker], Checker]:
    """Register the decorated checker under `id`, in order, and return it."""
    def register(fn: Checker) -> Checker:
        if id in _REGISTRY:
            raise ValueError(f"duplicate claim id {id}")
        _REGISTRY[id] = fn
        return fn

    return register


def _swept(items: int, detail: str) -> tuple[bool, str]:
    """End a sweep that found no witness: it passes with `detail`, unless it
    reached no item of its kind, which proves nothing."""
    if not items:
        return False, "checked nothing: bounds too small"
    return True, detail


# ---------------------------------------------------------------------------
# Sweeps over the group families.

@_claim("regular-implies-complete")
def _check_regular_complete(b: Bounds) -> tuple[bool, str]:
    """every regular degree graph of a group in the swept families is
    complete

    The sweep covers the families up to the bounds (PSL2(q) for q <=
    psl2_max, Sz(q) for q <= suzuki_max, PSL3(q) for q <= psl3_max, PSU3(q)
    for q <= psu3_max) and the alternating and sporadic groups of the
    bundled tables, not every simple group."""
    count = 0
    for spec in all_specs(b.psl2_max, b.suzuki_max, b.psl3_max, b.psu3_max):
        g = graph_of(spec)
        count += 1
        # regular of degree d with 0 < d < n - 1; no graph on 0 or 1
        # vertices is a witness
        rows = g.rows
        d = rows[0].bit_count() if rows else 0
        if 0 < d < g.n - 1 and all(row.bit_count() == d for row in rows):
            return False, f"witness: {spec} with edges {g.edges}"
    return True, f"{count} groups swept, no noncomplete regular graph"


@_claim("structural-agreement")
def _check_structural_agreement(b: Bounds) -> tuple[bool, str]:
    """structural and degree-set constructions agree on PSL2(q) for every
    q <= psl2_max"""
    count = 0
    for spec in family_specs(Family.PSL2, b.psl2_max):
        if structural_graph(spec) != graph_from_degrees(character_degrees(spec)):
            return False, f"witness: {spec}"
        count += 1
    return _swept(count, f"{count} parameters checked")


@_claim("pentagon-shapes")
def _check_pentagon_shapes(b: Bounds) -> tuple[bool, str]:
    """five-prime PSL2(q) graphs inside the house or butterfly take one of
    three shapes, for every q <= psl2_max"""
    house, butterfly = named("house"), named("butterfly")
    allowed = {
        named("pentagon-matching"),
        named("pentagon-paw"),
        named("pentagon-triangle"),
    }
    # The five-prime graphs repeat a handful of labeled row patterns (9
    # patterns of 3 shapes, both at 10**4 and at 3 * 10**4), so each
    # pattern's shape and house/butterfly verdict is decided once per call,
    # keyed on the rows that `shape()` would canonicalize.
    decided: dict[Rows, tuple[GraphClass, bool]] = {}
    hits = 0
    for spec in family_specs(Family.PSL2, b.psl2_max):
        if len(prime_set_of_group(spec)) != 5:
            continue
        g = graph_of(spec)
        verdict = decided.get(g.rows)
        if verdict is None:
            shape = g.shape()
            inside = any(contains_subgraph(h, shape) for h in (house, butterfly))
            verdict = decided[g.rows] = shape, inside
        shape, inside = verdict
        if not inside:
            continue
        hits += 1
        if shape not in allowed:
            return False, f"witness: {spec} with shape edges {shape.edges()}"
    return _swept(hits, f"{hits} matching groups, all of the three shapes")


_THREE_PRIME_CAP = 272


@_claim("three-prime-groups")
def _check_three_prime(b: Bounds) -> tuple[bool, str]:
    """the simple groups with exactly three prime divisors are the known seven,
    each divisible by 2 and 3

    Herzog's classification (J. Algebra 10, 1968) lists eight: these seven
    and U4(2), isomorphic to PSp4(3), of order 25 920 = 2^6 * 3^4 * 5,
    which lies in none of the swept families, so the sweep can confirm
    only the seven."""
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


@_claim("four-prime-psl2-cases")
def _check_four_prime(b: Bounds) -> tuple[bool, str]:
    """the four-prime PSL2 case detector is consistent with its definitions
    on PSL2(q) for every q <= psl2_max, and on the anchors q = 11 and 32"""
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
    detail = ", ".join(f"{c.value}:{n}" for c, n in counts.items())
    return _swept(sum(counts.values()), detail)


# ---------------------------------------------------------------------------
# Census claims.

@_claim("order6-census")
def _check_order6(b: Bounds) -> tuple[bool, str]:
    """exactly one 4-regular graph on 6 vertices: the octahedron"""
    census = enumerate_regular(6, 4)
    if len(census) != 1 or census.classes[0] != named("octahedron"):
        return False, f"census size {len(census)}"
    if triangle_count(census.classes[0]) != 8:
        return False, "octahedron triangle count wrong"
    return True, "|census(6,4)| = 1, 8 triangles"


@_claim("order7-census")
def _check_order7(b: Bounds) -> tuple[bool, str]:
    """exactly two 4-regular graphs on 7 vertices, with 7 and 6 triangles"""
    census = enumerate_regular(7, 4)
    triangles = sorted(triangle_count(g) for g in census)
    if len(census) != 2 or triangles != [6, 7]:
        return False, f"size {len(census)}, triangles {triangles}"
    if set(census.classes) != {named("quartic7-7tri"), named("quartic7-6tri")}:
        return False, "census classes do not match the catalog pair"
    return True, "|census(7,4)| = 2, triangles {6, 7}"


@_claim("vertex-transitivity")
def _check_vertex_transitivity(b: Bounds) -> tuple[bool, str]:
    """the 7-triangle order-7 graph is vertex-transitive; the 6-triangle one is
    not"""
    a = is_vertex_transitive(named("quartic7-7tri"))
    c = is_vertex_transitive(named("quartic7-6tri"))
    if not a or c:
        return False, f"7tri transitive: {a}, 6tri transitive: {c}"
    return True, "as expected"


@_claim("order8-k4-count")
def _check_order8_k4(b: Bounds) -> tuple[bool, str]:
    """exactly one 4-regular graph on 8 vertices contains K4"""
    census = enumerate_regular(8, 4)
    if len(census) != 6:
        return False, f"census size {len(census)}"
    hits = [g for g in census if contains_clique(g, 4)]
    if len(hits) != 1 or hits[0] != named("quartic8-k4"):
        return False, f"{len(hits)} classes contain K4"
    return True, "1 of 6 classes, matching the catalog graph"


@_claim("order9-k4-count")
def _check_order9_k4(b: Bounds) -> tuple[bool, str]:
    """exactly two 4-regular graphs on 9 vertices contain K4"""
    census = enumerate_regular(9, 4)
    if len(census) != 16:
        return False, f"census size {len(census)}"
    hits = {g for g in census if contains_clique(g, 4)}
    expected = {named("quartic9-k4-a"), named("quartic9-k4-b")}
    if hits != expected:
        return False, f"{len(hits)} classes contain K4"
    return True, "2 of 16 classes, matching the catalog pair"


@_claim("k4-free-small")
def _check_k4_free(b: Bounds) -> tuple[bool, str]:
    """the 4-regular graphs on 6 and 7 vertices are K4-free"""
    for n in (6, 7):
        for g in enumerate_regular(n, 4):
            if contains_clique(g, 4):
                return False, f"witness: order-{n} class with edges {g.edges()}"
    return True, "no K4 on 6 or 7 vertices"


@_claim("k5-closure")
def _check_k5_closure(b: Bounds) -> tuple[bool, str]:
    """a 4-regular graph on 5..9 vertices containing K5 is a disjoint union of
    K5's"""
    qualifying = 0
    for n in range(5, 10):
        for g in enumerate_regular(n, 4):
            if not contains_clique(g, 5):
                continue
            qualifying += 1
            # Adjacent vertices share their closed neighbourhood exactly
            # when every component is a clique, in a 4-regular graph a K5.
            closed = [row | 1 << v for v, row in enumerate(g.rows)]
            if any(closed[u] != closed[v] for u, v in g.edges()):
                return False, f"witness: order-{n} class with edges {g.edges()}"
    return True, f"{qualifying} class(es) contain K5, all unions of K5's"


@_claim("dominating-bounds")
def _check_dominating(b: Bounds) -> tuple[bool, str]:
    """induced five-vertex subgraphs of the named 4-regular graphs have the
    stated maximal number of dominating vertices"""
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

@_claim("palfy-oracle")
def _check_palfy(b: Bounds) -> tuple[bool, str]:
    """the three-vertices-span-an-edge condition equals complement
    triangle-freeness on the census graphs on 3 to 8 vertices"""
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    checked = 0
    for n in range(3, 9):
        full = (1 << n) - 1
        for k in range(0, n):
            for g in enumerate_regular(n, k):
                pg = PrimeGraph._known(PrimeSet._known(primes[:n]), g.rows)
                complement = GraphClass._known(
                    tuple(full ^ r ^ 1 << v for v, r in enumerate(g.rows))
                )
                if pg.palfy_condition() == contains_clique(complement, 3):
                    return False, f"witness: edges {g.edges()}"
                checked += 1
    return True, f"{checked} graphs checked"


@_claim("product-join-bound")
def _check_product_join(b: Bounds) -> tuple[bool, str]:
    """a product with a clique-spanning second factor has at least as many
    complete vertices as that factor has vertices, over product_trials
    random pairs of graphs on the primes up to 29: the first factor is a
    random graph on 1 to 6 primes; the second is a clique on 1 to 3 primes
    outside the first, plus random edges from each prime it shares with the
    first to the larger vertices of the second only"""
    rng = random.Random(b.seed)
    pool = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for trial in range(b.product_trials):
        # Each factor is drawn straight into rows over its sorted vertices.
        # The draw order is part of the claim's output (the seed fixes the
        # trials): a draws its pairs i < j in `combinations` order, b draws
        # each shared prime, in sample order, against every larger vertex.
        a_verts = rng.sample(pool, rng.randint(1, 6))
        na = len(a_verts)
        rows = [0] * na
        for i in range(na):
            for j in range(i + 1, na):
                if rng.random() < 0.4:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        a = PrimeGraph._known(PrimeSet._known(a_verts), tuple(rows))
        shared = rng.sample(a_verts, rng.randint(0, len(a_verts)))
        fresh = rng.sample(
            [p for p in pool if p not in a_verts], rng.randint(1, 3)
        )
        b_verts = sorted(shared + fresh)
        nb = len(b_verts)
        index = dict(zip(b_verts, range(nb)))
        clique = 0
        for p in fresh:
            clique |= 1 << index[p]
        rows = [0] * nb
        for p in fresh:
            i = index[p]
            rows[i] = clique ^ 1 << i
        for p in shared:
            i = index[p]
            for j in range(i + 1, nb):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        bg = PrimeGraph._known(PrimeSet._known(b_verts), tuple(rows))
        prod = product_graph(a, bg)
        if len(prod.complete_vertices()) < len(bg.vertices):
            return False, (
                f"witness: a = {a.edges} on {tuple(a.vertices)}, "
                f"b = {bg.edges} on {tuple(bg.vertices)}"
            )
    return _swept(b.product_trials, f"{b.product_trials} randomized trials")


# ---------------------------------------------------------------------------
# Data integrity.

@_claim("table-integrity")
def _check_tables(b: Bounds) -> tuple[bool, str]:
    """every bundled degree table passes its order check"""
    names = bundled_table_names()  # loading each table checks its order
    return True, f"{len(names)} tables: {', '.join(names)}"


@_claim("j1-data")
def _check_j1_data(b: Bounds) -> tuple[bool, str]:
    """the first Janko group: degree set, and every maximal-subgroup index
    divisible by 2 or 19"""
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


@_claim("sz8-data")
def _check_sz8_data(b: Bounds) -> tuple[bool, str]:
    """the smallest Suzuki group: maximal-subgroup index prime sets and
    projective character degree factors"""
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


def _vertex_degrees(name: str, want: dict[int, int], detail: str) -> tuple[bool, str]:
    """Pass with `detail` when the sporadic group `name`'s graph has exactly
    the vertex degrees `want`."""
    g = graph_of(GroupSpec.sporadic(name))
    got = {p: g.degree(p) for p in g.vertices}
    if got != want:
        return False, f"degrees {got}"
    return True, detail


@_claim("j1-graph-degrees")
def _check_j1_degrees(b: Bounds) -> tuple[bool, str]:
    """vertex degrees of the first Janko group's graph"""
    want = {2: 4, 7: 3, 19: 3, 3: 2, 5: 2, 11: 2}
    return _vertex_degrees("j1", want, "deg(2)=4, deg(7)=deg(19)=3, deg(3)=deg(5)=deg(11)=2")


@_claim("m11-graph-degrees")
def _check_m11_degrees(b: Bounds) -> tuple[bool, str]:
    """vertex degrees of the smallest Mathieu group's graph"""
    want = {2: 2, 11: 2, 5: 3, 3: 1}
    return _vertex_degrees("m11", want, "deg(2)=deg(11)=2, deg(5)=3, deg(3)=1")


# ---------------------------------------------------------------------------
# Runner.

def claim_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_one(id: str, bounds: Bounds = Bounds()) -> ReportEntry:
    if id not in _REGISTRY:
        raise KeyError(f"unknown claim {id!r}")
    start = time.perf_counter()
    try:
        ok, detail = _REGISTRY[id](bounds)
    except Exception as exc:
        # A crashing claim is a failed claim, not a usage error.
        ok, detail = False, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return ReportEntry(id, "pass" if ok else "fail", detail, elapsed)


def run_all(bounds: Bounds = Bounds()) -> Report:
    return Report(tuple(run_one(id, bounds) for id in _REGISTRY))
