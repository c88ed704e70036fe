"""Degree graphs on prime vertices.

A PrimeGraph is the graph whose vertices are the primes dividing some
character degree of a group, with p adjacent to q exactly when pq divides
some degree.  Graphs can be built from a degree set, or directly from the
known structure of each simple-group family; the two constructions are
cross-checked in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .arithmetic import PrimeSet, prime_set
from .groups import (
    DegreeSet,
    Family,
    GroupSpec,
    UnsupportedFamilyError,
    canonical_key,
    character_degrees,
    degree_table,
    prime_set_of_group,
)


def _normalize_edge(p: int, q: int) -> tuple[int, int]:
    if p == q:
        raise ValueError("loops are not allowed")
    return (p, q) if p < q else (q, p)


@dataclass(frozen=True)
class PrimeGraph:
    """Immutable simple graph on a sorted set of primes."""

    vertices: PrimeSet
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices, edges=()) -> None:
        vs = vertices if isinstance(vertices, PrimeSet) else PrimeSet(vertices)
        es = sorted({_normalize_edge(p, q) for p, q in edges})
        for p, q in es:
            if p not in vs or q not in vs:
                raise ValueError(f"edge {p}-{q} uses a vertex outside the graph")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(es))

    # -- basic queries ----------------------------------------------------

    def has_edge(self, p: int, q: int) -> bool:
        return _normalize_edge(p, q) in self.edges

    def neighbors(self, p: int) -> PrimeSet:
        return PrimeSet._known(
            (b if a == p else a) for a, b in self.edges if p in (a, b)
        )

    def degree(self, p: int) -> int:
        if p not in self.vertices:
            raise ValueError(f"{p} is not a vertex")
        return sum(1 for e in self.edges if p in e)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((self.degree(p) for p in self.vertices), reverse=True))

    def is_k_regular(self, k: int) -> bool:
        return all(self.degree(p) == k for p in self.vertices)

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def complete_vertices(self) -> PrimeSet:
        """Vertices adjacent to everything else in their component.

        Isolated vertices do not count (except in a one-vertex graph, which
        is complete): a complete vertex is one dominating a nontrivial part
        of the graph.
        """
        if len(self.vertices) == 1:
            return self.vertices
        out = []
        for comp in self.connected_components():
            if len(comp) < 2:
                continue
            out += [p for p in comp if self.degree(p) == len(comp) - 1]
        return PrimeSet._known(out)

    def connected_components(self) -> tuple[PrimeSet, ...]:
        remaining = set(self.vertices)
        components = []
        while remaining:
            seed = min(remaining)
            seen = {seed}
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            remaining -= seen
            components.append(PrimeSet._known(seen))
        return tuple(sorted(components, key=lambda c: min(c)))

    def contains_clique(self, k: int) -> bool:
        if k <= 1:
            return k == 0 or len(self.vertices) >= 1
        candidates = [p for p in self.vertices if self.degree(p) >= k - 1]
        for combo in combinations(candidates, k):
            if all(self.has_edge(p, q) for p, q in combinations(combo, 2)):
                return True
        return False

    def is_clique_free(self, k: int) -> bool:
        return not self.contains_clique(k)

    def palfy_condition(self) -> bool:
        """Every three vertices span at least one edge (complement is
        triangle-free)."""
        return all(
            any(self.has_edge(p, q) for p, q in combinations(triple, 2))
            for triple in combinations(tuple(self.vertices), 3)
        )

    # -- serialization ----------------------------------------------------

    def to_dot(self) -> str:
        lines = ["graph {"]
        lines += [f"  {p};" for p in self.vertices]
        lines += [f"  {p} -- {q};" for p, q in self.edges]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(obj, separators=(", ", ": ")) + "\n"

    def to_edgelist(self) -> str:
        lines = [f"{p}" for p in self.vertices if self.degree(p) == 0]
        lines += [f"{p} {q}" for p, q in self.edges]
        return "\n".join(lines) + "\n" if lines else "\n"


def graph_from_degrees(cd: DegreeSet) -> PrimeGraph:
    """Edge p-q iff pq divides some degree."""
    vertices = PrimeSet()
    edges = set()
    for d in cd:
        ps = prime_set(d)
        vertices |= ps
        edges.update(combinations(tuple(ps), 2))
    return PrimeGraph(vertices, edges)


def _complete(vertices: PrimeSet) -> PrimeGraph:
    return PrimeGraph(vertices, combinations(tuple(vertices), 2))


def _is_2a3b(n: int, require_even: bool) -> bool:
    # n = 2**i * 3**j with i >= 1 when require_even, else i, j >= 0.
    if require_even and n % 2:
        return False
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def structural_graph(spec: GroupSpec) -> PrimeGraph:
    """Build the degree graph of a Lie-type group from its known shape
    rather than from a degree list.

    Suzuki (parameter q^2): the odd primes form a clique and 2 is adjacent
    to exactly the primes of q^2-1.  PSL3(q): complete when q-1 = 2^i 3^j
    (i >= 1); otherwise the primes of (q-1)(q+1)(q^2+q+1) form a clique and
    the defining prime p is adjacent to the primes of q+1 or q^2+q+1.
    PSU3(q): the mirror image, with q+1 = 2^i 3^j (i, j >= 0) complete and
    p adjacent to the primes of q-1 or q^2-q+1.  PSL2(q): p is isolated;
    for odd q, 2 is joined to all other primes and odd primes are adjacent
    iff both divide q-1 or both divide q+1; for even q the primes of q-1
    and of q+1 form two separate cliques.
    """
    fam, q = spec.family, spec.parameter
    if fam in (Family.SPORADIC, Family.ALTERNATING):
        raise UnsupportedFamilyError(
            f"{spec} has no structural rule; build from its degree table"
        )
    assert q is not None

    if fam is Family.SUZUKI:
        odd = prime_set(q - 1) | prime_set(q * q + 1)
        edges = set(combinations(tuple(odd), 2))
        edges.update((2, r) for r in prime_set(q - 1))
        return PrimeGraph(prime_set(q) | odd, edges)  # q is a power of 2

    if fam is Family.PSL3 or fam is Family.PSU3:
        key = canonical_key(spec)
        if key == "psl2_7":
            return structural_graph(GroupSpec.psl2(7))
        if fam is Family.PSL3 and q == 4:
            # PSL3(4) is the one member the generic rule gets wrong.
            return graph_from_degrees(degree_table("psl3_4").degree_set())
        pi = prime_set_of_group(spec)
        if fam is Family.PSL3:
            cyclotomic = _is_2a3b(q - 1, require_even=True)
            torus = (q + 1) * (q * q + q + 1)
        else:
            cyclotomic = _is_2a3b(q + 1, require_even=False)
            torus = (q - 1) * (q * q - q + 1)
        if cyclotomic:
            return _complete(pi)
        defining = prime_set(q)
        edges = set(combinations(tuple(pi - defining), 2))
        edges.update((p, r) for p in defining for r in prime_set(torus))
        return PrimeGraph(pi, edges)

    # PSL2.  The three smallest members coincide with alternating groups
    # whose degree graphs the generic rules do not cover.
    if q in (4, 5, 9):
        return graph_from_degrees(character_degrees(spec))
    vertices = prime_set(q) | prime_set(q - 1) | prime_set(q + 1)
    edges: set[tuple[int, int]] = set()
    for side in (q - 1, q + 1):
        edges.update(combinations(tuple(prime_set(side)), 2))
    return PrimeGraph(vertices, edges)


def graph_of(spec: GroupSpec) -> PrimeGraph:
    """The degree graph, from degrees where a degree set exists and from
    the structural rule otherwise."""
    try:
        return graph_from_degrees(character_degrees(spec))
    except UnsupportedFamilyError:
        return structural_graph(spec)


def product_graph(a: PrimeGraph, b: PrimeGraph) -> PrimeGraph:
    """Degree graph of a direct product: degrees multiply, so both edge
    sets survive and every cross pair becomes an edge."""
    vertices = a.vertices | b.vertices
    edges = set(a.edges) | set(b.edges)
    edges.update(
        _normalize_edge(p, q) for p in a.vertices for q in b.vertices if p != q
    )
    return PrimeGraph(vertices, edges)
