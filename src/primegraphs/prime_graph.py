"""Degree graphs on prime vertices.

A PrimeGraph is the graph whose vertices are the primes dividing some
character degree of a group, with p adjacent to q exactly when pq divides
some degree.  It holds prime labels over the census graph core, bitmask
rows, so its queries are bit operations and the census predicates take it
as it is.  Graphs can be built from a degree set, or directly from the
known structure of each Lie-type family, White's rule, which lives on the
family's record in the groups module; the two constructions are
cross-checked in the tests.

Both are unions of cliques: a degree graph is the union of one clique on
the primes of each degree, and each of White's structural rules is a union
of two or three cliques.  So `PrimeGraph(vertices, cliques)` is the one
public constructor: it checks the cliques against the vertices and ORs each
clique's bit mask, less the member's own bit, into its members' rows, with
no edge list in between, and an edge is a clique of two.  `structural_graph`
builds through it, so White's rules are checked as they run.  Where the rows
are well formed by construction, the module builds them with bit operations
and returns through the unchecked `PrimeGraph._known(vertices, rows)`:
`graph_from_degrees`, whose cliques are the distinct primes of each degree's
factorization and whose vertices are their union, and `product_graph`,
which ORs the rows of its factors rather than listing every cross pair.
Two claims in the verify module do the same with rows they build
themselves: `product-join-bound` draws its random factors straight into
rows, and `palfy-oracle` labels each census graph's vertices with primes.
"""

from __future__ import annotations

from itertools import combinations

from .arithmetic import Frozen, PrimeSet
from .census import GraphClass, Rows, canonicalize, edges_from_rows
from .groups import (
    DegreeSet,
    GroupSpec,
    UnsupportedFamilyError,
    character_degrees,
    prime_set_of_group,
)


class PrimeGraph(Frozen):
    """Immutable simple graph on a sorted set of primes; bit j of rows[i]
    is set iff the i-th and j-th smallest primes are adjacent.

    Built as the union of complete graphs on `cliques`, collections of
    vertices that each hold a prime at most once; an edge (p, q) is a
    clique of two, and a clique of one adds no edge."""

    vertices: PrimeSet
    rows: Rows
    _fields = ("vertices", "rows")

    def __init__(self, vertices, cliques=()) -> None:
        vs = vertices if vertices.__class__ is PrimeSet else PrimeSet(vertices)
        bit = {p: 1 << i for i, p in enumerate(vs.primes)}
        rows = dict.fromkeys(vs.primes, 0)
        try:
            for c in cliques:
                mask = 0
                for p in c:
                    mask |= bit[p]
                if mask.bit_count() != len(c):
                    raise ValueError(f"clique {tuple(c)} repeats a prime")
                for p in c:
                    rows[p] |= mask ^ bit[p]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a vertex") from None
        fields = self.__dict__
        fields["vertices"] = vs
        fields["rows"] = tuple(rows.values())

    @classmethod
    def _known(cls, vertices: PrimeSet, rows: Rows) -> "PrimeGraph":
        """A graph whose rows are well formed on `vertices` by
        construction, symmetric and loop-free, as `graph_from_degrees`,
        `product_graph` and the `product-join-bound` and `palfy-oracle`
        claims build them: nothing is checked."""
        g = object.__new__(cls)
        fields = g.__dict__
        fields["vertices"] = vertices
        fields["rows"] = rows
        return g

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.rows == other.rows and self.vertices == other.vertices
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.rows))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        ps = self.vertices.primes
        return tuple((ps[i], ps[j]) for i, j in edges_from_rows(self.rows))

    def degree(self, p: int) -> int:
        if p not in self.vertices:
            raise ValueError(f"{p} is not a vertex")
        return self.rows[self.vertices.primes.index(p)].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """The degree sequence, largest first."""
        return tuple(sorted((row.bit_count() for row in self.rows), reverse=True))

    def is_complete(self) -> bool:
        return all(row.bit_count() == self.n - 1 for row in self.rows)

    def _primes_of(self, mask: int) -> PrimeSet:
        return PrimeSet._known(p for i, p in enumerate(self.vertices) if mask >> i & 1)

    def _component_masks(self) -> list[int]:
        # Grown from the lowest remaining vertex, so ordered by smallest
        # prime; each round reads only the rows of the vertices it reached.
        rows = self.rows
        masks, remaining = [], (1 << self.n) - 1
        while remaining:
            comp = frontier = remaining & -remaining
            while frontier:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    reached |= rows[low.bit_length() - 1]
                    frontier ^= low
                frontier = reached & ~comp
                comp |= frontier
            remaining ^= comp
            masks.append(comp)
        return masks

    def connected_components(self) -> tuple[PrimeSet, ...]:
        return tuple(self._primes_of(comp) for comp in self._component_masks())

    def complete_vertices(self) -> PrimeSet:
        """Vertices adjacent to everything else in their component.

        Isolated vertices do not count (except in a one-vertex graph, which
        is complete): a complete vertex is one dominating a nontrivial part
        of the graph.
        """
        if self.n == 1:
            return self.vertices
        comps = set(self._component_masks())
        ps = self.vertices.primes
        return PrimeSet._known(
            [ps[i] for i, row in enumerate(self.rows) if row and (row | 1 << i) in comps]
        )

    def palfy_condition(self) -> bool:
        """Every three vertices span at least one edge (complement is
        triangle-free).  A plain scan over vertex triples, kept apart from
        the census clique search that the palfy-oracle claim compares it
        with."""
        r = self.rows
        return all(
            r[a] >> b & 1 or r[a] >> c & 1 or r[b] >> c & 1
            for a, b, c in combinations(range(self.n), 3)
        )

    def shape(self) -> GraphClass:
        """The isomorphism class of the graph, prime labels dropped."""
        return canonicalize(self.rows)

    # -- serialization ----------------------------------------------------

    def to_dot(self) -> str:
        lines = ["graph {"]
        lines += [f"  {p};" for p in self.vertices]
        lines += [f"  {p} -- {q};" for p, q in self.edges]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # here, so that a launch that writes no JSON never loads it

        obj = {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(obj, separators=(", ", ": ")) + "\n"

    def to_edgelist(self) -> str:
        lines = [f"{p}" for p, row in zip(self.vertices, self.rows) if not row]
        lines += [f"{p} {q}" for p, q in self.edges]
        return "\n".join(lines) + "\n" if lines else "\n"


def graph_from_degrees(cd: DegreeSet) -> PrimeGraph:
    """Edge p-q iff pq divides some degree: one clique on the primes of each
    degree, read from the factorizations the degree set carries.  A degree
    of two or more primes ORs its prime mask into its primes' rows, which
    then drop their own bit; a prime power adds a vertex and no edge."""
    fs = cd.factorizations
    vs = PrimeSet._known({p for f in fs for p, _ in f.factors})
    index = {p: i for i, p in enumerate(vs.primes)}
    rows = [0] * len(index)
    for f in fs:
        factors = f.factors
        if len(factors) > 1:
            mask = 0
            for p, _ in factors:
                mask |= 1 << index[p]
            for p, _ in factors:
                rows[index[p]] |= mask
    return PrimeGraph._known(vs, tuple([row & ~(1 << i) for i, row in enumerate(rows)]))


def structural_graph(spec: GroupSpec) -> PrimeGraph:
    """Build the degree graph of a Lie-type group from its known shape
    rather than from a degree list: the cliques of White's rule, the `rule`
    on its family's record, read from the spec's cyclotomic factors.

    The rules fail on three members, which the records list as rule
    exceptions and which are built from their degree sets instead: PSL2(5)
    = A5, where the rule joins 2 and 3, and PSL3(2) = PSL2(7) and PSL3(4),
    which the rule makes complete.
    """
    lie = spec.lie
    if lie is None:
        raise UnsupportedFamilyError(f"{spec} has no structural rule; build from its degree table")
    if spec.parameter in lie.rule_exceptions:
        return graph_from_degrees(character_degrees(spec))
    pi = prime_set_of_group(spec)
    return PrimeGraph(pi, lie.rule(pi, spec.cyclotomic_factors))


def graph_of(spec: GroupSpec) -> PrimeGraph:
    """The degree graph, from degrees where a degree set exists and from
    the structural rule otherwise."""
    try:
        return graph_from_degrees(character_degrees(spec))
    except UnsupportedFamilyError:
        return structural_graph(spec)


def product_graph(a: PrimeGraph, b: PrimeGraph) -> PrimeGraph:
    """Degree graph of a direct product: degrees multiply, so both edge
    sets survive and every cross pair becomes an edge.  Each factor's rows,
    remapped onto the bits of the union by scattering their set bits, are
    ORed with the other factor's vertex mask; a prime of both factors then
    drops its own bit."""
    vs = a.vertices | b.vertices
    ps = vs.primes
    index = dict(zip(ps, range(len(ps))))
    rows = [0] * len(ps)
    for g, other in ((a, b), (b, a)):
        bits = []
        for q in g.vertices.primes:
            bits.append(1 << index[q])
        cross = 0
        for q in other.vertices.primes:
            cross |= 1 << index[q]
        for p, row in zip(g.vertices.primes, g.rows):
            out = cross
            while row:
                low = row & -row
                out |= bits[low.bit_length() - 1]
                row ^= low
            rows[index[p]] |= out
    for i in range(len(rows)):
        rows[i] &= ~(1 << i)
    return PrimeGraph._known(vs, tuple(rows))
