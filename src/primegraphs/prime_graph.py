"""Degree graphs on prime vertices.

A PrimeGraph is the graph whose vertices are the primes dividing some
character degree of a group, with p adjacent to q exactly when pq divides
some degree.  It holds prime labels over the census graph core, bitmask
rows, so its queries are bit operations and the census predicates take it
as it is.  Graphs can be built from a degree set, or directly from the
known structure of each simple-group family; the two constructions are
cross-checked in the tests.

Both are unions of cliques: a degree graph is the union of one clique on
the primes of each degree, and each of White's structural rules is a union
of two or three cliques.  `PrimeGraph._from_cliques` builds the rows of
such a union by OR-ing each clique's index mask into its members' rows,
with no edge list in between.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .arithmetic import Factorization, PrimeSet
from .census import (
    GraphClass,
    Rows,
    canonicalize,
    edges_from_rows,
    rows_from_edges,
)
from .groups import (
    DegreeSet,
    Family,
    GroupSpec,
    UnsupportedFamilyError,
    character_degrees,
    prime_set_of_group,
)


@dataclass(frozen=True)
class PrimeGraph:
    """Immutable simple graph on a sorted set of primes; bit j of rows[i]
    is set iff the i-th and j-th smallest primes are adjacent."""

    vertices: PrimeSet
    rows: Rows

    def __init__(self, vertices, edges=()) -> None:
        vs = vertices if isinstance(vertices, PrimeSet) else PrimeSet(vertices)
        index = {p: i for i, p in enumerate(vs)}
        try:
            pairs = [(index[p], index[q]) for p, q in edges]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a vertex") from None
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "rows", rows_from_edges(len(vs), pairs))

    @classmethod
    def _from_cliques(cls, cliques: list) -> "PrimeGraph":
        """The union of complete graphs on the given collections of primes,
        which are known prime (taken from factorizations), so nothing is
        checked.  The vertices are the union of the cliques."""
        vs = PrimeSet._known(p for c in cliques for p in c)
        bit = {p: 1 << i for i, p in enumerate(vs.primes)}
        rows = dict.fromkeys(vs.primes, 0)
        for c in cliques:
            mask = 0
            for p in c:
                mask |= bit[p]
            for p in c:
                rows[p] |= mask
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertices", vs)
        object.__setattr__(
            graph, "rows", tuple([row & ~b for row, b in zip(rows.values(), bit.values())])
        )
        return graph

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        ps = self.vertices.primes
        return tuple((ps[i], ps[j]) for i, j in edges_from_rows(self.rows))

    def has_edge(self, p: int, q: int) -> bool:
        ps = self.vertices.primes
        return p in ps and q in ps and bool(self.rows[ps.index(p)] >> ps.index(q) & 1)

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
        # Grown from the lowest remaining vertex, so ordered by smallest prime.
        masks, remaining = [], (1 << self.n) - 1
        while remaining:
            comp, prev = remaining & -remaining, 0
            while comp != prev:
                prev = comp
                for i, row in enumerate(self.rows):
                    if prev >> i & 1:
                        comp |= row
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
        return self._primes_of(sum(
            1 << i for i, row in enumerate(self.rows) if row and (row | 1 << i) in comps
        ))

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
        obj = {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(obj, separators=(", ", ": ")) + "\n"

    def to_edgelist(self) -> str:
        lines = [f"{p}" for p, row in zip(self.vertices, self.rows) if not row]
        lines += [f"{p} {q}" for p, q in self.edges]
        return "\n".join(lines) + "\n" if lines else "\n"


def _primes(f: Factorization) -> list[int]:
    return [p for p, _ in f.factors]


def graph_from_degrees(cd: DegreeSet) -> PrimeGraph:
    """Edge p-q iff pq divides some degree: one clique on the primes of each
    degree, read from the factorizations the degree set carries."""
    return PrimeGraph._from_cliques([_primes(f) for f in cd.factorizations])


# The members White's rules get wrong; see structural_graph.
_RULE_EXCEPTIONS = ((Family.PSL2, 5), (Family.PSL3, 2), (Family.PSL3, 4))


def structural_graph(spec: GroupSpec) -> PrimeGraph:
    """Build the degree graph of a Lie-type group from its known shape
    rather than from a degree list, reading every prime from the spec's
    cyclotomic factors.

    Suzuki (parameter Q = q^2, r = sqrt(2Q)): the odd primes form a clique
    and 2 is adjacent to exactly the primes of Q-1; the other odd primes
    are those of Q+r+1 and Q-r+1.  PSL3(q): complete when the primes of q-1
    lie in {2, 3}; otherwise the primes of (q-1)(q+1)(q^2+q+1) form a
    clique and the defining prime p is adjacent to the primes of q+1 and
    q^2+q+1.  PSU3(q): the mirror image, complete when the primes of q+1
    lie in {2, 3}, with p adjacent to the primes of q-1 and q^2-q+1.
    PSL2(q): p is isolated; for odd q, 2 is joined to all other primes and
    odd primes are adjacent iff both divide q-1 or both divide q+1; for
    even q the primes of q-1 and of q+1 form two separate cliques.

    So each rule is a union of cliques: Suzuki the odd primes and {2} with
    the primes of Q-1; PSL3 and PSU3 all primes but p, and p with the
    primes of its two torus factors (or one clique on all primes when
    complete); PSL2 the primes of q, of q-1 and of q+1.

    The rules fail on three members, which are built from their degree
    sets instead: PSL2(5) = A5, where the rule joins 2 and 3, and PSL3(2)
    = PSL2(7) and PSL3(4), which the rule makes complete.
    """
    fam, q = spec.family, spec.parameter
    if fam in (Family.SPORADIC, Family.ALTERNATING):
        raise UnsupportedFamilyError(
            f"{spec} has no structural rule; build from its degree table"
        )
    if (fam, q) in _RULE_EXCEPTIONS:
        return graph_from_degrees(character_degrees(spec))

    if fam is Family.SUZUKI:
        f_q, f_minus, f_plus_r, f_minus_r = spec.cyclotomic_factors
        odd = _primes(f_minus) + _primes(f_plus_r) + _primes(f_minus_r)
        return PrimeGraph._from_cliques([odd, _primes(f_q) + _primes(f_minus)])

    if fam is Family.PSL3 or fam is Family.PSU3:
        pi = prime_set_of_group(spec)
        f_q, f_minus, f_plus, f_cyc = spec.cyclotomic_factors
        if fam is Family.PSL3:
            split, torus = f_minus, f_plus.primes() | f_cyc.primes()
        else:
            split, torus = f_plus, f_minus.primes() | f_cyc.primes()
        if set(split.primes()) <= {2, 3}:
            return PrimeGraph._from_cliques([pi])
        defining = f_q.primes()
        return PrimeGraph._from_cliques([pi - defining, defining | torus])

    # PSL2: the cliques of q, q - 1 and q + 1
    return PrimeGraph._from_cliques([_primes(f) for f in spec.cyclotomic_factors])


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
    cross = [(p, q) for p in a.vertices for q in b.vertices if p != q]
    return PrimeGraph(a.vertices | b.vertices, [*a.edges, *b.edges, *cross])
