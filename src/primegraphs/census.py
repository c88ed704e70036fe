"""Unlabeled small graphs: canonical forms, isomorphism, and the census of
k-regular graphs on up to ten vertices.

A graph is a tuple of adjacency-row bitmasks, one per vertex, so its size
is len(rows); it is held canonically by a GraphClass or under prime labels
by a prime_graph.PrimeGraph.  The predicates here read only a graph's `n`
and `rows`, so they take either.

The canonical form is the lexicographically smallest adjacency encoding
over all vertex orderings, where vertex i contributes an i-bit chunk giving
its adjacency to vertices 0..i-1 (earliest placed in the highest bit).  It
is searched one first vertex (root) at a time.  From a root, a
breadth-first search over partial orderings keeps, level by level, exactly
the prefixes achieving the smallest chunk so far.  A prefix is held as
two integers: the mask of unplaced vertices, and the placed vertices'
adjacency rows restricted to that mask, packed n bits per slice, the i-th
placed vertex's row at bits n*i to n*i + n - 1.  Extending a prefix by v
clears bit v of every slice at once, masking with 1 << v times the sum of
the slices' lowest bits, and puts v's row above them; one narrowing pass
over the slices, inline in both search loops, yields a prefix's smallest
chunk and the vertices that reach it.  Bit j of slice i is bit i (from the
top) of unplaced vertex j's chunk, and the packing is one-to-one, so two
prefixes with equal keys have equal chunk maps and identical
continuations.  Such prefixes and twin vertices are collapsed to keep the
frontier small.

Roots are taken one at a time, in vertex order: a vertex is a root when
it is the smallest of its orbit class as the loop reaches it.  The first
is searched in full, and three rules keep the result the lex-min form
while searching few of the rest:
- Bound by probe.  A later root is first probed depth-first, along the
  prefixes whose chunks equal the best code so far (the bound), with the
  same narrowing pass, twin filter and prefix keys (a seen-set in place of
  the frontier).  If every prefix rises above the bound, the root is cut.
  If a tied prefix falls below it, the root is searched in full, and its
  code, strictly below the bound, becomes the new best.
- Orbits.  Two orderings with equal chunks read the same adjacency
  matrix, so mapping one onto the other position by position is an
  automorphism; so are the map between two merged prefixes (identity on
  the unplaced vertices) and a swap of twins.  Their vertex pairs are
  united into an orbit partition, whose classes are named by their
  smallest vertex; a twin starts in the class of an earlier vertex.  A
  vertex whose class holds a smaller one is skipped: that smaller vertex
  was reached first and is a root or was skipped for the same reason, so
  the class holds a searched or probed root u, and an automorphism g maps
  the orderings from u onto orderings from g(u) with the same chunks, so
  g(u) reaches nothing new.
- Tie probe.  A root that ties the bound lies in the best root's orbit,
  and the probe's first full ordering with the bound's chunks is enough
  to unite the two; a search would carry every tied prefix to the last
  level.

The partition alone decides vertex-transitivity: every union is an
automorphism, and in a vertex-transitive graph every root's smallest code
is the global one, so no later root beats the bound or is cut.  Each
later root that is probed ties, and its one matching ordering joins it to
the best ordering's root, while every other vertex is a twin or lies in
the class of a root already searched or probed.  Neither step depends on
the labeling searched, so `canonicalize` keeps the verdict of the search
it ran on the class it returns, and no class is searched twice.

The census of k-regular graphs generates labeled graphs row by row and
prunes interchangeable vertices: when row v is filled, candidates u > v
with equal adjacency to 0..v-1 form a class, and only combinations taking
the lowest-indexed members of each class are kept.  A transposition within
a class is an automorphism of the partial graph fixing rows 0..v, so every
isomorphism class keeps a labeling.  Only the survivors that lead go on:
vertex 0 has the most triangles, and vertex 1 the largest pair (triangles
at u, triangles on edge 0-u) over vertex 0's neighbours u.  That keeps
every class, in the spirit of McKay's choice of first vertices
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998): row 0 of
every survivor is {1..k}, and every swap made at row v >= 1 fixes vertices
0 and 1, so for any vertex x and any neighbour y of x some survivor puts x
at 0 and y at 1; with x a vertex of the most triangles and y its best
neighbour, that survivor leads.  The labelings that lead are reduced to
classes by an invariant prescreen plus isomorphism tests, and each class is
canonicalized once; the generator's rows are well formed by construction,
so they go to the search without `canonicalize`'s input check.  The lead
test and the prescreen, the sorted triangle counts at the vertices and on
the edges, are read in one pass over the edges, once per labeling; the
isomorphism tests take the counts at the vertices from that same pass.

One embedding search decides both the isomorphism tests and
`contains_subgraph`: between graphs with equal vertex and edge counts, an
injection taking edges onto edges is an isomorphism.  The caller gives
each vertex its candidate images: an isomorphism test lets a vertex map
only to vertices with its triangle count, which an isomorphism keeps, and
a subgraph test to vertices of at least its degree.  That search places
the pattern's vertices in index order, so on a clique it would try every
ordering of each one; the clique tests have their own search, which grows
each clique in increasing vertex order and so meets it once.
"""

from __future__ import annotations

import operator
from functools import cache, total_ordering
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

from .arithmetic import Frozen

MAX_VERTICES = 10

_DATA_DIR = Path(__file__).parent / "data"

Rows = tuple[int, ...]


def rows_from_edges(n: int, edges) -> Rows:
    rows = [0] * n
    for p, q in edges:
        if p == q or not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"bad edge {p}-{q} for {n} vertices")
        rows[p] |= 1 << q
        rows[q] |= 1 << p
    return tuple(rows)


def edges_from_rows(rows: Rows) -> tuple[tuple[int, int], ...]:
    """The edges (i, j), i < j, in lexicographic order."""
    n = len(rows)
    return tuple(
        (i, j) for i, row in enumerate(rows) for j in range(i + 1, n) if row >> j & 1
    )


def _check_rows(rows: Rows) -> None:
    n = len(rows)
    if n > MAX_VERTICES:
        raise ValueError(f"graphs above {MAX_VERTICES} vertices are not supported")
    union = 0
    for row in rows:
        union |= row
    if union >> n:
        raise ValueError("adjacency rows must be in range")
    for v, row in enumerate(rows):
        bit = 1 << v
        if row & bit:
            raise ValueError("adjacency rows must be loop-free")
        # Every neighbour w of v must list v; over all v that is symmetry.
        while row:
            low = row & -row
            row ^= low
            if not rows[low.bit_length() - 1] & bit:
                raise ValueError("adjacency must be symmetric")


@total_ordering
class GraphClass(Frozen):
    """An isomorphism class, held as its canonically labeled adjacency.

    The constructor checks the rows as `canonicalize` does; the census, the
    oracle and `palfy-oracle` build theirs well formed and go through the
    unchecked `_known`.  `transitive` is the vertex-transitivity verdict of
    the search that `canonicalize` ran, or None for a class built otherwise;
    it takes no part in equality, ordering, hashing or repr."""

    rows: Rows
    transitive: Optional[bool]
    _fields = ("rows",)

    def __init__(self, rows: Rows, transitive: Optional[bool] = None) -> None:
        _check_rows(rows)
        vars(self).update(rows=rows, transitive=transitive)

    @classmethod
    def _known(cls, rows: Rows, transitive: Optional[bool] = None) -> "GraphClass":
        """A class whose rows are well formed by construction: the
        constructor's check is skipped."""
        g = object.__new__(cls)
        fields = g.__dict__
        fields["rows"] = rows
        fields["transitive"] = transitive
        return g

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.rows < other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows,))

    @property
    def n(self) -> int:
        return len(self.rows)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return edges_from_rows(self.rows)

    def is_k_regular(self, k: int) -> bool:
        return all(row.bit_count() == k for row in self.rows)


@cache
def _layout(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The packed-prefix tables for n vertices, by level L (vertices
    placed): rep[L] sets bit 0 of each of the first L slices, and
    shifts[L] holds their offsets."""
    rep, shifts = [0], [()]
    for i in range(n):
        rep.append(rep[-1] | 1 << n * i)
        shifts.append((*shifts[-1], n * i))
    return tuple(rep), tuple(shifts)


def _extensions(
    rows: Rows, unplaced: int, packed: int, cand: int, rep: int, top: int
) -> list[tuple[int, tuple[int, int]]]:
    """(vertex, key of the extended prefix) for one candidate per twin class
    (identical adjacency to the other unplaced vertices, ignoring the pair
    itself), the lowest-indexed first.  `rep` sets bit 0 of every placed
    slice, and the new slice goes at bit `top`.  Both searches build a lone
    candidate's key themselves.  One seen-set holds the open and closed
    neighbourhoods within `unplaced`: an open one N(u) never equals another
    candidate's closed one N[v], as v in N(u) would put u in N[v] = N(u),
    making u its own neighbour."""
    out = []
    seen: set[int] = set()
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        open_ = rows[v] & unplaced
        closed = open_ | low
        if closed in seen or open_ in seen:
            continue
        seen.add(closed)
        seen.add(open_)
        rest = unplaced ^ low
        out.append((v, (rest, packed & ~(low * rep) | (open_ & rest) << top)))
    return out


def _rooted_search(
    rows: Rows, root: int, unite: Callable[[tuple, tuple], None]
) -> tuple[tuple[int, ...], list[tuple]]:
    """The smallest chunk sequence over orderings that start at `root`, and
    a link for each full ordering reaching it.

    A link is an ordering's placement order held as (parent link, vertex),
    so extending a prefix is O(1).  Two prefixes that merge are handed to
    `unite`.
    """
    # A frontier entry maps (unplaced, packed) to its link: the mask of
    # unplaced vertices and, for the i-th placed vertex, its adjacency row
    # restricted to the unplaced ones at bits n*i to n*i + n - 1 of packed.
    # Bit j of slice i is bit i (from the top) of vertex j's chunk, and the
    # packing is one-to-one, so equal keys mean equal chunk maps, and such
    # prefixes merge: their continuations are the same.
    n = len(rows)
    rep, shifts = _layout(n)
    rest = ((1 << n) - 1) ^ 1 << root
    frontier: dict[tuple[int, int], tuple] = {
        (rest, rows[root] & rest): (None, root)
    }
    chunks_out: list[int] = []
    for level in range(1, n):
        best = 1 << level  # above every chunk of this level
        reached: list[tuple[int, int, int, tuple]] = []
        placed = shifts[level]
        for (unplaced, packed), link in frontier.items():
            # The narrowing pass, here and in `_tie_probe`: at each slice
            # keep the candidates not adjacent to that placed vertex, if
            # any.  The shifted complement holds the later slices above bit
            # n; they need no mask, as the candidates lie below it.
            cand = unplaced
            chunk = 0
            comp = ~packed
            for shift in placed:
                nonadj = cand & comp >> shift
                if nonadj:
                    cand = nonadj
                    chunk <<= 1
                else:
                    chunk = chunk << 1 | 1
            if chunk == best:
                reached.append((unplaced, packed, cand, link))
            elif chunk < best:
                best = chunk
                reached = [(unplaced, packed, cand, link)]
        chunks_out.append(best)
        if level == n - 1:
            # One vertex is left, and it is the whole candidate mask.
            return tuple(chunks_out), [
                (link, cand.bit_length() - 1) for _, _, cand, link in reached
            ]
        nxt: dict[tuple[int, int], tuple] = {}
        top, ones = n * level, rep[level]
        for unplaced, packed, cand, link in reached:
            if cand & (cand - 1):
                for v, key in _extensions(rows, unplaced, packed, cand, ones, top):
                    ext = (link, v)
                    other = nxt.setdefault(key, ext)
                    if other is not ext:
                        unite(other, ext)
                continue
            # A single candidate, the usual case.
            rest = unplaced ^ cand
            v = cand.bit_length() - 1
            ext = (link, v)
            key = (rest, packed & ~(cand * ones) | (rows[v] & rest) << top)
            other = nxt.setdefault(key, ext)
            if other is not ext:
                unite(other, ext)
        frontier = nxt
    return (), list(frontier.values())  # n == 1: the root is the ordering


# What `_tie_probe` returns for a root whose smallest code is below the bound.
_BEATS = "beats"


def _tie_probe(rows: Rows, root: int, bound: tuple[int, ...]) -> tuple | str | None:
    """Depth-first from `root`, along prefixes whose chunks equal `bound`:
    the link of the first full ordering that ties it; _BEATS as soon as such
    a prefix's next chunk falls below the bound; None when every one rises
    above it.  Twins and equal prefixes are pruned as in `_rooted_search`.
    """
    n = len(rows)
    rep, shifts = _layout(n)
    rest = ((1 << n) - 1) ^ 1 << root
    stack = [((rest, rows[root] & rest), 1, (None, root))]
    seen: set[tuple[int, int]] = set()
    while stack:
        (unplaced, packed), level, link = stack.pop()
        cand = unplaced  # the narrowing pass, as in `_rooted_search`
        chunk = 0
        comp = ~packed
        for shift in shifts[level]:
            nonadj = cand & comp >> shift
            if nonadj:
                cand = nonadj
                chunk <<= 1
            else:
                chunk = chunk << 1 | 1
        target = bound[level - 1]
        if chunk != target:
            if chunk < target:
                return _BEATS
            continue
        if level == n - 1:
            return (link, cand.bit_length() - 1)
        if cand & (cand - 1):
            for v, key in reversed(
                _extensions(rows, unplaced, packed, cand, rep[level], n * level)
            ):
                if key not in seen:
                    seen.add(key)
                    stack.append((key, level + 1, (link, v)))
            continue
        rest = unplaced ^ cand  # a single candidate
        v = cand.bit_length() - 1
        key = (rest, packed & ~(cand * rep[level]) | (rows[v] & rest) << n * level)
        if key not in seen:
            seen.add(key)
            stack.append((key, level + 1, (link, v)))
    return None


def _canonical_search(rows: Rows) -> tuple[tuple[int, ...], list[int]]:
    """The canonical chunks, and the union-find parents of the orbit
    partition.  A union links the larger root to the smaller, so the roots,
    the vertices v with parent v, are the smallest vertex of each class,
    vertex 0 among them.  A vertex is a root when it is the smallest of its
    class as the loop reaches it: the first is searched, and each later one
    is probed against the best code and searched only when it beats it."""
    n = len(rows)
    # A twin starts in the class of the first vertex of its twin class, so
    # it is never a root, as `_extensions` skips twins at every later level:
    # swapping twins is an automorphism.  One dict holds both kinds of
    # neighbourhood, for the reason `_extensions` gives.
    orbit = list(range(n))  # union-find parents of the orbit partition
    seen: dict[int, int] = {}
    for v, row in enumerate(rows):
        closed = row | 1 << v
        orbit[v] = seen.get(closed, seen.get(row, v))
        if orbit[v] == v:
            seen[closed] = seen[row] = v

    def unite(a: Optional[tuple], b: Optional[tuple]) -> None:
        # Two links of one length that read the same: full orderings with
        # equal chunks, or prefixes that merged.  Mapping one onto the other
        # position by position, and the unplaced vertices to themselves,
        # preserves adjacency, so it is an automorphism.
        while a is not b:
            a, u = a  # type: ignore[misc]
            b, w = b  # type: ignore[misc]
            if u == w:
                continue
            while orbit[u] != u:
                u = orbit[u]
            while orbit[w] != w:
                w = orbit[w]
            if u > w:
                orbit[u] = w
            elif u < w:
                orbit[w] = u

    best: Optional[tuple[int, ...]] = None
    best_link = None
    for root in range(n):
        # A twin, or a vertex in an earlier root's class, is no tree root.
        if orbit[root] != root:
            continue
        if best is not None:
            # One ordering that ties unites the root with the best one; a
            # root that the bound cuts reaches nothing new.
            probe = _tie_probe(rows, root, best)
            if probe is not _BEATS:
                if probe is not None:
                    unite(best_link, probe)
                continue
        # The first root, or one whose smallest code is below the bound.
        best, links = _rooted_search(rows, root, unite)
        best_link = links[0]
        for link in links:
            unite(best_link, link)
    return best or (), orbit


def canonicalize(rows: Rows) -> GraphClass:
    """Canonical representative of the graph on len(rows) vertices;
    isomorphic inputs give equal results and the output is a fixed point.
    The rows are checked first: the census passes the labelings it builds
    itself to `_canonical_class`."""
    _check_rows(rows)
    return _canonical_class(rows)


def _canonical_class(rows: Rows) -> GraphClass:
    """The canonical class of checked rows, with the search's verdict on
    vertex-transitivity: whether every vertex lies in vertex 0's class,
    that is, whether vertex 0 is the partition's only root."""
    chunks, orbit = _canonical_search(rows)
    n = len(rows)
    transitive = all(orbit[v] != v for v in range(1, n))
    return GraphClass._known(_rows_from_chunks(n, chunks), transitive)


def _rows_from_chunks(n: int, chunks: tuple[int, ...]) -> Rows:
    out = [0] * n
    for j, chunk in enumerate(chunks, start=1):
        # Bit b of vertex j's chunk is its adjacency to vertex j - 1 - b.
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            i = j - low.bit_length()
            out[i] |= 1 << j
            out[j] |= 1 << i
    return tuple(out)


def class_from_edges(n: int, edges) -> GraphClass:
    return canonicalize(rows_from_edges(n, edges))


# ---------------------------------------------------------------------------
# Isomorphism and embedding tests on labeled graphs, both decided by one
# search for an injection that maps edges onto edges, and the clique test;
# the embedding and clique tests take a GraphClass or a PrimeGraph
# (anything with `n` and `rows`).

def _triangles(rows: Rows) -> tuple[list[int], list[int]]:
    """The triangles on each edge, its endpoints' common-neighbour count, in
    `edges_from_rows` order, and the triangles at each vertex: half the sum
    of the counts on its edges, as each triangle at v holds two of them.
    One pass over the edges."""
    on_edge: list[int] = []
    at_vertex = [0] * len(rows)
    for v, row in enumerate(rows):
        later = row >> v + 1 << v + 1  # the neighbours above v
        while later:
            low = later & -later
            later ^= low
            w = low.bit_length() - 1
            common = (row & rows[w]).bit_count()
            on_edge.append(common)
            at_vertex[v] += common
            at_vertex[w] += common
    return on_edge, [t // 2 for t in at_vertex]


def _search(a: Rows, b: Rows, fits: list[int]) -> bool:
    """Whether some injection of a's vertices into b's sends each vertex v
    into the caller's mask fits[v] and every edge of a onto an edge of b.
    A mask may leave out only images that no injection the caller looks for
    uses: `_embeds` passes the vertices of at least v's degree, and
    `_find_isomorphism` those with v's triangle count.

    Vertices of a are placed in index order.  Vertex v's candidates are one
    mask: fits[v], less the images already used, within b's row at the
    image of each earlier neighbour of v.
    """
    m = len(a)
    at = [0] * m  # b's row at the image of each placed vertex

    def extend(v: int, used: int) -> bool:
        if v == m:
            return True
        cand = fits[v] & ~used
        earlier = a[v] & ((1 << v) - 1)
        while earlier and cand:
            low = earlier & -earlier
            earlier ^= low
            cand &= at[low.bit_length() - 1]
        while cand:
            low = cand & -cand
            cand ^= low
            at[v] = b[low.bit_length() - 1]
            if extend(v + 1, used | low):
                return True
        return False

    return extend(0, 0)


def _find_isomorphism(a: Rows, b: Rows, tri_a: list[int], tri_b: list[int]) -> bool:
    """Whether a and b are isomorphic, given equal vertex and edge counts
    and each graph's triangles at its vertices: the census dedup compares
    only graphs with equal `_edge_invariant` keys, which have one entry per
    edge, and passes the counts from that same `_triangles` pass.  Then a
    bijection taking edges onto edges takes non-edges onto non-edges too,
    so it is an isomorphism.  An isomorphism keeps each vertex's triangle
    count, so a vertex of a is tried only on the vertices of b with its
    count."""
    with_count: dict[int, int] = {}
    for w, t in enumerate(tri_b):
        with_count[t] = with_count.get(t, 0) | 1 << w
    return _search(a, b, [with_count.get(t, 0) for t in tri_a])


def _embeds(small, big) -> bool:
    """Whether small embeds into big, each vertex onto one of at least its
    degree."""
    a, b = small.rows, big.rows
    if len(a) > len(b):
        return False
    degrees = [row.bit_count() for row in b]
    fits = [
        sum(1 << w for w, d in enumerate(degrees) if d >= row.bit_count())
        for row in a
    ]
    return _search(a, b, fits)


def contains_subgraph(g, h) -> bool:
    """h embeds into g preserving edges (non-edges of h unconstrained)."""
    return _embeds(h, g)


def contains_clique(g, k: int) -> bool:
    """Whether g has k pairwise adjacent vertices.  Cliques grow in
    increasing vertex order: after placing v, the candidates are the later
    vertices adjacent to every placed one, `cand & rows[v]`, so each clique
    is met once rather than in each of its k! orders.  A branch stops once
    fewer candidates remain than vertices are missing."""
    rows = g.rows

    def grow(cand: int, need: int) -> bool:
        if not need:
            return True
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if grow(cand & rows[low.bit_length() - 1], need - 1):
                return True
        return False

    return k <= 0 or grow((1 << len(rows)) - 1, k)


def triangle_count(g) -> int:
    return sum(_triangles(g.rows)[1]) // 3


def is_vertex_transitive(g: GraphClass) -> bool:
    """Whether the canonical search's orbit partition has at most one class.
    A class from `canonicalize` carries the verdict of the search that
    labeled it; any other class is searched here, its rows already well
    formed, since the constructor rejects bad rows with ValueError.  The
    verdict holds in any labeling (see the module docstring)."""
    if g.transitive is None:
        g = _canonical_class(g.rows)
    return g.transitive


def max_dominating_in_induced(g: GraphClass, m: int) -> int:
    """Largest number of vertices adjacent to all m-1 others, over every
    induced m-vertex subgraph."""
    if not 0 < m <= g.n:
        raise ValueError("subset size must be between 1 and the vertex count")
    best = 0
    for combo in combinations(range(g.n), m):
        mask = 0
        for v in combo:
            mask |= 1 << v
        count = sum(
            1 for v in combo if (g.rows[v] & mask).bit_count() == m - 1
        )
        best = max(best, count)
    return best


# ---------------------------------------------------------------------------
# Enumeration of k-regular graphs.

class Census(Frozen):
    """Result of a regular-graph enumeration.  parity_ok is False exactly
    when n*k is odd, in which case no graphs exist and classes is empty."""

    n: int
    k: int
    classes: tuple[GraphClass, ...]
    _fields = ("n", "k", "classes")

    @property
    def parity_ok(self) -> bool:
        return self.n * self.k % 2 == 0

    def __iter__(self) -> Iterator[GraphClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def _labeled_regular(n: int, k: int, prune: bool) -> Iterator[Rows]:
    """Labeled k-regular graphs on vertices 0..n-1, generated row by row.
    Each row holds every edge placed so far at its vertex, so degrees are
    read from the rows.

    Without prune, every labeled graph is yielded.  With prune, when row v
    is filled the candidates u > v fall into classes of equal adjacency to
    0..v-1, and only combinations taking the lowest-indexed members of each
    class are kept.  Two members of a class are swapped by a transposition
    that is an automorphism of the partial graph fixing rows 0..v, so by
    induction every labeled graph is isomorphic to one that is kept.  At
    row 0 every candidate is in one class, so row 0 is {1..k}; a labeled
    graph whose row 0 is already {1..k} needs swaps only at rows v >= 1,
    which fix vertices 0 and 1.  So for any graph, any vertex x and any
    neighbour y of x, some kept labeling puts x at 0 and y at 1.

    Once row v is filled, the rest goes on only while each vertex u > v
    short of k neighbours needs fewer edges than there are such vertices,
    as its missing edges go to the others.  That one test is enough: no
    degree exceeds k, since only vertices below k take an edge, and the
    missing degrees sum to n*k - 2|E|, so their parity fails only when n*k
    is odd, where no k-regular graph exists and nothing is yielded anyway.
    """
    rows = [0] * n

    def feasible(v: int) -> bool:
        short = most = 0  # vertices u >= v short of k, and the most one lacks
        for u in range(v, n):
            missing = k - rows[u].bit_count()
            if missing:
                short += 1
                if missing > most:
                    most = missing
        return most < short or not short

    def picks(classes: list[list[int]], need: int) -> list[tuple[int, ...]]:
        # Choices of `need` vertices that take a prefix of every class,
        # ordered by the count taken from the first class, then the next.
        choices: list[tuple[int, ...]] = [()]
        for members in classes:
            prefixes: list[tuple[int, ...]] = [()]
            for u in members:
                prefixes.append((*prefixes[-1], u))
            choices = [c + p for c in choices for p in prefixes[: need - len(c) + 1]]
        return [c for c in choices if len(c) == need]

    def fill(v: int) -> Iterator[Rows]:
        if v == n:
            yield tuple(rows)
            return
        need = k - rows[v].bit_count()
        if need == 0:
            yield from fill(v + 1)
            return
        candidates = [u for u in range(v + 1, n) if rows[u].bit_count() < k]
        if prune:
            # So far rows[u] holds only u's edges to 0..v-1: its class key.
            classes: dict[int, list[int]] = {}
            for u in candidates:
                classes.setdefault(rows[u], []).append(u)
            combos = picks(list(classes.values()), need)
        else:
            combos = combinations(candidates, need)
        for combo in combos:
            for u in combo:
                rows[v] |= 1 << u
                rows[u] |= 1 << v
            if feasible(v + 1):
                yield from fill(v + 1)
            for u in combo:
                rows[v] ^= 1 << u
                rows[u] ^= 1 << v

    yield from fill(0)


def _bucket_key(on_edge: list[int], at_vertex: list[int]) -> tuple:
    """The dedup's bucket key, the sorted triangle counts at the vertices
    and on the edges, from `_triangles`."""
    return (tuple(sorted(at_vertex)), tuple(sorted(on_edge)))


def _edge_invariant(rows: Rows) -> Optional[tuple[tuple, list[int]]]:
    """None unless the labeling leads; otherwise its `_bucket_key` and the
    triangles at each vertex, which `_find_isomorphism` takes.  One
    `_triangles` pass gives all of them, and only a labeling that leads
    pays for sorting its key.

    A pruned labeling's row 0 is {1..k}, so its first k edges are 0-u for
    u = 1..k.  It leads when vertex 0 has the most triangles and vertex 1
    the largest pair (triangles at u, triangles on edge 0-u) over u = 1..k.
    Every class has a labeling that leads: take a vertex x with the most
    triangles and its neighbour y with the largest pair.  Some pruned
    labeling puts x at 0 and y at 1 (see `_labeled_regular`), and it
    leads."""
    on_edge, at_vertex = _triangles(rows)
    k = rows[0].bit_count()
    leads = at_vertex[0] == max(at_vertex) and (
        not k or max(zip(at_vertex[1 : k + 1], on_edge)) == (at_vertex[1], on_edge[0])
    )
    return (_bucket_key(on_edge, at_vertex), at_vertex) if leads else None


def enumerate_regular(n: int, k: int) -> Census:
    """All isomorphism classes of k-regular graphs on n vertices.

    Each (n, k) is computed once per process: later calls return the same
    immutable Census, as `catalog()` hands out one shared view.  The cache
    is keyed on `operator.index` of each argument, so keyword and
    positional calls share an entry and a float raises `TypeError` on
    every call; other bad arguments raise on every call too, since an
    exception is never cached.

    Labeled graphs are generated row by row, keeping at each row only the
    lowest-indexed members of every class of candidates with equal
    adjacency to the rows already filled; swapping two members of a class
    is an automorphism of the partial graph, so no isomorphism class is
    lost.  A labeling is dropped unless it leads: vertex 0 has the most
    triangles and vertex 1 the largest pair (triangles at u, triangles on
    edge 0-u) over vertex 0's neighbours u.  No class is lost here either,
    as the swaps made past row 0 fix vertices 0 and 1 (see
    `_labeled_regular` and `_edge_invariant`).  The labelings that lead are
    reduced to classes by an invariant prescreen, the sorted triangle
    counts at the vertices and on the edges, plus isomorphism tests within
    each bucket.  One pass over each labeling's edges gives the lead test,
    its key and its triangles at each vertex, and each bucket keeps its
    representatives with those counts.  A test is made by
    the embedding search that also answers `contains_subgraph`, with each
    vertex's images restricted to the vertices with its triangle count;
    only new classes are canonicalized.
    Correctness is anchored by the independent, unpruned oracle below.
    """
    return _census(operator.index(n), operator.index(k))


@cache
def _census(n: int, k: int) -> Census:
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if n > MAX_VERTICES:
        raise ValueError(f"graphs above {MAX_VERTICES} vertices are not supported")
    if n * k % 2:
        return Census(n, k, ())
    buckets: dict[tuple, list[tuple[Rows, list[int]]]] = {}
    for rows in _labeled_regular(n, k, prune=True):
        inv = _edge_invariant(rows)
        if inv is None:
            continue
        key, tri = inv
        reps = buckets.setdefault(key, [])
        if not any(_find_isomorphism(rows, rep, tri, rep_tri) for rep, rep_tri in reps):
            reps.append((rows, tri))
    classes = [_canonical_class(rep) for reps in buckets.values() for rep, _ in reps]
    return Census(n, k, tuple(sorted(classes)))


def enumerate_regular_oracle(n: int, k: int) -> Census:
    """Independent cross-check: generate every labeled k-regular graph with
    no symmetry pinning and bucket purely by canonical form.  Not cached:
    every call is a fresh recomputation."""
    if not 0 <= k < n or n > 8:
        raise ValueError("oracle supports 0 <= k < n <= 8")
    if n * k % 2:
        return Census(n, k, ())
    codes = {_canonical_search(rows)[0] for rows in _labeled_regular(n, k, prune=False)}
    classes = sorted(GraphClass._known(_rows_from_chunks(n, code)) for code in codes)
    return Census(n, k, tuple(classes))


# ---------------------------------------------------------------------------
# Named graphs transcribed from drawings.

_EXPECTED_TRIANGLES = {"quartic7-7tri": 7, "quartic7-6tri": 6, "octahedron": 8}

@cache
def catalog() -> Mapping[str, GraphClass]:
    """The named graphs, as a read-only view: one copy serves the process."""
    graphs: dict[str, GraphClass] = {}
    for line in (_DATA_DIR / "catalog.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition("=")
        name = name.strip()
        size, _, edge_text = rest.partition(";")
        edges = [
            tuple(int(t) for t in tok.split("-")) for tok in edge_text.split()
        ]
        g = class_from_edges(int(size), edges)
        if name.startswith("quartic") or name == "octahedron":
            if not g.is_k_regular(4):
                raise ValueError(f"catalog graph {name} is not 4-regular")
        expected = _EXPECTED_TRIANGLES.get(name)
        if expected is not None and triangle_count(g) != expected:
            raise ValueError(f"catalog graph {name} has wrong triangle count")
        if name in graphs:
            raise ValueError(f"duplicate catalog name {name}")
        graphs[name] = g
    return MappingProxyType(graphs)


def named(name: str) -> GraphClass:
    return catalog()[name]
