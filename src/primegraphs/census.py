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
over the slices yields a prefix's smallest chunk and the vertices that
reach it.  Bit j of slice i is bit i (from the top) of unplaced vertex j's
chunk, and the packing is one-to-one, so two prefixes with equal keys have
equal chunk maps and identical continuations.  Such prefixes and twin
vertices are collapsed to keep the frontier small.

Across roots, four rules keep the result the lex-min form while searching
few of them:
- Bound.  A root's search stops as soon as a level's minimum exceeds the
  best code found so far while the earlier levels tie with it.
- Orbits.  Two orderings with equal chunks read the same adjacency
  matrix, so mapping one onto the other position by position is an
  automorphism; so are the map between two merged prefixes (identity on
  the unplaced vertices) and a swap of twins.  Their vertex pairs are
  united into an orbit partition, and a root in the orbit of a searched
  root is skipped: an automorphism g maps the orderings from u onto
  orderings from g(u) with the same chunks, so g(u) reaches nothing new.
- Degree singletons.  A root alone in its degree class cannot share an
  orbit with another root, so all such roots are seeded into one search;
  when every root's degree is distinct this is a single search over all
  of them.  Restricting roots to the minimum degree instead would be
  unsound: the smallest code can start at a vertex of higher degree.
- Tie probe.  A later root that ties the bound lies in the best root's
  orbit, and one full ordering with the bound's chunks is enough to unite
  the two; the breadth-first search would carry every tied prefix to the
  last level.  So a later single root is first probed depth-first, along
  the prefixes whose chunks equal the bound, with the same narrowing pass,
  twin filter and prefix keys (a seen-set in place of the frontier).  The
  first ordering that ties is united with the best one; a prefix that
  falls below the bound sends the root to the breadth-first search, which
  finds the new best code; if every prefix rises above the bound, the root
  is cut.  Probing is gated: it starts once a search has united two orbits
  (the twin merges do not count) and stops once a later root has beaten
  the bound.  On graphs with few automorphisms later roots mostly beat the
  bound or are cut, and a probe then repeats work the breadth-first search
  does anyway.  Timed on the dense side (the graph when 2k >= n - 1, else
  its complement) of the first 600 pruned labelings of (11, 4), (11, 6),
  (12, 3), (12, 4) and (12, 8), against the search without the probe
  (2 CPUs, Python 3.11), probing every later root cost 4-13 % more and
  the union gate alone 1-6 %; the full gate stays within -1..+2 %, and
  the oracle's 8145 labeled graphs take 18 % less.

The partition alone decides vertex-transitivity: every union is an
automorphism, and in a vertex-transitive graph every root's smallest code
is the global one, so no later root beats the bound or is cut.  Each later
root that is searched or probed ties the bound, and one matching ordering per
tied root joins it to the best ordering's root (degree singletons share a
search there only if there is one root), while every other vertex is a
twin or in a searched class.

The census of k-regular graphs generates labeled graphs row by row and
prunes interchangeable vertices: when row v is filled, candidates u > v
with equal adjacency to 0..v-1 form a class, and only combinations taking
the lowest-indexed members of each class are kept.  A transposition within
a class is an automorphism of the partial graph fixing rows 0..v, so every
isomorphism class keeps a labeling.  The survivors are reduced to classes
by an invariant prescreen plus explicit isomorphism tests, and each class
is canonicalized once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional

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


@dataclass(frozen=True, order=True)
class GraphClass:
    """An isomorphism class, held as its canonically labeled adjacency."""

    rows: Rows

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


def _narrow(unplaced: int, packed: int, shifts: tuple[int, ...]) -> tuple[int, int]:
    """A prefix's smallest next chunk, and the mask of the vertices that
    reach it: at each slice keep the candidates not adjacent to that placed
    vertex, if any.  A shifted `packed` keeps the later slices above bit n;
    they need no mask, as the candidates lie below it."""
    cand = unplaced
    chunk = 0
    for shift in shifts:
        nonadj = cand & ~(packed >> shift)
        if nonadj:
            cand = nonadj
            chunk <<= 1
        else:
            chunk = chunk << 1 | 1
    return chunk, cand


def _extensions(
    rows: Rows, unplaced: int, packed: int, cand: int, rep: int, top: int
) -> list[tuple[int, tuple[int, int]]]:
    """(vertex, key of the extended prefix) for one candidate per twin class
    (identical adjacency to the other unplaced vertices, ignoring the pair
    itself), the lowest-indexed first.  `rep` sets bit 0 of every placed
    slice, and the new slice goes at bit `top`."""
    if not cand & (cand - 1):  # a single candidate, the usual case
        rest = unplaced ^ cand
        v = cand.bit_length() - 1
        return [(v, (rest, packed & ~(cand * rep) | (rows[v] & rest) << top))]
    out = []
    closed_seen: set[int] = set()
    open_seen: set[int] = set()
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        open_ = rows[v] & unplaced
        closed = open_ | low
        if closed in closed_seen or open_ in open_seen:
            continue
        closed_seen.add(closed)
        open_seen.add(open_)
        rest = unplaced ^ low
        out.append((v, (rest, packed & ~(low * rep) | (open_ & rest) << top)))
    return out


def _rooted_search(
    rows: Rows,
    roots: list[int],
    bound: Optional[tuple[int, ...]],
    unite: Callable[[tuple, tuple], None],
) -> Optional[tuple[tuple[int, ...], list[tuple]]]:
    """The smallest chunk sequence over orderings that start at one of
    `roots`, and a link for each full ordering reaching it; None as soon as
    a level falls behind `bound` while the earlier levels tie with it.

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
    full = (1 << n) - 1
    rep, shifts = _layout(n)
    frontier: dict[tuple[int, int], tuple] = {}
    for v in roots:
        rest = full ^ 1 << v
        frontier[(rest, rows[v] & rest)] = (None, v)
    chunks_out: list[int] = []
    tied = bound is not None
    for level in range(1, n):
        best = -1
        reached: list[tuple[int, int, int, tuple]] = []
        placed = shifts[level]
        for (unplaced, packed), link in frontier.items():
            chunk, cand = _narrow(unplaced, packed, placed)
            if chunk == best:
                reached.append((unplaced, packed, cand, link))
            elif chunk < best or best < 0:
                best = chunk
                reached = [(unplaced, packed, cand, link)]
        if tied:
            if best > bound[level - 1]:
                return None
            tied = best == bound[level - 1]
        chunks_out.append(best)
        if level == n - 1:
            # One vertex is left, and it is the whole candidate mask.
            return tuple(chunks_out), [
                (link, cand.bit_length() - 1) for _, _, cand, link in reached
            ]
        nxt: dict[tuple[int, int], tuple] = {}
        top = n * level
        for unplaced, packed, cand, link in reached:
            for v, key in _extensions(rows, unplaced, packed, cand, rep[level], top):
                ext = (link, v)
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
    stack = [(rest, rows[root] & rest, 1, (None, root))]
    seen: set[tuple[int, int]] = set()
    while stack:
        unplaced, packed, level, link = stack.pop()
        chunk, cand = _narrow(unplaced, packed, shifts[level])
        target = bound[level - 1]
        if chunk != target:
            if chunk < target:
                return _BEATS
            continue
        if level == n - 1:
            return (link, cand.bit_length() - 1)
        for v, key in reversed(
            _extensions(rows, unplaced, packed, cand, rep[level], n * level)
        ):
            if key not in seen:
                seen.add(key)
                stack.append((*key, level + 1, (link, v)))
    return None


def _canonical_search(rows: Rows) -> tuple[tuple[int, ...], Callable]:
    """The canonical chunks, and the find of the orbit partition."""
    n = len(rows)
    # The roots are one vertex per twin class, as at every later level, and
    # a twin starts in its root's orbit: swapping twins is an automorphism.
    orbit = list(range(n))  # union-find parents of the orbit partition
    by_degree: dict[int, list[int]] = {}  # the roots of each degree
    closed_seen: dict[int, int] = {}
    open_seen: dict[int, int] = {}
    for v, row in enumerate(rows):
        closed = row | 1 << v
        orbit[v] = closed_seen.get(closed, open_seen.get(row, v))
        if orbit[v] != v:
            continue
        closed_seen[closed] = open_seen[row] = v
        by_degree.setdefault(row.bit_count(), []).append(v)
    # A root alone in its degree class shares an orbit with no other root,
    # so all such roots are searched together, and nothing can skip them.
    # Searches go by lowest degree first: a root with fewer neighbours
    # tends to start a smaller code, so later searches meet a tighter bound.
    tasks = [(d, [v]) for d, vs in by_degree.items() if len(vs) > 1 for v in vs]
    alone = {d: vs[0] for d, vs in by_degree.items() if len(vs) == 1}
    if alone:
        tasks.append((min(alone), sorted(alone.values())))
    tasks.sort()
    # searched[r]: the class of representative r holds a searched root.
    searched = [False] * n
    # A later single root is probed depth-first once a search has found an
    # automorphism, and until a later root beats the bound; otherwise ties
    # are rare, and a probe mostly does work the breadth-first search redoes.
    united = False
    beaten = False

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    def unite(a: Optional[tuple], b: Optional[tuple]) -> None:
        # Two links of one length that read the same: full orderings with
        # equal chunks, or prefixes that merged.  Mapping one onto the other
        # position by position, and the unplaced vertices to themselves,
        # preserves adjacency, so it is an automorphism.
        nonlocal united
        while a is not b:
            a, u = a  # type: ignore[misc]
            b, w = b  # type: ignore[misc]
            ru, rw = find(u), find(w)
            if ru != rw:
                orbit[ru] = rw
                searched[rw] = searched[rw] or searched[ru]
                united = True

    best: Optional[tuple[int, ...]] = None
    best_link = None
    for _, task in tasks:
        if len(task) == 1:
            root = find(task[0])
            if searched[root]:
                continue
            searched[root] = True
            if united and not beaten:
                # best is set, as only a search unites.  One ordering that
                # ties unites the root with the best one.
                probe = _tie_probe(rows, task[0], best)
                if probe is None:
                    continue
                if probe is not _BEATS:
                    unite(best_link, probe)
                    continue
        result = _rooted_search(rows, task, best, unite)
        if result is None:
            continue
        chunks, links = result
        if best is None or chunks < best:
            beaten = best is not None
            best, best_link = chunks, links[0]
        for link in links:
            unite(best_link, link)
    return best or (), find


def canonicalize(rows: Rows) -> GraphClass:
    """Canonical representative of the graph on len(rows) vertices;
    isomorphic inputs give equal results and the output is a fixed point."""
    _check_rows(rows)
    chunks, _ = _canonical_search(rows)
    out = [0] * len(rows)
    for j, chunk in enumerate(chunks, start=1):
        # Bit b of vertex j's chunk is its adjacency to vertex j - 1 - b.
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            i = j - low.bit_length()
            out[i] |= 1 << j
            out[j] |= 1 << i
    return GraphClass(tuple(out))


def class_from_edges(n: int, edges) -> GraphClass:
    return canonicalize(rows_from_edges(n, edges))


# ---------------------------------------------------------------------------
# Isomorphism and embedding tests on labeled graphs, each taking a GraphClass
# or a PrimeGraph (anything with `n` and `rows`).

def _vertex_triangles(rows: Rows) -> tuple[int, ...]:
    n = len(rows)
    return tuple(
        sum(
            (rows[v] & rows[w]).bit_count()
            for w in range(n)
            if rows[v] >> w & 1
        )
        // 2
        for v in range(n)
    )


def _find_isomorphism(a: Rows, b: Rows) -> bool:
    """Backtracking search for a bijection a -> b preserving adjacency
    exactly; used only by the census dedup."""
    n = len(a)
    ta, tb = _vertex_triangles(a), _vertex_triangles(b)
    dega = [r.bit_count() for r in a]
    degb = [r.bit_count() for r in b]
    image = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or dega[v] != degb[w] or ta[v] != tb[w]:
                continue
            ok = all(
                (a[v] >> u & 1) == (b[w] >> image[u] & 1)
                for u in range(v)
            )
            if ok:
                image[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
        return False

    return place(0)


def _embeds(small, big) -> bool:
    a, b = small.rows, big.rows
    m, n = len(a), len(b)
    image = [-1] * m
    used = [False] * n

    def place(v: int) -> bool:
        if v == m:
            return True
        for w in range(n):
            if used[w] or a[v].bit_count() > b[w].bit_count():
                continue
            ok = True
            for u in range(v):
                if a[v] >> u & 1 and not b[w] >> image[u] & 1:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
        return False

    return m <= n and place(0)


def contains_subgraph(g, h) -> bool:
    """h embeds into g preserving edges (non-edges of h unconstrained)."""
    return _embeds(h, g)


def contains_clique(g, k: int) -> bool:
    if k > g.n:  # before K_k is built: its rows take memory quadratic in k
        return False
    return k <= 1 or contains_subgraph(g, complete_class(k))


def complete_class(k: int) -> GraphClass:
    full = (1 << k) - 1
    return GraphClass(tuple(full ^ (1 << v) for v in range(k)))


def triangle_count(g) -> int:
    return sum(_vertex_triangles(g.rows)) // 3


def is_vertex_transitive(g: GraphClass) -> bool:
    """Whether the canonical search's orbit partition has at most one class."""
    _, find = _canonical_search(g.rows)
    return len({find(v) for v in range(g.n)}) <= 1


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

@dataclass(frozen=True)
class Census:
    """Result of a regular-graph enumeration.  parity_ok is False exactly
    when n*k is odd, in which case no graphs exist and classes is empty."""

    n: int
    k: int
    classes: tuple[GraphClass, ...]

    @property
    def parity_ok(self) -> bool:
        return self.n * self.k % 2 == 0

    def __iter__(self) -> Iterator[GraphClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def _labeled_regular(n: int, k: int, prune: bool) -> Iterator[Rows]:
    """Labeled k-regular graphs on vertices 0..n-1, generated row by row.

    Without prune, every labeled graph is yielded.  With prune, when row v
    is filled the candidates u > v fall into classes of equal adjacency to
    0..v-1, and only combinations taking the lowest-indexed members of each
    class are kept.  Two members of a class are swapped by a transposition
    that is an automorphism of the partial graph fixing rows 0..v, so by
    induction every labeled graph is isomorphic to one that is kept.

    Once row v is filled, the rest goes on only while each vertex u > v
    short of k neighbours needs fewer edges than there are such vertices,
    as its missing edges go to the others.  That one test is enough: no
    degree exceeds k, since only vertices below k take an edge, and the
    missing degrees sum to n*k - 2|E|, so their parity fails only when n*k
    is odd, where no k-regular graph exists and nothing is yielded anyway.
    """
    rows = [0] * n
    deg = [0] * n

    def feasible(v: int) -> bool:
        residual = [k - d for d in deg[v:] if d < k]
        return not residual or max(residual) < len(residual)

    def picks(classes: list[list[int]], need: int) -> Iterator[tuple[int, ...]]:
        # Choices of `need` vertices that take a prefix of every class.
        if need == 0:
            yield ()
            return
        if not classes:
            return
        first, rest = classes[0], classes[1:]
        for taken in range(min(need, len(first)) + 1):
            for tail in picks(rest, need - taken):
                yield (*first[:taken], *tail)

    def fill(v: int) -> Iterator[Rows]:
        if v == n:
            yield tuple(rows)
            return
        need = k - deg[v]
        if need == 0:
            yield from fill(v + 1)
            return
        candidates = [u for u in range(v + 1, n) if deg[u] < k]
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
                deg[u] += 1
            deg[v] = k
            if feasible(v + 1):
                yield from fill(v + 1)
            deg[v] = k - need
            for u in combo:
                rows[v] ^= 1 << u
                rows[u] ^= 1 << v
                deg[u] -= 1

    yield from fill(0)


def _edge_invariant(rows: Rows) -> tuple:
    n = len(rows)
    common = sorted(
        (rows[v] & rows[w]).bit_count()
        for v in range(n)
        for w in range(v + 1, n)
        if rows[v] >> w & 1
    )
    return (tuple(sorted(_vertex_triangles(rows))), tuple(common))


def enumerate_regular(n: int, k: int) -> Census:
    """All isomorphism classes of k-regular graphs on n vertices.

    Labeled graphs are generated row by row, keeping at each row only the
    lowest-indexed members of every class of candidates with equal
    adjacency to the rows already filled; swapping two members of a class
    is an automorphism of the partial graph, so no isomorphism class is
    lost.  They are reduced to classes by an invariant prescreen plus
    explicit isomorphism tests; only new classes are canonicalized.
    Correctness is anchored by the independent, unpruned oracle below.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if n > MAX_VERTICES:
        raise ValueError(f"graphs above {MAX_VERTICES} vertices are not supported")
    if n * k % 2:
        return Census(n, k, ())
    buckets: dict[tuple, list[Rows]] = {}
    for rows in _labeled_regular(n, k, prune=True):
        inv = _edge_invariant(rows)
        reps = buckets.setdefault(inv, [])
        if not any(_find_isomorphism(rows, rep) for rep in reps):
            reps.append(rows)
    classes = sorted(
        canonicalize(rep) for reps in buckets.values() for rep in reps
    )
    return Census(n, k, tuple(classes))


def enumerate_regular_oracle(n: int, k: int) -> Census:
    """Independent cross-check: generate every labeled k-regular graph with
    no symmetry pinning and bucket purely by canonical form."""
    if not 0 <= k < n or n > 8:
        raise ValueError("oracle supports 0 <= k < n <= 8")
    if n * k % 2:
        return Census(n, k, ())
    seen = {canonicalize(rows) for rows in _labeled_regular(n, k, prune=False)}
    return Census(n, k, tuple(sorted(seen)))


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
