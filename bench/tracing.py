"""Per-layer tracing of primegraphs from outside the program.

`install` wraps each layer's function at its module attribute, in every
primegraphs module namespace that holds it: a name imported by value (for
example `verify.enumerate_regular`) is a separate reference, and calls made
through it would be missed if only the defining module were patched.
Classes are traced by wrapping `__init__`, and generators per resumption.

Spans are not stored one by one (`is_prime` alone runs about a million
times in a pass); each layer aggregates calls, total time and self time in
memory, where self time is the span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (module, attribute, kind); kind "function", "generator" or
# "class" (constructions, traced through __init__).
LAYERS = {
    "arithmetic.factor": ("arithmetic", "factor", "function"),
    "arithmetic.is_prime": ("arithmetic", "is_prime", "function"),
    "arithmetic.pollard_rho": ("arithmetic", "_pollard_rho", "function"),
    "arithmetic.PrimeSet": ("arithmetic", "PrimeSet", "class"),
    "groups.prime_powers": ("groups", "prime_powers", "generator"),
    "groups.all_specs": ("groups", "all_specs", "generator"),
    "groups.prime_set_of_group": ("groups", "prime_set_of_group", "function"),
    "groups.character_degrees": ("groups", "character_degrees", "function"),
    "prime_graph.graph_from_degrees": ("prime_graph", "graph_from_degrees", "function"),
    "prime_graph.structural_graph": ("prime_graph", "structural_graph", "function"),
    "prime_graph.PrimeGraph": ("prime_graph", "PrimeGraph", "class"),
    "census.enumerate_regular": ("census", "enumerate_regular", "function"),
    "census.labeled_regular": ("census", "_labeled_regular", "generator"),
    "census.edge_invariant": ("census", "_edge_invariant", "function"),
    "census.find_isomorphism": ("census", "_find_isomorphism", "function"),
    "census.canonicalize": ("census", "canonicalize", "function"),
    "census.embeds": ("census", "_embeds", "function"),
    "census.is_vertex_transitive": ("census", "is_vertex_transitive", "function"),
    "verify.run_one": ("verify", "run_one", "function"),
    "cli.main": ("cli", "main", "function"),
}
SETUP_LAYERS = ("setup.import", "setup.catalog", "setup.tables")
# Calls of the key layer made directly from a span of the value layer.
PARENT_COUNTED = {"arithmetic.is_prime": "arithmetic.PrimeSet"}


def metric_names(claim_ids) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("arithmetic.is_prime.recheck_frac", "ratio"),
        ("groups.all_specs.specs", "count"),
        ("census.enumerate_regular.distinct", "count"),
        ("census.labeled_regular.graphs", "count"),
        ("census.find_isomorphism.hit_frac", "ratio"),
    ]
    out += [(f"verify.claim.{cid}.elapsed_s", "s") for cid in claim_ids]
    out += [(f"{layer}.self_s", "s") for layer in SETUP_LAYERS]
    out += [
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [child time, layer name]
        # layer -> [calls, total s, self s, count]; count is the calls from
        # the PARENT_COUNTED parent, the items a generator yielded, or the
        # find_isomorphism calls that returned True.
        self.stats: dict[str, list] = {}
        self.distinct: set = set()  # (n, k) arguments of enumerate_regular
        self.claims: dict[str, float] = {}  # claim id -> ReportEntry.elapsed

    def _stats(self, layer: str) -> list:
        return self.stats.setdefault(layer, [0, 0.0, 0.0, 0])

    def function(self, layer: str, fn, after=None):
        stats, stack, clock = self._stats(layer), self.stack, time.perf_counter
        parent = PARENT_COUNTED.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if parent is not None and stack and stack[-1][1] == parent:
                stats[3] += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(stats, args, result)
            return result

        return traced

    def generator(self, layer: str, fn):
        stats, stack, clock = self._stats(layer), self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = [0.0, layer]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                stats[3] += 1
                yield item

        return traced

    def _after(self, layer: str):
        if layer == "census.enumerate_regular":
            return lambda stats, args, result: self.distinct.add((result.n, result.k))
        if layer == "census.find_isomorphism":
            def count_hit(stats, args, result):
                stats[3] += bool(result)
            return count_hit
        if layer == "verify.run_one":
            def record(stats, args, entry):
                self.claims[entry.id] = self.claims.get(entry.id, 0.0) + entry.elapsed
            return record
        return None

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "distinct": len(self.distinct),
            "claims": self.claims,
        }


def install() -> Tracer:
    """Wrap every layer of the loaded primegraphs modules; return the tracer
    that aggregates their spans."""
    modules = [
        m for name, m in sys.modules.items()
        if name == "primegraphs" or name.startswith("primegraphs.")
    ]
    tracer = Tracer()
    for layer, (module, attr, kind) in LAYERS.items():
        original = getattr(sys.modules[f"primegraphs.{module}"], attr)
        if kind == "class":
            original.__init__ = tracer.function(layer, original.__init__)
            continue
        if kind == "generator":
            wrapped = tracer.generator(layer, original)
        else:
            wrapped = tracer.function(layer, original, tracer._after(layer))
        patched = 0
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    patched += 1
        if not patched:
            raise RuntimeError(f"layer {layer} was not found to patch")
    return tracer


def layer_metrics(trace: dict, claim_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its `Tracer.report()`."""
    stats = trace["stats"]
    zero = [0, 0.0, 0.0, 0]
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, _total, self_s, _count = stats.get(layer, zero)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s

    def share(layer: str) -> float:
        calls, _, _, count = stats.get(layer, zero)
        return count / calls if calls else 0.0

    out["arithmetic.is_prime.recheck_frac"] = share("arithmetic.is_prime")
    out["groups.all_specs.specs"] = stats.get("groups.all_specs", zero)[3]
    out["census.enumerate_regular.distinct"] = trace["distinct"]
    out["census.labeled_regular.graphs"] = stats.get("census.labeled_regular", zero)[3]
    out["census.find_isomorphism.hit_frac"] = share("census.find_isomorphism")
    for cid in claim_ids:
        out[f"verify.claim.{cid}.elapsed_s"] = trace["claims"].get(cid, 0.0)
    return out
