"""One pass of a workload, in a fresh Python process.

    python3 bench/one_pass.py WORKLOAD SEED TRACE [--setup-only]

Sets up as every `primegraphs` invocation does (interpreter start, import,
catalog, degree tables), then runs the workload's operations and prints one
JSON line: the monotonic clock reading at ready (so the parent can time
set-up from its launch), the wall time of the pass, the same time normalised
to a nominal host speed, peak RSS, the raw answer of every operation and,
when TRACE is 1, the per-layer trace.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_EVERY_S = 0.25
# The reference loop's time at the nominal host speed: about its time on a
# lightly loaded vCPU of the 2.1 GHz Xeon VM the benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.004


def _toggle(rows: list[int], v: int, w: int) -> int:
    rows[v] ^= 1 << w
    return (rows[v] & rows[w]).bit_count()


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with primegraphs, made of
    what its hot loops do: calls, bit operations, small tuples and a dict.
    It tracks the host's speed closer than plain arithmetic does."""
    rows = [0] * 8
    seen: dict[tuple[int, int, int], int] = {}
    total = 0
    for i in range(9000):
        v, w = i & 7, (i >> 3) & 7
        if v != w:
            total += _toggle(rows, v, w)
        key = (v, w, total & 15)
        seen[key] = seen.get(key, 0) + 1
    return total + len(seen)


class HostSpeed:
    """Times the reference loop every SAMPLE_EVERY_S of a pass.

    The host's speed drifts by up to half in phases of 25-60 s, longer than
    a run, so raw pass times of one program differ that much between runs.
    The samples come from a SIGALRM handler, which runs in the pass's own
    thread between bytecodes: they see the host while the pass runs, never
    run alongside it, and their time is taken out of the pass time.
    """

    def __enter__(self) -> "HostSpeed":
        self.samples: list[float] = []
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def normalise(self, seconds: float) -> float:
        # Work done is the integral of speed, and speed is inversely
        # proportional to the reference time: hence the mean of inverses.
        return seconds * statistics.fmean(REFERENCE_NOMINAL_S / r for r in self.samples)


def main(argv: list[str]) -> int:
    workload, seed, trace_on = argv[0], int(argv[1]), argv[2] == "1"
    setup_only = "--setup-only" in argv[3:]
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    t0 = time.monotonic()
    import primegraphs
    from primegraphs import arithmetic, census, cli, groups, prime_graph, verify

    t1 = time.monotonic()
    census.catalog()
    t2 = time.monotonic()
    for name in groups.bundled_table_names():
        groups.degree_table(name)
    ready = time.monotonic()

    if not Path(primegraphs.__file__).resolve().is_relative_to(src):
        print(f"error: primegraphs loaded from {primegraphs.__file__}", file=sys.stderr)
        return 2
    out = {
        "ready": ready,
        "setup": {
            "setup.import": t1 - t0,
            "setup.catalog": t2 - t1,
            "setup.tables": ready - t2,
        },
    }
    if not setup_only:
        import tracing
        import workloads

        pg = SimpleNamespace(
            arithmetic=arithmetic, census=census, cli=cli,
            groups=groups, prime_graph=prime_graph, verify=verify,
        )
        if trace_on:
            # No sampling here: the handler's time would land in whichever
            # layer's span is open.
            tracer = tracing.install()
            start = time.perf_counter()
            out["results"] = workloads.run(workload, seed, pg)
            out["wall_s"] = time.perf_counter() - start
            out["trace"] = tracer.report()
        else:
            with HostSpeed() as speed:
                start = time.perf_counter()
                out["results"] = workloads.run(workload, seed, pg)
            elapsed = time.perf_counter() - start  # the sampling has stopped
            out["wall_s"] = elapsed - sum(speed.samples[1:])
            out["wall_norm_s"] = speed.normalise(out["wall_s"])
            out["reference_s"] = statistics.fmean(speed.samples)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
