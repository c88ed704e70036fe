"""The primegraphs benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-default, census-n9, oracle, sweep-wide, or `all` to
run the four in turn.  Every pass runs in a fresh Python process
(`one_pass.py`), one at a time, so each pays the cold start a `primegraphs`
invocation pays and no cache carries over from one pass to the next.  Passes
repeat until the next one would end past S seconds (at least one runs), and
set-up-only launches before each pass sample set-up time alongside.  Every
answer is checked (see `workloads.py`); a wrong one counts as a failed
operation.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: wall_norm_s (median pass time from ready to the end, normalised to
a nominal host speed; see `one_pass.HostSpeed`), setup_s (median time from
process launch to ready) and peak_rss_mb (median peak RSS of a pass
process).  With --trace 1 passes alternate between untraced and traced
(`tracing.py`) and the metrics are the per-layer ones, medians over the
traced passes.  The lines before it give every metric with its unit and
sample count, the raw pass time wall_s, error_rate, and the run context.

Exit status is 0 when the run completed (answers that fail their check are
reported as failures, not as an exit status), 1 when no pass completed, 2
when the program's sources are not beside the benchmark, and 3 when a check
accepts a tampered answer or the anchors disagree: then the checks
themselves are broken.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ONE_PASS = Path(__file__).resolve().with_name("one_pass.py")
SETUP_LAUNCHES_PER_PASS = 3
PASS_TIMEOUT_S = 120
CLAIM_IDS = tuple(workloads.EXPECTED["default"])


class PassFailed(Exception):
    pass


class BrokenCheck(Exception):
    pass


def launch(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    """Run one pass process; return its JSON result with `setup_s` added."""
    cmd = [sys.executable, str(ONE_PASS), workload, str(seed), "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassFailed(f"pass exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def self_check(results: dict) -> int:
    """Feed every check the tampered variants of each right answer of a pass;
    each must be rejected.  Returns how many answers were exercised."""
    exercised = 0
    for key, raw in results.items():
        if workloads.check(key, raw) is not None:
            continue
        for bad in workloads.tampered(key, raw):
            if workloads.check(key, bad) is None:
                raise BrokenCheck(f"the check of {key} accepted a tampered answer {bad}")
        exercised += 1
    return exercised


def score(workload: str, seed: int, results: dict | None, errors: list[str]) -> tuple[int, int]:
    """(attempted, failed) operations of one pass; a pass with no results
    fails every operation it should have run."""
    keys = workloads.ops(workload, seed)
    results = results or {}
    failed = 0
    for key in keys:
        raw = results.get(key)
        why = "missing" if raw is None else workloads.check(key, raw)
        if why is not None:
            failed += 1
            errors.append(f"{key}: {why}")
    extra = sorted(set(results) - set(keys))
    errors += [f"{key}: not an operation of {workload}" for key in extra]
    return len(keys) + len(extra), failed + len(extra)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    launch(workload, seed, False, setup_only=True)  # compiles bytecode; untimed
    start = time.monotonic()
    setup, parts, walls, rss, layers = [], [], {False: [], True: []}, [], []
    norm, reference = [], []
    attempted = failed = 0
    errors: list[str] = []
    exercised = None

    def record(result: dict) -> None:
        setup.append(result["setup_s"])
        parts.append(result["setup"])

    kinds = (False, True) if trace else (False,)
    last: dict[bool, float] = {}  # duration of the latest round of each kind
    for kind in itertools.cycle(kinds):
        if len(last) == len(kinds) and time.monotonic() - start + last[kind] > seconds:
            break
        began = time.monotonic()
        # Set-up samples are spread over the run, as host speed drifts.
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            record(launch(workload, seed, False, setup_only=True))
        try:
            result = launch(workload, seed, kind)
        except PassFailed as exc:
            errors.append(str(exc))
            a, f = score(workload, seed, None, [])
            attempted, failed = attempted + a, failed + f
            last[kind] = time.monotonic() - began
            continue
        last[kind] = time.monotonic() - began
        record(result)
        walls[kind].append(result["wall_s"])
        a, f = score(workload, seed, result["results"], errors)
        attempted, failed = attempted + a, failed + f
        if kind:
            layers.append(result)
        else:
            rss.append(result["peak_rss_mb"])
            norm.append(result["wall_norm_s"])
            reference.append(result["reference_s"])
            if exercised is None:
                exercised = self_check(result["results"])
    if not walls[False] or (trace and not walls[True]):
        raise PassFailed("no pass completed: " + " | ".join(errors[:3]))

    metrics: dict[str, tuple[float, str, int]] = {}
    if trace:
        traced = [
            tracing.layer_metrics(r["trace"], CLAIM_IDS) | _unattributed(r) for r in layers
        ]
        for name, unit in tracing.metric_names(CLAIM_IDS):
            if name.startswith("setup."):
                samples = [p[name.removesuffix(".self_s")] for p in parts]
            elif name == "trace.wall_s":
                samples = walls[True]
            elif name == "trace.overhead_s":
                samples = [statistics.median(walls[True]) - statistics.median(walls[False])]
            else:
                samples = [t[name] for t in traced]
            metrics[name] = (statistics.median(samples), unit, len(samples))
    else:
        metrics["wall_norm_s"] = (statistics.median(norm), "s", len(norm))
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
        metrics["peak_rss_mb"] = (statistics.median(rss), "MiB", len(rss))
    # Raw pass time and host speed: printed, not gated (see README.md, Noise).
    info = {
        "wall_s": (statistics.median(walls[False]), "s", len(walls[False])),
        "reference_s": (statistics.median(reference), "s", len(reference)),
    }
    return {
        "metrics": metrics,
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "self_checked": exercised or 0,
        "elapsed_s": time.monotonic() - start,
    }


def _unattributed(result: dict) -> dict[str, float]:
    covered = sum(s[2] for s in result["trace"]["stats"].values())
    return {"trace.unattributed_s": result["wall_s"] - covered}


def run_context(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
        "noise": "no CPU pinning or cgroup control; host noise shows as run-to-run spread",
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.EXPECTED["seed"])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "primegraphs" / "__init__.py").is_file():
        print(f"error: no primegraphs sources under {SRC}", file=sys.stderr)
        return 2
    problems = workloads.check_anchors()
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 3
    print(json.dumps({"context": run_context(args.seed)}))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except PassFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        except BrokenCheck as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        for err in out["errors"][:10]:
            print(f"{name} failed: {err}", file=sys.stderr)
        for metric, (value, unit, n) in (out["metrics"] | out["info"]).items():
            print(f"{name} {metric} = {value:.6g} {unit} (median of {n})")
        print(
            f"{name} error_rate = {out['failed'] / out['attempted']:.6g} "
            f"({out['failed']} of {out['attempted']} operations failed; "
            f"checks proven on {out['self_checked']} answers; "
            f"measured for {out['elapsed_s']:.1f} s)"
        )
        print(json.dumps({
            "correct": out["failed"] == 0,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit, _) in out["metrics"].items()
            },
        }))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
