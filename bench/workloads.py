"""The benchmark's four workloads: what one pass runs, and how each answer
is checked.

A workload is a list of operations fixed by the seed: one claim, one census
cell (n, k) or one oracle cell each.  The pass process (`one_pass.py`) runs
them and returns one raw answer per operation.  The parent (`run.py`) checks
every answer against anchors the program does not compute: published census
counts, complement duality and partition counts for the censuses, and for
the claims their status plus the item counts recorded at the seed in
`expected.json`.

primegraphs is imported only by the pass process, which hands its modules to
`run`; the parent uses the checks without loading the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from itertools import combinations
from pathlib import Path

WORKLOADS = ("verify-default", "census-n9", "oracle", "sweep-wide")

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

SWEEP_CLAIMS = (
    "regular-implies-complete",
    "structural-agreement",
    "pentagon-shapes",
    "three-prime-groups",
    "four-prime-psl2-cases",
)
WIDE_BOUNDS = (
    "--psl2-max", "30000",
    "--suzuki-max", "2147483648",
    "--psl3-max", "1000",
    "--psu3-max", "1000",
)
CENSUS_CELLS = tuple((n, k) for n in range(1, 10) for k in range(n))
# (8, 3) and (8, 4) are left out only for their cost: about 24 s per pass.
ORACLE_CELLS = tuple((n, k) for n in range(1, 8) for k in range(n)) + ((8, 2), (8, 5))


def ops(workload: str, seed: int) -> list[str]:
    """Operation keys of one pass, in the order the pass runs them.  The
    seed shuffles the cells and the sweep claims; verify-default keeps the
    registry order and takes the seed as Bounds.seed instead."""
    if workload == "verify-default":
        return [f"claim:{cid}" for cid in EXPECTED["default"]]
    if workload == "census-n9":
        keys = [f"enum:{n}:{k}" for n, k in CENSUS_CELLS]
    elif workload == "oracle":
        keys = [f"oracle:{n}:{k}" for n, k in ORACLE_CELLS]
    elif workload == "sweep-wide":
        keys = [f"sweep:{cid}" for cid in SWEEP_CLAIMS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(keys)
    return keys


# ---------------------------------------------------------------------------
# Running a pass (inside the pass process).

def run(workload: str, seed: int, pg) -> dict[str, dict]:
    """Run one pass and return {operation key: raw answer}.  `pg` holds the
    primegraphs modules; an operation that raises gets an "error" answer."""
    keys = ops(workload, seed)
    if workload == "verify-default":
        try:
            return _verify_default(pg, seed)
        except Exception as exc:  # every claim of the pass failed with it
            return {key: {"error": repr(exc)} for key in keys}
    out = {}
    for key in keys:
        kind, *args = key.split(":")
        try:
            if kind == "enum":
                n, k = args
                out[key] = _cli(pg, ["enum", "--n", n, "--k", k, "--stats"])
            elif kind == "sweep":
                out[key] = _cli(pg, ["verify", "--only", args[0], *WIDE_BOUNDS])
            else:
                c = pg.census.enumerate_regular_oracle(int(args[0]), int(args[1]))
                out[key] = {
                    "parity_ok": c.parity_ok,
                    "classes": [list(g.rows) for g in c.classes],
                }
        except Exception as exc:
            out[key] = {"error": repr(exc)}
    return out


def _verify_default(pg, seed: int) -> dict[str, dict]:
    # The library calls `primegraphs verify` makes, with the seed fed into
    # Bounds.seed (the CLI has no flag for it).
    report = pg.verify.run_all(pg.verify.Bounds(seed=seed))
    report.to_table()
    return {
        f"claim:{e.id}": {"status": e.status, "detail": e.detail}
        for e in report.entries
    }


def _cli(pg, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pg.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ---------------------------------------------------------------------------
# Anchors.

CUBIC = {4: 1, 6: 2, 8: 6}
QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}


def _partitions_min3(n: int, smallest: int = 3) -> int:
    """Partitions of n into parts >= smallest: the 2-regular graphs on n
    vertices are the disjoint unions of cycles of these lengths."""
    if n == 0:
        return 1
    return sum(_partitions_min3(n - p, p) for p in range(smallest, n + 1))


def anchor_routes(n: int, k: int) -> list[int]:
    """Every independent value known for the class count of k-regular
    graphs on n vertices, reached directly or through the complement
    (n, n-1-k)."""
    if n * k % 2:
        return [0]
    values = []
    for kk in (k, n - 1 - k):
        if kk in (0, 1):
            values.append(1)
        elif kk == 2:
            values.append(_partitions_min3(n))
        elif kk == 3 and n in CUBIC:
            values.append(CUBIC[n])
        elif kk == 4 and n in QUARTIC:
            values.append(QUARTIC[n])
    return values


def anchor(n: int, k: int) -> int | None:
    """The class count all routes agree on, or None if there is none."""
    values = set(anchor_routes(n, k))
    return values.pop() if len(values) == 1 else None


def check_anchors() -> list[str]:
    """Problems with the anchors themselves: a cell with no anchor, or two
    routes (direct and complement) that disagree.  Empty when sound."""
    problems = []
    for n, k in sorted(set(CENSUS_CELLS) | set(ORACLE_CELLS)):
        values = anchor_routes(n, k)
        if not values or len(set(values)) > 1:
            problems.append(f"cell ({n}, {k}) has anchors {values}")
    return problems


# ---------------------------------------------------------------------------
# Checks (in the parent).  Each returns None for a right answer, else why
# it is wrong.

def numbers(text: str) -> list[int]:
    return [int(t) for t in re.findall(r"\d+", text)]


def check(key: str, raw: dict) -> str | None:
    if "error" in raw:
        return f"raised {raw['error']}"
    kind, *args = key.split(":")
    if kind == "claim":
        return _check_claim(args[0], raw["status"], raw["detail"], "default")
    if kind == "sweep":
        return _check_sweep(args[0], raw)
    n, k = int(args[0]), int(args[1])
    if kind == "enum":
        return _check_enum(n, k, raw)
    return _check_oracle(n, k, raw)


def _check_claim(cid: str, status: str, detail: str, bounds: str) -> str | None:
    if status != "pass":
        return f"status {status}: {detail}"
    want = EXPECTED[bounds].get(cid)
    if want is None:
        return "no recorded item counts for this claim"
    if numbers(detail) != want:
        return f"item counts {numbers(detail)}, recorded {want}"
    return None


def _check_sweep(cid: str, raw: dict) -> str | None:
    if raw["exit"] != 0:
        return f"exit code {raw['exit']}"
    lines = raw["stdout"].splitlines()
    if len(lines) != 2 or lines[1] != "1 claims, 0 failed":
        return f"unexpected output {raw['stdout']!r}"
    fields = lines[0].split(None, 2)
    if len(fields) != 3 or fields[0] != cid:
        return f"unexpected line {lines[0]!r}"
    return _check_claim(cid, fields[1], fields[2], "wide")


_CLASS_LINE = re.compile(
    r"(\d+): triangles=(\d+) k4=([yn]) k5=([yn]) vertex-transitive=[yn] edges:(.*)"
)


def _check_enum(n: int, k: int, raw: dict) -> str | None:
    if raw["exit"] != 0:
        return f"exit code {raw['exit']}"
    want = anchor(n, k)
    if want is None:
        return f"no single anchor: {anchor_routes(n, k)}"
    lines = raw["stdout"].splitlines()
    if n * k % 2:
        if lines != [f"no graphs: n*k = {n * k} is odd"]:
            return f"expected the odd-parity line, got {raw['stdout']!r}"
        return None
    header = f" classes of {k}-regular graphs on {n} vertices"
    if not lines or not lines[0].endswith(header):
        return f"unexpected header {lines[:1]}"
    count = lines[0][: -len(header)]
    if count != str(want) or len(lines) != 1 + want:
        return f"{count} classes in {len(lines) - 1} lines, anchor {want}"
    seen = set()
    for i, line in enumerate(lines[1:]):
        m = _CLASS_LINE.fullmatch(line)
        if not m or int(m[1]) != i:
            return f"unexpected class line {line!r}"
        edges = tuple(tuple(int(v) for v in e.split("-")) for e in m[5].split())
        rows = _rows(n, edges)
        if rows is None or any(r.bit_count() != k for r in rows):
            return f"class {i} is not {k}-regular on {n} vertices"
        if edges in seen:
            return f"class {i} repeats an earlier class"
        seen.add(edges)
        stats = (int(m[2]), m[3] == "y", m[4] == "y")
        if stats != (_cliques(rows, 3), _cliques(rows, 4) > 0, _cliques(rows, 5) > 0):
            return f"class {i} has wrong triangle or clique statistics"
    return None


def _check_oracle(n: int, k: int, raw: dict) -> str | None:
    if raw["parity_ok"] != (n * k % 2 == 0):
        return f"parity_ok is {raw['parity_ok']}"
    want = anchor(n, k)
    classes = [tuple(rows) for rows in raw["classes"]]
    if want is None or len(classes) != want:
        return f"{len(classes)} classes, anchor {want}"
    if len(set(classes)) != len(classes):
        return "a class is listed twice"
    for rows in classes:
        edges = [(i, j) for i, j in combinations(range(n), 2) if rows[i] >> j & 1]
        if len(rows) != n or _rows(n, edges) != rows or any(
            r.bit_count() != k for r in rows
        ):
            return f"class {list(rows)} is not a {k}-regular graph on {n} vertices"
    return None


def _rows(n: int, edges) -> tuple[int, ...] | None:
    rows = [0] * n
    for e in edges:
        if len(e) != 2 or not (0 <= e[0] < e[1] < n) or rows[e[0]] >> e[1] & 1:
            return None
        rows[e[0]] |= 1 << e[1]
        rows[e[1]] |= 1 << e[0]
    return tuple(rows)


def _cliques(rows: tuple[int, ...], size: int) -> int:
    return sum(
        all(rows[a] >> b & 1 for a, b in combinations(c, 2))
        for c in combinations(range(len(rows)), size)
    )


# ---------------------------------------------------------------------------
# Self-check: wrong answers made from right ones, which every check must
# reject.

def _bump(text: str) -> str:
    return re.sub(r"\d+", lambda m: str(int(m[0]) + 1), text, count=1)


def tampered(key: str, raw: dict) -> list[dict]:
    """Wrong variants of a right answer: a failing status or exit code, and
    a wrong count."""
    kind = key.split(":")[0]
    if kind == "claim":
        out = [{**raw, "status": "fail"}]
        if numbers(raw["detail"]):
            out.append({**raw, "detail": _bump(raw["detail"])})
        return out
    if kind in ("enum", "sweep"):
        out = [{**raw, "exit": 1}, {**raw, "stdout": _bump(raw["stdout"])}]
        if kind == "sweep":
            out.append({**raw, "stdout": raw["stdout"].replace(" pass ", " fail ", 1)})
        return out
    n = int(key.split(":")[1])
    extra = raw["classes"][:1] or [[0] * n]
    return [
        {**raw, "classes": raw["classes"] + extra},
        {**raw, "parity_ok": not raw["parity_ok"]},
    ]
