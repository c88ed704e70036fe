"""Byte-identity gate for the command line.

Each command group runs a fixed list of `primegraphs` commands in process
and hashes, per command, its arguments, exit code, stdout and stderr.  The
expected hashes were recorded from the edge-tuple `PrimeGraph`, before the
graph core moved onto bitmask rows (the n = 9 and 10 census cells later,
from the triangle-count dedup); any change to CLI output, intended or
not, shows up here as the name of the group that moved.

To print the current hashes (after an intended output change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io

import pytest

from primegraphs.census import catalog
from primegraphs.cli import main
from primegraphs.groups import all_specs

GOLDEN = {
    "graph": "0d4b5081eec90c5304f2f7b05522a2a4c0e8baaa59976709b10a8889deca8ab7",
    "product": "d01894c5b081bdead18dd05335d2bb4092754d37e71dccd0a639f8b069d5dfa9",
    "catalog": "bf5c19a3248c95771e97ccb456080d49fa3eb49066ade82cdd584feafe761751",
    "enum": "4d1777eaf0fd048030187f7f212e1444db8be32a1defa911b3151fda4339a482",
    "enum-9-10": "54bb6fec04814f5bfd96e50f9f84aa07663931f3ee0f2e33bd3a8e694115a003",
    "verify": "ffef4c73a0fa307fea06e7596d0dbc801af597b12c549b7ab57ed163573750cd",
}

_FORMATS = ("dot", "json", "edgelist")
_PRODUCT_GRID = (
    "psl2 8", "psl2 25", "psl2 64", "suzuki 8", "psl3 3", "psu3 4",
    "alt 7", "sporadic j1",
)


def _commands(group: str) -> list[list[str]]:
    if group == "graph":
        return [
            ["graph", *str(spec).split(), "--format", fmt, *extra]
            for spec in all_specs(200, 2**9, 30, 30)
            for fmt in _FORMATS
            for extra in ((), ("--structural",))
        ]
    if group == "product":
        return [
            ["product", *a.split(), *b.split(), "--format", fmt]
            for a in _PRODUCT_GRID
            for b in _PRODUCT_GRID
            for fmt in _FORMATS
        ]
    if group == "catalog":
        return [["catalog"]] + [["catalog", name] for name in sorted(catalog())]
    if group == "enum":
        return [
            ["enum", "--n", str(n), "--k", str(k), "--stats"]
            for n in range(1, 9)
            for k in range(n)
        ]
    if group == "enum-9-10":
        # Every census cell at n = 9 and 10, each with its --stats flags.
        return [
            ["enum", "--n", str(n), "--k", str(k), "--stats"]
            for n in (9, 10)
            for k in range(n)
        ]
    assert group == "verify"
    # The suite's SMALL bounds (tests/test_verify.py).
    return [[
        "verify", "--json", "--psl2-max", "500", "--suzuki-max", "512",
        "--psl3-max", "50", "--psu3-max", "50", "--product-trials", "50",
    ]]


def digest(group: str) -> str:
    h = hashlib.sha256()
    for argv in _commands(group):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_cli_output_is_byte_identical(group):
    assert digest(group) == GOLDEN[group]


if __name__ == "__main__":
    for group in GOLDEN:
        print(f'    "{group}": "{digest(group)}",')
