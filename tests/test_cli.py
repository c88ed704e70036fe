import json

from primegraphs import census
from primegraphs.cli import main
from primegraphs.groups import GroupSpec, group_order
from test_groups import assert_primes_of_order


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cd(capsys):
    code, out, _ = run(capsys, "cd", "psl2", "64")
    assert code == 0 and out == "1 63 64 65\n"


def test_cd_aliases_and_tables(capsys):
    code, out, _ = run(capsys, "cd", "psl3", "2")  # PSL3(2) is PSL2(7)
    assert code == 0 and out == "1 3 6 7 8\n"
    code, out, _ = run(capsys, "cd", "psl3", "4")
    assert code == 0 and out == "1 20 35 45 63 64\n"


def test_cd_unsupported(capsys):
    code, out, _ = run(capsys, "cd", "suzuki", "8")  # bundled as sz8
    assert code == 0 and out == "1 14 35 64 65 91\n"
    code, _, err = run(capsys, "cd", "suzuki", "32")
    assert code == 2 and "suzuki" in err


def test_order(capsys):
    code, out, _ = run(capsys, "order", "suzuki", "8")
    assert code == 0 and out == "29120\n"
    # exact beyond 63 bits
    q = 2**40
    code, out, _ = run(capsys, "order", "psl2", str(q))
    assert code == 0 and out == f"{q * (q * q - 1)}\n"


def test_graph_formats(capsys):
    code, out, _ = run(capsys, "graph", "psl2", "64", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "vertices": [2, 3, 5, 7, 13],
        "edges": [[3, 7], [5, 13]],
    }
    code, dot, _ = run(capsys, "graph", "psl2", "64", "--format", "dot")
    assert code == 0 and dot.startswith("graph {") and "3 -- 7;" in dot
    code, el, _ = run(capsys, "graph", "psl2", "64")
    assert code == 0 and el == "2\n3 7\n5 13\n"


def test_graph_aliases_match(capsys):
    _, a, _ = run(capsys, "graph", "psl2", "4", "--format", "json")
    _, b, _ = run(capsys, "graph", "psl2", "5", "--format", "json")
    assert a == b


def test_graph_structural(capsys):
    code, out, _ = run(capsys, "graph", "psl3", "8", "--structural", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [2, 3, 7, 73]


def test_graph_byte_stable(capsys):
    _, first, _ = run(capsys, "graph", "suzuki", "32", "--format", "dot")
    _, second, _ = run(capsys, "graph", "suzuki", "32", "--format", "dot")
    assert first == second


def test_graph_large_lie_parameters(capsys):
    # Each cyclotomic factor fits the 63-bit range of factor, while the
    # orders, and (q-1)(q+1)(q^2+-q+1) or Q^2 + 1, do not.
    cases = [("psl3", 65537), ("psu3", 65537), ("psl3", 1000003)]
    cases += [("suzuki", 2**e) for e in range(33, 62, 2)]
    for family, q in cases:
        code, out, err = run(capsys, "graph", family, str(q), "--format", "json")
        assert code == 0 and err == "", (family, q, err)
        doc = json.loads(out)
        order = group_order(GroupSpec.parse(family, str(q)))
        assert order > 2**63
        assert_primes_of_order(doc["vertices"], order)
        if family == "suzuki":
            two = {b for a, b in doc["edges"] if a == 2}
            assert two == {p for p in doc["vertices"] if p > 2 and (q - 1) % p == 0}


def test_graph_beyond_the_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "graph", "suzuki", str(2**63))
    assert code == 2 and out == "" and "63-bit" in err


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "--n", "7", "--k", "4", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 classes of 4-regular graphs on 7 vertices"
    assert "triangles=7" in out and "triangles=6" in out
    assert "vertex-transitive=y" in out and "vertex-transitive=n" in out


def test_enum_filters(capsys):
    code, out, _ = run(capsys, "enum", "--n", "8", "--k", "4", "--require-clique", "4")
    assert code == 0 and out.startswith("1 classes")
    code, out, _ = run(capsys, "enum", "--n", "8", "--k", "4", "--free-of-clique", "4")
    assert code == 0 and out.startswith("5 classes")


def test_enum_rejects_clique_sizes_below_one(capsys):
    for flag in ("--require-clique", "--free-of-clique"):
        for c in ("0", "-3"):
            code, out, err = run(capsys, "enum", "--n", "8", "--k", "4", flag, c)
            assert code == 2 and out == "", (flag, c)
            assert err.startswith("error: ") and flag in err
    # C = 1 is a real filter: every graph on 8 vertices contains K1
    code, out, _ = run(capsys, "enum", "--n", "8", "--k", "4", "--require-clique", "1")
    assert code == 0 and out.startswith("6 classes")
    code, out, _ = run(capsys, "enum", "--n", "8", "--k", "4", "--free-of-clique", "1")
    assert code == 0 and out == "0 classes of 4-regular graphs on 8 vertices\n"


def test_enum_clique_sizes_above_n_build_no_clique(capsys, monkeypatch):
    # K_C takes memory quadratic in C, so a clique larger than the graph is
    # answered from the sizes alone.
    def refuse(k):
        raise AssertionError(f"built K_{k}")

    monkeypatch.setattr(census, "complete_class", refuse)
    assert not census.contains_clique(census.named("house"), 10**6)
    code, out, _ = run(capsys, "enum", "--n", "8", "--k", "4", "--require-clique", "1000000")
    assert code == 0 and out == "0 classes of 4-regular graphs on 8 vertices\n"
    code, out, _ = run(capsys, "enum", "--n", "8", "--k", "4", "--free-of-clique", "1000000")
    assert code == 0 and out.startswith("6 classes of 4-regular graphs on 8 vertices\n")


def test_enum_parity(capsys):
    code, out, _ = run(capsys, "enum", "--n", "5", "--k", "3")
    assert code == 0 and "odd" in out


def test_enum_bad_args(capsys):
    code, _, err = run(capsys, "enum", "--n", "12", "--k", "4")
    assert code == 2 and err


def test_product(capsys):
    code, out, _ = run(capsys, "product", "psl2", "8", "psl2", "8")
    assert code == 0
    assert out == "2 3\n2 7\n3 7\n"


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--only", "order6-census")
    assert code == 0 and "pass" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--only", "j1-data", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["claims"][0]["id"] == "j1-data"


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--only", "bogus")
    assert code == 2 and "bogus" in err
    code, out, err = run(capsys, "verify", "--only", "")
    assert code == 2 and out == "" and "unknown claim ''" in err


def test_verify_rejects_bad_bounds(capsys):
    for argv in (
        ("--psl2-max", "-5"),
        ("--suzuki-max", "0"),
        ("--psl3-max", "-1"),
        ("--psu3-max", "0"),
        ("--product-trials", "-1"),
        ("--psl2-max", str(10**12 + 1)),
        ("--psl3-max", str(10**12 + 1)),
        ("--psu3-max", str(10**18)),
        ("--suzuki-max", str(10**20)),
        ("--suzuki-max", str(2**63)),
    ):
        code, out, err = run(capsys, "verify", "--only", "order6-census", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and argv[0][2:].replace("-", "_") in err


def test_verify_rejects_lie_bounds_past_the_factor_range(capsys):
    # q^2 + q + 1 and q^2 - q + 1 leave the 63-bit range of factor for
    # every prime power q above isqrt(2**63 - 1) = 3037000499.
    for flag in ("--psl3-max", "--psu3-max"):
        code, out, err = run(capsys, "verify", "--only", "order6-census", flag, "3037000500")
        name = flag[2:].replace("-", "_")
        assert (code, out) == (2, ""), flag
        assert err == f"error: {name} must be <= 3037000499, got 3037000500\n"


def test_verify_fails_when_nothing_checked(capsys):
    for argv in (
        ("structural-agreement", "--psl2-max", "1"),
        ("pentagon-shapes", "--psl2-max", "4"),
        ("four-prime-psl2-cases", "--psl2-max", "4"),
        ("product-join-bound", "--product-trials", "0"),
    ):
        code, out, err = run(capsys, "verify", "--only", *argv)
        assert code == 1 and err == "", argv
        assert f"{argv[0]}  fail  checked nothing: bounds too small\n" in out


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "octahedron" in out and "house" in out
    code, out, _ = run(capsys, "catalog", "octahedron")
    assert code == 0 and out.startswith("octahedron: n=6")
    code, _, err = run(capsys, "catalog", "nonesuch")
    assert code == 2 and "nonesuch" in err
    code, out, err = run(capsys, "catalog", "")
    assert code == 2 and out == "" and err.startswith("error: ")


_USAGE = "usage: primegraphs [-h] {cd,order,graph,product,enum,verify,catalog} ...\n"


# Every path to exit 2, each with its exact stderr and an empty stdout.
_USAGE_ERRORS = [
    (["cd", "psl2", "6"], "error: psl2 parameter must be a prime power, got 6\n"),
    ([], _USAGE + "primegraphs: error: the following arguments are required: command\n"),
    (["cd", "psl3", "5"], "error: no degree set for psl3 5\n"),
    (["cd", "foo", "3"], "error: 'foo' is not a valid Family\n"),
    (
        ["order", "psl2", "1180591620717411303424"],
        "error: 1180591620717411303424 exceeds the supported 63-bit range\n",
    ),
    (
        ["product", "psl2", "8", "psl3", "abc"],
        "error: invalid literal for int() with base 10: 'abc'\n",
    ),
    (
        ["graph", "alt", "5", "--structural"],
        "error: alt 5 has no structural rule; build from its degree table\n",
    ),
    (["enum", "--n", "12", "--k", "4"], "error: graphs above 10 vertices are not supported\n"),
    (
        ["enum", "--n", "8", "--k", "4", "--require-clique", "0"],
        "error: --require-clique must be at least 1, got 0\n",
    ),
    (
        ["verify", "--psl2-max", "0", "--only", "order6-census"],
        "error: psl2_max must be positive, got 0\n",
    ),
    (["verify", "--only", "bogus"], "error: unknown claim 'bogus'\n"),
    (["catalog", "nonesuch"], "error: unknown catalog graph 'nonesuch'\n"),
]


def test_usage_errors(capsys):
    for argv, err in _USAGE_ERRORS:
        assert run(capsys, *argv) == (2, "", err), argv
    # argparse words its list of choices differently across Python versions
    code, out, err = run(capsys, "frobnicate")
    assert code == 2 and out == "" and err.startswith(_USAGE)
    assert "error: argument command: invalid choice: 'frobnicate'" in err
