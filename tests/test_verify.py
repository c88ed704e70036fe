import json
from dataclasses import replace

import pytest

from primegraphs import verify
from primegraphs.arithmetic import MAX_SUPPORTED
from primegraphs.census import contains_clique
from primegraphs.cli import main
from primegraphs.verify import MAX_SIEVED_BOUND, Bounds, claim_ids, run_all, run_one

SMALL = Bounds(psl2_max=500, suzuki_max=2**9, psl3_max=50, psu3_max=50,
               product_trials=50)


@pytest.fixture(scope="module")
def small_report():
    return run_all(SMALL)


def test_all_claims_pass_at_small_bounds(small_report):
    assert small_report.ok, small_report.to_table()
    assert len(small_report.entries) == len(claim_ids())


def test_run_one_matches_run_all(small_report):
    full = {e.id: e for e in small_report.entries}
    for cid in ("order6-census", "j1-data", "palfy-oracle"):
        single = run_one(cid, SMALL)
        assert single.status == full[cid].status
        assert single.detail == full[cid].detail


def test_unknown_claim():
    with pytest.raises(KeyError):
        run_one("no-such-claim", SMALL)


def test_raising_claim_fails(monkeypatch, capsys):
    def boom(b):
        raise ValueError("boom")

    monkeypatch.setitem(verify._REGISTRY, "boom", verify.Claim("boom", "raises", boom))
    entry = run_one("boom", SMALL)
    assert (entry.status, entry.detail) == ("fail", "raised ValueError('boom')")
    assert main(["verify", "--only", "boom"]) == 1
    out = capsys.readouterr()
    assert out.err == "" and "boom  fail  raised ValueError('boom')" in out.out


@pytest.mark.parametrize(
    "cid, n, size", [("order8-k4-count", 8, 6), ("order9-k4-count", 9, 16)]
)
def test_k4_count_claims_check_the_census_size(monkeypatch, cid, n, size):
    real = verify.enumerate_regular

    def losing_a_k4_free_class(n_, k):
        census = real(n_, k)
        if (n_, k) != (n, 4):
            return census
        lost = next(g for g in census if not contains_clique(g, 4))
        return replace(census, classes=tuple(g for g in census if g != lost))

    monkeypatch.setattr(verify, "enumerate_regular", losing_a_k4_free_class)
    entry = run_one(cid, SMALL)
    assert (entry.status, entry.detail) == ("fail", f"census size {size - 1}")


def test_report_is_deterministic(small_report):
    a = small_report
    b = run_all(SMALL)
    assert [(e.id, e.status, e.detail) for e in a.entries] == [
        (e.id, e.status, e.detail) for e in b.entries
    ]


def test_report_serialization(small_report):
    report = small_report
    table = report.to_table()
    assert f"{len(report.entries)} claims, 0 failed" in table
    doc = json.loads(report.to_json())
    assert doc["ok"] is True
    assert {c["id"] for c in doc["claims"]} == set(claim_ids())
    assert all(c["status"] == "pass" for c in doc["claims"])


def test_claim_ids_unique_and_stable():
    ids = claim_ids()
    assert len(ids) == len(set(ids))
    assert "regular-implies-complete" in ids
    assert "pentagon-shapes" in ids
    assert "product-join-bound" in ids


@pytest.mark.parametrize(
    "value, field",
    [
        (value, field)
        for value in (0, -5)
        for field in ("psl2_max", "suzuki_max", "psl3_max", "psu3_max")
    ]
    # The sieved sweeps are capped; the cap is checked before any sieve.
    + [(MAX_SIEVED_BOUND + 1, field) for field in ("psl2_max", "psl3_max", "psu3_max")]
    # PSL3 and PSU3 are capped where q^2 +- q + 1 leaves the range of factor.
    + [(3037000500, field) for field in ("psl3_max", "psu3_max")]
    # Suzuki parameters are capped by the 63-bit range of factor.
    + [(MAX_SUPPORTED + 1, "suzuki_max"), (10**20, "suzuki_max")],
)
def test_bounds_reject_non_positive_maxima(value, field):
    with pytest.raises(ValueError, match=field):
        Bounds(**{field: value})


def test_bounds_accept_the_cap():
    assert Bounds(psl2_max=MAX_SIEVED_BOUND).psl2_max == MAX_SIEVED_BOUND
    assert Bounds(suzuki_max=MAX_SIEVED_BOUND + 1).suzuki_max == MAX_SIEVED_BOUND + 1
    assert Bounds(suzuki_max=MAX_SUPPORTED).suzuki_max == MAX_SUPPORTED
    assert Bounds(psl3_max=3037000499).psl3_max == 3037000499
    assert Bounds(psu3_max=3037000499).psu3_max == 3037000499


def test_bounds_product_trials():
    with pytest.raises(ValueError, match="product_trials"):
        Bounds(product_trials=-1)
    assert Bounds(product_trials=0).product_trials == 0
