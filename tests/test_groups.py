import math
import sys
import tracemalloc
from itertools import islice

import pytest

from primegraphs import arithmetic, groups

from primegraphs.arithmetic import MAX_SUPPORTED, factor, prime_set
from primegraphs.groups import (
    DegreeSet,
    Family,
    FourPrimeCase,
    GroupSpec,
    UnsupportedFamilyError,
    all_specs,
    bundled_table_names,
    canonical_key,
    character_degrees,
    classify_four_prime_psl2,
    degree_table,
    family_specs,
    group_order,
    prime_powers,
    prime_set_of_group,
)
from primegraphs.prime_graph import graph_of, structural_graph
from primegraphs.verify import Bounds


def is_strong_probable_prime(n):
    """Miller-Rabin to the first twelve prime bases, written apart from
    primegraphs.arithmetic; exact below 3.18e23."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def assert_primes_of_order(primes, order):
    """The divide-out oracle: `primes` are exactly the prime divisors of
    the exact big-integer `order`, checked without `factor`."""
    rest = order
    for p in primes:
        assert is_strong_probable_prime(p), p
        assert rest % p == 0, p
        while rest % p == 0:
            rest //= p
    assert rest == 1, rest


def test_spec_validation():
    GroupSpec.psl2(4)
    GroupSpec.suzuki(8)
    GroupSpec.psu3(3)
    GroupSpec.alternating(8)
    GroupSpec.sporadic("J1")
    with pytest.raises(ValueError):
        GroupSpec.psl2(3)
    with pytest.raises(ValueError):
        GroupSpec.psl2(6)
    with pytest.raises(ValueError):
        GroupSpec.suzuki(16)  # even exponent
    with pytest.raises(ValueError):
        GroupSpec.psu3(2)  # solvable, order 72
    with pytest.raises(ValueError):
        GroupSpec.alternating(9)
    with pytest.raises(ValueError):
        GroupSpec.sporadic("m12")
    # the public constructor and parse factor the parameter, whatever the
    # sweeps do with the factorizations they already hold
    for family in ("psl2", "psl3", "psu3", "suzuki"):
        for q in (6, 12):
            with pytest.raises(ValueError):
                GroupSpec(Family(family), q)
            with pytest.raises(ValueError):
                GroupSpec.parse(family, str(q))


def test_spec_parse():
    assert GroupSpec.parse("psl2", "27") == GroupSpec.psl2(27)
    assert GroupSpec.parse("sporadic", "M11") == GroupSpec.sporadic("m11")
    assert GroupSpec.parse("alt", "7") == GroupSpec.alternating(7)


def test_orders():
    assert group_order(GroupSpec.psl2(5)) == 60
    assert group_order(GroupSpec.psl2(4)) == 60
    assert group_order(GroupSpec.suzuki(8)) == 29120
    assert group_order(GroupSpec.psl3(3)) == 5616
    assert group_order(GroupSpec.psu3(3)) == 6048
    assert group_order(GroupSpec.sporadic("j1")) == 175560
    assert group_order(GroupSpec.alternating(7)) == math.factorial(7) // 2
    # beyond the 63-bit range of factor, still exact: q^4 (q^4+1) (q^2-1)
    assert group_order(GroupSpec.suzuki(2**13)) == 2**26 * (2**26 + 1) * (2**13 - 1)


def test_character_degrees_psl2():
    assert tuple(character_degrees(GroupSpec.psl2(64))) == (1, 63, 64, 65)
    assert tuple(character_degrees(GroupSpec.psl2(125))) == (1, 63, 124, 125, 126)
    # q = 17 is 1 mod 4, so the extra degree is (q+1)/2
    assert tuple(character_degrees(GroupSpec.psl2(17))) == (1, 9, 16, 17, 18)
    # q = 7 is 3 mod 4, so it is (q-1)/2
    assert tuple(character_degrees(GroupSpec.psl2(7))) == (1, 3, 6, 7, 8)


def test_character_degrees_aliases():
    # the small PSL2 members coincide with alternating groups, whose degree
    # sets the generic formula does not produce
    a5 = tuple(character_degrees(GroupSpec.alternating(5)))
    assert a5 == (1, 3, 4, 5)
    assert tuple(character_degrees(GroupSpec.psl2(4))) == a5
    assert tuple(character_degrees(GroupSpec.psl2(5))) == a5
    a6 = tuple(character_degrees(GroupSpec.alternating(6)))
    assert tuple(character_degrees(GroupSpec.psl2(9))) == a6


def test_character_degrees_sporadic():
    assert tuple(character_degrees(GroupSpec.sporadic("j1"))) == (
        1, 56, 76, 77, 120, 133, 209,
    )


def test_character_degrees_unsupported():
    for spec in (GroupSpec.suzuki(32), GroupSpec.psl3(3), GroupSpec.psu3(3)):
        with pytest.raises(UnsupportedFamilyError):
            character_degrees(spec)
    assert character_degrees(GroupSpec.suzuki(8)) == degree_table("sz8").degree_set


def test_prime_sets():
    assert tuple(prime_set_of_group(GroupSpec.psl2(256))) == (2, 3, 5, 17, 257)
    assert tuple(prime_set_of_group(GroupSpec.suzuki(8))) == (2, 5, 7, 13)
    assert tuple(prime_set_of_group(GroupSpec.sporadic("m11"))) == (2, 3, 5, 11)


def test_family_rule_agrees_with_order():
    b = Bounds()
    specs = (
        [GroupSpec.psl2(f.value) for f in prime_powers(4, b.psl2_max)]
        + list(family_specs(Family.SUZUKI, 2**31))
        + [GroupSpec.psl3(f.value) for f in prime_powers(2, b.psl3_max)]
        + [GroupSpec.psu3(f.value) for f in prime_powers(3, b.psu3_max)]
    )
    beyond = 0
    for spec in specs:
        rule, order = prime_set_of_group(spec).primes, group_order(spec)
        if order <= MAX_SUPPORTED:
            assert rule == prime_set(order).primes, spec
        else:
            beyond += 1
            assert_primes_of_order(rule, order)
    assert beyond == 10  # Suzuki 2**13 .. 2**31


def _cyclotomic_values(spec):
    q = spec.parameter
    if spec.family is Family.SUZUKI:
        r = math.isqrt(2 * q)
        return (q, q - 1, q + r + 1, q - r + 1)
    return {
        Family.PSL2: (q, q - 1, q + 1),
        Family.PSL3: (q, q - 1, q + 1, q * q + q + 1),
        Family.PSU3: (q, q - 1, q + 1, q * q - q + 1),
    }[spec.family]


def test_carried_factorizations_match_factor():
    # Both sides of structural-agreement read these factorizations, so they
    # are checked here against factoring each value afresh.  all_specs
    # builds its Lie-type specs unchecked, through family_specs; each must
    # also be the spec the checking constructor builds.
    for q in (f.value for f in prime_powers(4, 10**4)):
        cd = character_degrees(GroupSpec.psl2(q))
        assert cd.factorizations == tuple(factor(d) for d in cd.degrees), q
    b = Bounds()
    lie = 0
    for spec in all_specs(b.psl2_max, b.suzuki_max, b.psl3_max, b.psu3_max):
        if spec.family in (Family.SPORADIC, Family.ALTERNATING):
            continue
        lie += 1
        assert spec == GroupSpec(spec.family, spec.parameter), spec
        fs = spec.cyclotomic_factors
        assert tuple(f.value for f in fs) == _cyclotomic_values(spec), spec
        assert fs == tuple(factor(f.value) for f in fs), spec
        if spec.family is Family.SUZUKI:
            assert fs[2].value * fs[3].value == spec.parameter**2 + 1
    assert lie == 1400


@pytest.mark.parametrize(
    "family, hi, candidates",
    [
        (Family.PSL2, 3000, range(-2, 3001)),
        (Family.PSL3, 3000, range(-2, 3001)),
        (Family.PSU3, 3000, range(-2, 3001)),
        (
            Family.SUZUKI,
            2**62,
            [2**e for e in range(63)] + [-8, 0, 3, 12, 24, 96, 2**31 + 1, 3**20],
        ),
    ],
)
def test_family_specs_match_the_checked_constructor(family, hi, candidates):
    # family_specs builds its specs unchecked, so it must yield exactly the
    # parameters up to hi that the checked constructor accepts, each with
    # the factorization that constructor makes.
    yielded = list(family_specs(family, hi))
    params = [s.parameter for s in yielded]
    assert params == sorted(set(params)) and params[-1] <= hi
    got = dict(zip(params, yielded))
    accepted = 0
    for q in candidates:
        try:
            want = GroupSpec(family, q)
        except ValueError:
            assert q not in got, q
            continue
        accepted += 1
        assert got[q] == want and got[q].factorization == want.factorization, q
    assert accepted == len(yielded)


@pytest.mark.parametrize(
    "family, smallest",
    [(Family.PSL2, 4), (Family.PSL3, 2), (Family.PSU3, 3), (Family.SUZUKI, 8)],
)
def test_family_specs_below_the_smallest_parameter(family, smallest):
    for hi in (-smallest, 0, 1, smallest - 1):
        assert list(family_specs(family, hi)) == [], hi
    assert [s.parameter for s in family_specs(family, smallest)] == [smallest]


def test_degree_set_factorizations():
    hand = DegreeSet([12, 1, 35, 12])
    assert hand.degrees == (1, 12, 35)
    assert hand.factorizations == (factor(1), factor(12), factor(35))
    # supplied factorizations are kept and do not take part in equality
    assert DegreeSet([1, factor(35), 12]) == hand
    assert hash(DegreeSet([1, factor(35), 12])) == hash(hand)
    with pytest.raises(ValueError):
        DegreeSet([3, 5])
    with pytest.raises(ValueError):
        DegreeSet([0, 1])


def test_table_degree_set_is_factored_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(groups, "factor", counting)
    groups._tables.cache_clear()
    spec = GroupSpec.sporadic("m23")
    first = character_degrees(spec)
    for _ in range(2):
        assert character_degrees(spec) == first
    assert 0 < len(calls) <= len(degree_table("m23").degrees_with_multiplicity)


def test_table_groups_have_no_cyclotomic_factors():
    for spec in (GroupSpec.sporadic("j1"), GroupSpec.alternating(7)):
        assert spec.factorization is None
        with pytest.raises(UnsupportedFamilyError):
            spec.cyclotomic_factors


def test_factor_budget(monkeypatch):
    # One factorization per cyclotomic factor, the parameter's included,
    # whatever a spec is asked for.  Aliased and table-backed members (PSL2
    # of 4, 5, 9, PSL3 of 2 and 4, Suzuki of 8) take their degrees from
    # another spec or a table and are left out.
    calls = []

    def counting(n):
        calls.append(n)
        return factor(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("primegraphs") and getattr(module, "factor", None) is factor:
            monkeypatch.setattr(module, "factor", counting)
    assert arithmetic.factor is counting and groups.factor is counting
    cases = (
        [(GroupSpec.psl2, f.value, 3) for f in prime_powers(7, 3000) if f.value != 9]
        + [(GroupSpec.psl3, f.value, 4) for f in prime_powers(3, 500) if f.value != 4]
        + [(GroupSpec.psu3, f.value, 4) for f in prime_powers(3, 500)]
        + [
            (GroupSpec.suzuki, s.parameter, 4)
            for s in family_specs(Family.SUZUKI, 2**61)
            if s.parameter != 8
        ]
    )
    for make, q, budget in cases:
        calls.clear()
        spec = make(q)
        graph_of(spec)
        structural_graph(spec)
        prime_set_of_group(spec)
        assert len(calls) <= budget, (str(spec), calls)


def test_rho_equals_pi_for_psl2():
    # every prime of the order divides some character degree
    for q in (f.value for f in prime_powers(4, 10**4)):
        spec = GroupSpec.psl2(q)
        rho = prime_set(math.prod(character_degrees(spec)))
        assert rho.primes == prime_set_of_group(spec).primes, q


def test_degree_table_integrity():
    for name in bundled_table_names():
        table = degree_table(name)
        assert sum(m * d * d for d, m in table.degrees_with_multiplicity) == table.order
        assert 1 in table.degree_set


def test_catalog_is_not_a_degree_table():
    # The graph catalog shares the data directory with the degree tables.
    with pytest.raises(KeyError) as exc:
        degree_table("catalog")
    assert exc.value.args == ("no bundled degree table 'catalog'",)


def test_table_extras():
    j1 = degree_table("j1")
    assert j1.maximal_indices == (266, 1045, 1463, 1540, 1596, 2926, 4180)
    sz8 = degree_table("sz8")
    assert sz8.maximal_indices == (65, 560, 1456, 2080)
    assert sz8.projective_factors == (40, 56, 64, 104)


def test_canonical_keys_fold_aliases():
    assert canonical_key(GroupSpec.psl2(4)) == canonical_key(GroupSpec.psl2(5))
    assert canonical_key(GroupSpec.psl2(5)) == canonical_key(GroupSpec.alternating(5))
    assert canonical_key(GroupSpec.psl2(9)) == canonical_key(GroupSpec.alternating(6))
    assert canonical_key(GroupSpec.psl3(2)) == canonical_key(GroupSpec.psl2(7))
    assert canonical_key(GroupSpec.psl2(8)) != canonical_key(GroupSpec.psl2(7))


def test_aliases_take_the_degrees_of_their_group():
    assert character_degrees(GroupSpec.psl3(2)) == character_degrees(GroupSpec.psl2(7))
    assert character_degrees(GroupSpec.psl3(2)).degrees == (1, 3, 6, 7, 8)
    a5 = character_degrees(GroupSpec.alternating(5))
    assert character_degrees(GroupSpec.psl2(4)) == a5
    assert character_degrees(GroupSpec.psl2(5)) == a5
    assert character_degrees(GroupSpec.psl2(9)) == character_degrees(GroupSpec.alternating(6))
    table = degree_table("psl3_4")
    assert character_degrees(GroupSpec.psl3(4)) == table.degree_set
    assert group_order(GroupSpec.psl3(4)) == table.order


def test_three_prime_sweep():
    b = Bounds()
    specs = list(all_specs(b.psl2_max, b.suzuki_max, b.psl3_max, b.psu3_max))
    found = {
        canonical_key(s)
        for s in specs
        if group_order(s) < 10**7 and len(prime_set_of_group(s)) == 3
    }
    assert found == {"a5", "a6", "psl2_7", "psl2_8", "psl2_17", "psl3_3", "psu3_3"}
    for s in specs:
        if group_order(s) < 10**7 and len(prime_set_of_group(s)) == 3:
            pi = prime_set_of_group(s)
            assert 2 in pi and 3 in pi


def is_prime_power(n):
    return len(factor(n).factors) == 1


def test_prime_powers_matches_factoring(monkeypatch):
    # the sieve against the definition, one factorization per integer; the
    # sieve hands out factorizations, which must equal factor's
    hi_max = 3 * 10**4
    reference = [f for f in map(factor, range(2, hi_max + 1)) if len(f.factors) == 1]
    his = list(range(-2, 40)) + list(range(40, hi_max + 1, 997)) + [hi_max]
    for hi in his:
        for lo in (-5, 0, 1, 2, 3, 4, 100, hi - 1, hi, hi + 1):
            want = [f for f in reference if lo <= f.value <= hi]
            assert list(prime_powers(lo, hi)) == want, (lo, hi)
    for q in (2, 4, 27, 29, 1024, 29791, 29989):  # lo == hi, a prime power
        assert list(prime_powers(q, q)) == [factor(q)]
    assert list(prime_powers(30, 30)) == []
    assert list(prime_powers(10, 5)) == []
    # one window covers the sweeps, whose bounds stay below 3 * 10**4
    assert groups._SIEVE_WINDOW > hi_max
    # the real window's edges: windows start at lo, lo + W, lo + 2W, ...
    window = groups._SIEVE_WINDOW
    got = list(prime_powers(2, 3 * window + 1000))
    for edge in (2 + window, 2 + 2 * window, 2 + 3 * window):
        near = range(edge - 500, edge + 500)
        want = [factor(n) for n in near if is_prime_power(n)]
        assert [f for f in got if edge - 500 <= f.value < edge + 500] == want, edge
    # small windows put many edges inside the reference range
    for window in (1, 2, 3, 7, 64, 1000):
        monkeypatch.setattr(groups, "_SIEVE_WINDOW", window)
        for lo, hi in [(-5, 3000), (2, 2), (3, 1000), (49, 50), (1000, 1024),
                       (1023, 2187), (2187, 2187), (2900, 3000)]:
            want = [f for f in reference if lo <= f.value <= hi]
            assert list(prime_powers(lo, hi)) == want, (window, lo, hi)


def test_prime_powers_memory_does_not_grow_with_hi():
    # A sieve over all of [2, hi] would hold hi bytes (about 19 MiB here)
    # before the first item; the windowed sieve holds one window.
    tracemalloc.start()
    try:
        first = list(islice(prime_powers(2, 2 * 10**7), 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [f.value for f in first] == [2, 3, 4, 5, 7]
    assert peak < 2 * 2**20


def test_all_specs_deduplicates():
    keys = [canonical_key(s) for s in all_specs(100, 2**9, 20, 20)]
    assert len(keys) == len(set(keys))
    assert "a5" in keys and "psl2_7" in keys


def test_four_prime_classification():
    assert classify_four_prime_psl2(GroupSpec.psl2(11)) is FourPrimeCase.CASE_R
    assert classify_four_prime_psl2(GroupSpec.psl2(13)) is FourPrimeCase.CASE_R
    assert classify_four_prime_psl2(GroupSpec.psl2(32)) is FourPrimeCase.CASE_MERSENNE
    assert classify_four_prime_psl2(GroupSpec.psl2(128)) is FourPrimeCase.CASE_MERSENNE
    assert classify_four_prime_psl2(GroupSpec.psl2(3**5)) is FourPrimeCase.CASE_3T
    with pytest.raises(ValueError):
        classify_four_prime_psl2(GroupSpec.psl2(9))  # only three primes
    with pytest.raises(ValueError):
        classify_four_prime_psl2(GroupSpec.suzuki(8))


def test_four_prime_none_case_exists():
    residue = [
        q
        for q in (f.value for f in prime_powers(4, 3000))
        if len(prime_set_of_group(GroupSpec.psl2(q))) == 4
        and classify_four_prime_psl2(GroupSpec.psl2(q)) is FourPrimeCase.NONE
    ]
    assert residue  # e.g. q = 25
    assert 25 in residue
