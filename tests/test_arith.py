import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegraphs.arithmetic import (
    MAX_SUPPORTED,
    Factorization,
    PrimeSet,
    factor,
    is_prime,
    prime_set,
)
from primegraphs.groups import prime_powers


def test_factor_examples():
    assert dict(factor(65).factors) == {5: 1, 13: 1}
    assert dict(factor(63).factors) == {3: 2, 7: 1}
    assert factor(1).factors == ()


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(OverflowError):
        factor(2**64)


def test_factor_exhaustive_reconstruction():
    for n in range(1, 10**6 + 1):
        f = factor(n)
        prod = 1
        prev = 1
        for p, e in f.factors:
            assert p > prev and e >= 1
            prev = p
            prod *= p**e
        assert prod == n


def test_factor_large_semiprimes():
    # beyond the trial-division bound, so the rho stage is exercised
    p, q = 1000003, 1000033
    assert factor(p * q).factors == ((p, 1), (q, 1))
    assert factor(2**61 - 1).factors == ((2**61 - 1, 1),)


def _trial_factor(n):
    # reference: plain trial division by every integer, no shared code
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@pytest.mark.parametrize(
    "n",
    [
        997**2, 991 * 997, 997**3, 2 * 997**2, 997 * 1009, 1009**2,
        1009 * 1013, 1013**2, 2 * 1009**2, 10**6 - 1, 10**6, 10**6 + 1,
        2**16 - 1, 2**16, 2**16 + 1, 251**2, 251 * 257, 257**2,
    ],
)
def test_factor_around_trial_bound(n):
    # 997 is the last trial prime and 1009 the next prime: these inputs sit
    # on both sides of where factor stops trusting trial division and falls
    # back to Miller-Rabin and Pollard rho.  2**16 is where the table of
    # smallest factors ends, and 251 and 257 are the primes either side of
    # 2**8, the largest smallest factor a composite in the table can have.
    f = factor(n)
    assert f.factors == _trial_factor(n)
    assert all(is_prime(p) for p, _ in f.factors)


def test_factor_table_exhaustive():
    # every input the smallest-factor table answers, against the reference
    for n in range(1, 2**16):
        assert factor(n).factors == _trial_factor(n), n


@given(st.integers(min_value=1, max_value=4 * 1013**2))
@settings(max_examples=300, deadline=None)
def test_factor_matches_trial_division(n):
    assert factor(n).factors == _trial_factor(n)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # unsorted
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))  # does not reconstruct


def test_unchecked_factorizations_pass_the_checked_constructor():
    # factor, divide and the prime-power sieve skip the constructor's check;
    # each result must still pass it and equal the checked value.
    rng = random.Random(11)
    ns = [*range(1, 3000), *(rng.randrange(2**16, 2**62) for _ in range(50))]
    ns += [1000003 * 1000033, 2**61 - 1]
    for n in ns:
        f = factor(n)
        assert Factorization(f.value, f.factors) == f, n
        for p, _ in f.factors:
            assert f.divide(p) == Factorization(n // p, factor(n // p).factors), (n, p)
    for f in prime_powers(2, 5000):
        assert Factorization(f.value, f.factors) == f


def test_prime_set_examples():
    assert tuple(prime_set(255)) == (3, 5, 17)
    assert tuple(prime_set(124)) == (2, 31)
    assert tuple(prime_set(1)) == ()


def test_prime_set_multiplicative():
    rng = random.Random(7)
    for _ in range(10**4):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        assert (prime_set(a) | prime_set(b)).primes == prime_set(a * b).primes


def test_prime_set_algebra():
    s = prime_set(30)
    t = prime_set(10)
    assert tuple(s - t) == (3,)
    assert 5 in s and 7 not in s
    assert len(s) == 3 and s.max() == 5
    with pytest.raises(ValueError):
        PrimeSet([4])
    with pytest.raises(ValueError):
        PrimeSet([1])


_SMALL = [p for p in range(2, 50) if is_prime(p)]  # product below 2**63


@given(st.sets(st.sampled_from(_SMALL)), st.sets(st.sampled_from(_SMALL)))
@settings(max_examples=200, deadline=None)
def test_prime_set_algebra_matches_checked_constructor(a, b):
    # the algebra skips the primality check; its results must still equal
    # what the checking constructor builds from the same elements
    s, t = PrimeSet(a), PrimeSet(b)
    assert s | t == PrimeSet(a | b)
    assert s - t == PrimeSet(a - b)
    assert factor(math.prod(a)).primes() == s


@given(st.integers(min_value=1, max_value=MAX_SUPPORTED))
@settings(max_examples=200, deadline=None)
def test_factor_reconstructs_anywhere_in_range(n):
    f = factor(n)
    prod = 1
    for p, e in f.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_prime_power_consistent_with_factor(n, f):
    # a power of n has n's primes with every exponent times f; on a prime n
    # this is the prime power p**f, past the trial bound for p > 1000
    assert factor(n**f).factors == tuple((p, e * f) for p, e in factor(n).factors)
