"""Exact integer arithmetic: primality, factorization and prime sets.

Everything here is deterministic and exact for inputs up to MAX_SUPPORTED
(unsigned 63-bit).  Larger inputs are rejected rather than silently
mishandled.

`factor` and `is_prime` take one of two paths, chosen by the size of n
alone, and try the small one first, so a small n meets no sign or range
check.  Below _TABLE_BOUND = 2**16 they read _SMALLEST_FACTOR, one byte
per integer: the smallest prime factor of a composite, 0 for 0, 1 and the
primes.  Every composite below 2**16 has a prime factor below 256, so the
table is built at import by marking the multiples of the primes below 256
and is exact by construction; dividing by the entry until it reads 0
leaves 1 or a prime.  Past the table both check the range; then
`is_prime` runs Miller-Rabin and `factor` divides out the primes below
_TRIAL_BOUND in turn.
Once the next trial prime p has p*p greater than the cofactor, every prime
below p has been divided out, so the cofactor is 1 or prime and is
recorded without a primality test.  Miller-Rabin and Pollard rho run only
on a cofactor left when the trial primes run out.

The public `PrimeSet(iterable)` constructor checks every element with
`is_prime`.  The set algebra (`|` and `-`) and `Factorization.primes`
build their results from elements that are already known prime, through
the unchecked `PrimeSet._known`, and do not check them again.  Likewise
the public `Factorization(value, factors)` constructor checks that the
factors are sorted and multiply out to value, while `factor`, the
`groups.prime_powers` sieve, the Suzuki parameters on the Suzuki family
record and `Factorization.divide` build theirs in canonical form through the
unchecked `Factorization._known`.
`Factorization.divide` derives the factorization of a quotient by one
prime by lowering its exponent, without factoring again.

`Frozen` is the base of the package's value classes, here and in the other
modules.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator

MAX_SUPPORTED = 2**63 - 1

# Trial division bound; every composite below _TRIAL_BOUND**2 is fully
# factored by trial division alone.
_TRIAL_BOUND = 1000


def prime_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes for limit >= 1: entry i is 1 iff i is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


_SMALL_PRIMES = tuple(i for i, f in enumerate(prime_flags(_TRIAL_BOUND)) if f)

# Marking the multiples of each prime below 2**8 from p*p on, the largest
# prime first, leaves each composite below 2**16 holding its smallest factor.
_TABLE_BOUND = 1 << 16
_SMALLEST_FACTOR = bytearray(_TABLE_BOUND)
for _p in reversed([p for p in _SMALL_PRIMES if p < 256]):
    _SMALLEST_FACTOR[_p * _p :: _p] = bytes([_p]) * len(range(_p * _p, _TABLE_BOUND, _p))
del _p

# Miller-Rabin with the first 12 prime witnesses is a proven deterministic
# primality test for all n < psi_12 ~ 3.18e23, which covers the full 63-bit
# range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Frozen:
    """Base of the package's immutable value classes.

    A subclass sets its fields once, in its constructor, by writing them
    into the instance `__dict__`: `vars(self).update(...)`, or on a hot
    path `fields = self.__dict__` and one `fields[name] = value` per field,
    the cheaper write.  Assigning or deleting an attribute afterwards
    raises AttributeError.  It lists in `_fields` the fields its repr
    shows, in order, and returns from `_key()` the tuple
    of the fields that equality and hashing compare.  Instances are equal
    only to instances of the same class.  These are plain classes rather
    than frozen dataclasses because importing `dataclasses` loads `inspect`
    and `ast`, which with the decorations took about a quarter of every
    launch's set-up; a class on a hot path defines its own comparisons.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def _check_range(n: int) -> None:
    if n > MAX_SUPPORTED:
        raise OverflowError(f"{n} exceeds the supported 63-bit range")


def is_prime(n: int) -> bool:
    """Deterministic primality for n <= MAX_SUPPORTED; False below 2."""
    if n < _TABLE_BOUND:
        return n > 1 and not _SMALLEST_FACTOR[n]
    _check_range(n)
    for p in _MR_WITNESSES:
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Here n >= 2**16, above the largest witness.
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n is odd, composite, with no factor below _TRIAL_BOUND.
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise AssertionError(f"rho failed on {n}")  # unreachable for composite n


class Factorization(Frozen):
    """Prime factorization: factors sorted ascending, exponents >= 1."""

    value: int
    factors: tuple[tuple[int, int], ...]
    _fields = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]) -> None:
        vars(self).update(value=value, factors=factors)
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be sorted ascending with exponents >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not reconstruct {self.value}")

    @classmethod
    def _known(
        cls, value: int, factors: tuple[tuple[int, int], ...]
    ) -> "Factorization":
        """A Factorization already in canonical form by construction, as
        `factor`, `divide` and the prime-power sieve build it: the
        constructor's check is skipped."""
        f = object.__new__(cls)
        fields = f.__dict__
        fields["value"] = value
        fields["factors"] = factors
        return f

    def _key(self) -> tuple:
        return (self.value, self.factors)

    def primes(self) -> "PrimeSet":
        return PrimeSet._known(p for p, _ in self.factors)

    def divide(self, p: int) -> "Factorization":
        """The factorization of value // p, by lowering p's exponent; the
        prime p must divide value."""
        factors = []
        for r, k in self.factors:
            if r == p:
                k -= 1
            if k:
                factors.append((r, k))
        return Factorization._known(self.value // p, tuple(factors))


class PrimeSet(Frozen):
    """Immutable sorted set of primes with the usual set algebra."""

    primes: tuple[int, ...]
    _fields = ("primes",)

    def __init__(self, primes=()):  # accepts any iterable of primes
        ps = sorted(set(primes))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        vars(self).update(primes=tuple(ps))

    @classmethod
    def _known(cls, primes) -> "PrimeSet":
        """A PrimeSet of values already known to be prime, taken from
        `factor` or from another PrimeSet: the primality check is skipped."""
        ps = object.__new__(cls)
        ps.__dict__["primes"] = tuple(sorted(set(primes)))
        return ps

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.primes == other.primes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.primes,))

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __or__(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet._known(self.primes + other.primes)

    def __sub__(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet._known(p for p in self.primes if p not in other)

    def max(self) -> int:
        return max(self.primes)


def factor(n: int) -> Factorization:
    """Factor n >= 1 into primes.  factor(1) has an empty factor list."""
    m = n
    if 0 < n < _TABLE_BOUND:
        # Each entry is divided out in full, so every prime of the cofactor
        # is larger, and the cofactor left when the table reads 0 is 1 or a
        # prime above them all: the factors come in order.
        factors = []
        while p := _SMALLEST_FACTOR[m]:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        if m > 1:
            factors.append((m, 1))
        return Factorization._known(n, tuple(factors))
    if n < 1:
        raise ValueError("factor requires n >= 1")
    _check_range(n)
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            # Every prime below p is divided out, so m is 1 or prime.
            if m > 1:
                counts[m] = 1
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    else:
        stack = [m] if m > 1 else []
        while stack:
            m = stack.pop()
            if is_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return Factorization._known(n, tuple(sorted(counts.items())))


def prime_set(n: int) -> PrimeSet:
    """Set of distinct prime divisors of n >= 1."""
    return factor(n).primes()

