"""Group catalog: orders, character degree sets and prime sets.

Covers four Lie-type families (PSL2, PSL3, PSU3, Suzuki), the small
alternating groups and a handful of sporadic groups, which together are all
the simple groups whose degree graphs this project reasons about.  Sporadic
and alternating degrees, and those of PSL3(4) and Sz(8), come from
plain-text tables in the bundled data directory, each named by the group's
canonical key and all loaded together on first use; everything else is
computed from closed formulas.  One
alias map sends the small Lie-type specs that are other groups of the
catalog (PSL2(4), PSL2(5), PSL2(9), PSL3(2)) to those groups.

Every order, degree and prime set of a Lie-type group is a product of a
few cyclotomic factors: q, q - 1, q + 1, q^2 + q + 1, q^2 - q + 1, and for
Suzuki Q + r + 1 and Q - r + 1.  A GroupSpec factors each of them once and
carries the factorizations; prime sets, degree sets and the structural
graphs read their primes from those, so no order is factored and the
63-bit range of `factor` bounds each factor, not their product.

Every sweep over a Lie family takes its specs from `family_specs`, the one
place that knows which parameters each family has: the prime powers from
the `prime_powers` sieve, each handed out as its Factorization ((p, e),),
or for Suzuki the powers 2**(2m+1).  It builds the specs through the
unchecked `GroupSpec._known`, so a swept parameter is never factored again.
The public constructor and `GroupSpec.parse` factor the parameter and
reject anything that is not a valid one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .arithmetic import (
    Factorization,
    PrimeSet,
    factor,
    is_prime,
    prime_flags,
    prime_set,
)

_DATA_DIR = Path(__file__).parent / "data"

SPORADIC_NAMES = ("j1", "m11", "m23")
ALTERNATING_RANGE = (5, 6, 7, 8)


class Family(enum.Enum):
    PSL2 = "psl2"
    SUZUKI = "suzuki"
    PSL3 = "psl3"
    PSU3 = "psu3"
    SPORADIC = "sporadic"
    ALTERNATING = "alt"


class UnsupportedFamilyError(ValueError):
    """Raised when an operation has no data for the requested family."""


class FourPrimeCase(enum.Enum):
    CASE_R = "r"            # q itself is the largest prime divisor
    CASE_MERSENNE = "mersenne"  # q = 2**s with 2**s - 1 a Mersenne prime
    CASE_3T = "3t"          # q = 3**t for a prime t >= 5
    NONE = "none"


@dataclass(frozen=True)
class GroupSpec:
    """A simple group: a family tag plus parameter, or a sporadic name.

    Suzuki convention: the parameter is q**2 = 2**(2m+1), m >= 1.

    A Lie-type spec keeps `factorization`, the factorization of its
    parameter made when the parameter is validated, and factors the rest of
    its family's cyclotomic factors once, on first use
    (`cyclotomic_factors`).  Neither takes part in equality.
    """

    family: Family
    parameter: Optional[int] = None
    name: Optional[str] = None
    factorization: Optional[Factorization] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        fam, q = self.family, self.parameter
        if fam is Family.SPORADIC:
            if self.name not in SPORADIC_NAMES:
                raise ValueError(f"unknown sporadic group {self.name!r}")
            return
        if self.name is not None:
            raise ValueError("name is only valid for sporadic groups")
        if q is None:
            raise ValueError(f"{fam.value} requires a parameter")
        if fam is Family.ALTERNATING:
            if q not in ALTERNATING_RANGE:
                raise ValueError(f"alternating degree must be in {ALTERNATING_RANGE}")
            return
        fq = factor(q) if q >= 2 else None
        pf = fq.factors[0] if fq is not None and len(fq.factors) == 1 else None
        if fam is Family.SUZUKI:
            if pf is None or pf[0] != 2 or pf[1] < 3 or pf[1] % 2 == 0:
                raise ValueError("Suzuki parameter must be 2**(2m+1) with m >= 1")
        elif pf is None:
            raise ValueError(f"{fam.value} parameter must be a prime power, got {q}")
        if fam is Family.PSL2 and q < 4:
            raise ValueError("PSL2 parameter must be >= 4 (smaller groups are solvable)")
        if fam is Family.PSU3 and q < 3:
            # q = 2 gives a solvable group of order 72, not a simple group.
            raise ValueError("PSU3 parameter must be >= 3")
        object.__setattr__(self, "factorization", fq)

    @classmethod
    def _known(cls, family: Family, fq: Factorization) -> "GroupSpec":
        """A Lie-type spec of `family` whose parameter, with factorization
        `fq`, is already known to be valid for it, as `family_specs` lists
        it: nothing is factored or checked."""
        spec = object.__new__(cls)
        vars(spec).update(
            family=family, parameter=fq.value, name=None, factorization=fq
        )
        return spec

    @cached_property
    def cyclotomic_factors(self) -> tuple[Factorization, ...]:
        """Factorizations of the family's cyclotomic factors, the parameter
        first; the primes of the order are the primes of these.

        PSL2: q, q-1, q+1.  PSL3: q, q-1, q+1, q^2+q+1.  PSU3: q, q-1, q+1,
        q^2-q+1.  Suzuki (parameter Q = q^2, r = sqrt(2Q)): Q, Q-1, Q+r+1,
        Q-r+1, where (Q+r+1)(Q-r+1) = Q^2+1.
        """
        fam, q = self.family, self.parameter
        if fam is Family.PSL2:
            rest = (q - 1, q + 1)
        elif fam is Family.PSL3:
            rest = (q - 1, q + 1, q * q + q + 1)
        elif fam is Family.PSU3:
            rest = (q - 1, q + 1, q * q - q + 1)
        elif fam is Family.SUZUKI:
            r = math.isqrt(2 * q)
            rest = (q - 1, q + r + 1, q - r + 1)
        else:
            raise UnsupportedFamilyError(f"no family rule for {self}")
        return (self.factorization, *map(factor, rest))

    def __str__(self) -> str:
        if self.family is Family.SPORADIC:
            return f"sporadic {self.name}"
        return f"{self.family.value} {self.parameter}"

    @classmethod
    def psl2(cls, q: int) -> "GroupSpec":
        return cls(Family.PSL2, q)

    @classmethod
    def suzuki(cls, q2: int) -> "GroupSpec":
        return cls(Family.SUZUKI, q2)

    @classmethod
    def psl3(cls, q: int) -> "GroupSpec":
        return cls(Family.PSL3, q)

    @classmethod
    def psu3(cls, q: int) -> "GroupSpec":
        return cls(Family.PSU3, q)

    @classmethod
    def sporadic(cls, name: str) -> "GroupSpec":
        return cls(Family.SPORADIC, name=name.lower())

    @classmethod
    def alternating(cls, n: int) -> "GroupSpec":
        return cls(Family.ALTERNATING, n)

    @classmethod
    def parse(cls, family: str, arg: str) -> "GroupSpec":
        fam = Family(family.lower())
        if fam is Family.SPORADIC:
            return cls.sporadic(arg)
        return cls(fam, int(arg))


@dataclass(frozen=True)
class DegreeSet:
    """Sorted set of character degrees; always contains 1.

    `factorizations` holds each degree's factorization, in the same order;
    it does not take part in equality.  The constructor takes degrees as
    integers, which it factors, or as their Factorizations, which it keeps:
    `character_degrees` passes those for the Lie families, so only table
    groups and hand-built sets are factored here.
    """

    degrees: tuple[int, ...]
    factorizations: tuple[Factorization, ...] = field(compare=False, repr=False)

    def __init__(self, degrees) -> None:
        known: dict[int, Optional[Factorization]] = {}
        for d in degrees:
            if isinstance(d, Factorization):
                known[d.value] = d
            else:
                known.setdefault(d, None)
        ds = sorted(known)
        if not ds or ds[0] != 1 and 1 not in ds:
            raise ValueError("a degree set must contain 1")
        if ds[0] < 1:
            raise ValueError("degrees must be positive")
        object.__setattr__(self, "degrees", tuple(ds))
        object.__setattr__(
            self, "factorizations", tuple(known[d] or factor(d) for d in ds)
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class DegreeTable:
    """Full degree list with multiplicities, checked against the group order.

    The check is the column orthogonality relation: the multiplicity-weighted
    sum of squared degrees must equal the order exactly.
    """

    group: str
    order: int
    degrees_with_multiplicity: tuple[tuple[int, int], ...]
    maximal_indices: tuple[int, ...] = ()
    projective_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        total = sum(m * d * d for d, m in self.degrees_with_multiplicity)
        if total != self.order:
            raise ValueError(
                f"{self.group}: sum of multiplicity*degree^2 is {total}, "
                f"expected order {self.order}"
            )
        mults = dict(self.degrees_with_multiplicity)
        if mults.get(1, 0) < 1:
            raise ValueError(f"{self.group}: degree 1 missing")

    @cached_property
    def degree_set(self) -> DegreeSet:
        # Built on first use, not at load, so loading a table factors nothing.
        return DegreeSet(d for d, _ in self.degrees_with_multiplicity)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _load_table(path: Path) -> DegreeTable:
    fields: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    degrees = tuple(
        (int(d), int(m))
        for d, m in (tok.split(":") for tok in fields["degrees"].split(","))
    )
    return DegreeTable(
        group=path.stem,
        order=int(fields["order"]),
        degrees_with_multiplicity=degrees,
        maximal_indices=_parse_int_list(fields.get("maximal_indices", "")),
        projective_factors=_parse_int_list(fields.get("projective_factors", "")),
    )


@cache
def _tables() -> Mapping[str, DegreeTable]:
    """Every bundled degree table by name, in sorted order, loaded once, as
    a read-only view.  The graph catalog shares the data directory and is
    not a table."""
    paths = sorted(_DATA_DIR.glob("*.txt"), key=lambda p: p.stem)
    return MappingProxyType(
        {p.stem: _load_table(p) for p in paths if p.stem != "catalog"}
    )


def degree_table(name: str) -> DegreeTable:
    name = name.lower()
    try:
        return _tables()[name]
    except KeyError:
        raise KeyError(f"no bundled degree table {name!r}") from None


def bundled_table_names() -> tuple[str, ...]:
    return tuple(_tables())


# ---------------------------------------------------------------------------
# Aliases between small members of different families.

# Small Lie-type specs that are, up to isomorphism, another group of the
# catalog; keys, table lookups and degree sets all go through this map.
_ALIASES = {
    (Family.PSL2, 4): GroupSpec.alternating(5),
    (Family.PSL2, 5): GroupSpec.alternating(5),
    (Family.PSL2, 9): GroupSpec.alternating(6),
    (Family.PSL3, 2): GroupSpec.psl2(7),
}


def canonical_key(spec: GroupSpec) -> str:
    """Isomorphism-invariant key, folding the small cross-family aliases."""
    spec = _ALIASES.get((spec.family, spec.parameter), spec)
    if spec.family is Family.SPORADIC:
        return spec.name  # type: ignore[return-value]
    if spec.family is Family.ALTERNATING:
        return f"a{spec.parameter}"
    if spec.family is Family.SUZUKI:
        return f"sz{spec.parameter}"
    return f"{spec.family.value}_{spec.parameter}"


# ---------------------------------------------------------------------------
# Orders.

def group_order(spec: GroupSpec) -> int:
    """Exact order for every valid spec; it may exceed the 63-bit range
    that `factor` accepts."""
    fam, q = spec.family, spec.parameter
    if fam is Family.PSL2:
        return q * (q * q - 1) // math.gcd(2, q - 1)
    if fam is Family.PSL3:
        return q**3 * (q**3 - 1) * (q * q - 1) // math.gcd(3, q - 1)
    if fam is Family.PSU3:
        return q**3 * (q**3 + 1) * (q * q - 1) // math.gcd(3, q + 1)
    if fam is Family.SUZUKI:
        return q * q * (q * q + 1) * (q - 1)  # parameter is q**2
    return _tables()[canonical_key(spec)].order


# ---------------------------------------------------------------------------
# Character degrees.

# The trivial degree of every PSL2 degree set.
_ONE = Factorization(1, ())


def character_degrees(spec: GroupSpec) -> DegreeSet:
    """Degree set from the PSL2 closed formula or a bundled table; an
    aliased spec takes the degrees of the group it is, so no PSL2 spec
    left after the alias map is table-backed.

    PSL3/PSU3/Suzuki degree sets other than PSL3(4) and Sz(8) are not
    bundled; their graphs are built structurally in the prime_graph module.
    """
    spec = _ALIASES.get((spec.family, spec.parameter), spec)
    if spec.family is not Family.PSL2:
        table = _tables().get(canonical_key(spec))
        if table is None:
            raise UnsupportedFamilyError(f"no degree set for {spec}")
        return table.degree_set
    q = spec.parameter
    f_q, f_minus, f_plus = spec.cyclotomic_factors
    degrees = [_ONE, f_minus, f_q, f_plus]
    if q % 2:
        # (q + 1)/2 when q = 1 mod 4, (q - 1)/2 when q = 3 mod 4
        degrees.append((f_plus if q % 4 == 1 else f_minus).divide(2))
    return DegreeSet(degrees)


# ---------------------------------------------------------------------------
# Prime sets.

def prime_set_of_group(spec: GroupSpec) -> PrimeSet:
    """The primes dividing the order.  A Lie-type group takes them from its
    cyclotomic factors, so its order is never factored: the order leaves the
    63-bit range of `factor` long before the factors do (Suzuki Q^2 + 1
    past Q = 2^31, PSL3 and PSU3 past q of about 55 000).  Table groups
    factor their order."""
    if spec.family in (Family.SPORADIC, Family.ALTERNATING):
        return prime_set(group_order(spec))
    return PrimeSet._known(p for f in spec.cyclotomic_factors for p, _ in f.factors)


# ---------------------------------------------------------------------------
# Four-prime PSL2 classification.

def classify_four_prime_psl2(spec: GroupSpec) -> FourPrimeCase:
    """Classify a PSL2 group with exactly four prime divisors.

    The three recognizable patterns are: the parameter is itself the largest
    prime divisor; the parameter is 2**s with 2**s - 1 a Mersenne prime equal
    to the largest prime divisor; or the parameter is 3**t for a prime
    t >= 5.  Anything else returns NONE.
    """
    if spec.family is not Family.PSL2:
        raise ValueError("classification applies to PSL2 specs only")
    pi = prime_set_of_group(spec)
    if len(pi) != 4:
        raise ValueError(f"{spec} has {len(pi)} prime divisors, need 4")
    [(p, f)] = spec.factorization.factors  # type: ignore[union-attr]
    if f == 1 and p == pi.max():
        return FourPrimeCase.CASE_R
    # pi.max() is prime, so 2**f - 1 equal to it is a Mersenne prime.
    if p == 2 and 2**f - 1 == pi.max():
        return FourPrimeCase.CASE_MERSENNE
    if p == 3 and f >= 5 and is_prime(f):
        return FourPrimeCase.CASE_3T
    return FourPrimeCase.NONE


# ---------------------------------------------------------------------------
# Sweep helpers.

# Integers sieved at a time by prime_powers; one window covers every sweep
# up to this bound.
_SIEVE_WINDOW = 1 << 18


def prime_powers(lo: int, hi: int) -> Iterator[Factorization]:
    """The prime powers q = p^e in [lo, hi], ascending, each as its
    factorization ((p, e),).

    A segmented sieve, no factoring: the primes up to isqrt(hi) are sieved
    once, then [lo, hi] is sieved in windows of at most _SIEVE_WINDOW
    integers, and the higher powers of those primes that fall in a window
    are marked back in.  A position left marked is a prime unless it is one
    of those powers, whose p and e are kept from when they were listed.
    Memory grows with isqrt(hi), not with hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return
    base = [p for p, f in enumerate(prime_flags(math.isqrt(hi))) if f]
    powers = []
    for p in base:
        power, e = p * p, 2
        while power <= hi:
            if power >= lo:
                powers.append((power, p, e))
            power, e = power * p, e + 1
    powers.sort(reverse=True)
    for start in range(lo, hi + 1, _SIEVE_WINDOW):
        size = min(_SIEVE_WINDOW, hi + 1 - start)
        end = start + size
        flags = bytearray([1]) * size
        for p in base:
            if p * p >= end:
                break
            first = max(p * p, -(-start // p) * p) - start
            flags[first::p] = bytes(len(range(first, size, p)))
        known = {}
        while powers and powers[-1][0] < end:
            power, p, e = powers.pop()
            flags[power - start] = 1
            known[power] = ((p, e),)
        pos = flags.find(1)
        while pos >= 0:
            q = start + pos
            yield Factorization._known(q, known.get(q) or ((q, 1),))
            pos = flags.find(1, pos + 1)


def family_specs(family: Family, hi: int) -> Iterator[GroupSpec]:
    """Every spec of the Lie family `family` with parameter <= hi,
    ascending: PSL2 q >= 4, PSL3 q >= 2, PSU3 q >= 3 and Suzuki q^2 =
    2**(2m+1) with m >= 1, the parameters the checked constructor accepts."""
    if family is Family.SUZUKI:
        params = [
            Factorization._known(2**e, ((2, e),))
            for e in range(3, max(hi, 0).bit_length(), 2)
        ]
    else:
        lo = {Family.PSL2: 4, Family.PSL3: 2, Family.PSU3: 3}[family]
        params = prime_powers(lo, hi)
    return map(partial(GroupSpec._known, family), params)


def all_specs(
    psl2_max: int, suzuki_max: int, psl3_max: int, psu3_max: int
) -> Iterator[GroupSpec]:
    """Every implemented spec within the given family bounds, deduplicated
    so each isomorphism class appears once."""
    seen: set[str] = set()
    for spec in chain(
        map(GroupSpec.alternating, ALTERNATING_RANGE),
        map(GroupSpec.sporadic, SPORADIC_NAMES),
        family_specs(Family.PSL2, psl2_max),
        family_specs(Family.SUZUKI, suzuki_max),
        family_specs(Family.PSL3, psl3_max),
        family_specs(Family.PSU3, psu3_max),
    ):
        key = canonical_key(spec)
        if key not in seen:
            seen.add(key)
            yield spec
