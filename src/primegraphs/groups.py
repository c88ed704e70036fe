"""Group catalog: orders, character degree sets and prime sets.

Covers four Lie-type families (PSL2, PSL3, PSU3, Suzuki), the small
alternating groups and a handful of sporadic groups, which together are all
the simple groups whose degree graphs this project reasons about.  Sporadic
and alternating degrees, and those of PSL3(4) and Sz(8), come from
plain-text tables in the bundled data directory, each named by the group's
canonical key and all loaded together on first use; everything else is
computed from closed formulas.

Everything that depends on which Lie family a group is in lives on one
`LieFamily` record per family, in `LIE_FAMILIES`: its parameters, its
cyclotomic factors, its order formula, its key prefix, its sweep cap,
White's structural rule, the PSL2 degree formula, the members that are
another group of the catalog (PSL2(4), PSL2(5), PSL2(9), PSL3(2)) and the
members the rule gets wrong.  A Lie-type spec carries its record, so every
family-dependent function is one attribute lookup on it.

Every order, degree and prime set of a Lie-type group is a product of a
few cyclotomic factors: q, q - 1, q + 1, q^2 + q + 1, q^2 - q + 1, and for
Suzuki Q + r + 1 and Q - r + 1.  A GroupSpec factors each of them once and
carries the factorizations; prime sets, degree sets and the structural
graphs read their primes from those, so no order is factored and the
63-bit range of `factor` bounds each factor, not their product.

Every sweep over a Lie family takes its specs from `family_specs`, which
lists the parameters its record names: the prime powers from the
`prime_powers` sieve, each handed out as its Factorization ((p, e),), or
for Suzuki the powers 2**(2m+1).  It builds the specs through the
unchecked `GroupSpec._known`, so a swept parameter is never factored again,
and swept specs arrive factored: `_known` factors the other cyclotomic
factors as it builds the spec.  The public constructor and
`GroupSpec.parse` factor the parameter and reject anything that the
record does not accept; their specs factor the rest on first use.
"""

from __future__ import annotations

import enum
import math
from functools import cache, cached_property, partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .arithmetic import (
    MAX_SUPPORTED,
    Factorization,
    Frozen,
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


class LieFamily(Frozen):
    """What a Lie-type family is, on one record per family.

    The parameters are the prime powers q = p^e >= `smallest` for which
    `admits(p, e)` holds, listed in [lo, hi] by `parameters(lo, hi)`, or by
    `prime_powers` when that is None; a checked spec with any other
    parameter is rejected with `rejects` (not an admitted prime power,
    formatted with the family and q) or `too_small`.  `rest(q)` gives the
    cyclotomic factors after q, and `order(q)` the exact order.
    `rule(pi, fs)` is White's structural rule, as cliques on the prime set
    pi read from the cyclotomic factorizations fs, and `degrees(q, fs)` the
    degree formula where one is implemented.
    `aliases` maps each member that is another group of the catalog to
    that group's spec; the rule is wrong on the members in
    `rule_exceptions`, whose graphs come from their degree sets.  `cap`
    bounds the family's sweep (`verify.Bounds`).  A record equals only
    itself.
    """

    _fields = ("family",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        family: Family,
        smallest: int,
        too_small: str,
        rest: Callable[[int], tuple[int, ...]],
        order: Callable[[int], int],
        key_prefix: str,
        cap: int,
        rule: Callable[[PrimeSet, tuple[Factorization, ...]], list],
        parameters: Optional[Callable[[int, int], Iterable[Factorization]]] = None,
        admits: Callable[[int, int], bool] = lambda p, e: True,
        rejects: str = "{} parameter must be a prime power, got {}",
        degrees: Optional[Callable[[int, tuple[Factorization, ...]], list]] = None,
        aliases: Mapping[int, "GroupSpec"] = MappingProxyType({}),
        rule_exceptions: frozenset[int] = frozenset(),
    ) -> None:
        vars(self).update(
            family=family, smallest=smallest, too_small=too_small, rest=rest, order=order,
            key_prefix=key_prefix, cap=cap, rule=rule, parameters=parameters, admits=admits,
            rejects=rejects, degrees=degrees, aliases=aliases, rule_exceptions=rule_exceptions,
        )

    def __reduce__(self) -> str:
        # One record per family: a copied or unpickled spec keeps it.
        return f"_{self.family.name}"


class GroupSpec(Frozen):
    """A simple group: a family tag plus parameter, or a sporadic name.

    Suzuki convention: the parameter is q**2 = 2**(2m+1), m >= 1.

    A Lie-type spec keeps `lie`, its family's record, and `factorization`,
    the factorization of its parameter made when the parameter is
    validated.  Its family's cyclotomic factors (`cyclotomic_factors`) are
    factored once: swept specs, from `family_specs`, arrive factored, and a
    spec from the checked constructor factors them on first use.  None of
    them takes part in equality.
    """

    family: Family
    parameter: Optional[int]
    name: Optional[str]
    factorization: Optional[Factorization]
    lie: Optional[LieFamily]
    _fields = ("family", "parameter", "name")

    def __init__(
        self, family: Family, parameter: Optional[int] = None, name: Optional[str] = None
    ) -> None:
        vars(self).update(
            family=family, parameter=parameter, name=name, factorization=None, lie=None
        )
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
        lie = LIE_FAMILIES[fam]
        fq = factor(q) if q >= 2 else None
        if fq is None or len(fq.factors) != 1 or not lie.admits(*fq.factors[0]):
            raise ValueError(lie.rejects.format(fam.value, q))
        if q < lie.smallest:
            raise ValueError(lie.too_small)
        vars(self).update(factorization=fq, lie=lie)

    @classmethod
    def _known(cls, lie: LieFamily, fq: Factorization) -> "GroupSpec":
        """A spec of the Lie family `lie` whose parameter, with
        factorization `fq`, is already known to be valid for it, as
        `family_specs` lists it: nothing is checked, and the parameter is
        not factored again.  The spec arrives factored: its
        `cyclotomic_factors` are stored in the instance dict here, where
        the cached property would only compute them later, and behind a
        lock."""
        spec = object.__new__(cls)
        q = fq.value
        fields = spec.__dict__
        fields["family"] = lie.family
        fields["parameter"] = q
        fields["name"] = None
        fields["factorization"] = fq
        fields["lie"] = lie
        fields["cyclotomic_factors"] = (fq, *map(factor, lie.rest(q)))
        return spec

    @cached_property
    def cyclotomic_factors(self) -> tuple[Factorization, ...]:
        """Factorizations of the family's cyclotomic factors, the parameter
        first; the primes of the order are the primes of these.  Read here
        only for specs from the checked constructor: `_known` stores them.

        PSL2: q, q-1, q+1.  PSL3: q, q-1, q+1, q^2+q+1.  PSU3: q, q-1, q+1,
        q^2-q+1.  Suzuki (parameter Q = q^2, r = sqrt(2Q)): Q, Q-1, Q+r+1,
        Q-r+1, where (Q+r+1)(Q-r+1) = Q^2+1.
        """
        if self.lie is None:
            raise UnsupportedFamilyError(f"no family rule for {self}")
        return (self.factorization, *map(factor, self.lie.rest(self.parameter)))

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


class DegreeSet(Frozen):
    """Sorted set of character degrees; always contains 1.

    `factorizations` holds each degree's factorization, in the same order;
    it does not take part in equality.  The constructor takes degrees as
    integers, which it factors, or as their Factorizations, which it keeps:
    `character_degrees` passes those for the Lie families, so only table
    groups and hand-built sets are factored here.
    """

    degrees: tuple[int, ...]
    factorizations: tuple[Factorization, ...]
    _fields = ("degrees",)

    def __init__(self, degrees) -> None:
        known: dict[int, Optional[Factorization]] = {}
        for d in degrees:
            if d.__class__ is Factorization:
                known[d.value] = d
            else:
                known.setdefault(d, None)
        ds = sorted(known)
        if not ds or ds[0] != 1 and 1 not in ds:
            raise ValueError("a degree set must contain 1")
        if ds[0] < 1:
            raise ValueError("degrees must be positive")
        fields = self.__dict__
        fields["degrees"] = tuple(ds)
        fields["factorizations"] = tuple([known[d] or factor(d) for d in ds])

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)


class DegreeTable(Frozen):
    """Full degree list with multiplicities, checked against the group order.

    The check is the column orthogonality relation: the multiplicity-weighted
    sum of squared degrees must equal the order exactly.
    """

    _fields = (
        "group", "order", "degrees_with_multiplicity", "maximal_indices", "projective_factors"
    )

    def __init__(
        self,
        group: str,
        order: int,
        degrees_with_multiplicity: tuple[tuple[int, int], ...],
        maximal_indices: tuple[int, ...] = (),
        projective_factors: tuple[int, ...] = (),
    ) -> None:
        vars(self).update(
            group=group, order=order, degrees_with_multiplicity=degrees_with_multiplicity,
            maximal_indices=maximal_indices, projective_factors=projective_factors,
        )
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


_TABLE_KEYS = frozenset({"order", "degrees", "maximal_indices", "projective_factors"})


def _load_table(path: Path) -> DegreeTable:
    fields: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _TABLE_KEYS:
            raise ValueError(f"{path.stem}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"{path.stem}: repeated key {key!r}")
        fields[key] = value.strip()
    for key in ("order", "degrees"):
        if key not in fields:
            raise ValueError(f"{path.stem}: missing key {key!r}")
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
# The Lie families.

# White's structural rules ("Degree graphs of simple groups", Rocky Mountain
# J. Math. 39, 2009), each a union of cliques on the prime set pi, read from
# the cyclotomic factorizations fs.

def _suzuki_rule(pi: PrimeSet, fs: tuple[Factorization, ...]) -> list:
    """Sz(Q), Q = q^2, r = sqrt(2Q): the odd primes, those of Q-1, Q+r+1
    and Q-r+1, form a clique, and 2 is adjacent to exactly the primes of
    Q-1."""
    f_q, f_minus, f_plus_r, f_minus_r = fs
    odd = f_minus.primes() | f_plus_r.primes() | f_minus_r.primes()
    return [odd, f_q.primes() | f_minus.primes()]


def _rank_two_rule(pi, f_q, split, torus, f_cyc) -> list:
    """PSL3(q), with split q-1, torus q+1 and f_cyc q^2+q+1, and PSU3(q),
    its mirror image, with split q+1, torus q-1 and f_cyc q^2-q+1: complete
    when the primes of the split factor lie in {2, 3}; otherwise every
    prime but the defining prime p forms one clique, and p another with the
    primes of the torus factor and of f_cyc.  All but pi are
    Factorizations."""
    if set(split.primes()) <= {2, 3}:
        return [pi]
    defining = f_q.primes()
    return [pi - defining, defining | torus.primes() | f_cyc.primes()]


# The trivial degree of every PSL2 degree set.
_ONE = Factorization(1, ())


def _psl2_degrees(q: int, fs: tuple[Factorization, ...]) -> list[Factorization]:
    f_q, f_minus, f_plus = fs
    degrees = [_ONE, f_minus, f_q, f_plus]
    if q % 2:
        # (q + 1)/2 when q = 1 mod 4, (q - 1)/2 when q = 3 mod 4
        degrees.append((f_plus if q % 4 == 1 else f_minus).divide(2))
    return degrees


def _odd_powers_of_two(lo: int, hi: int) -> list[Factorization]:
    """The powers 2**(2m+1) in [lo, hi], for lo itself such a power."""
    exponents = range(lo.bit_length() - 1, max(hi, 0).bit_length(), 2)
    return [Factorization._known(2**e, ((2, e),)) for e in exponents]


# The PSL2/PSL3/PSU3 sweeps sieve the primes up to the square root of their
# bound before the first group: about 1 s and 6 MiB at 10**12, gigabytes at
# 10**18.  The 63-bit range of `factor` caps the others: Suzuki parameters,
# powers of 2 that need no sieve, and PSL3 and PSU3 parameters, as
# q^2 + q + 1 or q^2 - q + 1 leaves that range for every prime power q
# above isqrt(MAX_SUPPORTED).
MAX_SIEVED_BOUND = 10**12
_SUZUKI_PARAMETER = "Suzuki parameter must be 2**(2m+1) with m >= 1"

_PSL2 = LieFamily(
    Family.PSL2, smallest=4, too_small="PSL2 parameter must be >= 4 (smaller groups are solvable)",
    rest=lambda q: (q - 1, q + 1), order=lambda q: q * (q * q - 1) // math.gcd(2, q - 1),
    key_prefix="psl2_", cap=MAX_SIEVED_BOUND, degrees=_psl2_degrees,
    # The defining prime p is isolated; for odd q, 2 is joined to all other
    # primes and odd primes are adjacent iff both divide q-1 or both divide
    # q+1; for even q the primes of q-1 and of q+1 form two separate
    # cliques.  So the cliques are the primes of q, q-1 and q+1.
    rule=lambda pi, fs: [[p for p, _ in f.factors] for f in fs],
    aliases={4: GroupSpec.alternating(5), 5: GroupSpec.alternating(5),
             9: GroupSpec.alternating(6)},
    rule_exceptions=frozenset({5}),  # PSL2(5) = A5, where the rule joins 2 and 3
)
_SUZUKI = LieFamily(
    Family.SUZUKI, smallest=8, too_small=_SUZUKI_PARAMETER, rejects=_SUZUKI_PARAMETER,
    parameters=_odd_powers_of_two, admits=lambda p, e: p == 2 and e % 2 == 1,
    rest=lambda q: (q - 1, q + math.isqrt(2 * q) + 1, q - math.isqrt(2 * q) + 1),
    order=lambda q: q * q * (q * q + 1) * (q - 1),  # the parameter is q**2
    key_prefix="sz", cap=MAX_SUPPORTED, rule=_suzuki_rule,
)
_PSL3 = LieFamily(
    Family.PSL3, smallest=2, too_small="PSL3 parameter must be >= 2",
    rest=lambda q: (q - 1, q + 1, q * q + q + 1),
    order=lambda q: q**3 * (q**3 - 1) * (q * q - 1) // math.gcd(3, q - 1),
    key_prefix="psl3_", cap=math.isqrt(MAX_SUPPORTED), rule=lambda pi, fs: _rank_two_rule(pi, *fs),
    aliases={2: GroupSpec._known(_PSL2, Factorization._known(7, ((7, 1),)))},
    # PSL3(2) = PSL2(7) and PSL3(4) are not complete, though the rule says so.
    rule_exceptions=frozenset({2, 4}),
)
_PSU3 = LieFamily(
    # q = 2 gives a solvable group of order 72, not a simple group.
    Family.PSU3, smallest=3, too_small="PSU3 parameter must be >= 3",
    rest=lambda q: (q - 1, q + 1, q * q - q + 1),
    order=lambda q: q**3 * (q**3 + 1) * (q * q - 1) // math.gcd(3, q + 1),
    key_prefix="psu3_", cap=math.isqrt(MAX_SUPPORTED),
    rule=lambda pi, fs: _rank_two_rule(pi, fs[0], fs[2], fs[1], fs[3]),
)

# Every Lie family's record, in sweep order: the order of the all_specs
# bounds and of the verify.Bounds fields named `<family value>_max`.
LIE_FAMILIES = MappingProxyType({lie.family: lie for lie in (_PSL2, _SUZUKI, _PSL3, _PSU3)})


def _alias(spec: GroupSpec) -> GroupSpec:
    """The spec itself, or the other group of the catalog that it is."""
    return spec if spec.lie is None else spec.lie.aliases.get(spec.parameter, spec)


def canonical_key(spec: GroupSpec) -> str:
    """Isomorphism-invariant key, folding the small cross-family aliases."""
    spec = _alias(spec)
    if spec.lie is not None:
        return f"{spec.lie.key_prefix}{spec.parameter}"
    if spec.family is Family.SPORADIC:
        return spec.name  # type: ignore[return-value]
    return f"a{spec.parameter}"


# ---------------------------------------------------------------------------
# Orders.

def group_order(spec: GroupSpec) -> int:
    """Exact order for every valid spec; it may exceed the 63-bit range
    that `factor` accepts."""
    if spec.lie is None:
        return _tables()[canonical_key(spec)].order
    return spec.lie.order(spec.parameter)


# ---------------------------------------------------------------------------
# Character degrees.

def character_degrees(spec: GroupSpec) -> DegreeSet:
    """Degree set from its family's degree formula (PSL2 today) or a
    bundled table; an aliased spec takes the degrees of the group it is, so
    no PSL2 spec left after the aliases is table-backed.

    PSL3/PSU3/Suzuki degree sets other than PSL3(4) and Sz(8) are not
    bundled; their graphs are built from their family's structural rule in
    the prime_graph module.
    """
    spec = _alias(spec)
    if spec.lie is None or spec.lie.degrees is None:
        table = _tables().get(canonical_key(spec))
        if table is None:
            raise UnsupportedFamilyError(f"no degree set for {spec}")
        return table.degree_set
    return DegreeSet(spec.lie.degrees(spec.parameter, spec.cyclotomic_factors))


# ---------------------------------------------------------------------------
# Prime sets.

def prime_set_of_group(spec: GroupSpec) -> PrimeSet:
    """The primes dividing the order.  A Lie-type group takes them from its
    cyclotomic factors, so its order is never factored: the order leaves the
    63-bit range of `factor` long before the factors do (Suzuki Q^2 + 1
    past Q = 2^31, PSL3 and PSU3 past q of about 55 000).  Table groups
    factor their order."""
    if spec.lie is None:
        return prime_set(group_order(spec))
    return PrimeSet._known([p for f in spec.cyclotomic_factors for p, _ in f.factors])


# ---------------------------------------------------------------------------
# Four-prime PSL2 classification.

def classify_four_prime_psl2(spec: GroupSpec) -> FourPrimeCase:
    """Classify a PSL2 group with exactly four prime divisors.

    The three recognizable patterns are: the parameter is itself the largest
    prime divisor; the parameter is 2**s with 2**s - 1 a Mersenne prime equal
    to the largest prime divisor; or the parameter is 3**t for a prime
    t >= 5.  Anything else returns NONE.
    """
    if spec.lie is not _PSL2:
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
    ascending: the parameters its record lists from its smallest on (PSL2
    q >= 4, PSL3 q >= 2, PSU3 q >= 3 and Suzuki q^2 = 2**(2m+1) with
    m >= 1), the parameters the checked constructor accepts."""
    lie = LIE_FAMILIES[family]
    return map(partial(GroupSpec._known, lie), (lie.parameters or prime_powers)(lie.smallest, hi))


def all_specs(
    psl2_max: int, suzuki_max: int, psl3_max: int, psu3_max: int
) -> Iterator[GroupSpec]:
    """Every implemented spec within the given family bounds, deduplicated
    so each isomorphism class appears once."""
    seen: set[str] = set()
    for spec in chain(
        map(GroupSpec.alternating, ALTERNATING_RANGE),
        map(GroupSpec.sporadic, SPORADIC_NAMES),
        *map(family_specs, LIE_FAMILIES, (psl2_max, suzuki_max, psl3_max, psu3_max)),
    ):
        key = canonical_key(spec)
        if key not in seen:
            seen.add(key)
            yield spec
