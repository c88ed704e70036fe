"""The package's twelve value classes: one instance of each, with its repr,
the fields its equality and hash compare and those they ignore, checked for
immutability and for surviving copy, deepcopy and pickle."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import primegraphs
from primegraphs.arithmetic import PrimeSet, factor
from primegraphs.census import Census, canonicalize, rows_from_edges
from primegraphs.groups import LIE_FAMILIES, DegreeSet, DegreeTable, Family, GroupSpec, LieFamily
from primegraphs.prime_graph import PrimeGraph
from primegraphs.verify import Bounds, Report, ReportEntry

_PATH = canonicalize(rows_from_edges(3, [(0, 1), (1, 2)]))
_TRIANGLE = canonicalize(rows_from_edges(3, [(0, 1), (1, 2), (0, 2)]))
_ENTRY = ReportEntry("x", "pass", "ok", 0.5)
_ENTRY_REPR = "ReportEntry(id='x', status='pass', detail='ok', elapsed=0.5)"

# (instance, repr, fields equality and hashing compare, fields they ignore)
VALUES = {
    "Factorization": (
        factor(12), "Factorization(value=12, factors=((2, 2), (3, 1)))",
        ("value", "factors"), (),
    ),
    "PrimeSet": (PrimeSet([3, 2]), "PrimeSet(primes=(2, 3))", ("primes",), ()),
    "GraphClass": (_PATH, "GraphClass(rows=(4, 4, 3))", ("rows",), ("transitive",)),
    "Census": (
        Census(3, 2, (_TRIANGLE,)), "Census(n=3, k=2, classes=(GraphClass(rows=(6, 5, 3)),))",
        ("n", "k", "classes"), (),
    ),
    "GroupSpec": (
        GroupSpec.psl2(11), "GroupSpec(family=<Family.PSL2: 'psl2'>, parameter=11, name=None)",
        ("family", "parameter", "name"), ("factorization", "lie"),
    ),
    "DegreeSet": (
        DegreeSet([1, 2, 3]), "DegreeSet(degrees=(1, 2, 3))", ("degrees",), ("factorizations",),
    ),
    "DegreeTable": (
        DegreeTable("s3", 6, ((1, 2), (2, 1))),
        "DegreeTable(group='s3', order=6, degrees_with_multiplicity=((1, 2), (2, 1)), "
        "maximal_indices=(), projective_factors=())",
        ("group", "order", "degrees_with_multiplicity", "maximal_indices", "projective_factors"),
        (),
    ),
    "PrimeGraph": (
        PrimeGraph([2, 3, 5], [(2, 3)]),
        "PrimeGraph(vertices=PrimeSet(primes=(2, 3, 5)), rows=(2, 1, 0))",
        ("vertices", "rows"), (),
    ),
    "Bounds": (
        Bounds(),
        "Bounds(psl2_max=10000, suzuki_max=32768, psl3_max=200, psu3_max=200, "
        "product_trials=1000, seed=20260823)",
        ("psl2_max", "suzuki_max", "psl3_max", "psu3_max", "product_trials", "seed"), (),
    ),
    "ReportEntry": (_ENTRY, _ENTRY_REPR, ("id", "status", "detail", "elapsed"), ()),
    "Report": (Report((_ENTRY,)), f"Report(entries=({_ENTRY_REPR},))", ("entries",), ()),
}

_PSL2 = LIE_FAMILIES[Family.PSL2]


def _with(original, /, **fields):
    """A copy of original with the given fields overwritten in place."""
    twin = copy.copy(original)
    for name, field_value in fields.items():
        object.__setattr__(twin, name, field_value)
    return twin


def test_every_value_class_is_pinned():
    assert sorted(type(v[0]).__name__ for v in VALUES.values()) == sorted(VALUES)
    assert isinstance(_PSL2, LieFamily)


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_pinned(name):
    value, text, _, _ = VALUES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", VALUES)
def test_hash_is_that_of_the_compared_fields(name):
    value, _, compared, _ = VALUES[name]
    assert hash(value) == hash(tuple(getattr(value, f) for f in compared))


@pytest.mark.parametrize("name", VALUES)
def test_equality_reads_the_compared_fields_only(name):
    value, _, compared, ignored = VALUES[name]
    marker = object()
    for field in ignored:
        twin = _with(value, **{field: marker})
        assert twin == value and hash(twin) == hash(value)
    for field in compared:
        assert _with(value, **{field: marker}) != value
    assert value != object() and value != tuple(getattr(value, f) for f in compared)


@pytest.mark.parametrize("name", VALUES)
def test_assigning_or_deleting_an_attribute_raises(name):
    value, _, compared, ignored = VALUES[name]
    for field in (*compared, *ignored, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == VALUES[name][1]


@pytest.mark.parametrize("name", VALUES)
def test_copies_and_pickles_are_equal(name):
    value = VALUES[name][0]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_lie_family_records_compare_by_identity():
    for twin in (copy.copy(_PSL2), copy.deepcopy(_PSL2), pickle.loads(pickle.dumps(_PSL2))):
        assert twin is _PSL2
    rebuilt = LieFamily(**vars(_PSL2))
    assert rebuilt != _PSL2 and rebuilt == rebuilt
    assert hash(_PSL2) == object.__hash__(_PSL2)
    with pytest.raises(AttributeError):
        _PSL2.cap = 0
    with pytest.raises(AttributeError):
        del _PSL2.cap


def test_graph_classes_order_by_rows():
    assert _PATH < _TRIANGLE and _TRIANGLE > _PATH
    assert _PATH <= _PATH and _PATH >= _PATH
    assert sorted([_TRIANGLE, _PATH]) == [_PATH, _TRIANGLE]
    with pytest.raises(TypeError):
        _PATH < (4, 4, 3)


def test_cached_properties_survive_copies():
    spec, table = GroupSpec.psl2(11), DegreeTable("s3", 6, ((1, 2), (2, 1)))
    assert spec.cyclotomic_factors is spec.cyclotomic_factors
    assert table.degree_set is table.degree_set == DegreeSet([1, 2])
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin == table and twin.degree_set == table.degree_set
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin.cyclotomic_factors == spec.cyclotomic_factors


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # Together they cost about a quarter of every launch's set-up; json,
    # which only `graph --format json` and `verify --json` use, is loaded
    # by the method that writes it.
    src = str(Path(primegraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, primegraphs, primegraphs.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
