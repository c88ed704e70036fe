"""Character-degree prime graphs of finite simple group families, with a
census of small regular graphs and a suite of machine-checked claims."""

from .arithmetic import (
    Factorization,
    PrimeSet,
    factor,
    is_prime,
    prime_set,
)
from .census import (
    Census,
    GraphClass,
    canonicalize,
    catalog,
    contains_clique,
    contains_subgraph,
    enumerate_regular,
    is_vertex_transitive,
    max_dominating_in_induced,
    named,
    triangle_count,
)
from .groups import (
    DegreeSet,
    DegreeTable,
    Family,
    FourPrimeCase,
    GroupSpec,
    UnsupportedFamilyError,
    character_degrees,
    classify_four_prime_psl2,
    degree_table,
    group_order,
    prime_set_of_group,
)
from .prime_graph import (
    PrimeGraph,
    graph_from_degrees,
    graph_of,
    product_graph,
    structural_graph,
)
from .verify import Bounds, Report, run_all, run_one

__all__ = [name for name in dir() if not name.startswith("_")]
