import pytest

from primegraphs.census import enumerate_regular, enumerate_regular_oracle


@pytest.fixture(scope="session")
def oracle_cells():
    """(enumerate_regular(n, k), enumerate_regular_oracle(n, k)) for every
    cell with 2 <= n <= 8, keyed by (n, k).  Two tests compare the pairs.
    The fixture exists for the oracle: enumerate_regular is cached per
    process already, while the oracle stays an uncached recomputation that
    canonicalizes every labeled graph, so it runs once a session here."""
    return {
        (n, k): (enumerate_regular(n, k), enumerate_regular_oracle(n, k))
        for n in range(2, 9)
        for k in range(n)
    }
