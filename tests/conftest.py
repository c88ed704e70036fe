import pytest

from primegraphs.census import enumerate_regular, enumerate_regular_oracle


@pytest.fixture(scope="session")
def oracle_cells():
    """(enumerate_regular(n, k), enumerate_regular_oracle(n, k)) for every
    cell with 2 <= n <= 8, keyed by (n, k).  Two tests compare the pairs;
    the oracle canonicalizes every labeled graph, so it runs once a session."""
    return {
        (n, k): (enumerate_regular(n, k), enumerate_regular_oracle(n, k))
        for n in range(2, 9)
        for k in range(n)
    }
