import pytest


def _census(n):
    """{group: [(name, left idempotent, right idempotent)]} of the 2n^2
    generators of the (2,2n) torus-link complement's neutral summand,
    written out group by group, independent of the library's loops."""
    even = range(2, 2 * n, 2)
    return {
        "ab": [("ab", 1, 1)],
        "a_y": [(f"a_y{j}", 1, 2) for j in even],
        "x_b": [(f"x{i}_b", 2, 1) for i in even],
        "xy": [
            (f"x{i}y{j}", 2, 2)
            for i in range(1, 2 * n)
            for j in range(1, 2 * n)
            if (i + j) % 2 == 0
        ],
    }


@pytest.fixture
def census_oracle():
    """The generator census of ``build_cfdd_full(n)`` as a function of n."""
    return _census
