import numpy as np
import pytest
from hypothesis import settings

# Property tests run a fixed, derandomized set of examples: the same inputs and
# the same run time on every run.
settings.register_profile("riccatint", max_examples=60, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("riccatint")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def brute_force_matmul(a, b):
    """Triple-loop matrix product, independent of numpy's matmul path."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for r in range(k):
                acc += a[i, r] * b[r, j]
            out[i, j] = acc
    return out
