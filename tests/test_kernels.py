import numpy as np
import scipy.sparse

from semfab import fem


def spd_system(seed=1, n=150):
    rng = np.random.default_rng(seed)
    A = scipy.sparse.random(n, n, density=0.05, random_state=int(seed))
    A = (A @ A.T).tocsr() + scipy.sparse.identity(n, format="csr") * (0.05 * n)
    b = rng.normal(size=n)
    return A, b


def test_pcg_zero_rhs_returns_zero():
    # The sparse LU that replaced the PCG keeps its zero-rhs contract:
    # an exact zero solution and a zero backward error.
    A, _ = spd_system()
    b = np.zeros(A.shape[0])
    x = fem._sparse_factor(A).solve(b)
    assert np.all(x == 0.0)
    assert fem._backward_error(A, 1.0, x, b) == 0.0
