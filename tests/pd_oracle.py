"""The junction block operator PD as a dense 2n x 2n matrix, built apart from
the gain: the oracle for r(PD)^2 = r(G) and for the block formulas that
kinnet takes r(PD) and ||PD|| from (_GainFactors.pd_blocks and .pd_norm).

Named apart from perfbench/oracles.py: pytest puts tests/ and perfbench/ on
sys.path, where a second `oracles` module would shadow that one.
"""

import math

import numpy as np

from kinnet.model import NetworkSpec
from kinnet.operators import BlockOperator, VelocityGrid, _gain_factors


def assemble_pd(spec: NetworkSpec, grid: VelocityGrid, lam: float) -> BlockOperator:
    """Antidiagonal junction block operator [[0, s*B_delay], [B_trace/s, 0]]
    with B_delay = B diag(laplace(lam)) and B_trace = diag(S(lam)).

    The scalar s balances the two block norms: a diagonal similarity that
    leaves the spectrum and the block product unchanged, so the squared
    spectral radius still equals the gain radius while the operator norm is
    the geometric mean of the block norms.
    """
    f = _gain_factors(spec, grid)
    b_delay = f.routed * f.laplace(lam)[None, :]
    survival = f.survival(lam)
    n_delay = BlockOperator(b_delay, f.weights).norm()
    n_trace = float(np.max(survival))  # norm of a diagonal operator
    if n_delay > 0.0 and n_trace > 0.0:
        s = math.sqrt(n_trace / n_delay)
    else:
        s = 1.0
    n = b_delay.shape[0]
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, n:] = s * b_delay
    mat[n:, :n] = np.diag(survival / s)
    return BlockOperator(matrix=mat, weights=np.concatenate([f.weights, f.weights]))
