"""Velocity-discretized junction operators and their closed-form norm bounds.

All operators act on junction flux data indexed by (circle, velocity cell)
with the weighted l1 norm sum_{j,k} |g[j,k]| * dv_k. Velocity quadrature is
the midpoint rule on uniform cells, which keeps every operator entrywise
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError
from .model import (CircleSpec, NetworkSpec, measure_laplace, network_bounds)

MAX_ARRAY_VALUES = 2**27  # float64 values in one dense array (1 GiB)


def _check_operator_size(n: int) -> None:
    """The junction block operator holds (2 n)^2 values for n = J K."""
    if (2 * n) ** 2 > MAX_ARRAY_VALUES:
        raise ValidationError(f"{n} (circle, velocity cell) pairs give junction "
                              f"operators over {MAX_ARRAY_VALUES} values")


@dataclass(frozen=True, eq=False)
class VelocityGrid:
    """Midpoint quadrature cells over [v_min, v_max]."""

    edges: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    @classmethod
    def uniform(cls, v_min: float, v_max: float, k: int) -> "VelocityGrid":
        if k < 1:
            raise DomainError("velocity grid needs at least one cell")
        _check_operator_size(k)
        edges = np.linspace(v_min, v_max, k + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        for a in (edges, centers, widths):
            a.setflags(write=False)
        return cls(edges=edges, centers=centers, widths=widths)

    @classmethod
    def for_spec(cls, spec: NetworkSpec, k: int = 16) -> "VelocityGrid":
        return cls.uniform(spec.v_min, spec.v_max, k)

    @property
    def k(self) -> int:
        return len(self.centers)


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Nonnegative dense matrix over flattened (circle, velocity cell) indices.

    weights holds the dv quadrature weight of each flattened index; the
    operator norm is the induced norm on the correspondingly weighted l1 space.
    """

    matrix: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DomainError("block operator matrix must be square")
        if self.matrix.shape[0] != len(self.weights):
            raise DomainError("weights length must match matrix dimension")

    def norm(self) -> float:
        """Max over columns of weighted column sums (weighted l1 induced norm)."""
        if len(self.weights) == 0:
            return 0.0
        col = self.weights @ np.abs(self.matrix)  # sum_r |A[r,c]| * w_r
        return float(np.max(col / self.weights))


@dataclass(frozen=True, eq=False)
class GainAssemblyReport:
    lam: float
    operator: BlockOperator


def survival_factor(circle: CircleSpec, lam: float, v: float, x: float) -> float:
    """Transport survival exp(-int_0^x (lam + q(y,v))/v dy) along a circle."""
    if not (0.0 <= x <= circle.length + 1e-12):
        raise DomainError(f"position {x} outside [0, {circle.length}]")
    exponent = (lam * x + circle.absorption.integral_x(x, v)) / v
    # clamp to stay finite for extreme shifts probed during bracketing
    return math.exp(min(-exponent, 700.0))


def scattering_table(circle: CircleSpec, grid: VelocityGrid) -> np.ndarray:
    """Circle's junction kernel on the grid: entry [k, k'] = beta(v_k, v_k')
    * v_k' * dv_k'."""
    v = grid.centers
    return circle.scattering.beta(v[:, None], v[None, :]) * (v * grid.widths)[None, :]


def _routed_scattering(spec: NetworkSpec, grid: VelocityGrid) -> np.ndarray:
    """Shift-free factor B of the gain: maps trace data of incoming circle j
    to inflow of outgoing circle i.

    Entry [(i,k),(j,k')] = w_ij * beta_j(v_k, v_k') * v_k' * dv_k' / v_k.
    """
    J, K = spec.n_circles, grid.k
    _check_operator_size(J * K)
    tables = np.stack([scattering_table(c, grid) for c in spec.circles])
    tables /= grid.centers[None, :, None]
    b = spec.routing[:, None, :, None] * tables.transpose(1, 0, 2)[None]
    return b.reshape(J * K, J * K)


@dataclass(frozen=True, eq=False)
class _GainFactors:
    """Shift-free parts of G(lam) = B diag(laplace(lam) S(lam)), built once.

    routed is B; length, absorbed and velocity hold, per flattened column
    (j, k'), the circle length l_j, the absorption integral
    Q_j(v_k') = int_0^{l_j} q_j(., v_k') and the velocity v_k'. Per shift
    only the J Laplace factors and one vector exp remain.
    """

    measures: tuple
    k: int
    routed: np.ndarray
    length: np.ndarray
    absorbed: np.ndarray
    velocity: np.ndarray
    weights: np.ndarray

    def laplace(self, lam: float) -> np.ndarray:
        """Delay Laplace factor laplace_j(lam) of each flattened (j, k')."""
        return np.repeat([measure_laplace(m, lam) for m in self.measures], self.k)

    def survival(self, lam: float) -> np.ndarray:
        """survival_factor from the junction to the trace at x = l_j of each
        flattened (j, k'), with the same clamp."""
        return np.exp(np.minimum(-(lam * self.length + self.absorbed) / self.velocity,
                                 700.0))

    def gain(self, lam: float) -> BlockOperator:
        scale = self.laplace(lam) * self.survival(lam)
        return BlockOperator(matrix=self.routed * scale[None, :], weights=self.weights)


def _gain_factors(spec: NetworkSpec, grid: VelocityGrid) -> _GainFactors:
    v = grid.centers
    return _GainFactors(
        measures=tuple(c.delay_measure for c in spec.circles),
        k=grid.k,
        routed=_routed_scattering(spec, grid),
        length=np.repeat([c.length for c in spec.circles], grid.k),
        absorbed=np.concatenate([c.absorption.integral_x(c.length, v)
                                 for c in spec.circles]),
        velocity=np.tile(v, spec.n_circles),
        weights=np.tile(grid.widths, spec.n_circles))


def assemble_gain(spec: NetworkSpec, grid: VelocityGrid, lam: float) -> GainAssemblyReport:
    """Discretized junction gain operator G(lam) = B diag(laplace(lam) S(lam)).

    Delayed scatter-route (incoming circle's measure and kernel) after
    transport survival, per the transmission conditions: only the column
    (j, k') of an entry depends on lam.
    """
    return GainAssemblyReport(lam=lam, operator=_gain_factors(spec, grid).gain(lam))


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


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where it passes float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _bound_product(*factors: float) -> float:
    """Product of nonnegative bound factors, one of them possibly inf: zero
    when a factor is zero, never inf * 0 = nan."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def pd_norm_closed_form(spec: NetworkSpec) -> float:
    """Closed-form bound max{var_bar * v_max/v_min, e^{l_bar*gamma_bar/v_min} * ||M||},
    inf where it passes float range.

    Valid only for mass-preserving scattering.
    """
    if not spec.mass_preserving:
        raise PreconditionError(
            "junction norm bound requires the mass_preserving flag")
    return max(network_bounds(spec).var_bar * spec.v_max / spec.v_min,
               _bound_product(*dirichlet_norm_closed_form(spec)))


def dirichlet_norm_closed_form(spec: NetworkSpec) -> tuple[float, float]:
    """Closed-form bounds (||D_0|| <= e^{l_bar*gamma_bar/v_min}, ||K|| <= ||M||);
    the first is inf where the exponential passes float range."""
    b = network_bounds(spec)
    return (_exp_or_inf(b.l_bar * b.gamma_bar / spec.v_min), b.routing_norm)

