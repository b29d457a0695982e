"""Velocity-discretized junction operators and their closed-form norm bounds.

All operators act on junction flux data indexed by (circle, velocity cell)
with the weighted l1 norm sum_{j,k} |g[j,k]| * dv_k. Velocity quadrature is
the midpoint rule on uniform cells, which keeps every operator entrywise
nonnegative.

The shift-free parts of the gain (_GainFactors: B and the survival exponent
as a slope and an offset in lam) are built once per (spec, grid) and call:
assemble_gain keeps them on its report, so a certificate reads its gain and
its PD blocks from one factorization. Each delay measure's parts are its own,
built once with the measure (DelayMeasure._parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError, _ieee_policy
from .model import (CircleSpec, DelayMeasure, NetworkBounds, NetworkSpec, _cell_index,
                    _exp_or_inf, _laplace, _log_laplace, network_bounds)

MAX_ARRAY_VALUES = 2**27  # float64 values in one dense array (1 GiB)


def _check_operator_size(n: int) -> None:
    """About four n x n arrays live at once for n = J K: B, the gain, and the
    PD blocks P and S P; together they hold 4 n^2 values."""
    if 4 * n * n > MAX_ARRAY_VALUES:
        raise ValidationError(f"{n} (circle, velocity cell) pairs give junction "
                              f"operators over {MAX_ARRAY_VALUES} values")


def _check_entries(a: np.ndarray, what: str) -> tuple[float, float]:
    """(min, max) of the matrix a, DomainError unless every entry is finite
    and >= 0: two reductions, which pass nan and +-inf on."""
    a_min, a_max = np.minimum.reduce(a, None), np.maximum.reduce(a, None)
    if not (math.isfinite(a_min) and math.isfinite(a_max)):
        raise DomainError(f"{what} expects finite matrix entries")
    if a_min < 0:
        raise DomainError(f"{what} expects a nonnegative matrix")
    return float(a_min), float(a_max)


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
    """G(lam), and the factors it was built from, which the certificate reads
    its PD blocks from instead of building B again."""

    lam: float
    operator: BlockOperator
    factors: _GainFactors = field(init=False, repr=False)


def scattering_table(circle: CircleSpec, grid: VelocityGrid) -> np.ndarray:
    """Circle's junction kernel on the grid: entry [k, k'] = beta(v_k, v_k')
    * v_k' * dv_k', read from beta's table through one cell index per center."""
    cuts, values = circle.scattering._table
    cell = _cell_index(cuts, grid.centers)
    return values.take(cell, 0).take(cell, 1) * (grid.centers * grid.widths)[None, :]


def _routed_scattering(spec: NetworkSpec, grid: VelocityGrid) -> np.ndarray:
    """Shift-free factor B of the gain: maps trace data of incoming circle j
    to inflow of outgoing circle i.

    Entry [(i,k),(j,k')] = w_ij * beta_j(v_k, v_k') * v_k' * dv_k' / v_k.
    """
    J, K = spec.n_circles, grid.k
    _check_operator_size(J * K)
    tables = np.array([scattering_table(c, grid) for c in spec.circles])
    tables /= grid.centers[None, :, None]
    b = spec.routing[:, None, :, None] * tables.transpose(1, 0, 2)[None]
    return b.reshape(J * K, J * K)


def _junction_moments(spec: NetworkSpec, grid: VelocityGrid) -> tuple[np.ndarray, np.ndarray]:
    """B in rank J m: (omega, U) with B[(i,k),(j,k')] = omega[k', b]
    U[(j,b),(i,k)], where b is the group of k': the m groups are the runs of
    grid centers on which every circle's kernel cell index is constant, one
    per distinct index tuple. omega (K, m) holds v_k' dv_k' / V_b, V_b the
    group's sum of v dv, so a moment is a weighted mean of a trace; U
    (J m, J K) holds w_ij beta_j(v_k, v_b) V_b / v_k."""
    _check_operator_size(spec.n_circles * grid.k)
    v = grid.centers
    cells = np.array([_cell_index(c.scattering._table[0], v) for c in spec.circles])
    group = np.concatenate(([0], np.diff(cells).any(axis=0).cumsum()))
    first = np.flatnonzero(np.diff(group, prepend=-1))
    vdv = v * grid.widths
    total = np.add.reduceat(vdv, first)
    omega = (group[:, None] == np.arange(len(first))) * (vdv / total[group])[:, None]
    tables = np.array([c.scattering._table[1].take(cell, 0).take(cell[first], 1)
                       for c, cell in zip(spec.circles, cells)]) * (total / v[:, None])
    u = spec.routing.T[:, None, :, None] * tables.transpose(0, 2, 1)[:, :, None]
    return omega, u.reshape(-1, spec.n_circles * grid.k)


@dataclass(frozen=True, eq=False)
class _GainFactors:
    """Shift-free parts of G(lam) = B diag(laplace(lam) S(lam)), built once.

    routed is B. The log survival -(lam l_j + Q_j(v_k')) / v_k' of each
    flattened column (j, k'), with l_j the circle length and
    Q_j(v_k') = int_0^{l_j} q_j(., v_k') the absorption integral, is kept as
    its slope -l_j / v_k' and offset -Q_j(v_k') / v_k' in lam. Per shift only
    the J Laplace factors, read from the parts of the circles' delay measures
    (measures: DelayMeasure._parts, built with each measure), one
    multiply-add and one vector exp remain.

    The one check of the factorization runs when it is built: B must be
    finite and nonnegative and the slope finite, else DomainError. Every
    matrix balanced_gain returns is then finite and nonnegative by
    construction, so the abscissa's Perron brackets skip their own scan of
    it, and log_bound reads B's extremes (b_range) from the check.
    balanced_gain writes every matrix into one J K x J K buffer that the
    factorization owns.
    """

    measures: tuple[DelayMeasure, ...]
    k: int
    routed: np.ndarray
    slope: np.ndarray
    offset: np.ndarray
    weights: np.ndarray
    b_range: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "b_range", _check_entries(self.routed, "the scatter-route B"))
        if not math.isfinite(np.minimum.reduce(self.slope)):  # -l / v <= 0
            raise DomainError("the survival exponent needs a finite l / v: v_min "
                              "lies below the float range of the circle lengths")

    def laplace(self, lam: float) -> np.ndarray:
        """Delay Laplace factor laplace_j(lam) of each flattened (j, k')."""
        return np.array([_laplace(m, lam) for m in self.measures]).repeat(self.k)

    def log_survival(self, lam: float) -> np.ndarray:
        """Log survival -(lam l_j + Q_j(v_k')) / v_k' from the junction to x = l_j
        of each flattened (j, k'), clamped at 700 for far bracketing shifts."""
        return np.minimum(lam * self.slope + self.offset, 700.0)

    def survival(self, lam: float) -> np.ndarray:
        return np.exp(self.log_survival(lam))

    def scale(self, lam: float) -> np.ndarray:
        """Column scale laplace_j(lam) S_j(v_k', lam) of G(lam) = B diag(scale)."""
        return self.laplace(lam) * self.survival(lam)

    def gain(self, lam: float) -> BlockOperator:
        return BlockOperator(matrix=self.routed * self.scale(lam)[None, :],
                             weights=self.weights)

    def pd_blocks(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(P, S) of the junction operator PD = [[0, P], [diag(S), 0]]: the
        delayed scatter-route P = B diag(laplace(lam)) and the survivals S(lam)."""
        return self.routed * self.laplace(lam)[None, :], self.survival(lam)

    def pd_norm(self, lam: float) -> float:
        """Norm of PD after the diagonal similarity diag(s, 1/s) that balances
        its blocks: sqrt(||P|| max S), the geometric mean of the block norms,
        or the larger block norm where the other one is 0. A product of roots
        stays in float range where n_p * n_s would not."""
        p, survival = self.pd_blocks(lam)
        n_p, n_s = BlockOperator(p, self.weights).norm(), float(np.max(survival))
        if n_p > 0.0 and n_s > 0.0:
            return math.sqrt(n_p) * math.sqrt(n_s)
        return max(n_p, n_s)

    @cached_property
    def log_bound(self) -> tuple[float, float]:
        """(a, b) with a |lam| + b above |x| for every e^x in gain(lam), its entries
        included: e^{-|lam| r} <= laplace / TV <= e^{|lam| r} on support [-r, 0],
        and the log survival is at most |lam| max l/v + max |Q/v| in size."""
        b_min, b_max = self.b_range
        if b_min == 0.0:  # the least positive entry
            b_min = np.min(self.routed, where=self.routed > 0.0, initial=1.0)
        log_b = max(-math.log(min(b_min, 1.0)), math.log(max(b_max, 1.0)))
        log_tv = [math.log(t) if (t := _laplace(m, 0.0)) > 0.0 else -math.inf
                  for m in self.measures]
        rates = [max((abs(rate) for *_, rate in m._parts[1]), default=0.0)
                 for m in self.measures]  # of the density cells e^{rate*theta}
        return (max(m.r for m in self.measures) - float(self.slope.min()),
                max(abs(x) + rate * m.r for x, rate, m in zip(log_tv, rates, self.measures))
                + float(np.abs(self.offset).max()) + log_b)

    @cached_property
    def _out(self) -> np.ndarray:
        """The one J K x J K array that balanced_gain writes every matrix into."""
        return np.empty_like(self.routed)

    def balanced_gain(self, lam: float) -> tuple[float, np.ndarray, bool]:
        """(s, A, lost) with r(G(lam)) = e^s r(A): A = G(lam) where log_bound keeps
        its exponentials within e^{+-700}, else A_ij = B_ij (c_i c_j)^{1/2} / e^s for the
        column scales c, that is diag(c)^{1/2} G(lam) diag(c)^{-1/2} / e^s, built in
        logs with s = max log(A_ij e^s). lost: an entry of A underflowed to 0.
        A is one array that every call overwrites, finite and nonnegative since
        the factorization is: in range its entries stay below e^700, and in logs
        they are e^{log A_ij - s} <= 1."""
        slope, offset = self.log_bound
        a = self._out
        if slope * abs(lam) + offset < 700.0:
            np.multiply(self.routed, self.scale(lam), out=a)
            return 0.0, a, False
        log_c = np.array([_log_laplace(m, lam) for m in self.measures]).repeat(self.k)
        log_c += self.log_survival(lam)
        half = 0.5 * log_c
        a.fill(-math.inf)
        np.log(self.routed, out=a, where=self.routed > 0.0)  # log A + s, in place from here
        a += half[:, None]
        a += half[None, :]
        s = float(a.max())
        if s == -math.inf:  # no entry of G(lam) is positive
            s = 0.0
        kept = np.count_nonzero(a > -math.inf)
        a -= s
        np.exp(a, out=a)
        lost = np.count_nonzero(a > 0.0) < kept
        return s, a, lost


@_ieee_policy()  # _GainFactors refuses what passes float range
def _gain_factors(spec: NetworkSpec, grid: VelocityGrid) -> _GainFactors:
    v = grid.centers
    absorbed = np.array([c.absorption.integral_x(c.length, v) for c in spec.circles])
    length = np.array([[c.length] for c in spec.circles])
    return _GainFactors(
        measures=tuple(c.delay_measure for c in spec.circles),
        k=grid.k,
        routed=_routed_scattering(spec, grid),
        slope=(-length / v).ravel(),
        offset=(-absorbed / v).ravel(),
        weights=np.concatenate((grid.widths,) * spec.n_circles))


def assemble_gain(spec: NetworkSpec, grid: VelocityGrid, lam: float) -> GainAssemblyReport:
    """Discretized junction gain operator G(lam) = B diag(laplace(lam) S(lam)).

    Delayed scatter-route (incoming circle's measure and kernel) after
    transport survival, per the transmission conditions: only the column
    (j, k') of an entry depends on lam. The report keeps the factors.
    """
    factors = _gain_factors(spec, grid)
    report = GainAssemblyReport(lam=lam, operator=factors.gain(lam))
    object.__setattr__(report, "factors", factors)  # a frozen init=False field
    return report


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
    return _pd_norm_bound(spec, network_bounds(spec))


def _pd_norm_bound(spec: NetworkSpec, b: NetworkBounds) -> float:
    return max(b.var_bar * spec.v_max / spec.v_min,
               _bound_product(*_dirichlet_bounds(spec, b)))


def dirichlet_norm_closed_form(spec: NetworkSpec) -> tuple[float, float]:
    """Closed-form bounds (||D_0|| <= e^{l_bar*gamma_bar/v_min}, ||K|| <= ||M||);
    the first is inf where the exponential passes float range."""
    return _dirichlet_bounds(spec, network_bounds(spec))


def _dirichlet_bounds(spec: NetworkSpec, b: NetworkBounds) -> tuple[float, float]:
    return (_exp_or_inf(b.l_bar * b.gamma_bar / spec.v_min), b.routing_norm)
