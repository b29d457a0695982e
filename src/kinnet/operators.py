"""Velocity-discretized junction operators and their closed-form norm bounds.

All operators act on junction flux data indexed by (circle, velocity cell)
with the weighted l1 norm sum_{j,k} |g[j,k]| * dv_k. Velocity quadrature is
the midpoint rule on uniform cells, which keeps every operator entrywise
nonnegative.

The shift-free parts of the gain (_GainFactors: B as the moments omega and
route U of _junction_moments, and the survival exponent as a slope and an
offset in lam) are built once per (spec, grid) and call: assemble_gain keeps
them on its report, so a certificate reads its gain and its PD radius from
one factorization. What depends on the spec alone is built once, when its
owner is constructed, and only read here:

- each delay measure, its parts (DelayMeasure._parts) and its share of the
  log bound, |log TV| + max |rate| r (DelayMeasure._log_bound_term);
- the network, its NetworkBounds, which network_bounds returns.

Each circle's Q = int_0^l q(., v) is integrated at the grid centers with
each build: kept per absorption cell with the circle instead, it cost a spec
built for one certificate and one abscissa more than it saved them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError, _ieee_policy
from .model import (DelayMeasure, NetworkSpec, _cell_index, _exp_or_inf, _laplace,
                    _log_laplace, network_bounds)

MAX_ARRAY_VALUES = 2**27  # float64 values in one dense array (1 GiB)
# The largest J m core whose fourth power the Perron brackets take
# (_GainFactors.perron_power). Certificate plus abscissa on five circles with
# many-cell tabulated kernels, single-threaded BLAS, took 0.82-0.96x the time
# of bracketing the core itself at J m = 20-60 and 1.0-3.4x at J m = 80-320.
_POWER_CORE_MAX = 32


def _check_operator_size(n: int) -> None:
    """Bounds the arrays of up to n x n values, n = J K, that a factorization
    and its callers hold at once: its route U and at most three more, 4 n^2
    values. The certificate holds G while core(0) builds its terms and their
    sums; balanced_core's log form holds two, and pd_norm none."""
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
        if not (centers * widths > 0.0).all():  # a norm or a moment reads 0 / 0
            raise DomainError(f"[{v_min}, {v_max}] in {k} cells has a cell of zero width or v dv")
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
    its PD radius from instead of factoring B again."""

    lam: float
    operator: BlockOperator
    factors: _GainFactors = field(init=False, repr=False)


def _junction_moments(spec: NetworkSpec, grid: VelocityGrid
                      ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """B in rank J m: (omega, U) with B[(i,k),(j,k')] = omega[k', b]
    U[(j,b),(i,k)], where b is the group of k': the m groups are the runs of
    grid centers on which every circle's kernel cell index is constant, one
    per distinct index tuple. omega (K, m) has one nonzero entry per row and
    comes as (group, first, share): each cell's group b, each group's first
    cell, and omega[k', b] = v_k' dv_k' / V_b in (0, 1], V_b the group's
    largest v dv, so a moment is a peak-scaled share of a trace; U (J m, J K)
    holds w_ij beta_j(v_k, v_b) V_b / v_k, at most B's largest entry and so
    in float range. The gain factorization and the simulator's engine both
    take B in this one form."""
    _check_operator_size(spec.n_circles * grid.k)
    v = grid.centers
    cells = [_cell_index(c.scattering._table[0], v) for c in spec.circles]
    start = sum(cells)  # no index falls in v: the sum steps up where any index does
    start = start.searchsorted(start)  # each cell's group's first cell
    first = (start == np.arange(len(v))).nonzero()[0]
    group = first.searchsorted(start)
    vdv = v * grid.widths
    peak = np.maximum.reduceat(vdv, first)
    tables = np.array([c.scattering._table[1].take(cell, 0).take(cell[first], 1)
                       for c, cell in zip(spec.circles, cells)]) * (peak / v[:, None])
    u = spec.routing.T[:, None, :, None] * tables.transpose(0, 2, 1)[:, :, None]
    return (group, first, vdv / peak[group]), u.reshape(-1, spec.n_circles * grid.k)


@dataclass(frozen=True, eq=False)
class _GainFactors:
    """Shift-free parts of G(lam) = B diag(c(lam)), c = laplace(lam) S(lam).

    B = U^T (I_J kron omega^T) in the peak-scaled form of _junction_moments,
    omega as (group, first, share), share in (0, 1]. G(lam), and S P at
    lam = 0, have the nonzero spectrum of the J m x J m core
    (I_J kron omega^T) diag(c) U^T (XY and YX share their nonzero
    eigenvalues), whose entry ((j, b), (i, b')) sums c omega U over the cells
    of group b. The PD radius and the abscissa read the core, pd_norm reads
    omega and U, and dense builds B diag(x) for the gain alone.

    The log survival -(lam l_j + Q_j(v_k')) / v_k' of each column (j, k'), l_j
    the circle length and Q_j(v_k') = int_0^{l_j} q_j(., v_k'), is kept as its
    slope -l_j / v_k' and offset -Q_j(v_k') / v_k' in lam. Per shift only the J
    Laplace factors (from DelayMeasure._parts), one multiply-add and one
    vector exp remain.

    The one check runs when the factorization is built: U must be finite and
    nonnegative and the slope finite, else DomainError. Every matrix
    balanced_core returns is then finite and nonnegative by construction, so
    the abscissa's Perron brackets skip their own scan. log_bound is built
    with the factorization too, from U's extremes as the check found them.
    It decides each shift's form: the core where a |lam| + b < 700, past that
    the similar matrix built in logs (balanced_core), and for the Perron
    brackets the core's fourth power where 4 (a |lam| + b) + 3 log(J m) < 700
    and 1 < J m <= _POWER_CORE_MAX (perron_power).
    """

    measures: tuple[DelayMeasure, ...]
    k: int
    omega: tuple[np.ndarray, np.ndarray, np.ndarray]
    route: np.ndarray
    slope: np.ndarray
    offset: np.ndarray
    weights: np.ndarray
    log_bound: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        u_range = _check_entries(self.route, "the scatter-route B")
        if not math.isfinite(np.minimum.reduce(self.slope)):  # -l / v <= 0
            raise DomainError("the survival exponent needs a finite l / v: v_min "
                              "lies below the float range of the circle lengths")
        object.__setattr__(self, "log_bound", self._log_bound(*u_range))

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

    def dense(self, x: np.ndarray) -> np.ndarray:
        """B diag(x) = U^T (I_J kron omega^T) diag(x) as a J K x J K array:
        entry [(i, k), (j, k')] = U[(j, b), (i, k)] omega[k', b] x[(j, k')]."""
        group, _, share = self.omega
        n = len(self.measures)
        u = self.route.reshape(n, -1, n * self.k).take(group, axis=1)
        u *= (share * x.reshape(n, self.k))[:, :, None]
        return u.reshape(n * self.k, -1).T

    def gain(self, lam: float) -> BlockOperator:
        return BlockOperator(matrix=self.dense(self.scale(lam)), weights=self.weights)

    def core(self, lam: float) -> np.ndarray:
        """The J m x J m core (I_J kron omega^T) diag(scale(lam)) U^T."""
        n, (_, first, share) = len(self.measures), self.omega
        c = self.scale(lam).reshape(n, self.k) * share
        core = np.add.reduceat(c[:, :, None] * self.route.T.reshape(n, self.k, -1), first, axis=1)
        return core.reshape(len(self.route), -1)

    def pd_norm(self, lam: float) -> float:
        """Norm of PD = [[0, P], [diag(S), 0]], P = B diag(laplace(lam)), balanced
        by diag(s, 1/s): sqrt(||P|| max S), or the larger block norm where the
        other is 0. A product of roots stays in float range where n_p n_s would not.

        ||P|| is the largest weighted column sum over dv, read from the
        factors without building P: column (j, k') of P has the weighted sum
        laplace_j(lam) omega[k', b] (U w)[(j, b)], b the group of k' and w
        the weights."""
        group, _, share = self.omega
        n = len(self.measures)
        routed = (self.route @ self.weights).reshape(n, -1).take(group, axis=1)
        sums = share * self.laplace(lam).reshape(n, self.k) * routed
        n_p = float(np.max(sums.ravel() / self.weights))
        n_s = float(np.max(self.survival(lam)))
        if n_p > 0.0 and n_s > 0.0:
            return math.sqrt(n_p) * math.sqrt(n_s)
        return max(n_p, n_s)

    def _log_bound(self, u_min: float, u_max: float) -> tuple[float, float]:
        """(a, b) with a |lam| + b above |x| for every e^x in core(lam) and its
        terms c omega U: e^{-|lam| r} <= laplace / TV <= e^{|lam| r} on [-r, 0],
        |log S| <= |lam| max l/v + max |Q/v|, omega in (0, 1], an entry 1 to K
        terms; u_min and u_max are U's extremes. Each measure keeps its
        |log TV| + max |rate| r (DelayMeasure._log_bound_term)."""
        if u_min == 0.0:  # the least positive entry
            u_min = np.min(self.route, where=self.route > 0.0, initial=1.0)
        log_u = (max(-math.log(min(u_min, 1.0)), math.log(max(u_max, 1.0)))
                 - math.log(np.minimum.reduce(self.omega[2])) + math.log(self.k))
        return (max(m.r for m in self.measures) - float(self.slope.min()),
                max(m._log_bound_term for m in self.measures)
                + float(np.abs(self.offset).max()) + log_u)

    def perron_power(self, lam: float, core: np.ndarray) -> tuple[np.ndarray, int]:
        """(A, p) with r(core) = r(A)^(1/p), core = core(lam) or balanced_core's
        A at lam: the fourth power A = (core core)(core core) and p = 4 where
        1 < J m <= _POWER_CORE_MAX and 4 (a |lam| + b) + 3 log(J m) < 700, (a, b)
        = log_bound; else A = core and p = 1. A bracket on A takes the level
        and the tol times p: one product is four power steps of the core.

        Each positive entry of the core lies in [e^{-a |lam| - b},
        e^{a |lam| + b}], so each entry of the power, a sum of (J m)^3 products
        of four, stays within e^{+-700}: no product overflows or underflows,
        fl(A) keeps the exact zero pattern of the power, and each entry is
        within about 3 J m eps relative. Forming the power costs 2 (J m)^3
        multiply-adds against (J m)^2 per power step it saves, so only small
        cores take it (_POWER_CORE_MAX); a 1 x 1 core is its own root."""
        slope, offset = self.log_bound
        n = len(core)
        in_range = 4.0 * (slope * abs(lam) + offset) + 3.0 * math.log(n) < 700.0
        if 1 < n <= _POWER_CORE_MAX and in_range:
            core = core @ core
            return core @ core, 4
        return core, 1

    def balanced_core(self, lam: float) -> tuple[float, np.ndarray, bool]:
        """(s, A, lost) with r(G(lam)) = e^s r(A): A = core(lam) where log_bound
        keeps its exponentials within e^{+-700}, else, with t the largest log c
        over each (circle, group)'s cells, the similar diag(e^{-t/2}) core(lam)
        diag(e^{t/2}) / e^s, built in logs with s its largest log entry. lost:
        an entry of A underflowed to 0. A is finite and nonnegative since the
        factorization is: in range its entries stay below e^700, and in logs
        they are e^{log A_ij - s} <= 1."""
        slope, offset = self.log_bound
        if slope * abs(lam) + offset < 700.0:
            return 0.0, self.core(lam), False
        n, (group, first, share) = len(self.measures), self.omega
        log_c = np.array([_log_laplace(m, lam) for m in self.measures]).repeat(self.k)
        log_c = (log_c + self.log_survival(lam)).reshape(n, self.k)
        t = np.maximum.reduceat(log_c, first, axis=1)
        t[t == -math.inf] = 0.0  # a group with no positive column
        u = self.route.T
        a = np.log(u, out=np.full(u.shape, -math.inf), where=u > 0.0).reshape(n, self.k, -1)
        a += (log_c - t.take(group, axis=1) + np.log(share))[:, :, None]
        a = np.logaddexp.reduceat(a, first, axis=1).reshape(len(self.route), -1)
        t = 0.5 * t.ravel()  # a is log core - t by rows
        a += t[:, None]
        a += t
        kept = np.count_nonzero(a > -math.inf)
        s = float(a.max()) if kept else 0.0  # 0 where no entry of the core is positive
        a -= s
        np.exp(a, out=a)
        return s, a, np.count_nonzero(a > 0.0) < kept


@_ieee_policy()  # _GainFactors refuses what passes float range
def _gain_factors(spec: NetworkSpec, grid: VelocityGrid) -> _GainFactors:
    v = grid.centers
    absorbed = np.array([c.absorption.integral_x(c.length, v) for c in spec.circles])
    length = np.array([[c.length] for c in spec.circles])
    omega, route = _junction_moments(spec, grid)
    return _GainFactors(
        measures=tuple(c.delay_measure for c in spec.circles),
        k=grid.k,
        omega=omega,
        route=route,
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
    return max(network_bounds(spec).var_bar * spec.v_max / spec.v_min,
               _bound_product(*dirichlet_norm_closed_form(spec)))


def dirichlet_norm_closed_form(spec: NetworkSpec) -> tuple[float, float]:
    """Closed-form bounds (||D_0|| <= e^{l_bar*gamma_bar/v_min}, ||K|| <= ||M||);
    the first is inf where the exponential passes float range."""
    b = network_bounds(spec)
    return (_exp_or_inf(b.l_bar * b.gamma_bar / spec.v_min), b.routing_norm)
