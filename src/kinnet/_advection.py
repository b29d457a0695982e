"""The simulator's upwind step, the linear maps that repeat it, and the
views of a state through which a junction block and the maps reach it.

A step updates the flat values of the state in place, each from itself and
from the value one row above it: below <- below stay + move above. The
s-step advection map of a `simulator._Engine` is that step taken on unit
pulses, with the step's own three calls, so it equals steps on unit
pulses bit for bit. The trace map of a junction block is the step's
adjoint recurrence on the end node's functional, also three calls per step:
bit for bit equal to stepped pulses where the coefficients are constant
along a circle's tail, as with absorption constant in x, and equal to
rounding elsewhere (see trace_map).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def upwind(stay, move, below, above, moved) -> None:
    """One step in place, below <- below stay + move above, with moved as a
    buffer: three calls on contiguous vectors."""
    np.multiply(move, above, out=moved)
    np.multiply(below, stay, out=below)
    np.add(below, moved, out=below)


def steps(stay: np.ndarray, move: np.ndarray, z: np.ndarray, moved: np.ndarray,
          n: int) -> None:
    """n single steps in place of the state z (R, N, K) read as one flat
    vector, all members at once: values K.. from themselves and the values
    K before them, with the coefficients stay and move and the buffer
    moved, R N K - K values each."""
    K = z.shape[-1]
    flat = z.reshape(-1)
    below, above = flat[K:], flat[:-K]
    for _ in range(n):
        upwind(stay, move, below, above, moved)


def trace_map(stay: np.ndarray, move: np.ndarray) -> np.ndarray:
    """The trace map (C, L, L + 1) of a block, one (L, L + 1) matrix per
    column (circle and velocity cell), newest first as in the ring: the
    trace of step n + s is sum_i map[c, L - s, i] * tail node i at step n,
    where stay and move (L, C) are the coefficients of tail nodes 1..L.

    Map row L - s is the end node's functional after s steps, q_s = q_{s-1} A
    with q_0 = e_L and A the step: q_s[i] = q_{s-1}[i] stay_i +
    q_{s-1}[i + 1] move_{i + 1}, three calls per step on the L + 1 - s rows
    that q_s can reach. Where a circle's coefficients do not change along
    its tail (absorption constant in x), each entry is the sum of the same
    products as the end value of a unit pulse stepped forward, so the map
    equals the pulse map bit for bit; else the products associate from the
    other end, and agree to rounding."""
    L, C = stay.shape
    coef = np.empty((C, L, L + 1))
    q = np.zeros((L + 1, C))
    q[L] = 1.0
    moved = np.empty((L, C))
    for s in range(1, L + 1):
        np.multiply(q[L + 1 - s:], move[L - s:], out=moved[:s])
        np.multiply(q[L + 1 - s:], stay[L - s:], out=q[L + 1 - s:])
        np.add(q[L - s:L], moved[:s], out=q[L - s:L])
        coef[:, L - s] = q.T
    return coef


def advection_map(stay: np.ndarray, move: np.ndarray, K: int, s: int) -> np.ndarray:
    """The s-step map (s + 1, N K - s K) of one member's flat state, N rows
    of K values, whose values K.. step with the coefficients stay and move
    (N K - K): after s steps, flat value s K + p is the sum over d of
    map[d, p] times the value d rows above it at the start.

    Unit coefficients c[d] of the values d rows above, for every flat
    value, are stepped s times, c[d] <- stay c[d] + move c[d - 1] one row
    up, d descending. The map is a view of this buffer, (s + 1, N K): its
    first s rows only feed values that the map leaves out."""
    coef = np.empty((s + 1, stay.size + K))
    coef[0], coef[1:] = 1.0, 0.0
    moved = np.empty(stay.size)
    for t in range(1, s + 1):
        for d in range(t, 0, -1):
            upwind(stay, move, coef[d, K:], coef[d - 1, :-K], moved)
        np.multiply(coef[0, K:], stay, out=coef[0, K:])
    return coef[:, s * K:]


def map_views(z: np.ndarray, out: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The operands of s steps of the map (s + 1, N K - s K) on each member
    of z (R, N, K), written to rows s.. of out (R, N, K) by
    einsum("dp,drp->rp", map, window, out=rows): a strided view of z,
    (s + 1, R, N K - s K), that holds at [d, r, p] member r's flat value d
    rows above s K + p, so no operand is copied, and the view of the rows;
    rows 0..s - 1 of out are left as they are."""
    R, N, K = z.shape
    b = z.itemsize
    window = np.ndarray((s + 1, R, (N - s) * K), buffer=z, offset=b * s * K,
                        strides=(-b * K, b * N * K, b))
    return window, out.reshape(R, N * K)[:, s * K:]


class BlockViews(NamedTuple):
    """The views of a state's sums, |trace| buffer and junction buffer that a
    block's products write and read, built once with the state. The views of
    the sums span all 2 P rows, (R, 2 P J) and (R, 2 P J, m), so a block's
    products write slices of them, rows h J .. (h + L) J."""

    columns: np.ndarray      # the block's traces (R, J K, L, 1), a column per cell
    absolute: np.ndarray     # the sums' |trace| @ dv (R, 2 P J)
    velocity: np.ndarray     # the sums' trace @ (v dv) (R, 2 P J)
    cells: np.ndarray        # the sums' moments (R, 2 P J, m), a row per row and circle
    moments: np.ndarray      # the sums' moments (R, J, 2 P, m)
    delayed: np.ndarray      # the junction's delayed moments (R, J, L, m)
    inputs: np.ndarray       # the junction's inputs (R, L)

    @classmethod
    def of(cls, state, L: int) -> "BlockViews":
        sums, magnitude, junction = state.sums, state.magnitude, state.junction
        R, m, J = len(sums), sums.shape[1] - 2, sums.shape[3]
        return cls(magnitude.reshape(R, L, -1).transpose(0, 2, 1)[..., None],
                   sums[:, 0].reshape(R, -1), sums[:, 1].reshape(R, -1),
                   sums[:, 2:].reshape(R, m, -1).mT,
                   sums[:, 2:].transpose(0, 3, 2, 1),
                   junction[:, :, :-1].reshape(R, L, J, m).transpose(0, 2, 1, 3),
                   junction[:, :, -1])
