"""The simulator's upwind step and the linear maps that repeat it.

A step updates the flat values of the state in place, each from itself and
from the value one row above it: below <- below stay + move above. The trace
map of a junction block and the s-step advection maps of
`simulator._Engine` are that step taken on unit pulses, with the step's own
three calls, so each equals steps on unit pulses bit for bit.
"""

from __future__ import annotations

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


def trace_map(stay: np.ndarray, move: np.ndarray, width: int) -> np.ndarray:
    """The trace map (L, L + 1, C) of a block, newest first as in the ring:
    the trace of step n + s is sum_i map[L - s, i] * tail node i at step n,
    for each of C columns (circle and velocity cell), where stay and move
    (L, 1, C) are the coefficients of tail nodes 1..L.

    Unit pulses (row, pulse, column) are stepped in place, `width` columns
    at a time. After t steps only rows >= t can still reach row L, so step
    t updates those L + 1 - t rows, with the L + 1 - t rows of the map not
    yet written as its buffer."""
    L, _, C = stay.shape
    coef = np.empty((L, L + 1, C))
    for first in range(0, C, width):
        cells = slice(first, first + width)
        pulse = np.zeros((L + 1, L + 1, coef[0, 0, cells].size))
        pulse[np.arange(L + 1), np.arange(L + 1)] = 1.0
        for t in range(1, L + 1):
            upwind(stay[t - 1:, :, cells], move[t - 1:, :, cells], pulse[t:],
                   pulse[t - 1:L], coef[:L + 1 - t, :, cells])
            coef[L - t, :, cells] = pulse[L]
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


def apply_map(coef: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """Take the s steps of the map coef (s + 1, N K - s K) on each member of
    z (R, N, K) in one einsum into rows s.. of out (R, N, K). A strided view
    of z, (s + 1, R, N K - s K), holds at [d, r, p] member r's flat value d
    rows above s K + p, so no operand is copied; rows 0..s - 1 of out are
    left as they are."""
    R, N, K = z.shape
    s, b = len(coef) - 1, z.itemsize
    window = np.ndarray((s + 1, R, (N - s) * K), buffer=z, offset=b * s * K,
                        strides=(-b * K, b * N * K, b))
    np.einsum("dp,drp->rp", coef, window, out=out.reshape(R, N * K)[:, s * K:])
