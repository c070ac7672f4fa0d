"""Transition matrices, Gramians, and input-driven simulation for
piecewise-constant switching signals.

Every segment is handled by a matrix exponential (scaling-and-squaring), so
no global ODE error accumulates: per-segment results are exact up to the
exponential's own tolerance and are composed across segments.  Gramians use
the augmented 2n x 2n block-exponential closed form; the controllability
Gramian is anchored at the left endpoint t0,

    wc = int_{t0}^{t1} Phi(t0, s) B(s) B(s)^T Phi(t0, s)^T ds,
    wo = int_{t0}^{t1} Phi(s, t0)^T C(s)^T C(s) Phi(s, t0) ds.

Spans.  Every propagation cuts its interval [s, t] into constant-mode spans,
and _spans cuts a whole array of intervals in one pass.  For segment j (end
e_j, the signal's ends summed in segment order; e_{-1} = 0) the span is
lo = max(e_{j-1}, s) to hi = min(e_j, t), kept when hi - lo > 1e-14.  _spans
evaluates this elementwise on the same floats for the segments from the first
end above s to the first end at or above t, or to the last (two
searchsorteds; none when s is past t); every other segment gives hi - lo <= 0
(e_j <= s: hi <= s <= lo; e_{j-1} >= t: lo >= t >= hi).  So its spans, in
time order, are those of clipping [s, t] against every segment in turn.
transition and gramians (one interval, a scipy expm per span), l2gain's
Riccati passes ([0, T], backwards) and _zoh_grid (every grid step) read them.

Grid steps.  simulate and l2gain's power iteration need the zero-order-hold
step operators (Phi_k, Gamma_k) of the steps [k dt, k dt + dt]; _zoh_grid
builds them with the bits of composing each step's spans alone.  A span's key
is its mode and its length rounded to 15 digits by Python's round; each key's
exponential is built from its first span in step order, as a step-by-step
pass with one cache builds it (a slice of _expm_stack does not depend on the
rest of its stack), all in one _expm_stack call, and span position c is
composed, one stacked matmul, on the steps with more than c spans.  The mode
at each sample min(k dt, horizon) is a searchsorted over the same ends, as
Signal.mode_at bisects them.

The states are not stepped one by one.  The recursion x_{k+1} = Phi_k x_k +
Gamma_k u_k is a unit lower block-bidiagonal system with a band of 2n - 1
subdiagonals, and _step_solver solves it, or its transpose for the power
iteration's adjoint, with one LAPACK substitution (dtbtrs).  The solve sums
each step's terms in another order than phi @ x + gu, so the states agree
with the step-by-step recursion to rounding, not to the bit.

_expm_stack is a batched exponential: Pade degree 13 with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) on a (K, N, N) stack
in one pass of numpy calls.  Its cost is mostly per call, so it pays for
stacks of more than a few matrices; l2gain's Riccati row pass builds every
whole-segment exponential of a backward pass with it, spectral each of its
letter grids, and _zoh_grid every step exponential of a grid.  Each
slice is the exact exponential of a matrix within a relative backward error
of about unit roundoff of the one given.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dtbtrs

from .core import Signal, SystemSpec, _check_positive_finite

__all__ = ["Trajectory", "GramianPair", "transition", "gramians", "simulate",
           "trajectory_to_csv"]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled state/output history on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.outputs)):
            raise ValueError("times/states/outputs must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True, eq=False)
class GramianPair:
    """Controllability and observability Gramians over one window."""

    wc: np.ndarray
    wo: np.ndarray
    horizon: float


# Pade [13/13] numerator coefficients of exp (Higham 2005), divided by the
# first so that the approximant of the zero matrix is solved as I \ I, and
# the norm bound theta_13 up to which it is accurate to unit roundoff
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152
# the odd part U = A (A6 W1 + W2) and the even part V = A6 W3 + W4, each W a
# combination of I, A^2, A^4, A^6 with these coefficients
_PADE13_TERMS = np.array([[0.0, _PADE13[9], _PADE13[11], _PADE13[13]],
                          [_PADE13[1], _PADE13[3], _PADE13[5], _PADE13[7]],
                          [0.0, _PADE13[8], _PADE13[10], _PADE13[12]],
                          [_PADE13[0], _PADE13[2], _PADE13[4], _PADE13[6]]])


def _expm_stack(M):
    """expm of each matrix of a (K, N, N) stack, by scaling and squaring.

    Each slice is scaled by 2^-s, the smallest power of two that brings its
    1-norm to at most theta_13, its [13/13] Pade approximant is solved as
    (V - U)^-1 (V + U), and the result is squared s times.  A slice whose
    norm is not finite comes back as NaN, and one that overflows while
    squaring as inf or NaN; neither raises or touches the other slices.  An
    N = 0 stack comes back as an empty (K, 0, 0) stack.
    """
    M = np.asarray(M, dtype=float)
    K, N, _ = M.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(M).sum(axis=1).max(axis=1, initial=0.0)
        finite = np.isfinite(norm)
        if not finite.all():
            M = np.where(finite[:, None, None], M, 0.0)
            norm = np.where(finite, norm, 0.0)
        s = np.maximum(np.frexp(norm / _THETA13)[1], 0)
        A = np.ldexp(M, -s[:, None, None])
        powers = np.empty((4, K, N, N))
        powers[0] = np.eye(N)
        A2 = np.matmul(A, A, out=powers[1])
        np.matmul(A2, A2, out=powers[2])
        A6 = np.matmul(powers[2], A2, out=powers[3])
        W = (_PADE13_TERMS @ powers.reshape(4, -1)).reshape(4, K, N, N)
        A6W = A6 @ W[0::2]
        U = A @ (A6W[0] + W[1])
        V = A6W[1] + W[3]
        R = np.linalg.solve(V - U, V + U)
        for j in range(s.max(initial=0)):
            R = np.where((s > j)[:, None, None], R @ R, R)
    R[~finite] = np.nan
    return R


def _check_interval(sig, names, s, t):
    """Reject [s, t] if it runs backwards (naming its ends) or leaves the horizon
    [0, H], NaN ends included; within 1e-9 max(1, H) it is taken as in range.
    """
    horizon = sig.horizon
    tol = 1e-9 * max(1.0, horizon)
    if s > t + tol:
        raise ValueError(f"{names[0]}={s} exceeds {names[1]}={t}: the interval runs backwards")
    if not (-tol <= s and t <= horizon + tol):
        raise ValueError(f"interval [{s}, {t}] outside signal horizon [0, {horizon}]")


def _spans(sig, starts, stops):
    """(index, lo, hi, mode) arrays of the spans of the intervals [starts[k], stops[k]]:
    span [lo, hi] of interval index, in mode, by interval and then in time
    order (module docstring, "Spans")."""
    edges = np.concatenate(([0.0], sig.segment_ends))
    ends = edges[1:]
    starts, stops = np.asarray(starts, dtype=float), np.asarray(stops, dtype=float)
    # interval k's candidates: segment first[k] up to the first one ending at or
    # after stops[k], or up to the last
    first = np.searchsorted(ends, starts, side="right")
    count = np.maximum(np.searchsorted(ends[:-1], stops) + 1 - first, 0)
    # one entry per candidate span: its interval, and first[interval] plus its place in it
    index = np.repeat(np.arange(len(starts)), count)
    seg = np.arange(len(index)) + (first + count - count.cumsum())[index]
    lo = np.maximum(edges[seg], starts[index])
    hi = np.minimum(ends[seg], stops[index])
    keep = hi - lo > 1e-14
    return index[keep], lo[keep], hi[keep], np.array([i for i, _ in sig.segments])[seg[keep]]


def transition(sys: SystemSpec, sig: Signal, s: float, t: float) -> np.ndarray:
    """Flow Phi(t, s) of xdot = A(sigma(t)) x along the signal, s <= t."""
    sig.check_modes(sys)
    _check_interval(sig, ("s", "t"), s, t)
    _, lo, hi, modes = _spans(sig, [s], [t])
    phi = np.eye(sys.n)
    for dt, i in zip((hi - lo).tolist(), modes.tolist()):
        phi = expm(sys.A(i) * dt) @ phi
    return phi


def _gram_block(A, G, dt):
    """int_0^dt e^{A s} G e^{A^T s} ds by the augmented block exponential.

    The block exponential pairs e^{-A h} with e^{A h}, so its product cancels
    catastrophically once |A| h is large; windows longer than 1/|A| are
    built from a short one by doubling, W(2h) = W(h) + e^{A h} W(h) e^{A^T h}.
    """
    n = A.shape[0]
    span = dt * np.linalg.norm(A, 1)
    doublings = math.ceil(math.log2(span)) if span > 1.0 else 0
    h = dt / 2 ** doublings
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -A
    M[:n, n:] = G
    M[n:, n:] = A.T
    E = expm(M * h)
    W = E[n:, n:].T @ E[:n, n:]
    step = E[n:, n:].T
    for _ in range(doublings):
        W = W + step @ W @ step.T
        step = step @ step
    return W


def gramians(sys: SystemSpec, sig: Signal, t0: float, t1: float) -> GramianPair:
    """Windowed Gramians on [t0, t1], t0 <= t1, accumulated exactly across segments."""
    sig.check_modes(sys)
    _check_interval(sig, ("t0", "t1"), t0, t1)
    _, lo, hi, modes = _spans(sig, [t0], [t1])
    n = sys.n
    wc = np.zeros((n, n))
    wo = np.zeros((n, n))
    back = np.eye(n)     # Phi(t0, current segment start)
    fwd = np.eye(n)      # Phi(current segment start, t0)
    for dt, i in zip((hi - lo).tolist(), modes.tolist()):
        A, B, C = sys.A(i), sys.B(i), sys.C(i)
        wc += back @ _gram_block(-A, B @ B.T, dt) @ back.T
        wo += fwd.T @ _gram_block(A.T, C.T @ C, dt) @ fwd
        step = expm(A * dt)
        fwd = step @ fwd
        back = back @ expm(-A * dt)
    wc = 0.5 * (wc + wc.T)
    wo = 0.5 * (wo + wo.T)
    return GramianPair(wc=wc, wo=wo, horizon=t1 - t0)


def _zoh_grid(sys, sig, steps, dt):
    """Step operators of the grid k dt, k < steps, and the mode at each sample.

    Returns (Phi, Gamma, modes): Phi[k], Gamma[k] propagate a ZOH input over
    [k dt, k dt + dt], and modes[k] is sig.mode_at(min(k dt, horizon)) for
    k <= steps.  Each step's spans come from _spans (module docstring,
    "Spans" and "Grid steps").
    """
    n, m = sys.n, sys.m
    starts = np.arange(steps) * dt
    step, lo, hi, mode = _spans(sig, starts, starts + dt)
    h = hi - lo
    # key (mode, h rounded to 15 digits), as an integer; Python's round once per distinct h
    distinct, h_at = np.unique(h, return_inverse=True)
    _, rounded = np.unique([round(x, 15) for x in distinct.tolist()], return_inverse=True)
    _, first_span, slot = np.unique(mode * len(distinct) + rounded[h_at],
                                    return_index=True, return_inverse=True)
    AB = np.stack([np.hstack([md.A, md.B]) for md in sys.modes])
    M = np.zeros((len(first_span), n + m, n + m))
    M[:, :n] = AB[mode[first_span]] * h[first_span, None, None]
    E = _expm_stack(M)
    ephi, egam = E[:, :n, :n], E[:, :n, n:]
    # compose span position c on the steps that have more than c spans
    spans = np.bincount(step, minlength=steps)
    offset = np.cumsum(spans) - spans
    phis = np.tile(np.eye(n), (steps, 1, 1))
    gams = np.zeros((steps, n, m))
    for c in range(spans.max(initial=0)):
        k = np.flatnonzero(spans > c)
        j = slot[offset[k] + c]
        phis[k] = ephi[j] @ phis[k]
        gams[k] = ephi[j] @ gams[k] + egam[j]
    times = np.minimum(np.arange(steps + 1) * dt, sig.horizon)
    at = np.minimum(np.searchsorted(sig.segment_ends, times, side="right"), len(sig.segments) - 1)
    return phis, gams, np.array([i for i, _ in sig.segments])[at]


def _step_solver(phis):
    """Solves with the matrix L of the step recursion, for Phi = phis.

    L is unit lower block-bidiagonal on the unknowns x_1..x_K: block row k
    reads x_{k+1} - Phi_k x_k (x_0 = 0, so Phi_0 never enters).  solve(rhs)
    runs the recursion x_{k+1} = Phi_k x_k + rhs_k forward, and
    solve(rhs, "T") its adjoint lam_k = Phi_{k+1}^T lam_{k+1} + rhs_k
    backward; rhs and the result are (K, n).  L is a band of 2n - 1
    subdiagonals, so each solve is one LAPACK dtbtrs call, substitution
    without a factorization.
    """
    K, n, _ = phis.shape
    band = np.zeros((K, n, 2 * n))     # band[k, c, d] = L[k n + c + d, k n + c]
    r, c = np.indices((n, n))
    band[:-1, c, n + r - c] = -phis[1:]
    ab = band.reshape(K * n, 2 * n).T  # LAPACK's lower band storage, Fortran order

    def solve(rhs, trans="N"):
        return dtbtrs(ab, rhs.reshape(-1), uplo="L", trans=trans, diag="U")[0].reshape(K, n)

    return solve


def simulate(sys: SystemSpec, sig: Signal, u, x0, dt: float) -> Trajectory:
    """Simulate xdot = A x + B u with zero-order-hold input samples u.

    u has one row per step of size dt; the total u span must match the signal
    horizon, and x0 has n entries.  Propagation is exact per step
    (homogeneous exponential plus the integrated input term), including steps
    that straddle a switch.  The step operators come from _zoh_grid, with the
    bits of composing every step alone; the states x_1..x_K solve the step
    recursion, with Phi_0 x0 added to its first input term, in one banded
    triangular solve, within rounding of the step-by-step recursion.
    """
    sig.check_modes(sys)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] == 1 and sys.m == 1 and u.shape[1] != sys.m:
        u = u.T
    if u.shape[1] != sys.m:
        raise ValueError(f"input samples must have {sys.m} columns, got {u.shape[1]}")
    x0 = np.asarray(x0, dtype=float)
    if x0.size != sys.n:
        raise ValueError(f"x0 must have n = {sys.n} entries, got {x0.size}")
    x0 = x0.reshape(sys.n)
    _check_positive_finite("grid step dt", dt)
    steps = u.shape[0]
    horizon = sig.horizon
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"grid ({steps} x {dt}) does not match horizon {horizon}")

    phis, gams, modes = _zoh_grid(sys, sig, steps, dt)
    times = np.minimum(np.arange(steps + 1) * dt, horizon)
    # a stacked matmul computes each slice with the product one step would
    # make, and broadcasting keeps each C in its own memory layout
    rhs = np.matmul(gams, u[:, :, None])[:, :, 0]
    rhs[0] += phis[0] @ x0
    states = np.empty((steps + 1, sys.n))
    states[0] = x0
    states[1:] = _step_solver(phis)(rhs)
    outputs = np.empty((steps + 1, sys.p))
    for i, mode in enumerate(sys.modes):
        at = modes == i
        outputs[at] = np.matmul(mode.C, states[at, :, None])[:, :, 0]
    return Trajectory(times=times, states=states, outputs=outputs)


def trajectory_to_csv(traj: Trajectory) -> str:
    n = traj.states.shape[1]
    p = traj.outputs.shape[1]
    buf = io.StringIO()
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(p)]
    buf.write(",".join(header) + "\n")
    for k in range(len(traj.times)):
        row = [repr(float(traj.times[k]))]
        row += [repr(float(v)) for v in traj.states[k]]
        row += [repr(float(v)) for v in traj.outputs[k]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
