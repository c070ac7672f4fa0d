"""Transition matrices, Gramians, and input-driven simulation for
piecewise-constant switching signals.

Every segment is handled by a matrix exponential (scaling-and-squaring), so
no global ODE error accumulates: per-segment results are exact up to the
exponential's own tolerance and are composed across segments.  Gramians use
the augmented 2n x 2n block-exponential closed form; the controllability
Gramian is anchored at the left endpoint t0,

    wc = int_{t0}^{t1} Phi(t0, s) B(s) B(s)^T Phi(t0, s)^T ds,
    wo = int_{t0}^{t1} Phi(s, t0)^T C(s)^T C(s) Phi(s, t0) ds.

Segment cursor.  simulate and l2gain's step operators ask for the spans of
one grid step after another, so a _Cursor resumes each query at the segment
where the previous one stopped: clipping N steps of S segments costs
O(S + N), not O(S N), and each step's output mode is a bisection over the
segment ends (Signal.mode_at).  Its spans are the ones a fresh pass t += d
over the segments gives (the signal's cumulative ends, summed in segment
order), and it keeps the same inclusion rule, so every output is the same
to the bit.

_expm_stack is a batched exponential: Pade degree 13 with scaling and
squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) on a (K, N, N) stack
in one pass of numpy calls.  Its cost is mostly per call, so it pays for
stacks of more than a few matrices; l2gain's Riccati sweep builds every
whole-segment exponential of a backward pass with it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import Signal, SystemSpec

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


class _Cursor:
    """One forward pass over a signal's segments.

    clip resumes at the segment where the previous call stopped, so a
    sequence of intervals moving forward in time reads every segment a
    bounded number of times.  An interval starting earlier than the previous
    one restarts at the first segment, so any order gives the same answers.
    """

    def __init__(self, sig: Signal):
        self.segments = sig.segments
        self.ends = sig.segment_ends
        self.horizon = self.ends[-1]
        self.first = 0               # no segment before it meets [s, t] with s >= self.s
        self.s = -math.inf

    def clip(self, s, t):
        """Sub-intervals of [s, t] longer than 1e-14 with their active modes, in time order."""
        horizon = self.horizon
        tol = 1e-9 * max(1.0, horizon)
        if s < -tol or t > horizon + tol or s > t + tol:
            raise ValueError(f"interval [{s}, {t}] outside signal horizon [0, {horizon}]")
        ends = self.ends
        k = self.first if s >= self.s else 0
        # a segment ending within 1e-14 of s gives no span for this s or any later one
        while k < len(ends) and ends[k] - s <= 1e-14:
            k += 1
        self.first, self.s = k, s
        out = []
        a = ends[k - 1] if k else 0.0
        while k < len(ends) and a < t:
            b = ends[k]
            lo, hi = max(a, s), min(b, t)
            if hi - lo > 1e-14:
                out.append((lo, hi, self.segments[k][0]))
            a = b
            k += 1
        return out


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
    squaring as inf or NaN; neither raises or touches the other slices.
    """
    M = np.asarray(M, dtype=float)
    K, N, _ = M.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(M).sum(axis=1).max(axis=1)
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


def transition(sys: SystemSpec, sig: Signal, s: float, t: float) -> np.ndarray:
    """Flow Phi(t, s) of xdot = A(sigma(t)) x along the signal, s <= t."""
    sig.check_modes(sys)
    phi = np.eye(sys.n)
    for lo, hi, i in _Cursor(sig).clip(s, t):
        phi = expm(sys.A(i) * (hi - lo)) @ phi
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
    """Windowed Gramians on [t0, t1], accumulated exactly across segments."""
    sig.check_modes(sys)
    n = sys.n
    wc = np.zeros((n, n))
    wo = np.zeros((n, n))
    back = np.eye(n)     # Phi(t0, current segment start)
    fwd = np.eye(n)      # Phi(current segment start, t0)
    for lo, hi, i in _Cursor(sig).clip(t0, t1):
        A, B, C = sys.A(i), sys.B(i), sys.C(i)
        dt = hi - lo
        wc += back @ _gram_block(-A, B @ B.T, dt) @ back.T
        wo += fwd.T @ _gram_block(A.T, C.T @ C, dt) @ fwd
        step = expm(A * dt)
        fwd = step @ fwd
        back = back @ expm(-A * dt)
    wc = 0.5 * (wc + wc.T)
    wo = 0.5 * (wo + wo.T)
    return GramianPair(wc=wc, wo=wo, horizon=t1 - t0)


def _zoh_step(sys, cursor, t, dt, cache):
    """Exact one-step propagator (Phi, Gamma) over [t, t+dt] for ZOH input."""
    n, m = sys.n, sys.m
    phi = np.eye(n)
    gam = np.zeros((n, m))
    for lo, hi, i in cursor.clip(t, t + dt):
        h = hi - lo
        key = (i, round(h, 15))
        if key not in cache:
            M = np.zeros((n + m, n + m))
            M[:n, :n] = sys.A(i)
            M[:n, n:] = sys.B(i)
            E = expm(M * h)
            cache[key] = (E[:n, :n], E[:n, n:])
        ephi, egam = cache[key]
        phi = ephi @ phi
        gam = ephi @ gam + egam
    return phi, gam


def simulate(sys: SystemSpec, sig: Signal, u, x0, dt: float) -> Trajectory:
    """Simulate xdot = A x + B u with zero-order-hold input samples u.

    u has one row per step of size dt; the total u span must match the signal
    horizon.  Propagation is exact per step (homogeneous exponential plus the
    integrated input term), including steps that straddle a switch.  The
    steps share one segment cursor, so clipping them costs O(steps +
    segments).
    """
    sig.check_modes(sys)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] == 1 and sys.m == 1 and u.shape[1] != sys.m:
        u = u.T
    if u.shape[1] != sys.m:
        raise ValueError(f"input samples must have {sys.m} columns, got {u.shape[1]}")
    if dt <= 0:
        raise ValueError("grid step must be positive")
    steps = u.shape[0]
    horizon = sig.horizon
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"grid ({steps} x {dt}) does not match horizon {horizon}")

    x = np.asarray(x0, dtype=float).reshape(sys.n)
    times = np.empty(steps + 1)
    states = np.empty((steps + 1, sys.n))
    outputs = np.empty((steps + 1, sys.p))
    cache = {}
    cursor = _Cursor(sig)
    times[0] = 0.0
    states[0] = x
    outputs[0] = sys.C(sig.mode_at(0.0)) @ x
    for k in range(steps):
        t = k * dt
        phi, gam = _zoh_step(sys, cursor, t, dt, cache)
        x = phi @ x + gam @ u[k]
        times[k + 1] = min((k + 1) * dt, horizon)
        states[k + 1] = x
        outputs[k + 1] = sys.C(sig.mode_at(times[k + 1])) @ x
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
