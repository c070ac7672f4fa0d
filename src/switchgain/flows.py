"""Transition matrices, Gramians, and input-driven simulation for
piecewise-constant switching signals.

Every segment is handled by a matrix exponential (scaling-and-squaring), so
no global ODE error accumulates: per-segment results are exact up to the
exponential's own tolerance and are composed across segments.  Gramians use
the augmented 2n x 2n block-exponential closed form; the controllability
Gramian is anchored at the left endpoint t0,

    wc = int_{t0}^{t1} Phi(t0, s) B(s) B(s)^T Phi(t0, s)^T ds,
    wo = int_{t0}^{t1} Phi(s, t0)^T C(s)^T C(s) Phi(s, t0) ds.
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


def _segment_spans(sig: Signal):
    """(start, end, mode) triples for the signal's segments."""
    spans, t = [], 0.0
    for i, d in sig.segments:
        spans.append((t, t + d, i))
        t += d
    return spans, t


def _clip_spans(sig, s, t):
    """Sub-intervals of [s, t] with their active modes, in time order."""
    spans, horizon = _segment_spans(sig)
    tol = 1e-9 * max(1.0, horizon)
    if s < -tol or t > horizon + tol or s > t + tol:
        raise ValueError(f"interval [{s}, {t}] outside signal horizon [0, {horizon}]")
    out = []
    for a, b, i in spans:
        lo, hi = max(a, s), min(b, t)
        if hi - lo > 1e-14:
            out.append((lo, hi, i))
    return out


def transition(sys: SystemSpec, sig: Signal, s: float, t: float) -> np.ndarray:
    """Flow Phi(t, s) of xdot = A(sigma(t)) x along the signal, s <= t."""
    sig.check_modes(sys)
    phi = np.eye(sys.n)
    for lo, hi, i in _clip_spans(sig, s, t):
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
    for lo, hi, i in _clip_spans(sig, t0, t1):
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


def _zoh_step(sys, sig, t, dt, cache):
    """Exact one-step propagator (Phi, Gamma) over [t, t+dt] for ZOH input."""
    n, m = sys.n, sys.m
    phi = np.eye(n)
    gam = np.zeros((n, m))
    for lo, hi, i in _clip_spans(sig, t, t + dt):
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
    integrated input term), including steps that straddle a switch.
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
    times[0] = 0.0
    states[0] = x
    outputs[0] = sys.C(sig.mode_at(0.0)) @ x
    for k in range(steps):
        t = k * dt
        phi, gam = _zoh_step(sys, sig, t, dt, cache)
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
