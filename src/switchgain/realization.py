"""Reachable/observable subspaces, reduction to a minimal realization,
algebraic-similarity check, and uniform-observability check.

The reachable subspace is the fixed point of the span recursion

    V_1 = span{A^j b_l : modes (A, B), 0 <= j <= n-1, B columns b_l},
    V_{k+1} = span{A^j v : modes A, v in V_k, 0 <= j <= n-1},

and the observable subspace is the same recursion on the dual system
(A^T, C^T, B^T).  Reduction first projects onto the reachable space, then
onto the observable space of the reduced system, with orthonormal
supplementary spaces so the output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Mode, Signal, SignalClassSpec, SystemSpec, _check_count, _check_positive_finite
from .flows import gramians

__all__ = [
    "SubspaceBasis",
    "ReductionMaps",
    "MinimalRealization",
    "ObservabilityReport",
    "dual_system",
    "reachable_subspace",
    "observable_subspace",
    "minimal_realization",
    "check_similarity",
    "check_uniform_observability",
]

_RANK_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis (n x r) of an invariant subspace."""

    basis: np.ndarray
    dim: int


@dataclass(frozen=True, eq=False)
class ReductionMaps:
    change_of_basis: np.ndarray      # orthogonal n x n, minimal block first
    controllable_dim: int
    observable_dim: int
    projector_to_min: np.ndarray     # n' x n
    injector_from_min: np.ndarray    # n x n'


@dataclass(frozen=True, eq=False)
class MinimalRealization:
    """Reduced system plus the maps realizing the reduction.

    sys_min is None exactly when the minimal dimension is zero (zero gain).
    """

    sys_min: SystemSpec | None
    maps: ReductionMaps

    @property
    def dim(self):
        return self.maps.observable_dim


@dataclass(frozen=True, eq=False)
class ObservabilityReport:
    per_mode_observable: tuple[bool, ...]
    gramian_floor: float | None      # sampled diagnostic no verdict reads; None if not sampled
    verdict: str                     # uniformly_observable / not_uniformly_observable / inconclusive


def _orth(columns, n):
    """Orthonormal basis of the column span, rank by singular-value threshold."""
    if columns.size == 0:
        return np.zeros((n, 0)), 0
    U, s, _ = np.linalg.svd(columns, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((n, 0)), 0
    thresh = _RANK_RTOL * s[0] * max(n, columns.shape[1])
    r = int(np.sum(s > thresh))
    return U[:, :r], r


def _complete_basis(V, n):
    """Extend orthonormal columns V to a full orthogonal n x n matrix."""
    r = V.shape[1]
    if r == n:
        return V
    probe = np.hstack([V, np.eye(n)])
    Q, _ = np.linalg.qr(probe)
    # first r columns of Q span range(V) with possible sign flips; keep V itself
    tail = Q[:, r:]
    tail = tail - V @ (V.T @ tail)
    Qt, _ = _orth(tail, n)
    return np.hstack([V, Qt[:, : n - r]])


def dual_system(sys: SystemSpec) -> SystemSpec:
    """Dual system (A^T, C^T, B^T) with input/output dimensions swapped."""
    modes = tuple(Mode(m.A.T.copy(), m.C.T.copy(), m.B.T.copy()) for m in sys.modes)
    return SystemSpec(sys.n, sys.p, sys.m, modes, label=f"dual({sys.label})")


def reachable_subspace(sys: SystemSpec) -> SubspaceBasis:
    """Fixed point of the reachable-span recursion over all modes."""
    n = sys.n
    if n == 0:
        return SubspaceBasis(np.zeros((0, 0)), 0)
    seeds = []
    for mode in sys.modes:
        K = mode.B
        for _ in range(n):
            seeds.append(K)
            K = mode.A @ K
    V, r = _orth(np.hstack(seeds) if seeds else np.zeros((n, 0)), n)
    while r > 0:
        cols = [V]
        for mode in sys.modes:
            K = V
            for _ in range(n - 1):
                K = mode.A @ K
                cols.append(K)
        V2, r2 = _orth(np.hstack(cols), n)
        if r2 == r:
            return SubspaceBasis(V2, r2)
        V, r = V2, r2
    return SubspaceBasis(V, r)


def observable_subspace(sys: SystemSpec) -> SubspaceBasis:
    """Reachable subspace of the dual system (exact duality by construction)."""
    return reachable_subspace(dual_system(sys))


def _project(sys, V):
    """Restrict all modes to the invariant subspace spanned by orthonormal V."""
    r = V.shape[1]
    modes = tuple(
        Mode(V.T @ m.A @ V, V.T @ m.B, m.C @ V) for m in sys.modes
    )
    if r == 0:
        return None
    return SystemSpec(r, sys.m, sys.p, modes, label=sys.label)


def minimal_realization(sys: SystemSpec) -> MinimalRealization:
    """Reduce to the reachable space, then to its observable space."""
    n = sys.n
    reach = reachable_subspace(sys)
    R = reach.basis
    r = reach.dim
    sys_c = _project(sys, R)
    if sys_c is None:
        Q = _complete_basis(R, n)
        maps = ReductionMaps(Q, 0, 0, np.zeros((0, n)), np.zeros((n, 0)))
        return MinimalRealization(None, maps)
    obs = observable_subspace(sys_c)
    S = obs.basis
    n_min = obs.dim
    sys_min = _project(sys_c, S)

    RS = R @ S                                   # n x n'
    S_perp = _complete_basis(S, r)[:, n_min:]
    cob = np.hstack([RS, R @ S_perp, _complete_basis(R, n)[:, r:]])
    maps = ReductionMaps(
        change_of_basis=cob,
        controllable_dim=r,
        observable_dim=n_min,
        projector_to_min=RS.T,
        injector_from_min=RS,
    )
    return MinimalRealization(sys_min, maps)


def _word_columns(sys, depth):
    """Images of words A_{i1}...A_{ik} B (k <= depth) in breadth-first order."""
    cols = [m.B for m in sys.modes]
    frontier = list(cols)
    for _ in range(depth):
        nxt = []
        for blk in frontier:
            for m in sys.modes:
                nxt.append(m.A @ blk)
        cols.extend(nxt)
        frontier = nxt
    return np.hstack(cols)


def check_similarity(m1: MinimalRealization, m2: MinimalRealization, tol: float = 1e-6):
    """Similarity transform G between two minimal realizations, or None.

    G is built by matching word-reachability columns (greedy selection of
    independent columns) and verified on all modes: A2 = G^{-1} A1 G,
    B2 = G^{-1} B1, C2 = C1 G within the relative tolerance.
    """
    _check_positive_finite("tol", tol)
    if m1.dim != m2.dim:
        raise ValueError("dimension mismatch between realizations")
    if m1.dim == 0:
        return np.zeros((0, 0))
    s1, s2 = m1.sys_min, m2.sys_min
    if s1.n_modes != s2.n_modes:
        raise ValueError("mode count mismatch between realizations")
    n = m1.dim
    X1 = _word_columns(s1, n)
    X2 = _word_columns(s2, n)
    sel = []
    basis = np.zeros((n, 0))
    scale = max(np.linalg.norm(X1, axis=0).max(), 1e-300)
    for j in range(X1.shape[1]):
        c = X1[:, j]
        resid = c - basis @ (basis.T @ c)
        if np.linalg.norm(resid) > 1e-9 * scale * n:
            sel.append(j)
            basis = np.hstack([basis, (resid / np.linalg.norm(resid))[:, None]])
            if len(sel) == n:
                break
    if len(sel) < n:
        return None
    M1 = X1[:, sel]
    M2 = X2[:, sel]
    if np.linalg.matrix_rank(M2) < n:
        return None
    G = M1 @ np.linalg.inv(M2)

    def rel(err, ref):
        return err / max(1.0, ref)

    gnorm = np.linalg.norm(G)
    for a, b in zip(s1.modes, s2.modes):
        if rel(np.linalg.norm(G @ b.A - a.A @ G), np.linalg.norm(a.A) * gnorm) > tol:
            return None
        if rel(np.linalg.norm(G @ b.B - a.B), np.linalg.norm(a.B)) > tol:
            return None
        if rel(np.linalg.norm(b.C - a.C @ G), np.linalg.norm(a.C) * gnorm) > tol:
            return None
    return G


def _kalman_observable(A, C):
    n = A.shape[0]
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    return _orth(np.vstack(blocks).T, n)[1] == n


def _random_class_signal(n_modes, tau, horizon, rng):
    segs, t, prev = [], 0.0, -1
    while t < horizon:
        i = int(rng.integers(0, n_modes))
        if i == prev and n_modes > 1:
            i = (i + 1) % n_modes
        if tau > 0:
            d = tau * (1.0 + float(rng.random()))
        else:
            d = max(horizon * (0.05 + 0.25 * float(rng.random())), 1e-3)
        segs.append((i, d))
        t += d
        prev = i
    return Signal(tuple(segs))


def _observability_rule(sys: SystemSpec, cls: SignalClassSpec) -> ObservabilityReport:
    """Uniform-observability verdict from the per-mode Kalman tests and the dwell floor.

    For a finite mode set under a positive dwell time, observability of every
    pair (A_i, C_i) is equivalent to uniform observability, so the verdict is
    certified in that case.  Under arbitrary switching only the necessity
    direction is certified, and an all-observable outcome stays inconclusive.
    Nothing is sampled: gramian_floor is None.
    """
    per_mode = tuple(_kalman_observable(m.A, m.C) for m in sys.modes)
    if not all(per_mode):
        verdict = "not_uniformly_observable"
    elif cls.dwell_floor > 0:
        verdict = "uniformly_observable"
    else:
        verdict = "inconclusive"
    return ObservabilityReport(per_mode, None, verdict)


def check_uniform_observability(
    sys: SystemSpec,
    cls: SignalClassSpec,
    window: float,
    samples: int = 20,
    seed: int = 0,
) -> ObservabilityReport:
    """_observability_rule's report plus a sampled Gramian floor, a diagnostic no verdict reads.

    The floor is the least observability-Gramian eigenvalue over samples
    class signals of horizon window, drawn from seed.
    """
    rule = _observability_rule(sys, cls)
    _check_positive_finite("window", window)
    _check_count("samples", samples, 1)

    rng = np.random.default_rng(seed)
    floor = math.inf
    for _ in range(samples):
        sig = _random_class_signal(sys.n_modes, cls.dwell_floor, window, rng)
        pair = gramians(sys, sig, 0.0, window)
        lam = np.linalg.eigvalsh(pair.wo)[0] if sys.n else 0.0
        floor = min(floor, float(lam))
    floor = max(floor, 0.0) if floor is not math.inf else 0.0
    return replace(rule, gramian_floor=floor)
