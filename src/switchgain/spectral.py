"""Constrained generalized spectral radius over dwell-time switching classes.

Lower bounds come from periodic words, that is finite signals repeated: every
signal whose segments (including the first and last one) respect the class
minimum dwell repeats into a class-valid signal, so
spectral_radius(flow)^(1/horizon) is a rigorous lower bound, and
single-segment signals give e^(spectral abscissa) exactly.  Upper bounds come
from a polytope-norm certificate: a finite set of scaled semigroup products
defines v(x) = max(|x|, max_j |S_j x|); once every letter of a duration grid
contracts v at rate mu_c per unit time, so does every product of letters.
Off-grid durations are covered by a reported multiplicative grid inflation
exp(a_max * delta), and dwells beyond the grid cap by per-mode eigenvalue
envelopes; failures of either closure are flagged, never silently absorbed.

Letters.  Every letter grid (the word search's, the certifier's and the
quasi-extremal one) is one flows._expm_stack call over all its (mode,
duration) pairs, so each letter meets Higham's backward-error bound however
ill-conditioned the mode's eigenvectors; no eigenvector formula is used.

Domination check.  The certificate grows from a worklist: each product
P = S_j L of a stored generator and a letter is stored unless its Gram matrix
Q = P^T P is dominated, that is eigvalsh(G - Q)[0] >= -tol(G), tol(G) =
1e-10 (1 + tr G), for a stored Gram matrix G or for the mean of the stored
ones (tests/oracles.py keeps the loop that evaluates this with eigvalsh on
every pair, and the tests require the same generators bit for bit).  The
certifier takes the same decisions with far less work, because:

- The decision is an OR over the stored Gram matrices and their mean, so
  they may be tried in any order, each product leaving at the first that
  dominates it; and a stored Gram matrix is never removed, so products of
  several worklist items can be tried together against the Gram matrices
  stored before all of them.  Only the mean changes with every append; it
  is computed per item, from the same stack in the same order as before.
  The old first test, lambda_max(Q) <= 1 + 1e-10, is implied by the identity
  (stored first, tol (1 + n) 1e-10) with a margin of 1e-10 against rounding
  of order n u |Q|, so it is not repeated.
- Norm-product bound: |P|_2 <= |S_j|_2 |L|_2.  When the computed product of
  norms is below 1, lambda_max(Q) < 1 + O(n u) and the identity dominates
  Q, so P and Q are never formed.
- Pivot kernel and its rounding band: for D = G - Q, read from its lower
  triangle as eigvalsh reads it, and e = 1e-12 (sum_ij |D_ij| + tol), a
  Cholesky factorization of D + (tol - e) I that meets only positive
  pivots proves the pair dominated, and one of D + (tol + e) I that meets a
  nonpositive pivot proves it is not.  With unit roundoff u: a Cholesky
  factorization that completes is exact for a matrix within gamma_{n+1}
  |R^T||R| of the one factored, of 2-norm at most about gamma_{n+1}
  (sum |D_ij| + n |tol +- e|); Cholesky completes on any symmetric matrix
  whose least eigenvalue exceeds n gamma_{n+1} / (1 - n gamma_{n+1}) times
  its largest diagonal entry (Demmel's condition; Higham, Accuracy and
  Stability of Numerical Algorithms, ch. 10); and eigvalsh (LAPACK syevd)
  returns eigenvalues within p(n) u |D|_2 of the exact ones.  For n <= 20
  each of these is below a tenth of e, so outside the band the kernel and
  eigvalsh decide alike.  Pairs inside the band, and pairs with sum |D_ij|
  past 1e150, where the elimination could overflow, are decided by
  eigvalsh on the same matrix.
- A pair with D_ii < -tol - 1e-12 (tr G + tr Q) for some i is not dominated,
  since lambda_min(D) <= D_ii and |D|_2 <= tr G + tr Q (1 + O(n u)) for
  computed Gram matrices; such pairs are never formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .core import (Signal, SignalClassSpec, SystemSpec, _check_count, _check_durations,
                   _check_positive_finite)
from .flows import Trajectory, _expm_stack

__all__ = [
    "RhoEstimate",
    "PolytopeNorm",
    "RhoCurve",
    "QuasiExtremalReport",
    "rho_lower",
    "rho_upper",
    "rho_estimate",
    "extremal_norm",
    "quasi_extremal_trajectory",
    "rho_curve",
]

_PSD_TOL = 1e-10


def class_tau(cls: SignalClassSpec, *, for_upper: bool = False) -> float:
    """Dwell floor used by the word machinery for a class.

    arbitrary -> 0, dwell -> tau (SignalClassSpec.dwell_floor).  avg_dwell
    routes through dwell machinery: its words searched with dwell tau are
    class-valid (lower side), while the upper side must cover the whole
    piecewise-constant superclass (tau 0) unless N0 = 1, in which case the
    classes coincide.
    """
    if cls.kind == "avg_dwell":
        return 0.0 if for_upper and cls.n0 != 1 else cls.tau
    return cls.dwell_floor


# stored generators after which the certifier gives up ('budget_exhausted')
_BUDGET = 600


def certification_grid(tau, delta=None, cap=None, budget=None):
    """The certifier's letter-grid step delta, duration cap and generator
    budget at dwell floor tau; a value given is kept, a missing one takes its
    default.  Each must be positive and finite, or ValueError names it."""
    if delta is None:
        delta = tau / 20.0 if tau > 0 else 0.05
    if cap is None:
        cap = 10.0 * max(tau, 1.0)
    if budget is None:
        budget = _BUDGET
    _check_positive_finite("delta", delta)
    _check_positive_finite("cap", cap)
    _check_positive_finite("budget", budget)
    return delta, cap, budget


@dataclass(frozen=True, eq=False)
class RhoEstimate:
    tau: float
    lower: float
    upper: float
    witness: Signal | None
    inflation: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-12):
            raise ValueError(f"invalid estimate bounds [{self.lower}, {self.upper}]")

    @property
    def certified(self):
        """Whether the upper bound is certified: stabilized, without the long-dwell heuristic."""
        return "stabilized" in self.flags and "long_dwell_heuristic" not in self.flags

    @property
    def lyapunov_exponent_upper(self):
        return math.log(self.upper) if math.isfinite(self.upper) else math.inf

    def to_dict(self):
        return {
            "tau": self.tau,
            "lower": self.lower,
            "upper": self.upper if math.isfinite(self.upper) else None,
            "witness": {"letters": [[i, d] for i, d in self.witness.segments]}
            if self.witness
            else None,
            "inflation": self.inflation,
            "flags": list(self.flags),
        }


@dataclass(frozen=True, eq=False)
class PolytopeNorm:
    """max of |x| and |S_j x| over stored scaled products S_j = mu^-t R_t.

    scaled[0] is the identity; raw generators are scaled[j] / scales[j].
    """

    scaled: np.ndarray           # (N, n, n)
    times: np.ndarray            # (N,)
    mu: float
    stabilized: bool
    flags: tuple[str, ...] = ()

    @property
    def scales(self):
        return self.mu ** (-self.times)

    def generators(self):
        return [(self.scaled[j] / self.scales[j], float(self.times[j]), float(self.scales[j]))
                for j in range(len(self.times))]

    def evaluate(self, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(np.max(np.linalg.norm(self.scaled @ x, axis=1)))

    __call__ = evaluate


def _spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M)))) if M.size else 0.0


def _spectral_abscissa(A):
    return float(np.max(np.real(np.linalg.eigvals(A)))) if A.size else -math.inf


def _exp_bound(name, x):
    """math.exp(x) for the bound name; ValueError naming it when it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ValueError(f"{name} overflows: exp({x!r})") from None


# ---------------------------------------------------------------------------
# lower bound: periodic-word search


def _mode_sequences(n_modes, max_letters):
    """Cyclic words without adjacent repeats, one representative per rotation."""
    out = []
    for k in range(2, max_letters + 1):
        for seq in itertools.product(range(n_modes), repeat=k):
            if any(seq[i] == seq[(i + 1) % k] for i in range(k)):
                continue
            rotations = [seq[i:] + seq[:i] for i in range(k)]
            if seq != min(rotations):
                continue
            if any(k % d == 0 and seq == seq[:d] * (k // d) for d in range(1, k)):
                continue
            out.append(seq)
    return out


def _word_value(mats, ts):
    phi = mats[0]
    for M in mats[1:]:
        phi = M @ phi
    total = sum(ts)
    sr = _spectral_radius(phi)
    if sr <= 0.0:
        return 0.0
    return sr ** (1.0 / total)


def _signal_rate(sys, sig):
    """spectral_radius(flow)^(1/horizon) of a signal, from one expm per segment."""
    return _word_value([expm(sys.A(i) * d) for i, d in sig.segments],
                       [d for _, d in sig.segments])


def _golden_refine(f, lo, hi):
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def default_duration_grid(tau):
    if tau > 0:
        return tuple(tau * m for m in (1.0, 1.25, 1.6, 2.0, 3.0, 5.0))
    return (0.05, 0.1, 0.2, 0.4, 0.8, 1.5, 3.0)


def rho_lower(
    sys: SystemSpec,
    cls: SignalClassSpec,
    *,
    max_letters: int = 4,
    duration_grid=None,
) -> RhoEstimate:
    """Rigorous lower bound on the constrained generalized spectral radius.

    Maximizes over (a) single-mode candidates e^(abscissa) and (b) periodic
    words with grid durations, coordinate-descent over the grid and then a
    continuous refinement of the best word's durations (respecting the dwell
    floor), with words of up to max_letters >= 1 letters and grid entries at
    or above the dwell floor.  The witness repeats into a class-valid signal.
    """
    _check_count("max_letters", max_letters, 1)
    tau = class_tau(cls)
    grid = default_duration_grid(tau) if duration_grid is None else duration_grid
    grid = tuple(g for g in _check_durations("duration_grid", grid) if g >= max(tau, 1e-9) - 1e-12)
    if not grid:
        raise ValueError("empty duration grid after applying the dwell floor")

    best_val, best_word = -1.0, None
    for k, mode in enumerate(sys.modes):
        val = _exp_bound("rho lower bound e^(spectral abscissa)", _spectral_abscissa(mode.A))
        if val > best_val:
            best_val = val
            best_word = Signal(((k, max(tau, grid[0])),))

    pairs = [(k, g) for k in range(sys.n_modes) for g in grid]
    cache = dict(zip(pairs, _expm_stack([sys.A(k) * g for k, g in pairs])))

    for seq in _mode_sequences(sys.n_modes, max_letters):
        k = len(seq)
        starts = [(grid[0],) * k, (grid[len(grid) // 2],) * k, (grid[-1],) * k]
        for ts0 in starts:
            ts = list(ts0)
            val = _word_value([cache[(i, t)] for i, t in zip(seq, ts)], ts)
            for _ in range(3):
                changed = False
                for pos in range(k):
                    for g in grid:
                        if g == ts[pos]:
                            continue
                        trial = list(ts)
                        trial[pos] = g
                        v = _word_value([cache[(i, t)] for i, t in zip(seq, trial)], trial)
                        if v > val + 1e-15:
                            val, ts, changed = v, trial, True
                if not changed:
                    break
            if val > best_val:
                best_val = val
                best_word = Signal(tuple(zip(seq, ts)))

    if len(best_word.segments) >= 2:
        letters = list(best_word.segments)
        lo = max(tau, 1e-3)
        for _ in range(2):
            for pos in range(len(letters)):
                # only letter pos varies: the other exponentials are built once
                fixed = [None if j == pos else expm(sys.A(i) * d)
                         for j, (i, d) in enumerate(letters)]

                def f(x, pos=pos, fixed=fixed):
                    trial = list(letters)
                    trial[pos] = (trial[pos][0], x)
                    mats = list(fixed)
                    mats[pos] = expm(sys.A(trial[pos][0]) * x)
                    return _word_value(mats, [d for _, d in trial])

                hi = max(4.0 * letters[pos][1], lo + 1.0)
                x, v = _golden_refine(f, lo, hi)
                if v > best_val:
                    best_val = v
                    letters[pos] = (letters[pos][0], x)
        best_word = Signal(tuple(letters))
        best_val = max(best_val, _signal_rate(sys, best_word))

    return RhoEstimate(
        tau=tau,
        lower=best_val,
        upper=math.inf,
        witness=best_word,
        inflation=1.0,
        flags=("lower_only",),
    )


# ---------------------------------------------------------------------------
# upper bound: polytope-norm certification

# pair tests per batched step; bounds the memory of the domination check
_CHUNK = 1 << 15
# products of the queued worklist items that are checked together
_BATCH = 2048
# the stored Grams of largest trace, which every product of a batch meets
_TOP = 21


class _Layout(NamedTuple):
    """Lower triangle of n x n matrices, entries in row-major order."""

    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray       # index of each entry in the flattened matrix
    diag: list             # positions of the diagonal entries
    weight: np.ndarray     # 1 on the diagonal, 2 off it: weight @ |low| = sum_ij |M_ij|


@functools.lru_cache(maxsize=None)
def _layout(n):
    r, c = np.tril_indices(n)
    diag = [i * (i + 3) // 2 for i in range(n)]
    return _Layout(r, c, r * n + c, diag, np.where(r == c, 1.0, 2.0))


def _order(rows):
    """n of the lower-triangle form with this many rows."""
    return (math.isqrt(8 * rows + 1) - 1) // 2


@dataclass(frozen=True, eq=False)
class _Grams:
    """Symmetric matrices in lower-triangle form, one column per matrix (row
    i(i+1)/2 + j holds entry (i, j)), with their traces and, for stored
    Gram matrices, their domination tolerances."""

    low: np.ndarray
    tr: np.ndarray
    tol: np.ndarray | None = None

    @staticmethod
    def of(M, tol=None):
        n = M.shape[-1]
        return _Grams(M.reshape(len(M), n * n).T[_layout(n).flat], np.einsum("kii->k", M), tol)

    @staticmethod
    def join(*parts):
        return _Grams(np.concatenate([p.low for p in parts], axis=1),
                      np.concatenate([p.tr for p in parts]),
                      np.concatenate([p.tol for p in parts]))

    def __len__(self):
        return len(self.tr)

    def __getitem__(self, idx):
        return _Grams(self.low[:, idx], self.tr[idx], self.tol[idx])


def _cholesky_completes(D, shift):
    """Whether floating-point Cholesky of each D + shift I (lower form) has only positive pivots."""
    n = _order(len(D))
    A = D.copy()
    diag = _layout(n).diag
    ok = np.ones(A.shape[1], dtype=bool)
    for c in range(n):
        A[diag[c]] += shift
    for c in range(n):
        pivot = A[diag[c]]
        ok &= pivot > 0
        root = np.sqrt(pivot)
        col = {i: A[i * (i + 1) // 2 + c] / root for i in range(c + 1, n)}
        for i in range(c + 1, n):
            for j in range(c + 1, i + 1):
                A[i * (i + 1) // 2 + j] -= col[i] * col[j]
    return ok


def _dominated(D, tol):
    """not (eigvalsh(D)[..., 0] < -tol) for each D = G - Q (lower form), decided
    by Cholesky outside a rounding band and by eigvalsh inside it (module docstring)."""
    n = _order(len(D))
    layout = _layout(n)
    e = 1e-12 * (layout.weight @ np.abs(D) + tol)
    out = np.zeros(D.shape[1], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        # past 1e150, or not finite, the elimination could overflow: eigvalsh decides
        maybe = np.nonzero(_cholesky_completes(D, tol + e) | ~(e <= 1e138))[0]
        if not maybe.size:
            return out
        sure = _cholesky_completes(D[:, maybe], tol[maybe] - e[maybe])
    out[maybe[sure]] = True
    band = maybe[~sure]
    if band.size:
        full = np.empty((band.size, n, n))
        full[:, layout.rows, layout.cols] = full[:, layout.cols, layout.rows] = D[:, band].T
        out[band] = ~(np.linalg.eigvalsh(full)[..., 0] < -tol[band])
    return out


def _undominated(Q, alive, G, first=0):
    """The entries of alive whose matrix Q[alive] no matrix of G dominates.

    G[:first] is tried before the rest, and a product leaves at the first
    step that finds it dominated; a step tests at most _CHUNK pairs.  A pair
    with G_ii - Q_ii < -tol - 1e-12 (tr G + tr Q) for some i is not
    dominated (lambda_min <= D_ii; module docstring) and is never formed.
    """
    diag = _layout(_order(len(Q.low))).diag
    k = 0
    for end in (first, len(G)):
        while alive.size and k < end:
            b = slice(k, min(end, k + max(_CHUNK // alive.size, 1)))
            low = np.min([G.low[d, None, b] - Q.low[d, alive, None] for d in diag], axis=0)
            qi, gi = np.nonzero(low >= -G.tol[b] - 1e-12 * (G.tr[b] + Q.tr[alive, None]))
            gi += k
            hit = _dominated(G.low[:, gi] - Q.low[:, alive[qi]], G.tol[gi])
            dominated = np.zeros(alive.size, dtype=bool)
            dominated[qi[hit]] = True
            alive = alive[~dominated]
            k = b.stop
    return alive


def _nearest_dominates(Q, alive, G):
    """For each entry of alive, whether its Frobenius-nearest matrix of G dominates Q[alive]."""
    weighted = G.low * _layout(_order(len(G.low))).weight[:, None]
    g2 = np.einsum("tk,tk->k", weighted, G.low)
    near = np.empty(alive.size, dtype=np.intp)
    step = max(_CHUNK // len(G), 1)
    for s in range(0, alive.size, step):
        cross = weighted.T @ Q.low[:, alive[s:s + step]]
        near[s:s + step] = np.argmin(g2[:, None] - 2.0 * cross, axis=0)
    return _dominated(G.low[:, near] - Q.low[:, alive], G.tol[near])


class _Certifier:
    """Worklist certification of |letter|_v <= mu_c^t on a duration grid."""

    def __init__(self, modes_A, tau, mu_c, delta, cap, budget):
        self.modes_A = modes_A
        self.n = modes_A[0].shape[0]
        self.tau = tau
        self.mu_c = mu_c
        self.log_mu = math.log(mu_c)
        self.delta = delta
        self.budget = budget
        self.flags = set()
        self.caps = [cap] * len(modes_A)
        self.letters = None
        self.stored = []
        self.times = []
        self.norms = []                           # |S_j|_2
        self._grams = np.empty((64, self.n, self.n))
        self._tols = np.empty(64)
        self.store(np.eye(self.n), 0.0, np.eye(self.n), 1.0)

    @property
    def grams(self):
        """Gram matrices S_j^T S_j of the stored generators, in storage order."""
        return self._grams[:len(self.stored)]

    def store(self, S, t, Q, norm):
        """Append the generator S of time t, Gram matrix Q and spectral norm norm."""
        N = len(self.stored)
        if N == len(self._grams):
            self._grams = np.concatenate([self._grams, np.empty_like(self._grams)])
            self._tols = np.concatenate([self._tols, np.empty_like(self._tols)])
        self._grams[N] = Q
        self._tols[N] = _PSD_TOL * (1.0 + np.trace(Q))
        self.stored.append(S)
        self.times.append(t)
        self.norms.append(float(norm))

    def _build_letters(self):
        t0 = max(self.tau, self.delta)
        grids = [np.arange(t0, cap + self.delta / 2, self.delta) for cap in self.caps]
        if max(g.size for g in grids) > 120_000:
            raise ValueError("certification letter grid too large; increase delta")
        ts = self.letter_times = np.concatenate(grids)
        modes = np.repeat(np.arange(len(grids)), [g.size for g in grids])
        E = _expm_stack(np.stack(self.modes_A)[modes] * ts[:, None, None])
        self.letters = E * np.exp(-self.log_mu * ts)[:, None, None]

    def seed(self, sys, witness: Signal | None):
        if witness is None:
            return
        suffix = np.eye(self.n)
        t_acc = 0.0
        seeds = []
        for i, d in reversed(witness.segments):
            suffix = suffix @ (expm(sys.A(i) * d) * self.mu_c ** (-d))
            t_acc += d
            seeds.append((suffix.copy(), t_acc))
        cycle, t_cycle = seeds[-1]
        power = cycle.copy()
        t_pow = t_cycle
        for _ in range(2):
            power = power @ cycle
            t_pow += t_cycle
            seeds.append((power.copy(), t_pow))
        for S, t in seeds:
            if np.isfinite(S).all():
                self.store(S, t, S.T @ S, np.linalg.norm(S, 2))

    def run(self):
        """Grow the stored set until no letter extends it; False on budget exhaustion.

        Stores exactly what this loop stores, in the same order: pop the next
        worklist item S_j and append (and queue) every product S_j L whose
        Gram matrix no stored Gram matrix, nor their mean, dominates.
        """
        self._build_letters()
        letter_norms = np.linalg.norm(self.letters, 2, axis=(1, 2))
        work = deque(range(len(self.stored)))
        while work:
            items, P, Q = [], [], []
            size = 0
            while work and size < _BATCH:
                j = work.popleft()
                # |S_j L| <= |S_j| |L| < 1: the identity dominates the product
                cand = np.nonzero(self.norms[j] * letter_norms >= 1.0)[0]
                prod = np.einsum("ab,lbc->lac", self.stored[j], self.letters[cand])
                items.append((j, cand))
                P.append(prod)
                Q.append(np.einsum("lba,lbc->lac", prod, prod))
                size += cand.size
            if size and not self._extend(items, np.concatenate(P), np.concatenate(Q), work):
                self.flags.add("budget_exhausted")
                return False
        return True

    def _extend(self, items, P, Q, work):
        """Store and queue, in order, the undominated products of the
        worklist items (j, letter indices); False when over budget.

        The items are checked together against the Grams stored before any
        of them: first the largest-trace one and each product's
        Frobenius-nearest one, then their mean (every item's mean until an
        item appends), then, for what the mean leaves, the next _TOP - 1 by
        trace.  What survives is checked item by item against the item's own
        mean and every other stored Gram.
        """
        Qg = _Grams.of(Q)
        N0 = len(self.stored)
        prefix = _Grams.of(self.grams, self._tols[:N0])
        prefix = prefix[np.argsort(-prefix.tr)]
        alive = _undominated(Qg, np.arange(len(Q)), prefix[:1])
        alive = alive[~_nearest_dominates(Qg, alive, prefix)]
        first_mean = np.zeros(len(Q), dtype=bool)
        first_mean[alive] = True
        first_mean[_undominated(Qg, alive, self._mean())] = False
        keep = first_mean.copy()
        keep[_undominated(Qg, alive[~first_mean[alive]], prefix[1:_TOP])] = True
        alive = np.nonzero(keep)[0]
        starts = np.cumsum([0] + [cand.size for _, cand in items])
        survivors = np.split(alive, np.searchsorted(alive, starts[1:-1]))
        for (j, cand), start, mine in zip(items, starts, survivors):
            if not mine.size:
                continue
            N = len(self.stored)
            if N == N0:
                # the item's mean is the first mean; its other survivors met prefix[:_TOP]
                new = _undominated(Qg, mine[~first_mean[mine]], prefix[_TOP:])
            else:
                added = _Grams.of(self._grams[N0:N], self._tols[N0:N])
                new = _undominated(Qg, mine, _Grams.join(self._mean(), added, prefix), first=1)
            for idx, norm in zip(new, np.linalg.norm(P[new], 2, axis=(1, 2))):
                if len(self.stored) >= self.budget:
                    return False
                t = self.times[j] + float(self.letter_times[cand[idx - start]])
                self.store(P[idx], t, Q[idx], norm)
                work.append(len(self.stored) - 1)
        return True

    def _mean(self):
        """The mean of the stored Gram matrices, with its tolerance."""
        mean = self.grams.mean(axis=0)
        return _Grams.of(mean[None], np.array([_PSD_TOL * (1.0 + np.trace(mean))]))

    def v_max(self):
        return max(self.norms)


def _mode_kappa(A, alpha):
    """Similarity conditioning for |e^{At}| <= kappa e^{alpha t}, alpha A's spectral abscissa."""
    try:
        w, V = np.linalg.eig(A)
        cond = np.linalg.cond(V)
        if np.isfinite(cond) and cond < 1e12:
            return float(cond), ()
    except np.linalg.LinAlgError:
        pass
    ts = np.linspace(0.1, 50.0, 200)
    kappa = max(np.linalg.norm(expm(A * t), 2) * math.exp(-alpha * t) for t in ts)
    return 2.0 * float(kappa), ("kappa_sampled",)


def _certify_at(sys, tau, mu_c, delta, cap, budget, witness):
    """One certification attempt; returns (certifier, stabilized), the flags in certifier.flags."""
    cert = _Certifier([m.A for m in sys.modes], tau, mu_c, delta, cap, budget)
    cert.seed(sys, witness)
    stabilized = cert.run()
    if stabilized:
        # long-dwell closure: extend the tested grid until the per-mode
        # eigen-envelope kappa e^{alpha t} falls below mu_c^t in the v-norm
        envelopes = []
        for k, A in enumerate(cert.modes_A):
            alpha = _spectral_abscissa(A)
            if alpha >= cert.log_mu - 1e-12:
                cert.flags.add("long_dwell_heuristic")
                continue
            kappa, kf = _mode_kappa(A, alpha)
            cert.flags.update(kf)
            envelopes.append((k, alpha, kappa))
        for _ in range(3):
            vmax = cert.v_max()
            extended = False
            for k, alpha, kappa in envelopes:
                t_star = math.log(max(vmax * kappa, 1.0)) / (cert.log_mu - alpha)
                if t_star > cert.caps[k] + 1e-9:
                    cert.caps[k] = t_star + cert.delta
                    extended = True
            if not extended:
                break
            stabilized = cert.run()
            if not stabilized:
                break
        else:
            cert.flags.add("long_dwell_heuristic")
    return cert, stabilized


# certification attempts of rho_upper, each after the first at twice the
# previous eps
_EPS_ATTEMPTS = 4


def rho_upper(
    sys: SystemSpec,
    cls: SignalClassSpec,
    *,
    lower_estimate: RhoEstimate | None = None,
    eps: float = 0.005,
    delta: float | None = None,
    cap: float | None = None,
    budget: int | None = None,
) -> RhoEstimate:
    """Certified-up-to-grid-inflation upper bound on the spectral radius.

    An attempt certifies the rate mu_c = lower (1 + eps), lower from
    lower_estimate (default: a rho_lower search at its defaults), and
    reports mu_c * exp(a_max * delta), a_max the largest mode norm.  The
    first attempt whose estimate is certified (RhoEstimate.certified) is
    returned, eps doubling from one attempt to the next, _EPS_ATTEMPTS in
    all; if none is, the first, tightest one and the flags that say why.
    delta, cap and budget default as certification_grid says.
    """
    _check_positive_finite("eps", eps)
    tau = class_tau(cls, for_upper=True)
    delta, cap, budget = certification_grid(tau, delta, cap, budget)
    if lower_estimate is None:
        lower_estimate = rho_lower(sys, cls)
    if lower_estimate.lower <= 0:
        raise ValueError("the rho lower bound must be positive")
    a_max = max(float(np.linalg.norm(m.A, 2)) for m in sys.modes)
    inflation = _exp_bound("rho upper bound's grid inflation exp(a_max * delta)", a_max * delta)

    first = None
    attempt_eps = eps
    for _ in range(_EPS_ATTEMPTS):
        mu_c = lower_estimate.lower * (1.0 + attempt_eps)
        cert, stabilized = _certify_at(sys, tau, mu_c, delta, cap, budget, lower_estimate.witness)
        flags = {"stabilized" if stabilized else "not_stabilized", f"eps={attempt_eps:g}"}
        est = replace(lower_estimate, upper=mu_c * inflation, inflation=inflation,
                      flags=tuple(sorted(cert.flags | flags)))
        if est.certified:
            return est
        if first is None:
            first = est
        attempt_eps *= 2.0
    return first


def rho_estimate(sys, cls, *, search_opts=None, upper_opts=None) -> RhoEstimate:
    """Convenience: lower-bound search followed by upper-bound certification."""
    lower = rho_lower(sys, cls, **(search_opts or {}))
    return rho_upper(sys, cls, lower_estimate=lower, **(upper_opts or {}))


def extremal_norm(
    sys: SystemSpec,
    cls: SignalClassSpec,
    mu_hat: float,
    *,
    delta: float | None = None,
    cap: float | None = None,
    budget: int | None = None,
    witness: Signal | None = None,
) -> PolytopeNorm:
    """Approximate extremal norm at rate mu_hat from the stabilized iteration;
    delta, cap and budget default as certification_grid says."""
    _check_positive_finite("mu_hat", mu_hat)
    tau = class_tau(cls, for_upper=True)
    delta, cap, budget = certification_grid(tau, delta, cap, budget)
    cert, stabilized = _certify_at(sys, tau, mu_hat, delta, cap, budget, witness)
    return PolytopeNorm(
        scaled=np.stack(cert.stored),
        times=np.array(cert.times),
        mu=mu_hat,
        stabilized=stabilized,
        flags=tuple(sorted(cert.flags)),
    )


# ---------------------------------------------------------------------------
# quasi-extremal trajectories


@dataclass(frozen=True, eq=False)
class QuasiExtremalReport:
    trajectory: Trajectory
    mu_hat: float
    c_lower: float
    c_upper: float
    signal: Signal


def _witness_polytope(sys, witness, mu_hat):
    """Scaled completions (suffix products) of the witness cycle repeated three times.

    With suffixes S_j = L_k ... L_{j+1} stored, applying the cycle letter at
    phase j maps the S_{j+1}-component onto the S_j-component, so a greedy
    maximizing this polytope norm keeps the witness cycle available as a
    non-losing move, so the growth certificate of the witness is realized
    instead of the myopic euclidean choice."""
    mats = [np.eye(sys.n)]
    if witness is not None:
        scaled = [expm(sys.A(i) * d) * mu_hat ** (-d) for i, d in witness.segments]
        acc = np.eye(sys.n)
        for _ in range(3):
            for L in reversed(scaled):
                acc = acc @ L
                if np.isfinite(acc).all():
                    mats.append(acc.copy())
    return np.stack(mats)


def quasi_extremal_trajectory(
    sys: SystemSpec,
    cls: SignalClassSpec,
    x0,
    horizon: float,
    *,
    duration_grid=None,
) -> QuasiExtremalReport:
    """Greedy class-valid trajectory tracking the worst-case growth rate.

    At each state the next letter maximizes the mu-scaled growth measured in
    the witness-cycle polytope norm (the scaled prefixes of the lower-bound
    witness); ties break on lowest mode then shortest duration.  The report
    carries the measured sandwich constants
    c_lower <= |x(t)| / (mu^t |x0|) <= c_upper at all sample times, which are
    at most 0.05 apart; mu is the rho_lower bound at its defaults.
    """
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if np.linalg.norm(x0) == 0:
        raise ValueError("x0 must be nonzero")
    _check_positive_finite("horizon", horizon)
    tau = class_tau(cls)
    lower_est = rho_lower(sys, cls)
    mu_hat = lower_est.lower
    log_mu = math.log(mu_hat) if mu_hat > 0 else -math.inf

    if duration_grid is None:
        if tau > 0:
            duration_grid = (tau, 1.5 * tau, 2.0 * tau, 3.0 * tau)
        else:
            duration_grid = (0.05, 0.1, 0.25, 0.5, 1.0)
    durations = sorted(set(_check_durations("duration_grid", duration_grid) +
                           tuple(d for _, d in lower_est.witness.segments
                                 if d >= max(tau, 1e-9) - 1e-12)))
    pairs = [(k, float(d)) for k in range(sys.n_modes) for d in durations]
    E = _expm_stack([sys.A(k) * d for k, d in pairs])
    letters = [(k, d, e) for (k, d), e in zip(pairs, E)]
    poly = _witness_polytope(sys, lower_est.witness, mu_hat)

    def v_hat(v):
        return float(np.max(np.linalg.norm(poly @ v, axis=1)))

    segs = []
    x = x0.copy()
    t = 0.0
    times, states = [0.0], [x0.copy()]
    while t < horizon - 1e-12:
        best = None
        for k1, d1, E1 in letters:
            val = v_hat(E1 @ x)
            score = (math.log(val) if val > 0 else -math.inf) - d1 * log_mu
            key = (-round(score, 12), k1, d1)
            if best is None or key < best[0]:
                best = (key, k1, d1, E1)
        _, k1, d1, E1 = best
        d1 = min(d1, max(horizon - t, min(durations)))
        steps = max(int(math.ceil(d1 / 0.05)), 1)
        h = d1 / steps
        Eh = expm(sys.A(k1) * h)
        for _ in range(steps):
            x = Eh @ x
            t += h
            times.append(t)
            states.append(x.copy())
        segs.append((k1, d1))
    signal = Signal(tuple(segs)).merged()
    times = np.array(times)
    states = np.array(states)
    outputs = np.array([sys.C(signal.mode_at(min(tt, signal.horizon))) @ xx
                        for tt, xx in zip(times, states)])
    ratios = np.linalg.norm(states, axis=1) / (mu_hat ** times * np.linalg.norm(x0))
    traj = Trajectory(times=times, states=states, outputs=outputs)
    return QuasiExtremalReport(
        trajectory=traj,
        mu_hat=mu_hat,
        c_lower=float(ratios.min()),
        c_upper=float(ratios.max()),
        signal=signal,
    )


# ---------------------------------------------------------------------------
# rho as a function of tau


@dataclass(frozen=True, eq=False)
class RhoCurve:
    taus: tuple[float, ...]
    estimates: tuple[RhoEstimate, ...]
    lower_raw: tuple[float, ...]
    lower_envelope: tuple[float, ...]


def rho_curve(sys: SystemSpec, taus, *, with_upper=False, search_opts=None,
              upper_opts=None) -> RhoCurve:
    """Per-tau estimates with a monotone (non-increasing) lower envelope.

    The search budget is shared across the grid: every witness found at a
    larger dwell floor is re-scored at the smaller ones (where it remains
    class-valid), so raw lower bounds are non-increasing by construction;
    the right-to-left running maximum is reported alongside as the envelope.
    """
    taus = tuple(float(t) for t in taus)
    classes = [SignalClassSpec.from_tau(t) for t in taus]
    if list(taus) != sorted(taus):
        raise ValueError("tau values must be sorted ascending")
    ests: list[RhoEstimate | None] = [None] * len(taus)
    carried: list[Signal] = []
    for idx in range(len(taus) - 1, -1, -1):
        cls = classes[idx]
        est = rho_lower(sys, cls, **(search_opts or {}))
        for w in carried:
            val = _signal_rate(sys, w)
            if val > est.lower:
                est = replace(est, lower=val, witness=w)
        if est.witness is not None:
            carried.append(est.witness)
        if with_upper:
            est = rho_upper(sys, cls, lower_estimate=est, **(upper_opts or {}))
        ests[idx] = est
    raw = [e.lower for e in ests]
    env = list(raw)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    return RhoCurve(taus=taus, estimates=tuple(ests),
                    lower_raw=tuple(raw), lower_envelope=tuple(env))
