"""Finite-horizon L2-gains, gain search over a switching class, gain
finiteness verdict, and minimal dwell-time bracketing.

The finite-horizon bounded-real test is the Riccati escape-time criterion:
gamma exceeds the gain on [0, T] exactly when the backward Riccati equation
-P' = A'P + PA + C'C + gamma^-2 P B B' P with P(T) = 0 stays bounded on the
horizon.  Bisection over gamma gives the gain; an adjoint power iteration on
the discretized input-output operator provides an independent lower-bound
oracle and witness inputs.

The Riccati test needs no ODE solver.  Its answer depends only on the
input-output map, so it runs on the minimal realization, which _kernel
builds once per system and horizon and keeps for the last pair: a
gain_search shares it with its candidates and with gain_for_signal calls
after it.
In backward time, on a segment with constant mode, P = Y X^-1
where [X; Y]' = H [X; Y], H = [[-A, -gamma^-2 BB'], [C'C, A']], X(0) = I,
Y(0) = P0; so [X; Y](h) = expm(H h) [I; P0] is exact, and the solution
exists on [0, h] exactly when X stays invertible there (at a singular X(s),
some X(s)v = 0 while Y(s)v != 0, and |P| blows up).  A step is therefore
sound only if no escape lies inside it, which the substep rule guarantees:

- Comparison lemma.  With D = P - P0, Acl = A + gamma^-2 BB'P0 and R the
  right-hand side, D' = R(P0) + Acl'D + D Acl + gamma^-2 D BB' D, so the
  upper right Dini derivative of |D| (spectral norm) is at most
  gamma^-2 |B|^2 |D|^2 + 2 mu(Acl) |D| + |R(P0)|, mu the 2-norm log-norm.
  Hence |D(t)| <= r(t) for r' = a r^2 + b r + c, r(0) = 0, as long as r is
  finite, and P cannot escape before r does.  _escape_time gives that time
  in closed form.
- Basis invariance.  In coordinates x = S z, S'PS solves the Riccati
  equation of (S^-1 A S, S^-1 B, C S), and it escapes exactly when P does.
  The bound computed in any basis is thus a bound for the same escape, and
  so is the larger of two; the kernel takes the minimal basis and the basis
  that balances the modes' horizon Gramians.
- Halving.  Each substep is at most half the bound, so X stays invertible
  on the whole step.  When expm gives a non-finite X or Y, or cond(X) >=
  _COND_MAX, the step is halved; a shorter step satisfies the same
  inequality, so the guarantee is kept.

Escape is reported when |P| (Frobenius) reaches ESCAPE_NORM at a step end.
Because a step never crosses an escape, the steps approach one
geometrically and |P| reaches the threshold.  One shortcut decides
infeasibility early: X(0) = I has determinant 1, so det X(t) < 0 for the
exact flow over the rest of a segment proves that X turned singular, that
is, an escape, before t.  It is trusted only when X(t) is far enough from
singular that rounding cannot flip the sign.

Two schedules apply this rule, with one copy of each of its parts: the
bound (escape_bounds), the trial (_escapes) and the step with its guard
and halving (_substep).  _riccati_feasible tests one gamma segment after
segment, on stacks of one.  _riccati_rows decides many (signal, gamma)
rows in one backward pass: it chains whole-segment steps P -> Y X^-1 for
every row, with the exponentials of all (segment, row) pairs from one
batched Pade call, and then certifies every pair from the P the chain gave
at its start, all pairs at once (the argument is in its docstring).  Both
stay: on a stack of one, _certify costs more per substep than
_riccati_feasible (127 against 106 us, nodes pair, one segment, 15
substeps, 2-vCPU Xeon), and long signals give it stacks of 200 to 1000.
The bracket search and the bisection decide several gammas per pass on
signals of _SWEEP_SEGMENTS segments or more (the powers of two near the
one needed, the 2^3 - 1 midpoints of the next three bisection steps) and
then walk the same dyadic path as one gamma at a time, so the returned
value is the same.

_bisection is the one bisection, for gain_for_signal and for each
gain_search candidate.  Zero rule: it returns 0.0 without a test when no
input can reach an output, that is when the minimal realization has
dimension 0, or every mode of the signal has B = 0, or every one C = 0,
read exactly on the caller's system; so no schedule meets a
zero-dimensional kernel.  It fails every gamma at or below its floor
without a test.  gain_search probes chunks of candidates at the best gain
so far when that is positive, one _riccati_rows pass each, and bisects a
failed one above that best.  The best changes only there, and the chunk's
later decisions are then dropped, so each decision read was taken at the
best of its turn, as one at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
# not used here; perfbench's test_uninstall_restores_the_library reads l2gain.solve_ivp
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.linalg import expm

from .core import (Signal, SignalClassSpec, SystemSpec, _check_count, _check_durations,
                   _check_positive_finite, validate_membership)
from .flows import _expm_stack, _gram_block, _spans, _step_solver, _zoh_grid
from .realization import ObservabilityReport, check_uniform_observability, minimal_realization
from .spectral import RhoEstimate, certification_grid, rho_lower, rho_upper

__all__ = [
    "GainEstimate",
    "FinitenessVerdict",
    "TauMinResult",
    "gain_for_signal",
    "gain_power_lower",
    "gain_search",
    "finiteness_test",
    "tau_min",
]

ESCAPE_NORM = 1e12
_COND_MAX = 1e12


@dataclass(frozen=True, eq=False)
class GainEstimate:
    value: float
    horizon: float
    method: str
    tolerance: float
    witness_signal: Signal | None = None
    witness_input_energy_ratio: float | None = None
    witness_input: np.ndarray | None = None
    input_dt: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("gain value must be nonnegative")

    def to_dict(self):
        return {
            "value": self.value,
            "T": self.horizon if math.isfinite(self.horizon) else None,
            "method": self.method,
            "tolerance": self.tolerance,
            "witness_signal": [[i, d] for i, d in self.witness_signal.segments]
            if self.witness_signal
            else None,
            "witness_ratio": self.witness_input_energy_ratio,
        }


@dataclass(frozen=True, eq=False)
class FinitenessVerdict:
    verdict: str                      # finite / infinite / undetermined
    rho_min_realization: RhoEstimate
    uniform_obs: ObservabilityReport | None
    rationale: str
    minimal_dim: int


@dataclass(frozen=True, eq=False)
class TauMinResult:
    tau_reject: float                 # rho >= 1 certified (or bracket floor)
    tau_accept: float                 # rho < 1 certified
    flags: tuple[str, ...] = ()

    @property
    def width(self):
        return self.tau_accept - self.tau_reject


# ---------------------------------------------------------------------------
# Riccati bounded-real test


class _Segments(tuple):
    """(duration, mode) pairs, with the durations and modes also as arrays.

    The arrays, dts and modes, are built once with the pairs; every row pass
    over the same segments fills its (segment, row) table from them.
    """

    def __new__(cls, pairs):
        self = super().__new__(cls, pairs)
        self.dts = np.array([dt for dt, _ in self], dtype=float)
        self.modes = np.array([i for _, i in self], dtype=int)
        return self


def _reversed_segments(sig, T):
    """Segments of the signal on [0, T], listed backwards from T; T <= sig.horizon,
    as the callers check it (_check_horizon) or build the signal on [0, T]."""
    _, lo, hi, modes = _spans(sig, [0.0], [T])
    return _Segments(zip((hi - lo)[::-1].tolist(), modes[::-1].tolist()))


def _escape_time(a, b, c):
    """Escape time of r' = a r^2 + b r + c, r(0) = 0, for a, c >= 0.

    math.inf when r stays finite for all time: no quadratic term (a = 0), no
    forcing (c = 0, so r stays 0), or a positive root (b < 0, real roots)
    that r approaches as an equilibrium.  Otherwise the integral of
    dr / (a r^2 + b r + c) over [0, inf) in closed form: the arctan branch for
    a negative discriminant, the log branch for a nonnegative one (written
    with log1p so neither tiny c nor a near-double root loses digits).
    """
    if a <= 0.0 or c <= 0.0:
        return math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        w = math.sqrt(-disc)
        return 2.0 * math.atan2(w, b) / w
    if b <= 0.0:
        return math.inf
    s = math.sqrt(disc)
    if s == 0.0:
        return 2.0 / b
    # (b + s) / (2 sqrt(ac)) - 1, with b - 2 sqrt(ac) = disc / (b + 2 sqrt(ac))
    root = math.sqrt(a * c)
    x = (disc / (b + 2.0 * root) + s) / (2.0 * root)
    return 2.0 * math.log1p(x) / s


def _balancing_transform(ms, horizon):
    """(S, S^-1) that balances the modes' summed Gramians on [0, horizon].

    In the basis x = S z both summed Gramians become the same diagonal
    matrix.  None when a Gramian sum is not finite and positive definite
    (a switched system can be minimal while no single mode is).
    """
    wc = sum(_gram_block(m.A, m.B @ m.B.T, horizon) for m in ms.modes)
    wo = sum(_gram_block(m.A.T, m.C.T @ m.C, horizon) for m in ms.modes)
    if not (np.all(np.isfinite(wc)) and np.all(np.isfinite(wo))):
        return None
    try:
        lc = np.linalg.cholesky(0.5 * (wc + wc.T))
        lo = np.linalg.cholesky(0.5 * (wo + wo.T))
    except np.linalg.LinAlgError:
        return None
    U, hsv, Vt = np.linalg.svd(lo.T @ lc)
    if not hsv[-1] > 0.0:
        return None
    root = 1.0 / np.sqrt(hsv)
    return (lc @ Vt.T) * root, root[:, None] * (U.T @ lo.T)


class _RiccatiKernel:
    """Riccati escape-time test on the minimal realization of one system.

    What the test needs of a system and a horizon, built by _kernel: which
    modes have B = 0 and which C = 0 (for the zero rule), the reduction, the
    bases for the substep bound (the minimal one and, when it exists, the
    balanced one for the horizon), and per mode A, BB', A', C'C and |B|^2 in
    each basis, stacked over the modes.
    """

    def __init__(self, sys, horizon):
        # per mode of sys: whether its B and whether its C is exactly zero
        self.zero_bc = np.array([[not m.B.any(), not m.C.any()] for m in sys.modes])
        ms = minimal_realization(sys).sys_min
        self.n = 0 if ms is None else ms.n
        if ms is None:
            return
        eye = np.eye(self.n)
        bal = _balancing_transform(ms, horizon)
        bases = [(eye, eye)] + ([bal] if bal is not None else [])
        # a matrix M is taken to S^-1 M S (Acl) and to S' M S (R) in each basis
        self.S = np.stack([S for S, _ in bases])
        self.left = np.stack([np.stack([S_inv for _, S_inv in bases]),
                              np.stack([S.T for S, _ in bases])])
        # per mode A, BB', A', C'C, stacked so that one index picks all four
        self.mats = np.stack([np.stack([m.A, m.B @ m.B.T, m.A.T, m.C.T @ m.C]) for m in ms.modes])
        self.b2 = np.array([[np.linalg.norm(S_inv @ m.B, 2) ** 2 for _, S_inv in bases]
                            for m in ms.modes])
        # H = H0 + gamma^-2 Hq with H0 = [[-A, 0], [C'C, A']], Hq = [[0, -BB'], [0, 0]]
        A, BBT, AT, CTC = self.mats.swapaxes(0, 1)
        zero = np.zeros_like(A)
        self.H0 = np.block([[-A, zero], [CTC, AT]])
        self.Hq = np.block([[zero, -BBT], [zero, zero]])

    def escape_bounds(self, modes, q, P):
        """Lower bound on the escape time of the Riccati solution from each P.

        modes, q and P hold one mode index, gamma^-2 and (n, n) matrix per
        item.  For each, the larger of the local comparison bounds over the
        bases; each is a valid bound on its own.
        """
        A, BBT, AT, CTC = self.mats[modes].swapaxes(0, 1)
        M = np.empty((len(q), 2, 1) + P.shape[1:])
        Acl = np.add(A, q[:, None, None] * (BBT @ P), out=M[:, 0, 0])
        R = np.matmul(AT, P, out=M[:, 1, 0])
        R += P @ Acl
        R += CTC
        # per basis: S^-1 Acl S, symmetrized, and S' R S
        M = self.left @ M @ self.S
        M[:, 0] += M[:, 0].swapaxes(-1, -2)
        eig = np.linalg.eigvalsh(M)
        times = map(_escape_time, (q[:, None] * self.b2[modes]).ravel().tolist(),
                    eig[:, 0, :, -1].ravel().tolist(),
                    np.maximum(-eig[:, 1, :, 0], eig[:, 1, :, -1]).ravel().tolist())
        nb = len(self.S)
        return np.fromiter(times, float, len(q) * nb).reshape(len(q), nb).max(axis=1, initial=0.0)


@functools.lru_cache(maxsize=1)
def _kernel(sys, horizon):
    """The _RiccatiKernel of sys on [0, horizon], kept for the last pair; it
    cannot go stale, as a SystemSpec hashes by identity and is read-only."""
    return _RiccatiKernel(sys, horizon)


def _escapes(E, P):
    """True where det X < 0, X from [X; Y] = E [I; P], proves an escape.

    E = expm(H t) over the rest of a segment: X(0) = I has determinant 1,
    so det X(t) < 0 means that X turned singular before t.  Trusted only
    when X is finite and its smallest singular value exceeds
    ||E|| (1 + ||P||) / _COND_MAX, so rounding cannot flip the sign.
    """
    n = P.shape[-1]
    X = E[:, :n, :n] + E[:, :n, n:] @ P
    finite = np.isfinite(X).all(axis=(1, 2))
    if not finite.all():
        X = np.where(finite[:, None, None], X, np.eye(n))
    floor = (np.sqrt(np.einsum("kij,kij->k", E, E))
             * (1.0 + np.sqrt(np.einsum("kij,kij->k", P, P))) / _COND_MAX)
    smallest = np.linalg.svd(X, compute_uv=False)[:, -1]
    return finite & (smallest > floor) & (np.linalg.det(X) < 0.0)


def _exponentials(H, t, whole=None, dt=None):
    """expm(H_k t_k) for stacks H and t.

    whole, when given, holds expm(H_k dt) and is overwritten where t_k !=
    dt.  Fewer than _STACK_MIN exponentials are built one by one with
    scipy's expm, which costs less per call than _expm_stack.
    """
    if whole is None:
        E, fresh = np.empty_like(H), np.arange(len(H))
    else:
        E, fresh = whole, np.flatnonzero(t != dt)
    if len(fresh) >= _STACK_MIN:
        E[fresh] = _expm_stack(H[fresh] * t[fresh, None, None])
    else:
        for k in fresh:
            E[k] = expm(H[k] * t[k])
    return E


def _hamiltonian_step(E, P):
    """(P_next, ok) for stacks E and P: P_next = Y X^-1, symmetrized, with
    [X; Y] = E [I; P]; ok where X and Y are finite and cond(X) < _COND_MAX,
    the steps whose P_next may be used."""
    n = P.shape[-1]
    XY = E[:, :, :n] + E[:, :, n:] @ P
    X, Y = XY[:, :n], XY[:, n:]
    ok = np.isfinite(XY).all(axis=(1, 2))
    if ok.all():
        U, sv, Vt = np.linalg.svd(X)
    else:
        U, sv, Vt = np.linalg.svd(np.where(ok[:, None, None], X, np.eye(n)))
    ok &= sv[:, 0] < _COND_MAX * sv[:, -1]
    P_next = (Y @ Vt.swapaxes(-1, -2) / sv[:, None, :]) @ U.swapaxes(-1, -2)
    return 0.5 * (P_next + P_next.swapaxes(-1, -2)), ok


def _substep(H, P, h, E):
    """P after one substep h from each P (_hamiltonian_step).

    E holds expm(H h).  Where the step is not usable, h is halved in place
    and E rebuilt, until every substep passes.
    """
    while True:
        P_next, ok = _hamiltonian_step(E, P)
        if ok.all():
            return P_next
        bad = ~ok
        h[bad] *= 0.5
        E[bad] = _exponentials(H[bad], h[bad])


# fresh exponentials from which one _expm_stack call costs less than as
# many scipy expm calls (4 x 4 Hamiltonians: 80 us for one against 29 us,
# 96 us for six against 165 us)
_STACK_MIN = 3

# substeps one gamma may take on one segment; the test suite needs at most
# 344, the benchmark's inputs at most 164
_SUBSTEP_BUDGET = 2000


def _budget_error(gamma, rev_segs, seg):
    """The error of a test at gamma past _SUBSTEP_BUDGET on rev_segs[seg]."""
    return RuntimeError(f"Riccati test at gamma={float(gamma)!r} took more than "
                        f"{_SUBSTEP_BUDGET} substeps on segment {len(rev_segs) - 1 - seg}")


def _riccati_feasible(kern, rev_segs, gamma):
    """True when the backward Riccati equation stays bounded on the horizon.

    The test of one gamma, segment after segment, on stacks of one: each
    constant-mode segment is propagated exactly in substeps h of at most half
    the escape-time bound (_substep).  When the bound does not cover the rest
    of a segment, one trial across it first looks for a certified escape
    (_escapes).
    """
    q = 1.0 / (gamma * gamma)
    qs = np.array([q])
    P = np.zeros((1, kern.n, kern.n))
    with np.errstate(over="ignore", invalid="ignore"):  # X and Y are tested for finiteness
        for seg, (dt, i) in enumerate(rev_segs):
            mode = np.array([i])
            H = (kern.H0[i] + q * kern.Hq[i])[None]
            left = dt
            tried = False
            for substeps in itertools.count(1):
                if substeps > _SUBSTEP_BUDGET:
                    raise _budget_error(gamma, rev_segs, seg)
                h = min(left, 0.5 * float(kern.escape_bounds(mode, qs, P)[0]))
                if h < left and not tried:
                    tried = True
                    if _escapes(expm(H[0] * left)[None], P)[0]:
                        return False
                hs = np.array([h])    # _substep halves it while the step is not usable
                P = _substep(H, P, hs, expm(H[0] * h)[None])
                if not np.linalg.norm(P[0]) < ESCAPE_NORM:
                    return False
                left -= float(hs[0])
                if not left > 0.0:
                    break
    return True


def _certify(kern, modes, q, P, H, E, dt, bound):
    """Propagate each item over its segment under the substep rule.

    Items are (segment, gamma) pairs: mode index, gamma^-2, P at the start,
    H, expm(H dt), dt and the escape-time bound from P.  Each is propagated
    in substeps h of at most half the escape-time bound, halved again while
    X or Y is not finite or cond(X) >= _COND_MAX; when the bound does not
    cover the rest of the segment, one trial across it first looks for a
    certified escape (_escapes).  Returns P at the segment ends and a
    status per item: _PASSED, _ESCAPED (an escape, or |P| reached
    ESCAPE_NORM) or _EXHAUSTED (more than _SUBSTEP_BUDGET substeps).
    """
    P_end = P.copy()
    status = np.full(len(P), _PASSED)
    # the items with time left: index, and their mode, gamma^-2, H, P, time
    # left and trial flag; E holds expm(H dt) until the first substep
    idx = np.arange(len(P))
    left = dt.copy()
    tried = np.zeros(len(P), dtype=bool)
    for substeps in itertools.count(1):
        if substeps > _SUBSTEP_BUDGET:
            status[idx] = _EXHAUSTED
            break
        if substeps > 1:
            bound = kern.escape_bounds(modes, q, P)
        h = np.minimum(left, 0.5 * bound)
        short = h < left
        if short.any() and not tried.all():
            trial = short & ~tried
            tried |= trial
            escaped = np.zeros(len(idx), dtype=bool)
            rest = (_exponentials(H[trial], left[trial], E[trial], dt[trial]) if substeps == 1
                    else _exponentials(H[trial], left[trial]))
            escaped[trial] = _escapes(rest, P[trial])
            if escaped.any():
                status[idx[escaped]] = _ESCAPED
                keep = ~escaped
                idx, modes, q, H, P, E, left, tried, h, dt = (
                    v[keep] for v in (idx, modes, q, H, P, E, left, tried, h, dt))
                if not idx.size:
                    break
        P = _substep(H, P, h, _exponentials(H, h, E, dt) if substeps == 1 else _exponentials(H, h))
        left -= h
        keep = np.einsum("kij,kij->k", P, P) < ESCAPE_NORM * ESCAPE_NORM
        if not keep.all():
            status[idx[~keep]] = _ESCAPED
        keep &= left > 0.0
        if not keep.all():
            P_end[idx] = P
            if not keep.any():
                break
            idx, modes, q, H, P, left, tried = (v[keep] for v in (idx, modes, q, H, P, left, tried))
    return P_end, status


_PASSED, _ESCAPED, _EXHAUSTED = 0, 1, 2


def _riccati_rows(kern, rows):
    """For each row (reversed segments, gamma), _riccati_feasible's outcome.

    One backward pass decides every row, whatever its signal and length.  On
    a segment with constant mode the Riccati flow is exact, [X; Y] =
    expm(H dt) [I; P] and P = Y X^-1, as long as it does not escape inside
    the segment, so the pass first chains whole-segment steps for every row,
    with the exponentials of all (segment, row) pairs built in one batch; a
    row leaves the chain after its last segment or once |P| reaches
    ESCAPE_NORM, and a step whose X is not finite or has cond(X) >=
    _COND_MAX is replaced by _certify's substeps, where a failure also ends
    the row's chain.  Then every pair up to there is certified from the P the
    chain gave at its start: one batched bound decides the pairs whose
    segment lies within half the escape-time bound (no escape inside), and
    _certify runs the substep rule on the others, all of them at once.  A row
    passes when none of its pairs fails.  Its first failure in backward order
    decides as the one-gamma test would; later pairs start from a chain that
    may have crossed an escape and do not count.  An object array: where the
    test would raise after _SUBSTEP_BUDGET substeps, the row holds that error.
    A row's segments fill the pass's (segment, row) table from their arrays
    when they are _Segments, as _reversed_segments gives them; any other
    sequence of pairs is converted first.
    """
    lens = np.array([len(rev) for rev, _ in rows], dtype=int)
    if not lens.any():
        return np.full(len(rows), True, dtype=object)
    q = np.array([1.0 / (gamma * gamma) for _, gamma in rows])
    # (segment index, row) table, padded with (0.0, 0) past a row's end
    dts = np.zeros((lens.max(), len(rows)))
    modes = np.zeros(dts.shape, dtype=int)
    for r, (rev, _) in enumerate(rows):
        rev = rev if isinstance(rev, _Segments) else _Segments(rev)
        dts[:len(rev), r], modes[:len(rev), r] = rev.dts, rev.modes
    H = kern.H0[modes] + q[:, None, None] * kern.Hq[modes]
    inside = np.arange(len(dts))[:, None] < lens
    # per pair: P at the segment start, whether _certify ran, and its status
    starts = np.zeros(modes.shape + (kern.n, kern.n))
    certified = np.zeros(modes.shape, dtype=bool)
    status = np.full(modes.shape, _PASSED)
    stop = lens.copy()    # where each row left the chain
    ends = set(lens.tolist())
    alive = np.flatnonzero(lens)
    P = np.zeros((len(alive), kern.n, kern.n))
    with np.errstate(over="ignore", invalid="ignore"):  # X and Y are tested for finiteness
        whole = np.empty_like(H)
        whole[inside] = _exponentials(H[inside], dts[inside])
        for seg in range(len(dts)):
            starts[seg, alive] = P
            E = whole[seg, alive]
            P_next, ok = _hamiltonian_step(E, P)
            if not ok.all():
                bad = alive[~ok]
                P_next[~ok], status[seg, bad] = _certify(
                    kern, modes[seg, bad], q[bad], P[~ok], H[seg, bad], E[~ok], dts[seg, bad],
                    kern.escape_bounds(modes[seg, bad], q[bad], P[~ok]))
                certified[seg, bad] = True
            keep = np.einsum("kij,kij->k", P_next, P_next) < ESCAPE_NORM * ESCAPE_NORM
            status[seg, alive[~keep & (status[seg, alive] == _PASSED)]] = _ESCAPED
            keep &= status[seg, alive] == _PASSED
            stop[alive[~keep]] = seg
            if seg + 1 in ends:
                keep &= lens[alive] > seg + 1
            if keep.all():
                P = P_next
            else:
                alive, P = alive[keep], P_next[keep]
                if not alive.size:
                    break
        # certify every pair before each row left the chain
        seg_of, row_of = np.nonzero(~certified & (np.arange(len(dts))[:, None] < stop))
        if seg_of.size:
            Ps = starts[seg_of, row_of]
            bound = kern.escape_bounds(modes[seg_of, row_of], q[row_of], Ps)
            hard = 0.5 * bound < dts[seg_of, row_of]
            if hard.any():
                seg_of, row_of = seg_of[hard], row_of[hard]
                _, status[seg_of, row_of] = _certify(
                    kern, modes[seg_of, row_of], q[row_of], Ps[hard], H[seg_of, row_of],
                    whole[seg_of, row_of], dts[seg_of, row_of], bound[hard])
    first = (status != _PASSED).argmax(axis=0)
    outcome = status[first, np.arange(len(rows))]    # _PASSED when no pair failed
    decisions = (outcome == _PASSED).astype(object)
    for r in np.flatnonzero(outcome == _EXHAUSTED):
        decisions[r] = _budget_error(rows[r][1], rows[r][0], first[r])
    return decisions


# segments from which one row pass over several gammas beats one test per gamma
# (gain_for_signal on the nodes pair, 2-vCPU Xeon: 4 segments 1.33x slower,
# 8 segments 2.1x faster)
_SWEEP_SEGMENTS = 8
# powers of two decided on each side of the one the bracket search needs
_BRACKET_WINDOW = 3
# bisection steps decided per pass: 2^depth - 1 midpoints
_BISECTION_DEPTH = 3


def _bisection_points(lo, hi, tol, depth):
    """Midpoints the bisection loop may probe in its next `depth` steps from [lo, hi]."""
    if depth == 0 or not hi - lo > tol * max(hi, 1.0):
        return []
    mid = 0.5 * (lo + hi)
    return ([mid] + _bisection_points(lo, mid, tol, depth - 1)
            + _bisection_points(mid, hi, tol, depth - 1))


def _bisection(kern, rev_segs, tol, floor=0.0):
    """Gain of one signal by Riccati bisection: |hi - lo| < tol * max(hi, 1).

    0.0 by the zero rule.  Every gamma at or below floor fails without a test;
    the value does not depend on a floor below the gain (gain_search's failed
    probe).  On a signal of _SWEEP_SEGMENTS segments or more, each decision
    comes from one _riccati_rows pass over the gamma asked for and the open
    values the search lists next, whose errors are raised only for a gamma
    asked for; on a shorter one, from the test of that gamma alone.
    """
    # zero rule: no input enters (every B = 0) or no output leaves (every C = 0)
    if kern.n == 0 or kern.zero_bc[[i for _, i in rev_segs]].all(axis=0).any():
        return 0.0
    decided = {}

    def feasible(gamma, batch=list):
        """The decision at gamma, made with those of the open values batch() lists."""
        if gamma <= floor:
            return False
        if gamma not in decided:
            if len(rev_segs) >= _SWEEP_SEGMENTS:
                gammas = [gamma] + [g for g in batch()
                                    if g > floor and g != gamma and g not in decided]
                rows = [(rev_segs, g) for g in gammas]
                decided.update(zip(gammas, _riccati_rows(kern, rows).tolist()))
            else:
                decided[gamma] = _riccati_feasible(kern, rev_segs, gamma)
        if isinstance(decided[gamma], RuntimeError):
            raise decided[gamma]    # a look-ahead's error aborts nothing
        return decided[gamma]

    # canonical dyadic bracket: the smallest feasible power of two, whatever
    # the floor.  Each pass also decides the powers within _BRACKET_WINDOW of
    # the one needed, inside the range the search may probe: 2^-40 to 2^(m0 + 60)
    m0 = math.ceil(math.log2(max(floor, 1.0)))

    def powers_near(e):
        return [2.0 ** k for k in range(max(e - _BRACKET_WINDOW, -40),
                                        min(e + _BRACKET_WINDOW, m0 + 60) + 1)]

    m = m0
    while not feasible(2.0 ** m, lambda: powers_near(m)):
        m += 1
        if m - m0 > 60:
            raise RuntimeError("no feasible gamma found; gain appears unbounded")
    if m == m0:
        while m > -40 and feasible(2.0 ** (m - 1), lambda: powers_near(m - 1)):
            m -= 1
    hi = 2.0 ** m
    lo = 0.0
    # the bracket search decided 2^(m-1), the first midpoint, unless the
    # downward search stopped at 2^-40; each later pass decides the
    # midpoints of the next _BISECTION_DEPTH steps on every path
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if feasible(mid, lambda: _bisection_points(lo, hi, tol, _BISECTION_DEPTH)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _check_horizon(sig, T):
    """Reject a horizon T outside (0, sig.horizon], naming it."""
    if not 0 < T <= sig.horizon * (1 + 1e-9):
        raise ValueError(f"horizon T={T} outside the signal horizon {sig.horizon}")


def gain_for_signal(
    sys: SystemSpec,
    sig: Signal,
    T: float,
    tol: float = 1e-4,
    *,
    compute_witness: bool = False,
) -> GainEstimate:
    """Finite-horizon L2-gain of one signal via Riccati bisection.

    Bisection tolerance is relative: |hi - lo| < tol * max(hi, 1), with a
    finite tol > 0 and T in (0, sig.horizon].  With compute_witness, a power
    iteration on the grid of step T / 400 attaches a witness input and its
    energy ratio (none for a zero gain: no input of the signal reaches an output).
    """
    _check_positive_finite("tol", tol)
    _check_horizon(sig, T)
    sig.check_modes(sys)
    value = _bisection(_kernel(sys, T), _reversed_segments(sig, T), tol)

    ratio = None
    witness_u = None
    dt_used = None
    if compute_witness and value:
        dt_used = T / 400.0
        power = gain_power_lower(sys, sig, T, dt_used)
        ratio = power.value
        witness_u = power.witness_input
    return GainEstimate(value, T, "rde_bisection", tol, witness_signal=sig,
                        witness_input_energy_ratio=ratio, witness_input=witness_u,
                        input_dt=dt_used)


# ---------------------------------------------------------------------------
# power-iteration lower bound


def _step_operators(sys, sig, T, dt):
    """(Phi, Gamma, C, steps) of the grid k dt on [0, T]: C[k] is the output map at k dt."""
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("grid step does not divide the horizon")
    phis, gams, modes = _zoh_grid(sys, sig, steps, dt)
    cs = np.stack([m.C for m in sys.modes])[modes]
    return phis, gams, cs, steps


# power iterations at most, and the relative change of the ratio that ends them
_POWER_ITERS, _POWER_RTOL = 80, 1e-10


def gain_power_lower(
    sys: SystemSpec,
    sig: Signal,
    T: float,
    grid_step: float,
    *,
    seed: int = 0,
) -> GainEstimate:
    """Power iteration on L*L for the discrete input-to-output map L.

    Inputs are zero-order-hold samples on the grid of step grid_step (T in
    (0, sig.horizon], grid_step positive and finite); output energy uses the
    trapezoid rule on the grid.  Any iterate's Rayleigh ratio |Lu|/|u| is a
    valid lower bound of the discretized gain, so the best ratio seen is
    returned.  The iteration stops once the ratio changes by at most
    _POWER_RTOL relative, the returned tolerance; when _POWER_ITERS
    iterations end it first, the tolerance is the ratio's last relative change.

    The states x_1..x_steps solve one unit lower block-bidiagonal system
    (flows._step_solver, -Phi_k below the diagonal); each iteration is one
    forward and one transposed banded triangular solve plus the
    block-diagonal products with Gamma_k and C_k.
    """
    _check_positive_finite("T", T)
    _check_horizon(sig, T)
    _check_positive_finite("grid_step", grid_step)
    sig.check_modes(sys)
    phis, gams, cs, steps = _step_operators(sys, sig, T, grid_step)
    n, m, p = sys.n, sys.m, sys.p
    # trapezoid weights of y_1..y_steps; y_0 = C_0 x_0 = 0 carries no energy
    w = np.full((steps, 1), grid_step)
    w[-1:] = grid_step / 2.0
    gam = np.asarray(gams).reshape(steps, n, m)
    out_map = np.asarray(cs[1:]).reshape(steps, p, n)
    solve = _step_solver(phis)

    def forward(u):
        x = solve(np.matmul(gam, u[:, :, None])[:, :, 0])
        return np.matmul(out_map, x[:, :, None])[:, :, 0]

    def adjoint(y):
        z = np.matmul(out_map.transpose(0, 2, 1), (w * y)[:, :, None])[:, :, 0]
        lam = solve(z, "T")
        return np.matmul(gam.transpose(0, 2, 1), lam[:, :, None])[:, :, 0] / grid_step

    rng = np.random.default_rng(seed)
    u = rng.standard_normal((steps, m))
    nu = math.sqrt(grid_step * float(np.sum(u * u)))
    if nu == 0:
        u[:] = 1.0
        nu = math.sqrt(grid_step * u.size)
    u /= nu

    best = 0.0
    prev = None
    best_u = u.copy()
    tolerance = _POWER_RTOL
    for _ in range(_POWER_ITERS):
        y = forward(u)
        num = math.sqrt(float(np.sum(w * y * y)))
        den = math.sqrt(grid_step * float(np.sum(u * u)))
        ratio = num / den if den > 0 else 0.0
        if ratio > best:
            best = ratio
            best_u = u.copy()
        if prev is not None and abs(ratio - prev) <= _POWER_RTOL * max(ratio, 1e-30):
            break
        change = math.inf if prev is None else abs(ratio - prev) / max(ratio, 1e-30)
        prev = ratio
        nxt = adjoint(y)
        norm = math.sqrt(grid_step * float(np.sum(nxt * nxt)))
        if norm == 0:
            break
        u = nxt / norm
    else:
        # the cap, not the stopping rule, ended the iteration
        tolerance = change
    return GainEstimate(best, T, "power_iteration", tolerance, witness_signal=sig,
                        witness_input_energy_ratio=best, witness_input=best_u,
                        input_dt=grid_step)


# ---------------------------------------------------------------------------
# search over a class


def _candidate_signals(n_modes, T, max_switches, duration_grid):
    """Deterministic BFS candidate enumeration, independent of the class.

    Every candidate covers exactly [0, T]: the last segment takes the
    remaining time.  Class validity is checked by the caller, so enumerations
    with different dwell floors stay nested.
    """
    for i in range(n_modes):
        yield Signal(((i, T),))
    for k in range(2, max_switches + 2):
        seqs = [s for s in itertools.product(range(n_modes), repeat=k)
                if all(s[j] != s[j + 1] for j in range(k - 1))]
        for seq in seqs:
            for durs in itertools.product(duration_grid, repeat=k - 1):
                tail = T - sum(durs)
                if tail <= 1e-9:
                    continue
                yield Signal(tuple(zip(seq[:-1], durs)) + ((seq[-1], tail),))


def gain_search(
    sys: SystemSpec,
    cls: SignalClassSpec,
    T: float,
    *,
    max_switches: int = 4,
    duration_grid=None,
    refine: bool = True,
    eval_budget: int = 160,
    tol: float = 1e-4,
) -> GainEstimate:
    """Lower bound on the class gain gamma_2(tau, T) by signal enumeration.

    Mode sequences up to max_switches >= 0 switches with durations from
    duration_grid (one below T) are enumerated in a fixed order, cut at
    eval_budget >= 1 and filtered for class validity, so smaller dwell floors
    evaluate supersets (monotonicity under nested budgets); the best signal's
    switch times are then locally refined when refine is set.

    The result is that of evaluating the candidates one at a time: each is
    probed at the best gain so far, skipped when that passes and bisected
    above it otherwise.  The probes go in chunks, one _riccati_rows pass
    each, the chunk doubling while every probe passes.
    """
    _check_positive_finite("T", T)
    _check_positive_finite("tol", tol)
    _check_count("max_switches", max_switches, 0)
    _check_count("eval_budget", eval_budget, 1)
    tau = cls.dwell_floor
    if duration_grid is None:
        duration_grid = tuple(T * f for f in (0.125, 0.25, 0.5, 0.75))
    duration_grid = _check_durations("duration_grid", duration_grid, T if max_switches else None)

    # one reduction and balancing for every candidate, shared with gain_for_signal
    kern = _kernel(sys, T)
    best = None
    best_sig = None

    def walk(sigs):
        """Evaluate the class-valid signals of sigs in order, raising best;
        the index in sigs of the last one that raised it, or None."""
        nonlocal best, best_sig
        todo = [(k, sig, _reversed_segments(sig, T)) for k, sig in enumerate(sigs)
                if tau == 0 or validate_membership(sig, cls).ok]
        won = None
        pos, size = 0, 1
        while pos < len(todo):
            incumbent = best
            chunk = todo[pos:pos + size]
            passed = (_riccati_rows(kern, [(rev, incumbent) for _, _, rev in chunk]).tolist()
                      if incumbent else [False])    # nothing to probe at: bisect the next
            size *= 2
            for (k, sig, rev), ok in zip(chunk, passed):
                pos += 1
                if isinstance(ok, RuntimeError):
                    raise ok    # reached at the best it was probed at
                if ok:
                    continue
                size = 1
                value = _bisection(kern, rev, tol, incumbent or 0.0)
                if best is None or value > best:
                    best, best_sig, won = value, sig, k
                    break
        return won

    walk(itertools.islice(_candidate_signals(sys.n_modes, T, max_switches, duration_grid),
                          eval_budget))
    if best is None:
        raise ValueError("evaluation budget too small: no class-valid candidate evaluated")

    if refine and len(best_sig.segments) > 1:
        segs = list(best_sig.segments)
        switch_times = np.cumsum([d for _, d in segs])[:-1]
        for _ in range(2):
            for j in range(len(switch_times)):
                lo_lim = (switch_times[j - 1] if j else 0.0) + max(tau, 1e-6)
                nxt = switch_times[j + 1] if j + 1 < len(switch_times) else T
                hi_lim = nxt - max(tau, 1e-6)
                if hi_lim <= lo_lim:
                    continue

                # the trials do not depend on each other's outcome
                trials = np.linspace(lo_lim, hi_lim, 5)
                sigs = []
                for t_j in trials:
                    ts = switch_times.copy()
                    ts[j] = t_j
                    bounds = np.concatenate([[0.0], ts, [T]])
                    sigs.append(Signal(tuple((segs[i][0], bounds[i + 1] - bounds[i])
                                             for i in range(len(segs)))))
                won = walk(sigs)
                if won is not None:
                    switch_times[j] = trials[won]
    return GainEstimate(best, T, "search", tol, witness_signal=best_sig)


# ---------------------------------------------------------------------------
# finiteness and tau_min

# distance below 1 at which a rho lower bound still counts as a unit radius
_UNIT_TOL = 1e-9


def finiteness_test(
    sys: SystemSpec,
    cls: SignalClassSpec,
    *,
    upper_opts: dict | None = None,
    seed: int = 0,
) -> FinitenessVerdict:
    """Gain-finiteness trichotomy from the minimal realization's rho bounds.

    The bounds come from rho_lower at its defaults and rho_upper with
    upper_opts.  finite requires a certified upper bound below one; infinite
    requires the rigorous lower bound above one, or within _UNIT_TOL of one
    combined with certified uniform observability (12 sampled signals of
    horizon max(1, 2 tau), drawn from seed).  Anything else is undetermined;
    without uniform observability a unit spectral radius genuinely leaves
    both outcomes open.
    """
    tau = cls.dwell_floor
    minreal = minimal_realization(sys)
    if minreal.dim == 0:
        zero = RhoEstimate(tau=tau, lower=0.0, upper=0.0, witness=None,
                           inflation=1.0, flags=("zero_system",))
        return FinitenessVerdict("finite", zero, None,
                                 "minimal realization is zero-dimensional; the gain is 0", 0)
    ms = minreal.sys_min
    est = rho_upper(ms, cls, lower_estimate=rho_lower(ms, cls), **(upper_opts or {}))
    window = max(1.0, 2.0 * tau)
    obs = check_uniform_observability(ms, cls, window, samples=12, seed=seed)

    obs_text = {
        "uniformly_observable": "minimal realization is uniformly observable",
        "not_uniformly_observable": "minimal realization is not uniformly observable",
        "inconclusive": "uniform observability is inconclusive",
    }[obs.verdict]

    if est.upper < 1.0 and est.certified:
        verdict = "finite"
        rationale = f"certified rho upper bound {est.upper:.6f} < 1"
    elif est.lower > 1.0:
        verdict = "infinite"
        rationale = f"rho lower bound {est.lower:.6f} > 1"
    elif est.lower >= 1.0 - _UNIT_TOL and obs.verdict == "uniformly_observable":
        verdict = "infinite"
        rationale = (f"rho lower bound {est.lower:.6f} >= 1 - {_UNIT_TOL:g} and the "
                     f"{obs_text}")
    else:
        verdict = "undetermined"
        rationale = (f"rho bracket [{est.lower:.6f}, {est.upper:.6f}] straddles 1 "
                     f"and the {obs_text}")
    return FinitenessVerdict(verdict, est, obs, rationale, minreal.dim)


def _classify_tau(ms, cls, lower_est, upper_opts):
    if lower_est.lower >= 1.0:
        return "reject"
    est = rho_upper(ms, cls, lower_estimate=lower_est, **(upper_opts or {}))
    if est.upper < 1.0 and est.certified:
        return "accept"
    return "undecided"


def tau_min(
    sys: SystemSpec,
    bracket,
    tol: float = 0.05,
    *,
    upper_opts: dict | None = None,
) -> TauMinResult:
    """Bracket the minimal dwell time via bisection on the rho trichotomy.

    Each tau is classified from rho_lower at its defaults and rho_upper with
    upper_opts.  Requires finite 0 <= tau_lo < tau_hi, rho(tau_lo) >= 1
    (reject side) and a certified rho(tau_hi) < 1 (accept side).  An undecided tau is retried once with
    half the grid step delta and twice the budget (those of upper_opts, or
    certification_grid's defaults); undecided midpoints then fall back to
    quarter-point probing, and a persistent undecided zone returns the wider
    interval with an 'undecided_zone' flag.  The bisection stops at width
    tol (positive and finite) or after 60 steps.
    """
    tau_lo, tau_hi = float(bracket[0]), float(bracket[1])
    for name, value in (("tau_lo", tau_lo), ("tau_hi", tau_hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    _check_positive_finite("tol", tol)
    if not (0 <= tau_lo < tau_hi):
        raise ValueError("bracket must satisfy 0 <= tau_lo < tau_hi")
    minreal = minimal_realization(sys)
    if minreal.dim == 0:
        return TauMinResult(0.0, 0.0, flags=("zero_system",))
    ms = minreal.sys_min

    def classify(tau):
        cls = SignalClassSpec.from_tau(tau)
        # the boosted retry changes only the upper bound's options, so it
        # reuses the lower estimate
        lower_est = rho_lower(ms, cls)
        verdict = _classify_tau(ms, cls, lower_est, upper_opts)
        if verdict == "undecided":
            # halve the grid step (shrinks the inflation dead band) and
            # double the certification budget
            opts = upper_opts or {}
            delta, _, budget = certification_grid(tau, opts.get("delta"),
                                                  budget=opts.get("budget"))
            verdict = _classify_tau(ms, cls, lower_est,
                                    {**opts, "delta": delta / 2.0, "budget": 2 * budget})
        return verdict

    lo_verdict = classify(tau_lo)
    if lo_verdict != "reject":
        if classify(0.0) == "accept":
            return TauMinResult(0.0, 0.0, flags=("tau_min_zero",))
        return TauMinResult(0.0, tau_lo, flags=("bracket_lo_not_rejected",))
    hi_verdict = classify(tau_hi)
    if hi_verdict == "reject":
        raise ValueError("invalid bracket: rho(tau_hi) >= 1")
    if hi_verdict == "undecided":
        raise ValueError("bracket upper end undecidable at the available budget")

    lo, hi = tau_lo, tau_hi
    flags = []
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        verdict = classify(mid)
        if verdict == "reject":
            lo = mid
        elif verdict == "accept":
            hi = mid
        else:
            progressed = False
            q1 = lo + 0.25 * (hi - lo)
            if classify(q1) == "reject":
                lo = q1
                progressed = True
            q3 = lo + 0.75 * (hi - lo)
            if classify(q3) == "accept":
                hi = q3
                progressed = True
            if not progressed:
                flags.append("undecided_zone")
                break
    return TauMinResult(lo, hi, flags=tuple(flags))
