"""Independent oracles used by the test suite.

Each oracle recomputes a quantity along a path disjoint from the library
implementation: adaptive Runge-Kutta for flows and for the Riccati escape-time
test, composite Simpson quadrature for Gramians, explicit word enumeration for
reachable spans, a frequency sweep for unswitched H-infinity norms, the
closed-form Riccati escape time for the finite-horizon gain of a stable scalar
mode, the power iteration's original per-step forward and adjoint loops, and
the polytope certifier's original domination loop, which decides
every product against every stored Gram matrix with eigvalsh, and the
original gain search, which evaluates one candidate at a time.

The flows references keep the per-interval span clipping flows used before
its array span rule (clip_spans, reference_simulate, reference_transition,
reference_gramians, reference_step_operators, reference_mode_at: every span
is rebuilt for each interval or step against every segment), to check that
flows._spans, and the transitions, Gramians and grids built on it, return
the same bits.
Their step exponentials come from flows._expm_stack, one key at a time, and
reference_simulate runs the step recursion as a Python loop.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from switchgain import Signal, l2gain, spectral, validate_membership
from switchgain.flows import GramianPair, Trajectory, _expm_stack, _gram_block
from switchgain.l2gain import ESCAPE_NORM


def rk_flow(sys, sig, s, t, x0, rtol=1e-10, atol=1e-12):
    """Integrate xdot = A(sigma(t)) x from s to t with an adaptive solver."""

    def rhs(tt, x):
        return sys.A(sig.mode_at(min(tt, sig.horizon - 1e-12))) @ x

    # break at switch times so the solver never smooths over a discontinuity
    breaks = [b for b in np.cumsum([d for _, d in sig.segments])[:-1] if s < b < t]
    pts = [s] + breaks + [t]
    x = np.asarray(x0, dtype=float)
    for a, b in zip(pts[:-1], pts[1:]):
        sol = solve_ivp(rhs, (a, b), x, rtol=rtol, atol=atol, method="RK45")
        x = sol.y[:, -1]
    return x


def rk_riccati_feasible(sys, rev_segs, gamma):
    """Riccati escape-time test by adaptive Runge-Kutta on the full system.

    rev_segs lists (duration, mode) backwards from the end of the horizon.
    The backward equation -P' = A'P + PA + C'C + gamma^-2 P B B' P with
    P(T) = 0 is integrated segment by segment with RK45; the test fails as
    soon as |P| (Frobenius) reaches ESCAPE_NORM or the solver stops.
    """
    n = sys.n
    if n == 0:
        return True
    inv_g2 = 1.0 / (gamma * gamma)
    p = np.zeros(n * n)
    for dt, i in rev_segs:
        A, B, C = sys.A(i), sys.B(i), sys.C(i)
        BBT = B @ B.T
        CTC = C.T @ C

        def rhs(_, pv):
            P = pv.reshape(n, n)
            dP = A.T @ P + P @ A + CTC + inv_g2 * (P @ BBT @ P)
            return dP.reshape(-1)

        def escape(_, pv):
            val = float(np.linalg.norm(pv))
            return ESCAPE_NORM - (val if math.isfinite(val) else 2 * ESCAPE_NORM)

        escape.terminal = True
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, (0.0, dt), p, method="RK45",
                            rtol=1e-8, atol=1e-10, events=escape)
        if sol.status != 0 or not sol.success:
            return False
        p = sol.y[:, -1]
        if not np.all(np.isfinite(p)):
            return False
        P = p.reshape(n, n)
        p = (0.5 * (P + P.T)).reshape(-1)
    return True


def rk_gain(sys, rev_segs, tol):
    """Gain by bisection on rk_riccati_feasible over the library's dyadic bracket.

    Same bracket and midpoints as l2gain._bisection at floor 0, so
    two runs that take the same decisions return the same value.
    """
    m = 0
    while not rk_riccati_feasible(sys, rev_segs, 2.0 ** m):
        m += 1
        if m > 60:
            raise RuntimeError("no feasible gamma found")
    if m == 0:
        while m > -40 and rk_riccati_feasible(sys, rev_segs, 2.0 ** (m - 1)):
            m -= 1
    hi, lo = 2.0 ** m, 0.0
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if rk_riccati_feasible(sys, rev_segs, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_gain_search(sys, cls, T, *, max_switches=4, duration_grid=None, refine=True,
                           eval_budget=160, tol=1e-4):
    """(value, witness signal) of l2gain.gain_search, one candidate at a time.

    The candidate loop and the refinement as they were before the incumbent
    probes were batched: each class-valid candidate is tested alone at the
    best gain so far and, when that fails, goes through one l2gain._bisection
    above it.
    """
    tau = spectral.class_tau(cls)
    if duration_grid is None:
        duration_grid = tuple(T * f for f in (0.125, 0.25, 0.5, 0.75))
    kern = l2gain._kernel(sys, T)
    best = None
    best_sig = None

    def evaluate(sig):
        if tau > 0 and not validate_membership(sig, cls).ok:
            return None
        rev = l2gain._reversed_segments(sig, T)
        if best and l2gain._riccati_feasible(kern, rev, best):
            return None
        return l2gain._bisection(kern, rev, tol, floor=best or 0.0)

    seen = 0
    for sig in l2gain._candidate_signals(sys.n_modes, T, max_switches, duration_grid):
        seen += 1
        if seen > eval_budget:
            break
        value = evaluate(sig)
        if value is not None and (best is None or value > best):
            best = value
            best_sig = sig
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

                for t_j in np.linspace(lo_lim, hi_lim, 5):
                    ts = switch_times.copy()
                    ts[j] = t_j
                    bounds = np.concatenate([[0.0], ts, [T]])
                    sig2 = Signal(tuple((segs[i][0], bounds[i + 1] - bounds[i])
                                        for i in range(len(segs))))
                    v = evaluate(sig2)
                    if v is not None and v > best:
                        best, best_sig = v, sig2
                        switch_times[j] = t_j
    return best, best_sig


def _segment_spans(sig):
    """(start, end, mode) triples for the signal's segments."""
    spans, t = [], 0.0
    for i, d in sig.segments:
        spans.append((t, t + d, i))
        t += d
    return spans, t


def clip_spans(sig, s, t):
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


def reference_mode_at(sig, t):
    """Signal.mode_at as a linear scan over the segments."""
    acc = 0.0
    for i, d in sig.segments:
        acc += d
        if t < acc:
            return i
    return sig.segments[-1][0]


def reference_transition(sys, sig, s, t):
    """flows.transition with per-call span clipping."""
    sig.check_modes(sys)
    phi = np.eye(sys.n)
    for lo, hi, i in clip_spans(sig, s, t):
        phi = expm(sys.A(i) * (hi - lo)) @ phi
    return phi


def reference_gramians(sys, sig, t0, t1):
    """flows.gramians with per-call span clipping."""
    sig.check_modes(sys)
    n = sys.n
    wc = np.zeros((n, n))
    wo = np.zeros((n, n))
    back = np.eye(n)
    fwd = np.eye(n)
    for lo, hi, i in clip_spans(sig, t0, t1):
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
    for lo, hi, i in clip_spans(sig, t, t + dt):
        h = hi - lo
        # Python's round, also for a numpy span: np.float64 rounds by another rule
        key = (i, round(float(h), 15))
        if key not in cache:
            M = np.zeros((n + m, n + m))
            M[:n, :n] = sys.A(i)
            M[:n, n:] = sys.B(i)
            # one slice of the library's batched exponential, as a stack of
            # one: a slice's result does not depend on the rest of its stack
            E = _expm_stack((M * h)[None])[0]
            cache[key] = (E[:n, :n], E[:n, n:])
        ephi, egam = cache[key]
        phi = ephi @ phi
        gam = ephi @ gam + egam
    return phi, gam


def reference_simulate(sys, sig, u, x0, dt):
    """flows.simulate with span clipping and a mode_at scan at every step."""
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
    outputs[0] = sys.C(reference_mode_at(sig, 0.0)) @ x
    for k in range(steps):
        t = k * dt
        phi, gam = _zoh_step(sys, sig, t, dt, cache)
        x = phi @ x + gam @ u[k]
        times[k + 1] = min((k + 1) * dt, horizon)
        states[k + 1] = x
        outputs[k + 1] = sys.C(reference_mode_at(sig, times[k + 1])) @ x
    return Trajectory(times=times, states=states, outputs=outputs)


def reference_step_operators(sys, sig, T, dt):
    """l2gain._step_operators with span clipping and a mode_at scan at every step."""
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("grid step does not divide the horizon")
    cache = {}
    phis, gams, cs = [], [], []
    for k in range(steps):
        phi, gam = _zoh_step(sys, sig, k * dt, dt, cache)
        phis.append(phi)
        gams.append(gam)
        cs.append(sys.C(reference_mode_at(sig, k * dt)))
    cs.append(sys.C(reference_mode_at(sig, min(steps * dt, sig.horizon))))
    return phis, gams, cs, steps


def reference_power_lower(sys, sig, T, grid_step, *, iters=80, rtol=1e-10, seed=0):
    """l2gain.gain_power_lower with its original per-step loops.

    The same operator, weights, start vector and stopping rule, with the
    forward map and its adjoint run as explicit recursions over the steps
    instead of banded triangular solves.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    sig.check_modes(sys)
    phis, gams, cs, steps = l2gain._step_operators(sys, sig, T, grid_step)
    n, m, p = sys.n, sys.m, sys.p
    w = np.full(steps + 1, grid_step)
    w[0] = w[-1] = grid_step / 2.0

    def forward(u):
        x = np.zeros(n)
        y = np.empty((steps + 1, p))
        y[0] = cs[0] @ x
        for k in range(steps):
            x = phis[k] @ x + gams[k] @ u[k]
            y[k + 1] = cs[k + 1] @ x
        return y

    def adjoint(y):
        lam = w[steps] * (cs[steps].T @ y[steps])
        out = np.empty((steps, m))
        for k in range(steps - 1, -1, -1):
            out[k] = gams[k].T @ lam / grid_step
            lam = phis[k].T @ lam + w[k] * (cs[k].T @ y[k])
        return out

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
    for _ in range(iters):
        y = forward(u)
        num = math.sqrt(float(np.sum(w[:, None] * y * y)))
        den = math.sqrt(grid_step * float(np.sum(u * u)))
        ratio = num / den if den > 0 else 0.0
        if ratio > best:
            best = ratio
            best_u = u.copy()
        if prev is not None and abs(ratio - prev) <= rtol * max(ratio, 1e-30):
            break
        prev = ratio
        nxt = adjoint(y)
        norm = math.sqrt(grid_step * float(np.sum(nxt * nxt)))
        if norm == 0:
            break
        u = nxt / norm
    return l2gain.GainEstimate(best, T, "power_iteration", rtol, witness_signal=sig,
                        witness_input_energy_ratio=best, witness_input=best_u,
                        input_dt=grid_step)


def simpson_gramians(sys, sig, t0, t1, n_panels=2000):
    """Defining Gramian integrals by composite Simpson per segment."""
    from switchgain.flows import transition

    n = sys.n
    wc = np.zeros((n, n))
    wo = np.zeros((n, n))
    edges = np.concatenate([[0.0], np.cumsum([d for _, d in sig.segments])])
    cuts = sorted(set([t0, t1] + [float(e) for e in edges if t0 < e < t1]))
    for a, b in zip(cuts[:-1], cuts[1:]):
        ss = np.linspace(a, b, 2 * n_panels + 1)
        h = ss[1] - ss[0]
        i = sig.mode_at(0.5 * (a + b))  # mode is constant on (a, b)
        B, C = sys.B(i), sys.C(i)
        fc = []
        fo = []
        for sv in ss:
            phi_back = transition(sys, sig, t0, sv)       # Phi(s, t0)
            phi_fwd = np.linalg.inv(phi_back)             # Phi(t0, s)
            fc.append(phi_fwd @ B @ B.T @ phi_fwd.T)
            fo.append(phi_back.T @ C.T @ C @ phi_back)
        fc = np.array(fc)
        fo = np.array(fo)
        for f, acc in ((fc, wc), (fo, wo)):
            acc += h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum(axis=0)
                              + 2.0 * f[2:-2:2].sum(axis=0))
    return wc, wo


def word_span_dimension(sys, max_depth=None):
    """Dimension of span{A_{i1}...A_{ik} B columns} by explicit enumeration."""
    n = sys.n
    if n == 0:
        return 0
    depth = max_depth if max_depth is not None else n
    levels = [np.hstack([m.B for m in sys.modes])]
    stacked = levels[0]
    rank = np.linalg.matrix_rank(stacked, tol=1e-9 * max(1.0, np.linalg.norm(stacked, 2)))
    for _ in range(depth):
        nxt = np.hstack([m.A @ levels[-1] for m in sys.modes])
        levels.append(nxt)
        stacked = np.hstack([stacked, nxt])
        r2 = np.linalg.matrix_rank(stacked, tol=1e-9 * max(1.0, np.linalg.norm(stacked, 2)))
        if r2 == rank:
            return rank
        rank = r2
    return rank


def hinf_norm(A, B, C, n_sweep=4000):
    """H-infinity norm of C (sI - A)^-1 B by frequency sweep plus refinement."""
    n = A.shape[0]
    scale = max(np.abs(np.linalg.eigvals(A)).max(), 1.0)
    omegas = np.concatenate([[0.0], np.logspace(-4, 4, n_sweep) * scale])

    def g(w):
        return np.linalg.norm(C @ np.linalg.solve(1j * w * np.eye(n) - A, B), 2)

    vals = np.array([g(w) for w in omegas])
    k = int(np.argmax(vals))
    lo = omegas[max(k - 1, 0)]
    hi = omegas[min(k + 1, len(omegas) - 1)]
    gr = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(80):
        if g(c) > g(d):
            b = d
        else:
            a = c
        c, d = b - gr * (b - a), a + gr * (b - a)
    return max(vals[k], g(0.5 * (a + b)))


def scalar_finite_horizon_gain(a, b, c, T):
    """Exact L2-gain on [0, T] of xdot = a x + b u, y = c x, x(0) = 0, a < 0.

    gamma is an upper bound of the gain iff the Riccati equation, run
    backward from the end of the horizon, p' = gamma^-2 b^2 p^2 + 2 a p + c^2
    with p(0) = 0, does not escape before T.  For gamma below the H-infinity
    norm |b c| / |a| the right side has no real root; with
    w = sqrt(gamma^-2 b^2 c^2 - a^2) > 0 it completes to
    q [(p + a/q)^2 + (w/q)^2], q = gamma^-2 b^2, and the escape time is

        int_0^inf dp / (q p^2 + 2 a p + c^2) = (pi/2 - arctan(a/w)) / w.

    That time falls strictly from infinity to 0 as w grows, so the gain at
    horizon T is |b c| / sqrt(a^2 + w^2) for the unique root w of
    T = (pi/2 - arctan(a/w)) / w.  Since pi/2 < pi/2 - arctan(a/w) < pi for
    a < 0, the root lies in [pi/(2T), pi/T], which brackets it for brentq.
    Large T gives w ~ pi/(T + 1/|a|), so the gain tends to |b c| / |a|
    from below but never reaches it at a finite horizon.
    """
    if not a < 0 or T <= 0:
        raise ValueError("needs a stable scalar mode (a < 0) and T > 0")

    def escape_gap(w):
        return (0.5 * math.pi - math.atan(a / w)) / w - T

    w = brentq(escape_gap, 0.5 * math.pi / T, math.pi / T, xtol=1e-15, rtol=1e-15)
    return abs(b * c) / math.sqrt(a * a + w * w)


def commuting_pair_rate(d1, d2, n_grid=2001):
    """Worst growth rate over duration allocations for commuting diagonal modes."""
    lams = np.linspace(0.0, 1.0, n_grid)
    best = -np.inf
    for lam in lams:
        rate = np.max(lam * np.asarray(d1) + (1.0 - lam) * np.asarray(d2))
        best = max(best, rate)
    return best


class ReferenceCertifier(spectral._Certifier):
    """The certifier with its original worklist loop and domination check.

    Each worklist item forms the product with every letter and keeps it
    unless lambda_max(Q) <= 1 + 1e-10, or lambda_min(G_k - Q) >= -tol_k for a
    stored Gram G_k (tried in descending trace), or the same against the
    mean Gram, each decided by eigvalsh.  Letters, seeds and the long-dwell
    closure are the library's.
    """

    def _dominated_mask(self, Q):
        alive = np.where(np.linalg.eigvalsh(Q)[:, -1] > 1.0 + spectral._PSD_TOL)[0]
        if alive.size == 0:
            return np.ones(len(Q), dtype=bool)
        G = np.stack(self.grams)
        order = np.argsort(-np.einsum("kii->k", G))
        for k in order:
            if alive.size == 0:
                break
            tol = spectral._PSD_TOL * (1.0 + np.trace(G[k]))
            mn = np.linalg.eigvalsh(G[k][None] - Q[alive])[..., 0]
            alive = alive[mn < -tol]
        if alive.size:
            Gm = G.mean(axis=0)
            tol = spectral._PSD_TOL * (1.0 + np.trace(Gm))
            mn = np.linalg.eigvalsh(Gm[None] - Q[alive])[..., 0]
            alive = alive[mn < -tol]
        mask = np.ones(len(Q), dtype=bool)
        mask[alive] = False
        return mask

    def run(self):
        self._build_letters()
        work = list(range(len(self.stored)))
        while work:
            j = work.pop(0)
            P = np.einsum("ab,lbc->lac", self.stored[j], self.letters)
            Q = np.einsum("lba,lbc->lac", P, P)
            mask = self._dominated_mask(Q)
            for idx in np.where(~mask)[0]:
                if len(self.stored) >= self.budget:
                    self.flags.add("budget_exhausted")
                    return False
                self.store(P[idx], self.times[j] + float(self.letter_times[idx]), Q[idx],
                           np.linalg.norm(P[idx], 2))
                work.append(len(self.stored) - 1)
        return True


def reference_certifier(sys, cls, mu_hat, **opts):
    """spectral.extremal_norm(sys, cls, mu_hat, **opts) run on ReferenceCertifier."""
    library = spectral._Certifier
    spectral._Certifier = ReferenceCertifier
    try:
        return spectral.extremal_norm(sys, cls, mu_hat, **opts)
    finally:
        spectral._Certifier = library
