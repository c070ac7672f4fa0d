"""Worked three-mode example family and planted test instances.

The example family has two planar spiral modes whose restriction to the
x3 = 0 plane switches between a normal spiral and a sheared one, plus a
third mode coupling x3 to the plane; input and output act through e3 only,
so signals dwelling on the first two modes produce no output energy.

The planar worst-case growth is computed exactly in polar coordinates: both
planar modes advance the angle monotonically counterclockwise, so the worst
radial growth over one turn is exp of the angular integral of
max_i (x' A_i x) / (x wedge A_i x).  The marginal coupling value alpha_star
is the root of that integral, and the closed worst-case orbit defines the
planar Barabanov-type norm used in the dissipation check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Mode, SystemSpec, _check_count, _check_positive_finite

__all__ = [
    "example_system",
    "example_planar_pair",
    "alpha_star",
    "worst_turn_ratio",
    "planar_norm",
    "PlanarNorm",
    "LyapunovReport",
    "verify_lyapunov_decay",
    "rotated_nodes_pair",
    "common_lyapunov_modes",
    "planted_reducible_system",
]


def example_system(alpha: float) -> SystemSpec:
    """Three-mode example: two input-free (B = 0) planar modes plus a coupling mode; C = e3'."""
    _check_positive_finite("alpha", alpha)
    a = float(alpha)
    A1 = [[-1.0, -a, 0.0], [a, -1.0, 0.0], [0.0, 0.0, -1.0]]
    A2 = [[-1.0, -a, 0.0], [1.0 / a, -1.0, 0.0], [0.0, 0.0, -1.0]]
    A3 = [[-4.0, 0.0, 1.0], [0.0, -4.0, 0.0], [1.0, 0.0, -1.0]]
    e3 = [[0.0], [0.0], [1.0]]
    zero = [[0.0], [0.0], [0.0]]
    c = [[0.0, 0.0, 1.0]]
    modes = (
        Mode(np.array(A1), np.array(zero), np.array(c)),
        Mode(np.array(A2), np.array(zero), np.array(c)),
        Mode(np.array(A3), np.array(e3), np.array(c)),
    )
    return SystemSpec(3, 1, 1, modes, label=f"example(alpha={a:g})")


def example_planar_pair(alpha: float) -> SystemSpec:
    """Upper-left 2x2 blocks of the first two example modes (B = 0, C = 0)."""
    _check_positive_finite("alpha", alpha)
    a = float(alpha)
    A1 = np.array([[-1.0, -a], [a, -1.0]])
    A2 = np.array([[-1.0, -a], [1.0 / a, -1.0]])
    z = np.zeros((2, 1))
    c = np.zeros((1, 2))
    modes = (Mode(A1, z, c), Mode(A2, z, c))
    return SystemSpec(2, 1, 1, modes, label=f"example_planar(alpha={a:g})")


def _planar_rates(theta, alpha):
    """Radial-per-angle growth g_i(theta) of the two planar modes.

    g = (x' A x) / (x wedge A x) at x = (cos theta, sin theta); both modes
    have positive angular speed everywhere, so the parametrization is global.
    """
    c, s = np.cos(theta), np.sin(theta)
    g1 = np.full_like(np.asarray(theta, dtype=float), -1.0 / alpha)
    num = -1.0 + (1.0 / alpha - alpha) * s * c
    den = c * c / alpha + alpha * s * s
    return g1, num / den


def worst_turn_ratio(alpha: float) -> float:
    """Return ratio r(alpha) of the most-destabilizing planar law over one turn
    (Simpson's rule on 40001 angles)."""
    theta = np.linspace(0.0, 2.0 * math.pi, 40001)
    g1, g2 = _planar_rates(theta, alpha)
    g = np.maximum(g1, g2)
    h = theta[1] - theta[0]
    integral = h / 3.0 * (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-2:2].sum())
    return math.exp(integral)


def alpha_star(tol: float = 1e-4, *, bracket=(2.0, 6.0)) -> float:
    """Coupling value at which the planar pair is marginally stable.

    Bisection on the sign of r(alpha) - 1; returns a midpoint with
    |r(alpha) - 1| < tol.
    """
    _check_positive_finite("tol", tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    r_lo, r_hi = worst_turn_ratio(lo), worst_turn_ratio(hi)
    if not (r_lo < 1.0 < r_hi):
        raise ValueError(f"bracket does not straddle marginality: r({lo})={r_lo}, r({hi})={r_hi}")
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = worst_turn_ratio(mid)
        if abs(r - 1.0) < tol and hi - lo < 1e-5:
            break
        if r < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return mid


@dataclass(frozen=True, eq=False)
class PlanarNorm:
    """Radial table of the closed worst-case orbit: v(x1, x2) = r / R(theta).

    R is sampled at equally spaced angles (linear interpolation, periodic);
    its derivative comes from the defining orbit equation
    d ln R / d theta = g(theta), so the gradient is kink-free.
    """

    thetas: np.ndarray
    radii: np.ndarray
    alpha: float
    drift: float                    # removed net log-growth per radian
    closure_error: float

    def _interp(self, theta):
        two_pi = 2.0 * math.pi
        th = np.mod(theta, two_pi)
        step = self.thetas[1] - self.thetas[0]
        idx = np.minimum((th / step).astype(int), len(self.thetas) - 2)
        frac = (th - self.thetas[idx]) / step
        return self.radii[idx] * (1.0 - frac) + self.radii[idx + 1] * frac

    def value(self, x1, x2):
        r = np.hypot(x1, x2)
        theta = np.arctan2(x2, x1)
        return r / self._interp(theta)

    def gradient(self, x1, x2):
        """Planar gradient of v; x3-derivative is zero by the cylindrical extension."""
        r = np.hypot(x1, x2)
        theta = np.arctan2(x2, x1)
        R = self._interp(theta)
        g1, g2 = _planar_rates(theta, self.alpha)
        dlogR = np.maximum(g1, g2) - self.drift
        ct, st = np.cos(theta), np.sin(theta)
        # grad v = rhat / R - (R'/R^2) thetahat, R' = R dlogR
        gx = ct / R - dlogR / R * (-st)
        gy = st / R - dlogR / R * ct
        return gx, gy

    @property
    def aspect(self):
        return float(self.radii.max() / self.radii.min())


def planar_norm(alpha: float) -> PlanarNorm:
    """Worst-case closed orbit, scaled into the annulus 1 <= x1^2+x2^2 <= 3,
    tabulated at 2049 equally spaced angles (the last closes the turn)."""
    n_points = 2048
    n_fine = 16 * n_points
    theta = np.linspace(0.0, 2.0 * math.pi, n_fine + 1)
    g1, g2 = _planar_rates(theta, alpha)
    g = np.maximum(g1, g2)
    logR = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(theta))])
    closure = abs(math.expm1(logR[-1]))
    if closure > 5e-2:
        raise ValueError(f"orbit does not close (ratio error {closure:.3g}); "
                         "alpha is not near the marginal value")
    drift = logR[-1] / (2.0 * math.pi)
    logR = logR - drift * theta
    sub = logR[::16][: n_points + 1].copy()
    sub[-1] = sub[0]
    radii = np.exp(sub - sub.min())
    if radii.max() > math.sqrt(3.0) + 1e-9:
        raise ValueError("orbit radial spread exceeds the sqrt(3) annulus")
    thetas = np.linspace(0.0, 2.0 * math.pi, n_points + 1)
    return PlanarNorm(thetas=thetas, radii=radii, alpha=alpha,
                      drift=drift, closure_error=closure)


@dataclass(frozen=True, eq=False)
class LyapunovReport:
    max_violation: float
    n_samples: int
    grad_norm_max: float
    annulus_ok: bool
    orbit_closure_error: float
    planar_decay_max: float           # max dv/dt along modes 1-2 with x3 = 0


def verify_lyapunov_decay(alpha: float, n_samples: int, *, seed: int = 0) -> LyapunovReport:
    """Sampled dissipation check of V = (v^2 + x3^2)/2 for the example family.

    Draws states in the ball of radius 10, one random mode and an input in
    [-5, 5] per sample, and measures dV/dt - (-x3^2/4 + |u x3|); the report carries
    the maximum over samples together with the side conditions on the planar
    norm (gradient bound sqrt(3), annulus containment, orbit closure).
    """
    _check_count("n_samples", n_samples, 1)
    sysm = example_system(alpha)
    norm = planar_norm(alpha)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 10.0 * rng.random(n_samples) ** (1.0 / 3.0)
    X = dirs * radii[:, None]
    U = 5.0 * (2.0 * rng.random(n_samples) - 1.0)
    modes = rng.integers(0, 3, n_samples)

    v = norm.value(X[:, 0], X[:, 1])
    gx, gy = norm.gradient(X[:, 0], X[:, 1])
    max_violation = -math.inf
    planar_decay = -math.inf
    for k in (0, 1, 2):
        sel = modes == k
        if not np.any(sel):
            continue
        A = sysm.A(k)
        b = sysm.B(k)[:, 0]
        xdot = X[sel] @ A.T + U[sel, None] * b[None, :]
        dV = v[sel] * (gx[sel] * xdot[:, 0] + gy[sel] * xdot[:, 1]) + X[sel, 2] * xdot[:, 2]
        bound = -0.25 * X[sel, 2] ** 2 + np.abs(U[sel] * X[sel, 2])
        max_violation = max(max_violation, float(np.max(dV - bound)))

    # planar sub-check: with u = 0 and x3 = 0 the norm is non-increasing
    # along both planar modes at marginality
    th = np.linspace(0.0, 2.0 * math.pi, 721)[:-1]
    P = np.column_stack([np.cos(th), np.sin(th)]) * 2.0
    vp = norm.value(P[:, 0], P[:, 1])
    gpx, gpy = norm.gradient(P[:, 0], P[:, 1])
    for k in (0, 1):
        A = sysm.A(k)[:2, :2]
        pdot = P @ A.T
        dv = vp * (gpx * pdot[:, 0] + gpy * pdot[:, 1])
        planar_decay = max(planar_decay, float(np.max(dv)))

    gq = np.hypot(*norm.gradient(np.cos(th) * norm._interp(th), np.sin(th) * norm._interp(th)))
    return LyapunovReport(
        max_violation=max_violation,
        n_samples=n_samples,
        grad_norm_max=float(np.max(gq)),
        annulus_ok=bool(norm.radii.min() >= 1.0 - 1e-9 and norm.aspect <= math.sqrt(3.0) + 1e-9),
        orbit_closure_error=norm.closure_error,
        planar_decay_max=planar_decay,
    )


# ---------------------------------------------------------------------------
# planted instances


def rotated_nodes_pair(slow: float = -1.0, fast: float = -6.0, shear: float = 3.0) -> SystemSpec:
    """Two Hurwitz sheared nodes, unstable under fast switching.

    Conjugating the node diag(slow, fast) by a shear (instead of a rotation,
    which would keep the modes symmetric and hence stable under every law)
    produces transient growth; the second mode is the quarter-turn rotation
    of the first, so their transients feed each other.  rho(tau) crosses 1 at
    a moderate dwell time.
    """
    if slow >= 0 or fast >= 0:
        raise ValueError("both rates must be negative (Hurwitz modes)")
    D = np.diag([slow, fast])
    S = np.array([[1.0, shear], [0.0, 1.0]])
    A1 = S @ D @ np.linalg.inv(S)
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    A2 = R @ A1 @ R.T
    b = np.array([[1.0], [1.0]])
    c = np.array([[1.0, 0.0]])
    return SystemSpec(2, 1, 1, (Mode(A1, b, c), Mode(A2, b, c)),
                      label=f"nodes(slow={slow:g},fast={fast:g},shear={shear:g})")


def common_lyapunov_modes(beta: float, freqs, *, m: int = 1, p: int = 1) -> SystemSpec:
    """Planar modes beta*I + omega*J sharing |x| as an exact Lyapunov function.

    Every trajectory satisfies |x(t)| = e^{beta t} |x(0)| regardless of the
    switching law, so the constrained spectral radius is exactly e^beta.
    """
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    modes = []
    for w in freqs:
        A = beta * np.eye(2) + w * J
        B = np.ones((2, m))
        C = np.ones((p, 2))
        modes.append(Mode(A, B, C))
    return SystemSpec(2, m, p, tuple(modes), label=f"cqlf(beta={beta:g})")


def planted_reducible_system(n_core: int, n_unreach: int, n_unobs: int,
                             n_modes: int, m: int, p: int, seed: int):
    """Random system with planted unreachable and unobservable blocks.

    Returns (system, n_core): the assembled system is similar (by a random
    orthogonal change of basis) to a block system whose reachable dimension
    is n_core + n_unobs and whose minimal dimension is n_core for generic
    draws; tests verify dimensions against the word-enumeration oracle.
    """
    rng = np.random.default_rng(seed)
    n = n_core + n_unreach + n_unobs
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    modes = []
    for _ in range(n_modes):
        A_core = rng.standard_normal((n_core, n_core)) - 1.5 * np.eye(n_core)
        A_ur = rng.standard_normal((n_unreach, n_unreach)) - 1.5 * np.eye(n_unreach)
        A_uo = rng.standard_normal((n_unobs, n_unobs)) - 1.5 * np.eye(n_unobs)
        A = np.zeros((n, n))
        A[:n_core, :n_core] = A_core
        A[:n_core, n_core:n_core + n_unreach] = rng.standard_normal((n_core, n_unreach))
        A[n_core:n_core + n_unreach, n_core:n_core + n_unreach] = A_ur
        lo = n_core + n_unreach
        A[lo:, :n_core] = rng.standard_normal((n_unobs, n_core))
        A[lo:, lo:] = A_uo
        B = np.zeros((n, m))
        B[:n_core] = rng.standard_normal((n_core, m))
        B[lo:] = rng.standard_normal((n_unobs, m))
        C = np.zeros((p, n))
        C[:, :n_core] = rng.standard_normal((p, n_core))
        C[:, n_core:n_core + n_unreach] = rng.standard_normal((p, n_unreach))
        modes.append(Mode(Q @ A @ Q.T, Q @ B, C @ Q.T))
    sysm = SystemSpec(n, m, p, tuple(modes), label=f"planted(seed={seed})")
    return sysm, n_core
