"""Data model for switched linear control systems, switching-signal classes and
piecewise-constant switching signals, plus parsing and class-membership checks.

A system is a finite set of modes (A_i, B_i, C_i) with shared dimensions
(n, m, p).  A switching signal is an ordered list of (mode index, duration)
segments; class membership (dwell time, average dwell time, persistent
excitation, Lipschitz, bounded variation) is validated exactly on the
piecewise-constant carrier.  Boundary dwell counts: a signal is accepted for
the dwell class only if every (mode-merged) segment, including the first and
last one, lasts at least the dwell time, so that two valid signals always
concatenate into a valid signal.

Public numeric arguments, counts and duration grids go through
_check_positive_finite, _check_count and _check_durations, which raise
ValueError naming the argument.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mode",
    "SystemSpec",
    "SignalClassSpec",
    "Signal",
    "AlphaSignal",
    "Violation",
    "ViolationReport",
    "parse_system",
    "serialize_system",
    "parse_signal",
    "serialize_signal",
    "validate_membership",
    "concat_signals",
]

_KINDS = ("arbitrary", "dwell", "avg_dwell", "pers_exc", "lipschitz", "bv")


def _positive_finite(*values):
    return all(v is not None and 0 < v < math.inf for v in values)


def _check_positive_finite(name, value):
    """ValueError naming the argument unless value is positive and finite."""
    if not _positive_finite(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_count(name, value, least):
    """ValueError naming the argument unless value is an integer >= least."""
    if least > 0:
        _check_positive_finite(name, value)
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_durations(name, grid, below=None):
    """tuple(grid); ValueError naming the argument unless it is non-empty,
    positive and finite, with an entry below `below` when that is given."""
    grid = tuple(grid)
    if not (grid and _positive_finite(*grid)):
        raise ValueError(f"{name} must be non-empty, positive and finite, got {grid!r}")
    if below is not None and not min(grid) < below:
        raise ValueError(f"{name} needs an entry below {below!r}, got {grid!r}")
    return grid


def _freeze(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_matrix(value, rows, cols, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _freeze(arr)


@dataclass(frozen=True, eq=False)
class Mode:
    """One operating mode (A, B, C) of a switched linear control system."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A bounded finite set of modes with dimensions (n, m, p).

    n may be zero (fully reduced system); m and p are positive.  All mode
    matrices are validated for shape and finiteness and stored read-only.
    """

    n: int
    m: int
    p: int
    modes: tuple[Mode, ...]
    label: str = ""

    def __post_init__(self):
        n, m, p = self.n, self.m, self.p
        if n < 0 or m <= 0 or p <= 0:
            raise ValueError(f"invalid dimensions (n={n}, m={m}, p={p})")
        if not self.modes:
            raise ValueError("modes list must be non-empty")
        checked = []
        for k, mode in enumerate(self.modes):
            A = _check_matrix(mode.A, n, n, f"modes[{k}].A")
            B = _check_matrix(mode.B, n, m, f"modes[{k}].B")
            C = _check_matrix(mode.C, p, n, f"modes[{k}].C")
            checked.append(Mode(A, B, C))
        object.__setattr__(self, "modes", tuple(checked))

    @property
    def n_modes(self):
        return len(self.modes)

    def A(self, i):
        return self.modes[i].A

    def B(self, i):
        return self.modes[i].B

    def C(self, i):
        return self.modes[i].C


@dataclass(frozen=True)
class SignalClassSpec:
    """Tagged description of one constrained switching class.

    kind is one of 'arbitrary', 'dwell', 'avg_dwell', 'pers_exc', 'lipschitz',
    'bv'; only the parameters of the chosen kind are set.
    """

    kind: str
    tau: float | None = None
    n0: int | None = None
    T: float | None = None
    mu: float | None = None
    L: float | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown signal class kind {self.kind!r}")
        if self.kind == "dwell":
            if not _positive_finite(self.tau):
                raise ValueError(f"dwell class requires finite tau > 0, got {self.tau!r}")
        elif self.kind == "avg_dwell":
            if not _positive_finite(self.tau):
                raise ValueError(f"avg_dwell class requires finite tau > 0, got {self.tau!r}")
            if self.n0 is None or self.n0 < 1 or int(self.n0) != self.n0:
                raise ValueError("avg_dwell class requires positive integer N0")
        elif self.kind == "pers_exc":
            if not (_positive_finite(self.T, self.mu) and self.mu <= self.T):
                raise ValueError("pers_exc class requires 0 < mu <= T, both finite")
        elif self.kind == "lipschitz":
            if not _positive_finite(self.L):
                raise ValueError(f"lipschitz class requires finite L > 0, got {self.L!r}")
        elif self.kind == "bv":
            if not _positive_finite(self.T, self.nu):
                raise ValueError("bv class requires finite T > 0 and nu > 0")

    @staticmethod
    def arbitrary():
        return SignalClassSpec("arbitrary")

    @staticmethod
    def from_tau(tau):
        """The class of dwell floor tau: dwell if tau > 0, arbitrary if tau == 0.

        Any other tau (negative, NaN or infinite) raises ValueError.
        """
        tau = float(tau)
        if tau == 0:
            return SignalClassSpec.arbitrary()
        if not _positive_finite(tau):
            raise ValueError(f"tau must be 0 (arbitrary) or finite and positive, got {tau!r}")
        return SignalClassSpec.dwell(tau)

    @staticmethod
    def dwell(tau):
        return SignalClassSpec("dwell", tau=float(tau))

    @staticmethod
    def avg_dwell(tau, n0):
        return SignalClassSpec("avg_dwell", tau=float(tau), n0=int(n0))

    @staticmethod
    def pers_exc(T, mu):
        return SignalClassSpec("pers_exc", T=float(T), mu=float(mu))

    @staticmethod
    def lipschitz(L):
        return SignalClassSpec("lipschitz", L=float(L))

    @staticmethod
    def bv(T, nu):
        return SignalClassSpec("bv", T=float(T), nu=float(nu))


def _check_segments(segments, value_check):
    if not segments:
        raise ValueError("signal needs at least one segment")
    out = []
    total = 0.0
    for k, (v, d) in enumerate(segments):
        d = float(d)
        if not (d > 0 and math.isfinite(d)):
            raise ValueError(f"segment {k}: duration must be positive and finite")
        out.append((value_check(v, k), d))
        total += d
    if not math.isfinite(total):
        raise ValueError("total duration must be finite")
    return tuple(out)


@dataclass(frozen=True)
class Signal:
    """Finite-horizon piecewise-constant switching law: (mode index, duration) pairs."""

    segments: tuple[tuple[int, float], ...]

    def __post_init__(self):
        def check(v, k):
            if int(v) != v or v < 0:
                raise ValueError(f"segment {k}: mode index must be a nonnegative integer")
            return int(v)

        object.__setattr__(self, "segments", _check_segments(self.segments, check))

    @property
    def horizon(self):
        return self.segment_ends[-1]

    def merged(self):
        """Same signal with adjacent equal-mode segments merged (no spurious switches)."""
        out = []
        for i, d in self.segments:
            if out and out[-1][0] == i:
                out[-1][1] += d
            else:
                out.append([i, d])
        return Signal(tuple((i, d) for i, d in out))

    def switch_times(self):
        """Times of effective mode changes (equal-mode junctions are not switches)."""
        times, t = [], 0.0
        merged = self.merged().segments
        for _, d in merged[:-1]:
            t += d
            times.append(t)
        return times

    @functools.cached_property
    def segment_ends(self):
        """End time of each segment, summed in segment order."""
        return tuple(itertools.accumulate(d for _, d in self.segments))

    def mode_at(self, t):
        """Mode active at time t (right-continuous; final segment covers the endpoint)."""
        k = bisect.bisect_right(self.segment_ends, t)
        return self.segments[min(k, len(self.segments) - 1)][0]

    def check_modes(self, sys: SystemSpec):
        for k, (i, _) in enumerate(self.segments):
            if i >= sys.n_modes:
                raise ValueError(f"segment {k}: mode index {i} out of range for system")


@dataclass(frozen=True)
class AlphaSignal:
    """Piecewise-constant convex weight for the persistent-excitation class."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        def check(v, k):
            v = float(v)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"segment {k}: alpha must lie in [0, 1]")
            return v

        object.__setattr__(self, "segments", _check_segments(self.segments, check))

    @property
    def horizon(self):
        return sum(d for _, d in self.segments)


def concat_signals(first: Signal, second: Signal) -> Signal:
    """Concatenation: second signal appended after the first (merging equal junctions)."""
    return Signal(first.segments + second.segments).merged()


@dataclass(frozen=True)
class Violation:
    constraint: str
    location: float
    measured: float
    required: float


@dataclass(frozen=True)
class ViolationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __post_init__(self):
        if self.ok != (len(self.violations) == 0):
            raise ValueError("ok flag inconsistent with violation list")


def _report(violations):
    return ViolationReport(ok=not violations, violations=tuple(violations))


def _window_starts(breaks, T, horizon):
    """Candidate window anchors: breakpoints and window-shifted breakpoints.

    Exact for piecewise-constant data: the window functionals are piecewise
    linear (or piecewise constant) in the anchor, so extrema sit at these
    points (midpoints are added for the piecewise-constant case).
    """
    cand = set([0.0, max(0.0, horizon - T)])
    for b in breaks:
        for s in (b, b - T):
            if -1e-12 <= s <= horizon - T + 1e-12:
                cand.add(min(max(s, 0.0), horizon - T))
    cand = sorted(cand)
    mids = [0.5 * (a + b) for a, b in zip(cand[:-1], cand[1:])]
    return sorted(set(cand + mids))


def _mode_distance(sys, i, j):
    mi, mj = sys.modes[i], sys.modes[j]
    return math.sqrt(
        np.sum((mi.A - mj.A) ** 2)
        + np.sum((mi.B - mj.B) ** 2)
        + np.sum((mi.C - mj.C) ** 2)
    )


def validate_membership(sig, cls: SignalClassSpec, sys: SystemSpec | None = None) -> ViolationReport:
    """Check whether a signal belongs to the class, restricted to its horizon.

    The verdict is carried in the report; no exception is raised for a
    non-member.  The bv class measures jump sizes in the matrix-triple norm
    and therefore needs the owning SystemSpec.
    """
    if cls.kind == "pers_exc":
        if not isinstance(sig, AlphaSignal):
            raise TypeError("pers_exc membership is checked on AlphaSignal carriers")
        return _validate_pers_exc(sig, cls)
    if not isinstance(sig, Signal):
        raise TypeError(f"{cls.kind} membership is checked on Signal carriers")

    if cls.kind == "arbitrary":
        return _report([])
    if cls.kind == "dwell":
        return _validate_dwell(sig, cls.tau)
    if cls.kind == "avg_dwell":
        return _validate_avg_dwell(sig, cls.tau, cls.n0)
    if cls.kind == "lipschitz":
        return _validate_lipschitz(sig)
    if cls.kind == "bv":
        if sys is None:
            raise ValueError("bv membership needs the SystemSpec to measure jump sizes")
        sig.check_modes(sys)
        return _validate_bv(sig, cls, sys)
    raise AssertionError(cls.kind)


def _validate_dwell(sig, tau):
    violations = []
    t = 0.0
    for i, d in sig.merged().segments:
        t += d
        if d < tau - 1e-12:
            violations.append(Violation("dwell", t, d, tau))
    return _report(violations)


def _validate_avg_dwell(sig, tau, n0):
    # switch count in [s, s+t] <= N0 + t/tau; for point switch times the
    # binding windows are exactly [s_i, s_j], enumerated pairwise.
    switches = sig.switch_times()
    violations = []
    for a in range(len(switches)):
        for b in range(a, len(switches)):
            count = b - a + 1
            width = switches[b] - switches[a]
            bound = n0 + width / tau
            if count > bound + 1e-12:
                violations.append(Violation("avg_dwell", switches[b], count, bound))
    return _report(violations)


def _validate_pers_exc(sig, cls):
    T, mu = cls.T, cls.mu
    horizon = sig.horizon
    if horizon < T:
        return _report([])  # no complete window inside the horizon
    breaks, t = [0.0], 0.0
    for _, d in sig.segments:
        t += d
        breaks.append(t)
    values = np.array([v for v, _ in sig.segments])
    edges = np.array(breaks)

    def window_integral(s):
        lo, hi = s, s + T
        left = np.clip(edges[:-1], lo, hi)
        right = np.clip(edges[1:], lo, hi)
        return float(np.sum(values * np.maximum(right - left, 0.0)))

    violations = []
    for s in _window_starts(breaks, T, horizon):
        got = window_integral(s)
        if got < mu - 1e-9:
            violations.append(Violation("pers_exc", s, got, mu))
    return _report(violations)


def _validate_lipschitz(sig):
    # A piecewise-constant carrier is Lipschitz only if it never jumps.
    violations = []
    for t in sig.switch_times():
        violations.append(Violation("lipschitz", t, math.inf, 0.0))
    return _report(violations)


def _validate_bv(sig, cls, sys):
    T, nu = cls.T, cls.nu
    merged = sig.merged().segments
    horizon = sig.horizon
    jumps, t = [], 0.0
    for (i, d), (j, _) in zip(merged[:-1], merged[1:]):
        t += d
        jumps.append((t, _mode_distance(sys, i, j)))
    if not jumps:
        return _report([])
    win = min(T, horizon)
    times = np.array([t for t, _ in jumps])
    sizes = np.array([w for _, w in jumps])

    def window_sum(s):
        # variation of the right-continuous carrier over [s, s+win]
        mask = (times > s + 1e-12) & (times <= s + win + 1e-12)
        return float(sizes[mask].sum())

    violations = []
    for s in _window_starts(list(times), win, horizon):
        got = window_sum(s)
        if got > nu + 1e-9:
            violations.append(Violation("bv", s, got, nu))
    return _report(violations)


# ---------------------------------------------------------------------------
# file formats


def parse_system(text: str) -> SystemSpec:
    """Parse a system JSON document (see README for the schema)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed system document: {exc}") from exc
    for key in ("n", "m", "p", "modes"):
        if key not in doc:
            raise ValueError(f"system document missing key {key!r}")
    modes = [Mode(np.asarray(m["A"], dtype=float),
                  np.asarray(m["B"], dtype=float),
                  np.asarray(m["C"], dtype=float)) for m in doc["modes"]]
    return SystemSpec(int(doc["n"]), int(doc["m"]), int(doc["p"]),
                      tuple(modes), str(doc.get("label", "")))


def serialize_system(sys: SystemSpec) -> str:
    doc = {
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "modes": [
            {"A": m.A.tolist(), "B": m.B.tolist(), "C": m.C.tolist()}
            for m in sys.modes
        ],
        "label": sys.label,
    }
    return json.dumps(doc, sort_keys=True)


def parse_signal(text: str) -> Signal:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc
    if "segments" not in doc:
        raise ValueError("signal document missing key 'segments'")
    return Signal(tuple((int(i), float(d)) for i, d in doc["segments"]))


def serialize_signal(sig: Signal) -> str:
    return json.dumps({"segments": [[i, d] for i, d in sig.segments]}, sort_keys=True)
