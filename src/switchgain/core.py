"""Data model for switched linear control systems, switching-signal classes and
piecewise-constant switching signals, plus parsing and class-membership checks.

A system is a finite set of modes (A_i, B_i, C_i) with shared dimensions
(n, m, p).  A switching signal is an ordered list of (mode index, duration)
segments.  The signal classes are the ones the paper's questions are asked
under: arbitrary switching, dwell time and average dwell time; membership is
validated exactly on the piecewise-constant signal.  Boundary dwell counts: a
signal is accepted for the dwell class only if every (mode-merged) segment,
including the first and last one, lasts at least the dwell time, so that two
valid signals always concatenate into a valid signal.  The gain search, the
finiteness test and the observability check take the arbitrary and dwell
classes only, through SignalClassSpec.dwell_floor.

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
    "Violation",
    "ViolationReport",
    "parse_system",
    "serialize_system",
    "parse_signal",
    "serialize_signal",
    "validate_membership",
    "concat_signals",
]

_KINDS = ("arbitrary", "dwell", "avg_dwell")


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

    kind is 'arbitrary', 'dwell' (dwell time tau) or 'avg_dwell' (average
    dwell time tau with chatter bound n0); only the parameters of the chosen
    kind are set.
    """

    kind: str
    tau: float | None = None
    n0: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown signal class kind {self.kind!r}")
        if self.kind != "arbitrary" and not _positive_finite(self.tau):
            raise ValueError(f"{self.kind} class requires finite tau > 0, got {self.tau!r}")
        if self.kind == "avg_dwell":
            _check_count("n0", self.n0, 1)

    @property
    def dwell_floor(self):
        """0.0 for the arbitrary class, tau for the dwell class; ValueError for
        any other kind, which the analyses that read it do not support."""
        if self.kind == "arbitrary":
            return 0.0
        if self.kind == "dwell":
            return self.tau
        raise ValueError(f"only the arbitrary and dwell classes are supported here, "
                         f"not {self.kind!r}")

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
        return SignalClassSpec("avg_dwell", tau=float(tau), n0=n0)


@dataclass(frozen=True)
class Signal:
    """Finite-horizon piecewise-constant switching law: (mode index, duration) pairs."""

    segments: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("signal needs at least one segment")
        out = []
        total = 0.0
        for k, (v, d) in enumerate(self.segments):
            try:
                i = int(v)
            except (TypeError, ValueError, OverflowError):   # NaN, infinite, not a number
                i = -1
            if i != v or i < 0:
                raise ValueError(f"segment {k}: mode index must be a nonnegative integer")
            d = float(d)
            if not (d > 0 and math.isfinite(d)):
                raise ValueError(f"segment {k}: duration must be positive and finite")
            out.append((i, d))
            total += d
        if not math.isfinite(total):
            raise ValueError("total duration must be finite")
        object.__setattr__(self, "segments", tuple(out))

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


def validate_membership(sig: Signal, cls: SignalClassSpec) -> ViolationReport:
    """Check whether a signal belongs to the class, restricted to its horizon.

    The verdict is carried in the report; no exception is raised for a
    non-member.
    """
    if cls.kind == "arbitrary":
        return _report([])
    if cls.kind == "dwell":
        return _validate_dwell(sig, cls.tau)
    return _validate_avg_dwell(sig, cls.tau, cls.n0)


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
    return Signal(tuple(doc["segments"]))


def serialize_signal(sig: Signal) -> str:
    return json.dumps({"segments": [[i, d] for i, d in sig.segments]}, sort_keys=True)
