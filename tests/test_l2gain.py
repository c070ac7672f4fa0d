import math
import re
import time

import numpy as np
import pytest
from scipy.integrate import quad

from switchgain import (
    Mode,
    Signal,
    SignalClassSpec,
    SystemSpec,
    finiteness_test,
    gain_for_signal,
    gain_power_lower,
    gain_search,
    minimal_realization,
    tau_min,
    validate_membership,
)
from switchgain import l2gain, spectral
from switchgain.gallery import (
    alpha_star,
    common_lyapunov_modes,
    example_system,
    planted_reducible_system,
    rotated_nodes_pair,
)
from switchgain.l2gain import (
    _escape_time,
    _reversed_segments,
    _riccati_feasible,
    _riccati_rows,
    _RiccatiKernel,
)
from switchgain.spectral import rho_curve

from oracles import (
    hinf_norm,
    reference_gain_search,
    reference_power_lower,
    rk_gain,
    rk_riccati_feasible,
    scalar_finite_horizon_gain,
)

ARB = SignalClassSpec.arbitrary()


def single_mode(A, B, C):
    A, B, C = np.atleast_2d(A), np.atleast_2d(B), np.atleast_2d(C)
    return SystemSpec(A.shape[0], B.shape[1], C.shape[0], (Mode(A, B, C),))


def random_stable(rng, n=3):
    A = rng.standard_normal((n, n))
    A = A - (max(np.real(np.linalg.eigvals(A))) + 0.5) * np.eye(n)
    return single_mode(A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)))


class TestGainForSignal:
    def test_first_order_hinf(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        est = gain_for_signal(sysm, Signal(((0, 50.0),)), 50.0, tol=1e-5)
        # first-order approximation of the conjugate point: 1/sqrt(1 + (pi/(T+1))^2)
        approx = 1.0 / math.sqrt(1.0 + (math.pi / 51.0) ** 2)
        assert est.value == pytest.approx(approx, abs=2e-4)
        # large-T consistency with the H-infinity oracle (1 percent band)
        oracle = hinf_norm(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert abs(est.value - oracle) <= 0.01 * oracle

    @pytest.mark.parametrize("a, b, c, T", [(-2.0, 3.0, 0.5, 7.0),
                                            (-0.5, 1.0, 2.0, 3.0),
                                            (-3.0, -2.0, 1.5, 0.4)])
    def test_scalar_mode_escape_time_oracle(self, a, b, c, T):
        sysm = single_mode([[a]], [[b]], [[c]])
        est = gain_for_signal(sysm, Signal(((0, T),)), T, tol=1e-5)
        exact = scalar_finite_horizon_gain(a, b, c, T)
        assert abs(est.value - exact) <= 2e-5 * max(exact, 1.0)

    def test_unstable_unreachable_state(self):
        # x1' = 2 x1 is never driven and only inflates a full-order Riccati
        # solution; the input-output map is 1/(s+1)
        sysm = single_mode(np.diag([2.0, -1.0]), [[0.0], [1.0]], [[1.0, 1.0]])
        est = gain_for_signal(sysm, Signal(((0, 10.0),)), 10.0, tol=1e-5)
        assert abs(est.value - scalar_finite_horizon_gain(-1.0, 1.0, 1.0, 10.0)) <= 2e-5

    def test_zero_output(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[0.0]])
        est = gain_for_signal(sysm, Signal(((0, 5.0),)), 5.0)
        assert est.value == 0.0

    def test_monotone_in_horizon(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        sig = Signal(((0, 20.0),))
        v5 = gain_for_signal(sysm, sig, 5.0, tol=1e-5).value
        v20 = gain_for_signal(sysm, sig, 20.0, tol=1e-5).value
        assert v5 <= v20 + 1e-4

    def test_power_iteration_cross_check(self):
        rng = np.random.default_rng(0)
        sysm = random_stable(rng)
        sig = Signal(((0, 6.0),))
        tol = 1e-5
        ric = gain_for_signal(sysm, sig, 6.0, tol=tol)
        power = gain_power_lower(sysm, sig, 6.0, 6.0 / 600)
        assert power.value <= ric.value + 2 * tol * ric.value + 1e-3
        assert power.value >= 0.93 * ric.value

    def test_horizon_validation(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="horizon"):
            gain_for_signal(sysm, Signal(((0, 1.0),)), 2.0)
        with pytest.raises(ValueError, match="tol"):
            gain_for_signal(sysm, Signal(((0, 1.0),)), 1.0, tol=0.0)

    # unchecked, T = NaN gave 0.0 and a NaN or infinite tol the first
    # bisection midpoint, 0.125 on the nodes pair
    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_bad_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="horizon"):
            gain_for_signal(rotated_nodes_pair(), Signal(((0, 0.5), (1, 0.5))), T)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-4])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            gain_for_signal(rotated_nodes_pair(), Signal(((0, 0.5), (1, 0.5))), 1.0, tol)

    def test_switched_signal_gain(self):
        sysm = SystemSpec(1, 1, 1, (
            Mode(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])),
            Mode(np.array([[-2.0]]), np.array([[0.5]]), np.array([[1.0]])),
        ))
        sig = Signal(((0, 2.0), (1, 2.0), (0, 2.0)))
        est = gain_for_signal(sysm, sig, 6.0, tol=1e-5)
        power = gain_power_lower(sysm, sig, 6.0, 0.005)
        assert power.value <= est.value * (1 + 2e-3)
        assert power.value >= 0.9 * est.value


class TestEscapeTime:
    @pytest.mark.parametrize("a, b, c", [
        (1.0, 1.0, 1.0),         # discriminant < 0
        (2.0, -1.0, 1.0),        # discriminant < 0, b < 0
        (1.0, 2.0, 1.0),         # discriminant = 0
        (1.0, 3.0, 1.0),         # discriminant > 0
        (0.5, 4.0, 1e-3),        # discriminant > 0, small c
    ])
    def test_matches_quadrature(self, a, b, c):
        want, err = quad(lambda r: 1.0 / (a * r * r + b * r + c), 0.0, np.inf,
                         epsabs=0.0, epsrel=1e-12, limit=200)
        assert _escape_time(a, b, c) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("a, b, c", [
        (0.0, 1.0, 1.0),         # no quadratic term: r grows at most exponentially
        (1.0, 1.0, 0.0),         # no forcing: r stays 0
        (1.0, -3.0, 1.0),        # positive root (3 - sqrt 5)/2 is an equilibrium
    ])
    def test_infinite_cases(self, a, b, c):
        assert _escape_time(a, b, c) == math.inf


def zero_transfer():
    """A = diag(-1, -2), B = e1, C = e2': the input never reaches the output."""
    return single_mode(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[0.0, 1.0]])


def near_cancelling(eps):
    """A = [[-1, 0], [eps, -2]], B = e1, C = e2': transfer eps / ((s + 1)(s + 2))."""
    return single_mode([[-1.0, 0.0], [eps, -2.0]], [[1.0], [0.0]], [[0.0, 1.0]])


def alternating_nodes_signal(segments=200, seed=0):
    rng = np.random.default_rng(seed)
    durations = rng.uniform(0.1, 0.15, size=segments)
    return Signal(tuple((k % 2, float(d)) for k, d in enumerate(durations)))


def planted3():
    return planted_reducible_system(2, 1, 1, 2, 1, 1, seed=3)[0]


NODES_SIG = Signal(((0, 0.7), (1, 0.9), (0, 1.4)))
PLANTED_SIG = Signal(((0, 0.3), (1, 0.2), (0, 0.25)))

# name -> () -> (system, signal, horizon)
PARITY_CASES = {
    "nodes_-1_-4_1.5": lambda: (rotated_nodes_pair(-1.0, -4.0, 1.5), NODES_SIG, 3.0),
    "nodes_default": lambda: (rotated_nodes_pair(), NODES_SIG, 3.0),
    "planted3": lambda: (planted3(), PLANTED_SIG, 0.75),
    "planted3_min": lambda: (minimal_realization(planted3()).sys_min, PLANTED_SIG, 0.75),
    "example_alpha_star": lambda: (example_system(alpha_star(1e-5)),
                                   Signal(((0, 1.0), (1, 1.5), (2, 1.0), (0, 1.5))), 5.0),
    "scalar_T50": lambda: (single_mode([[-1.0]], [[1.0]], [[1.0]]), Signal(((0, 50.0),)), 50.0),
    "b_zero": lambda: (single_mode(np.diag([-1.0, -2.0]), np.zeros((2, 1)), [[1.0, 1.0]]),
                       Signal(((0, 2.0),)), 2.0),
    # above the gain the step bound is infinite (mu(A) < 0), and one step over
    # the whole segment gives cond(X) ~ e^177: only the halving guard keeps P
    # accurate
    "stiff": lambda: (single_mode(np.diag([-1.0, -60.0]), [[1.0], [1.0]], [[1.0, 1.0]]),
                      Signal(((0, 3.0),)), 3.0),
}


class TestRiccatiKernelParity:
    """The exact Hamiltonian kernel against the adaptive RK45 oracle."""

    TOL = 1e-4

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_decisions_and_gain_match_rk45(self, name):
        sysm, sig, T = PARITY_CASES[name]()
        rev = _reversed_segments(sig, T)
        gain = gain_for_signal(sysm, sig, T, tol=self.TOL).value
        assert abs(gain - rk_gain(sysm, rev, self.TOL)) <= self.TOL * max(gain, 1.0)
        kern = _RiccatiKernel(sysm, T)
        if kern.n == 0:
            return    # b_zero: no schedule runs on a zero-dimensional kernel
        grid = (0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 4.0, *(gain * f for f in (0.5, 0.98, 1.02, 2.0)))
        for gamma in grid:
            assert _riccati_feasible(kern, rev, gamma) == rk_riccati_feasible(sysm, rev, gamma), \
                f"decision differs at gamma={gamma!r}"

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_sweep_decisions_match_scalar_test(self, name):
        """One row pass over a dense grid around the gain decides as the one-gamma test."""
        sysm, sig, T = PARITY_CASES[name]()
        rev = _reversed_segments(sig, T)
        gain = gain_for_signal(sysm, sig, T, tol=self.TOL).value
        kern = _RiccatiKernel(sysm, T)
        if kern.n == 0:
            assert gain == 0.0    # b_zero: the zero rule, no schedule
            return
        grid = [gain * (1.0 + f) for f in np.linspace(-0.1, 0.1, 41)] + [gain * 0.5, gain * 2.0]
        scalar = [_riccati_feasible(kern, rev, gamma) for gamma in grid]
        assert _riccati_rows(kern, [(rev, g) for g in grid]).tolist() == scalar
        # the stack holds feasible and infeasible values, and each decides
        # alone as it does in the stack
        assert any(scalar) and not all(scalar)
        assert [bool(_riccati_rows(kern, [(rev, g)])[0]) for g in grid[::8]] == scalar[::8]


class TestStepBoundRegressions:
    """Inputs on which a step bound from a single basis takes millions of steps."""

    TOL = 1e-4

    def timed_gain(self, sysm, sig, T):
        t0 = time.monotonic()
        gain = gain_for_signal(sysm, sig, T, tol=self.TOL).value
        assert time.monotonic() - t0 < 2.0
        return gain

    def test_zero_transfer(self):
        assert self.timed_gain(zero_transfer(), Signal(((0, 1.0),)), 1.0) <= 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_near_cancelling(self, eps):
        sysm, sig = near_cancelling(eps), Signal(((0, 1.0),))
        gain = self.timed_gain(sysm, sig, 1.0)
        want = rk_gain(sysm, _reversed_segments(sig, 1.0), self.TOL)
        assert 0.0 < gain and abs(gain - want) <= self.TOL * max(want, 1.0)

    def test_long_alternating_nodes_signal(self):
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal()
        T = sig.horizon
        gain = self.timed_gain(sysm, sig, T)
        # the bisection bracket [lo, hi] holds the gain; the oracle must agree
        # on both sides of it
        rev = _reversed_segments(sig, T)
        width = self.TOL * max(gain, 1.0)
        assert not rk_riccati_feasible(sysm, rev, gain - width)
        assert rk_riccati_feasible(sysm, rev, gain + width)


class TestSweepCost:
    """Counts, not wall clock: row passes per bisection and the substep budget."""

    def test_sweeps_per_gain(self, monkeypatch):
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal()
        calls = recording(monkeypatch, l2gain, "_riccati_rows")
        gain_for_signal(sysm, sig, sig.horizon)
        # one bracket pass and three of the bisection's 11 steps; the
        # sequential search made 15 single-gamma passes
        assert len(calls) <= 7

    def test_row_table_built_once(self, monkeypatch):
        # every pass of one bisection fills its (segment, row) table from the
        # arrays built once with the reversed segments
        builds = []

        class CountingSegments(l2gain._Segments):
            def __new__(cls, pairs):
                builds.append(cls)
                return super().__new__(cls, pairs)

        monkeypatch.setattr(l2gain, "_Segments", CountingSegments)
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal()
        calls = recording(monkeypatch, l2gain, "_riccati_rows")
        gain_for_signal(sysm, sig, sig.horizon)
        assert len(calls) >= 3 and len(builds) == 1

    def test_substep_budget(self):
        # mu(A) ~ 5000 while A is stable: near gamma = 1e-9 the escape bound
        # allows ~1e-4 per substep, and the scalar test took 17008 substeps;
        # the one-gamma test raises the error that a row pass reports
        sysm = single_mode([[-1.0, 1e4], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        kern = _RiccatiKernel(sysm, 1.0)
        t0 = time.monotonic()
        error, passed = _riccati_rows(kern, [([(1.0, 0)], 1e-9), ([(1.0, 0)], 1.0)]).tolist()
        assert time.monotonic() - t0 < 2.0
        assert isinstance(error, RuntimeError)
        assert passed is _riccati_feasible(kern, [(1.0, 0)], 1.0)
        assert re.search(r"gamma=1e-09 .* segment 0", str(error))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"gamma=1e-09 .* segment 0"):
            _riccati_feasible(kern, [(1.0, 0)], 1e-9)
        assert time.monotonic() - t0 < 2.0


def random_signal(rng, n_modes, T):
    """1 to 5 segments of random modes covering [0, T], none shorter than T / 20."""
    k = int(rng.integers(1, 6))
    durations = T / 20 + rng.dirichlet(np.ones(k)) * (T - k * T / 20)
    return Signal(tuple((int(rng.integers(n_modes)), float(d)) for d in durations))


class TestRiccatiRows:
    """The row engine decides every row as the one-gamma test does."""

    @pytest.mark.parametrize("seed", range(4))
    def test_decisions_match_scalar_test(self, seed):
        rng = np.random.default_rng(seed)
        T = 1.5
        sysm = random_switched(seed, int(rng.integers(2, 4)), 1, 1)
        kern = _RiccatiKernel(sysm, T)
        rows = []
        for _ in range(6):
            rev = _reversed_segments(random_signal(rng, 2, T), T)
            gain = l2gain._bisection(kern, rev, 1e-6)
            rows += [(rev, gain * f) for f in (0.9, 0.99, 1.01, 1.1)] + [(rev, 1e-9)]
        # rows of 1 to 5 segments and of feasible and infeasible gammas, in one pass
        assert len({len(rev) for rev, _ in rows}) > 1
        scalar = [_riccati_feasible(kern, rev, gamma) for rev, gamma in rows]
        assert any(scalar) and not all(scalar)
        assert _riccati_rows(kern, rows).tolist() == scalar

    @pytest.mark.parametrize("name", ["nodes_default", "planted3", "stiff", "b_zero"])
    def test_parity_cases(self, name):
        sysm, sig, T = PARITY_CASES[name]()
        rev = _reversed_segments(sig, T)
        kern = _RiccatiKernel(sysm, T)
        gain = l2gain._bisection(kern, rev, 1e-6)
        if kern.n == 0:
            assert gain == 0.0    # b_zero: the zero rule, no schedule
            return
        rows = [(rev, gain * f) for f in (0.9, 0.99, 1.01, 1.1)] + [(rev[-1:], gain)]
        assert _riccati_rows(kern, rows).tolist() == [_riccati_feasible(kern, r, g)
                                                      for r, g in rows]

    def test_mixed_lengths(self):
        # rows of 1 to 5 segments beside rows of 200, in one pass; the long
        # row at 1e-9 fails on its first segment backwards and leaves the
        # chain there while the other long rows go on
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal()
        kern = _RiccatiKernel(sysm, sig.horizon)
        long_rev = _reversed_segments(sig, sig.horizon)
        rng = np.random.default_rng(5)
        rows = []
        for rev in [long_rev] + [_reversed_segments(random_signal(rng, 2, 1.5), 1.5)
                                 for _ in range(4)]:
            gain = l2gain._bisection(kern, rev, 1e-6)
            rows += [(rev, gain * f) for f in (0.9, 0.99, 1.01, 1.1)] + [(rev, 1e-9)]
        assert len(long_rev) == 200 and max(len(rev) for rev, _ in rows[5:]) <= 5
        assert not _riccati_feasible(kern, long_rev[:1], 1e-9)
        scalar = [_riccati_feasible(kern, rev, gamma) for rev, gamma in rows]
        assert scalar[:5] == [False, False, True, True, False] and any(scalar[5:])
        assert _riccati_rows(kern, rows).tolist() == scalar

    def test_finished_rows_leave_the_chain(self, monkeypatch):
        # a row of 1 segment beside a row of 200: after segment 0 the chain
        # steps the long row alone, never the finished one
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal()
        kern = _RiccatiKernel(sysm, sig.horizon)
        long_rev = _reversed_segments(sig, sig.horizon)
        gain = l2gain._bisection(kern, long_rev, 1e-6)
        rows = [(long_rev[:1], 2 * gain), (long_rev, 2 * gain)]
        stacks = recording(monkeypatch, l2gain, "_hamiltonian_step")
        decisions = _riccati_rows(kern, rows).tolist()
        assert len(long_rev) == 200 and len(stacks) == 200
        assert [len(E) for E, _ in stacks] == [2] + [1] * 199
        assert decisions == [True, True]

    def test_empty_rows_pass(self):
        sysm = rotated_nodes_pair()
        kern = _RiccatiKernel(sysm, 1.0)
        assert _riccati_rows(kern, [([], 1.0)]).tolist() == [True]
        assert _riccati_rows(kern, [([], 1e-9), ([(1.0, 0)], 1e-9), ([], 0.5)]).tolist() == \
            [True, _riccati_feasible(kern, [(1.0, 0)], 1e-9), True]
        assert _riccati_rows(kern, []).tolist() == []

    def test_substep_budget(self):
        # the system of TestSweepCost.test_substep_budget: near gamma = 1e-9
        # the last segment, the first one backwards, needs more than
        # _SUBSTEP_BUDGET substeps; the pass reports the one-gamma test's
        # error in that row, and decides the rows beside it: the gain is
        # about 1597, so gamma = 1 fails and gamma = 2048 passes
        sysm = single_mode([[-1.0, 1e4], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        kern = _RiccatiKernel(sysm, 1.0)
        rev = [(0.5, 0), (0.5, 0)]
        t0 = time.monotonic()
        failed, error, passed = _riccati_rows(kern, [(rev, 1.0), (rev, 1e-9),
                                                     (rev, 2048.0)]).tolist()
        assert time.monotonic() - t0 < 2.0
        assert failed is False and passed is True and isinstance(error, RuntimeError)
        assert re.search(r"gamma=1e-09 .* segment 1", str(error))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=re.escape(str(error))):
            _riccati_feasible(kern, rev, 1e-9)
        assert time.monotonic() - t0 < 2.0


class TestGainSearchOracle:
    """gain_search against the one-candidate-at-a-time loop it replaces."""

    C6 = {"max_switches": 2, "duration_grid": (0.4, 0.8, 1.2, 1.6), "refine": False,
          "eval_budget": 30, "tol": 1e-5}
    # name -> () -> (system, class, T, options)
    CASES = {
        "nodes_arb_T0.4": lambda: (rotated_nodes_pair(), ARB, 0.4, {}),
        "nodes_dwell0.25_T0.5": lambda: (rotated_nodes_pair(-1.0, -4.0, 1.5),
                                         SignalClassSpec.dwell(0.25), 0.5, {}),
        "nodes_dwell0.25_T0.5_norefine": lambda: (rotated_nodes_pair(-1.0, -4.0, 1.5),
                                                  SignalClassSpec.dwell(0.25), 0.5,
                                                  {"refine": False}),
        "nodes_c6_dwell0.5_T3": lambda: (rotated_nodes_pair(-1.0, -4.0, 1.5),
                                         SignalClassSpec.dwell(0.5), 3.0, TestGainSearchOracle.C6),
        "nodes_c6_dwell1.1_T2": lambda: (rotated_nodes_pair(-0.5, -3.0, 2.0),
                                         SignalClassSpec.dwell(1.1), 2.0, TestGainSearchOracle.C6),
        "planted3_arb_T0.5": lambda: (planted3(), ARB, 0.5, {}),
        # the first candidates take no input (B = 0): their gain is 0.0, and
        # the candidates after them are bisected until one has a positive gain
        "example_dwell0.5_T1": lambda: (example_system(4.5), SignalClassSpec.dwell(0.5), 1.0, {}),
        "example_arb_T1_norefine": lambda: (example_system(4.5), ARB, 1.0,
                                            {"max_switches": 2, "refine": False}),
        **{f"random{seed}_{kind}": (lambda seed=seed, kind=kind: (
            random_switched(100 + seed, 2 + seed % 2, 1, 1),
            ARB if kind == "arb" else SignalClassSpec.dwell(0.2), 1.0,
            {"max_switches": 3, "eval_budget": 80}))
           for seed in range(3) for kind in ("arb", "dwell0.2")},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_reference(self, name):
        sysm, cls, T, opts = self.CASES[name]()
        value, witness = reference_gain_search(sysm, cls, T, **opts)
        est = gain_search(sysm, cls, T, **opts)
        assert est.value.hex() == value.hex()
        assert est.witness_signal.segments == witness.segments

    def test_rows_that_raise_are_redone_one_at_a_time(self, monkeypatch):
        # a probe row past the substep budget is reported, not raised: the
        # rows of a chunk after a probe that raised the best are probed again
        # at the new best, so an error in each of them changes nothing, as
        # the one-at-a-time loop never tests them at the old best
        sysm, cls, T, opts = self.CASES["nodes_arb_T0.4"]()
        opts = {**opts, "refine": False}    # each candidate is walked once
        value, witness = reference_gain_search(sysm, cls, T, **opts)
        probes = [row for rows in row_passes(monkeypatch, lambda: gain_search(sysm, cls, T, **opts))
                  for row in rows]
        dropped = {(rev, gamma) for k, (rev, gamma) in enumerate(probes)
                   if any(later == rev for later, _ in probes[k + 1:])}
        assert dropped
        reported = reporting_errors(monkeypatch, dropped)
        est = gain_search(sysm, cls, T, **opts)
        assert sorted(row for row, _ in reported) == sorted(dropped)
        assert est.value.hex() == value.hex()
        assert est.witness_signal.segments == witness.segments


class TestRowErrors:
    """A row pass reports a substep-budget error; it is raised only where the
    one-gamma tests of the same search would meet it (no real input is known
    to run out of substeps there, so the errors are stubbed)."""

    def test_bisection_raises_only_asked_gammas(self, monkeypatch):
        # each pass on a signal of _SWEEP_SEGMENTS segments also decides
        # look-ahead gammas: an error reported for one aborts nothing unless
        # the bisection asks for that gamma later
        sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
        sig = alternating_nodes_signal(l2gain._SWEEP_SEGMENTS)
        rev = _reversed_segments(sig, sig.horizon)
        kern = _RiccatiKernel(sysm, sig.horizon)
        gain = l2gain._bisection(kern, rev, 1e-4)
        passes = row_passes(monkeypatch, lambda: l2gain._bisection(kern, rev, 1e-4))
        lookahead = [row for rows in passes for row in rows[1:]]
        asked = []
        for row in lookahead:
            reported = reporting_errors(monkeypatch, {row})
            try:
                value = l2gain._bisection(kern, rev, 1e-4)
            except RuntimeError as exc:
                assert [exc] == [error for _, error in reported]
                asked.append(row)
            else:
                assert [r for r, _ in reported] == [row]
                assert value.hex() == gain.hex()
        # 0.125 to 0.5 of the first pass are asked for later, 2 to 8 never
        assert 0 < len(asked) < len(lookahead)

    def test_gain_search_raises_reached_rows(self, monkeypatch):
        # a probe row that the walk reaches was probed at the best of its
        # turn: its error is raised, the one that the one-at-a-time loop's
        # test raises there
        sysm, cls, T, opts = TestGainSearchOracle.CASES["nodes_arb_T0.4"]()
        opts = {**opts, "refine": False}
        passes = row_passes(monkeypatch, lambda: gain_search(sysm, cls, T, **opts))
        probes = [row for rows in passes for row in rows]
        reached = [(rev, gamma) for k, (rev, gamma) in enumerate(probes)
                   if not any(later == rev for later, _ in probes[k + 1:])]
        for row in (reached[0], reached[-1]):
            reported = reporting_errors(monkeypatch, {row})
            with pytest.raises(RuntimeError) as exc:
                gain_search(sysm, cls, T, **opts)
            assert [exc.value] == [error for _, error in reported]

            def feasible_or_error(kern, rev, gamma, row=row):
                if (tuple(rev), gamma) == row:
                    raise l2gain._budget_error(gamma, rev, 0)
                return _riccati_feasible(kern, rev, gamma)

            monkeypatch.setattr(l2gain, "_riccati_feasible", feasible_or_error)
            with pytest.raises(RuntimeError, match=re.escape(str(exc.value))):
                reference_gain_search(sysm, cls, T, **opts)
            monkeypatch.setattr(l2gain, "_riccati_feasible", _riccati_feasible)


class TestIncumbentCost:
    """Counts, not wall clock: Riccati tests below an incumbent a candidate failed."""

    def test_defaults_query(self, monkeypatch):
        # per bisection: [signal, floor, probes before it, gammas tested,
        # result]; per incumbent probe: [signal, gamma, passed, best gain so far]
        runs, probes, passes = [], [], []
        bisection = l2gain._bisection
        feasible, rows = l2gain._riccati_feasible, l2gain._riccati_rows

        def traced_bisection(kern, rev, tol, floor=0.0):
            runs.append([rev, floor, len(probes), []])
            runs[-1].append(bisection(kern, rev, tol, floor))
            return runs[-1][4]

        def best():
            return max((run[4] for run in runs if len(run) == 5), default=None)

        def traced_feasible(kern, rev, gamma):
            assert runs and len(runs[-1]) == 4    # only bisections test one gamma
            runs[-1][3].append(gamma)
            return feasible(kern, rev, gamma)

        def traced_rows(kern, batch):
            passed = rows(kern, batch)
            if runs and len(runs[-1]) == 4:
                runs[-1][3].extend(gamma for _, gamma in batch)
                return passed
            passes.append(batch)
            probes.extend([rev, gamma, ok, best()] for (rev, gamma), ok in zip(batch, passed))
            return passed

        monkeypatch.setattr(l2gain, "_bisection", traced_bisection)
        monkeypatch.setattr(l2gain, "_riccati_feasible", traced_feasible)
        monkeypatch.setattr(l2gain, "_riccati_rows", traced_rows)
        est = gain_search(rotated_nodes_pair(), SignalClassSpec.dwell(0.5), 3.0)
        assert est.value == float.fromhex("0x1.0a96000000000p+3")
        assert probes and all(gamma == at for _, gamma, _, at in probes)
        # a candidate is bisected above a floor only after its last probe,
        # there, failed, and no gamma at or below the floor is tested
        failed = [run for run in runs if run[1]]
        assert failed
        for rev, floor, before, gammas, _ in failed:
            assert [p[1:3] for p in probes[:before] if p[0] is rev][-1] == [floor, False]
            assert all(g > floor for g in gammas)
        # one-gamma tests plus row passes: 268 when each bisection started
        # afresh after its incumbent probe, 218 one-gamma tests when the
        # probe was its first decision, 207 with the probes of two or more
        # candidates in row passes, and as many with every probe in one
        tests = sum(len(run[3]) for run in runs)
        assert tests + len(passes) <= 218

    def test_sweep_skips_values_below_the_incumbent(self, monkeypatch):
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal()
        rev = _reversed_segments(sig, sig.horizon)
        kern = _RiccatiKernel(sysm, sig.horizon)
        gain = l2gain._bisection(kern, rev, 1e-4)
        calls = recording(monkeypatch, l2gain, "_riccati_rows")
        floor = 0.9 * gain
        assert l2gain._bisection(kern, rev, 1e-4, floor).hex() == gain.hex()
        assert calls and all(r is rev for args in calls for r, _ in args[1])
        assert all(g > floor for args in calls for _, g in args[1])


class TestPowerLower:
    def test_first_order_approaches_one(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        est = gain_power_lower(sysm, Signal(((0, 50.0),)), 50.0, 1e-2)
        assert est.value >= 0.99
        assert est.value <= 1.0 + 1e-3

    def test_zero_input_map(self):
        sysm = single_mode([[-1.0]], [[0.0]], [[1.0]])
        est = gain_power_lower(sysm, Signal(((0, 5.0),)), 5.0, 0.01)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_cross_validation_random_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sysm = random_stable(rng)
            sig = Signal(((0, 4.0),))
            tol = 1e-5
            ric = gain_for_signal(sysm, sig, 4.0, tol=tol).value
            pow_ = gain_power_lower(sysm, sig, 4.0, 0.01).value
            assert pow_ <= ric + 2 * tol * ric + 1e-3
            assert pow_ >= 0.9 * ric

    def test_witness_fields(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        est = gain_power_lower(sysm, Signal(((0, 5.0),)), 5.0, 0.01)
        assert est.witness_input is not None
        assert est.witness_input_energy_ratio == pytest.approx(est.value)

    def test_iteration_cap_reports_last_change(self, monkeypatch):
        # 200 nodes segments at 1,600 steps: 80 iterations end before the
        # ratio settles to 1e-10, and the tolerance said 1e-10 all the same
        sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
        sig = alternating_nodes_signal(200)
        H = sig.horizon
        est = gain_power_lower(sysm, sig, H, H / 1600)
        ref = reference_power_lower(sysm, sig, H, H / 1600)
        assert est.value == pytest.approx(ref.value, rel=1e-12)
        assert est.tolerance > 1e-6
        # the ratios rise, so the value is the last ratio and that of one
        # iteration fewer the one before it
        monkeypatch.setattr(l2gain, "_POWER_ITERS", l2gain._POWER_ITERS - 1)
        before = gain_power_lower(sysm, sig, H, H / 1600).value
        assert est.tolerance == (est.value - before) / est.value

    def test_step_not_dividing_horizon_rejected(self):
        with pytest.raises(ValueError, match="grid step does not divide the horizon"):
            gain_power_lower(rotated_nodes_pair(), Signal(((0, 0.3), (1, 0.2))), 0.5, 0.3)

    # unchecked, T = 0 and grid_step = inf returned 0.0, and the others died
    # inside numpy or on a NaN-to-integer conversion
    @pytest.mark.parametrize("T, grid_step, name", [
        (0.0, 0.1, "T"), (-0.3, 0.1, "T"), (math.nan, 0.1, "T"), (math.inf, 0.1, "T"),
        (0.5, 0.0, "grid_step"), (0.5, -0.1, "grid_step"), (0.5, math.nan, "grid_step"),
        (0.5, math.inf, "grid_step"),
    ])
    def test_bad_horizon_or_step_rejected(self, T, grid_step, name):
        sig = Signal(((0, 0.3), (1, 0.2)))
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            gain_power_lower(rotated_nodes_pair(), sig, T, grid_step)


def random_switched(seed, n, m, p, n_modes=2):
    """Modes with random (not necessarily stable) A, B, C of the given sizes."""
    rng = np.random.default_rng(seed)
    modes = tuple(Mode(rng.standard_normal((n, n)) - 0.5 * np.eye(n),
                       rng.standard_normal((n, m)), rng.standard_normal((p, n)))
                  for _ in range(n_modes))
    return SystemSpec(n, m, p, modes)


def non_normal_pair():
    """Two 3-state modes with off-diagonal couplings 20-40 times their decay rates, m = p = 2."""
    rng = np.random.default_rng(16)
    mats = (np.array([[-1.0, 40.0, 0.0], [0.0, -1.5, 40.0], [0.0, 0.0, -2.0]]),
            np.array([[-2.0, 0.0, 0.0], [30.0, -1.0, 0.0], [0.0, 30.0, -1.5]]))
    return SystemSpec(3, 2, 2, tuple(Mode(A, rng.standard_normal((3, 2)),
                                          rng.standard_normal((2, 3))) for A in mats))


# switch times 0.37 and 1.13 fall inside steps of every grid used below
STRADDLE_SIG = Signal(((0, 0.37), (1, 0.76), (0, 0.87)))

# name -> () -> (system, signal, horizon, grid step)
POWER_CASES = {
    "n0": lambda: (SystemSpec(0, 1, 1, (Mode(np.zeros((0, 0)), np.zeros((0, 1)),
                                             np.zeros((1, 0))),)),
                   Signal(((0, 1.0),)), 1.0, 0.01),
    "n1_scalar": lambda: (single_mode([[-1.0]], [[1.0]], [[1.0]]), Signal(((0, 5.0),)), 5.0, 0.01),
    "n1_m2_p2": lambda: (random_switched(1, 1, 2, 2), STRADDLE_SIG, 2.0, 0.025),
    "n2_m1_p1": lambda: (random_switched(2, 2, 1, 1), STRADDLE_SIG, 2.0, 0.02),
    "n2_m2_p1": lambda: (random_switched(3, 2, 2, 1), STRADDLE_SIG, 2.0, 0.05),
    "n3_m1_p2": lambda: (random_switched(4, 3, 1, 2, n_modes=3),
                         Signal(((0, 0.41), (2, 0.5), (1, 0.33), (0, 0.76))), 2.0, 0.04),
    "n3_m2_p2": lambda: (random_switched(5, 3, 2, 2), STRADDLE_SIG, 2.0, 0.008),
    "T_below_horizon": lambda: (random_switched(6, 2, 1, 2), STRADDLE_SIG, 1.5, 0.03),
    "nodes_pair": lambda: (rotated_nodes_pair(), NODES_SIG, 3.0, 3.0 / 400),
    "b_zero": lambda: (single_mode(np.diag([-1.0, -2.0]), np.zeros((2, 1)), [[1.0, 1.0]]),
                       Signal(((0, 2.0),)), 2.0, 0.01),
    # strongly non-normal modes (|A A' - A' A| > 1e3): the adjoint's
    # transposed solve carries their transient growth backwards
    "non_normal_n3_m2_p2": lambda: (non_normal_pair(), STRADDLE_SIG, 2.0, 0.01),
}


class TestPowerParity:
    """The banded-solve power iteration against its original per-step loops."""

    @pytest.mark.parametrize("name", sorted(POWER_CASES))
    def test_matches_reference_loops(self, name):
        sysm, sig, T, dt = POWER_CASES[name]()
        new = gain_power_lower(sysm, sig, T, dt)
        ref = reference_power_lower(sysm, sig, T, dt)
        assert new.value == pytest.approx(ref.value, rel=1e-12, abs=1e-15)
        assert new.witness_input_energy_ratio == new.value
        assert (new.horizon, new.method, new.tolerance, new.input_dt) == \
            (ref.horizon, ref.method, ref.tolerance, ref.input_dt)
        assert new.witness_input.shape == ref.witness_input.shape
        scale = np.linalg.norm(ref.witness_input)
        assert np.linalg.norm(new.witness_input - ref.witness_input) <= 1e-9 * scale
        if name in ("n0", "b_zero"):
            assert new.value == 0.0

    def test_gain_for_signal_witness(self):
        sysm = random_switched(7, 2, 1, 1)
        est = gain_for_signal(sysm, STRADDLE_SIG, 2.0, compute_witness=True)
        ref = reference_power_lower(sysm, STRADDLE_SIG, 2.0, 2.0 / 400)
        assert est.input_dt == 2.0 / 400
        assert est.witness_input_energy_ratio == pytest.approx(ref.value, rel=1e-12)
        # the discrete ratio may exceed the continuous gain by the trapezoid rule's error
        assert 0 < est.witness_input_energy_ratio <= est.value * (1 + 1e-2)


def recording(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def row_passes(monkeypatch, run):
    """The rows, (reversed segments as a tuple, gamma), of each _riccati_rows pass of run()."""
    calls = recording(monkeypatch, l2gain, "_riccati_rows")
    run()
    monkeypatch.setattr(l2gain, "_riccati_rows", _riccati_rows)
    return [[(tuple(rev), gamma) for rev, gamma in rows] for _, rows in calls]


def reporting_errors(monkeypatch, at):
    """Make _riccati_rows report a substep-budget error in each row listed in at.

    Rows are (reversed segments as a tuple, gamma); returns the list of
    (row, error) reported, filled as the passes run.
    """
    reported = []

    def rows_with_errors(kern, rows):
        decisions = _riccati_rows(kern, rows)
        for r, (rev, gamma) in enumerate(rows):
            if (tuple(rev), gamma) in at:
                decisions[r] = l2gain._budget_error(gamma, rev, 0)
                reported.append(((tuple(rev), gamma), decisions[r]))
        return decisions

    monkeypatch.setattr(l2gain, "_riccati_rows", rows_with_errors)
    return reported


class TestBisectionProbes:
    """The bisection does not re-probe the bracket search's last infeasible gamma.

    Values are pinned to the outputs of the version that did, as hex floats.
    """

    ZERO_TRANSFER_SIG = Signal(((0, 2.0),))
    # name -> (system, signal, T, tol, feasibility tests, pinned value)
    CASES = {
        # gain above 1: the upward search ends at 2^2 after probing 2^1
        "nodes": (lambda: rotated_nodes_pair(), NODES_SIG, 3.0, 1e-4, 16, "0x1.adec000000000p+1"),
        "scalar_above_one": (lambda: single_mode([[-0.5]], [[1.0]], [[3.0]]),
                             Signal(((0, 4.0),)), 4.0, 1e-4, 16, "0x1.f954000000000p+1"),
        # gain below 1: the downward search ends at 2^0 after probing 2^-1
        "scalar_below_one": (lambda: single_mode([[-1.0]], [[1.0]], [[1.0]]),
                             Signal(((0, 5.0),)), 5.0, 1e-4, 15, "0x1.c444000000000p-1"),
        # a zero-dimensional minimal realization: 0.0 at any tol, without a
        # test (the version that bisected stopped at the 2^-40 floor with 2^-41,
        # and at tol 1e-13 with 2^-45)
        "zero_transfer": (zero_transfer, ZERO_TRANSFER_SIG, 2.0, 1e-4, 0, "0x0.0p+0"),
        "zero_transfer_fine": (zero_transfer, ZERO_TRANSFER_SIG, 2.0, 1e-13, 0, "0x0.0p+0"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gain_for_signal(self, monkeypatch, name):
        make, sig, T, tol, n_tests, value = self.CASES[name]
        calls = recording(monkeypatch, l2gain, "_riccati_feasible")
        est = gain_for_signal(make(), sig, T, tol)
        gammas = [args[2] for args in calls]
        assert len(gammas) == len(set(gammas)) == n_tests
        assert est.value == float.fromhex(value)

    def test_gain_search(self, monkeypatch):
        calls = recording(monkeypatch, l2gain, "_riccati_feasible")
        passes = recording(monkeypatch, l2gain, "_riccati_rows")
        est = gain_search(rotated_nodes_pair(), SignalClassSpec.dwell(0.5), 3.0,
                          max_switches=2, eval_budget=30)
        # one-gamma tests plus row passes: 67 one-gamma tests when every
        # incumbent probe was its own test (three bisections, one probe fewer
        # each than before; the third fails its incumbent 3.034 and no longer
        # tests 2.0 and 3.0 below it: 69); the probes now take 13 row passes
        # (25 rows), and the bisections 44 one-gamma tests
        assert len(calls) + len(passes) == 57
        assert est.value == float.fromhex("0x1.b84c000000000p+1")
        assert est.witness_signal.segments == ((1, 1.5), (0, 1.5))


def input_then_output():
    """Mode 0 takes input and has no output (C = 0), mode 1 the reverse (B = 0)."""
    A = np.array([[-1.0]])
    return SystemSpec(1, 1, 1, (Mode(A, np.array([[1.0]]), np.array([[0.0]])),
                                Mode(A, np.array([[0.0]]), np.array([[1.0]]))))


class TestZeroGainRule:
    """When no input can reach an output, the gain is 0.0 without a Riccati test."""

    # name -> () -> (system, signal, horizon); the minimal realizations are
    # not zero-dimensional
    CASES = {
        # the example's planar modes take no input (B = 0); the version that
        # bisected ran 41 Riccati tests down to the 2^-40 floor and gave 2^-41
        "example_mode0": lambda: (example_system(4.5), Signal(((0, 1.0),)), 1.0),
        "example_mode1": lambda: (example_system(4.5), Signal(((1, 1.0),)), 1.0),
        "example_modes01": lambda: (example_system(4.5), Signal(((0, 0.4), (1, 0.6))), 1.0),
        # C = 0: the one case the version that bisected also answered without a test
        "input_only": lambda: (input_then_output(), Signal(((0, 2.0),)), 2.0),
        "output_only": lambda: (input_then_output(), Signal(((1, 2.0),)), 2.0),   # B = 0
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_zero_without_a_test(self, monkeypatch, name):
        sysm, sig, T = self.CASES[name]()
        assert minimal_realization(sysm).dim > 0
        calls = recording(monkeypatch, l2gain, "_riccati_feasible")
        passes = recording(monkeypatch, l2gain, "_riccati_rows")
        est = gain_for_signal(sysm, sig, T, compute_witness=True)
        assert est.value == 0.0 and est.witness_input is None
        assert calls == [] and passes == []

    def test_input_then_output_is_bisected(self):
        # no mode has both B and C, yet the input of mode 0 reaches the output
        # of mode 1: a rule that asks each mode for B = 0 or C = 0 would say 0
        sysm, sig = input_then_output(), Signal(((0, 1.0), (1, 1.0)))
        gain = gain_for_signal(sysm, sig, 2.0).value
        want = rk_gain(sysm, _reversed_segments(sig, 2.0), 1e-4)
        assert 0.1 < gain and abs(gain - want) <= 1e-4 * max(want, 1.0)

    @pytest.mark.parametrize("T, value, witness", [
        (1.0, "0x1.db58000000000p-2", ((2, 1.0),)),
        (1.5, "0x1.3ad4000000000p-1", ((2, 1.5),)),
    ])
    def test_example_search_skips_the_floor(self, monkeypatch, T, value, witness):
        # the planar candidates come first and are 0.0 now; the version that
        # gave them 2^-41 probed every later candidate there: 56 one-gamma
        # tests and 9 probe rows per search against 15 and 6
        calls = recording(monkeypatch, l2gain, "_riccati_feasible")
        passes = recording(monkeypatch, l2gain, "_riccati_rows")
        est = gain_search(example_system(alpha_star(1e-4)), SignalClassSpec.dwell(0.5), T)
        assert est.value == float.fromhex(value)
        assert est.witness_signal.segments == witness
        assert len(calls) <= 15
        gammas = [args[2] for args in calls] + [g for _, rows in passes for _, g in rows]
        assert min(gammas) > 2.0 ** -40


class TestGainSearch:
    def test_single_mode_equals_constant_signal(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        T = 8.0
        search = gain_search(sysm, ARB, T, max_switches=2, tol=1e-5)
        const = gain_for_signal(sysm, Signal(((0, T),)), T, tol=1e-5)
        assert search.value == pytest.approx(const.value, rel=1e-4)

    def test_picks_high_gain_mode(self):
        sysm = SystemSpec(1, 1, 1, (
            Mode(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])),
            Mode(np.array([[-1.0]]), np.array([[2.0]]), np.array([[2.0]])),
        ))
        oracle = hinf_norm(np.array([[-1.0]]), np.array([[2.0]]), np.array([[2.0]]))
        assert oracle == pytest.approx(4.0, rel=1e-6)
        est = gain_search(sysm, ARB, 30.0, max_switches=2, tol=1e-5)
        # finite horizon sits just below the H-infinity value (1 percent band)
        assert 0.99 * oracle <= est.value <= oracle * (1 + 1e-6)
        assert est.witness_signal.merged().segments[0][0] == 1

    def test_example_gain_bound(self):
        astar = alpha_star(1e-5)
        sysm = example_system(astar)
        for T in (5.0, 10.0):
            est = gain_search(sysm, ARB, T, max_switches=3, eval_budget=40, tol=1e-3)
            assert est.value <= 4.0

    def test_dwell_monotonicity_nested(self):
        sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
        T = 4.0
        grid = (0.5, 1.0, 1.5, 2.0)
        values = []
        for tau in (0.4, 0.6, 1.0):
            cls = SignalClassSpec.dwell(tau)
            est = gain_search(sysm, cls, T, max_switches=3, duration_grid=grid,
                              refine=False, eval_budget=60, tol=1e-5)
            values.append(est.value)
        assert values[0] >= values[1] - 1e-9
        assert values[1] >= values[2] - 1e-9

    def test_horizon_monotonicity_nested(self):
        sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
        grid = (0.5, 1.0, 1.5, 2.0)
        vals = []
        for T in (3.0, 5.0):
            est = gain_search(sysm, SignalClassSpec.dwell(0.5), T, max_switches=2,
                              duration_grid=grid, refine=False, eval_budget=40, tol=1e-5)
            vals.append(est.value)
        assert vals[0] <= vals[1] + 1e-9

    def test_reduces_once_per_search(self, monkeypatch):
        calls = []
        reduce = l2gain.minimal_realization

        def counted(sysm):
            calls.append(sysm)
            return reduce(sysm)

        monkeypatch.setattr(l2gain, "minimal_realization", counted)
        gain_search(rotated_nodes_pair(-1.0, -4.0, 1.5), ARB, 1.0, max_switches=1,
                    eval_budget=6)
        assert len(calls) == 1

    def test_gain_for_signal_reuses_the_search_kernel(self, monkeypatch):
        sysm, sig = rotated_nodes_pair(-1.0, -4.0, 1.5), Signal(((0, 0.3), (1, 0.7)))
        gain_search(sysm, ARB, 1.0, max_switches=1, eval_budget=6)
        calls = []
        reduce = l2gain.minimal_realization
        monkeypatch.setattr(l2gain, "minimal_realization", lambda s: calls.append(s) or reduce(s))
        cached = gain_for_signal(sysm, sig, 1.0).value
        assert calls == []
        l2gain._kernel.cache_clear()
        assert gain_for_signal(sysm, sig, 1.0).value == cached
        # another horizon needs its own balancing
        gain_for_signal(sysm, sig, 0.8)
        assert calls == [sysm, sysm]

    def test_refinement_raises_the_value(self):
        # the grid switches only at 0.3; refining the switch time finds 0.5
        sysm, cls = rotated_nodes_pair(), SignalClassSpec.dwell(0.25)
        coarse = gain_search(sysm, cls, 1.0, max_switches=1, duration_grid=(0.3,), refine=False)
        est = gain_search(sysm, cls, 1.0, max_switches=1, duration_grid=(0.3,))
        assert est.value > coarse.value
        assert est.witness_signal.segments != coarse.witness_signal.segments
        assert validate_membership(est.witness_signal, cls).ok
        # the refined candidate was bisected with the incumbent it beat
        again = gain_for_signal(sysm, est.witness_signal, 1.0)
        assert again.value.hex() == est.value.hex()

    @pytest.mark.parametrize("T, tol", [(math.nan, 1e-4), (math.inf, 1e-4), (0.0, 1e-4),
                                        (1.0, math.nan), (1.0, math.inf)])
    def test_bad_horizon_or_tol_rejected(self, T, tol):
        # unchecked, tol = NaN returned 0.125 and T = inf died in the balancing
        with pytest.raises(ValueError, match="must be positive and finite"):
            gain_search(rotated_nodes_pair(), ARB, T, max_switches=1, eval_budget=6, tol=tol)

    def test_unsupported_class(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="arbitrary and dwell classes"):
            gain_search(sysm, SignalClassSpec.avg_dwell(1.0, 2), 2.0)


class TestMinimalRealizationGainInvariance:
    def test_gain_preserved_under_reduction(self):
        for seed in (0, 1):
            sysm, _ = planted_reducible_system(2, 1, 1, 2, 1, 1, seed)
            mr = minimal_realization(sysm)
            rng = np.random.default_rng(seed + 100)
            for _ in range(2):
                segs = tuple((int(rng.integers(0, 2)), 0.5 + float(rng.random()))
                             for _ in range(3))
                sig = Signal(segs)
                T = sig.horizon
                g1 = gain_for_signal(sysm, sig, T, tol=1e-8).value
                g2 = gain_for_signal(mr.sys_min, sig, T, tol=1e-8).value
                assert g1 == pytest.approx(g2, abs=1e-6 * max(1.0, g1))


class TestFiniteness:
    def test_cqlf_finite(self):
        sysm = common_lyapunov_modes(-0.4, (1.0, 2.2))
        verdict = finiteness_test(sysm, SignalClassSpec.dwell(0.5),
                                  upper_opts={"eps": 0.002, "delta": 0.002})
        assert verdict.verdict == "finite"

    def test_example_unstable_side_infinite(self):
        sysm = example_system(6.0)
        verdict = finiteness_test(sysm, ARB)
        assert verdict.verdict == "infinite"
        assert verdict.rho_min_realization.lower > 1.0

    def test_example_marginal_undetermined(self):
        astar = alpha_star(1e-6)
        sysm = example_system(astar)
        verdict = finiteness_test(sysm, ARB, upper_opts={"delta": 0.01, "budget": 200})
        assert verdict.verdict == "undetermined"
        assert "not uniformly observable" in verdict.rationale
        assert verdict.minimal_dim == 3

    def test_unobservable_but_stable_finite(self):
        # stable system with zero output: rho < 1 certifies finite regardless
        sysm = single_mode([[-1.0]], [[1.0]], [[0.0]])
        verdict = finiteness_test(sysm, SignalClassSpec.dwell(0.5))
        assert verdict.verdict == "finite"

    def test_infinite_via_uniform_observability(self):
        # marginal single mode (integrator with observation): rho == 1 exactly
        sysm = single_mode([[0.0]], [[1.0]], [[1.0]])
        verdict = finiteness_test(sysm, SignalClassSpec.dwell(1.0))
        assert verdict.verdict == "infinite"
        assert "uniformly observable" in verdict.rationale

    def test_unsupported_class(self):
        sysm = single_mode([[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="arbitrary and dwell classes"):
            finiteness_test(sysm, SignalClassSpec.avg_dwell(1.0, 2))


class TestFinitenessSoundness:
    def test_finite_verdict_gains_stabilize(self):
        # when the verdict is finite, finite-horizon search gains settle:
        # doubling the largest horizon moves the value by under one percent
        sysm = common_lyapunov_modes(-1.2, (2.0, 4.5))
        verdict = finiteness_test(sysm, SignalClassSpec.dwell(0.5),
                                  upper_opts={"eps": 0.002, "delta": 0.002})
        assert verdict.verdict == "finite"
        grid = (1.0, 2.0, 3.0)
        vals = []
        for T in (10.0, 20.0, 40.0):
            est = gain_search(sysm, SignalClassSpec.dwell(0.5), T, max_switches=2,
                              duration_grid=grid, refine=False, eval_budget=12,
                              tol=1e-6)
            vals.append(est.value)
        assert vals[-1] <= vals[-2] * 1.01
        assert vals[-2] <= vals[-1] + 1e-6  # monotone up to tolerance


class TestTauMin:
    def test_degenerate_bracket_reports_zero(self):
        sysm = common_lyapunov_modes(-0.3, (1.0, 2.0))
        res = tau_min(sysm, (0.5, 2.0), 0.1,
                      upper_opts={"eps": 0.002, "delta": 0.002})
        assert res.tau_accept <= 0.5
        assert any("tau_min" in f or "bracket" in f for f in res.flags)

    def test_single_unstable_mode_invalid_bracket(self):
        sysm = single_mode([[0.2]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="bracket"):
            tau_min(sysm, (0.5, 3.0), 0.1)

    @pytest.mark.parametrize("bracket, name", [((0.6, math.inf), "tau_hi"),
                                               ((math.inf, math.inf), "tau_lo"),
                                               ((math.nan, 2.0), "tau_lo")])
    def test_non_finite_bracket_rejected(self, bracket, name):
        # unchecked, tau_hi = inf failed later on a signal segment
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            tau_min(rotated_nodes_pair(), bracket)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.05])
    def test_bad_tol_rejected(self, tol):
        # unchecked, a NaN or nonpositive tol never ended the bisection
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            tau_min(rotated_nodes_pair(), (0.6, 2.0), tol)

    @pytest.mark.parametrize("upper_opts, rho_lower_calls, rho_upper_calls, bracket", [
        # tau 2.0 and 1.15 classify as accept; 0.6, 1.3 and 1.075 as reject;
        # 1.15 is undecided at first and accepted by the boosted retry
        ({"delta": 0.002}, 6, 4, ("0x1.099999999999ap+0", "0x1.2000000000000p+0")),
        # tau 2.0 stays undecided after the boosted retry
        (None, 2, 2, None),
    ])
    def test_boosted_retry_reuses_lower_estimate(self, monkeypatch, upper_opts,
                                                 rho_lower_calls, rho_upper_calls, bracket):
        """One rho_lower per classified tau; verdicts pinned to the version
        that ran rho_lower again for the retry (7 and 3 calls)."""
        lower = recording(monkeypatch, l2gain, "rho_lower")
        upper = recording(monkeypatch, l2gain, "rho_upper")
        if bracket is None:
            with pytest.raises(ValueError, match="upper end undecidable"):
                tau_min(rotated_nodes_pair(), (0.6, 2.0), 0.1, upper_opts=upper_opts)
        else:
            res = tau_min(rotated_nodes_pair(), (0.6, 2.0), 0.1, upper_opts=upper_opts)
            assert (res.tau_reject, res.tau_accept) == tuple(map(float.fromhex, bracket))
            assert not res.flags
        assert (len(lower), len(upper)) == (rho_lower_calls, rho_upper_calls)

    def test_zero_system(self):
        # B = 0: the minimal realization has dimension 0
        sysm = single_mode([[-1.0, 2.0], [0.0, -3.0]], [[0.0], [0.0]], [[1.0, 1.0]])
        res = tau_min(sysm, (0.5, 1.0))
        assert (res.tau_reject, res.tau_accept, res.flags) == (0.0, 0.0, ("zero_system",))

    def test_bracket_lo_not_rejected(self):
        # rho at tau = 1.4 lies in [0.806, 2.51], and the arbitrary class is not accepted
        res = tau_min(rotated_nodes_pair(), (1.4, 2.0))
        assert (res.tau_reject, res.tau_accept) == (0.0, 1.4)
        assert res.flags == ("bracket_lo_not_rejected",)

    def test_undecided_zone(self, monkeypatch):
        def classify(ms, cls, lower_est, upper_opts):
            tau = spectral.class_tau(cls)
            return "reject" if tau <= 1.0 else "accept" if tau >= 1.5 else "undecided"

        monkeypatch.setattr(l2gain, "_classify_tau", classify)
        res = tau_min(rotated_nodes_pair(), (0.6, 2.0))
        # mid 1.3 undecided: quarter points 0.95 (reject) and 1.7375 (accept);
        # mid 1.34 undecided: 1.15 undecided, 1.54 accept; mid 1.25 and its
        # quarter points 1.10 and 1.39 undecided: no progress
        assert (res.tau_reject, res.tau_accept) == (0.95, 1.540625)
        assert res.flags == ("undecided_zone",)

    def test_nodes_pair_bracket(self):
        sysm = rotated_nodes_pair()
        res = tau_min(sysm, (0.6, 2.0), 0.05,
                      upper_opts={"delta": 0.001, "budget": 800, "eps": 0.003})
        assert res.width <= 0.05 + 1e-9
        assert not res.flags
        # cross-validate against the independent curve crossing
        curve = rho_curve(sysm, [1.0, 1.05, 1.1, 1.15, 1.2])
        vals = curve.lower_envelope
        crossing = None
        for t0, t1, v0, v1 in zip(curve.taus[:-1], curve.taus[1:], vals[:-1], vals[1:]):
            if v0 >= 1.0 >= v1:
                crossing = t0 + (v0 - 1.0) / (v0 - v1) * (t1 - t0)
        assert crossing is not None
        assert res.tau_reject <= crossing <= res.tau_accept
