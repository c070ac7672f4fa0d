import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from switchgain import Mode, Signal, SystemSpec, flows, gramians, l2gain, simulate, transition, trajectory_to_csv
from switchgain.core import concat_signals
from switchgain.flows import _expm_stack, _spans
from switchgain.gallery import alpha_star, example_system, rotated_nodes_pair

from oracles import (
    clip_spans,
    reference_gramians,
    reference_simulate,
    reference_step_operators,
    reference_transition,
    rk_flow,
    simpson_gramians,
)


def make_system(mats, m=1, p=1, B=None, C=None):
    n = mats[0].shape[0]
    modes = []
    for k, A in enumerate(mats):
        Bk = B[k] if B is not None else np.ones((n, m))
        Ck = C[k] if C is not None else np.ones((p, n))
        modes.append(Mode(np.asarray(A, float), np.asarray(Bk, float), np.asarray(Ck, float)))
    return SystemSpec(n, m, p, tuple(modes))


def random_switched(rng, n=3, k=2, scale=1.0):
    mats = [scale * rng.standard_normal((n, n)) - 0.5 * np.eye(n) for _ in range(k)]
    return make_system(mats, B=[rng.standard_normal((n, 1)) for _ in range(k)],
                       C=[rng.standard_normal((1, n)) for _ in range(k)])


class TestTransition:
    def test_zero_generator(self):
        sysm = make_system([np.zeros((1, 1))])
        sig = Signal(((0, 2.0),))
        assert transition(sysm, sig, 0.0, 1.3) == pytest.approx(1.0)

    def test_nilpotent_closed_form(self):
        sysm = make_system([np.array([[0.0, 1.0], [0.0, 0.0]])], m=1, p=1,
                           B=[np.zeros((2, 1))], C=[np.zeros((1, 2))])
        sig = Signal(((0, 5.0),))
        t = 1.7
        phi = transition(sysm, sig, 0.0, t)
        np.testing.assert_allclose(phi, [[1.0, t], [0.0, 1.0]], atol=1e-14)

    def test_identity_at_equal_times(self):
        rng = np.random.default_rng(0)
        sysm = random_switched(rng)
        sig = Signal(((0, 1.0), (1, 1.0)))
        np.testing.assert_allclose(transition(sysm, sig, 0.7, 0.7), np.eye(3), atol=1e-15)

    def test_against_rk_oracle(self):
        rng = np.random.default_rng(1)
        sysm = random_switched(rng)
        sig = Signal(((0, 0.8), (1, 1.4)))
        phi = transition(sysm, sig, 0.0, sig.horizon)
        for _ in range(50):
            x0 = rng.standard_normal(3)
            ref = rk_flow(sysm, sig, 0.0, sig.horizon, x0)
            err = np.linalg.norm(phi @ x0 - ref) / np.linalg.norm(ref)
            assert err < 1e-8

    def test_cocycle(self):
        rng = np.random.default_rng(2)
        sysm = random_switched(rng)
        sig = Signal(((0, 1.0), (1, 0.5), (0, 1.5)))
        r, s, t = 0.3, 1.2, 2.6
        lhs = transition(sysm, sig, s, t) @ transition(sysm, sig, r, s)
        rhs = transition(sysm, sig, r, t)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-9

    def test_concatenation(self):
        rng = np.random.default_rng(3)
        sysm = random_switched(rng)
        s1 = Signal(((0, 0.7), (1, 0.6)))
        s2 = Signal(((1, 0.4), (0, 0.9)))
        glued = concat_signals(s1, s2)
        lhs = transition(sysm, glued, 0.0, glued.horizon)
        rhs = transition(sysm, s2, 0.0, s2.horizon) @ transition(sysm, s1, 0.0, s1.horizon)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_outside_horizon_rejected(self):
        sysm = make_system([np.zeros((1, 1))])
        sig = Signal(((0, 1.0),))
        with pytest.raises(ValueError, match="horizon"):
            transition(sysm, sig, 0.0, 2.0)


class TestGramians:
    def test_scalar_closed_form(self):
        # anchored at the interval start: wc(t) = (e^{2t} - 1) / 2 for A = -1
        sysm = make_system([np.array([[-1.0]])])
        t = 1.3
        pair = gramians(sysm, Signal(((0, t),)), 0.0, t)
        assert pair.wc[0, 0] == pytest.approx((math.exp(2 * t) - 1) / 2, rel=1e-12)
        # end-anchored variant via the flow congruence
        phi = transition(sysm, Signal(((0, t),)), 0.0, t)
        end_anchored = phi @ pair.wc @ phi.T
        assert end_anchored[0, 0] == pytest.approx((1 - math.exp(-2 * t)) / 2, rel=1e-12)

    def test_zero_input_matrix(self):
        sysm = make_system([np.array([[-1.0, 0.3], [0.0, -2.0]])],
                           B=[np.zeros((2, 1))], C=[np.ones((1, 2))])
        pair = gramians(sysm, Signal(((0, 2.0),)), 0.0, 2.0)
        np.testing.assert_allclose(pair.wc, 0.0, atol=1e-15)

    def test_against_simpson_oracle(self):
        rng = np.random.default_rng(5)
        sysm = random_switched(rng)
        sig = Signal(((0, 0.9), (1, 1.1)))
        pair = gramians(sysm, sig, 0.0, sig.horizon)
        wc_ref, wo_ref = simpson_gramians(sysm, sig, 0.0, sig.horizon, n_panels=600)
        assert np.linalg.norm(pair.wc - wc_ref) / np.linalg.norm(wc_ref) < 1e-7
        assert np.linalg.norm(pair.wo - wo_ref) / np.linalg.norm(wo_ref) < 1e-7

    def test_windowed_interval(self):
        rng = np.random.default_rng(6)
        sysm = random_switched(rng)
        sig = Signal(((0, 1.0), (1, 1.0)))
        pair = gramians(sysm, sig, 0.4, 1.6)
        wc_ref, wo_ref = simpson_gramians(sysm, sig, 0.4, 1.6, n_panels=600)
        assert np.linalg.norm(pair.wc - wc_ref) / np.linalg.norm(wc_ref) < 1e-7
        assert np.linalg.norm(pair.wo - wo_ref) / np.linalg.norm(wo_ref) < 1e-7

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            sysm = random_switched(np.random.default_rng(seed))
            sig = Signal(((0, 0.5), (1, 0.7), (0, 0.3)))
            pair = gramians(sysm, sig, 0.0, sig.horizon)
            for W in (pair.wc, pair.wo):
                assert np.linalg.norm(W - W.T) <= 1e-10 * max(np.linalg.norm(W), 1.0)
                assert np.linalg.eigvalsh(W)[0] >= -1e-10 * max(np.linalg.norm(W), 1.0)

    def test_wc_monotone_in_t1(self):
        rng = np.random.default_rng(8)
        sysm = random_switched(rng)
        sig = Signal(((0, 1.0), (1, 1.0)))
        w1 = gramians(sysm, sig, 0.0, 1.2).wc
        w2 = gramians(sysm, sig, 0.0, 1.9).wc
        assert np.linalg.eigvalsh(w2 - w1)[0] >= -1e-10 * np.linalg.norm(w2)

    def test_duality_constant_signal(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3))
        C = rng.standard_normal((2, 3))
        t = 1.1
        sys1 = make_system([A], m=1, p=2, B=[np.zeros((3, 1))], C=[C])
        sys2 = make_system([A.T], m=2, p=1, B=[C.T], C=[np.zeros((1, 3))])
        wo = gramians(sys1, Signal(((0, t),)), 0.0, t).wo
        wc = gramians(sys2, Signal(((0, t),)), 0.0, t).wc
        # left-anchored wc relates to wo through the flow congruence
        from scipy.linalg import expm
        phi = expm(A.T * t)
        np.testing.assert_allclose(phi @ wc @ phi.T, wo, rtol=1e-9, atol=1e-11)


class TestSimulate:
    def test_zero_everything(self):
        sysm = make_system([np.array([[-1.0]])])
        sig = Signal(((0, 1.0),))
        traj = simulate(sysm, sig, np.zeros((100, 1)), np.zeros(1), 0.01)
        np.testing.assert_array_equal(traj.states, 0.0)
        np.testing.assert_array_equal(traj.outputs, 0.0)

    def test_homogeneous_consistency(self):
        rng = np.random.default_rng(11)
        sysm = random_switched(rng)
        sig = Signal(((0, 0.5), (1, 0.5)))
        x0 = rng.standard_normal(3)
        traj = simulate(sysm, sig, np.zeros((100, 1)), x0, 0.01)
        for k in (10, 50, 100):
            ref = transition(sysm, sig, 0.0, traj.times[k]) @ x0
            assert np.linalg.norm(traj.states[k] - ref) < 1e-10 * max(np.linalg.norm(ref), 1.0)

    def test_scalar_step_response(self):
        sysm = make_system([np.array([[-1.0]])])
        T, dt = 2.0, 1e-3
        steps = int(T / dt)
        sig = Signal(((0, T),))
        traj = simulate(sysm, sig, np.ones((steps, 1)), np.zeros(1), dt)
        ref = 1.0 - np.exp(-traj.times)
        assert np.max(np.abs(traj.states[:, 0] - ref)) < 1e-6

    def test_grid_mismatch_rejected(self):
        sysm = make_system([np.array([[-1.0]])])
        sig = Signal(((0, 1.0),))
        with pytest.raises(ValueError, match="horizon"):
            simulate(sysm, sig, np.zeros((55, 1)), np.zeros(1), 0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_bad_grid_step_rejected(self, dt):
        # a NaN step passed both checks and returned NaN times
        sysm = make_system([np.array([[-1.0]])])
        with pytest.raises(ValueError, match="grid step"):
            simulate(sysm, Signal(((0, 0.05),)), np.zeros((5, 1)), np.zeros(1), dt)

    def test_csv_export(self):
        sysm = make_system([np.array([[-1.0]])])
        sig = Signal(((0, 0.1),))
        traj = simulate(sysm, sig, np.ones((10, 1)), np.zeros(1), 0.01)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,y1"
        assert len(lines) == 12


def alternating_nodes_signal(segments, seed=0):
    rng = np.random.default_rng(seed)
    durations = rng.uniform(0.1, 0.15, size=segments)
    return Signal(tuple((k % 2, float(d)) for k, d in enumerate(durations)))


# name -> () -> (system, signal): the signals of the tests above, and a long one
CURSOR_CASES = {
    "two_segments": lambda: (random_switched(np.random.default_rng(1)),
                             Signal(((0, 0.8), (1, 1.4)))),
    "three_segments": lambda: (random_switched(np.random.default_rng(2)),
                               Signal(((0, 1.0), (1, 0.5), (0, 1.5)))),
    "glued": lambda: (random_switched(np.random.default_rng(3)),
                      concat_signals(Signal(((0, 0.7), (1, 0.6))), Signal(((1, 0.4), (0, 0.9))))),
    "single_segment": lambda: (make_system([np.array([[-1.0]])]), Signal(((0, 2.0),))),
    "nodes_200": lambda: (rotated_nodes_pair(-1.0, -4.0, 1.5), alternating_nodes_signal(200)),
}


# states from one banded solve against the step-by-step recursion: the solve
# sums each step's terms in another order, so they agree to rounding, not bits
STATE_RTOL = 1e-13


def assert_trajectory_close(new, ref):
    """Equal times; states and outputs within STATE_RTOL of the largest reference entry."""
    np.testing.assert_array_equal(new.times, ref.times)
    for field in ("states", "outputs"):
        got, want = getattr(new, field), getattr(ref, field)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= STATE_RTOL * np.abs(want).max(initial=0.0)


class TestCursorParity:
    """flows._spans returns the bits of per-interval span clipping.

    Step operators, transitions and Gramians match bit for bit; simulated
    states and outputs within STATE_RTOL.
    """

    @pytest.mark.parametrize("name", CURSOR_CASES)
    def test_simulate(self, name):
        sysm, sig = CURSOR_CASES[name]()
        rng = np.random.default_rng(4)
        steps = 8 * len(sig.segments) + 3
        dt = sig.horizon / steps
        u, x0 = rng.standard_normal((steps, sysm.m)), rng.standard_normal(sysm.n)
        assert_trajectory_close(simulate(sysm, sig, u, x0, dt),
                                reference_simulate(sysm, sig, u, x0, dt))

    @pytest.mark.parametrize("name", CURSOR_CASES)
    def test_transition_and_gramians(self, name):
        sysm, sig = CURSOR_CASES[name]()
        H = sig.horizon
        for s, t in ((0.0, H), (0.3, 0.7 * H), (0.5 * H, 0.5 * H)):
            np.testing.assert_array_equal(transition(sysm, sig, s, t),
                                          reference_transition(sysm, sig, s, t))
            new, ref = gramians(sysm, sig, s, t), reference_gramians(sysm, sig, s, t)
            np.testing.assert_array_equal(new.wc, ref.wc)
            np.testing.assert_array_equal(new.wo, ref.wo)

    @pytest.mark.parametrize("name", CURSOR_CASES)
    def test_step_operators(self, name):
        sysm, sig = CURSOR_CASES[name]()
        H = sig.horizon
        for T, steps in ((H, 8 * len(sig.segments) + 3), (0.6 * H, 50)):
            dt = T / steps
            new, ref = l2gain._step_operators(sysm, sig, T, dt), reference_step_operators(sysm, sig, T, dt)
            assert new[3] == ref[3] == steps
            for a, b in zip(new[:3], ref[:3]):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_queries_out_of_order(self):
        # intervals in no time order, one call for all: each one's spans are its own
        sig = alternating_nodes_signal(20)
        H = sig.horizon
        intervals = ((0.7 * H, 0.9 * H), (0.1, 0.4), (0.0, H), (0.5, 0.5))
        index, lo, hi, modes = _spans(sig, *zip(*intervals))
        got = list(zip(index.tolist(), lo.tolist(), hi.tolist(), modes.tolist()))
        assert got == [(k, *span) for k, (s, t) in enumerate(intervals)
                       for span in clip_spans(sig, s, t)]


def signal_ending_at(modes, targets):
    """A signal whose segment ends, summed as Signal.segment_ends sums them, are near targets.

    Each duration is nudged by ulps until the running sum lands on its
    target, an increasing float, or on the float below it when no sum does.
    """
    segments, end = [], 0.0
    for mode, target in zip(modes, targets):
        d = target - end
        while end + d < target:
            d = np.nextafter(d, math.inf)
        while end + d > target:
            d = np.nextafter(d, -math.inf)
        segments.append((mode, float(d)))
        end += d
    return Signal(tuple(segments))


def grid_aligned_signal(dt, offset, n_modes=3):
    """A signal whose segment ends lie at offset from grid points k dt."""
    grid_ends = np.cumsum([3, 5, 1, 7, 4, 2, 6])
    targets = tuple(k * dt + offset for k in grid_ends)
    sig = signal_ending_at([j % n_modes for j in range(len(grid_ends))], targets)
    assert sig.segment_ends == targets
    return sig, int(grid_ends[-1])


def assert_grid_parity(sysm, sig, u, x0, dt):
    assert_trajectory_close(simulate(sysm, sig, u, x0, dt),
                            reference_simulate(sysm, sig, u, x0, dt))
    for T in (sig.horizon, 10 * dt):
        new, ref = l2gain._step_operators(sysm, sig, T, dt), reference_step_operators(sysm, sig, T, dt)
        assert new[3] == ref[3]
        for a, b in zip(new[:3], ref[:3]):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


GRID_OFFSETS = [0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-11, -1e-11]


class TestGridAlignedParity:
    """Segment ends on grid points, or just beside them, keep the bits of per-step clipping.

    The step operators match bit for bit, the simulated states and outputs
    within STATE_RTOL.  Within 1e-14 of a grid point, an end leaves its
    neighbouring step a span the 1e-14 rule drops.
    """

    @pytest.mark.parametrize("offset", GRID_OFFSETS)
    @pytest.mark.parametrize("m, p", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_parity(self, m, p, offset):
        rng = np.random.default_rng(12)
        mats = [rng.standard_normal((3, 3)) - np.eye(3) for _ in range(3)]
        sysm = make_system(mats, m=m, p=p, B=[rng.standard_normal((3, m)) for _ in range(3)],
                           C=[rng.standard_normal((p, 3)) for _ in range(3)])
        dt = 0.037
        sig, steps = grid_aligned_signal(dt, offset)
        assert_grid_parity(sysm, sig, rng.standard_normal((steps, m)), rng.standard_normal(3), dt)

    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_strided_layouts(self, offset):
        # Fortran-ordered output maps and a strided input, as a caller may pass them
        rng = np.random.default_rng(13)
        mats = [rng.standard_normal((3, 3)) - np.eye(3) for _ in range(3)]
        sysm = make_system(mats, m=2, p=2, B=[rng.standard_normal((3, 2)) for _ in range(3)],
                           C=[np.asfortranarray(rng.standard_normal((2, 3))) for _ in range(3)])
        assert not sysm.C(0).flags.c_contiguous
        dt = 0.037
        sig, steps = grid_aligned_signal(dt, offset)
        u = rng.standard_normal((2, 2 * steps))[:, ::2].T
        assert_grid_parity(sysm, sig, u, rng.standard_normal(3), dt)


class TestGridStress:
    """The banded solve against the step recursion on long and fast-growing grids."""

    def test_2000_segments(self):
        # 16,000 steps; the operators are those TestCursorParity pins to the bit
        sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
        sig = alternating_nodes_signal(2000, seed=1)
        steps = 8 * len(sig.segments)
        dt = sig.horizon / steps
        rng = np.random.default_rng(14)
        u, x0 = rng.standard_normal((steps, 1)), rng.standard_normal(2)
        phis, gams, _ = flows._zoh_grid(sysm, sig, steps, dt)
        want = np.empty((steps + 1, 2))
        want[0] = x0
        for k in range(steps):
            want[k + 1] = phis[k] @ want[k] + gams[k] @ u[k]
        got = simulate(sysm, sig, u, x0, dt).states
        assert np.abs(got - want).max() <= STATE_RTOL * np.abs(want).max()

    def test_growth_beyond_1e8(self):
        # both modes unstable: the state grows by 8e9 (e^22.8) over 20 segments
        sysm = make_system([np.array([[1.0, 0.5], [0.0, 0.8]]),
                            np.array([[0.9, 0.0], [0.3, 1.1]])],
                           B=[np.array([[1.0], [0.5]]), np.array([[0.0], [1.0]])],
                           C=[np.array([[1.0, -1.0]]), np.array([[0.5, 1.0]])])
        rng = np.random.default_rng(15)
        sig = Signal(tuple((k % 2, float(d)) for k, d in enumerate(rng.uniform(0.9, 1.1, 20))))
        steps = 8 * len(sig.segments) + 3
        dt = sig.horizon / steps
        u, x0 = rng.standard_normal((steps, 1)), rng.standard_normal(2)
        ref = reference_simulate(sysm, sig, u, x0, dt)
        assert np.abs(ref.states).max() >= 1e8 * np.abs(x0).max()
        assert_grid_parity(sysm, sig, u, x0, dt)


@st.composite
def grid_cases(draw):
    """(system, signal, T, dt) of the four grid shapes TestStepOperatorProperty covers."""
    kind = draw(st.sampled_from(["dense", "tiny", "near_grid", "single"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "dense":
        # segments far shorter than a step: each step spans hundreds of them
        count = draw(st.integers(200, 600))
        sig = Signal(tuple((int(i), float(d)) for i, d in zip(
            rng.integers(0, 3, count), rng.uniform(1e-4, 1e-3, count))))
    elif kind == "tiny":
        # segments of 1e-15 to 1e-13 among ordinary ones, the last one included
        count = draw(st.integers(2, 30))
        tiny = np.append(rng.random(count - 1) < 0.5, True)
        durations = np.where(tiny, 10.0 ** rng.uniform(-15, -13, count), rng.uniform(0.01, 0.3, count))
        sig = Signal(tuple((int(i), float(d)) for i, d in zip(rng.integers(0, 3, count), durations)))
    elif kind == "near_grid":
        # every end within 1e-14 or 1e-13 of a grid point k dt, or on it (to an ulp)
        dt = draw(st.sampled_from([0.037, 0.1, 0.3]))
        grid_ends = np.cumsum(rng.integers(1, 5, draw(st.integers(1, 12))))
        offsets = rng.choice([0.0, 1e-14, -1e-14, 1e-13, -1e-13], len(grid_ends))
        sig = signal_ending_at(rng.integers(0, 3, len(grid_ends)).tolist(),
                               [float(k * dt + o) for k, o in zip(grid_ends, offsets)])
        T = sig.horizon if draw(st.booleans()) else draw(st.integers(1, int(grid_ends[-1]))) * dt
        return random_switched(rng, n=draw(st.integers(1, 3)), k=3), sig, T, dt
    else:
        sig = Signal(((0, draw(st.floats(0.01, 5.0))),))
    steps = draw(st.integers(1, 3) if kind == "dense" else st.integers(1, 40))
    T = sig.horizon if draw(st.booleans()) else sig.horizon * draw(st.floats(0.3, 0.95))
    # a numpy grid step keys its spans by Python's round all the same
    dt = draw(st.sampled_from([float, np.float64]))(T / steps)
    return random_switched(rng, n=draw(st.integers(1, 3)), k=3), sig, T, dt


class TestStepOperatorProperty:
    """The grid's step operators and output maps equal per-step clipping's, bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(grid_cases())
    def test_matches_per_step_clipping(self, case):
        sysm, sig, T, dt = case
        new, ref = l2gain._step_operators(sysm, sig, T, dt), reference_step_operators(sysm, sig, T, dt)
        assert new[3] == ref[3]
        for a, b in zip(new[:3], ref[:3]):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@st.composite
def interval_cases(draw):
    """(system, signal, s, t): a grid case's signal with s and t on its segment
    ends, within 1e-14 or 1e-13 of one, equal, just outside [0, H], or s just
    past t, each by up to the 1e-9 max(1, H) the interval check allows."""
    sysm, sig, _, _ = draw(grid_cases())
    ends = st.sampled_from((0.0,) + sig.segment_ends)
    offsets = st.sampled_from([0.0, 1e-14, -1e-14, 1e-13, -1e-13])
    s, t = sorted(draw(ends) + draw(offsets) for _ in range(2))
    slack = draw(st.sampled_from([0.25, 1.0])) * 1e-9 * max(1.0, sig.horizon)
    edge = draw(st.sampled_from(["none", "equal", "reversed", "below_zero", "past_horizon", "both"]))
    if edge == "equal":
        t = s
    if edge == "reversed":
        s = t + slack
    if edge in ("below_zero", "both"):
        s = -slack
    if edge in ("past_horizon", "both"):
        t = sig.horizon + slack
    return sysm, sig, s, t


class TestIntervalProperty:
    """transition, gramians and the Riccati segments read the spans of per-interval
    clipping, bit for bit, at interval ends on or next to segment ends."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(interval_cases())
    def test_matches_per_interval_clipping(self, case):
        sysm, sig, s, t = case
        np.testing.assert_array_equal(transition(sysm, sig, s, t), reference_transition(sysm, sig, s, t))
        new, ref = gramians(sysm, sig, s, t), reference_gramians(sysm, sig, s, t)
        np.testing.assert_array_equal(new.wc, ref.wc)
        np.testing.assert_array_equal(new.wo, ref.wo)
        assert list(l2gain._reversed_segments(sig, t)) == [
            (hi - lo, i) for lo, hi, i in reversed(clip_spans(sig, 0.0, t))]


class TestGridCost:
    """Counted cost of one grid on 200 alternating nodes segments, 8 steps per segment.

    Per-step clipping clipped the 1,600 steps one at a time, and built one
    exponential per call; _zoh_grid clips every step in one _spans call,
    builds every distinct (mode, rounded span) key in one _expm_stack call,
    with no scipy expm, and simulate runs the recursion as one banded solve.
    """

    @pytest.mark.parametrize("run, solves", [
        (lambda sysm, sig, dt: simulate(sysm, sig, np.ones((int(round(sig.horizon / dt)), 1)),
                                        np.ones(2), dt), 1),
        (lambda sysm, sig, dt: l2gain._step_operators(sysm, sig, sig.horizon, dt), 0),
    ], ids=["simulate", "step_operators"])
    def test_counts(self, run, solves, monkeypatch):
        segments = 200
        sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
        sig = alternating_nodes_signal(segments)
        dt = sig.horizon / (8 * segments)
        keys = {(i, round(hi - lo, 15))
                for k in range(8 * segments) for lo, hi, i in clip_spans(sig, k * dt, k * dt + dt)}
        span_calls, stacks, scipy_exps, bands = [], [], [], []
        spans, stack, band_solve = flows._spans, flows._expm_stack, flows.dtbtrs

        def counting_spans(sig, starts, stops):
            span_calls.append(len(starts))
            return spans(sig, starts, stops)

        def counting_stack(M):
            stacks.append(len(M))
            return stack(M)

        def counting_solve(*args, **kwargs):
            bands.append(args)
            return band_solve(*args, **kwargs)

        monkeypatch.setattr(flows, "_spans", counting_spans)
        monkeypatch.setattr(flows, "_expm_stack", counting_stack)
        monkeypatch.setattr(flows, "expm", lambda M: scipy_exps.append(M))
        monkeypatch.setattr(flows, "dtbtrs", counting_solve)
        run(sysm, sig, dt)
        assert span_calls == [8 * segments]
        assert len(stacks) == 1 and stacks[0] <= len(keys)
        assert scipy_exps == []
        assert len(bands) == solves


class _CountingSegments(tuple):
    """A segment tuple that counts the segments read from it."""

    def __getitem__(self, k):
        item = super().__getitem__(k)
        self.reads += len(item) if isinstance(k, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def segment_reads(run, segments):
    """Segments that run(system, signal, grid step) reads from the signal."""
    sysm = rotated_nodes_pair(-1.0, -4.0, 1.5)
    sig = alternating_nodes_signal(segments)
    counted = _CountingSegments(sig.segments)
    counted.reads = 0
    object.__setattr__(sig, "segments", counted)
    run(sysm, sig, sig.horizon / (8 * segments))
    return counted.reads


class TestSegmentVisits:
    """A sweep over the grid reads each segment a bounded number of times."""

    @pytest.mark.parametrize("run", [
        lambda sysm, sig, dt: simulate(sysm, sig, np.ones((int(round(sig.horizon / dt)), 1)),
                                       np.ones(2), dt),
        lambda sysm, sig, dt: l2gain._step_operators(sysm, sig, sig.horizon, dt),
    ], ids=["simulate", "step_operators"])
    def test_linear_in_segments(self, run):
        # per-step clipping read every segment at every step: 4x here
        assert segment_reads(run, 400) <= 2 * segment_reads(run, 200)


def library_hamiltonians(sysm):
    """A stack of Hamiltonians H t of the Riccati test at several gammas and times."""
    kern = l2gain._RiccatiKernel(sysm, 5.0)
    # t = 3 at gamma = 0.05 gives the nodes pair a 1-norm of ~2400: ten squarings
    return np.stack([(kern.H0[i] + gamma ** -2.0 * kern.Hq[i]) * t
                     for i in range(len(kern.H0))
                     for gamma, t in ((0.05, 3.0), (0.2, 0.05), (0.5, 1.0), (1.0, 3.0), (10.0, 0.3))])


HAMILTONIAN_SYSTEMS = {
    "nodes": lambda: rotated_nodes_pair(-1.0, -4.0, 1.5),
    "example": lambda: example_system(alpha_star(1e-5)),
}


def exact_expm(M):
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestExpmStack:
    """The batched Pade-13 exponential against 40-digit mpmath and scipy.

    Worst errors seen on 270 Hamiltonians of four systems (gamma 0.05-10,
    t 1e-3-3): 1.04e-13 against mpmath (1-norm ~4800, ten squarings), while
    scipy.linalg.expm was 3.70e-13 off on another (cond 1.6e11), so the two
    differ by up to 3.72e-13.
    """

    @pytest.mark.parametrize("name", HAMILTONIAN_SYSTEMS)
    def test_library_hamiltonians(self, name):
        mats = library_hamiltonians(HAMILTONIAN_SYSTEMS[name]())
        got = _expm_stack(mats)
        for M, E in zip(mats, got):
            exact = exact_expm(M)
            assert rel_err(E, exact) <= 2e-13
            # never farther from scipy than scipy is from the exact value, plus that margin
            assert rel_err(E, expm(M)) <= rel_err(expm(M), exact) + 2e-13
        # a slice comes out alone (K = 1) as it does in the stack
        np.testing.assert_array_equal(_expm_stack(mats[3:4])[0], got[3])

    def test_scaling_branch(self):
        M = library_hamiltonians(HAMILTONIAN_SYSTEMS["nodes"]())[:1]
        assert np.abs(M[0]).sum(axis=0).max() > 2000.0
        assert rel_err(_expm_stack(M)[0], exact_expm(M[0])) <= 2e-13

    def test_zero_and_identity_scalings(self):
        np.testing.assert_array_equal(_expm_stack(np.zeros((2, 3, 3))), np.stack([np.eye(3)] * 2))
        got = _expm_stack(np.array([[[1.0]], [[-2.0]], [[40.0]]]))
        np.testing.assert_allclose(got[:, 0, 0], np.exp([1.0, -2.0, 40.0]), rtol=2e-13)

    def test_empty_matrices(self):
        assert _expm_stack(np.zeros((3, 0, 0))).shape == (3, 0, 0)

    def test_nonfinite_slices(self):
        good = library_hamiltonians(HAMILTONIAN_SYSTEMS["nodes"]())[:2]
        bad = np.stack([np.full((4, 4), np.nan), np.full((4, 4), np.inf),
                        np.full((4, 4), 1e308),          # its 1-norm overflows
                        1000.0 * np.eye(4)])             # e^1000 overflows while squaring
        stack = np.concatenate([good[:1], bad, good[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expm_stack(stack)
        assert not np.isfinite(got[1:5]).all(axis=(1, 2)).any()
        np.testing.assert_array_equal(got[[0, 5]], _expm_stack(good))
