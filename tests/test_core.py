import itertools
import json
import math

import numpy as np
import pytest

from switchgain import (
    Mode,
    Signal,
    SignalClassSpec,
    SystemSpec,
    concat_signals,
    parse_signal,
    parse_system,
    serialize_signal,
    serialize_system,
    validate_membership,
)
from switchgain.gallery import example_system

from oracles import reference_mode_at


def scalar_system():
    return SystemSpec(1, 1, 1, (Mode(np.array([[-1.0]]), np.array([[1.0]]),
                                     np.array([[1.0]])),))


class TestSystemSpec:
    def test_smallest_valid_system(self):
        doc = {"n": 1, "m": 1, "p": 1,
               "modes": [{"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}],
               "label": "scalar"}
        sysm = parse_system(json.dumps(doc))
        assert sysm.n == sysm.m == sysm.p == 1
        assert sysm.n_modes == 1
        assert sysm.A(0)[0, 0] == -1.0

    def test_example_emission_round_trip(self):
        sysm = example_system(4.5047)
        again = parse_system(serialize_system(sysm))
        assert again.n == 3 and again.m == 1 and again.p == 1
        assert again.n_modes == 3
        for a, b in zip(sysm.modes, again.modes):
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.B, b.B)
            np.testing.assert_array_equal(a.C, b.C)

    def test_wrong_shape_rejected(self):
        doc = {"n": 2, "m": 1, "p": 1,
               "modes": [{"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[1.0]],
                          "C": [[1.0, 0.0]]}]}
        with pytest.raises(ValueError, match="B"):
            parse_system(json.dumps(doc))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SystemSpec(1, 1, 1, (Mode(np.array([[math.nan]]), np.array([[1.0]]),
                                      np.array([[1.0]])),))

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SystemSpec(1, 1, 1, ())

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_system("{not json")

    def test_matrices_read_only(self):
        sysm = scalar_system()
        with pytest.raises(ValueError):
            sysm.A(0)[0, 0] = 5.0


class TestSignal:
    def test_signal_round_trip(self):
        sig = Signal(((0, 0.5), (1, 2.0)))
        again = parse_signal(serialize_signal(sig))
        assert again.segments == sig.segments

    def test_positive_durations(self):
        with pytest.raises(ValueError):
            Signal(((0, 0.0),))

    @pytest.mark.parametrize("index", [math.nan, math.inf, -math.inf])
    def test_non_finite_mode_index_named(self, index):
        # int() raised numpy's or Python's own message, naming no segment
        with pytest.raises(ValueError, match="^segment 1: mode index must be a nonnegative integer$"):
            Signal(((0, 1.0), (index, 1.0)))

    @pytest.mark.parametrize("index", ["1.5", "Infinity", "-Infinity", "NaN"])
    def test_parse_rejects_bad_mode_index(self, index):
        # 1.5 was truncated to mode 1 and Infinity raised OverflowError
        with pytest.raises(ValueError, match="^segment 0: mode index must be a nonnegative integer$"):
            parse_signal('{"segments": [[%s, 1.0]]}' % index)

    def test_parse_keeps_integral_float_mode_index(self):
        sig = parse_signal('{"segments": [[1.0, 2]]}')
        assert sig.segments == ((1, 2.0),)
        assert type(sig.segments[0][0]) is int

    def test_merge_and_switch_times(self):
        sig = Signal(((0, 1.0), (0, 1.0), (1, 1.0)))
        assert sig.merged().segments == ((0, 2.0), (1, 1.0))
        assert sig.switch_times() == [2.0]

    def test_mode_at(self):
        sig = Signal(((0, 1.0), (1, 1.0)))
        assert sig.mode_at(0.0) == 0
        assert sig.mode_at(1.0) == 1
        assert sig.mode_at(2.0) == 1
        # running sums that round (0.1 + 0.2 != 0.3) and a segment too short
        # to move its end: the answer of the linear scan at, just below and
        # past every switch, at the horizon and past it
        sig = Signal(((0, 0.1), (1, 0.2), (2, 0.3), (0, 0.7), (1, 1e-17), (2, 0.4), (1, 0.3)))
        ends = list(itertools.accumulate(d for _, d in sig.segments))
        times = [-1.0, 0.0, 0.3, sig.horizon, sig.horizon + 1.0, math.inf]
        times += ends + [math.nextafter(e, -math.inf) for e in ends]
        times += [math.nextafter(e, math.inf) for e in ends]
        for t in times:
            assert sig.mode_at(t) == reference_mode_at(sig, t), t

    def test_horizon_is_the_last_segment_end(self):
        # the left-to-right sum of the durations, as flows._spans and the
        # simulation grid read it, to the bit
        rng = np.random.default_rng(3)
        for _ in range(200):
            durations = rng.uniform(1e-3, 5.0, size=int(rng.integers(1, 60)))
            sig = Signal(tuple((k % 2, float(d)) for k, d in enumerate(durations)))
            total = 0.0
            for d in durations:
                total += float(d)
            assert sig.horizon == total == sig.segment_ends[-1]


class TestDwellMembership:
    def test_single_segment_ok(self):
        rep = validate_membership(Signal(((0, 5.0),)), SignalClassSpec.dwell(1.0))
        assert rep.ok

    def test_short_first_segment_violates(self):
        rep = validate_membership(Signal(((0, 0.5), (1, 2.0))),
                                  SignalClassSpec.dwell(1.0))
        assert not rep.ok
        v = rep.violations[0]
        assert v.location == pytest.approx(0.5)
        assert v.measured == pytest.approx(0.5)
        assert v.required == pytest.approx(1.0)

    def test_equal_mode_junction_not_a_switch(self):
        # two 0.6s pieces of the same mode merge into one 1.2s dwell
        rep = validate_membership(Signal(((0, 0.6), (0, 0.6))),
                                  SignalClassSpec.dwell(1.0))
        assert rep.ok

    def test_class_nesting(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            segs = tuple((int(rng.integers(0, 3)), float(1.0 + rng.random()))
                         for _ in range(5))
            sig = Signal(segs)
            if validate_membership(sig, SignalClassSpec.dwell(1.0)).ok:
                for tau2 in (0.9, 0.5, 0.1):
                    assert validate_membership(sig, SignalClassSpec.dwell(tau2)).ok

    def test_concatenation_closure(self):
        tau = 1.0
        s1 = Signal(((0, 1.5), (1, 2.0)))
        s2 = Signal(((1, 1.0), (0, 3.0)))
        assert validate_membership(s1, SignalClassSpec.dwell(tau)).ok
        assert validate_membership(s2, SignalClassSpec.dwell(tau)).ok
        glued = concat_signals(s1, s2)
        assert validate_membership(glued, SignalClassSpec.dwell(tau)).ok
        # junction merging equal modes: boundary dwells add up
        s3 = Signal(((0, 1.0), (1, 1.0)))
        s4 = Signal(((1, 1.0), (0, 1.0)))
        glued = concat_signals(s3, s4)
        assert validate_membership(glued, SignalClassSpec.dwell(tau)).ok


def brute_force_avg_dwell_ok(sig, tau, n0):
    """Check the window bound on a dense set of (s, t) windows."""
    switches = sig.switch_times()
    horizon = sig.horizon
    grid = np.linspace(0.0, horizon, 401)
    anchors = sorted(set(list(grid) + switches + [s - 1e-9 for s in switches]))
    for s in anchors:
        if s < 0:
            continue
        for t in anchors:
            if t < s:
                continue
            count = sum(1 for w in switches if s <= w <= t)
            if count > n0 + (t - s) / tau + 1e-9:
                return False
    return True


class TestAvgDwell:
    def test_spec_window_example(self):
        sig = Signal(((0, 1.0), (1, 1.0), (0, 1.0), (1, 1.0)))
        cls = SignalClassSpec.avg_dwell(2.0, 2)
        assert validate_membership(sig, cls).ok
        assert brute_force_avg_dwell_ok(sig, 2.0, 2)

    def test_burst_violates(self):
        sig = Signal(((0, 0.1), (1, 0.1), (0, 0.1), (1, 0.1), (0, 5.0)))
        cls = SignalClassSpec.avg_dwell(2.0, 2)
        rep = validate_membership(sig, cls)
        assert not rep.ok
        assert not brute_force_avg_dwell_ok(sig, 2.0, 2)

    def test_agreement_with_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            segs = tuple((int(k % 2), float(0.2 + 2.0 * rng.random()))
                         for k in range(6))
            sig = Signal(segs)
            cls = SignalClassSpec.avg_dwell(1.5, 2)
            assert validate_membership(sig, cls).ok == brute_force_avg_dwell_ok(sig, 1.5, 2)


class TestClassSpecValidation:
    @pytest.mark.parametrize("bad", [
        lambda: SignalClassSpec.dwell(0.0),
        lambda: SignalClassSpec.dwell(-1.0),
        lambda: SignalClassSpec.avg_dwell(1.0, 0),
        # a fractional n0 was truncated to 2
        pytest.param(lambda: SignalClassSpec.avg_dwell(1.0, 2.5), id="avg_dwell_n0_fractional"),
    ])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()

    # unchecked, NaN passed every `<= 0` test: dwell(nan) accepted two
    # 1e-6-long segments as a member
    @pytest.mark.parametrize("bad", [
        lambda: SignalClassSpec.dwell(math.nan),
        lambda: SignalClassSpec.dwell(math.inf),
        lambda: SignalClassSpec.avg_dwell(math.nan, 1),
        lambda: SignalClassSpec.avg_dwell(math.inf, 2),
        # an infinite n0 raised OverflowError
        lambda: SignalClassSpec.avg_dwell(1.0, math.inf),
        lambda: SignalClassSpec("avg_dwell", tau=1.0, n0=math.inf),
    ], ids=["dwell_nan", "dwell_inf", "avg_dwell_nan", "avg_dwell_inf", "avg_dwell_n0_inf",
            "avg_dwell_n0_inf_direct"])
    def test_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bad()

    def test_from_tau(self):
        assert SignalClassSpec.from_tau(0) == SignalClassSpec.arbitrary()
        assert SignalClassSpec.from_tau(-0.0) == SignalClassSpec.arbitrary()
        assert SignalClassSpec.from_tau(0.5) == SignalClassSpec.dwell(0.5)

    @pytest.mark.parametrize("tau", [-0.5, math.nan, math.inf, -math.inf])
    def test_from_tau_rejects(self, tau):
        with pytest.raises(ValueError, match="^tau must be 0"):
            SignalClassSpec.from_tau(tau)

    def test_arbitrary_accepts_everything(self):
        sig = Signal(((0, 1e-4), (1, 1e-4)))
        assert validate_membership(sig, SignalClassSpec.arbitrary()).ok
