"""Every public numeric argument that must be positive and finite rejects 0
(where 0 is invalid), a negative value, NaN and inf with a ValueError that
names it, before any work is done; so does every count that is not an
integer at or above its least value, and every duration grid that is empty
or holds a non-positive or non-finite entry.  Interval ends outside a
signal's horizon, NaN included, are rejected by flows._check_interval, which
also names the two ends of a reversed interval; a horizon T beyond the
signal's and an initial state of the wrong size are rejected with the names
of the arguments."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from switchgain import (
    Signal,
    SignalClassSpec,
    check_similarity,
    check_uniform_observability,
    extremal_norm,
    gain_for_signal,
    gain_power_lower,
    gain_search,
    gramians,
    minimal_realization,
    quasi_extremal_trajectory,
    rho_lower,
    rho_upper,
    simulate,
    tau_min,
    transition,
)
from switchgain.gallery import alpha_star, example_planar_pair, example_system, rotated_nodes_pair
from switchgain.spectral import certification_grid

ARB = SignalClassSpec.arbitrary()
DWELL = SignalClassSpec.dwell(0.5)
NODES = rotated_nodes_pair()
SIG = Signal(((0, 0.5), (1, 0.5)))

BAD = [0.0, -1.0, math.nan, math.inf]

# (argument name as the message gives it, call with the bad value); the
# comments give what the unchecked calls did with it
ENTRY_POINTS = {
    "gain_for_signal.tol": ("tol", lambda v: gain_for_signal(NODES, SIG, 1.0, v)),
    "gain_power_lower.T": ("T", lambda v: gain_power_lower(NODES, SIG, v, 0.1)),
    "gain_power_lower.grid_step": ("grid_step", lambda v: gain_power_lower(NODES, SIG, 1.0, v)),
    "gain_search.T": ("T", lambda v: gain_search(NODES, ARB, v, max_switches=1, eval_budget=6)),
    "gain_search.tol": ("tol", lambda v: gain_search(NODES, ARB, 1.0, max_switches=1,
                                                     eval_budget=6, tol=v)),
    # 0 and -3 were clamped to an empty search, reported as a budget too small
    "gain_search.eval_budget": ("eval_budget",
                                lambda v: gain_search(NODES, ARB, 1.0, eval_budget=v)),
    "tau_min.tol": ("tol", lambda v: tau_min(NODES, (0.6, 2.0), v)),
    "certification_grid.delta": ("delta", lambda v: certification_grid(0.5, v)),
    "certification_grid.cap": ("cap", lambda v: certification_grid(0.5, cap=v)),
    "certification_grid.budget": ("budget", lambda v: certification_grid(0.5, budget=v)),
    # inf returned a certified estimate with an infinite upper bound
    "rho_upper.eps": ("eps", lambda v: rho_upper(NODES, DWELL, eps=v)),
    "rho_upper.delta": ("delta", lambda v: rho_upper(NODES, DWELL, delta=v)),
    # inf returned a stabilized norm, NaN raised LinAlgError
    "extremal_norm.mu_hat": ("mu_hat", lambda v: extremal_norm(NODES, DWELL, v)),
    # inf never returned
    "quasi_extremal_trajectory.horizon": (
        "horizon", lambda v: quasi_extremal_trajectory(NODES, DWELL, [1.0, 0.0], v)),
    # inf reported a grid mismatch
    "simulate.dt": ("grid step dt", lambda v: simulate(NODES, Signal(((0, 0.05),)),
                                                       np.zeros((5, 1)), np.zeros(2), v)),
    # NaN failed on "signal needs at least one segment"
    "check_uniform_observability.window": (
        "window", lambda v: check_uniform_observability(NODES, ARB, v, samples=2)),
    # 0 and -3 silently ran one sample
    "check_uniform_observability.samples": (
        "samples", lambda v: check_uniform_observability(NODES, ARB, 1.0, samples=v)),
    # NaN returned a matrix for two realizations that tol 1e-6 tells apart
    "check_similarity.tol": ("tol", lambda v: check_similarity(
        minimal_realization(rotated_nodes_pair()),
        minimal_realization(rotated_nodes_pair(-0.5, -3.0, 2.0)), tol=v)),
    # NaN failed inside SystemSpec
    "example_system.alpha": ("alpha", example_system),
    "example_planar_pair.alpha": ("alpha", example_planar_pair),
    # NaN returned 4.5047, ignoring the tolerance
    "alpha_star.tol": ("tol", alpha_star),
}


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the calling thread after seconds (POSIX timers)."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("value", BAD, ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rejected_with_its_name(entry, value):
    name, call = ENTRY_POINTS[entry]
    with deadline(5.0), pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{name} must be positive and finite, got ")


@pytest.mark.parametrize("call", [
    lambda: transition(NODES, SIG, math.nan, 1.0),   # returned Phi(1, 0)
    lambda: transition(NODES, SIG, 0.0, math.nan),   # returned the identity
    lambda: gramians(NODES, SIG, 0.0, math.nan),     # returned zero Gramians
    lambda: gramians(NODES, SIG, math.nan, 1.0),     # returned those on [0, 1]
], ids=["transition_s", "transition_t", "gramians_t1", "gramians_t0"])
def test_nan_interval_end_rejected(call):
    with pytest.raises(ValueError, match="outside signal horizon"):
        call()


@pytest.mark.parametrize("s, t", [(-3e-9, 1.0), (0.0, 2.0 + 3e-9)], ids=["below_zero", "past_horizon"])
@pytest.mark.parametrize("call", [transition, gramians])
def test_interval_end_past_tolerance_rejected(call, s, t):
    # an end within 1e-9 max(1, H) = 2e-9 of [0, H] counts as on it, one 1.5 times as far not
    with pytest.raises(ValueError, match="outside signal horizon"):
        call(NODES, SIG2, s, t)


SIG2 = Signal(((0, 1.0), (1, 1.0)))

# name -> (call with a bad argument, start of the error); the comments give
# what the calls said before they named the argument
NAMED = {
    # "interval [1.5, 0.5] outside signal horizon [0, 2.0]", though it lies inside
    "transition_reversed": (lambda: transition(NODES, SIG2, 1.5, 0.5), "s=1.5 exceeds t=0.5"),
    "gramians_reversed": (lambda: gramians(NODES, SIG2, 1.5, 0.5), "t0=1.5 exceeds t1=0.5"),
    # "interval [2.0, 2.1] outside signal horizon [0, 2.0]", an internal grid step
    "gain_power_lower_T": (lambda: gain_power_lower(NODES, SIG2, 3.0, 0.1),
                           "horizon T=3.0 outside the signal horizon 2.0"),
    # numpy's "cannot reshape array of size 3 into shape (2,)"
    "simulate_x0": (lambda: simulate(NODES, SIG2, np.zeros((20, 1)), np.zeros(3), 0.1),
                    "x0 must have n = 2 entries, got 3"),
}


@pytest.mark.parametrize("entry", sorted(NAMED))
def test_argument_named(entry):
    call, start = NAMED[entry]
    with deadline(5.0), pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(start)



# (argument name, call with the bad value, bad values); the comments give
# what the unchecked calls did
COUNTS = {
    # 0 and -2 searched single modes only: lower 0.368 where the default
    # search proves 2.729
    "rho_lower.max_letters": ("max_letters", lambda v: rho_lower(NODES, DWELL, max_letters=v),
                              [0, -2, 2.5]),
    # -1 searched constant signals only: 0.516 where the default gives 1.571
    "gain_search.max_switches": ("max_switches", lambda v: gain_search(
        NODES, ARB, 1.0, max_switches=v, eval_budget=6), [-1, 1.5]),
    # 2.5 failed inside itertools.islice
    "gain_search.eval_budget": ("eval_budget",
                                lambda v: gain_search(NODES, ARB, 1.0, eval_budget=v), [2.5]),
    # 2.5 failed inside range
    "check_uniform_observability.samples": (
        "samples", lambda v: check_uniform_observability(NODES, ARB, 1.0, samples=v), [2.5]),
}


@pytest.mark.parametrize("entry, value", [(entry, v) for entry in sorted(COUNTS)
                                          for v in COUNTS[entry][2]])
def test_count_rejected_with_its_name(entry, value):
    name, call, _ = COUNTS[entry]
    with deadline(5.0), pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{name} must be ")


# name -> call that passes a bad duration grid
GRIDS = {
    # () searched constant signals only: 0.516 where the default grid gives 1.571
    "gain_search.empty": lambda: gain_search(NODES, ARB, 1.0, duration_grid=()),
    # inf and a grid with no entry below T did the same, the others failed
    # on a signal segment
    **{f"gain_search.{kind}": (lambda grid=grid: gain_search(NODES, ARB, 1.0, duration_grid=grid))
       for kind, grid in (("nan", (math.nan, 0.25)), ("zero", (0.0, 0.25)),
                          ("negative", (-0.25, 0.25)), ("inf", (0.25, math.inf)),
                          ("none_below_T", (1.0, 2.0)))},
    # [] searched the default grid
    "rho_lower.empty": lambda: rho_lower(NODES, DWELL, duration_grid=[]),
    # NaN, 0 and negative entries were dropped without a word
    **{f"rho_lower.{kind}": (lambda grid=grid: rho_lower(NODES, DWELL, duration_grid=grid))
       for kind, grid in (("nan", [math.nan, 1.0]), ("zero", [0.0, 1.0]),
                          ("negative", [-1.0, 1.0]))},
    # [] and [nan] ran on the witness durations alone, [0] and [-1] never returned
    **{f"quasi_extremal_trajectory.{kind}": (lambda grid=grid: quasi_extremal_trajectory(
        NODES, DWELL, [1.0, 0.0], 2.0, duration_grid=grid))
       for kind, grid in (("empty", []), ("nan", [math.nan]), ("zero", [0.0]),
                          ("negative", [-1.0]))},
}


@pytest.mark.parametrize("entry", sorted(GRIDS))
def test_duration_grid_rejected_with_its_name(entry):
    with deadline(5.0), pytest.raises(ValueError) as exc:
        GRIDS[entry]()
    assert str(exc.value).startswith("duration_grid ")


def test_duration_grids_still_accepted():
    # without switches no entry need lie below T, and rho_lower keeps
    # dropping positive entries below the dwell floor
    assert gain_search(NODES, ARB, 1.0, max_switches=0, duration_grid=(2.0,)).value > 0
    filtered = rho_lower(NODES, DWELL, max_letters=2, duration_grid=[0.1, 1.0])
    assert filtered.lower == rho_lower(NODES, DWELL, max_letters=2, duration_grid=[1.0]).lower
