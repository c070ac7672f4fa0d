import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from switchgain import (
    Mode,
    Signal,
    SignalClassSpec,
    SystemSpec,
    concat_signals,
    extremal_norm,
    quasi_extremal_trajectory,
    rho_curve,
    rho_lower,
    rho_upper,
    transition,
    validate_membership,
)
from switchgain import spectral
from switchgain.gallery import (
    alpha_star,
    common_lyapunov_modes,
    example_planar_pair,
    example_system,
    planted_reducible_system,
    rotated_nodes_pair,
)
from switchgain.realization import minimal_realization

from oracles import commuting_pair_rate, reference_certifier


def autonomous(mats):
    n = mats[0].shape[0]
    z = np.zeros((n, 1))
    c = np.zeros((1, n))
    return SystemSpec(n, 1, 1, tuple(Mode(np.asarray(A, float), z, c) for A in mats))


ARB = SignalClassSpec.arbitrary()


def flow(sysm, sig):
    return transition(sysm, sig, 0.0, sig.horizon)


class TestSignalSemigroup:
    """Witnesses are signals: their flows compose and their dwells close under concatenation."""

    def test_concat_matches_transition(self):
        rng = np.random.default_rng(0)
        sysm = autonomous([rng.standard_normal((3, 3)) for _ in range(2)])
        s1 = Signal(((0, 0.4), (1, 0.3)))
        s2 = Signal(((1, 0.5), (0, 0.2)))
        s = concat_signals(s1, s2)
        assert s.segments == ((0, 0.4), (1, 0.8), (0, 0.2))
        # semigroup law: flows multiply in application order
        np.testing.assert_allclose(flow(sysm, s), flow(sysm, s2) @ flow(sysm, s1),
                                   rtol=1e-10, atol=1e-12)

    def test_semigroup_closure_dwell(self):
        s1 = Signal(((0, 1.0), (1, 1.5)))
        s2 = Signal(((1, 1.2), (0, 1.0)))
        s = concat_signals(s1, s2)
        assert validate_membership(s, SignalClassSpec.dwell(1.0)).ok
        assert s.horizon == pytest.approx(s1.horizon + s2.horizon)
        assert s.segments[1] == (1, 2.7)


def certifier_letter_error(A, mu_c=0.9):
    """Largest error of a one-mode certifier's letters against 50-digit mpmath,
    relative to each letter's largest entry."""
    cert = spectral._Certifier([A], 0.5, mu_c, 0.25, 5.0, spectral._BUDGET)
    cert._build_letters()
    assert len(cert.letters) == 19
    worst = 0.0
    with mpmath.workdps(50):
        for E, t in zip(cert.letters, cert.letter_times):
            t = mpmath.mpf(float(t))
            exact = mpmath.expm(mpmath.matrix(A.tolist()) * t) * mpmath.mpf(mu_c) ** -t
            exact = np.array(exact.tolist(), dtype=float)
            worst = max(worst, np.abs(E - exact).max() / np.abs(exact).max())
    return worst


class TestModeExponentials:
    """Every letter is e^{A t} mu^-t from _expm_stack, however ill-conditioned
    the mode's eigenvectors (an eigenvector formula lost up to 2e-9 here)."""

    def test_defective_mode_falls_back_to_expm(self):
        # a Jordan block has no eigenvector basis at all
        assert certifier_letter_error(np.array([[-1.0, 1.0], [0.0, -1.0]])) <= 1e-13

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_nearly_defective_letters_match_mpmath(self, eps):
        # cond(V) ~ 2 / eps
        assert certifier_letter_error(np.array([[-1.0, 1.0], [0.0, -1.0 - eps]])) <= 1e-13


class TestModeKappa:
    def test_jordan_block_takes_the_sampled_path(self):
        # no eigenvector basis (cond(V) ~ 1e16), so kappa is twice the largest
        # sample of |e^{Jt}| e^t = (t + sqrt(t^2 + 4)) / 2 on t in [0.1, 50]:
        # it grows like t and peaks at t = 50, the end of the range, so no
        # kappa bounds it for all t (the baseline a Lyapunov bound must replace)
        J = np.array([[-1.0, 1.0], [0.0, -1.0]])
        kappa, flags = spectral._mode_kappa(J, spectral._spectral_abscissa(J))
        assert flags == ("kappa_sampled",)
        assert kappa == pytest.approx(50.0 + math.sqrt(2504.0), rel=1e-12)


class TestClassTau:
    @pytest.mark.parametrize("n0, lower, upper", [(1, 0.7, 0.7), (3, 0.7, 0.0)])
    def test_avg_dwell(self, n0, lower, upper):
        # with N0 = 1 the class is the dwell class; otherwise the upper side
        # covers every piecewise-constant signal
        cls = SignalClassSpec.avg_dwell(0.7, n0)
        assert spectral.class_tau(cls) == lower
        assert spectral.class_tau(cls, for_upper=True) == upper


class TestRhoLower:
    def test_scalar_single_mode(self):
        sysm = autonomous([np.array([[-1.0]])])
        for cls in (ARB, SignalClassSpec.dwell(0.5)):
            est = rho_lower(sysm, cls)
            assert est.lower == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_dominant_eigenvalue(self):
        A = np.array([[0.5, 1.0], [0.0, -1.0]])
        est = rho_lower(autonomous([A]), ARB)
        assert est.lower == pytest.approx(math.exp(0.5), rel=1e-9)

    def test_planar_pair_marginal(self):
        astar = alpha_star(1e-6) - 1e-7
        est = rho_lower(autonomous([]) if False else example_planar_pair(astar), ARB)
        assert 0.99 <= est.lower <= 1.0

    def test_witness_invariant(self):
        sysm = example_planar_pair(4.0)
        est = rho_lower(sysm, ARB)
        sr = max(abs(np.linalg.eigvals(flow(sysm, est.witness))))
        assert est.lower == pytest.approx(sr ** (1.0 / est.witness.horizon), rel=1e-9)

    def test_witness_respects_dwell(self):
        sysm = rotated_nodes_pair()
        cls = SignalClassSpec.dwell(0.8)
        est = rho_lower(sysm, cls)
        assert validate_membership(est.witness, cls).ok

    def test_zero_dimensional_system(self):
        e = np.zeros((0, 0))
        sysm = SystemSpec(0, 1, 1, (Mode(e, np.zeros((0, 1)), np.zeros((1, 0))),) * 2)
        for cls in (ARB, SignalClassSpec.dwell(0.5)):
            assert rho_lower(sysm, cls).lower == 0.0

    def test_overflowing_abscissa_named(self):
        # e^800 overflows a double; math.exp raised OverflowError
        with pytest.raises(ValueError, match="rho lower bound"):
            rho_lower(autonomous([np.array([[800.0]])]), ARB)

    def test_sr_below_norm_sanity(self):
        sysm = example_planar_pair(4.0)
        est = rho_lower(sysm, ARB)
        phi = flow(sysm, est.witness)
        sr = max(abs(np.linalg.eigvals(phi)))
        assert sr <= np.linalg.norm(phi, 2) * (1 + 1e-12)


class TestGoldenRefinementExpm:
    """rho_lower's golden refinement builds one exponential per evaluation.

    Each of the 2 rounds refines every position of the best word (k letters)
    with 63 evaluations (2 + 60 iterations + the midpoint); the k - 1 fixed
    letters' exponentials are built once per position, and the rate of the
    refined witness takes k more at the end.  Bounds and witnesses are pinned to the outputs of the
    version that rebuilt all k exponentials per evaluation, with the word
    search's letters from _expm_stack.
    """

    CASES = {
        "nodes_tau0.5": (lambda: rotated_nodes_pair(), SignalClassSpec.dwell(0.5),
                         "0x1.5d4df8046c842p+1",
                         ((0, "0x1.0000000000000p-1"), (1, "0x1.0000000000000p-1"))),
        "nodes_arb": (lambda: rotated_nodes_pair(), ARB, "0x1.769557bd8525ep+2",
                      ((0, "0x1.fb5500dd3f418p-3"), (1, "0x1.facccd0769a99p-3"))),
        "example_4": (lambda: example_system(4.0), ARB, "0x1.85e434d32cb73p-1",
                      ((0, "0x1.07c80bfb5671cp-4"), (1, "0x1.da896510a3b06p-1"),
                       (0, "0x1.80da4fdbb9160p-2"), (2, "0x1.999999999999ap-5"))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_expm_calls_and_pinned_bounds(self, monkeypatch, name):
        make, cls, lower, letters = self.CASES[name]
        calls = []
        library_expm = spectral.expm

        def counted(M):
            calls.append(M)
            return library_expm(M)

        monkeypatch.setattr(spectral, "expm", counted)
        est = rho_lower(make(), cls)
        k = len(letters)
        assert len(calls) == 2 * k * (63 + k - 1) + k
        assert est.lower == float.fromhex(lower)
        assert est.witness.segments == tuple((i, float.fromhex(d)) for i, d in letters)


class TestRhoUpper:
    def test_single_hurwitz_mode(self):
        sysm = autonomous([np.array([[-1.0]])])
        est = rho_upper(sysm, SignalClassSpec.dwell(0.1), delta=1e-3)
        assert est.upper <= math.exp(-1.0) * 1.01
        assert est.lower <= est.upper
        assert "stabilized" in est.flags

    def test_commuting_pair(self):
        d1, d2 = (-1.0, -2.0), (-2.0, -1.0)
        sysm = autonomous([np.diag(d1), np.diag(d2)])
        oracle = math.exp(commuting_pair_rate(d1, d2))
        assert oracle == pytest.approx(math.exp(-1.0))
        est = rho_upper(sysm, SignalClassSpec.dwell(0.5), delta=0.005)
        assert est.upper <= oracle * 1.02
        assert est.upper >= oracle * (1 - 1e-9)

    def test_planar_pair_marginal_band(self):
        astar = alpha_star(1e-6) - 1e-7
        sysm = example_planar_pair(astar)
        est = rho_upper(sysm, ARB, delta=0.005, budget=300)
        assert 1.0 <= est.upper <= 1.05

    def test_cqlf_plant_exact_rate(self):
        beta = -0.3
        sysm = common_lyapunov_modes(beta, (1.0, 2.7))
        est = rho_upper(sysm, SignalClassSpec.dwell(0.5), eps=0.002, delta=0.002)
        assert est.lower == pytest.approx(math.exp(beta), rel=1e-9)
        assert est.upper <= math.exp(beta) * 1.01
        assert "stabilized" in est.flags

    def test_lower_leq_upper_always(self):
        sysm = rotated_nodes_pair()
        for tau in (0.5, 1.0, 2.0):
            est = rho_upper(sysm, SignalClassSpec.dwell(tau))
            assert est.lower <= est.upper

    def test_overflowing_inflation_named(self):
        # the nodes pair in the basis diag(1, 1e4): a_max * delta ~ 1e4, and
        # math.exp raised OverflowError
        T, Ti = np.diag([1.0, 1e4]), np.diag([1.0, 1e-4])
        sysm = SystemSpec(2, 1, 1, tuple(Mode(T @ m.A @ Ti, T @ m.B, m.C @ Ti)
                                         for m in rotated_nodes_pair().modes))
        with pytest.raises(ValueError, match="rho upper bound's grid inflation"):
            rho_upper(sysm, SignalClassSpec.dwell(1.4))

    @pytest.mark.parametrize("eps", [0.0, -0.01, math.nan])
    def test_nonpositive_eps_rejected(self, eps):
        # eps = 0 would repeat one attempt four times; eps < 0 would certify below the lower bound
        with pytest.raises(ValueError, match="eps"):
            rho_upper(rotated_nodes_pair(), ARB, eps=eps)


class TestRetryRule:
    """rho_upper returns the first attempt whose estimate is certified, or else the first attempt."""

    @staticmethod
    def stub_attempts(monkeypatch, flags_of):
        """Replace the certifier: attempt k is stabilized with flags_of(k); returns the rates tried."""
        rates = []

        def certify_at(sys, tau, mu_c, delta, cap, budget, witness):
            rates.append(mu_c)
            return SimpleNamespace(flags=set(flags_of(len(rates)))), True

        monkeypatch.setattr(spectral, "_certify_at", certify_at)
        return rates

    def test_long_dwell_heuristic_is_retried(self, monkeypatch):
        sysm, cls = rotated_nodes_pair(), SignalClassSpec.dwell(1.0)
        lower = rho_lower(sysm, cls)
        rates = self.stub_attempts(monkeypatch,
                                   lambda k: ("long_dwell_heuristic",) if k == 1 else ())
        est = rho_upper(sysm, cls, lower_estimate=lower)
        assert est.certified
        assert est.flags == ("eps=0.01", "stabilized")
        assert rates == [lower.lower * 1.005, lower.lower * 1.01]
        assert est.upper == rates[1] * est.inflation

    def test_first_attempt_when_none_certifies(self, monkeypatch):
        sysm, cls = rotated_nodes_pair(), SignalClassSpec.dwell(1.0)
        lower = rho_lower(sysm, cls)
        rates = self.stub_attempts(monkeypatch, lambda k: ("long_dwell_heuristic",))
        est = rho_upper(sysm, cls, lower_estimate=lower)
        assert not est.certified
        assert est.flags == ("eps=0.005", "long_dwell_heuristic", "stabilized")
        assert len(rates) == spectral._EPS_ATTEMPTS
        assert est.upper == rates[0] * est.inflation


# certifier grid options that rho_upper and extremal_norm refuse, each by its name
BAD_GRID_OPTIONS = [("delta", 0.0), ("delta", -0.01), ("delta", math.nan), ("delta", math.inf),
                    ("cap", 0.0), ("cap", -1.0), ("cap", math.nan), ("cap", math.inf),
                    ("budget", 0), ("budget", -1), ("budget", math.nan), ("budget", math.inf)]


class TestGridOptions:
    """A non-positive or non-finite delta, cap or budget raises ValueError naming it.

    Unchecked, delta = 0 divided by zero, delta < 0 failed later as invalid
    estimate bounds, a non-finite delta failed inside numpy, cap < 0
    returned a stabilized estimate, and a NaN or infinite budget never ran
    out.
    """

    @pytest.mark.parametrize("option, value", BAD_GRID_OPTIONS)
    def test_rho_upper(self, option, value):
        with pytest.raises(ValueError, match=f"^{option} must be positive and finite"):
            rho_upper(rotated_nodes_pair(), SignalClassSpec.dwell(1.0), **{option: value})

    @pytest.mark.parametrize("option, value", BAD_GRID_OPTIONS)
    def test_extremal_norm(self, option, value):
        with pytest.raises(ValueError, match=f"^{option} must be positive and finite"):
            extremal_norm(rotated_nodes_pair(), SignalClassSpec.dwell(1.0), 1.0, **{option: value})


class TestExtremalNorm:
    def test_scalar_equality(self):
        sysm = autonomous([np.array([[-1.0]])])
        norm = extremal_norm(sysm, SignalClassSpec.dwell(0.1), math.exp(-1.0), delta=0.01)
        assert norm.stabilized
        x = np.array([2.0])
        for t in (0.1, 0.5, 1.7):
            lhs = norm.evaluate(math.exp(-t) * x)
            rhs = math.exp(-t) * norm.evaluate(x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_norm_axioms_sampled(self):
        sysm = rotated_nodes_pair()
        est = rho_lower(sysm, SignalClassSpec.dwell(1.3))
        norm = extremal_norm(sysm, SignalClassSpec.dwell(1.3), est.lower * 1.05,
                             witness=est.witness)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            lam = float(rng.standard_normal())
            assert norm.evaluate(lam * x) == pytest.approx(abs(lam) * norm.evaluate(x), rel=1e-9)
            assert norm.evaluate(x + y) <= norm.evaluate(x) + norm.evaluate(y) + 1e-9
            assert norm.evaluate(x) >= np.linalg.norm(x) - 1e-12

    def test_sampled_contraction_certificate(self):
        # the certificate covers letters on the delta-grid; off-grid durations
        # carry the reported inflation factor instead
        rng = np.random.default_rng(2)
        sysm = autonomous([np.array([[-0.5, 1.0], [0.0, -0.6]]),
                           np.array([[-0.7, 0.0], [0.8, -0.4]])])
        cls = SignalClassSpec.dwell(0.4)
        delta = 0.02
        est = rho_lower(sysm, cls)
        mu_c = est.lower * 1.01
        norm = extremal_norm(sysm, cls, mu_c, witness=est.witness, delta=delta)
        assert norm.stabilized
        from scipy.linalg import expm
        for _ in range(1000):
            i = int(rng.integers(0, 2))
            t = 0.4 + delta * int(rng.integers(0, 150))
            x = rng.standard_normal(2)
            lhs = norm.evaluate(expm(sysm.A(i) * t) @ x)
            rhs = (mu_c ** t) * norm.evaluate(x)
            assert lhs <= rhs * (1 + 1e-6)


class TestPolytopeNormApi:
    def test_generators_raw_scale_consistency(self):
        sysm = autonomous([np.array([[-1.0]])])
        norm = extremal_norm(sysm, SignalClassSpec.dwell(0.2), math.exp(-1.0), delta=0.02)
        for raw, t, scale in norm.generators():
            assert scale == pytest.approx(norm.mu ** (-t), rel=1e-12)
            np.testing.assert_allclose(raw * scale,
                                       norm.scaled[[g[1] for g in norm.generators()].index(t)],
                                       atol=1e-12)

    def test_identity_floor(self):
        sysm = autonomous([np.array([[-0.5, 0.3], [0.0, -0.8]])])
        est = rho_lower(sysm, SignalClassSpec.dwell(0.5))
        norm = extremal_norm(sysm, SignalClassSpec.dwell(0.5), est.lower * 1.02,
                             witness=est.witness)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.standard_normal(2)
            assert norm.evaluate(x) >= np.linalg.norm(x) * (1 - 1e-12)


def _planted_minimal(seed):
    planted, _ = planted_reducible_system(2, 1, 1, 2, 1, 1, seed=seed)
    return minimal_realization(planted).sys_min


class TestCertifierParity:
    """The screened, batched domination check stores what the eigvalsh loop stores."""

    @pytest.mark.parametrize("make, cls, budget_exhausted", [
        (lambda: rotated_nodes_pair(), SignalClassSpec.dwell(0.5), False),
        (lambda: _planted_minimal(9), SignalClassSpec.dwell(0.5), True),
        (lambda: _planted_minimal(13), SignalClassSpec.dwell(0.5), False),
        (lambda: example_system(alpha_star() + 0.05), SignalClassSpec.dwell(0.5), False),
        (lambda: autonomous([np.array([[-1.0]])]), SignalClassSpec.dwell(0.1), False),
    ], ids=["nodes", "planted9", "planted13", "example", "scalar"])
    def test_generators_bitwise_equal(self, make, cls, budget_exhausted):
        sysm = make()
        est = rho_lower(sysm, cls)
        # the first certification attempt of rho_upper
        mu_c = est.lower * 1.005
        norm = extremal_norm(sysm, cls, mu_c, witness=est.witness)
        ref = reference_certifier(sysm, cls, mu_c, witness=est.witness)
        assert norm.scaled.shape == ref.scaled.shape
        assert norm.scaled.tobytes() == ref.scaled.tobytes()
        assert norm.times.tobytes() == ref.times.tobytes()
        assert (norm.stabilized, norm.flags) == (ref.stabilized, ref.flags)
        assert ("budget_exhausted" in norm.flags) == budget_exhausted


class TestDominationKernel:
    """spectral._dominated decides not (eigvalsh(G - Q)[0] < -tol) exactly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_eigvalsh_at_the_threshold(self, n, monkeypatch):
        rng = np.random.default_rng(40 + n)
        G, Q, tols = [], [], []
        for scale in 10.0 ** np.arange(-6, 7, 1.5):
            for _ in range(6):
                X = rng.standard_normal((n, n)) * math.sqrt(scale)
                g = X.T @ X + scale * np.eye(n)
                tol = 1e-10 * (1.0 + np.trace(g))
                band = 1e-12 * (2.0 * np.abs(g).sum() + tol)   # about the kernel's half-width
                targets = [-tol * (1 + 1e-13), -tol * (1 - 1e-13), -tol + 1e-16, -tol - 1e-16]
                targets += [-tol + s * k * band for s in (-1, 1) for k in (0.5, 1.0, 2.0, 10.0, 1e3)]
                for lam in targets:
                    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    w = np.concatenate([[lam], rng.uniform(0.1, 2.0, n - 1) * scale])
                    D = (V * w) @ V.T
                    G.append(g)
                    Q.append(g - 0.5 * (D + D.T))
                    tols.append(tol)
        G, Q, tols = np.array(G), np.array(Q), np.array(tols)
        want = ~(np.linalg.eigvalsh(G - Q)[:, 0] < -tols)
        sent = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: sent.append(len(M)) or eigvalsh(M))
        got = spectral._dominated(spectral._Grams.of(G).low - spectral._Grams.of(Q).low, tols)
        assert want.any() and not want.all()
        # both the Cholesky decisions and the band are exercised
        assert 0 < sum(sent) < len(want) // 2
        np.testing.assert_array_equal(got, want)

    def test_non_finite_pairs_follow_eigvalsh(self):
        G = np.array([np.eye(2), np.eye(2), np.eye(2)])
        Q = np.array([[[np.inf, 0.0], [0.0, 1.0]],
                      [[1e200, 0.0], [0.0, 0.0]],
                      [[0.5, 0.0], [0.0, 0.5]]])
        tols = np.full(3, 1e-10)
        got = spectral._dominated(spectral._Grams.of(G).low - spectral._Grams.of(Q).low, tols)
        with np.errstate(invalid="ignore"):
            want = ~(np.linalg.eigvalsh(G - Q)[:, 0] < -tols)
        np.testing.assert_array_equal(got, want)


class TestQuasiExtremal:
    def test_single_mode_exact_band(self):
        sysm = autonomous([np.array([[-1.0]])])
        rep = quasi_extremal_trajectory(sysm, SignalClassSpec.dwell(0.5),
                                        np.array([1.0]), 5.0)
        assert rep.c_lower == pytest.approx(1.0, rel=1e-9)
        assert rep.c_upper == pytest.approx(1.0, rel=1e-9)

    def test_planar_marginal_band(self):
        astar = alpha_star(1e-6)
        sysm = example_planar_pair(astar)
        rep = quasi_extremal_trajectory(sysm, ARB, np.array([1.0, 0.0]), 50.0,
                                        duration_grid=(0.02, 0.05, 0.1, 0.2, 0.4))
        assert rep.c_upper / rep.c_lower <= 10.0

    def test_growth_never_exceeds_upper(self):
        astar = alpha_star(1e-6)
        sysm = example_planar_pair(astar)
        est = rho_upper(sysm, ARB, delta=0.005, budget=200)
        rep = quasi_extremal_trajectory(sysm, ARB, np.array([1.0, 0.0]), 30.0)
        norms = np.linalg.norm(rep.trajectory.states, axis=1)
        times = rep.trajectory.times
        sel = times >= 10.0
        rates = norms[sel] ** (1.0 / times[sel])
        assert np.all(rates <= est.upper * (1 + 1e-6))

    def test_signal_is_class_valid(self):
        sysm = rotated_nodes_pair()
        cls = SignalClassSpec.dwell(0.7)
        rep = quasi_extremal_trajectory(sysm, cls, np.array([1.0, 1.0]), 12.0)
        assert validate_membership(rep.signal, cls).ok

    def test_rejects_zero_start(self):
        sysm = autonomous([np.array([[-1.0]])])
        with pytest.raises(ValueError, match="x0"):
            quasi_extremal_trajectory(sysm, ARB, np.zeros(1), 1.0)


class TestRhoCurve:
    def test_single_mode_constant(self):
        sysm = autonomous([np.array([[-0.4]])])
        curve = rho_curve(sysm, [0.2, 0.5, 1.0, 2.0])
        for v in curve.lower_raw:
            assert v == pytest.approx(math.exp(-0.4), abs=1e-9)

    def test_nodes_pair_crossing(self):
        sysm = rotated_nodes_pair()
        taus = [0.6, 0.9, 1.0, 1.1, 1.2, 1.5]
        curve = rho_curve(sysm, taus)
        vals = curve.lower_envelope
        assert vals[0] > 1.0 and vals[-1] < 1.0
        # crossing confirmed by long random-signal growth rates on either side
        rng = np.random.default_rng(3)
        for tau, expect_growth in ((0.6, True), (1.5, False)):
            best = -math.inf
            for _ in range(40):
                segs = []
                t = 0.0
                mode = int(rng.integers(0, 2))
                while t < 60.0:
                    d = tau * (1.0 + 0.2 * float(rng.random()))
                    segs.append((mode, d))
                    t += d
                    mode = 1 - mode
                sig = Signal(tuple(segs))
                phi = transition(sysm, sig, 0.0, sig.horizon)
                best = max(best, math.log(np.linalg.norm(phi, 2)) / sig.horizon)
            if expect_growth:
                assert best > 0.0
            else:
                assert best < 0.0

    def test_envelope_monotone_and_raw_nesting(self):
        sysm = rotated_nodes_pair()
        curve = rho_curve(sysm, [0.8, 1.0, 1.3])
        env = curve.lower_envelope
        assert all(env[i] >= env[i + 1] - 1e-12 for i in range(len(env) - 1))
        raw = curve.lower_raw
        for i in range(len(raw) - 1):
            assert raw[i + 1] <= raw[i] * (1 + 1e-9)

    def test_unsorted_rejected(self):
        sysm = autonomous([np.array([[-1.0]])])
        with pytest.raises(ValueError, match="sorted"):
            rho_curve(sysm, [1.0, 0.5])


class TestInvariantSuite:
    def test_cqlf_band(self):
        beta = -0.2
        sysm = common_lyapunov_modes(beta, (0.7, 1.9, 3.1))
        cls = SignalClassSpec.dwell(0.6)
        est = rho_upper(sysm, cls, eps=0.002, delta=0.002)
        assert est.lower <= math.exp(beta) * (1 + 1e-9)
        assert est.upper <= math.exp(beta) * 1.01

    def test_lyapunov_exponent_sampling_consistency(self):
        sysm = rotated_nodes_pair()
        tau = 1.4
        est = rho_upper(sysm, SignalClassSpec.dwell(tau))
        rng = np.random.default_rng(4)
        rates = []
        for _ in range(100):
            segs = []
            t = 0.0
            mode = int(rng.integers(0, 2))
            while t < 40.0:
                d = tau * (1.0 + float(rng.random()))
                segs.append((mode, d))
                t += d
                mode = 1 - mode
            sig = Signal(tuple(segs))
            phi = transition(sysm, sig, 0.0, sig.horizon)
            rates.append(math.log(np.linalg.norm(phi, 2)) / sig.horizon)
        assert max(rates) <= est.lyapunov_exponent_upper + 1e-3
