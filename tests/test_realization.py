import numpy as np
import pytest

from switchgain import (
    Mode,
    SignalClassSpec,
    SystemSpec,
    check_similarity,
    check_uniform_observability,
    dual_system,
    minimal_realization,
    observable_subspace,
    reachable_subspace,
)
from switchgain.gallery import example_system, planted_reducible_system

from oracles import word_span_dimension


def controllable_single_mode(seed=0, n=4):
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, 1))
        K = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(n)])
        if np.linalg.matrix_rank(K) == n:
            return SystemSpec(n, 1, 1, (Mode(A, B, rng.standard_normal((1, n))),))


class TestReachable:
    def test_kalman_criterion_single_mode(self):
        sysm = controllable_single_mode()
        assert reachable_subspace(sysm).dim == 4

    def test_zero_input_empty_span(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        sysm = SystemSpec(3, 1, 1, (Mode(A, np.zeros((3, 1)), np.ones((1, 3))),))
        assert reachable_subspace(sysm).dim == 0

    def test_planted_block_system_vs_word_oracle(self):
        for seed in range(8):
            sysm, _ = planted_reducible_system(2, 2, 0, 2, 1, 1, seed)
            dim = reachable_subspace(sysm).dim
            assert dim == word_span_dimension(sysm)

    def test_orthonormal_basis(self):
        sysm, _ = planted_reducible_system(2, 1, 1, 2, 1, 1, 42)
        basis = reachable_subspace(sysm).basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)

    def test_invariance_under_change_of_basis(self):
        rng = np.random.default_rng(5)
        sysm, _ = planted_reducible_system(2, 2, 1, 2, 1, 1, 7)
        Q, _ = np.linalg.qr(rng.standard_normal((sysm.n, sysm.n)))
        conj = SystemSpec(sysm.n, sysm.m, sysm.p,
                          tuple(Mode(Q @ m.A @ Q.T, Q @ m.B, m.C @ Q.T)
                                for m in sysm.modes))
        r1 = reachable_subspace(sysm)
        r2 = reachable_subspace(conj)
        assert r1.dim == r2.dim
        # bases span the transformed subspace
        proj = Q @ r1.basis
        resid = proj - r2.basis @ (r2.basis.T @ proj)
        assert np.linalg.norm(resid) < 1e-8


class TestObservable:
    def test_duality_exact_by_construction(self):
        sysm, _ = planted_reducible_system(2, 1, 2, 2, 1, 1, 3)
        o = observable_subspace(sysm)
        r = reachable_subspace(dual_system(sysm))
        np.testing.assert_array_equal(o.basis, r.basis)

    def test_zero_output(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        sysm = SystemSpec(3, 1, 1, (Mode(A, np.ones((3, 1)), np.zeros((1, 3))),))
        assert observable_subspace(sysm).dim == 0

    def test_example_already_minimal(self):
        sysm = example_system(4.5047)
        assert observable_subspace(sysm).dim == 3
        assert reachable_subspace(sysm).dim == 3


class TestMinimalRealization:
    def test_already_minimal_orthogonal_maps(self):
        sysm = controllable_single_mode(seed=4)
        # make it observable too (random C almost surely is; verify)
        assert observable_subspace(sysm).dim == 4
        mr = minimal_realization(sysm)
        assert mr.dim == 4
        P = mr.maps.change_of_basis
        np.testing.assert_allclose(P.T @ P, np.eye(4), atol=1e-10)

    def test_projector_injector_identity(self):
        sysm, _ = planted_reducible_system(3, 2, 1, 2, 1, 1, 11)
        mr = minimal_realization(sysm)
        np.testing.assert_allclose(mr.maps.projector_to_min @ mr.maps.injector_from_min,
                                   np.eye(mr.dim), atol=1e-10)

    def test_planted_dims(self):
        for seed in range(6):
            sysm, n_core = planted_reducible_system(2, 2, 2, 2, 1, 1, seed)
            mr = minimal_realization(sysm)
            assert mr.maps.controllable_dim == word_span_dimension(sysm)
            assert mr.dim == n_core

    def test_idempotent_dimension(self):
        sysm, _ = planted_reducible_system(3, 1, 2, 2, 1, 1, 9)
        mr = minimal_realization(sysm)
        again = minimal_realization(mr.sys_min)
        assert again.dim == mr.dim
        assert reachable_subspace(mr.sys_min).dim == mr.dim
        assert observable_subspace(mr.sys_min).dim == mr.dim

    def test_example_minimal_dims(self):
        for alpha in (2.0, 4.5047, 6.0):
            assert minimal_realization(example_system(alpha)).dim == 3

    def test_zero_minimal_dimension(self):
        A = np.array([[-1.0]])
        sysm = SystemSpec(1, 1, 1, (Mode(A, np.zeros((1, 1)), np.zeros((1, 1))),))
        mr = minimal_realization(sysm)
        assert mr.dim == 0
        assert mr.sys_min is None


class TestSimilarity:
    def test_recover_orthogonal_change_of_basis(self):
        rng = np.random.default_rng(21)
        sysm, _ = planted_reducible_system(3, 0, 0, 2, 1, 1, 13)
        m1 = minimal_realization(sysm)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        conj = SystemSpec(3, 1, 1,
                          tuple(Mode(Q.T @ m.A @ Q, Q.T @ m.B, m.C @ Q)
                                for m in m1.sys_min.modes))
        m2 = minimal_realization(conj)
        G = check_similarity(m1, m2)
        assert G is not None
        # G realizes the similarity on every mode
        for a, b in zip(m1.sys_min.modes, m2.sys_min.modes):
            np.testing.assert_allclose(G @ b.A, a.A @ G, atol=1e-6 * np.linalg.norm(G))

    def test_self_similarity_identity(self):
        sysm, _ = planted_reducible_system(3, 0, 0, 2, 1, 1, 17)
        m1 = minimal_realization(sysm)
        G = check_similarity(m1, m1)
        np.testing.assert_allclose(G, np.eye(3), atol=1e-8)

    def test_scaled_input_rejected(self):
        sysm, _ = planted_reducible_system(3, 0, 0, 2, 1, 1, 19)
        m1 = minimal_realization(sysm)
        modes = list(m1.sys_min.modes)
        modes[0] = Mode(modes[0].A, 2.0 * modes[0].B, modes[0].C)
        bad = SystemSpec(3, 1, 1, tuple(modes))
        m2 = minimal_realization(bad)
        assert m2.dim == 3
        assert check_similarity(m1, m2) is None

    def test_dimension_mismatch(self):
        s1, _ = planted_reducible_system(2, 0, 0, 2, 1, 1, 23)
        s2, _ = planted_reducible_system(3, 0, 0, 2, 1, 1, 23)
        with pytest.raises(ValueError, match="dimension"):
            check_similarity(minimal_realization(s1), minimal_realization(s2))


class TestUniformObservability:
    def test_example_not_uniformly_observable(self):
        sysm = example_system(4.5047)
        rep = check_uniform_observability(sysm, SignalClassSpec.arbitrary(), 1.0, samples=4)
        # modes 1 and 2 observe only the x3 axis; mode 3 never sees x2
        assert rep.per_mode_observable[0] is False
        assert rep.per_mode_observable[1] is False
        assert rep.verdict == "not_uniformly_observable"

    def test_single_observable_mode_dwell_certified(self):
        sysm = controllable_single_mode(seed=31)
        rep = check_uniform_observability(sysm, SignalClassSpec.dwell(0.5), 1.0, samples=4)
        assert rep.verdict == "uniformly_observable"
        assert rep.gramian_floor > 0

    def test_zero_output_floor(self):
        A = np.array([[-1.0, 0.0], [0.0, -2.0]])
        sysm = SystemSpec(2, 1, 1, (Mode(A, np.ones((2, 1)), np.zeros((1, 2))),))
        rep = check_uniform_observability(sysm, SignalClassSpec.dwell(1.0), 1.0, samples=3)
        assert rep.verdict == "not_uniformly_observable"
        assert rep.gramian_floor == pytest.approx(0.0, abs=1e-12)

    def test_unsupported_class(self):
        sysm = controllable_single_mode(seed=37)
        with pytest.raises(ValueError, match="arbitrary and dwell classes"):
            check_uniform_observability(sysm, SignalClassSpec.avg_dwell(1.0, 2), 1.0)

    def test_zero_dimensional_modes_observable(self):
        # the Kalman rank of an empty state is 0 = n, as _orth counts it
        sysm = SystemSpec(0, 1, 1, (Mode(np.zeros((0, 0)), np.zeros((0, 1)),
                                         np.zeros((1, 0))),))
        rep = check_uniform_observability(sysm, SignalClassSpec.dwell(1.0), 1.0, samples=2)
        assert rep.per_mode_observable == (True,)
        assert rep.verdict == "uniformly_observable"

    def test_all_observable_arbitrary_inconclusive(self):
        sysm = controllable_single_mode(seed=41)
        rep = check_uniform_observability(sysm, SignalClassSpec.arbitrary(), 1.0, samples=4)
        assert rep.verdict == "inconclusive"
