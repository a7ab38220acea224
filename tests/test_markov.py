import numpy as np
import pytest

from stochnls import markov
from stochnls.markov import (
    HeatKernel,
    MarkovModel,
    ground_state,
    heat_kernel,
    path_rng,
    sample_path,
    state_at,
    validate_generator,
)


def two_state(a=1.0):
    return np.array([[a, -a], [-a, a]])


def ring_laplacian(m, w=1.0):
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = 2 * w
        A[i, (i + 1) % m] = -w
        A[i, (i - 1) % m] = -w
    return A


class TestValidateGenerator:
    def test_two_state_passes(self):
        report = validate_generator(two_state())
        assert report.passes
        assert report.kernel_dimension == 1

    def test_zero_matrix_flags_kernel(self):
        report = validate_generator(np.zeros((2, 2)))
        assert report.kernel_dimension == 2
        assert not report.passes

    def test_disconnected_flags_kernel(self):
        A = np.zeros((4, 4))
        A[:2, :2] = two_state()
        A[2:, 2:] = two_state(3.0)
        report = validate_generator(A)
        assert report.kernel_dimension == 2
        assert not report.passes

    def test_limit_kernel_is_ground_projection(self):
        A = ring_laplacian(5)
        report = validate_generator(A)
        np.testing.assert_allclose(report.limit_kernel, np.full((5, 5), 0.2), atol=1e-12)

    def test_positive_offdiagonal_rejected(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert validate_generator(A).offdiag_sign_violations == 2

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            validate_generator(np.zeros((2, 3)))


class TestGroundState:
    def test_connected_graph_is_uniform(self):
        for A in (two_state(0.7), ring_laplacian(4), ring_laplacian(7, 2.5)):
            m = A.shape[0]
            np.testing.assert_allclose(ground_state(A), np.full(m, 1.0 / m), atol=1e-12)

    def test_disconnected_raises(self):
        A = np.zeros((4, 4))
        A[:2, :2] = two_state()
        A[2:, 2:] = two_state()
        with pytest.raises(ValueError):
            ground_state(A)


class TestHeatKernel:
    def test_identity_at_zero(self):
        model = MarkovModel(two_state())
        np.testing.assert_allclose(heat_kernel(model, 0.0).K, np.eye(2), atol=1e-14)

    def test_closed_form_two_state(self):
        a, t = 0.8, 0.37
        K = heat_kernel(MarkovModel(two_state(a)), t).K
        e = np.exp(-2 * a * t)
        expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        np.testing.assert_allclose(K, expected, atol=1e-12)

    def test_long_time_limit(self):
        a = 2.0
        K = heat_kernel(MarkovModel(two_state(a)), 1e3 / a).K
        np.testing.assert_allclose(K, np.full((2, 2), 0.5), atol=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            heat_kernel(MarkovModel(two_state()), -0.1)

    def test_semigroup_property(self):
        model = MarkovModel(ring_laplacian(4, 1.3))
        rng = np.random.default_rng(0)
        for _ in range(100):
            s, t = rng.uniform(0, 3, size=2)
            Ks, Kt = heat_kernel(model, s).K, heat_kernel(model, t).K
            Kst = heat_kernel(model, s + t).K
            assert np.max(np.abs(Ks @ Kt - Kst)) <= 1e-10

    def test_stochasticity_and_positivity(self):
        model = MarkovModel(ring_laplacian(6, 0.9))
        for t in (0.01, 0.5, 2.0, 20.0):
            K = heat_kernel(model, t).K
            assert np.min(K) >= -1e-12
            np.testing.assert_allclose(K.sum(axis=0), 1.0, atol=1e-10)

    def test_ground_state_invariance(self):
        model = MarkovModel(ring_laplacian(5, 1.7))
        h = model.ground_state()
        for t in (0.1, 1.0, 7.0):
            np.testing.assert_allclose(heat_kernel(model, t).K @ h, h, atol=1e-10)

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError):
            HeatKernel(t=1.0, K=np.array([[1.1, 0.0], [-0.1, 1.0]]))


class TestSamplePath:
    def test_single_state_constant(self):
        model = MarkovModel(np.zeros((1, 1)))
        path = sample_path(model, 5.0, seed=42)
        assert path.jump_times.size == 0
        assert state_at(path, 3.3) == 0

    def test_determinism(self):
        model = MarkovModel(ring_laplacian(3), initial_law=np.full(3, 1 / 3))
        p1 = sample_path(model, 10.0, seed=123)
        p2 = sample_path(model, 10.0, seed=123)
        assert np.array_equal(p1.jump_times, p2.jump_times)
        assert np.array_equal(p1.states, p2.states)
        p3 = sample_path(model, 10.0, seed=124)
        assert not (
            p1.jump_times.size == p3.jump_times.size
            and np.array_equal(p1.jump_times, p3.jump_times)
        )

    def test_occupation_fraction_symmetric_chain(self):
        # stationary symmetric 2-state chain spends half its time in state 1
        model = MarkovModel(two_state(1.0), initial_law=np.array([0.5, 0.5]))
        T, n_paths = 4.0, 10**4
        total = 0.0
        for i in range(n_paths):
            path = sample_path(model, T, seed=(777, i))
            times = np.concatenate(([0.0], path.jump_times, [T]))
            in_state1 = np.array([s == 1 for s in path.states], dtype=float)
            total += float(np.sum(np.diff(times) * in_state1)) / T
        frac = total / n_paths
        # per-path occupation variance is below 1/4; 3 standard errors
        assert abs(frac - 0.5) <= 3 * 0.5 / np.sqrt(n_paths)

    def test_empirical_law_matches_heat_kernel(self):
        A = np.array([[1.5, -1.0, -0.5], [-1.0, 2.0, -1.0], [-0.5, -1.0, 1.5]])
        y0, t, N = 2, 0.7, 10**4
        model = MarkovModel(A, initial_law=y0)
        counts = np.zeros(3)
        for i in range(N):
            path = sample_path(model, 1.0, seed=(55, i))
            counts[state_at(path, t)] += 1
        emp = counts / N
        expected = heat_kernel(model, t).K[:, y0]
        for p_emp, p in zip(emp, expected):
            assert abs(p_emp - p) <= 4 * np.sqrt(p * (1 - p) / N)

    @staticmethod
    def choice_reference(model, T, seed):
        """The jump chain drawn with rng.choice, state by state."""
        rng = path_rng(seed)
        y = int(rng.choice(model.m, p=model.initial_law))
        times, states, t = [], [y], 0.0
        while True:
            rate = model.A[y, y]
            off = -model.A[y, :].copy()
            off[y] = 0.0
            t += rng.exponential(1.0 / rate)
            if t >= T:
                return np.array(times), np.array(states)
            y = int(rng.choice(model.m, p=off / rate))
            times.append(t)
            states.append(y)

    @pytest.mark.parametrize("A, law", [
        (two_state(1.3), np.array([0.2, 0.8])),
        (np.array([[1.5, -1.0, -0.5], [-1.0, 2.0, -1.0], [-0.5, -1.0, 1.5]]),
         np.array([0.5, 0.0, 0.5])),
        (np.array([[0.3, -0.3, 0.0], [-0.3, 1.0, -0.7], [0.0, -0.7, 0.7]]),
         np.array([0.1, 0.6, 0.3])),
    ])
    def test_cdf_draws_match_rng_choice_bitwise(self, A, law):
        model = MarkovModel(A, initial_law=law)
        for i in range(300):
            path = sample_path(model, 20.0, seed=(91, i))
            times, states = self.choice_reference(model, 20.0, (91, i))
            np.testing.assert_array_equal(path.jump_times, times)
            np.testing.assert_array_equal(path.states, states)

    def test_jump_laws_built_once_per_model(self, monkeypatch):
        built, original = [], markov._cdf

        def counting(p, what):
            built.append(what)
            return original(p, what)
        monkeypatch.setattr(markov, "_cdf", counting)
        model = MarkovModel(ring_laplacian(3), initial_law=np.full(3, 1 / 3))
        for i in range(20):
            sample_path(model, 5.0, seed=(3, i))
        assert len(built) == 4  # three jump laws and the initial law
        model.initial_law = np.array([0.2, 0.3, 0.5])  # a law set again is built again
        sample_path(model, 5.0, seed=0)
        assert len(built) == 8

    def test_invalid_laws_rejected(self):
        model = MarkovModel(two_state(), initial_law=np.array([0.5, 0.5]))
        model.initial_law = np.array([0.7, 0.7])
        with pytest.raises(ValueError, match="initial law"):
            sample_path(model, 1.0, seed=0)
        model = MarkovModel(two_state(), initial_law=0)
        model.A = np.array([[1.0, -1.5], [-1.0, 1.0]])  # row 0 sums to 1.5
        with pytest.raises(ValueError, match="jump law of state 0"):
            sample_path(model, 1.0, seed=0)


class TestStateAt:
    def path(self):
        return sample_path(MarkovModel(two_state(5.0), initial_law=0), 10.0, seed=9)

    def test_initial_state(self):
        assert state_at(self.path(), 0.0) == 0

    def test_just_before_first_jump(self):
        p = self.path()
        assert p.jump_times.size > 0
        assert state_at(p, np.nextafter(p.jump_times[0], 0.0)) == p.states[0]

    def test_right_continuity_at_jump(self):
        p = self.path()
        assert state_at(p, p.jump_times[0]) == p.states[1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            state_at(self.path(), 10.5)
        with pytest.raises(ValueError):
            state_at(self.path(), -0.1)
