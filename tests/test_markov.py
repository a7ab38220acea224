import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochnls import markov
from stochnls.markov import (
    HeatKernel,
    MarkovModel,
    heat_kernel,
    path_rng,
    sample_path,
    sample_paths,
    states_at,
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
            h = MarkovModel(A).ground_state()
            assert np.array_equal(h, np.full(m, 1.0 / m))
            assert np.max(np.abs(A @ h)) <= 1e-12  # in the kernel of A

    def test_disconnected_raises(self):
        A = np.zeros((4, 4))
        A[:2, :2] = two_state()
        A[2:, 2:] = two_state()
        with pytest.raises(ValueError, match="fails validation"):
            MarkovModel(A)


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
        assert states_at([path], [3.3]).tolist() == [[0]]

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
        paths = [sample_path(model, 1.0, seed=(55, i)) for i in range(N)]
        emp = np.bincount(states_at(paths, [t])[:, 0], minlength=3) / N
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
        assert len(built) == 4  # three jump laws and the initial law, at construction
        for i in range(20):
            sample_path(model, 5.0, seed=(3, i))
        assert len(built) == 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.initial_law = np.array([0.2, 0.3, 0.5])  # a model is never changed
        with pytest.raises(ValueError):
            model.initial_law[0] = 0.5  # not even in place
        assert len(built) == 4

    def test_invalid_laws_rejected(self):
        with pytest.raises(ValueError, match="initial law"):
            MarkovModel(two_state(), initial_law=np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="generator fails validation"):
            MarkovModel(np.array([[1.0, -1.5], [-1.0, 1.0]]))  # row 0 sums to 1.5
        model = MarkovModel(two_state(), initial_law=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.A = np.array([[1.0, -1.5], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            model.A[0, 1] = -1.5
        # the cdf check behind each jump law and the initial law
        with pytest.raises(ValueError, match="jump law of state 0"):
            markov._cdf(np.array([1.5, 0.0]), "jump law of state 0")
        with pytest.raises(ValueError, match="initial law"):
            markov._cdf(np.array([1.2, -0.2]), "initial law")
        np.testing.assert_array_equal(markov._cdf(np.array([0.25, 0.75]), "law"), [0.25, 1.0])

    def test_model_arrays_are_copies_and_heat_kernel_follows_A(self):
        A, law = two_state(), np.array([0.5, 0.5])
        model = MarkovModel(A, initial_law=law)
        A[:] = 3.0 * two_state()  # the caller's arrays stay the caller's
        law[:] = [1.0, 0.0]
        np.testing.assert_array_equal(model.A, two_state())
        np.testing.assert_array_equal(model.initial_law, [0.5, 0.5])
        K = heat_kernel(MarkovModel(A), 0.5).K  # e^{-0.5 A} with A = 3 [[1,-1],[-1,1]]
        np.testing.assert_allclose(K[:, 0], [0.5 + 0.5 * np.exp(-3.0), 0.5 - 0.5 * np.exp(-3.0)],
                                   rtol=1e-12)

    def test_sampled_paths_hold_the_path_invariants(self):
        """sample_path builds its paths without PathSample's check, so every
        path it draws must pass that check anyway."""
        A = np.array([[1.5, -1.0, -0.5], [-1.0, 2.0, -1.0], [-0.5, -1.0, 1.5]])
        model = MarkovModel(A, initial_law=np.full(3, 1 / 3))
        for i in range(2000):
            path = sample_path(model, 3.0, seed=(17, i))
            assert path.states.size == path.jump_times.size + 1
            assert np.all(path.jump_times > 0) and np.all(path.jump_times < path.horizon)
            assert np.all(np.diff(path.jump_times) > 0)
            assert np.all(path.states[1:] != path.states[:-1])
            assert path.jump_times.dtype == float and path.states.dtype == np.int64
            dataclasses.replace(path)  # the constructor's own check

    @pytest.mark.parametrize("holds, message", [
        ([0.0], "strictly inside"),
        ([0.4, 0.0], "strictly increasing"),
        ([0.5, 1e-20], "strictly increasing"),  # lost to rounding
    ])
    def test_holding_time_that_adds_nothing_rejected(self, monkeypatch, holds, message):
        class Generator:
            def __init__(self):
                self.holds = iter(holds)

            def random(self):
                return 0.5

            def exponential(self, scale):
                return next(self.holds)
        monkeypatch.setattr(markov, "path_rng", lambda seed: Generator())
        with pytest.raises(ValueError, match=message):
            sample_path(MarkovModel(two_state(), initial_law=0), 1.0, seed=0)


class TestStateAt:
    """The right-continuous state lookup, states_at, one row per path."""

    def path(self):
        return sample_path(MarkovModel(two_state(5.0), initial_law=0), 10.0, seed=9)

    def test_initial_state(self):
        assert states_at([self.path()], [0.0]).tolist() == [[0]]

    def test_just_before_first_jump(self):
        p = self.path()
        assert p.jump_times.size > 0
        assert states_at([p], [np.nextafter(p.jump_times[0], 0.0)])[0, 0] == p.states[0]

    def test_right_continuity_at_jump(self):
        p = self.path()
        assert states_at([p], [p.jump_times[0]])[0, 0] == p.states[1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            states_at([self.path()], [10.5])
        with pytest.raises(ValueError):
            states_at([self.path()], [-0.1])
        with pytest.raises(ValueError):
            states_at([self.path()], np.array([0.0, 10.5]))
        short = sample_path(MarkovModel(two_state(5.0), initial_law=0), 5.0, seed=9)
        with pytest.raises(ValueError):  # past the horizon of one path only
            states_at([self.path(), short], [0.0, 7.5])
        assert states_at([self.path(), short], [[0.0, 7.5], [0.0, 5.0]]).shape == (2, 2)

    def test_array_of_times_matches_per_time_calls(self):
        p = self.path()
        assert p.jump_times.size > 2
        times = np.concatenate((np.linspace(0.0, 10.0, 41), p.jump_times,
                                np.nextafter(p.jump_times, 0.0)))
        states = states_at([p], times)
        assert states.shape == (1, times.size) and states.dtype == np.int64
        assert states[0].tolist() == [states_at([p], [t])[0, 0] for t in times]

    def test_rows_match_one_lookup_per_path(self):
        """Each row against a searchsorted of its own path, at jumps, just
        before them and on a grid of times, with jumpless paths among them;
        then with times of their own for each row."""
        model = MarkovModel(ring_laplacian(3), initial_law=np.full(3, 1 / 3))
        paths = [sample_path(model, 10.0, seed=s) for s in range(6)]
        paths.insert(2, sample_path(MarkovModel(np.zeros((1, 1))), 10.0, seed=0))
        paths.append(sample_path(MarkovModel(np.zeros((1, 1))), 10.0, seed=1))
        assert sum(p.jump_times.size > 2 for p in paths) >= 4
        times = np.concatenate((np.linspace(0.0, 10.0, 41), paths[0].jump_times,
                                np.nextafter(paths[0].jump_times, 0.0), paths[3].jump_times))

        def lookup(path, t):
            return path.states[np.searchsorted(path.jump_times, t, side="right")].tolist()
        assert states_at(paths, times).tolist() == [lookup(p, times) for p in paths]
        own = np.array([np.minimum(times + 0.1 * b, 10.0) for b in range(len(paths))])
        states = states_at(paths, own)
        assert states.dtype == np.int64
        assert states.tolist() == [lookup(p, t) for p, t in zip(paths, own)]


# Entropy ints at and next to the uint32 word boundaries SeedSequence splits at.
WORD_EDGES = sorted({max(2**(32 * w) + d, 0) for w in range(5) for d in (-1, 0, 1)})
masters = st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**130 - 1))
index_sets = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**70)),
                      max_size=12).map(lambda drawn: [0, 1, 2**32 - 1] + drawn)


class TestSamplePaths:
    """The batch seeder against numpy's own SeedSequence, state for state,
    and against sample_path, path for path."""

    MODELS = {
        "two-state": MarkovModel(two_state(1.3), initial_law=np.array([0.3, 0.7])),
        "three-state": MarkovModel(np.array([[1.5, -1.0, -0.5], [-1.0, 2.0, -1.0],
                                             [-0.5, -1.0, 1.5]]),
                                   initial_law=np.array([0.2, 0.5, 0.3])),
        "dirac": MarkovModel(ring_laplacian(3, 2.0), initial_law=2),
        # a generator is a connected graph's Laplacian, so only a one-state
        # chain has an absorbing state
        "absorbing": MarkovModel(np.zeros((1, 1))),
    }

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(master=masters, indices=index_sets)
    def test_states_equal_seed_sequence(self, master, indices):
        states = markov._pcg64_states(master, indices)
        assert len(states) == len(indices)
        for i, (state, inc) in zip(indices, states):
            reference = np.random.PCG64(np.random.SeedSequence([master, i])).state
            assert reference["state"] == {"state": state, "inc": inc}, i

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(MODELS)), master=masters, indices=index_sets,
           T=st.floats(0.05, 15.0))
    def test_paths_equal_sample_path(self, name, master, indices, T):
        model = self.MODELS[name]
        paths = sample_paths(model, T, master, indices)
        assert len(paths) == len(indices)
        for i, path in zip(indices, paths):
            reference = sample_path(model, T, seed=(master, i))
            assert path.seed == reference.seed == (master, i)
            assert path.horizon == reference.horizon
            for got, want in ((path.jump_times, reference.jump_times),
                              (path.states, reference.states)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_indices_from_any_integer_iterable(self):
        model = self.MODELS["three-state"]
        assert sample_paths(model, 1.0, 4, []) == []
        by_range = sample_paths(model, 1.0, 4, range(3, 6))
        by_array = sample_paths(model, 1.0, np.int64(4), np.arange(3, 6))
        assert [p.seed for p in by_array] == [(4, 3), (4, 4), (4, 5)]
        assert all(type(s) is int for p in by_array for s in p.seed)
        for a, b in zip(by_range, by_array):
            assert a.jump_times.tobytes() == b.jump_times.tobytes()
            assert a.states.tobytes() == b.states.tobytes()

    @pytest.mark.parametrize("master, indices", [
        (-1, [0]), (3, [0, 2, -1]), (-(2**40), [5]), (2**64, [-(2**33)]),
    ])
    def test_negative_entropy_raises_as_seed_sequence(self, master, indices):
        with pytest.raises(ValueError) as expected:
            for i in indices:
                np.random.SeedSequence([master, i])
        with pytest.raises(ValueError) as raised:
            sample_paths(self.MODELS["two-state"], 1.0, master, indices)
        assert str(raised.value) == str(expected.value)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            sample_paths(self.MODELS["two-state"], 0.0, 1, [0])
