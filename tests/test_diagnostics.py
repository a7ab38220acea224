import json

import numpy as np
import pytest

from stochnls.averaged import AveragedDensityMatrix, solve_liouville_averaged
from stochnls.diagnostics import (
    decay_fit,
    energy_breakdown,
    energy_derivative_identity,
    feynman_kac_residual,
    strichartz_norm,
    wraparound_mass,
    write_csv,
    write_json,
)
from stochnls.grid import SpatialGrid, WaveField
from stochnls.markov import MarkovModel
from stochnls.potential import (
    HartreeKernel,
    PotentialFamily,
    make_amplitude_family,
    shape_field,
)
from stochnls.propagator import SolverConfig


def gaussian(grid, a=1.0, center=None):
    L = grid.box_length
    if center is None:
        center = L / 2.0
    x = ((grid.coordinates()[0] - center + L / 2.0) % L) - L / 2.0
    return (a / np.pi) ** 0.25 * np.exp(-a * x**2 / 2.0).astype(complex)


class TestEnergyBreakdown:
    def test_plane_wave_kinetic(self):
        grid = SpatialGrid(1, 64, 8.0)
        k = 2.0 * np.pi * 3 / grid.box_length
        psi = WaveField(grid, np.exp(1j * k * grid.coordinates()[0]))
        e = energy_breakdown(psi, np.zeros(grid.size))
        l2sq = grid.cell_volume * grid.size
        assert e.kinetic == pytest.approx(0.5 * k**2 * l2sq, rel=1e-12)
        assert e.potential == 0.0 and e.hartree == 0.0

    def test_gaussian_kinetic_closed_form(self):
        # for (a/pi)^{1/4} e^{-a x^2/2}: 1/2 int |psi'|^2 = a/4
        grid = SpatialGrid(1, 256, 40.0)
        for a in (0.5, 1.0, 2.0):
            psi = WaveField(grid, gaussian(grid, a))
            e = energy_breakdown(psi, np.zeros(grid.size))
            assert e.kinetic == pytest.approx(a / 4.0, rel=1e-8)

    def test_no_kernel_means_no_hartree(self):
        grid = SpatialGrid(1, 64, 16.0)
        psi = WaveField(grid, gaussian(grid))
        chi = shape_field(grid, "gaussian", center=0.0)
        e0 = energy_breakdown(psi, np.ones(grid.size),
                              HartreeKernel(grid, chi, epsilon=0.0))
        assert e0.hartree == 0.0
        e1 = energy_breakdown(psi, np.ones(grid.size),
                              HartreeKernel(grid, chi, epsilon=0.5))
        assert e1.hartree > 0.0
        assert e1.total == e1.kinetic + e1.potential + e1.hartree

    def test_translation_invariance(self):
        grid = SpatialGrid(1, 128, 32.0)
        V = shape_field(grid, "sech2", amplitude=-1.5, width=1.0)
        chi = shape_field(grid, "gaussian", center=0.0)
        kernel = HartreeKernel(grid, chi, epsilon=0.3)
        e_ref = None
        for shift in (0, 13):
            psi = np.roll(gaussian(grid).reshape(-1), shift)
            V_s = np.roll(V, shift)
            e = energy_breakdown(WaveField(grid, psi), V_s, kernel)
            if e_ref is None:
                e_ref = e
            else:
                assert e.total == pytest.approx(e_ref.total, abs=1e-12)


class TestEnergyDerivativeIdentity:
    def grid_family_model(self, y_dependent=True):
        grid = SpatialGrid(1, 64, 20.0)
        well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
        mod = shape_field(grid, "sech2", amplitude=1.0, width=1.0)
        if y_dependent:
            fam = make_amplitude_family(well, mod, [-1.0, 1.0], grid)
        else:
            fam = PotentialFamily(grid, np.vstack([well, well]))
        model = MarkovModel(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                            initial_law=np.array([0.5, 0.5]))
        return grid, fam, model

    def run_series(self, grid, fam, model, dt=1e-3, T=0.2):
        gap = 5 * dt
        times = np.round(np.arange(0.0, T + gap / 2, gap) / dt) * dt
        cfg = SolverConfig(dt=dt, sample_times=times)
        psi = gaussian(grid)
        f0 = AveragedDensityMatrix(grid, 0.5 * np.array([np.outer(psi, psi.conj())] * 2))
        return solve_liouville_averaged(f0, fam, model, cfg)

    def test_y_independent_rhs_vanishes(self):
        grid, fam, model = self.grid_family_model(y_dependent=False)
        series = self.run_series(grid, fam, model)
        ident = energy_derivative_identity(series, fam, model)
        assert np.max(np.abs(ident.rhs)) <= 1e-12
        assert np.max(np.abs(ident.lhs)) <= 1e-5  # discretization only

    def test_nontrivial_identity_holds_to_discretization(self):
        grid, fam, model = self.grid_family_model()
        series = self.run_series(grid, fam, model)
        ident = energy_derivative_identity(series, fam, model)
        scale = max(np.max(np.abs(ident.lhs)), np.max(np.abs(ident.rhs)))
        assert np.max(np.abs(ident.lhs - ident.rhs)) <= 1e-3 * scale

    def test_single_state_static_conservation(self):
        grid = SpatialGrid(1, 64, 20.0)
        well = shape_field(grid, "sech2", amplitude=-1.5, width=1.0)
        fam = PotentialFamily(grid, well[None, :])
        model = MarkovModel(np.zeros((1, 1)))
        dt, gap = 1e-4, 2e-2
        times = np.round(np.arange(0.0, 0.2 + gap / 2, gap) / dt) * dt
        cfg = SolverConfig(dt=dt, sample_times=times)
        psi = gaussian(grid)
        f0 = AveragedDensityMatrix(grid, np.outer(psi, psi.conj()))
        series = solve_liouville_averaged(f0, fam, model, cfg)
        ident = energy_derivative_identity(series, fam, model)
        assert np.max(np.abs(ident.rhs)) <= 1e-12
        assert np.max(np.abs(ident.lhs)) <= 1e-8

    def test_sign_against_exact_generator_oracle(self):
        # independent oracle: evaluate dE/dt directly from the generator
        # df/dt = -i[(-Lap + V_y), f_y] - (A f)_y at a stored snapshot; the
        # commutator part drops under the trace, fixing the flux sign
        from stochnls.grid import dense_laplacian
        from stochnls.potential import a_of_hv

        grid, fam, model = self.grid_family_model()
        series = self.run_series(grid, fam, model, dt=1e-4, T=0.1)
        f = series[-1].f
        L = dense_laplacian(grid)
        h = model.ground_state()
        vol = grid.cell_volume
        Af = np.tensordot(model.A, f, axes=(1, 0))
        dE = 0.0
        for y in range(2):
            Hy = L + np.diag(fam.V[y])
            dfdt = -1j * (Hy @ f[y] - f[y] @ Hy) - Af[y]
            dE += h[y] * vol * float(np.einsum("ij,ji->", Hy, dfdt).real)
        hv, _ = a_of_hv(fam, model)
        flux = sum(vol * float(np.sum(hv[y] * f[y].diagonal().real))
                   for y in range(2))
        assert dE == pytest.approx(-flux, rel=1e-10)

    def test_requires_uniform_sampling(self):
        grid, fam, model = self.grid_family_model()
        cfg = SolverConfig(dt=0.01, sample_times=np.array([0.0, 0.1, 0.3]))
        psi = gaussian(grid)
        f0 = AveragedDensityMatrix(grid, 0.5 * np.array([np.outer(psi, psi.conj())] * 2))
        series = solve_liouville_averaged(f0, fam, model, cfg)
        with pytest.raises(ValueError):
            energy_derivative_identity(series, fam, model)


class TestFeynmanKacResidual:
    def test_time_zero_and_alignment(self):
        grid = SpatialGrid(1, 32, 10.0)
        well = shape_field(grid, "sech2", amplitude=-1.0, width=1.0)
        fam = PotentialFamily(grid, np.vstack([well, 0.5 * well]))
        psi = gaussian(grid)
        f0 = np.zeros((2, grid.size, grid.size), dtype=complex)
        f0[0] = np.outer(psi, psi.conj())
        snap = AveragedDensityMatrix(grid, f0, t=0.0)
        lhs0 = grid.cell_volume * np.sum(np.abs(fam.V[0]) * np.abs(psi) ** 2)
        res = feynman_kac_residual(np.array([0.0]), np.array([lhs0]), [snap], fam)
        assert res["relative"][0] <= 1e-10

    def test_zero_potential_floor(self):
        grid = SpatialGrid(1, 32, 10.0)
        fam = PotentialFamily(grid, np.zeros((1, grid.size)))
        snap = AveragedDensityMatrix(grid, np.eye(grid.size, dtype=complex), t=0.0)
        res = feynman_kac_residual(np.array([0.0]), np.array([0.0]), [snap], fam)
        assert res["relative"][0] == 0.0
        assert res["integrated_relative"] == 0.0

    def test_misaligned_times_rejected(self):
        grid = SpatialGrid(1, 32, 10.0)
        fam = PotentialFamily(grid, np.zeros((1, grid.size)))
        snap = AveragedDensityMatrix(grid, np.eye(grid.size, dtype=complex), t=0.5)
        with pytest.raises(ValueError):
            feynman_kac_residual(np.array([0.0]), np.array([0.0]), [snap], fam)


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.linspace(2.0, 60.0, 80)
        fit = decay_fit(t, 3.7 * t**-1.5, (5.0, 50.0))
        assert abs(fit.slope + 1.5) <= 1e-6
        assert fit.residual <= 1e-12
        assert fit.confidence_halfwidth <= 1e-6

    def test_constant_series(self):
        t = np.linspace(1.0, 10.0, 30)
        fit = decay_fit(t, np.full(30, 2.2), (1.0, 10.0))
        assert abs(fit.slope) <= 1e-12

    def test_nonpositive_rejected(self):
        t = np.linspace(1.0, 10.0, 10)
        v = np.ones(10)
        v[4] = 0.0
        with pytest.raises(ValueError):
            decay_fit(t, v, (1.0, 10.0))


class TestStrichartzNorm:
    def test_zero_series(self):
        grid = SpatialGrid(1, 32, 8.0)
        fields = np.zeros((5, grid.size), dtype=complex)
        assert strichartz_norm(grid, fields, dt=0.1, p_t=2, space_exponents=(6, 2)) == 0.0

    def test_constant_series_exact(self):
        grid = SpatialGrid(1, 64, 16.0)
        psi = WaveField(grid, gaussian(grid))
        T, steps = 2.0, 20
        fields = np.tile(psi.values, (steps + 1, 1))
        from stochnls.grid import lorentz_norm

        got = strichartz_norm(grid, fields, dt=T / steps, p_t=2, space_exponents=(6, 2))
        assert got == pytest.approx(np.sqrt(T) * lorentz_norm(psi, 6, 2), rel=1e-12)

    def test_refinement_stability_d3(self):
        # free evolution in d=3: the space-time norm is grid-converged
        from stochnls.grid import laplacian_symbol
        from stochnls.grid import lorentz_norm  # noqa: F401

        ratios = []
        for n in (16, 32):
            grid = SpatialGrid(3, n, 16.0)
            L = grid.box_length
            vals = np.ones(grid.size, dtype=complex)
            for c in grid.coordinates():
                x = ((c - L / 2 + L / 2) % L) - L / 2
                vals = vals * np.exp(-x**2)
            vals /= np.sqrt(grid.cell_volume * np.sum(np.abs(vals) ** 2))
            sym = laplacian_symbol(grid).reshape(grid.shape)
            fields = []
            for t in np.linspace(0.0, 1.0, 11):
                spec = np.fft.fftn(vals.reshape(grid.shape))
                evolved = np.fft.ifftn(np.exp(1j * t * sym) * spec).reshape(-1)
                fields.append(evolved)
            ratios.append(strichartz_norm(grid, np.array(fields), dt=0.1, p_t=2,
                                          space_exponents=(6, 2)))
        assert abs(ratios[1] - ratios[0]) <= 0.1 * ratios[0]

    def test_exponent_validation(self):
        grid = SpatialGrid(1, 32, 8.0)
        fields = np.tile(gaussian(grid), (3, 1))
        with pytest.raises(ValueError):
            strichartz_norm(grid, fields, dt=0.1, p_t=0.5, space_exponents=(6, 2))
        with pytest.raises(ValueError):
            strichartz_norm(grid, fields, dt=0.1, p_t=2, space_exponents=(0.5, 2))


class TestWraparound:
    def test_centered_gaussian_negligible(self):
        grid = SpatialGrid(1, 256, 60.0)
        psi = WaveField(grid, gaussian(grid))
        assert wraparound_mass(psi) <= 1e-12

    def test_edge_mass_detected(self):
        grid = SpatialGrid(1, 256, 60.0)
        psi = WaveField(grid, gaussian(grid, center=0.5))  # at the seam
        assert wraparound_mass(psi) > 0.5


class TestArtifactEncoding:
    def test_csv_reads_back_bitwise(self, tmp_path):
        # 0.1 + 0.2 and most random doubles need all 17 significant digits
        rng = np.random.default_rng(5)
        floats = np.concatenate([[0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3],
                                 rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)])
        rows = [(float(v), 1, np.nan) for v in floats]
        path = tmp_path / "table.csv"
        write_csv(path, ["x", "count", "missing"], rows)
        lines = path.read_text().split("\n")
        assert lines[0] == "x,count,missing" and lines[-1] == ""
        assert all(line.endswith(",1,nan") for line in lines[1:-1])
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert back.shape == (floats.size, 3)
        assert np.array_equal(back[:, 0].view(np.uint64), floats.view(np.uint64))
        assert np.all(back[:, 1] == 1) and np.all(np.isnan(back[:, 2]))

    def test_json_is_sorted_indent_two(self, tmp_path):
        doc = {"seed": 7, "config": {"grid.n": 64, "markov.matrix": [[1.0, -1.0], [-1.0, 1.0]],
                                     "grid.L": 20.0},
               "blas_thread_env": {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None},
               "criterion_runtime_s": {}, "wall_time_s": 0.25}
        path = tmp_path / "manifest.json"
        write_json(path, doc)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True)
