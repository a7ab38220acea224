import numpy as np
import pytest

from stochnls.grid import (
    SpatialGrid,
    WaveField,
    apply_multiplier,
    blas_padded,
    cis,
    convolution_spectrum,
    free_flow,
    kinetic_phase,
    laplacian_symbol,
    lebesgue_norm,
    lorentz_norm,
    parity_blocks,
    spectral_convolution,
    sum_norm,
    transform_rows,
)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return WaveField(grid, vals)


class TestSpatialGrid:
    def test_spacing_exact(self):
        g = SpatialGrid(1, 256, 2.0)
        assert g.spacing * g.points_per_axis == g.box_length

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            SpatialGrid(1, 48, 1.0)

    def test_field_length_checked(self):
        g = SpatialGrid(2, 8, 1.0)
        with pytest.raises(ValueError):
            WaveField(g, np.zeros(10))

    def test_nonfinite_rejected(self):
        g = SpatialGrid(1, 4, 1.0)
        with pytest.raises(ValueError):
            WaveField(g, np.array([0.0, np.nan, 0.0, 0.0]))

    def test_offsets_enumerated(self):
        g = SpatialGrid(1, 4, 4.0)  # points 0, 1, 2, 3; the middle is 2
        assert g.offsets()[0].tolist() == [-2.0, -1.0, 0.0, 1.0]
        assert g.offsets(0.0)[0].tolist() == [0.0, 1.0, -2.0, -1.0]
        assert g.offsets(3.5)[0].tolist() == [0.5, 1.5, -1.5, -0.5]
        g2 = SpatialGrid(2, 4, 4.0)
        x, y = g2.offsets((0.0, 1.0))
        assert np.array_equal(x, g2.offsets(0.0)[0])
        assert y.reshape(4, 4)[0].tolist() == [-1.0, 0.0, 1.0, -2.0]

    def test_reflect_involution(self):
        g = SpatialGrid(2, 8, 3.0)
        f = random_field(g, 0)
        twice = g.reflect(g.reflect(f.values))
        assert np.array_equal(twice, f.values)


class TestLaplacianSymbol:
    def test_zero_mode(self):
        g = SpatialGrid(2, 8, 5.0)
        assert laplacian_symbol(g)[0] == 0.0

    def test_d1_n4_enumerated(self):
        # signed frequencies for n=4, L=2*pi are {0, 1, -2, -1}
        g = SpatialGrid(1, 4, 2.0 * np.pi)
        np.testing.assert_allclose(laplacian_symbol(g), [0.0, 1.0, 4.0, 1.0], atol=1e-14)

    def test_box_scaling(self):
        g1 = SpatialGrid(1, 16, 1.0)
        g2 = SpatialGrid(1, 16, 2.0)
        np.testing.assert_allclose(laplacian_symbol(g1), 4.0 * laplacian_symbol(g2))

    def test_layout_matches_transform(self):
        # exp(i k x) must be an exact eigenvector of the symbol's layout
        g = SpatialGrid(1, 32, 4.0)
        x = g.axis_coordinates()
        k = g.axis_frequencies()[5]
        f = WaveField(g, np.exp(1j * k * x))
        spec = np.abs(transform_rows(g, f.values))
        assert np.argmax(spec) == 5
        assert laplacian_symbol(g)[5] == pytest.approx(k**2)

    def test_cached_symbol_is_read_only_and_bitwise_fresh(self):
        grid = SpatialGrid(2, 16, 5.0)
        sym = laplacian_symbol(grid)
        assert laplacian_symbol(grid) is sym
        k2 = grid.axis_frequencies() ** 2
        assert sym.tobytes() == (k2[:, None] + k2[None, :]).reshape(-1).tobytes()
        with pytest.raises(ValueError):
            sym[0] = 1.0


class TestTransform:
    def test_constant_concentrates_in_zero_mode(self):
        g = SpatialGrid(2, 16, 1.0)
        spec = transform_rows(g, np.full(g.size, 3.0 + 0j))
        assert abs(spec[0]) == pytest.approx(3.0 * np.sqrt(g.size))
        assert np.max(np.abs(spec[1:])) < 1e-12

    def test_parseval(self):
        g = SpatialGrid(1, 64, 3.0)
        f = random_field(g, 2)
        l2_phys = np.linalg.norm(f.values)
        l2_spec = np.linalg.norm(transform_rows(g, f.values))
        assert abs(l2_phys - l2_spec) < 1e-12 * l2_phys


class TestFreeFlow:
    def test_cached_phase_is_read_only_and_bitwise_fresh(self):
        grid = SpatialGrid(2, 16, 5.0)
        phase = kinetic_phase(grid, 0.37)
        assert kinetic_phase(grid, 0.37) is phase
        fresh = np.exp(1j * 0.37 * laplacian_symbol(grid).reshape(grid.shape))
        assert phase.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            phase[0, 0] = 0.0
        for tau in np.linspace(0.1, 2.0, 20):
            kinetic_phase(grid, tau)
        assert kinetic_phase.cache_info().currsize <= 8

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_batch_axes_match_row_by_row(self, dim, n):
        grid = SpatialGrid(dim, n, 7.0)
        rng = np.random.default_rng(3)
        shape = (3,) + grid.shape
        batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        phase = np.exp(0.4j * laplacian_symbol(grid).reshape(grid.shape))
        out = free_flow(grid, batch, 0.4)
        for row, got in zip(batch, out):
            ref = np.fft.ifftn(phase * np.fft.fftn(row))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
        back = free_flow(grid, out, -0.4)
        np.testing.assert_allclose(back, batch, rtol=0, atol=1e-13)

    def test_kernel_multiplier_is_conjugation(self):
        # exp(i tau (|k1|^2 - |k2|^2)) on a kernel f(x1, x2) is U f U^H
        grid = SpatialGrid(1, 32, 9.0)
        tau = 0.3
        p = kinetic_phase(grid, tau)
        U = np.fft.ifft(p[:, None] * np.fft.fft(np.eye(grid.size), axis=0), axis=0)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
        f = a + a.conj().transpose(0, 2, 1)
        got = apply_multiplier(f, p[:, None] * p.conj()[None, :])
        for y in range(2):
            np.testing.assert_allclose(got[y], U @ f[y] @ U.conj().T, rtol=0,
                                       atol=1e-13 * np.abs(f).max())


    @pytest.mark.parametrize("pair", [False, True])
    def test_out_buffer_is_bitwise_equal(self, pair):
        # the averaged march writes both transforms into a spare buffer
        grid = SpatialGrid(1, 32, 9.0)
        p = kinetic_phase(grid, 0.3)
        phase = p[:, None] * p.conj()[None, :] if pair else p
        rng = np.random.default_rng(5)
        shape = (3,) + phase.shape
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        buf = np.empty_like(values)
        got = apply_multiplier(values, phase, out=buf)
        want = apply_multiplier(values, phase)
        assert got is buf
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        # the path march transforms its state in place
        assert apply_multiplier(values, phase, out=values) is values
        assert np.array_equal(values.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_convolution_into_its_input_is_bitwise_equal(self, dim, n):
        # the march's Hartree field overwrites the density it convolves
        grid = SpatialGrid(dim, n, 7.0)
        rng = np.random.default_rng(6)
        a = convolution_spectrum(grid, np.exp(-grid.offsets()[0] ** 2))
        b = rng.random((3, grid.size))
        want = spectral_convolution(grid, a, b)
        got = spectral_convolution(grid, a, b, out=b)
        assert np.shares_memory(got, b)
        assert b.tobytes() == got.tobytes() == want.tobytes()


class TestCis:
    """cos x + i sin x in place of np.exp(1j * x): bitwise on numpy 2.4.6
    with glibc 2.36 (tests/test_batch.py's plain march keeps np.exp as the
    guard), and within an ulp wherever cos, sin and exp are each faithful."""

    ARGS = np.concatenate((
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, np.pi / 2, -np.pi, 1e5, -1e5],
        *(scale * np.random.default_rng(9).uniform(-1.0, 1.0, 4000)
          for scale in (1e-12, 1e-3, 1.0, 40.0, 1e3, 1e5))))

    def test_within_an_ulp_of_exp(self):
        got, want = cis(self.ARGS), np.exp(1j * self.ARGS)
        np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)
        assert np.all(np.sign(got.imag) == np.sign(want.imag))

    def test_into_a_buffer_is_the_fresh_result(self):
        x = self.ARGS[:24000].reshape(6, -1)
        buf = np.full(x.shape, np.nan, dtype=complex)
        assert cis(x, out=buf) is buf
        assert buf.tobytes() == cis(x).tobytes()


class TestLebesgueNorm:
    def test_zero_field(self):
        g = SpatialGrid(1, 8, 1.0)
        assert lebesgue_norm(WaveField(g, np.zeros(8)), 2) == 0.0

    def test_single_cell_l1(self):
        g = SpatialGrid(2, 8, 2.0)
        vals = np.zeros(g.size)
        vals[11] = 1.0
        assert lebesgue_norm(WaveField(g, vals), 1) == pytest.approx(g.cell_volume)

    def test_l2_definition(self):
        g = SpatialGrid(1, 32, 1.5)
        f = random_field(g, 3)
        expected = np.sqrt(g.cell_volume * np.sum(np.abs(f.values) ** 2))
        assert lebesgue_norm(f, 2) == pytest.approx(expected, rel=1e-14)

    def test_invalid_p(self):
        g = SpatialGrid(1, 8, 1.0)
        with pytest.raises(ValueError):
            lebesgue_norm(random_field(g, 0), 0.5)


class TestLorentzNorm:
    def test_diagonal_matches_lebesgue(self):
        g = SpatialGrid(1, 64, 2.0)
        for seed in range(10):
            f = random_field(g, seed)
            for p in (1.5, 2.0, 3.0, 6.0):
                assert lorentz_norm(f, p, p) == pytest.approx(
                    lebesgue_norm(f, p), rel=1e-10
                )

    def test_indicator_closed_form(self):
        # indicator of measure m: norm = (p/q)^{1/q} m^{1/p}
        g = SpatialGrid(1, 64, 4.0)
        vals = np.zeros(g.size)
        vals[10:22] = 1.0
        m = 12 * g.cell_volume
        f = WaveField(g, vals)
        for p, q in [(2.0, 1.0), (6.0, 2.0), (1.5, 3.0)]:
            assert lorentz_norm(f, p, q) == pytest.approx(
                (p / q) ** (1.0 / q) * m ** (1.0 / p), rel=1e-12
            )

    def test_weak_norm_indicator(self):
        g = SpatialGrid(1, 32, 8.0)
        vals = np.zeros(g.size)
        vals[:4] = 2.0
        m = 4 * g.cell_volume
        assert lorentz_norm(WaveField(g, vals), 2.0, np.inf) == pytest.approx(
            2.0 * np.sqrt(m)
        )

    def test_homogeneity(self):
        g = SpatialGrid(1, 32, 1.0)
        f = random_field(g, 4)
        scaled = WaveField(g, 3.7 * f.values)
        assert lorentz_norm(scaled, 2.5, 1.5) == pytest.approx(
            3.7 * lorentz_norm(f, 2.5, 1.5), rel=1e-12
        )

    def test_exponent_validation(self):
        g = SpatialGrid(1, 8, 1.0)
        f = random_field(g, 0)
        with pytest.raises(ValueError):
            lorentz_norm(f, 0.8, 2.0)
        with pytest.raises(ValueError):
            lorentz_norm(f, 2.0, 0.5)
        # quasi-norm range is allowed for q = inf only
        assert lorentz_norm(f, 0.5, np.inf) > 0.0


class TestSumNorm:
    def test_zero(self):
        g = SpatialGrid(1, 8, 1.0)
        assert sum_norm(WaveField(g, np.zeros(8))) == 0.0

    def test_upper_bound(self):
        g = SpatialGrid(1, 64, 5.0)
        for seed in range(20):
            f = random_field(g, seed)
            assert sum_norm(f) <= min(lebesgue_norm(f, 2), lebesgue_norm(f, np.inf)) + 1e-14

    def test_single_spike(self):
        for L in (0.5, 2.0, 64.0):
            g = SpatialGrid(1, 16, L)
            vals = np.zeros(g.size)
            vals[3] = 1.0
            expected = min(np.sqrt(g.cell_volume), 1.0)
            assert sum_norm(WaveField(g, vals)) == pytest.approx(expected)

    def test_lower_bound_against_enumerated_splittings(self):
        # Oracle: the best splitting over clip thresholds and random splits.
        g = SpatialGrid(1, 16, 2.0)
        rng = np.random.default_rng(7)
        for seed in range(10):
            f = random_field(g, 100 + seed)
            mags = np.abs(f.values)
            best = min(lebesgue_norm(f, 2), lebesgue_norm(f, np.inf))
            for lam in np.concatenate(([0.0], mags)):
                clipped = np.clip(mags, None, lam) * np.exp(1j * np.angle(f.values))
                rest = f.values - clipped
                best = min(
                    best,
                    lebesgue_norm(WaveField(g, rest), 2)
                    + lebesgue_norm(WaveField(g, clipped), np.inf),
                )
            for _ in range(50):
                b = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
                a = f.values - b
                best = min(
                    best,
                    lebesgue_norm(WaveField(g, a), 2)
                    + lebesgue_norm(WaveField(g, b), np.inf),
                )
            assert sum_norm(f) >= 0.5 * best



@pytest.mark.parametrize("n, m", [(8, 1), (16, 2)])
def test_parity_block_gather_is_the_basis(n, m):
    """The gather map read off the basis b_a = weight_a (e_index_a + sign
    e_mirror_a) itself: extend(eye) is B, and (pos, coef) are B's column of
    the one entry per row and that entry (0 on a row the block misses), so
    extend_kernels is coef_i coef_j F[pos_i, pos_j] and extend_diagonal its
    diagonal, bit for bit."""
    grid = SpatialGrid(1, n, 4.0)
    rng = np.random.default_rng(n)
    for block in parity_blocks(grid, m):
        k = block.index.size
        B = np.zeros((block.size, k))
        for a in range(k):
            B[block.index[a], a] += block.weight[a]
            B[block.mirror[a], a] += block.sign * block.weight[a]
        pos, coef = block.gather
        assert np.array_equal(block.extend(np.eye(k)), B)
        assert np.array_equal(coef, B.sum(axis=1))
        assert np.array_equal(pos, np.argmax(B != 0, axis=1))
        F = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
        dense = block.extend_kernels(F)
        assert np.array_equal(dense, np.multiply.outer(coef, coef) * F[:, pos][:, :, pos])
        assert np.array_equal(block.extend_diagonal(F), np.diagonal(dense, axis1=1, axis2=2))
        assert np.max(np.abs(dense - B @ F @ B.T)) <= 1e-15 * np.max(np.abs(F))


def test_blas_padded_is_a_multiple_of_eight_or_the_cap():
    """Over counts 1 to 1,100 and caps n = 2, 4, ..., 1024: the least
    multiple of eight at or above the count, or the cap where that is less;
    without a cap, always that multiple."""
    for count in range(1, 1101):
        multiple = next(x for x in range(count, count + 8) if x % 8 == 0)
        assert blas_padded(count) == multiple
        for cap in (2 ** a for a in range(1, 11)):
            assert blas_padded(count, cap) == min(multiple, cap)
