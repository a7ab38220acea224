"""The mutants: each a small fault in the library, and the tests that must
catch it.

An entry names a file under the repository root, an old text that occurs in
it exactly once, the new text that replaces it, and the pytest node ids
that must fail with the mutant in place.  A mutant whose old text is gone
or no longer unique is reported as stale, not skipped.
"""

MUTANTS = [
    {
        "name": "constant-run-drops-c",
        "why": "a constant row's run of k steps forgets the potential level c",
        "file": "src/stochnls/propagator.py",
        "old": "(cfg.dt * (symbol + V[state, 0]))",
        "new": "(cfg.dt * symbol)",
        "tests": [
            "tests/test_propagator.py::TestEigenbasisEngine::test_constant_levels_are_a_path_phase",
        ],
    },
    {
        "name": "constant-run-one-step-short",
        "why": "a constant row's run takes k - 1 steps",
        "file": "src/stochnls/propagator.py",
        "old": "np.exp(1j * k[lo:hi][run, None] *",
        "new": "np.exp(1j * (k[lo:hi][run, None] - 1) *",
        "tests": [
            "tests/test_propagator.py::TestFreeEvolution::test_gaussian_oracle",
            "tests/test_propagator.py::TestEigenbasisEngine::test_constant_levels_are_a_path_phase",
        ],
    },
    {
        "name": "constant-run-sign-flipped",
        "why": "a constant row's run turns its phases backwards in time",
        "file": "src/stochnls/propagator.py",
        "old": "np.exp(1j * k[lo:hi][run, None] *",
        "new": "np.exp(-1j * k[lo:hi][run, None] *",
        "tests": [
            "tests/test_propagator.py::TestFreeEvolution::test_gaussian_oracle",
            "tests/test_propagator.py::TestEigenbasisEngine::test_constant_levels_are_a_path_phase",
        ],
    },
    {
        "name": "outer-product-conjugated",
        "why": "the reduce adds conj(psi) psi^T in place of psi psi^*",
        "file": "src/stochnls/ensemble.py",
        "old": "outer[j, y] += rows.T @ rows.conj()",
        "new": "outer[j, y] += rows.conj().T @ rows",
        "tests": [
            "tests/test_batch.py::test_reduce_matches_one_sample_at_a_time",
        ],
    },
    {
        "name": "switching-family-ignores-contrast",
        "why": "every contrast builds the contrast-1 family, so the widths cannot grow",
        "file": "src/stochnls/verify.py",
        "old": "[-contrast, contrast]",
        "new": "[-1.0, 1.0]",
        "tests": [
            "tests/test_acceptance.py::test_c08_resonance",
        ],
    },
    {
        "name": "two-state-coupling-sign-flipped",
        "why": "R's coupling blocks get one sign, so R is symmetric and the widths vanish",
        "file": "src/stochnls/spectral.py",
        "old": "R[:k, k:] = -M.imag[:k, k:]",
        "new": "R[:k, k:] = M.imag[:k, k:]",
        "tests": [
            "tests/test_spectral.py::TestTwoStateSimilarity::test_real_solve_keeps_the_spectrum",
            "tests/test_acceptance.py::test_c08_resonance",
        ],
    },
    {
        "name": "two-state-shift-dropped",
        "why": "the real solve returns spec(R) without the shift i gamma",
        "file": "src/stochnls/spectral.py",
        "old": "vals = vals + 1j * ham.A[0, 0]",
        "new": "vals = vals + 0j",
        "tests": [
            "tests/test_spectral.py::TestTwoStateSimilarity::test_real_solve_keeps_the_spectrum",
        ],
    },
    {
        "name": "chain-mode-sign-flipped",
        "why": "the chain modes get h - i mu_j, in the lower half-plane",
        "file": "src/stochnls/spectral.py",
        "old": "levels[None, :] + 1j * mu[:, None]",
        "new": "levels[None, :] - 1j * mu[:, None]",
        "tests": [
            "tests/test_spectral.py::TestChainModes::test_equal_rows_split_into_chain_modes",
        ],
    },
    {
        "name": "chain-mode-localizations-repeated",
        "why": "each level's localization is repeated in place of tiled over the mu_j",
        "file": "src/stochnls/spectral.py",
        "old": "np.tile(loc, ham.m)",
        "new": "np.repeat(loc, ham.m)",
        "tests": [
            "tests/test_spectral.py::TestChainModes::test_equal_rows_split_into_chain_modes",
        ],
    },
    {
        "name": "psd-odd-half-dropped",
        "why": "an even kernel is solved on its even half alone",
        "file": "src/stochnls/averaged.py",
        "old": "return [b for b in (even, odd) if b.index.size]",
        "new": "return [b for b in (even,) if b.index.size]",
        "tests": [
            "tests/test_averaged.py::TestDensityTracePsd::test_odd_negative_direction_is_reported",
            "tests/test_averaged.py::test_psd_check_solves_even_kernels_on_their_halves",
        ],
    },
    {
        "name": "psd-evenness-test-skipped",
        "why": "every kernel is split into parity halves, even or not",
        "file": "src/stochnls/averaged.py",
        "old": "if is_even(f.grid, fields) and np.all(coupling <= 1e-12 * scale):",
        "new": "if True:",
        "tests": [
            "tests/test_averaged.py::TestDensityTracePsd::test_stacked_solve_matches_per_state_loop",
            "tests/test_averaged.py::test_psd_check_solves_even_kernels_on_their_halves",
        ],
    },
    {
        "name": "kb-no-singular-fallback",
        "why": "a singular member of a KB stack raises out of the scan",
        "file": "src/stochnls/spectral.py",
        "old": "except np.linalg.LinAlgError:",
        "new": "except ZeroDivisionError:",
        "tests": [
            "tests/test_spectral.py::TestMinSingularValues::test_singular_member_reads_zero",
        ],
    },
    {
        "name": "kb-singular-reads-one",
        "why": "an exactly singular KB reads sigma_min = 1",
        "file": "src/stochnls/spectral.py",
        "old": "if len(KB) > 1 else np.zeros(1)",
        "new": "if len(KB) > 1 else np.ones(1)",
        "tests": [
            "tests/test_spectral.py::TestMinSingularValues::test_singular_member_reads_zero",
        ],
    },
    {
        "name": "kb-smallest-gram-eigenvalue",
        "why": "sigma_min read from the least eigenvalue of X^H X, not the largest",
        "file": "src/stochnls/spectral.py",
        "old": "@ X)[:, -1])",
        "new": "@ X)[:, 0])",
        "tests": [
            "tests/test_spectral.py::TestKBEigenbasis::test_lambda_in_free_spectrum",
        ],
    },
    {
        "name": "kb-chunk-reversed",
        "why": "a chunk's KB stack is built on its lambdas in reverse order",
        "file": "src/stochnls/spectral.py",
        "old": "_kb_matrices(*parts, lam_grid[chunk])",
        "new": "_kb_matrices(*parts, lam_grid[chunk][::-1])",
        "tests": [
            "tests/test_spectral.py::TestKBEigenbasis::test_lambda_in_free_spectrum",
        ],
    },
    {
        "name": "kb-forward-gram",
        "why": "sigma_min from eigvalsh(KB^H KB), which squares the condition number",
        "file": "src/stochnls/spectral.py",
        "old": "1.0 / np.sqrt(np.linalg.eigvalsh(X.conj().transpose(0, 2, 1) @ X)[:, -1])",
        "new": "np.sqrt(np.abs(np.linalg.eigvalsh(KB.conj().transpose(0, 2, 1) @ KB)[:, 0]))",
        "tests": [
            "tests/test_spectral.py::TestMinSingularValues::test_near_singular_lambdas_keep_the_svd_accuracy[trivial]",
        ],
    },
    {
        "name": "kb-gram-fallback-never-taken",
        "why": "every member is read from KB^H KB, however ill conditioned or singular",
        "file": "src/stochnls/spectral.py",
        "old": "gram = (least > 0) & (largest <= _KB_GRAM_KAPPA ** 2 * least)",
        "new": "gram = np.ones(len(KB), dtype=bool)",
        "tests": [
            "tests/test_spectral.py::TestMinSingularValues::test_mixed_stack_keeps_each_value_alone",
            "tests/test_spectral.py::TestMinSingularValues::test_near_singular_lambdas_keep_the_svd_accuracy[trivial]",
        ],
    },
    {
        "name": "kb-gram-reads-largest",
        "why": "the Gram read takes sqrt of KB^H KB's largest eigenvalue, sigma_max",
        "file": "src/stochnls/spectral.py",
        "old": "mins[gram] = np.sqrt(least[gram])",
        "new": "mins[gram] = np.sqrt(largest[gram])",
        "tests": [
            "tests/test_spectral.py::TestMinSingularValues::test_mixed_stack_keeps_each_value_alone",
            "tests/test_spectral.py::TestMinSingularValues::test_c9_grid_takes_both_reads_within_the_svd_error[64]",
        ],
    },
    {
        "name": "kb-gram-kappa-widened",
        "why": "the Gram read is taken up to kappa = 1e8, where its eps kappa^2 error shows",
        "file": "src/stochnls/spectral.py",
        "old": "_KB_GRAM_KAPPA = 2.0",
        "new": "_KB_GRAM_KAPPA = 1e8",
        "tests": [
            "tests/test_spectral.py::TestMinSingularValues::test_near_singular_lambdas_keep_the_svd_accuracy[trivial]",
        ],
    },
    {
        "name": "energy-identity-fields-swapped",
        "why": "the identity pairs A[hV] where V belongs and V where A[hV] does",
        "file": "src/stochnls/diagnostics.py",
        "old": "np.stack([family.V, a_of_hv(family, model)[0]])",
        "new": "np.stack([a_of_hv(family, model)[0], family.V])",
        "tests": [
            "tests/test_diagnostics.py::TestEnergyDerivativeIdentity::test_y_independent_rhs_vanishes",
        ],
    },
    {
        "name": "kinetic-sign-flipped",
        "why": "the free flow turns backwards in time, exp(-i tau |k|^2)",
        "file": "src/stochnls/grid.py",
        "old": "np.exp(1j * tau * laplacian_symbol(grid).reshape(grid.shape))",
        "new": "np.exp(-1j * tau * laplacian_symbol(grid).reshape(grid.shape))",
        "tests": [
            "tests/test_propagator.py::TestFreeEvolution::test_gaussian_oracle",
        ],
    },
    {
        "name": "strang-next-step-cut-dropped",
        "why": "a fused Strang hop ignores a cut in the row's next substep",
        "file": "src/stochnls/propagator.py",
        "old": "cut[:, :S] | cut[:, 1:]",
        "new": "cut[:, :S]",
        "tests": [
            "tests/test_batch.py::test_batched_rows_match_single_path_march[None-0.0-2]",
        ],
    },
    {
        "name": "scalar-mixing-skipped",
        "why": "the scalar march's hop copies g in place of mixing it by e^{-tau A}",
        "file": "src/stochnls/averaged.py",
        "old": ("np.dot(mix, leave(g, kick).view(np.float64).reshape(m, -1),\n"
                "               out=spare.view(np.float64).reshape(m, -1))"),
        "new": ("np.copyto(spare.view(np.float64).reshape(m, -1),\n"
                "                  leave(g, kick).view(np.float64).reshape(m, -1))"),
        "tests": [
            "tests/test_averaged.py::TestScalarAveraged::test_free_case_factorizes_exactly",
            "tests/test_averaged.py::TestFusedMarch::test_matches_per_step_composition",
        ],
    },
    {
        "name": "offsets-shifted-half-box",
        "why": "the torus offsets land in [-L/2, L/2) shifted by half a box",
        "file": "src/stochnls/grid.py",
        "old": "((x - c + L / 2.0) % L) - L / 2.0",
        "new": "((x - c) % L) - L / 2.0",
        "tests": [
            "tests/test_grid.py::TestSpatialGrid::test_offsets_enumerated",
        ],
    },
    {
        "name": "estimate-f-not-symmetrized",
        "why": "estimate_f keeps outer_sums / N, Hermitian only up to roundoff",
        "file": "src/stochnls/ensemble.py",
        "old": "f = 0.5 * (f + f.conj().transpose(0, 2, 1))  # Hermitian bit for bit",
        "new": "f = f  # not symmetrized",
        "tests": [
            "tests/test_ensemble.py::TestEstimates::test_estimate_f_symmetrizes_a_roundoff_asymmetry",
        ],
    },
]
