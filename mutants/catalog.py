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
]
