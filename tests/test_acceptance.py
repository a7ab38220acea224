"""Acceptance battery at full scale.

Each test runs one criterion of the verification battery at its stated
problem size, prints one PASS/FAIL line with the measured numbers, and
asserts the gate (and the runtime budget where one is stated).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import json
import os

import numpy as np
import pytest

from stochnls.grid import SpatialGrid
from stochnls.spectral import assemble_h, eigen_analysis
from stochnls.verify import (
    FULL_SCALE,
    _switching_family,
    _two_state_model,
    c1_unitarity,
    c2_free_flow_oracle,
    c3_tensor_oracle,
    c4_mc_vs_pde_scalar,
    c5_feynman_kac,
    c6_liouville_structure,
    c7_energy_identity,
    c8_resonance,
    c9_kato_birman,
    c10_picard,
    c11_bound_state_decay,
)

SEED = 7


def report(entry, *keys):
    status = "PASS" if entry["passed"] else "FAIL"
    details = ", ".join(f"{k}={entry[k]:.3e}" if isinstance(entry[k], float)
                        else f"{k}={entry[k]}" for k in keys)
    print(f"\nACCEPTANCE {entry['id']} {status}: {entry['name']} "
          f"({details}) [{entry['runtime_s']:.1f}s]", flush=True)
    return entry


def test_c01_unitarity():
    entry = report(c1_unitarity(FULL_SCALE, SEED),
                   "relative_drift_eps0", "relative_drift_eps_small")
    assert entry["passed"]
    assert entry["runtime_s"] < 5.0


def test_c02_free_flow_oracle():
    entry = report(c2_free_flow_oracle(FULL_SCALE, SEED),
                   "linf_error_t1", "decay_slope", "wraparound_mass_t50")
    assert entry["passed"]
    assert entry["runtime_s"] < 30.0


def test_c03_tensor_factorization_oracle():
    entry = report(c3_tensor_oracle(FULL_SCALE, SEED), "max_norm_discrepancy")
    assert entry["passed"]
    assert entry["runtime_s"] < 60.0


def test_c04_mc_vs_pde_scalar():
    entry = report(c4_mc_vs_pde_scalar(FULL_SCALE, SEED),
                   "max_err_over_3se", "slope")
    assert entry["passed"]
    assert entry["runtime_s"] < 600.0


def test_c05_feynman_kac():
    entry = report(c5_feynman_kac(FULL_SCALE, SEED),
                   "t0_relative", "max_relative", "integrated_relative")
    assert entry["passed"]
    assert entry["runtime_s"] < 900.0


def test_c06_liouville_structure():
    entry = report(c6_liouville_structure(FULL_SCALE, SEED),
                   "trace_drift", "hermiticity_residual", "min_eigenvalue")
    assert entry["passed"]


def test_c07_energy_identity():
    entry = report(c7_energy_identity(FULL_SCALE, SEED),
                   "relative_residual", "shrink_factor", "trivial_lhs_relative")
    assert entry["passed"]


def test_c08_resonance():
    entry = report(c8_resonance(FULL_SCALE, SEED),
                   "trivial_min_abs_imag", "resonance_min_imag", "resonance_gate")
    assert entry["passed"]
    assert entry["runtime_s"] < 120.0
    # exploratory, not gated: the resonance width grows with the contrast
    grid = SpatialGrid(1, FULL_SCALE.resonance_n, 40.0)
    widths = [float(np.min(eigen_analysis(assemble_h(
        _switching_family(grid, contrast=c), _two_state_model(), cap=4096))
        .discrete_subset().imag)) for c in (0.25, 0.5)]
    widths.append(entry["resonance_min_imag"])  # contrast 1.0 is C8's family
    print(f"  resonance widths by contrast 0.25/0.5/1.0 (exploratory): {widths}")


def test_c08_fails_on_trivial_randomness(monkeypatch):
    # the nontriviality precondition is part of C8's gate; the default
    # scale suffices to see it
    from stochnls import verify
    from stochnls.potential import NontrivialityReport

    monkeypatch.setattr(verify, "check_nontriviality", lambda family, h: NontrivialityReport(
        "trivial_case_2", True, False, np.array([], dtype=int)))
    assert c8_resonance(verify.DEFAULT_SCALE, SEED)["passed"] is False


def test_c09_kato_birman():
    entry = report(c9_kato_birman(FULL_SCALE, SEED),
                   "scan_global_min", "identity_defect_at_minus_1e4i",
                   "max_resolvent_identity_residual")
    assert entry["passed"]


def test_c10_picard_contraction():
    entry = report(c10_picard(FULL_SCALE, SEED),
                   "contraction_ratios", "lipschitz_ratio")
    assert entry["passed"]


def test_c11_bound_state_decay():
    entry = report(c11_bound_state_decay(FULL_SCALE, SEED),
                   "nontrivial_mass_decay", "gauge_mass_change")
    assert entry["passed"]


def test_c12_verify_all_determinism(tmp_path):
    # the CLI battery, run twice with one seed, must write byte-identical
    # artifacts; manifest.json is the one file that records wall time
    from stochnls.cli import parse_config, run

    cfg = parse_config(text="")  # shipped defaults: verify-all, default scale
    assert cfg["experiment.kind"] == "verify-all"
    codes = [run(cfg, str(tmp_path / sub), seed=SEED) for sub in ("a", "b")]
    dirs = [os.path.join(tmp_path, sub, os.listdir(tmp_path / sub)[0])
            for sub in ("a", "b")]
    compared = []
    for name in sorted(os.listdir(dirs[0])):
        if name == "manifest.json":
            continue
        blobs = [open(os.path.join(d, name), "rb").read() for d in dirs]
        assert blobs[0] == blobs[1], f"{name} differs between identical runs"
        compared.append(name)
    passed = codes == [0, 0] and len(compared) >= 2
    print(f"\nACCEPTANCE C12 {'PASS' if passed else 'FAIL'}: artifact "
          f"determinism (exit_codes={codes}, files={compared})", flush=True)
    assert codes == [0, 0]
    assert "report.json" in compared
    report_doc = json.loads(open(os.path.join(dirs[0], "report.json")).read())
    assert all(entry["passed"] for entry in report_doc.values())
