"""The twelve-point verification battery.

Each criterion is a standalone function taking a :class:`VerifyScale` and
a master seed, returning a dict with a ``passed`` flag and the measured
numbers.  ``verify_all`` runs the whole battery and is what the CLI's
``verify-all`` subcommand executes at the fast default scale; the
acceptance test suite runs the same functions at the full (spec-stated)
scale.  All randomness is seeded, so every reported number is reproducible
bit-for-bit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .averaged import (
    AveragedDensityMatrix,
    AveragedField,
    solve_liouville_averaged,
    solve_scalar_averaged,
    structure_table,
    write_trace_csv,
)
from .diagnostics import (
    decay_fit,
    energy_derivative_identity,
    feynman_kac_residual,
    strichartz_norm,
    wraparound_mass,
)
from .ensemble import (
    EnsembleConfig,
    estimate_g,
    feynman_kac_lhs,
    run_ensemble,
    write_summary_json,
)
from .grid import SpatialGrid, WaveField, dense_laplacian, lebesgue_norm
from .markov import MarkovModel, sample_path, sample_paths
from .potential import (
    HartreeKernel,
    PotentialFamily,
    check_nontriviality,
    make_amplitude_family,
    shape_field,
)
from .propagator import SolverConfig, evolve_path, evolve_paths, picard_sequence
from .spectral import (
    assemble_h,
    assemble_kb,
    default_lambda_grid,
    eigen_analysis,
    kb_scan,
    resolvent_identity_residual,
)

# Not used here: the benchmark's tracer (perfbench/layers.py) wraps it under
# this module's name.
from .averaged import psd_check  # noqa: F401

__all__ = ["VerifyScale", "DEFAULT_SCALE", "FULL_SCALE", "CRITERIA", "verify_all"]

EPSILON_SMALL = 0.05  # shipped "small" Hartree coupling preset


@dataclass(frozen=True)
class VerifyScale:
    """Problem sizes for the battery; `full` holds the stated sizes, the
    default is a faster desk preset with the same structure and gates."""

    name: str
    unitarity_n: int = 256
    oracle_n: int = 4096
    oracle_L: float = 1280.0
    mc_pde_N: int = 5000
    mc_pde_block: int = 500  # slope sweep uses N in {block, 4 block, 16 block}
    fk_N: int = 10000
    resonance_n: int = 512
    decay_N: int = 200
    decay_n: int = 512


FULL_SCALE = VerifyScale(name="full")
DEFAULT_SCALE = VerifyScale(
    name="default", oracle_n=2048, oracle_L=960.0, mc_pde_N=400,
    mc_pde_block=125, fk_N=1500, resonance_n=256,
    decay_N=30, decay_n=256,
)


def _centered_gaussian(grid: SpatialGrid, a: float = 1.0) -> WaveField:
    x = grid.offsets()[0]
    vals = (a / np.pi) ** 0.25 * np.exp(-a * x**2 / 2.0)
    return WaveField(grid, vals.astype(complex))


def _free_gaussian_exact(grid: SpatialGrid, a: float, t: float) -> np.ndarray:
    """Closed-form free evolution of the centered Gaussian under
    i psi_t - Lap psi = 0 (kinetic phase e^{+i t k^2})."""
    x = grid.offsets()[0]
    z = 1.0 - 2.0j * a * t
    return (a / np.pi) ** 0.25 * z**-0.5 * np.exp(-a * x**2 / (2.0 * z))


def _switching_family(grid: SpatialGrid, contrast: float = 1.0,
                      depth: float = -2.0) -> PotentialFamily:
    well = shape_field(grid, "sech2", amplitude=depth, width=1.0)
    mod = shape_field(grid, "sech2", amplitude=1.0, width=1.0)
    return make_amplitude_family(well, mod, [-contrast, contrast], grid)


def _gauge_family(grid: SpatialGrid, depth: float = -2.0) -> PotentialFamily:
    """V(x, y) = well(x) + f(y): randomness enters only through the phase."""
    well = shape_field(grid, "sech2", amplitude=depth, width=1.0)
    return make_amplitude_family(well, np.ones(grid.size), [-0.5, 0.5], grid)


def _two_state_model(rate: float = 1.0, dirac: int | None = None) -> MarkovModel:
    A = rate * np.array([[1.0, -1.0], [-1.0, 1.0]])
    law = dirac if dirac is not None else np.array([0.5, 0.5])
    return MarkovModel(A, initial_law=law)


def _desk(dirac: int | None = None):
    """(grid, family, model, psi0) of the desk-scale switching problem: 64
    points on a box of 20, the contrast-1 family, the rate-1 two-state chain
    (started at state `dirac` if given) and the centered Gaussian."""
    grid = SpatialGrid(1, 64, 20.0)
    return (grid, _switching_family(grid), _two_state_model(dirac=dirac),
            _centered_gaussian(grid))


def _timed(fn):
    def wrapper(scale: VerifyScale, seed: int, out_dir: str | None = None) -> dict:
        start = time.time()
        entry = fn(scale, seed, out_dir)
        entry["runtime_s"] = round(time.time() - start, 3)
        return entry

    return wrapper


@_timed
def c1_unitarity(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Per-path L2 drift over 1000 Strang steps, with and without Hartree."""
    grid = SpatialGrid(1, scale.unitarity_n, 40.0)
    fam = _switching_family(grid)
    model = _two_state_model()
    path = sample_path(model, 1.0, seed=(seed, 0))
    psi0 = _centered_gaussian(grid)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    drifts = {}
    for eps in (0.0, EPSILON_SMALL):
        kernel = HartreeKernel(grid, chi, epsilon=eps)
        cfg = SolverConfig(dt=1e-3, sample_times=np.linspace(0.1, 1.0, 10),
                           epsilon=eps)
        out = evolve_path(psi0, fam, path, kernel, cfg)
        n0 = lebesgue_norm(psi0, 2)
        drifts[eps] = float(np.max(np.abs(out.scalars["l2"] - n0)) / n0)
    worst = max(drifts.values())
    return {"id": "C1", "name": "unitarity",
            "passed": bool(worst <= 1e-10),
            "relative_drift_eps0": drifts[0.0],
            "relative_drift_eps_small": drifts[EPSILON_SMALL]}


@_timed
def c2_free_flow_oracle(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Closed-form Gaussian check at t=1 plus the decay-slope fit on [5, 50]."""
    grid = SpatialGrid(1, scale.oracle_n, scale.oracle_L)
    fam = PotentialFamily(grid, np.zeros((1, grid.size)))
    model = MarkovModel(np.zeros((1, 1)))
    path = sample_path(model, 50.0, seed=(seed, 0))
    psi0 = _centered_gaussian(grid)

    cfg1 = SolverConfig(dt=1e-3, sample_times=np.array([1.0]))
    out1 = evolve_path(psi0, fam, path, None, cfg1)
    linf_err = float(np.max(np.abs(out1.fields[0] - _free_gaussian_exact(grid, 1.0, 1.0))))

    times = np.arange(0.5, 50.001, 0.5)
    cfg2 = SolverConfig(dt=0.5, sample_times=times)
    out2 = evolve_path(psi0, fam, path, None, cfg2)
    wrap = wraparound_mass(WaveField(grid, out2.fields[-1]))
    fit = decay_fit(out2.sample_times, out2.scalars["suml2linf"], (5.0, 50.0))
    passed = (linf_err <= 1e-6 and abs(fit.slope + 0.5) <= 0.05 and wrap < 1e-6)
    return {"id": "C2", "name": "free-flow oracle",
            "passed": bool(passed), "linf_error_t1": linf_err,
            "decay_slope": fit.slope, "slope_target": -0.5,
            "wraparound_mass_t50": wrap}


@_timed
def c3_tensor_oracle(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """m=1 Liouville solve against the outer product of the path solve."""
    grid = SpatialGrid(1, 64, 20.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    fam = PotentialFamily(grid, well[None, :])
    model = MarkovModel(np.zeros((1, 1)))
    path = sample_path(model, 1.0, seed=(seed, 0))
    times = np.linspace(0.1, 1.0, 10)
    cfg = SolverConfig(dt=0.01, sample_times=times)
    psi0 = _centered_gaussian(grid)
    out = evolve_path(psi0, fam, path, None, cfg)
    f0 = AveragedDensityMatrix(grid, np.outer(psi0.values, psi0.values.conj()))
    series = solve_liouville_averaged(f0, fam, model, cfg)
    worst = max(
        float(np.max(np.abs(snap_f.f[0] - np.outer(s, s.conj()))))
        for snap_f, s in zip(series, out.fields)
    )
    return {"id": "C3", "name": "tensor-factorization oracle",
            "passed": bool(worst <= 1e-9), "max_norm_discrepancy": worst}


def _pde_reference(grid, fam, model, psi0, cfg):
    g0 = AveragedField(grid, np.vstack([psi0.values * model.initial_law[y]
                                        for y in range(model.m)]))
    return solve_scalar_averaged(g0, fam, model, cfg)


def _errors_vs_pde(est, pde, grid, cfg):
    vol = grid.cell_volume
    errs, ses = [], []
    for ti in range(cfg.sample_times.size):
        diff = est.fields[ti].g - pde[ti].g
        errs.append(float(np.sqrt(vol * np.sum(np.abs(diff) ** 2))))
        ses.append(float(np.sqrt(vol * np.sum(est.stderr[ti] ** 2))))
    return np.array(errs), np.array(ses)


@_timed
def c4_mc_vs_pde_scalar(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Joint-weighted ensemble mean against the scalar averaged solve.

    The pointwise gate compares the sampled error with three aggregated
    standard errors at every sample time.  The convergence-rate check runs
    16 disjoint blocks of `mc_pde_block` paths and reads the error at
    N = block, 4 block and 16 block from block medians and unions; the
    median over disjoint replicates tames the heavy-tailed fluctuation of
    a single error norm without changing its N scaling.
    """
    grid, fam, model, psi0 = _desk()
    times = np.arange(0.0, 2.001, 0.25)
    cfg = SolverConfig(dt=0.025, sample_times=times)
    pde = _pde_reference(grid, fam, model, psi0, cfg)
    avg, _ = run_ensemble(psi0, fam, model, None, cfg,
                          EnsembleConfig(N=scale.mc_pde_N, master_seed=seed,
                                         horizon=2.0))
    errs, ses = _errors_vs_pde(estimate_g(avg), pde, grid, cfg)
    within = errs <= 3.0 * np.maximum(ses, 1e-300)

    def agg_err(avg):
        e, _ = _errors_vs_pde(estimate_g(avg), pde, grid, cfg)
        return float(np.sqrt(np.sum(e[1:] ** 2)))

    blocks = []
    for b in range(16):
        avg, _ = run_ensemble(psi0, fam, model, None, cfg,
                              EnsembleConfig(N=scale.mc_pde_block,
                                             master_seed=seed * 1009 + b,
                                             horizon=2.0))
        blocks.append(avg)
    from .ensemble import ConditionalAverage

    quads = [ConditionalAverage.merged(blocks[4 * k:4 * k + 4]) for k in range(4)]
    slope_Ns = [scale.mc_pde_block, 4 * scale.mc_pde_block, 16 * scale.mc_pde_block]
    agg = [float(np.median([agg_err(b) for b in blocks])),
           float(np.median([agg_err(q) for q in quads])),
           agg_err(ConditionalAverage.merged(blocks))]
    slope = float(np.polyfit(np.log(slope_Ns), np.log(agg), 1)[0])
    passed = bool(np.all(within)) and -0.65 <= slope <= -0.35
    return {"id": "C4", "name": "MC vs PDE (scalar averaged)",
            "passed": bool(passed),
            "max_err_over_3se": float(np.max(errs / (3.0 * np.maximum(ses, 1e-300)))),
            "slope": slope, "aggregated_errors": agg, "slope_Ns": slope_Ns}


@_timed
def c5_feynman_kac(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """MC weighted-mass series against the deterministic trace pairing."""
    grid, fam, model, psi0 = _desk(dirac=0)  # Dirac start makes the t=0 check exact
    times = np.arange(0.0, 2.001, 0.25)
    cfg = SolverConfig(dt=0.01, sample_times=times)
    avg, series = run_ensemble(psi0, fam, model, None, cfg,
                               EnsembleConfig(N=scale.fk_N, master_seed=seed,
                                              horizon=2.0))
    lhs, se = feynman_kac_lhs(series)
    f0 = np.zeros((2, grid.size, grid.size), dtype=complex)
    f0[0] = np.outer(psi0.values, psi0.values.conj())
    f_series = solve_liouville_averaged(AveragedDensityMatrix(grid, f0),
                                        fam, model, cfg)
    res = feynman_kac_residual(times, lhs, f_series, fam, stderr=se)
    gates = np.maximum(0.05 * np.abs(res["rhs"]), 3.0 * se)
    pointwise_ok = np.all(np.abs(res["lhs"] - res["rhs"]) <= gates)
    t0_ok = abs(res["lhs"][0] - res["rhs"][0]) <= 1e-10 * abs(res["rhs"][0])
    if out_dir is not None:
        ecfg = EnsembleConfig(N=scale.fk_N, master_seed=seed, horizon=2.0)
        write_summary_json(os.path.join(out_dir, "fk_summary.json"), avg, series,
                           ecfg, residuals={"feynman_kac_relative": res["relative"]})
    return {"id": "C5", "name": "Feynman-Kac identity",
            "passed": bool(pointwise_ok and t0_ok),
            "t0_relative": float(abs(res["lhs"][0] - res["rhs"][0])
                                 / max(abs(res["rhs"][0]), 1e-300)),
            "max_relative": float(np.max(res["relative"])),
            "integrated_relative": res["integrated_relative"]}


@_timed
def c6_liouville_structure(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Trace conservation, Hermiticity and positivity over a 1000-step solve."""
    grid, fam, model, psi0 = _desk()
    times = np.linspace(0.0, 1.0, 11)
    cfg = SolverConfig(dt=1e-3, sample_times=times)
    f0 = AveragedDensityMatrix(
        grid, 0.5 * np.array([np.outer(psi0.values, psi0.values.conj())] * 2))
    series = solve_liouville_averaged(f0, fam, model, cfg)
    table = structure_table(series)
    totals, herms, min_eigs = table[:, -3:].T
    trace_drift = float(np.max(np.abs(totals - totals[0])) / abs(totals[0]))
    scale_f = max(float(np.max(np.abs(s.f))) for s in series)
    herm = float(herms.max()) / scale_f
    min_eig = float(min_eigs.min())
    if out_dir is not None:
        write_trace_csv(os.path.join(out_dir, "liouville_trace.csv"), table)
    passed = (trace_drift <= 1e-8 and herm <= 1e-12
              and min_eig >= -1e-8 * totals[0])
    return {"id": "C6", "name": "averaged-Liouville structure",
            "passed": bool(passed), "trace_drift": trace_drift,
            "hermiticity_residual": herm, "min_eigenvalue": min_eig}


def _energy_identity(dt: float, family, model, grid, psi0):
    """Liouville series from psi0 under the model's initial law on [0, 0.3],
    sampled every 5 steps, and its energy derivative identity."""
    gap = 5.0 * dt
    times = np.round(np.arange(0.0, 0.3 + gap / 2, gap) / dt) * dt
    cfg = SolverConfig(dt=dt, sample_times=times)
    f0 = AveragedDensityMatrix(
        grid, np.array([model.initial_law[y]
                        * np.outer(psi0.values, psi0.values.conj())
                        for y in range(model.m)]))
    series = solve_liouville_averaged(f0, family, model, cfg)
    return series, energy_derivative_identity(series, family, model)


def _energy_identity_residual(dt: float, family, model, grid, psi0) -> float:
    _, ident = _energy_identity(dt, family, model, grid, psi0)
    scale = max(float(np.max(np.abs(ident.lhs))), float(np.max(np.abs(ident.rhs))),
                1e-300)
    return float(np.max(np.abs(ident.lhs - ident.rhs))) / scale


@_timed
def c7_energy_identity(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Centered-difference energy flux against the assembled A[hV] pairing."""
    grid, fam, model, psi0 = _desk()
    res_dt = _energy_identity_residual(1e-3, fam, model, grid, psi0)
    res_half = _energy_identity_residual(5e-4, fam, model, grid, psi0)
    shrink = res_dt / max(res_half, 1e-300)

    # y-independent branch: the right side vanishes identically
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    fam_triv = PotentialFamily(grid, np.vstack([well, well]))
    series, ident = _energy_identity(1e-3, fam_triv, model, grid, psi0)
    rhs_zero = float(np.max(np.abs(ident.rhs)))
    L = dense_laplacian(grid)
    h = model.ground_state()
    kin = series[0].pairing(L)
    e0 = sum(h[y] * grid.cell_volume * float(kin[y] + np.sum(fam_triv.V[y] * diag))
             for y, diag in enumerate(series[0].diagonal().real))
    lhs_zero = float(np.max(np.abs(ident.lhs))) / max(abs(e0), 1e-300)
    passed = (res_dt <= 1e-3 and shrink >= 3.0
              and rhs_zero <= 1e-12 and lhs_zero <= 1e-3)
    return {"id": "C7", "name": "energy derivative identity",
            "passed": bool(passed), "relative_residual": res_dt,
            "half_dt_residual": res_half, "shrink_factor": float(shrink),
            "trivial_rhs_max": rhs_zero, "trivial_lhs_relative": lhs_zero}


@_timed
def c8_resonance(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Bound state: real under trivial randomness, a decaying resonance
    under amplitude contrast 1."""
    grid = SpatialGrid(1, scale.resonance_n, 40.0)
    model = _two_state_model()
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)

    fam_triv = PotentialFamily(grid, np.vstack([well, well]))
    rep_triv = eigen_analysis(assemble_h(fam_triv, model, cap=4096))
    loc_triv = rep_triv.discrete_subset()
    triv_min_abs_im = float(np.min(np.abs(loc_triv.imag)))

    fam = _switching_family(grid, contrast=1.0)
    nontrivial = check_nontriviality(fam, model.ground_state()).verdict == "nontrivial"
    rep = eigen_analysis(assemble_h(fam, model, cap=4096))
    loc = rep.discrete_subset()
    res_min_im = float(np.min(loc.imag))
    passed = (nontrivial
              and loc_triv.size > 0 and triv_min_abs_im <= 1e-8 * rep_triv.norm
              and loc.size > 0 and res_min_im >= 1e-6 * rep.norm)
    return {"id": "C8", "name": "resonance formation",
            "passed": bool(passed),
            "trivial_min_abs_imag": triv_min_abs_im,
            "trivial_gate": 1e-8 * rep_triv.norm,
            "resonance_min_imag": res_min_im,
            "resonance_gate": 1e-6 * rep.norm}


@_timed
def c9_kato_birman(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """KB invertibility over the default grid, identity limit, and the
    symmetric resolvent identity at random lower-half-plane points."""
    _, fam, model, _ = _desk()
    scan = kb_scan(fam, model, default_lambda_grid())
    kb_far = assemble_kb(fam, model, lam=-1e4j)
    far_defect = float(np.linalg.norm(kb_far - np.eye(kb_far.shape[0]), 2))
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(5):
        lam = complex(rng.uniform(-8, 8), rng.uniform(-4, -0.1))
        residuals.append(resolvent_identity_residual(fam, model, lam))
    passed = (scan["global_min"] > 0.0 and far_defect <= 1e-2
              and max(residuals) <= 1e-8)
    return {"id": "C9", "name": "Kato-Birman invertibility",
            "passed": bool(passed), "scan_global_min": scan["global_min"],
            "identity_defect_at_minus_1e4i": far_defect,
            "max_resolvent_identity_residual": float(max(residuals))}


@_timed
def c10_picard(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Contraction ratios at the shipped small coupling, exact convergence
    at eps=0, and stability of the solution-map Lipschitz constant."""
    grid = SpatialGrid(1, 128, 30.0)
    fam = _switching_family(grid)
    model = _two_state_model()
    path = sample_path(model, 1.0, seed=(seed, 0))
    psi0 = _centered_gaussian(grid)
    chi = shape_field(grid, "gaussian", amplitude=1.0, width=1.0, center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=EPSILON_SMALL)
    cfg = SolverConfig(dt=0.02, sample_times=np.linspace(0.1, 1.0, 10),
                       epsilon=EPSILON_SMALL)
    result = picard_sequence(psi0, fam, path, kernel, cfg, n_iters=5)
    ratios = (result.deltas[2:] / result.deltas[1:-1]).tolist()  # n = 2, 3, 4

    cfg0 = SolverConfig(dt=0.02, sample_times=np.linspace(0.1, 1.0, 10), epsilon=0.0)
    result0 = picard_sequence(psi0, fam, path,
                              HartreeKernel(grid, chi, 0.0), cfg0, n_iters=4)
    linear_exact = bool(np.all(result0.deltas[1:] == 0.0))

    L = grid.box_length
    bump = shape_field(grid, "gaussian", amplitude=1.0, width=1.5,
                       center=L / 2 + 2.0).astype(complex)
    bump /= np.sqrt(grid.cell_volume * np.sum(np.abs(bump) ** 2))
    # the base row and one perturbed row per delta, marched as one batch
    deltas = (1e-2, 1e-3)
    rows = np.array([psi0.values, *(psi0.values + delta * bump for delta in deltas)])
    base, *perturbed = evolve_paths(rows, fam, [path] * len(rows), kernel, cfg)[0]
    lipschitz = {delta: strichartz_norm(grid, fields - base, dt=0.1, p_t=2,
                                        space_exponents=(6.0, 2.0)) / delta
                 for delta, fields in zip(deltas, perturbed)}
    c_ratio = lipschitz[1e-3] / lipschitz[1e-2]
    passed = (all(r <= 0.5 for r in ratios) and linear_exact
              and not result.diverged and 0.5 <= c_ratio <= 2.0)
    return {"id": "C10", "name": "Picard contraction & Lipschitz stability",
            "passed": bool(passed), "contraction_ratios": ratios,
            "linear_deltas_vanish": linear_exact,
            "lipschitz_constants": {str(k): float(v) for k, v in lipschitz.items()},
            "lipschitz_ratio": float(c_ratio)}


@_timed
def c11_bound_state_decay(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """Windowed bound-state mass: drains under nontrivial randomness, fixed
    under pure-gauge randomness."""
    grid = SpatialGrid(1, scale.decay_n, 120.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    H = dense_laplacian(grid) + np.diag(well)
    eigvals, eigvecs = np.linalg.eigh(H)
    psi0 = WaveField(grid, (eigvecs[:, 0]
                            / np.sqrt(grid.cell_volume)).astype(complex))
    center = grid.box_length / 2.0
    window = np.abs(grid.coordinates()[0] - center) <= 4.0

    def windowed_fraction(vals):
        return float(grid.cell_volume * np.sum(np.abs(vals[window]) ** 2))

    w0 = windowed_fraction(psi0.values)
    model = _two_state_model()
    cfg = SolverConfig(dt=0.01, sample_times=np.array([20.0]))
    paths = sample_paths(model, 20.0, seed, range(scale.decay_N))
    rows = np.repeat(psi0.values[None], scale.decay_N, axis=0)
    results = {}
    for label, fam in (("nontrivial", _switching_family(grid, contrast=1.0)),
                       ("gauge", _gauge_family(grid))):
        fields, _, _ = evolve_paths(rows, fam, paths, None, cfg)
        total = 0.0
        for vals in fields[:, 0]:  # summed in path order
            total += windowed_fraction(vals) / w0
        results[label] = total / scale.decay_N
    decay_nontrivial = 1.0 - results["nontrivial"]
    change_gauge = abs(1.0 - results["gauge"])
    passed = decay_nontrivial >= 0.25 and change_gauge <= 0.01
    return {"id": "C11", "name": "qualitative bound-state decay",
            "passed": bool(passed), "bound_level": float(eigvals[0]),
            "nontrivial_mass_decay": float(decay_nontrivial),
            "gauge_mass_change": float(change_gauge), "N": scale.decay_N}


@_timed
def c12_determinism(scale: VerifyScale, seed: int, out_dir=None) -> dict:
    """The same seed must reproduce ensemble and Liouville artifacts
    byte-for-byte."""
    import tempfile

    grid, fam, model, psi0 = _desk()
    times = np.linspace(0.0, 1.0, 5)
    cfg = SolverConfig(dt=0.025, sample_times=times)

    def artifacts(workdir: str) -> dict[str, bytes]:
        ecfg = EnsembleConfig(N=50, master_seed=seed, horizon=1.0)
        avg, series = run_ensemble(psi0, fam, model, None, cfg, ecfg)
        write_summary_json(os.path.join(workdir, "summary.json"), avg, series, ecfg)
        f0 = AveragedDensityMatrix(
            grid, 0.5 * np.array([np.outer(psi0.values, psi0.values.conj())] * 2))
        series_f = solve_liouville_averaged(f0, fam, model, cfg)
        write_trace_csv(os.path.join(workdir, "trace.csv"), structure_table(series_f))
        return {name: open(os.path.join(workdir, name), "rb").read()
                for name in ("summary.json", "trace.csv")}

    with tempfile.TemporaryDirectory() as tmp1, \
            tempfile.TemporaryDirectory() as tmp2:
        first, second = artifacts(tmp1), artifacts(tmp2)
    identical = all(first[k] == second[k] for k in first)
    return {"id": "C12", "name": "artifact determinism",
            "passed": bool(identical),
            "files_compared": sorted(first)}


CRITERIA = (
    c1_unitarity, c2_free_flow_oracle, c3_tensor_oracle, c4_mc_vs_pde_scalar,
    c5_feynman_kac, c6_liouville_structure, c7_energy_identity, c8_resonance,
    c9_kato_birman, c10_picard, c11_bound_state_decay, c12_determinism,
)


def verify_all(out_dir: str, scale: str | VerifyScale = "default",
               seed: int = 7) -> dict:
    """Run the full battery; returns {criterion id: entry}."""
    if isinstance(scale, str):
        scale = FULL_SCALE if scale == "full" else DEFAULT_SCALE
    entries = {}
    for criterion in CRITERIA:
        entry = criterion(scale, seed, out_dir)
        entries[entry["id"]] = entry
    return entries
