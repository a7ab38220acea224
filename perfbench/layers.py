"""Which stochnls functions the traced run wraps, and the counts derived at
each boundary.

Every probe names the module attribute a caller looks the function up by
(``stochnls.ensemble.evolve_path`` is what ``run_ensemble`` calls), and the
span is named after the layer that defines the function
(``propagator.evolve_path``).  Counts are computed from call arguments --
jump times, the step grid, array shapes -- never measured, so they repeat
exactly for a fixed seed.
"""

from __future__ import annotations

import numpy as np

# The battery criteria the battery workload runs (all but C4, C5 and C11),
# by the verify function each id names.
VERIFY_CRITERIA = {"C1": "c1_unitarity", "C2": "c2_free_flow_oracle",
                   "C3": "c3_tensor_oracle", "C6": "c6_liouville_structure",
                   "C7": "c7_energy_identity", "C8": "c8_resonance",
                   "C9": "c9_kato_birman", "C10": "c10_picard",
                   "C12": "c12_determinism"}


def _marched_intervals(cfg):
    """(start, end, base steps) of each interval the solvers march."""
    t = 0.0
    for target in cfg.sample_times:
        if target <= 1e-15:
            continue
        yield t, float(target), int(round((target - t) / cfg.dt))
        t = float(target)


def count_path_march(counts, out, psi0, family, path, kernel, cfg):
    """Substeps, jump-split base steps and march FFT calls of one path.

    Mirrors the propagator's subdivision: the base step grid of each
    interval plus the jump times inside it.  A Strang march makes one
    fused kinetic factor per substep plus one (two FFT calls each); a
    Hartree row adds one three-transform convolution per substep.
    """
    hartree = kernel is not None and cfg.epsilon != 0.0
    for t0, t1, n_steps in _marched_intervals(cfg):
        base = np.unique(np.concatenate(
            ([t0], t0 + cfg.dt * np.arange(1, max(n_steps, 1)), [t1])))
        jumps = path.jump_times[(path.jump_times > t0) & (path.jump_times < t1)]
        inside = jumps[~np.isin(jumps, base)]
        substeps = np.unique(np.concatenate((base, jumps))).size - 1
        kinetic = substeps + 1 if cfg.order == 2 else substeps
        counts["propagator.substeps"] += substeps
        counts["propagator.jump_split_steps"] += int(
            np.unique(np.searchsorted(base, inside)).size)
        counts["propagator.fft_calls"] += 2 * kinetic + (3 * substeps if hartree else 0)
    counts["propagator.samples"] += int(cfg.sample_times.size)


def count_jumps(counts, path, model, T, seed):
    counts["markov.jumps"] += int(path.jump_times.size)


def count_reduce(counts, result, psi0_law, family, model, kernel, cfg, ecfg, workers):
    """Bytes each path adds into the accumulators: field, |field|^2 and,
    when stored, the outer product, per sample time."""
    n = family.grid.size
    per_sample = 16 * n + 8 * n + (16 * n * n if ecfg.store_density_matrix else 0)
    counts["ensemble.paths"] += ecfg.N
    counts["ensemble.bytes_reduced"] += ecfg.N * cfg.sample_times.size * per_sample


def count_scalar_steps(counts, result, g0, family, model, cfg, source):
    counts["averaged.scalar_steps"] += sum(s for _, _, s in _marched_intervals(cfg))


def count_liouville(counts, result, f0, family, model, cfg, source, n_cap, m_cap):
    """Each Strang step conjugates every state's kernel twice by the
    kinetic factor; a conjugation is two column-batched fft/ifft pairs."""
    steps = sum(s for _, _, s in _marched_intervals(cfg))
    per_state = 8 if cfg.order == 2 else 4
    counts["averaged.liouville_steps"] += steps
    counts["averaged.liouville_fft_calls"] += steps * model.m * per_state


def count_eigen_flops(counts, report, ham):
    """Golub-Van Loan estimate for a dense QR eigensolve with vectors,
    25 s^3 real flops, times four for complex arithmetic."""
    counts["spectral.eigen_flops"] += 100 * ham.H.shape[0] ** 3


def count_lambdas(counts, scan, family, model, lam_grid):
    counts["spectral.kb_scan.lambdas"] += int(np.asarray(scan["lambdas"]).size)


def _probes_for(callers, defining, name, count=None):
    return [(f"stochnls.{c}", name, f"{defining}.{name}", count) for c in callers]


PROBES = (
    _probes_for(("ensemble", "verify"), "markov", "sample_path", count_jumps)
    + _probes_for(("ensemble", "verify"), "propagator", "evolve_path", count_path_march)
    + _probes_for(("propagator",), "propagator", "hartree_potential")
    + _probes_for(("verify",), "propagator", "picard_sequence")
    + _probes_for(("propagator",), "diagnostics", "energy_breakdown")
    + _probes_for(("propagator",), "grid", "sum_norm")
    + _probes_for(("propagator", "verify"), "grid", "lebesgue_norm")
    + _probes_for(("grid",), "grid", "lorentz_norm")
    + _probes_for(("ensemble",), "ensemble", "weighted_mass_series")
    + _probes_for(("ensemble", "verify"), "ensemble", "run_ensemble", count_reduce)
    + _probes_for(("ensemble", "verify"), "ensemble", "estimate_g")
    + _probes_for(("ensemble",), "ensemble", "estimate_f")
    + _probes_for(("ensemble", "verify"), "ensemble", "feynman_kac_lhs")
    + _probes_for(("ensemble", "verify"), "ensemble", "write_summary_json")
    + _probes_for(("averaged", "verify"), "averaged", "solve_scalar_averaged",
                  count_scalar_steps)
    + _probes_for(("averaged", "verify"), "averaged", "solve_liouville_averaged",
                  count_liouville)
    + _probes_for(("averaged", "verify"), "averaged", "psd_check")
    + _probes_for(("diagnostics", "verify"), "diagnostics", "energy_derivative_identity")
    + _probes_for(("spectral", "verify"), "spectral", "assemble_h")
    + _probes_for(("spectral", "verify"), "spectral", "eigen_analysis", count_eigen_flops)
    + _probes_for(("spectral", "verify"), "spectral", "kb_scan", count_lambdas)
    + _probes_for(("spectral", "verify"), "spectral", "resolvent_identity_residual")
    + _probes_for(("cli",), "cli", "run")
    + [("stochnls.verify", fn, f"verify.{cid}", None)
       for cid, fn in VERIFY_CRITERIA.items()]
)

# Spans reported as "<span>.self_s" and "<span>.calls", and counts; verify
# criteria report their whole span time ("verify.<id>.s").
SPAN_SELF = (
    "markov.sample_path", "propagator.evolve_path", "propagator.hartree_potential",
    "propagator.picard_sequence", "diagnostics.energy_breakdown", "grid.sum_norm",
    "grid.lebesgue_norm", "grid.lorentz_norm", "ensemble.weighted_mass_series",
    "ensemble.run_ensemble", "ensemble.estimate_g", "ensemble.estimate_f",
    "ensemble.feynman_kac_lhs", "averaged.solve_scalar_averaged",
    "averaged.solve_liouville_averaged", "averaged.psd_check",
    "diagnostics.energy_derivative_identity", "spectral.assemble_h",
    "spectral.eigen_analysis", "spectral.kb_scan",
    "spectral.resolvent_identity_residual", "cli.run",
)
SPAN_CALLS = ("markov.sample_path", "propagator.evolve_path",
              "propagator.hartree_potential", "spectral.eigen_analysis")
COUNTS = ("markov.jumps", "propagator.substeps", "propagator.jump_split_steps",
          "propagator.fft_calls", "ensemble.bytes_reduced", "averaged.scalar_steps",
          "averaged.liouville_steps", "averaged.liouville_fft_calls",
          "spectral.eigen_flops", "spectral.kb_scan.lambdas")
COUNT_UNITS = {"ensemble.bytes_reduced": "B", "spectral.eigen_flops": "flop"}
DIAGNOSTIC_SPANS = ("diagnostics.energy_breakdown", "grid.sum_norm",
                    "grid.lebesgue_norm", "grid.lorentz_norm",
                    "ensemble.weighted_mass_series")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{s}.self_s": "s" for s in SPAN_SELF}
    units.update({f"{s}.calls": "count" for s in SPAN_CALLS})
    units.update({c: COUNT_UNITS.get(c, "count") for c in COUNTS})
    units.update({f"verify.{c}.s": "s" for c in VERIFY_CRITERIA})
    units.update({
        "propagator.us_per_substep": "us",
        "diagnostics.us_per_sample": "us",
        "ensemble.reduce_us_per_path": "us",
        "ensemble.paths_per_s": "1/s",
        "ensemble.pool2_speedup": "x",
        "trace.overhead_frac": "frac",
    })
    return units


def layer_metrics(times: dict, counts, scale: float) -> dict[str, float]:
    """Per-layer values of one traced repeat; times are multiplied by the
    repeat's host-speed scale."""
    def self_s(name):
        return scale * times.get(name, {}).get("self_s", 0.0)

    out = {f"{s}.self_s": self_s(s) for s in SPAN_SELF}
    out.update({f"{s}.calls": times.get(s, {}).get("calls", 0) for s in SPAN_CALLS})
    out.update({c: counts.get(c, 0) for c in COUNTS})
    out.update({f"verify.{c}.s": scale * times.get(f"verify.{c}", {}).get("total_s", 0.0)
                for c in VERIFY_CRITERIA})
    substeps = counts.get("propagator.substeps", 0)
    samples = counts.get("propagator.samples", 0)
    paths = counts.get("ensemble.paths", 0)
    out["propagator.us_per_substep"] = (
        1e6 * self_s("propagator.evolve_path") / substeps if substeps else 0.0)
    out["diagnostics.us_per_sample"] = (
        1e6 * sum(self_s(s) for s in DIAGNOSTIC_SPANS) / samples if samples else 0.0)
    out["ensemble.reduce_us_per_path"] = (
        1e6 * self_s("ensemble.run_ensemble") / paths if paths else 0.0)
    return out
