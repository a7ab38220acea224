"""Configuration, experiment orchestration, and artifact emission.

Config files are TOML with dotted keys (``grid.n = 256``) or tables
(``[grid]``, inline ``grid = {n = 256}``), flattened to one {dotted key:
value} mapping.  A float needs a digit after the point (``40.0``); put a
Windows path in single quotes, as backslashes in double quotes are escapes.
Unknown keys are hard errors with a best-guess suggestion; silent defaults
never paper over a misspelling.

Every run writes into ``<out>/<kind>-<confighash>-seed<seed>/``: the
artifacts of the experiment plus ``manifest.json`` echoing the config, the
package and numpy versions, the seed, the wall time, each verify-all
criterion's ``runtime_s`` (``criterion_runtime_s``) and the BLAS thread
variables (``blas_thread_env``, null when unset).  Artifacts are
deterministic functions of (config, seed) for a fixed BLAS thread count;
the manifest is the one file that records wall-clock time and is
therefore excluded from byte-identity comparisons.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .averaged import (
    LIOUVILLE_M_CAP,
    LIOUVILLE_N_CAP,
    AveragedDensityMatrix,
    AveragedField,
    solve_liouville_averaged,
    solve_scalar_averaged,
    structure_table,
    write_density_csv,
    write_trace_csv,
)
from .diagnostics import build_report, decay_fit
from .ensemble import EnsembleConfig, run_ensemble, strichartz_orders, write_summary_json
from .grid import SpatialGrid, WaveField
from .markov import MarkovModel, sample_path
from .potential import (
    HartreeKernel,
    PotentialFamily,
    make_amplitude_family,
    make_translate_family,
    shape_field,
)
from .propagator import SolverConfig, dump_snapshot, evolve_path, write_scalars_csv
from .spectral import (
    assemble_h,
    default_lambda_grid,
    eigen_analysis,
    kb_scan,
    write_scan_csv,
    write_spectrum_csv,
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXPERIMENT_KINDS = ("path", "average", "liouville", "ensemble", "spectrum",
                    "kb-scan", "verify-all")

# key -> (type tag, default); "number" accepts int or float
KNOWN_KEYS = {
    "experiment.kind": ("choice", "verify-all"),
    "grid.d": ("int", 1),
    "grid.n": ("int", 256),
    "grid.L": ("number", 40.0),
    "markov.matrix": ("array", [[1.0, -1.0], [-1.0, 1.0]]),
    "markov.matrix_csv": ("str", ""),
    "markov.initial_law": ("array_or_str", "uniform"),
    "markov.initial_state": ("int", -1),  # >= 0 selects a Dirac start
    "potential.family": ("str", "amplitude"),
    "potential.shape": ("str", "sech2"),
    "potential.amplitude": ("number", -2.0),
    "potential.width": ("number", 1.0),
    "potential.center": ("number", -1.0),  # < 0 means box center
    "potential.mod_shape": ("str", "sech2"),
    "potential.mod_amplitude": ("number", 1.0),
    "potential.mod_width": ("number", 1.0),
    "potential.amplitudes": ("array", [-1.0, 1.0]),
    "potential.shifts": ("array", [0]),
    "solver.dt": ("number", 0.01),
    "solver.order": ("int", 2),
    "solver.epsilon": ("number", 0.0),
    "solver.T": ("number", 2.0),
    "solver.sample_count": ("int", 9),
    "solver.chi_shape": ("str", "gaussian"),
    "solver.chi_amplitude": ("number", 1.0),
    "solver.chi_width": ("number", 1.0),
    "ensemble.N": ("int", 400),
    "ensemble.seed": ("int", 7),
    "ensemble.store_density_matrix": ("bool", False),
    "verify.scale": ("str", "default"),  # "default" (fast) or "full"
}


class ConfigError(ValueError):
    pass


def _flatten(table: dict, prefix: str = "") -> dict:
    """Nested TOML tables as one {dotted key: value} mapping."""
    flat = {}
    for key, value in table.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _check_type(key: str, value, tag: str):
    ok = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "str": lambda v: isinstance(v, str),
        "bool": lambda v: isinstance(v, bool),
        "array": lambda v: isinstance(v, list),
        "array_or_str": lambda v: isinstance(v, (list, str)),
        "choice": lambda v: isinstance(v, str),
    }[tag]
    if not ok(value):
        raise ConfigError(f"key {key!r}: expected {tag}, got {value!r}")


def parse_config(path: str | None = None, text: str | None = None,
                 kind: str | None = None) -> dict:
    """Read, validate and default-fill an experiment config.

    Returns the flat {dotted key: value} mapping.  Unknown-key, type and
    cross-key violations are collected and reported together; unknown keys
    name their closest known key.  A TOML syntax error stops at once.  A
    config without those is built once (:func:`build_objects`), and a
    constructor's ValueError is reported as the config's error.
    `kind`, when given, is the experiment to run (the CLI subcommand): it
    replaces experiment.kind, and the keys are checked against it.
    """
    import tomllib

    if text is None:
        if path is None:
            text = ""
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    try:
        table = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid config: {exc}") from None
    values: dict = {}
    errors: list[str] = []
    for key, value in _flatten(table).items():
        if key not in KNOWN_KEYS:
            hint = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            errors.append(f"unknown key {key!r}{suffix}")
            continue
        try:
            _check_type(key, value, KNOWN_KEYS[key][0])
            values[key] = value
        except ConfigError as exc:
            errors.append(str(exc))
    for key, (_tag, default) in KNOWN_KEYS.items():
        values.setdefault(key, default)
    errors.extend(_cross_validate(values, kind or values["experiment.kind"]))
    if not errors:
        try:
            build_objects(values)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    if kind is not None:
        values["experiment.kind"] = kind
    return values


def _matrix_from_config(cfg: dict) -> np.ndarray:
    if cfg["markov.matrix_csv"]:
        return np.loadtxt(cfg["markov.matrix_csv"], delimiter=",", ndmin=2)
    return np.asarray(cfg["markov.matrix"], dtype=float)


def _cross_validate(cfg: dict, kind: str) -> list[str]:
    errors = []
    if cfg["experiment.kind"] not in EXPERIMENT_KINDS:
        errors.append(f"experiment.kind must be one of {EXPERIMENT_KINDS}")
    if cfg["grid.n"] < 2 or cfg["grid.n"] & (cfg["grid.n"] - 1):
        errors.append("grid.n must be a power of two")
    if cfg["markov.matrix_csv"] and not os.path.exists(cfg["markov.matrix_csv"]):
        errors.append(f"markov.matrix_csv file not found: {cfg['markov.matrix_csv']!r}")
    try:
        A = _matrix_from_config(cfg)
    except Exception as exc:  # unreadable csv etc.
        errors.append(f"markov matrix: {exc}")
        return errors
    m = A.shape[0]
    if cfg["potential.family"] == "amplitude" and len(cfg["potential.amplitudes"]) != m:
        errors.append(
            f"potential.amplitudes has {len(cfg['potential.amplitudes'])} entries "
            f"but markov.matrix has {m} states")
    if cfg["potential.family"] == "translate" and len(cfg["potential.shifts"]) != m:
        errors.append(
            f"potential.shifts has {len(cfg['potential.shifts'])} entries "
            f"but markov.matrix has {m} states")
    if kind == "liouville" and (cfg["grid.d"] != 1 or cfg["grid.n"] > LIOUVILLE_N_CAP
                                or m > LIOUVILLE_M_CAP):
        errors.append(
            f"the liouville kind needs grid.d = 1, grid.n <= {LIOUVILLE_N_CAP} and at most "
            f"{LIOUVILLE_M_CAP} markov states; got grid.d = {cfg['grid.d']}, "
            f"grid.n = {cfg['grid.n']}, {m} states")
    law = cfg["markov.initial_law"]
    if isinstance(law, list) and len(law) != m:
        errors.append(f"markov.initial_law has {len(law)} entries for {m} states")
    if cfg["ensemble.N"] < 1:
        errors.append("ensemble.N must be >= 1")
    if cfg["solver.dt"] <= 0:
        errors.append("solver.dt must be positive")
    if cfg["solver.T"] <= 0:
        errors.append("solver.T must be positive")
    if cfg["solver.order"] not in (1, 2):
        errors.append("solver.order must be 1 or 2")
    if cfg["verify.scale"] not in ("default", "full"):
        errors.append("verify.scale must be 'default' or 'full'")
    return errors


def config_hash(cfg: dict) -> str:
    canon = "\n".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def build_objects(cfg: dict, seed: int | None = None):
    """Instantiate grid, model, family, kernel, solver and ensemble configs."""
    grid = SpatialGrid(cfg["grid.d"], cfg["grid.n"], float(cfg["grid.L"]))
    A = _matrix_from_config(cfg)
    if cfg["markov.initial_state"] >= 0:
        model = MarkovModel(A, initial_law=cfg["markov.initial_state"])
    elif cfg["markov.initial_law"] == "uniform":
        model = MarkovModel(A, initial_law=np.full(A.shape[0], 1.0 / A.shape[0]))
    else:
        model = MarkovModel(A, initial_law=np.asarray(cfg["markov.initial_law"], float))

    center = cfg["potential.center"]
    center = None if center < 0 else center
    base = shape_field(grid, cfg["potential.shape"], cfg["potential.amplitude"],
                       cfg["potential.width"], center)
    if cfg["potential.family"] == "amplitude":
        mod = shape_field(grid, cfg["potential.mod_shape"],
                          cfg["potential.mod_amplitude"],
                          cfg["potential.mod_width"], center)
        family = make_amplitude_family(base, mod, cfg["potential.amplitudes"], grid)
    elif cfg["potential.family"] == "translate":
        family = make_translate_family(base, grid, cfg["potential.shifts"])
    elif cfg["potential.family"] == "none":
        family = PotentialFamily(grid, np.zeros((model.m, grid.size)))
    else:
        raise ConfigError(f"unknown potential.family {cfg['potential.family']!r}")
    if family.m != model.m:
        raise ConfigError("potential family and markov model state counts differ")

    chi = shape_field(grid, cfg["solver.chi_shape"], cfg["solver.chi_amplitude"],
                      cfg["solver.chi_width"], center=0.0)
    kernel = HartreeKernel(grid, chi, epsilon=float(cfg["solver.epsilon"]))

    T = float(cfg["solver.T"])
    dt = float(cfg["solver.dt"])
    count = max(2, cfg["solver.sample_count"])
    raw = np.linspace(0.0, T, count)
    sample_times = np.round(raw / dt) * dt  # snap to the step grid
    sample_times[-1] = np.round(T / dt) * dt
    sample_times = np.unique(sample_times)
    solver_cfg = SolverConfig(dt=dt, sample_times=sample_times,
                              order=cfg["solver.order"],
                              epsilon=float(cfg["solver.epsilon"]))
    ecfg = EnsembleConfig(N=cfg["ensemble.N"],
                          master_seed=cfg["ensemble.seed"] if seed is None else seed,
                          horizon=float(sample_times[-1]),
                          store_density_matrix=cfg["ensemble.store_density_matrix"])
    return grid, model, family, kernel, solver_cfg, ecfg


def _default_initial_field(grid: SpatialGrid) -> WaveField:
    """Unit-mass Gaussian centered at the box middle."""
    vals = np.ones(grid.size, dtype=complex)
    for x in grid.offsets():
        vals = vals * np.exp(-x**2 / 2.0)
    vals /= np.sqrt(grid.cell_volume * np.sum(np.abs(vals) ** 2))
    return WaveField(grid, vals)


def run(cfg: dict, out_root: str, seed: int | None = None,
        threads: int | None = None) -> int:
    """Execute the configured experiment; returns the process exit code."""
    kind = cfg["experiment.kind"]
    seed_val = cfg["ensemble.seed"] if seed is None else seed
    out_dir = os.path.join(out_root, f"{kind}-{config_hash(cfg)}-seed{seed_val}")
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    checks: dict[str, dict] = {}

    grid, model, family, kernel, solver_cfg, ecfg = build_objects(cfg, seed=seed)
    psi0 = _default_initial_field(grid)

    if kind == "path":
        path = sample_path(model, float(solver_cfg.sample_times[-1]),
                           seed=(ecfg.master_seed, 0))
        out = evolve_path(psi0, family, path, kernel, solver_cfg)
        write_scalars_csv(os.path.join(out_dir, "scalars.csv"), out)
        dump_snapshot(os.path.join(out_dir, "final_snapshot.bin"),
                      WaveField(grid, out.fields[-1]), float(out.sample_times[-1]))
        drift = float(np.max(np.abs(out.scalars["l2"] - out.scalars["l2"][0])))
        rel = drift / out.scalars["l2"][0]
        checks["unitarity"] = {"passed": bool(rel <= 1e-10), "relative_drift": rel}
    elif kind == "average":
        g0 = AveragedField(grid, np.vstack([psi0.values * model.initial_law[y]
                                            for y in range(model.m)]))
        series = solve_scalar_averaged(g0, family, model, solver_cfg)
        with open(os.path.join(out_dir, "averaged_field.csv"), "w") as fh:
            fh.write("t,y,l2\n")
            for snap in series:
                for y in range(model.m):
                    l2 = float(np.sqrt(grid.cell_volume
                                       * np.sum(np.abs(snap.g[y]) ** 2)))
                    fh.write(f"{snap.t:.17g},{y},{l2:.17g}\n")
        # the flows are unitary and the mixing e^{-tau A} contracts, so the
        # total ||g||_2 never grows; a non-finite norm fails the comparison too
        norms = np.array([np.sqrt(grid.cell_volume * np.sum(np.abs(s.g) ** 2))
                          for s in series])
        checks["l2_nonincreasing"] = {
            "passed": bool(np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))),
            "max_step_increase": float(np.max(np.diff(norms), initial=0.0)),
        }
    elif kind == "liouville":
        f0 = np.array([model.initial_law[y]
                       * np.outer(psi0.values, psi0.values.conj())
                       for y in range(model.m)])
        series = solve_liouville_averaged(AveragedDensityMatrix(grid, f0),
                                          family, model, solver_cfg)
        write_density_csv(os.path.join(out_dir, "density.csv"), series)
        table = structure_table(series)
        write_trace_csv(os.path.join(out_dir, "trace.csv"), table)
        totals, herms, min_eigs = table[:, -3:].T
        herm = float(herms.max())
        scale = max(float(np.max(np.abs(s.f))) for s in series)
        min_eig = float(min_eigs.min())
        checks["trace_conservation"] = {
            "passed": bool(np.max(np.abs(totals - totals[0]))
                           <= 1e-8 * abs(totals[0])),
            "max_drift": float(np.max(np.abs(totals - totals[0]))),
        }
        checks["hermiticity"] = {"passed": bool(herm <= 1e-12 * scale),
                                 "residual": herm}
        checks["positivity"] = {"passed": bool(min_eig >= -1e-8 * totals[0]),
                                "min_eigenvalue": min_eig}
    elif kind == "ensemble":
        avg, series = run_ensemble(psi0, family, model, kernel, solver_cfg, ecfg,
                                   workers=max(1, threads or 1))
        write_summary_json(os.path.join(out_dir, "summary.json"), avg, series, ecfg)
        checks["exact_conditioning"] = {
            "passed": bool(np.all(avg.counts.sum(axis=1) == ecfg.N))}
        if avg.outer_sums is not None:
            # a path's outer product has trace ||psi||_2^2 / cell volume, so
            # the traces over all states average to the mean of l2^2
            traces = np.trace(avg.outer_sums, axis1=2, axis2=3).real.sum(axis=1)
            mass = np.mean(series.l2 ** 2, axis=0)
            rel = float(np.max(np.abs(grid.cell_volume * traces / ecfg.N - mass) / mass))
            checks["density_trace"] = {"passed": bool(rel <= 1e-12),
                                       "max_relative_deviation": rel}
        try:
            norms = strichartz_orders(series)
        except ValueError:
            pass  # non-uniform sample times: both-order norms undefined
        else:
            with open(os.path.join(out_dir, "spacetime_norms.json"), "w") as fh:
                json.dump(norms, fh, indent=2, sort_keys=True)
    elif kind == "spectrum":
        ham = assemble_h(family, model)
        report = eigen_analysis(ham)
        write_spectrum_csv(os.path.join(out_dir, "spectrum.csv"), report)
        checks["upper_half_plane"] = {
            "passed": bool(report.min_imag >= -1e-8 * max(report.norm, 1.0)),
            "min_imag": report.min_imag,
        }
    elif kind == "kb-scan":
        scan = kb_scan(family, model, default_lambda_grid())
        write_scan_csv(os.path.join(out_dir, "scan.csv"), scan)
        checks["invertible"] = {"passed": bool(scan["global_min"] > 0.0),
                                "global_min": scan["global_min"]}
    elif kind == "verify-all":
        from .verify import verify_all

        checks = verify_all(out_dir, scale=cfg["verify.scale"],
                            seed=ecfg.master_seed)
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unhandled experiment kind {kind!r}")

    # wall-clock info belongs in the manifest, never in deterministic artifacts
    stripped = {k: {kk: vv for kk, vv in entry.items() if kk != "runtime_s"}
                for k, entry in checks.items()}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(build_report(stripped))
    manifest = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "config_hash": config_hash(cfg),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "seed": seed_val,
        "wall_time_s": time.time() - started,
        "criterion_runtime_s": {k: entry["runtime_s"] for k, entry in checks.items()
                                if "runtime_s" in entry},
        # LAPACK results can differ in the last bits between BLAS thread
        # counts, so artifacts are byte-reproducible only for a fixed count
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    passed = all(entry.get("passed", False) for entry in checks.values())
    return 0 if passed else 1


def _cmd_fit_decay(args) -> int:
    """Fit a power law to a column of a scalars CSV."""
    try:
        rows = np.genfromtxt(args.input, delimiter=",", names=True)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.column not in rows.dtype.names:
        print(f"column {args.column!r} not in {rows.dtype.names}", file=sys.stderr)
        return 2
    try:
        fit = decay_fit(rows["t"], rows[args.column], (args.t_min, args.t_max))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps({
        "column": args.column, "window": [args.t_min, args.t_max],
        "slope": fit.slope, "intercept": fit.intercept,
        "residual": fit.residual,
        "confidence_halfwidth": fit.confidence_halfwidth,
    }, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochnls",
        description="Schrodinger dynamics with a Markov-switched potential: "
                    "per-path runs, averaged equations, ensembles, spectra, "
                    "and the verification battery.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", default=None, help="config file (TOML)")
        p.add_argument("--out", default="out", help="output root directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        # argparse converts a string default with type, so a bad value is a usage error
        p.add_argument("--threads", type=int, default=os.environ.get("STOCHNLS_THREADS", "1"),
                       help="worker count (env STOCHNLS_THREADS)")
    fit = sub.add_parser("fit-decay", help="power-law fit on a scalars CSV column")
    fit.add_argument("--input", required=True)
    fit.add_argument("--column", default="suml2linf")
    fit.add_argument("--t-min", type=float, required=True)
    fit.add_argument("--t-max", type=float, required=True)
    args = parser.parse_args(argv)

    if args.command == "fit-decay":
        return _cmd_fit_decay(args)
    try:
        cfg = parse_config(args.config, kind=args.command)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    return run(cfg, args.out, seed=args.seed, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
