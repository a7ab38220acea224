"""The four benchmark workloads, driven through stochnls's public functions.

Each workload has these parts:

* ``build(seed)``: the inputs (grids, families, models, initial data,
  configs).  This is what ``setup_s`` times, together with the import.
* ``reference(inputs)``: deterministic solves the outputs are checked
  against; computed once, outside the timed section.
* ``run(inputs, workdir, stage)``: the timed section.  It calls
  ``stage(paths)`` where a stage ends, with the number of per-path solves
  done in it; the runner times stages one by one (see run.py) and closes
  the last one when ``run`` returns.
* ``checks(inputs, ref, out)``: {check name: passed}, using the gates of
  the verification battery.  ``digest(out)`` gives (inputs key, output
  fingerprint): repeats of the same inputs inside one run must match byte
  for byte.  mc-ensemble also has ``final_checks`` over all its repeats.

Functions are looked up through their module at call time
(``ensemble.run_ensemble``), so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import time
from types import SimpleNamespace

import numpy as np

from stochnls import averaged, cli, diagnostics, ensemble, grid, markov, \
    potential, propagator, spectral, verify

from layers import VERIFY_CRITERIA


def switching_family(g, contrast=1.0, depth=-2.0):
    well = potential.shape_field(g, "sech2", amplitude=depth, width=1.0)
    mod = potential.shape_field(g, "sech2", amplitude=1.0, width=1.0)
    return potential.make_amplitude_family(well, mod, [-contrast, contrast], g)


def gauge_family(g, depth=-2.0):
    """V(x, y) = well(x) + f(y): randomness enters only through the phase."""
    well = potential.shape_field(g, "sech2", amplitude=depth, width=1.0)
    return potential.make_amplitude_family(well, np.ones(g.size), [-0.5, 0.5], g)


def two_state_model(dirac=None):
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return markov.MarkovModel(A, initial_law=np.array([0.5, 0.5]) if dirac is None
                              else dirac)


def centered_gaussian(g):
    L = g.box_length
    x = ((g.coordinates()[0] - L / 2.0 + L / 2.0) % L) - L / 2.0
    return grid.WaveField(g, (np.pi ** -0.25 * np.exp(-x**2 / 2.0)).astype(complex))


def outer_products(law, psi0):
    return np.array([w * np.outer(psi0.values, psi0.values.conj()) for w in law])


def fk_gates(res, se):
    """C5's gates: pointwise max(5% of rhs, 3 SE), exact at t = 0."""
    gates = np.maximum(0.05 * np.abs(res["rhs"]), 3.0 * se)
    pointwise = bool(np.all(np.abs(res["lhs"] - res["rhs"]) <= gates))
    t0 = bool(abs(res["lhs"][0] - res["rhs"][0]) <= 1e-10 * abs(res["rhs"][0]))
    return pointwise, t0


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class McEnsemble:
    """C4/C5 shape: n=64, L=20, dt=0.01, T=2, 9 sample times, switching
    family, Dirac start, density matrices accumulated.

    Repeat r runs block r mod BLOCKS of N paths, each block with its own
    master seed.  Exact gates apply to every repeat, a replayed block must
    reproduce its first run byte for byte, and the statistical gates (C4's
    3 SE, C5's) apply to the union of the distinct blocks run: at N = 100
    a single block leaves C5's pointwise gate to its 3 SE term, and the
    block with master seed 13 misses it at one sample time.
    """

    name = "mc-ensemble"
    N = 100
    BLOCKS = 12

    def build(self, seed):
        g = grid.SpatialGrid(1, 64, 20.0)
        return SimpleNamespace(
            grid=g, family=switching_family(g), model=two_state_model(dirac=0),
            psi0=centered_gaussian(g),
            cfg=propagator.SolverConfig(dt=0.01,
                                        sample_times=np.arange(0.0, 2.001, 0.25)),
            blocks=[ensemble.EnsembleConfig(N=self.N, master_seed=seed * self.BLOCKS + b,
                                            horizon=2.0, store_density_matrix=True)
                    for b in range(self.BLOCKS)],
            repeats=0, union=None, union_series=[])

    def reference(self, inp):
        law = inp.model.initial_law
        g0 = averaged.AveragedField(inp.grid, np.vstack([inp.psi0.values * w
                                                         for w in law]))
        f0 = averaged.AveragedDensityMatrix(inp.grid, outer_products(law, inp.psi0))
        return SimpleNamespace(
            g=averaged.solve_scalar_averaged(g0, inp.family, inp.model, inp.cfg),
            f=averaged.solve_liouville_averaged(f0, inp.family, inp.model, inp.cfg),
            n0=grid.lebesgue_norm(inp.psi0, 2))

    def run(self, inp, workdir, stage):
        block = inp.repeats % self.BLOCKS
        inp.repeats += 1
        ecfg = inp.blocks[block]
        avg, series = ensemble.run_ensemble(inp.psi0, inp.family, inp.model, None,
                                            inp.cfg, ecfg)
        stage(self.N)
        summary = os.path.join(workdir, "summary.json")
        out = SimpleNamespace(block=block, avg=avg, series=series, summary=summary,
                              g=ensemble.estimate_g(avg, "joint"),
                              f=ensemble.estimate_f(avg, "joint"))
        out.lhs, out.se = ensemble.feynman_kac_lhs(series)
        ensemble.write_summary_json(summary, avg, series, ecfg)
        return out

    def checks(self, inp, ref, out):
        if out.block == len(inp.union_series):  # first run of this block
            inp.union = out.avg if inp.union is None else \
                ensemble.ConditionalAverage.merged([inp.union, out.avg])
            inp.union_series.append(out.series)
        vol = inp.grid.cell_volume
        g0_err = np.sqrt(vol * np.sum(np.abs(out.g.fields[0].g - ref.g[0].g) ** 2))
        g0_norm = np.sqrt(vol * np.sum(np.abs(ref.g[0].g) ** 2))
        f_trace = np.array([averaged.trace(m)[1] for m in out.f.matrices])
        ref_trace = np.array([averaged.trace(s)[1] for s in ref.f])
        fk, f_pairing = self._fk_gates(inp, ref, out.lhs, out.f, out.se)
        return {
            "path-l2-drift<=1e-10": bool(
                np.max(np.abs(out.series.l2 - ref.n0)) / ref.n0 <= 1e-10),
            "bin-counts-sum-to-N": bool(np.all(out.avg.counts.sum(axis=1) == self.N)),
            # t = 0 has no spread under a Dirac start: roundoff, like C5's t = 0
            "g-t0-exact": bool(g0_err <= 1e-10 * g0_norm),
            "fk-lhs-t0": fk[1],
            "f-fk-pairing-t0": f_pairing[1],
            "f-total-trace": bool(np.max(np.abs(f_trace - ref_trace))
                                  <= 1e-10 * abs(ref_trace[0])),
        }

    def final_checks(self, inp, ref):
        """C4's and C5's statistical gates on the union of the blocks run."""
        union = inp.union
        fields = dataclasses.fields(ensemble.PathScalarSeries)
        series = ensemble.PathScalarSeries(**{
            f.name: (inp.cfg.sample_times if f.name == "sample_times" else
                     np.concatenate([getattr(s, f.name) for s in inp.union_series]))
            for f in fields})
        vol = inp.grid.cell_volume
        g = ensemble.estimate_g(union, "joint")
        errs = np.array([np.sqrt(vol * np.sum(np.abs(e.g - r.g) ** 2))
                         for e, r in zip(g.fields, ref.g)])
        ses = np.sqrt(vol * np.sum(g.stderr ** 2, axis=(1, 2)))
        later = inp.cfg.sample_times > 0
        lhs, se = ensemble.feynman_kac_lhs(series)
        fk, f_pairing = self._fk_gates(inp, ref, lhs, ensemble.estimate_f(union, "joint"),
                                       se)
        return {
            "union-g-within-3se": bool(np.all(errs[later]
                                              <= 3.0 * np.maximum(ses[later], 1e-300))),
            "union-fk-lhs-pointwise": fk[0],
            "union-f-fk-pairing-pointwise": f_pairing[0],
        }

    @staticmethod
    def _fk_gates(inp, ref, lhs, f_est, se):
        """C5's gates for the Feynman-Kac lhs, and for the same pairing
        read off the estimated density matrix."""
        res = diagnostics.feynman_kac_residual(inp.cfg.sample_times, lhs, ref.f,
                                               inp.family, stderr=se)
        vol = inp.grid.cell_volume
        absV = np.abs(inp.family.V)
        pairing = np.array([vol * np.sum(absV * np.diagonal(m.f, axis1=1, axis2=2).real)
                            for m in f_est.matrices])
        return fk_gates(res, se), fk_gates(dict(res, lhs=pairing), se)

    def digest(self, out):
        with open(out.summary, "rb") as fh:
            return out.block, sha(out.avg.sums, out.avg.outer_sums, fh.read())

    def pool2_speedup(self, inp):
        """run_ensemble time with one worker over time with two, on three
        blocks' worth of paths so the pool's start-up is not all that is seen."""
        ecfg = dataclasses.replace(inp.blocks[0], N=3 * self.N)
        seconds = {}
        for workers in (1, 2):
            start = time.perf_counter()
            ensemble.run_ensemble(inp.psi0, inp.family, inp.model, None, inp.cfg,
                                  ecfg, workers=workers)
            seconds[workers] = time.perf_counter() - start
        return seconds[1] / seconds[2]


class LongPaths:
    """C11 shape: n=256, L=120, dt=0.01, T=20, one sample, the well's bound
    state as initial data; switching, gauge and switching + Hartree rows."""

    name = "long-paths"
    K = 3  # paths per family

    def build(self, seed):
        g = grid.SpatialGrid(1, 256, 120.0)
        well = potential.shape_field(g, "sech2", amplitude=-2.0, width=1.0)
        _, vecs = np.linalg.eigh(grid.dense_laplacian(g) + np.diag(well))
        psi0 = grid.WaveField(g, (vecs[:, 0] / np.sqrt(g.cell_volume)).astype(complex))
        chi = potential.shape_field(g, "gaussian", amplitude=1.0, width=1.0, center=0.0)
        times = np.array([20.0])
        eps = verify.EPSILON_SMALL  # the battery's "small" Hartree coupling
        switching = switching_family(g)
        return SimpleNamespace(
            grid=g, psi0=psi0, model=two_state_model(),
            window=np.abs(g.coordinates()[0] - g.box_length / 2.0) <= 4.0,
            ecfg=ensemble.EnsembleConfig(N=self.K, master_seed=seed, horizon=20.0),
            rows={
                "switching": (switching, None,
                              propagator.SolverConfig(dt=0.01, sample_times=times)),
                "gauge": (gauge_family(g), None,
                          propagator.SolverConfig(dt=0.01, sample_times=times)),
                "hartree": (switching,
                            potential.HartreeKernel(g, chi, epsilon=eps),
                            propagator.SolverConfig(dt=0.01, sample_times=times,
                                                    epsilon=eps)),
            })

    def reference(self, inp):
        vol = inp.grid.cell_volume
        return SimpleNamespace(
            n0=grid.lebesgue_norm(inp.psi0, 2),
            w0=vol * float(np.sum(np.abs(inp.psi0.values[inp.window]) ** 2)))

    def run(self, inp, workdir, stage):
        out = {}
        for label, (family, kernel, cfg) in inp.rows.items():
            out[label] = ensemble.run_ensemble(inp.psi0, family, inp.model, kernel,
                                               cfg, inp.ecfg)
            stage(inp.ecfg.N)
        return out

    def checks(self, inp, ref, out):
        vol = inp.grid.cell_volume

        def windowed(label):
            avg = out[label][0]
            mass = vol * float(np.sum(avg.sums_sq[0][:, inp.window]))
            return mass / avg.N / ref.w0

        result = {f"{label}-l2-drift<=1e-10": bool(
            np.max(np.abs(series.l2 - ref.n0)) / ref.n0 <= 1e-10)
            for label, (_, series) in out.items()}
        result["switching-mass-decay>=0.25"] = 1.0 - windowed("switching") >= 0.25
        result["gauge-mass-change<=0.01"] = abs(1.0 - windowed("gauge")) <= 0.01
        return result

    def digest(self, out):
        return 0, sha(*(avg.sums for avg, _ in out.values()))


class AveragedSpectral:
    """The deterministic layers: scalar and Liouville solves at n=128 (C6
    step, C7 sampling), the C8 eigensolves (512 x 512) and the C9 scan."""

    name = "averaged-spectral"

    def build(self, seed):
        g = grid.SpatialGrid(1, 128, 20.0)
        model = two_state_model()
        psi0 = centered_gaussian(g)
        gap = 5e-3  # C7's sampling: every fifth step, so the flux identity resolves
        g_eig = grid.SpatialGrid(1, 256, 40.0)
        well = potential.shape_field(g_eig, "sech2", amplitude=-2.0, width=1.0)
        g_kb = grid.SpatialGrid(1, 64, 20.0)
        rng = np.random.default_rng(seed)
        return SimpleNamespace(
            grid=g, model=model, family=switching_family(g),
            g0=averaged.AveragedField(g, np.vstack([0.5 * psi0.values] * 2)),
            scalar_cfg=propagator.SolverConfig(dt=1e-3,
                                               sample_times=np.linspace(0.0, 1.0, 11)),
            f0=averaged.AveragedDensityMatrix(g, outer_products([0.5, 0.5], psi0)),
            liouville_cfg=propagator.SolverConfig(
                dt=1e-3, sample_times=np.round(np.arange(0.0, 0.3 + gap / 2, gap)
                                               / 1e-3) * 1e-3),
            trivial=potential.PotentialFamily(g_eig, np.vstack([well, well])),
            resonant=switching_family(g_eig),
            kb_family=switching_family(g_kb),
            lambdas=spectral.default_lambda_grid(),
            probes=[complex(rng.uniform(-8, 8), rng.uniform(-4, -0.1))
                    for _ in range(5)])

    def reference(self, inp):
        return None

    def run(self, inp, workdir, stage):
        out = SimpleNamespace()
        out.g = averaged.solve_scalar_averaged(inp.g0, inp.family, inp.model,
                                               inp.scalar_cfg)
        stage()
        out.f = averaged.solve_liouville_averaged(inp.f0, inp.family, inp.model,
                                                  inp.liouville_cfg)
        stage()
        out.min_eigs = [averaged.psd_check(s) for s in out.f]
        out.identity = diagnostics.energy_derivative_identity(out.f, inp.family,
                                                              inp.model)
        stage()
        out.trivial = spectral.eigen_analysis(
            spectral.assemble_h(inp.trivial, inp.model, cap=4096))
        stage()
        out.resonant = spectral.eigen_analysis(
            spectral.assemble_h(inp.resonant, inp.model, cap=4096))
        stage()
        out.scan = spectral.kb_scan(inp.kb_family, inp.model, inp.lambdas)
        stage()
        out.residuals = [spectral.resolvent_identity_residual(inp.kb_family,
                                                              inp.model, lam)
                         for lam in inp.probes]
        return out

    def checks(self, inp, ref, out):
        totals = np.array([averaged.trace(s)[1] for s in out.f])
        scale_f = max(float(np.max(np.abs(s.f))) for s in out.f)
        herm = max(s.hermiticity_residual() for s in out.f) / scale_f
        min_eig = min(float(m.min()) for m in out.min_eigs)
        ident = out.identity
        ident_scale = max(float(np.max(np.abs(ident.lhs))),
                          float(np.max(np.abs(ident.rhs))), 1e-300)
        vol = inp.grid.cell_volume
        g_norms = np.array([np.sqrt(vol * np.sum(np.abs(s.g) ** 2)) for s in out.g])
        triv = out.trivial.discrete_subset()
        res = out.resonant.discrete_subset()
        return {
            "liouville-trace-drift<=1e-8": bool(
                np.max(np.abs(totals - totals[0])) / abs(totals[0]) <= 1e-8),
            "liouville-hermiticity<=1e-12": bool(herm <= 1e-12),
            "liouville-psd>=-1e-8trace": bool(min_eig >= -1e-8 * totals[0]),
            "energy-identity<=1e-3": bool(
                np.max(np.abs(ident.lhs - ident.rhs)) / ident_scale <= 1e-3),
            "scalar-norm-nonincreasing": bool(
                np.all(g_norms[1:] <= g_norms[:-1] * (1.0 + 1e-12))),
            "c8-trivial-real": bool(triv.size > 0 and float(np.min(np.abs(triv.imag)))
                                    <= 1e-8 * out.trivial.norm),
            "c8-resonance-width": bool(res.size > 0 and float(np.min(res.imag))
                                       >= 1e-6 * out.resonant.norm),
            "kb-global-min>0": bool(out.scan["global_min"] > 0.0),
            "resolvent-residual<=1e-8": bool(max(out.residuals) <= 1e-8),
        }

    def digest(self, out):
        return 0, sha(out.g[-1].g, out.f[-1].f, out.scan["min_singular_values"])


class Battery:
    """``stochnls verify-all`` at default scale through ``cli.main``, with
    the battery narrowed to the nine criteria other than C4, C5 and C11.
    Those three are 82% of the battery and are timed at their own shapes
    by mc-ensemble and long-paths; the whole battery (about 43 s) does not
    fit the run budget of a benchmark run."""

    name = "battery"

    def build(self, seed):
        return SimpleNamespace(seed=seed)

    def reference(self, inp):
        return None

    def run(self, inp, workdir, stage):
        def staged(fn):
            def run_then_close_stage(*args, **kwargs):
                result = fn(*args, **kwargs)
                stage()
                return result
            return run_then_close_stage

        # stages end after every criterion and inside the long ones (C6, C7,
        # C8) after each Liouville solve and eigensolve
        full = verify.CRITERIA
        inner = {name: getattr(verify, name)
                 for name in ("solve_liouville_averaged", "eigen_analysis")}
        verify.CRITERIA = tuple(staged(getattr(verify, fn))
                                for fn in VERIFY_CRITERIA.values())
        for name, fn in inner.items():
            setattr(verify, name, staged(fn))
        try:
            code = cli.main(["verify-all", "--out", workdir, "--seed", str(inp.seed)])
        finally:
            verify.CRITERIA = full
            for name, fn in inner.items():
                setattr(verify, name, fn)
        reports = glob.glob(os.path.join(workdir, f"verify-all-*-seed{inp.seed}",
                                         "report.json"))
        return SimpleNamespace(code=code, report=reports[0] if len(reports) == 1
                               else None)

    def checks(self, inp, ref, out):
        entries = {}
        if out.report is not None:
            with open(out.report) as fh:
                entries = json.load(fh)
        result = {"cli-exit-code-0": out.code == 0,
                  "report-has-the-nine-criteria":
                      sorted(entries) == sorted(VERIFY_CRITERIA)}
        result.update({f"{cid}-passed": bool(entries.get(cid, {}).get("passed", False))
                       for cid in VERIFY_CRITERIA})
        return result

    def digest(self, out):
        if out.report is None:
            return 0, None
        with open(out.report, "rb") as fh:
            return 0, sha(fh.read())


WORKLOADS = {w.name: w for w in (McEnsemble(), LongPaths(), AveragedSpectral(),
                                 Battery())}
