import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stochnls.cli import (
    ConfigError,
    build_objects,
    config_hash,
    main,
    parse_config,
    run,
)

SMALL = """
experiment.kind = "path"
grid.n = 32
grid.L = 16.0
solver.dt = 0.01
solver.T = 0.5
solver.sample_count = 6
ensemble.N = 5
ensemble.seed = 3
"""


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_config(text="")
        assert cfg["experiment.kind"] == "verify-all"
        assert cfg["grid.n"] == 256
        assert cfg["solver.order"] == 2

    def test_values_and_comments(self):
        cfg = parse_config(text=SMALL + "\n# trailing comment\n")
        assert cfg["grid.n"] == 32
        assert cfg["solver.T"] == 0.5
        assert cfg["ensemble.N"] == 5

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError) as err:
            parse_config(text="grid.m = 16\n")
        assert "unknown key" in str(err.value)
        assert "grid.n" in str(err.value)  # closest-match hint

    def test_amplitude_length_mismatch_names_both_keys(self):
        text = 'markov.matrix = [[1.0, -1.0], [-1.0, 1.0]]\npotential.amplitudes = [1.0]\n'
        with pytest.raises(ConfigError) as err:
            parse_config(text=text)
        msg = str(err.value)
        assert "potential.amplitudes" in msg and "markov.matrix" in msg

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(text="grid.n = 32\ngrid.n = 64\n")
        assert "line 2" in str(err.value)

    def test_syntax_error_names_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(text="grid.n = \n")
        assert "line 1" in str(err.value)

    def test_key_type_and_cross_key_errors_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config(text='x = 1\ngrid.n = "lots"\nsolver.dt = -1\n')
        msg = str(err.value)
        assert "unknown key 'x'" in msg
        assert "'grid.n': expected int" in msg
        assert "solver.dt must be positive" in msg

    def test_tables_match_dotted_keys(self):
        dotted = parse_config(text=SMALL)
        tables = parse_config(text="""
ensemble = {N = 5, seed = 3}  # inline table, before any header

[experiment]
kind = "path"

[grid]
n = 32
L = 16.0

[solver]
dt = 0.01
T = 0.5
sample_count = 6
""")
        assert tables == dotted
        assert config_hash(tables) == config_hash(dotted)

    def test_hashes_pinned(self):
        # output directory names derive from these; a parser change that
        # moved them would orphan every earlier run's artifacts
        assert config_hash(parse_config(text="")) == "44e999e40354"
        assert config_hash(parse_config(text=SMALL)) == "cad5054c9718"

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError):
            parse_config(text='grid.n = "lots"\n')

    def test_zero_paths_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(text="ensemble.N = 0\n")
        assert "ensemble.N" in str(err.value)

    def test_nested_arrays(self):
        cfg = parse_config(text="markov.matrix = [[2.0, -2.0], [-2.0, 2.0]]\n")
        assert cfg["markov.matrix"] == [[2.0, -2.0], [-2.0, 2.0]]

    def test_matrix_csv_loading(self, tmp_path):
        f = tmp_path / "gen.csv"
        f.write_text("1.0,-1.0\n-1.0,1.0\n")
        cfg = parse_config(text=f'markov.matrix_csv = "{f}"\n')
        _, model, *_ = build_objects(cfg)
        np.testing.assert_array_equal(model.A, [[1.0, -1.0], [-1.0, 1.0]])

    def test_hash_stable_under_formatting(self):
        a = parse_config(text="grid.n = 32\n")
        b = parse_config(text="grid.n =   32   # comment\n")
        assert config_hash(a) == config_hash(b)


class TestBuildObjects:
    def test_dirac_initial_state(self):
        cfg = parse_config(text="markov.initial_state = 1\n")
        _, model, *_ = build_objects(cfg)
        np.testing.assert_array_equal(model.initial_law, [0.0, 1.0])

    def test_sample_times_snap_to_dt(self):
        cfg = parse_config(text=SMALL)
        *_, solver_cfg, _ = build_objects(cfg)
        steps = solver_cfg.sample_times / solver_cfg.dt
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_translate_family(self):
        text = 'potential.family = "translate"\npotential.shifts = [0, 4]\n'
        cfg = parse_config(text=text)
        _, _, family, *_ = build_objects(cfg)
        np.testing.assert_array_equal(family.V[1],
                                      np.roll(family.V[0], 4))


class TestRunExperiments:
    def out_dirs(self, root):
        return [os.path.join(root, d) for d in sorted(os.listdir(root))]

    def test_path_experiment(self, tmp_path):
        cfg = parse_config(text=SMALL)
        code = run(cfg, str(tmp_path))
        assert code == 0
        out = self.out_dirs(tmp_path)[0]
        names = sorted(os.listdir(out))
        assert names == ["final_snapshot.bin", "manifest.json", "report.json",
                         "scalars.csv"]
        lines = open(os.path.join(out, "scalars.csv")).read().strip().split("\n")
        assert lines[0] == "t,l2,suml2linf,energy_kinetic,energy_potential,energy_hartree"
        assert len(lines) == 1 + 6  # SMALL's six sample times
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["unitarity"]["passed"]
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert manifest["seed"] == 3
        assert "wall_time_s" in manifest

    def test_liouville_experiment(self, tmp_path):
        text = SMALL.replace('"path"', '"liouville"')
        code = run(parse_config(text=text), str(tmp_path))
        assert code == 0
        out = self.out_dirs(tmp_path)[0]
        dlines = open(os.path.join(out, "density.csv")).read().strip().split("\n")
        assert dlines[0] == "t,y," + ",".join(f"rho{i}" for i in range(32))
        assert len(dlines) == 1 + 6 * 2  # six times, two states
        tlines = open(os.path.join(out, "trace.csv")).read().strip().split("\n")
        assert tlines[0] == "t,trace0,trace1,trace_total,hermiticity_residual,min_eigenvalue"
        assert len(tlines) == 1 + 6
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["trace_conservation"]["passed"]
        assert report["hermiticity"]["passed"]
        assert report["positivity"]["passed"]

    def failed_report(self, tmp_path, kind):
        """Run the kind on SMALL; require exit code 1 and return report.json."""
        text = SMALL.replace('"path"', f'"{kind}"')
        assert run(parse_config(text=text), str(tmp_path)) == 1
        out = self.out_dirs(tmp_path)[0]
        return json.loads(open(os.path.join(out, "report.json")).read())

    def test_path_experiment_fails_on_a_growing_norm(self, tmp_path, monkeypatch):
        from stochnls import cli

        evolve_path = cli.evolve_path

        def growing(*args, **kwargs):
            out = evolve_path(*args, **kwargs)
            l2 = out.scalars["l2"]
            out.scalars["l2"] = l2 * (1.0 + 1e-6 * np.arange(l2.size))
            return out
        monkeypatch.setattr(cli, "evolve_path", growing)
        assert self.failed_report(tmp_path, "path")["unitarity"]["passed"] is False

    def test_liouville_experiment_fails_on_a_lost_trace(self, tmp_path, monkeypatch):
        from stochnls import cli
        from stochnls.averaged import AveragedDensityMatrix

        solve = cli.solve_liouville_averaged

        def scaled(*args, **kwargs):
            series = solve(*args, **kwargs)
            last = series[-1]  # scaled, it stays Hermitian and positive
            series[-1] = AveragedDensityMatrix(last.grid, 1.01 * last.f, t=last.t)
            return series
        monkeypatch.setattr(cli, "solve_liouville_averaged", scaled)
        report = self.failed_report(tmp_path, "liouville")
        assert report["trace_conservation"]["passed"] is False
        assert report["hermiticity"]["passed"] and report["positivity"]["passed"]

    def test_spectrum_experiment_fails_below_the_real_axis(self, tmp_path, monkeypatch):
        # eigen_analysis itself raises on such a spectrum, so the gate is
        # reached only through a substitute
        from stochnls import cli
        from stochnls.spectral import EigenReport

        def leaked(ham):
            return EigenReport(eigenvalues=np.array([1.0 - 1e-3j]),
                               localization=np.array([0.0]), min_imag=-1e-3, norm=1.0)
        monkeypatch.setattr(cli, "eigen_analysis", leaked)
        assert self.failed_report(tmp_path, "spectrum")["upper_half_plane"]["passed"] is False

    def test_kb_scan_experiment_fails_on_a_singular_point(self, tmp_path, monkeypatch):
        from stochnls import cli

        kb_scan = cli.kb_scan

        def singular(*args, **kwargs):
            scan = kb_scan(*args, **kwargs)
            scan["global_min"] = 0.0
            return scan
        monkeypatch.setattr(cli, "kb_scan", singular)
        assert self.failed_report(tmp_path, "kb-scan")["invertible"]["passed"] is False

    def test_ensemble_experiment(self, tmp_path):
        text = SMALL.replace('"path"', '"ensemble"')
        code = run(parse_config(text=text), str(tmp_path))
        assert code == 0
        out = self.out_dirs(tmp_path)[0]
        doc = json.loads(open(os.path.join(out, "summary.json")).read())
        assert doc["N"] == 5
        assert sum(doc["per_time"][0]["counts"]) == 5
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert sorted(report) == ["exact_conditioning"]
        assert report["exact_conditioning"]["passed"] is True
        norms = json.loads(open(os.path.join(out, "spacetime_norms.json")).read())
        assert sorted(norms) == ["l2_omega_l2_t_l62", "per_path_mean_l2_t_l62",
                                 "per_path_std_l2_t_l62"]

    def test_ensemble_experiment_fails_on_lost_paths(self, tmp_path, monkeypatch):
        from stochnls import cli

        run_ensemble = cli.run_ensemble

        def losing(*args, **kwargs):
            avg, series = run_ensemble(*args, **kwargs)
            avg.counts[-1, 0] -= 1  # the counts at the last time no longer sum to N
            return avg, series
        monkeypatch.setattr(cli, "run_ensemble", losing)
        text = SMALL.replace('"path"', '"ensemble"')
        assert run(parse_config(text=text), str(tmp_path)) == 1
        out = self.out_dirs(tmp_path)[0]
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["exact_conditioning"]["passed"] is False

    def test_ensemble_density_trace(self, tmp_path, monkeypatch):
        from stochnls import cli

        text = SMALL.replace('"path"', '"ensemble"') + "ensemble.store_density_matrix = true\n"
        assert run(parse_config(text=text), str(tmp_path / "exact")) == 0
        report = json.loads(open(os.path.join(self.out_dirs(tmp_path / "exact")[0],
                                              "report.json")).read())
        assert sorted(report) == ["density_trace", "exact_conditioning"]
        assert report["density_trace"]["passed"] is True
        assert report["density_trace"]["max_relative_deviation"] <= 1e-12

        run_ensemble = cli.run_ensemble

        def inflated(*args, **kwargs):
            avg, series = run_ensemble(*args, **kwargs)
            avg.outer_sums *= 1.0 + 1e-9  # the trace no longer matches l2
            return avg, series
        monkeypatch.setattr(cli, "run_ensemble", inflated)
        assert run(parse_config(text=text), str(tmp_path / "inflated")) == 1
        report = json.loads(open(os.path.join(self.out_dirs(tmp_path / "inflated")[0],
                                              "report.json")).read())
        assert report["density_trace"]["passed"] is False
        assert report["exact_conditioning"]["passed"] is True

    def test_entry_without_a_verdict_fails(self, tmp_path, monkeypatch):
        from stochnls import verify

        monkeypatch.setattr(verify, "CRITERIA", (lambda scale, seed, out_dir: {"id": "C0"},))
        assert run(parse_config(text='experiment.kind = "verify-all"'), str(tmp_path)) == 1

    def test_spectrum_and_kb_scan(self, tmp_path):
        for kind in ("spectrum", "kb-scan"):
            text = SMALL.replace('"path"', f'"{kind}"')
            code = run(parse_config(text=text), str(tmp_path))
            assert code == 0
        files = []
        for d in self.out_dirs(tmp_path):
            files.extend(os.listdir(d))
        assert "spectrum.csv" in files and "scan.csv" in files
        spec_dir, scan_dir = (next(d for d in self.out_dirs(tmp_path)
                                   if os.path.basename(d).startswith(kind))
                              for kind in ("spectrum", "kb-scan"))
        lines = open(os.path.join(spec_dir, "spectrum.csv")).read().split()
        assert lines[0] == "re,im,localization"
        assert len(lines) == 1 + 2 * 32  # every eigenvalue of the 64 x 64 H
        re = np.loadtxt(os.path.join(spec_dir, "spectrum.csv"), delimiter=",",
                        skiprows=1)[:, 0]
        assert np.all(np.diff(re) >= 0.0)  # sorted by real part
        lines = open(os.path.join(scan_dir, "scan.csv")).read().split()
        assert lines[0] == "re_lambda,im_lambda,min_singular_value"
        assert len(lines) == 1 + 21 * 6  # the default lambda grid
        # lambda = 0 lies in spec(H0): scan.csv carries nan there only
        assert [r for r in lines[1:] if r.endswith(",nan")] == ["0,0,nan"]
        report = json.loads(open(os.path.join(scan_dir, "report.json")).read())
        assert report["invertible"]["global_min"] > 0.0

    def test_two_point_grid_spectrum_and_kb_scan(self, tmp_path):
        # n = 2 has no pair j != -j, so its odd parity block is empty
        text = SMALL.replace("grid.n = 32", "grid.n = 2")
        for kind in ("spectrum", "kb-scan"):
            assert run(parse_config(text=text.replace('"path"', f'"{kind}"')),
                       str(tmp_path)) == 0

    def test_verify_all_runtimes_go_to_manifest(self, tmp_path, monkeypatch):
        from stochnls import verify

        monkeypatch.setattr(verify, "CRITERIA",
                            (verify.c1_unitarity, verify.c3_tensor_oracle))
        cfg = parse_config(text='experiment.kind = "verify-all"')
        assert run(cfg, str(tmp_path)) == 0
        out = self.out_dirs(tmp_path)[0]
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        runtimes = manifest["criterion_runtime_s"]
        assert sorted(runtimes) == ["C1", "C3"]
        assert all(isinstance(v, float) and v >= 0.0 for v in runtimes.values())
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert sorted(report) == ["C1", "C3"]
        assert not any("runtime_s" in entry for entry in report.values())

    def test_manifest_records_blas_thread_env(self, tmp_path, monkeypatch):
        # report.json depends on the BLAS thread count, so the manifest
        # says which count a run had; an unset variable reads null
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(parse_config(text=SMALL), str(tmp_path)) == 0
        out = self.out_dirs(tmp_path)[0]
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert manifest["blas_thread_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                               "OMP_NUM_THREADS": "2",
                                               "MKL_NUM_THREADS": None}

    def test_manifest_records_blas_core(self, tmp_path, monkeypatch):
        # under two BLAS threads the bytes also depend on OpenBLAS's kernel set
        from stochnls import cli
        assert run(parse_config(text=SMALL), str(tmp_path)) == 0
        manifest = json.loads(open(os.path.join(self.out_dirs(tmp_path)[0],
                                                "manifest.json")).read())
        assert manifest["blas_core"] == cli.blas_core()
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        named = subprocess.run([sys.executable, "-c", "from stochnls.cli import blas_core; "
                                "print(blas_core())"], env=env, capture_output=True,
                               text=True, check=True).stdout.strip()
        assert named == ("None" if cli.blas_core() is None else "Haswell")
        monkeypatch.setattr(cli.glob, "glob", lambda pattern: [])  # no bundled OpenBLAS
        assert cli.blas_core() is None

    def test_average_experiment(self, tmp_path):
        text = SMALL.replace('"path"', '"average"')
        assert run(parse_config(text=text), str(tmp_path)) == 0
        out = self.out_dirs(tmp_path)[0]
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["l2_nonincreasing"]["passed"]

    def test_average_experiment_fails_on_a_growing_norm(self, tmp_path, monkeypatch):
        from stochnls import cli
        from stochnls.averaged import AveragedField

        def growing(g0, family, model, cfg):
            return [AveragedField(g0.grid, g0.g * (1.0 + 1e-9 * k), t=t)
                    for k, t in enumerate(cfg.sample_times)]
        monkeypatch.setattr(cli, "solve_scalar_averaged", growing)
        text = SMALL.replace('"path"', '"average"')
        assert run(parse_config(text=text), str(tmp_path)) == 1
        out = self.out_dirs(tmp_path)[0]
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["l2_nonincreasing"]["passed"] is False
        assert report["l2_nonincreasing"]["max_step_increase"] > 0.0

    def test_seed_override_changes_output_dir(self, tmp_path):
        cfg = parse_config(text=SMALL)
        run(cfg, str(tmp_path), seed=11)
        assert any(d.endswith("seed11") for d in os.listdir(tmp_path))

    def test_artifacts_byte_identical_on_rerun(self, tmp_path):
        cfg = parse_config(text=SMALL.replace('"path"', '"ensemble"'))
        run(cfg, str(tmp_path / "a"))
        run(cfg, str(tmp_path / "b"))
        dir_a = self.out_dirs(tmp_path / "a")[0]
        dir_b = self.out_dirs(tmp_path / "b")[0]
        for name in sorted(os.listdir(dir_a)):
            if name == "manifest.json":  # carries wall time by design
                continue
            a = open(os.path.join(dir_a, name), "rb").read()
            b = open(os.path.join(dir_b, name), "rb").read()
            assert a == b, f"{name} differs between identical runs"


class TestMainEntry:
    def test_fit_decay_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "scalars.csv"
        t = np.linspace(1.0, 20.0, 40)
        with open(csv, "w") as fh:
            fh.write("t,suml2linf\n")
            for ti, vi in zip(t, 2.0 * t**-0.5):
                fh.write(f"{ti},{vi}\n")
        code = main(["fit-decay", "--input", str(csv),
                     "--t-min", "2", "--t-max", "18"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["slope"] + 0.5) < 1e-9

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.m = 12\n")
        code = main(["path", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_liouville_beyond_its_cap_exit_code(self, tmp_path, capsys):
        # the shipped grid.n = 256 exceeds the Liouville solver's n <= 128
        code = main(["liouville", "--seed", "7", "--out", str(tmp_path)])
        assert code == 2
        assert "grid.n <= 128" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        with pytest.raises(ConfigError, match="liouville kind"):
            parse_config(text='experiment.kind = "liouville"\ngrid.d = 2\ngrid.n = 16\n')
        assert parse_config(text="grid.n = 128\n", kind="liouville")["experiment.kind"] \
            == "liouville"

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("grid.n = \n")
        code = main(["path", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("path", "markov.matrix = [[1.0, 1.0], [-1.0, 1.0]]", "generator fails validation"),
        ("path", "markov.matrix = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]", "square matrix"),
        ("path", "markov.initial_law = [0.7, 0.7]", "probability vector"),
        ("path", 'potential.shape = "triangle"', "unknown potential shape"),
        ("path", 'potential.family = "bogus"', "unknown potential.family"),
        ("path", "grid.d = 0", "dim must be >= 1"),
        ("path", "grid.L = -1.0", "box_length must be positive"),
        ("fit-decay", None, "missing.csv"),
        ("fit-decay", "t,suml2linf\n1.0,1.0\n1.5,0.8\n3.0,0.5", "at least three samples"),
        ("fit-decay", "t,suml2linf\n1.0,1.0\n1.5,0.0\n2.0,0.5", "must be positive"),
    ], ids=["not-laplacian", "not-square", "law", "shape", "family", "d", "L",
            "fit-decay-input", "fit-decay-window", "fit-decay-nonpositive"])
    def test_constructor_errors_exit_code(self, tmp_path, capsys, command, text, message):
        """A config that passes the key checks but that a constructor
        refuses, a missing fit-decay input, or a fit-decay window that
        cannot be fitted exits 2 with the message on stderr and leaves no
        run directory."""
        out = tmp_path / "out"
        if command == "fit-decay":
            csv = tmp_path / ("missing.csv" if text is None else "scalars.csv")
            if text is not None:
                csv.write_text(text + "\n")
            argv = ["fit-decay", "--input", str(csv), "--t-min", "1", "--t-max", "2"]
        else:
            (tmp_path / "run.toml").write_text(text + "\n")
            argv = ["path", "--config", str(tmp_path / "run.toml"), "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, threads", [("3", 3), ("two", None)])
    def test_threads_env(self, tmp_path, monkeypatch, capsys, value, threads):
        """STOCHNLS_THREADS is the --threads default; a value that is not an
        int is a usage error, exit 2, before any run starts."""
        import stochnls.cli

        monkeypatch.setenv("STOCHNLS_THREADS", value)
        seen = []
        monkeypatch.setattr(stochnls.cli, "run",
                            lambda cfg, out, seed, threads: seen.append(threads) or 0)
        argv = ["path", "--out", str(tmp_path)]
        if threads is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "argument --threads: invalid int value: 'two'" in capsys.readouterr().err
        else:
            assert main(argv) == 0
        assert seen == ([] if threads is None else [threads])

    def test_path_via_main(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(SMALL.replace('"path"', '"average"'))
        code = main(["path", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0  # subcommand overrides experiment.kind
        assert any(d.startswith("path-") for d in os.listdir(tmp_path))
