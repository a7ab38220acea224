import dataclasses

import numpy as np
import pytest

from stochnls import ensemble
from stochnls.ensemble import EnsembleConfig, run_ensemble, strichartz_orders, \
    write_summary_json
from stochnls.grid import SpatialGrid, WaveField
from stochnls.markov import MarkovModel, sample_path
from stochnls.potential import make_amplitude_family, shape_field
from stochnls.propagator import SolverConfig


def setup():
    grid = SpatialGrid(1, 32, 12.0)
    well = shape_field(grid, "sech2", amplitude=-2.0, width=1.0)
    fam = make_amplitude_family(well, well, [-1.0, 1.0], grid)
    model = MarkovModel(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                        initial_law=np.array([0.5, 0.5]))
    L = grid.box_length
    x = ((grid.coordinates()[0] - L / 2 + L / 2) % L) - L / 2
    psi0 = WaveField(grid, np.exp(-x**2 / 2).astype(complex))
    cfg = SolverConfig(dt=0.05, sample_times=np.array([0.0, 0.5, 1.0]))
    ecfg = EnsembleConfig(N=24, master_seed=5, horizon=1.0)
    return psi0, fam, model, cfg, ecfg


def test_parallel_reduction_bit_identical_to_serial(tmp_path):
    psi0, fam, model, cfg, ecfg = setup()
    ecfg = dataclasses.replace(ecfg, store_density_matrix=True)
    avg1, s1 = run_ensemble(psi0, fam, model, None, cfg, ecfg, workers=1)
    try:
        avg2, s2 = run_ensemble(psi0, fam, model, None, cfg, ecfg, workers=2)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"process pool unavailable in this environment: {exc}")
    assert np.array_equal(avg1.sums, avg2.sums)
    assert np.array_equal(avg1.sums_sq, avg2.sums_sq)
    assert np.array_equal(avg1.counts, avg2.counts)
    assert avg1.outer_sums is not None
    assert np.array_equal(avg1.outer_sums, avg2.outer_sums)
    for f in dataclasses.fields(s1):
        assert np.array_equal(getattr(s1, f.name), getattr(s2, f.name)), f.name
    summaries = []
    for avg, series, name in ((avg1, s1, "serial.json"), (avg2, s2, "pool.json")):
        write_summary_json(tmp_path / name, avg, series, ecfg)
        summaries.append((tmp_path / name).read_bytes())
    assert summaries[0] == summaries[1]


def test_batch_seeding_matches_per_path_seeding(tmp_path, monkeypatch):
    """run_ensemble seeds each batch in one pass; its bytes must equal those
    of seeding every path through sample_path, for any batch size and worker
    count."""
    psi0, fam, model, cfg, ecfg = setup()
    ecfg = dataclasses.replace(ecfg, store_density_matrix=True)

    def outputs(name, workers=1):
        avg, series = run_ensemble(psi0, fam, model, None, cfg, ecfg, workers=workers)
        write_summary_json(tmp_path / name, avg, series, ecfg)
        arrays = [avg.sums, avg.sums_sq, avg.counts, avg.outer_sums]
        arrays += [getattr(series, f.name) for f in dataclasses.fields(series)]
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays], (tmp_path / name).read_bytes()

    with monkeypatch.context() as patch:
        patch.setattr(ensemble, "sample_paths", lambda model, T, master, indices: [
            sample_path(model, T, seed=(master, i)) for i in indices])
        reference = outputs("reference.json")
    for rows in (1, 7, 256):
        monkeypatch.setattr(ensemble, "_BATCH_ROWS", rows)
        for workers in (1, 2):
            try:
                got = outputs(f"rows{rows}-workers{workers}.json", workers)
            except (OSError, PermissionError) as exc:  # pragma: no cover
                pytest.skip(f"process pool unavailable in this environment: {exc}")
            assert got == reference, (rows, workers)


def test_strichartz_orders_labels_both():
    psi0, fam, model, cfg, ecfg = setup()
    _, series = run_ensemble(psi0, fam, model, None, cfg, ecfg)
    orders = strichartz_orders(series)
    assert set(orders) == {"l2_omega_l2_t_l62", "per_path_mean_l2_t_l62",
                           "per_path_std_l2_t_l62"}
    # quadratic mean dominates the arithmetic mean
    assert orders["l2_omega_l2_t_l62"] >= orders["per_path_mean_l2_t_l62"] - 1e-12
