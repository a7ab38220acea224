"""Self-test of the benchmark's computed counts and span bookkeeping.

    python3 -m pytest perfbench

The counts are derived from call arguments (jump times, the step grid,
array shapes), so one traced repeat at a fixed seed must give exactly the
same counts every time, and they must agree with what the spans count
directly where both exist.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5


def traced_repeat(name, workdir):
    wl = workloads.WORKLOADS[name]
    inp = wl.build(SEED)
    tracer = Tracer()
    tracer.install(layers.PROBES)
    try:
        tracer.begin_iteration()
        wl.run(inp, str(workdir), lambda paths=0: None)
    finally:
        tracer.uninstall()
    return inp, dict(tracer.counts[0]), tracer


@pytest.mark.parametrize("name", ["mc-ensemble", "long-paths", "averaged-spectral"])
def test_counts_repeat_exactly(name, tmp_path):
    _, first, _ = traced_repeat(name, tmp_path)
    _, second, _ = traced_repeat(name, tmp_path)
    assert first and first == second


def test_path_counts_follow_the_step_grid(tmp_path):
    inp, counts, tracer = traced_repeat("mc-ensemble", tmp_path)
    N = inp.blocks[0].N
    intervals = inp.cfg.sample_times.size - 1  # t = 0 is recorded, not marched
    steps = int(round(inp.cfg.sample_times[-1] / inp.cfg.dt))
    times = tracer.layer_times()[0]
    assert times["propagator.evolve_path"]["calls"] == N
    assert times["markov.sample_path"]["calls"] == N
    # every jump falls strictly inside some base step and adds one substep
    assert counts["propagator.substeps"] == N * steps + counts["markov.jumps"]
    assert counts["propagator.jump_split_steps"] <= counts["markov.jumps"]
    assert counts["propagator.fft_calls"] == 2 * (counts["propagator.substeps"]
                                                  + N * intervals)


def test_hartree_substeps_match_potential_calls(tmp_path):
    inp, counts, tracer = traced_repeat("long-paths", tmp_path)
    rows = len(inp.rows)
    # the three rows march the same paths, and a Hartree row evaluates its
    # potential once per substep
    hartree_substeps = counts["propagator.substeps"] // rows
    calls = tracer.layer_times()[0]["propagator.hartree_potential"]["calls"]
    assert calls == hartree_substeps
    assert counts["propagator.fft_calls"] == (
        2 * (counts["propagator.substeps"] + rows * inp.ecfg.N) + 3 * hartree_substeps)


def test_deterministic_layer_counts(tmp_path):
    inp, counts, _ = traced_repeat("averaged-spectral", tmp_path)
    liouville_steps = int(round(inp.liouville_cfg.sample_times[-1] / 1e-3))
    assert counts["averaged.scalar_steps"] == int(round(1.0 / 1e-3))
    assert counts["averaged.liouville_steps"] == liouville_steps
    assert counts["averaged.liouville_fft_calls"] == liouville_steps * inp.model.m * 8
    assert counts["spectral.eigen_flops"] == 2 * 100 * 512**3
    assert counts["spectral.kb_scan.lambdas"] == inp.lambdas.size


def test_self_times_partition_the_root_spans(tmp_path):
    _, _, tracer = traced_repeat("mc-ensemble", tmp_path)
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    selves = sum(entry["self_s"] for entry in tracer.layer_times()[0].values())
    assert selves == pytest.approx(roots, rel=1e-9)
