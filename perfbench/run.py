"""Benchmark of stochnls: four workloads, end-to-end metrics, and a traced
per-layer split.

    python3 perfbench/run.py --workload mc-ensemble --seed 1 --seconds 22 --trace 0

Run it from the root of a source checkout: stochnls is imported from
./src, nothing is installed.  One process, one thread, BLAS pinned to
BLAS_THREADS.  The timed section of the workload is repeated until
--seconds have passed (at least MIN_REPEATS times); every repeat's
outputs are checked outside the timed section.  Times are reported at a
reference host speed (hostspeed.py), because this shared host's speed
swings by more than half between phases.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (correctness checks) and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it print every metric by name with its unit, name each
failed check, and give the machine facts.  A record of the run, with the
spans of a traced run, is written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, namedtuple

from tracer import KERNEL_SPAN, Tracer

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3
SETUP_PROBES = 5
WORKLOAD_NAMES = ("mc-ensemble", "long-paths", "averaged-spectral", "battery")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")


class Tally:
    """Correctness checks over all repeats.  A repeat whose inputs were run
    before must reproduce that run's outputs byte for byte."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()
        self.digests: dict = {}

    def record(self, results: dict, digest=None) -> None:
        if digest is not None:
            key, value = digest
            if key in self.digests:
                same = value == self.digests[key]
                results = dict(results, **{"repeat-identical": same})
            self.digests.setdefault(key, value)
        for name, ok in results.items():
            self.attempted += 1
            if not ok:
                self.failed[name] += 1


Repeat = namedtuple("Repeat", "raw_s scaled_s path_s paths")


class Stopwatch:
    """Times the stages of a repeat at the reference host speed.

    A stage is the work between two calls of ``stage`` (workloads call it
    where a stage ends; the runner closes the last one).  Each stage is
    timed on its own and multiplied by REF_S over the mean of the
    host-speed kernel's times just before and just after it (see
    hostspeed.py).  Kernel time is not counted, and a traced run records
    it as a span of its own so that no layer is charged for it.
    """

    def __init__(self, tracer=None) -> None:
        import hostspeed  # imports numpy, so only after main() pinned BLAS

        self.hostspeed = hostspeed
        self.tracer = tracer
        self.before = hostspeed.kernel_seconds()

    def begin(self) -> None:
        self.raw = self.scaled = self.path_s = 0.0
        self.paths = 0
        self.t0 = time.perf_counter()

    def stage(self, paths: int = 0) -> None:
        t = time.perf_counter() - self.t0
        if self.tracer is None:
            after = self.hostspeed.kernel_seconds()
        else:
            with self.tracer.span(KERNEL_SPAN):
                after = self.hostspeed.kernel_seconds()
        scaled = t * self.hostspeed.REF_S / (0.5 * (self.before + after))
        self.before = after
        self.raw += t
        self.scaled += scaled
        if paths:
            self.paths += paths
            self.path_s += scaled
        self.t0 = time.perf_counter()

    def repeat(self) -> Repeat:
        return Repeat(self.raw, self.scaled, self.path_s, self.paths)


def timed_loop(wl, inp, ref, workdir, seconds, tally, min_repeats, tracer=None):
    """Repeat the timed section for `seconds`, at least `min_repeats` times;
    outputs are checked after each repeat, untimed."""
    watch = Stopwatch(tracer)
    repeats = []
    start = time.perf_counter()
    while len(repeats) < min_repeats or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_iteration()
        watch.begin()
        out = wl.run(inp, workdir, watch.stage)
        watch.stage()
        repeats.append(watch.repeat())
        tally.record(wl.checks(inp, ref, out), wl.digest(out))
    return repeats


def median_path_rate(repeats) -> float:
    """Per-path solves per second at the reference host speed; 0 for a
    workload without paths."""
    if not repeats[0].paths:
        return 0.0
    return statistics.median(r.paths / r.path_s for r in repeats)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing stochnls and building
    the workload's inputs, at the reference host speed."""
    import hostspeed  # imports numpy, so only after main() pinned BLAS

    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        seconds, kernel = subprocess.run(probe, cwd=ROOT, check=True, capture_output=True,
                                         text=True, timeout=120).stdout.split()
        times.append(float(seconds) * hostspeed.REF_S / float(kernel))
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version, "blas": blas,
            "blas_threads": BLAS_THREADS}


def traced_metrics(wl, inp, ref, workdir, seconds, tally, record):
    """Untraced repeats, then traced ones, for half the time each."""
    import layers

    plain = timed_loop(wl, inp, ref, workdir, seconds / 2, tally, 2)
    pool2 = wl.pool2_speedup(inp) if hasattr(wl, "pool2_speedup") else 0.0
    tracer = Tracer()
    tracer.install(layers.PROBES)
    try:
        traced = timed_loop(wl, inp, ref, workdir, seconds / 2, tally, 2, tracer)
    finally:
        tracer.uninstall()
    per_repeat = [layers.layer_metrics(times, counts, r.scaled_s / r.raw_s) for
                  times, counts, r in zip(tracer.layer_times(), tracer.counts, traced)]
    metrics = {name: statistics.median(it[name] for it in per_repeat)
               for name in per_repeat[0]}
    metrics["ensemble.paths_per_s"] = median_path_rate(plain)
    metrics["ensemble.pool2_speedup"] = pool2
    metrics["trace.overhead_frac"] = (statistics.median(r.scaled_s for r in traced)
                                      / statistics.median(r.scaled_s for r in plain) - 1)
    record.update(untraced=[r._asdict() for r in plain],
                  traced=[r._asdict() for r in traced])
    tracer.write(os.path.join(OUT, f"trace-{wl.name}-seed{record['seed']}.json"), record)
    return metrics, layers.per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "stochnls", "__init__.py")):
        print(f"stochnls sources not found under {SRC}", file=sys.stderr)
        return 2

    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import stochnls
    import workloads

    if not os.path.realpath(stochnls.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"stochnls imported from {stochnls.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    setup_s = setup_seconds(args.workload, args.seed)
    inp = wl.build(args.seed)
    ref = wl.reference(inp)
    tally = Tally()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "machine": machine_facts()}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            metrics, units = traced_metrics(wl, inp, ref, workdir, args.seconds,
                                            tally, record)
        else:
            repeats = timed_loop(wl, inp, ref, workdir, args.seconds, tally,
                                 MIN_REPEATS)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"wall_s": statistics.median(r.scaled_s for r in repeats),
                       "setup_s": setup_s, "peak_rss_mib": peak_rss_mib}
            units = END_TO_END_UNITS
            record.update(repeats=[r._asdict() for r in repeats],
                          paths_per_s=median_path_rate(repeats))
    if hasattr(wl, "final_checks"):
        tally.record(wl.final_checks(inp, ref))
    record.update(attempted=tally.attempted, failed=dict(tally.failed))
    if not args.trace:
        with open(os.path.join(OUT, f"run-{wl.name}-seed{args.seed}.json"), "w") as fh:
            json.dump(record, fh, indent=1)

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        if record["paths_per_s"]:
            print(f"paths_per_s = {record['paths_per_s']:.6g} 1/s")
        raw = statistics.median(r["raw_s"] for r in record["repeats"])
        print(f"wall_raw_s = {raw:.6g} s (unscaled, {len(record['repeats'])} repeats)")
    failed = sum(tally.failed.values())
    print(f"check_fail_frac = {failed / tally.attempted:.6g} "
          f"({failed} of {tally.attempted} checks failed)")
    for name, n in sorted(tally.failed.items()):
        print(f"FAILED check {name} ({n} times)")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
