"""BLAS-kernel check: run the tests of "regardless of batch size" under each
OpenBLAS kernel set, at one and two BLAS threads, each in its own process.

    python3 mutants/kernels.py

OpenBLAS picks its kernels for the CPU it runs on, and OPENBLAS_CORETYPE
makes one process take another set.  For each kernel set (SkylakeX, Haswell,
Sandybridge and Prescott) and BLAS thread count (1 and 2) this runs
tests/test_batch.py, tests/test_ensemble_parallel.py and C12's double
battery, which runs C5's ensemble at two batch sizes, and prints pytest's
summary beside the kernel name the library reports.  Once per kernel set it
also runs the Liouville thread test, which compares one and two threads
itself.  It runs the checkout's tests in place, with pytest's cache off.
The exit status is 0 only when every run passed.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
BATCH_TESTS = ["tests/test_batch.py", "tests/test_ensemble_parallel.py",
               "tests/test_acceptance.py::test_c12_verify_all_determinism"]
THREAD_TEST = ["tests/test_averaged.py::test_liouville_bytes_do_not_depend_on_blas_threads"]
# the kernel name numpy's bundled OpenBLAS reports ("?" for another BLAS)
CORENAME = "from stochnls.cli import blas_core; print(blas_core() or '?')"


def environment(core: str, threads: int) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1",
                OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS=str(threads),
                OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))


def pytest(env: dict, node_ids: list[str]) -> tuple[bool, str]:
    """(passed, pytest's last summary line)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    return run.returncode == 0, lines[-1] if lines else run.stderr.strip()[-200:]


def main() -> int:
    failed = 0
    for core in CORES:
        name = subprocess.run([sys.executable, "-c", CORENAME], env=environment(core, 1),
                              capture_output=True, text=True).stdout.strip()
        runs = [(f"{threads} thread{'s' * (threads > 1)}", environment(core, threads),
                 BATCH_TESTS) for threads in (1, 2)]
        runs.append(("1 vs 2 threads", environment(core, 1), THREAD_TEST))
        for label, env, tests in runs:
            passed, summary = pytest(env, tests)
            failed += not passed
            what = "Liouville" if tests is THREAD_TEST else "batch"
            print(f"{f'{core} ({name})':<26} {what:<9} {label:<15} {summary}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
