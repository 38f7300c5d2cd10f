"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig11 --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``fig11``: fast-preset GAN training, then Fig. 11's home and office
  spoofing sweeps. Fixed work; its size is set in ``workloads.py``.
- ``serve-sweep``: 64 closed-loop callers send stateless requests drawn
  from the scenario catalog's traffic mix for ``--seconds``.
- ``serve-track``: tracking sessions send chunks on a fixed schedule for
  ``--seconds`` (open loop).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the run installs span wrappers around the program's public entry points
(``layers.py``) and prints the per-layer metrics instead.
The last line of standard output is the result object; the line before it
records the load shape and provenance. The exit code is non-zero when an
output check fails or the program's sources are missing.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: One BLAS thread per compute thread, so busy threads never exceed cores.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS
# The program runs at its registered defaults; no knob leaks in.
for _variable in [name for name in os.environ
                  if name.startswith("RF_PROTECT_")]:
    del os.environ[_variable]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Extra set-up samples taken in child processes (plus the run's own).
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 60


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_sample(args: argparse.Namespace) -> float:
    """Set-up time of the workload in a fresh child process."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit "
                             "(one repeated set-up sample)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"program sources not found under {SRC}")
    benchmark_file = ROOT / "BENCHMARK.json"
    if not benchmark_file.is_file():
        return fail(f"{benchmark_file} not found")
    declared = json.loads(benchmark_file.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from spans import Tracer, span_cost_s

    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return fail(f"imported repro from {repro.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    tracer = Tracer()
    if args.trace:
        for span, targets in layers.ENTRY_POINTS.items():
            for target, units in targets:
                tracer.install(span, target, units)
        tracer.recording = True

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    try:
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples.extend(setup_sample(args)
                                 for _ in range(SETUP_CHILDREN))
        window = workload.run(args.seconds)
        tracer.recording = False
        try:
            workload.check()
            problem = None
        except workloads.CheckFailed as error:
            problem = str(error)
    finally:
        workload.close()

    nproc = os.cpu_count() or 1
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "blas_threads": int(BLAS_THREADS),
        "service_workers": workload.workers,
        "busy_threads": workload.busy_threads,
        "python": sys.version.split()[0],
        "inputs": window.shape,
        "window": {"wall_s": window.end - window.start,
                   "cpu_s": window.cpu_s, "units": window.units},
        "figures": window.figures,
    }
    if not args.trace:
        provenance["setup_samples_s"] = setup_samples

    if args.trace:
        values = layers.per_layer_values(tracer.spans, window, span_cost_s())
        missing = [span for span in layers.EXERCISED[args.workload]
                   if not any(s.name == span for s in tracer.spans)]
        if missing and problem is None:
            problem = f"traced spans recorded no calls: {', '.join(missing)}"
        names = declared["per_layer"]
        predicted = {name for metrics, _, _ in layers.LAYERS.values()
                     for name in metrics}
        if predicted != {metric["name"] for metric in names} and not problem:
            problem = "per-layer metrics differ from the LAYERS table"
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  **window.metrics}
        names = declared["end_to_end"]
        # Every workload reports every end-to-end metric, never as zero.
        declared_names = {metric["name"] for metric in names}
        if declared_names != set(values) and problem is None:
            problem = (f"end-to-end metrics {sorted(values)} differ from "
                       f"BENCHMARK.json's {sorted(declared_names)}")
        zero = sorted(name for name, value in values.items() if not value)
        if zero and problem is None:
            problem = f"end-to-end metrics read zero: {zero}"
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0),
                                "unit": metric["unit"]}
               for metric in names}
    if problem is not None:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": problem is None,
                      "attempted": window.attempted,
                      "failed": window.failed, "metrics": metrics}))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
