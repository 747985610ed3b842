"""Run one benchmark workload of the contagion package and print its metrics.

    python3 bench/run.py --workload sweep_shock_n50 --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's ``src/``. With ``--trace 0`` the run sets up several times, then
repeats identical timed passes for about ``--seconds`` seconds and reports
the end-to-end metrics. Times are reported at a reference host speed: each
set-up and pass is scaled by the time of a fixed kernel run next to it (see
``hostspeed.py``); the seconds as measured are printed as well. With
``--trace 1`` it sets up once under tracing, alternates untraced and traced
passes, and reports the per-layer metrics and the tracing overhead. Every
pass's output is hashed and checked. Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans and the run environment are written to
``.bench_out/<workload>-seed<seed>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# BLAS threading is pinned before numpy loads: left to OpenBLAS the run-to-run
# spread of a sweep doubled on a 2-core machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
END_TO_END_UNITS = {"wall_s": "s", "networks_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_package() -> None:
    """Pin BLAS threads, then import numpy and the checkout's package.

    Raises ImportError when the checkout has no package source.
    """
    source = ROOT / "src"
    if not (source / "contagion" / "__init__.py").is_file():
        raise ImportError(f"no package source at {source}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(source))
    import contagion
    import workloads  # noqa: F401  (imports numpy and the package modules it drives)
    if source not in Path(contagion.__file__).resolve().parents:
        raise ImportError(f"contagion imported from {contagion.__file__}, not {source}")


def import_times() -> list:
    """(seconds, seconds at reference speed) to import numpy and the package,
    once in each of SETUP_REPEATS fresh interpreters: a module is imported only
    once per process. Each import is scaled by the kernel run just after it in
    the same interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
            "import workloads; t = time.perf_counter() - t; import hostspeed; "
            "k = hostspeed.kernel_seconds(); print(t, hostspeed.at_reference(t, k, k))")
    return [tuple(map(float, subprocess.run(
                [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                capture_output=True, text=True, check=True).stdout.split()))
            for _ in range(SETUP_REPEATS)]


def environment(args, workload) -> dict:
    import numpy
    import contagion
    return {"contagion": contagion.__version__, "numpy": numpy.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "params": workload.params()}


def load_references() -> dict:
    with open(BENCH / "reference.json") as f:
        return json.load(f)["output_sha256"]


def load_exact_counts(workload_name: str, seed: int) -> dict:
    """Per-layer counts recorded for this workload and seed, or {}."""
    with open(BENCH / "spec.json") as f:
        counts = json.load(f)["exact_counts"]
    return counts.get(workload_name, {}) if seed == counts["seed"] else {}


def count_problems(values: dict, repeatable: bool, exact: dict) -> list:
    """Problems with a traced run's counts: passes that disagree, or counts
    that differ from those recorded for the seed."""
    problems = [] if repeatable else ["traced passes made different per-layer counts"]
    problems += [f"{name} = {values[name]}, recorded {count}"
                 for name, count in exact.items() if values[name] != count]
    return problems


def measure(workload, state, seconds, tracer, reference):
    """Repeat the timed pass; return (walls by traced flag, run record).

    Walls are the good passes' seconds at reference speed; the record's
    ``raw`` holds their seconds as measured. Stops once the time spent plus
    one more median pass would exceed ``seconds``, after at least MIN_PASSES
    passes (two of each kind when tracing). Each pass starts from a cleared
    output; a pass that raises, or whose output cannot be read, fails. Only
    the first good output is checked in full; later passes must hash to the
    same bytes.
    """
    from hostspeed import at_reference, kernel_seconds
    from layers import bind

    walls = {False: [], True: []}
    run = {"attempted": 0, "failed": 0, "digest": None, "problems": [], "items": 0,
           "raw": {False: [], True: []}}
    k = 0
    began = time.perf_counter()
    kernel_before = kernel_seconds()
    min_passes = 4 if tracer is not None else MIN_PASSES
    while True:
        traced = tracer is not None and k % 2 == 1
        workload.clear(state)
        if traced:
            tracer.phase = f"pass{k}"
            bind(tracer, state.networks)
        start = time.perf_counter()
        try:
            try:
                output = workload.run(state)
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.restore()
            digest = workload.digest(state, output)
        except Exception:
            traceback.print_exc()
            digest = None
        kernel_after = kernel_seconds()
        k += 1
        run["attempted"] += 1
        if digest is None:
            run["failed"] += 1
        else:
            walls[traced].append(at_reference(wall, kernel_before, kernel_after))
            run["raw"][traced].append(wall)
            if run["digest"] is None:
                run["digest"] = digest
                run["items"] = workload.items(state, output)
                run["problems"] = workload.check(state, output)
                if reference is not None and digest != reference:
                    run["problems"].append(f"output sha256 {digest} != reference {reference}")
            if run["problems"] or digest != run["digest"]:
                run["failed"] += 1
        kernel_before = kernel_after
        done = run["raw"][False] + run["raw"][True]
        spent = time.perf_counter() - began
        if k >= min_passes and (not done or spent + statistics.median(done) > seconds):
            return walls, run


def summary(walls, raw) -> str:
    from spans import latency_summary
    p50, tail, q = latency_summary(walls)
    tail_text = (f"p{q} {tail:.4f} s" if q is not None
                 else f"max {tail:.4f} s (no percentile has 10 samples beyond it)")
    return (f"median {p50:.4f} s, {tail_text}, min {min(walls):.4f} s, {len(walls)} samples "
            f"at reference speed: {[round(w, 4) for w in walls]}; as measured: median "
            f"{statistics.median(raw):.4f} s, {[round(w, 4) for w in raw]}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        load_package()
    except ImportError as exc:
        print(f"bench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    from spans import Tracer
    from hostspeed import at_reference, kernel_seconds
    from layers import bind, layer_metrics, metric_units

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args, workload)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = load_references().get(workload.name, {}).get(str(args.seed))

    tracer = Tracer() if args.trace else None
    imports = [] if tracer else import_times()
    setup_times = []
    state = None
    kernel_before = kernel_seconds()
    for _ in range(1 if tracer else SETUP_REPEATS):
        state = None
        if tracer:
            tracer.phase = "setup"
            bind(tracer)
        start = time.perf_counter()
        try:
            state = workload.setup(args.seed, str(workdir))
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.restore()
        kernel_after = kernel_seconds()
        setup_times.append((elapsed, at_reference(elapsed, kernel_before, kernel_after)))
        kernel_before = kernel_after

    walls, run = measure(workload, state, args.seconds, tracer, reference)
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print(f"output sha256 {run['digest']} "
          f"({'checked against the reference for this seed' if reference else 'no reference for this seed; invariants checked'})")
    failed_frac = run["failed"] / run["attempted"]
    print(f"failed_frac {failed_frac:.4f} ({run['failed']} of {run['attempted']} passes)")
    correct = run["failed"] == 0
    if not walls[False] or (tracer is not None and not walls[True]):
        print("bench: no timed pass completed", file=sys.stderr)
        return 1

    if tracer is None:
        wall_s = statistics.median(walls[False])
        values = {
            "wall_s": wall_s,
            "networks_per_s": run["items"] / wall_s,
            "setup_s": (statistics.median(t for _, t in imports)
                        + statistics.median(t for _, t in setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"wall_s {summary(walls[False], run['raw'][False])}")
        for label, pairs in (("imports", imports), ("set-ups", setup_times)):
            print(f"setup_s {label} at reference speed {[round(t, 4) for _, t in pairs]} s, "
                  f"as measured {[round(t, 4) for t, _ in pairs]} s")
    else:
        values, repeatable = layer_metrics(tracer.spans)
        for problem in count_problems(values, repeatable,
                                      load_exact_counts(workload.name, args.seed)):
            print(f"check failed: {problem}")
            correct = False
        values["trace_overhead"] = (statistics.median(walls[True])
                                    / statistics.median(walls[False]) - 1.0)
        units = {name: unit for name, (unit, _) in metric_units().items()}
        values = {name: values[name] for name in units}
        print(f"untraced wall_s {summary(walls[False], run['raw'][False])}")
        print(f"traced wall_s {summary(walls[True], run['raw'][True])}")
        spans = [[s.name, s.start, s.end, s.parent, s.request, s.phase, s.failed, s.attrs]
                 for s in tracer.spans]
        with open(workdir / "trace.json", "w") as f:
            json.dump({"env": env, "fields": ["name", "start", "end", "parent", "request",
                                              "phase", "failed", "attrs"], "spans": spans}, f)
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
