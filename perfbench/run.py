"""foldcast benchmark: one workload per process, one JSON line of results.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; foldcast is imported from ``src/``
of the checkout that holds this file, never from an installed copy.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Lines before it give
the machine, the settings and the workload's own named figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("desk-train", "paper-frozen", "pss")
# Every timed path runs on one core.  The machines this runs on are shared,
# and how much of a second core a process gets swings from run to run (the
# pooled PSS rate ranged 175-596 samples/s over ten runs on 2 cores), so a
# second BLAS thread or worker would measure the neighbours, not foldcast.
BLAS_THREADS = 1
MIN_SETUP_SECONDS = 1.0
MAX_SETUPS = 50
# A median of at least three rounds shrugs off one round slowed by a burst
# of load from outside the benchmark.
MIN_ROUNDS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes that run every workload in seconds (self-test)")
    return p.parse_args(argv)


def fix_threads() -> None:
    """Pin the BLAS thread count before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_foldcast():
    src = ROOT / "src"
    if not (src / "foldcast" / "__init__.py").is_file():
        sys.exit(f"perfbench: no foldcast sources under {src}")
    sys.path.insert(0, str(src))
    import foldcast

    if Path(foldcast.__file__).resolve().parent != (src / "foldcast").resolve():
        sys.exit(f"perfbench: imported foldcast from {foldcast.__file__}, not {src}")


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def run_setups(wl):
    times = []
    while len(times) < wl.min_setups or (
        sum(times) < MIN_SETUP_SECONDS and len(times) < MAX_SETUPS
    ):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_threads()
    import_foldcast()

    import numpy as np

    from spans import Tracer, per_pass
    from workloads import WORKLOADS, Recorder, nproc

    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rec = Recorder()
        rng = np.random.default_rng([args.seed, 1])
        wl = WORKLOADS[args.workload](args.seed, "tiny" if args.tiny else "full", str(workdir))
        print(f"machine: {nproc()} cores, python {platform.python_version()}, numpy "
              f"{np.__version__}, BLAS {blas_info()} with {BLAS_THREADS} thread(s)")

        setup_times = run_setups(wl)
        tracer = None
        traced_setup = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            t0 = time.perf_counter()
            wl.setup()
            traced_setup_s = time.perf_counter() - t0
            tracer.uninstall()
            traced_setup = tracer.take()
        wl.before(rec)

        rounds = 0
        min_rounds = 1 if tracer is not None else MIN_ROUNDS
        plain_s, traced_s, traced_spans = [], [], []
        start = time.perf_counter()
        while rounds < min_rounds or time.perf_counter() - start < args.seconds:
            gc.collect()
            t0 = time.perf_counter()
            wl.round(rec, rng)
            plain_s.append(time.perf_counter() - t0)
            if tracer is not None:
                # the same round again with tracing on: the difference is
                # the tracing overhead
                tracer.install()
                t0 = time.perf_counter()
                wl.round(rec, rng)
                traced_s.append(time.perf_counter() - t0)
                tracer.uninstall()
                traced_spans.append(tracer.take())
            rounds += 1
        wl.finish(rec, rng)

        main_metrics, detail = wl.metrics(rec)
        setup_s = float(np.median(setup_times))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        main_metrics = {"setup_s": (setup_s, "s"), **main_metrics,
                        "peak_rss_mb": (peak_mb, "MiB")}
        detail = {"setup_s": (setup_s, "s"), "setups": (len(setup_times), "count"),
                  **detail, "peak_rss_mb": (peak_mb, "MiB"), "rounds": (rounds, "count")}

        if tracer is not None:
            metrics = per_pass(traced_setup, traced_spans)
            overhead = (traced_setup_s - setup_s) + float(np.mean(traced_s) - np.mean(plain_s))
            plain = setup_s + float(np.mean(plain_s))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / plain, "unit": "%"}
            span_file = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv"
            phases = [("setup", traced_setup)] + [
                (f"round{i}", s) for i, s in enumerate(traced_spans)]
            tracer.write(span_file, phases)
            print(f"spans: {span_file.relative_to(ROOT)}")
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in main_metrics.items()}

        print("detail: " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in detail.items()}))
        for problem in rec.problems[:20]:
            print(f"problem: {problem}")
        print(json.dumps({
            "correct": rec.correct,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
