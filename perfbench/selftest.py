"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at tiny sizes, untraced and traced, each in its own
   process, and checks the result line against BENCHMARK.json.
2. Shows that each correctness check fails on a corrupted output: a scaled
   gradient, a nudged frozen weight, a shifted alpha, a reloaded forecast one
   ulp off, and a forecast that breaks the affine and permutation properties.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when every part passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300

failures: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def tiny_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        for trace, want in ((0, e2e), (1, layer)):
            out = run_bench(ROOT, w, trace)
            label = f"tiny {w} trace={trace}"
            if out.returncode != 0:
                expect(False, f"{label}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(
                set(res) == {"correct", "attempted", "failed", "metrics"}
                and res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
                and units == want,
                f"{label}: correct={res['correct']} attempted={res['attempted']} "
                f"failed={res['failed']} metrics match BENCHMARK.json: {units == want}",
            )


def corrupted_outputs() -> None:
    import run

    run.fix_threads()
    run.import_foldcast()
    import numpy as np

    import checks
    from foldcast import spectral
    from workloads import DeskTrain, PaperFrozen

    # scaled gradient
    desk = DeskTrain(seed=5, size="tiny", workdir=None)
    desk.setup()
    m = desk.model
    w = desk.train_w[0]
    names = m.trainable_names()

    def lg(scale):
        def f():
            loss, grads, _ = m.loss_and_grads(w, train=False)
            return loss, {k: v * scale for k, v in grads.items()}
        return f

    ok, detail = checks.directional_derivative(lg(1.0), m.named_params(), names,
                                               np.random.default_rng(0))
    expect(ok, f"directional derivative passes on true gradients ({detail})")
    ok, detail = checks.directional_derivative(lg(1.001), m.named_params(), names,
                                               np.random.default_rng(0))
    expect(not ok, f"directional derivative fails on gradients scaled by 1.001 ({detail})")

    # nudged frozen weight, reloaded forecast off by one ulp, affine, permutation
    workdir = ROOT / ".perfbench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paper = PaperFrozen(seed=5, size="tiny", workdir=str(workdir))
        paper.setup()
        params = paper.model.named_params()
        base = {n: v.copy() for n, v in params.items() if n.startswith("bb.")}
        expect(checks.frozen_unchanged(base, params)[0], "frozen check passes on untouched weights")
        arr = params["bb.enc0.attn.wq"]
        arr.flat[0] = np.nextafter(arr.flat[0], np.inf)
        expect(not checks.frozen_unchanged(base, params)[0],
               "frozen check fails on one base weight nudged by one ulp")

        tw = paper.test_w[0]
        y = paper.model.forward(tw, train=False).prediction
        y_off = y.copy()
        y_off.flat[0] = np.nextafter(y_off.flat[0], np.inf)
        expect(checks.bitwise_equal(y, y.copy(), "reload")[0], "reload check passes on equal forecasts")
        expect(not checks.bitwise_equal(y_off, y, "reload")[0],
               "reload check fails on a forecast one ulp off")

        N = tw.context.shape[1]
        scale = np.linspace(0.5, 2.0, N)
        shift = np.linspace(-3.0, 3.0, N)
        y_aff = paper.model.forward(paper._window(tw, scale, shift, np.arange(N)), train=False).prediction
        expect(checks.close_rel(y_aff, y * scale + shift, 1e-9, "affine")[0],
               "affine check passes on the program's forecast")
        expect(not checks.close_rel(y_aff, y * scale + shift + 1e-6, 1e-9, "affine")[0],
               "affine check fails on a shift off by 1e-6")
        perm = np.roll(np.arange(N), 1)
        y_perm = paper.model.forward(paper._window(tw, 1.0, 0.0, perm), train=False).prediction
        expect(checks.close_rel(y_perm, y[:, perm], 1e-9, "perm")[0],
               "permutation check passes on the program's forecast")
        expect(not checks.close_rel(y_perm, y, 1e-9, "perm")[0],
               "permutation check fails when the columns are not permuted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # shifted alpha
    alphas = {a: [spectral.pss_of_image(spectral.synth_power_law_image(a, 64, 64, seed=s)).alpha
                  for s in range(4)] for a in (1.0, 2.0, 3.0)}
    expect(checks.alpha_recovered(alphas)[0], "oracle check passes on estimated alphas")
    shifted = {a: [v + 0.06 for v in vals] for a, vals in alphas.items()}
    expect(not checks.alpha_recovered(shifted)[0], "oracle check fails on alphas shifted by 0.06")


def bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = run_bench(bare, "pss", 0)
        printed = any(line.startswith("{") for line in out.stdout.splitlines())
        expect(out.returncode != 0 and not printed,
               f"without the program's sources: exit {out.returncode}, result printed: {printed}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny_runs(spec)
    corrupted_outputs()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
