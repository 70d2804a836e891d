"""The benchmark's workloads (`perfbench/workloads.py`) call foldcast's public
functions; a signature change that breaks one of those calls must fail here,
not only as a failed benchmark run.  Each workload runs one round at its tiny
size, read from perfbench/ as it is: nothing there is written or changed."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["desk-train", "paper-frozen", "pss"])
def test_one_round_at_tiny_size(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    workloads = importlib.import_module("workloads")
    seed = 1
    wl = workloads.WORKLOADS[name](seed, "tiny", str(tmp_path))
    rec = workloads.Recorder()
    rng = np.random.default_rng([seed, 1])  # as run.py seeds it
    wl.setup()
    wl.before(rec)
    wl.round(rec, rng)
    wl.finish(rec, rng)
    main, _ = wl.metrics(rec)
    assert rec.correct and rec.failed == 0, rec.problems
    assert rec.attempted > 0 and all(np.isfinite(v) for v, _ in main.values())
