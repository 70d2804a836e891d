"""What a process keeps between calls: the geometry tables cached read-only
by rendering, the backbone and the grounding adapter, and the glibc heap
settings made on import."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from foldcast import adapter
from foldcast import backbone as bb
from foldcast import rendering as rd
from foldcast.rendering import RenderSpec
from tests.test_forecaster import desk_model, toy_windows

GEOMETRY_CACHES = (
    rd._interp_weights, rd._interp_matrix, rd._read_patches,
    bb.visible_indices, adapter.sinusoid_table,
)


def clear_geometry_caches():
    for cached in GEOMETRY_CACHES:
        cached.cache_clear()


def assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.reshape(-1)[0] = 0


class TestCachedTables:
    @pytest.mark.parametrize("n_in,n_out", [(1, 1), (4, 4), (5, 12), (12, 5), (24, 224)])
    def test_interpolation_tables_read_only_and_fresh(self, n_in, n_out):
        clear_geometry_caches()
        cached = rd._interp_weights(n_in, n_out)
        assert rd._interp_weights(n_in, n_out) is cached
        for got, want in zip(cached, rd._interp_weights.__wrapped__(n_in, n_out)):
            assert_read_only(got)
            assert np.array_equal(got, want)
        m = rd._interp_matrix(n_in, n_out)
        assert_read_only(m)
        assert np.array_equal(m, rd._interp_matrix.__wrapped__(n_in, n_out))
        i0, i1, t, u = cached
        assert np.array_equal(u, 1 - t)
        assert np.allclose(m.sum(axis=1), 1.0)

    @pytest.mark.parametrize("P,T,H", [(8, 48, 16), (24, 1440, 96), (5, 7, 3), (1, 10, 4)])
    def test_read_patches_read_only_and_fresh(self, P, T, H):
        spec = RenderSpec(periodicity=P, image_height=32, image_width=32, align_const=1.0,
                          patch_size=8)
        ri = rd.render(np.zeros(T), H, spec)
        clear_geometry_caches()
        cold = ri.read_patches
        assert ri.read_patches is cold
        assert_read_only(cold)
        # the parent formula, on freshly built interpolation tables
        clear_geometry_caches()
        k = np.arange(H) + ri.pad_len + T
        y0, y1, _, _ = rd._interp_weights.__wrapped__(32, P)
        x0, x1, _, _ = rd._interp_weights.__wrapped__(32, ri.periods_total)
        read = np.zeros((4, 4), dtype=bool)
        read[np.ix_(np.r_[y0[k % P], y1[k % P]] // 8, np.r_[x0[k // P], x1[k // P]] // 8)] = True
        assert np.array_equal(cold, np.flatnonzero(read))

    @pytest.mark.parametrize("gh,gw,vis_cols", [(4, 4, 1), (4, 4, 4), (3, 5, 2), (14, 14, 6)])
    def test_visible_and_mask_indices_read_only_and_fresh(self, gh, gw, vis_cols):
        clear_geometry_caches()
        vis = bb.visible_indices((gh, gw), vis_cols)
        assert bb.visible_indices((gh, gw), vis_cols) is vis
        assert_read_only(vis)
        assert np.array_equal(vis, np.nonzero(np.arange(gh * gw) % gw < vis_cols)[0])


class TestColdAndWarm:
    def test_forward_and_gradients_bitwise(self):
        """A forward and a training step on emptied caches equal the same calls
        on the tables the first calls left behind, bit for bit."""
        ws = toy_windows(n_windows=4, n_vars=2)
        runs = []
        for clear in (True, False):
            if clear:
                clear_geometry_caches()
            model = desk_model(seed=3)
            out = model.forward(ws[0])
            loss, grads, _ = model.loss_and_grads(*ws, rng=np.random.default_rng(0))
            runs.append((out.prediction, loss, grads))
        (p0, l0, g0), (p1, l1, g1) = runs
        assert rd._interp_weights.cache_info().hits > 0
        assert np.array_equal(p0, p1)
        assert l0 == l1
        assert g0.keys() == g1.keys()
        for name in g0:
            assert np.array_equal(g0[name], g1[name]), name


ROUND_FAULTS = """
import resource
import numpy as np
import foldcast

x = np.ones(300_000)  # 2.4 MB

def one_round():
    for _ in range(10):
        y = x * 2.0
        z = y + x
        del y, z

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

one_round()
before = faults()
one_round()
print(faults() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
def test_heap_keeps_its_pages_after_import():
    """After `import foldcast`, two 2.4 MB temporaries freed and allocated
    again reuse heap pages that are already mapped: no minor page fault.
    With glibc's default thresholds a round of ten takes about 11,000."""
    src = Path(__file__).resolve().parents[1] / "src"
    faults = subprocess.run(
        [sys.executable, "-c", ROUND_FAULTS], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert int(faults) == 0
