import numpy as np
import pytest

from foldcast import adapter, forecaster as fc
from tests.test_forecaster import desk_model, toy_windows


class TestTemporalIndices:
    def test_values(self):
        assert adapter.temporal_indices(4).tolist() == [0, 1, 2, 3]
        assert adapter.temporal_indices(1).tolist() == [0]

    def test_patch_grid_count(self):
        assert adapter.temporal_indices((224 // 16) ** 2).shape == (196,)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            adapter.temporal_indices(0)


class TestSinusoidTable:
    def test_row_zero_alternates(self):
        t = adapter.sinusoid_table(3, 6)
        assert np.array_equal(t[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_spot_values(self):
        t = adapter.sinusoid_table(2, 4)
        assert abs(t[1, 0] - np.sin(1.0)) < 1e-12
        assert abs(t[1, 1] - np.cos(1.0)) < 1e-12
        assert abs(t[1, 0] - 0.8414710) < 1e-6
        assert abs(t[1, 1] - 0.5403023) < 1e-6

    def test_frequency_base(self):
        D = 8
        t = adapter.sinusoid_table(5, D)
        for k in range(D // 2):
            om = 10000.0 ** (2 * k / D)
            assert abs(t[3, 2 * k] - np.sin(3.0 / om)) < 1e-12
            assert abs(t[3, 2 * k + 1] - np.cos(3.0 / om)) < 1e-12

    def test_bounds(self):
        t = adapter.sinusoid_table(500, 16)
        assert t.min() >= -1.0 and t.max() <= 1.0

    def test_rows_distinct_at_full_scale(self):
        # exhaustive over all pairs at L = 10^4: the max-abs distance over the
        # fastest (sin, cos) coordinate pair lower-bounds the full-row Linf
        # distance, so a bound on it certifies all D >= 8 tables
        L = 10_000
        t = adapter.sinusoid_table(L, 8)
        s, c = t[:, 0], t[:, 1]
        best = np.inf
        chunk = 500
        for lo in range(0, L, chunk):
            ds = np.abs(s[lo : lo + chunk, None] - s[None, :])
            dc = np.abs(c[lo : lo + chunk, None] - c[None, :])
            d = np.maximum(ds, dc)
            d[np.arange(d.shape[0]), lo + np.arange(d.shape[0])] = np.inf
            best = min(best, float(d.min()))
        assert best > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            adapter.sinusoid_table(4, 7)


def tga_params(W_proj, w_fusion):
    return {"tga.W_proj": W_proj, "tga.w_fusion": np.array([w_fusion])}


class TestTga:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.D, self.L = 8, 6
        self.table = adapter.sinusoid_table(self.L, self.D)
        self.X = self.rng.normal(size=(self.L, self.D))

    def test_gate_half_at_zero(self):
        p = adapter.init_tga(self.rng, self.D)
        assert sorted(p) == ["tga.W_proj", "tga.w_fusion"]
        assert adapter.sigmoid(p["tga.w_fusion"])[0] == 0.5

    def test_saturated_gate_is_identity(self):
        p = adapter.init_tga(self.rng, self.D)
        p["tga.w_fusion"][0] = -40.0
        out, cache = adapter.tga_forward(self.X, p, self.table)
        bound = 1e-12 * np.abs(cache["proj"]).max()
        assert np.abs(out - self.X).max() < bound

    def test_zero_projection_identity(self):
        p = tga_params(np.zeros((self.D, self.D)), 1.3)
        out, _ = adapter.tga_forward(self.X, p, self.table)
        assert np.array_equal(out, self.X)

    def test_row_wise_projection(self):
        p = adapter.init_tga(self.rng, self.D)
        out, cache = adapter.tga_forward(self.X, p, self.table)
        i = 3
        expect = self.X[i] + cache["g"] * (p["tga.W_proj"] @ self.table[i])
        assert cache["g"] == 0.5
        assert np.abs(out[i] - expect).max() < 1e-12

    def test_gate_gradient_zero_when_projection_zero(self):
        p = tga_params(np.zeros((self.D, self.D)), 0.7)
        _, cache = adapter.tga_forward(self.X, p, self.table)
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        adapter.tga_backward(np.ones_like(self.X), cache, grads)
        assert grads["tga.w_fusion"][0] == 0.0
        assert np.any(grads["tga.W_proj"] != 0.0)


Q = "lora.enc0.q"  # the factor pair of the projections below


def projection(rng, D, r, B=None):
    """A weight `w` [D, D], a bias `b` and the factor pair `Q` of rank r, in
    one dict; B, zero as drawn, is replaced when given."""
    p = {"w": rng.normal(size=(D, D)), "b": rng.normal(size=D)}
    p.update((k, v) for k, v in adapter.init_lora(rng, D, r, 1).items() if k.startswith(Q))
    if B is not None:
        p[Q + ".B"] = B
    return p


def project_grads(g, p, cache):
    """The input gradient of `lora_project` and every gradient it adds."""
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dx = adapter.lora_project_backward(g, p, cache, grads)
    return dx, grads


class TestLora:
    def test_b_zero_apply_bit_exact(self):
        rng = np.random.default_rng(1)
        p = projection(rng, 6, 2)
        assert np.array_equal(adapter.lora_apply(p["w"], p[Q + ".A"], p[Q + ".B"], 8.0), p["w"])

    def test_paper_scale(self, monkeypatch):
        """The structural branch scales its low-rank paths by alpha / r, 16 / 4
        at paper scale and 8 / 2 on the desk model; the spectral branch runs none."""
        cfg = fc.ModelConfig()
        assert (cfg.lora_alpha, cfg.lora_rank) == (16.0, 4)
        scales, real = [], fc.bb.autoencode

        def recording(*args, **kw):
            scales.append(kw.get("lora_scale"))
            return real(*args, **kw)

        monkeypatch.setattr(fc.bb, "autoencode", recording)
        desk_model().forward(toy_windows(1)[0])
        assert scales == [4.0, None]

    def test_outer_product_example(self):
        A, B = np.array([[0.0, 1.0]]), np.array([[1.0], [0.0]])
        W = np.zeros((2, 2))
        assert adapter.lora_apply(W, A, B, 1.0).tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_rank_bound(self):
        rng = np.random.default_rng(3)
        D, r = 12, 3
        p = projection(rng, D, r, B=rng.normal(size=(D, r)))
        delta = adapter.lora_apply(p["w"], p[Q + ".A"], p[Q + ".B"], 16.0 / r) - p["w"]
        sv = np.linalg.svd(delta, compute_uv=False)
        assert int((sv > 1e-10).sum()) <= r

    def test_rank_precondition(self):
        with pytest.raises(ValueError, match="rank"):
            adapter.init_lora(np.random.default_rng(0), 4, 9, 1)

    def test_project_skips_zero_B_bitwise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        p = projection(rng, 6, 2)
        with_f, _ = adapter.lora_project(x, p, "w", "b", Q, 8.0)
        without, _ = adapter.lora_project(x, p, "w", "b")
        assert np.array_equal(with_f, without)

    def test_b_zero_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 6))
        p = projection(rng, 6, 2)
        _, cache = adapter.lora_project(x, p, "w", "b", Q, 8.0)
        _, grads = project_grads(rng.normal(size=(5, 6)), p, cache)
        assert np.all(grads[Q + ".A"] == 0.0)  # dA carries B, which is zero
        assert np.any(grads[Q + ".B"] != 0.0)

    def test_gradients_fd(self):
        rng = np.random.default_rng(6)
        D, L, r = 6, 5, 2
        x = rng.normal(size=(L, D))
        p = projection(rng, D, r, B=rng.normal(0, 0.1, size=(D, r)))
        gout = rng.normal(size=(L, D))

        def loss():
            y, _ = adapter.lora_project(x, p, "w", "b", Q, 16.0 / r)
            return float(np.sum(y * gout))

        _, cache = adapter.lora_project(x, p, "w", "b", Q, 16.0 / r)
        dx, grads = project_grads(gout, p, cache)
        h = 1e-5
        worst = 0.0
        for arr, grad in [(p[k], grads[k]) for k in p] + [(x, dx)]:
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for ix in range(flat.size):
                orig = flat[ix]
                flat[ix] = orig + h
                lp = loss()
                flat[ix] = orig - h
                lm = loss()
                flat[ix] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(gflat[ix] - fd) / max(abs(gflat[ix]), abs(fd), 1e-7))
        assert worst < 1e-4

    def test_dropout_path_train_only(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 6))
        p = projection(rng, 6, 2, B=rng.normal(size=(6, 2)))
        drop = (rng.random(x.shape) >= 0.5) / 0.5
        y_drop, _ = adapter.lora_project(x, p, "w", "b", Q, 8.0, drop_scale=drop)
        y_eval, _ = adapter.lora_project(x, p, "w", "b", Q, 8.0)
        assert not np.allclose(y_drop, y_eval)
