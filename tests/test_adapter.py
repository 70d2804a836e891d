import numpy as np
import pytest

from foldcast import adapter


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


class TestTga:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.D, self.L = 8, 6
        self.table = adapter.sinusoid_table(self.L, self.D)
        self.X = self.rng.normal(size=(self.L, self.D))

    def test_gate_half_at_zero(self):
        p = adapter.init_tga(self.rng, self.D)
        assert p.gate == 0.5

    def test_saturated_gate_is_identity(self):
        p = adapter.init_tga(self.rng, self.D)
        p.w_fusion[0] = -40.0
        out, cache = adapter.tga_forward(self.X, p, self.table)
        bound = 1e-12 * np.abs(cache["proj"]).max()
        assert np.abs(out - self.X).max() < bound

    def test_zero_projection_identity(self):
        p = adapter.TgaParams(W_proj=np.zeros((self.D, self.D)), w_fusion=np.array([1.3]))
        out, _ = adapter.tga_forward(self.X, p, self.table)
        assert np.array_equal(out, self.X)

    def test_row_wise_projection(self):
        p = adapter.init_tga(self.rng, self.D)
        out, _ = adapter.tga_forward(self.X, p, self.table)
        i = 3
        expect = self.X[i] + p.gate * (p.W_proj @ self.table[i])
        assert np.abs(out[i] - expect).max() < 1e-12

    def test_gate_gradient_zero_when_projection_zero(self):
        p = adapter.TgaParams(W_proj=np.zeros((self.D, self.D)), w_fusion=np.array([0.7]))
        _, cache = adapter.tga_forward(self.X, p, self.table)
        grads = adapter.tga_backward(np.ones_like(self.X), cache)
        assert grads["w_fusion"][0] == 0.0


class TestLora:
    def test_b_zero_apply_bit_exact(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(6, 6))
        f = adapter.init_lora(rng, 6, 2, 16.0)
        assert np.array_equal(adapter.lora_apply(W, f), W)

    def test_paper_scale(self):
        f = adapter.init_lora(np.random.default_rng(2), 8, 4, 16.0)
        assert f.scale == 4.0

    def test_outer_product_example(self):
        f = adapter.LoraFactor(A=np.array([[0.0, 1.0]]), B=np.array([[1.0], [0.0]]), alpha_lora=1.0)
        W = np.zeros((2, 2))
        assert adapter.lora_apply(W, f).tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_rank_bound(self):
        rng = np.random.default_rng(3)
        D, r = 12, 3
        f = adapter.init_lora(rng, D, r, 16.0)
        f.B = rng.normal(size=(D, r))
        delta = adapter.lora_apply(rng.normal(size=(D, D)), f) - adapter.lora_apply(
            rng.normal(size=(D, D)) * 0.0, f
        )
        # delta == scale * B @ A up to the zero base; count significant singular values
        sv = np.linalg.svd(f.scale * (f.B @ f.A), compute_uv=False)
        assert int((sv > 1e-10).sum()) <= r

    def test_rank_precondition(self):
        with pytest.raises(ValueError, match="rank"):
            adapter.init_lora(np.random.default_rng(0), 4, 9, 16.0)

    def test_project_skips_zero_B_bitwise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        W = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        f = adapter.init_lora(rng, 6, 2, 16.0)
        with_f, _ = adapter.lora_project(x, W, b, f)
        without, _ = adapter.lora_project(x, W, b, None)
        assert np.array_equal(with_f, without)

    def test_b_zero_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 6))
        W = rng.normal(size=(6, 6))
        f = adapter.init_lora(rng, 6, 2, 16.0)
        _, cache = adapter.lora_project(x, W, np.zeros(6), f)
        _, _, _, fg = adapter.lora_project_backward(rng.normal(size=(5, 6)), W, cache)
        assert np.all(fg["A"] == 0.0)  # dA carries B, which is zero
        assert np.any(fg["B"] != 0.0)

    def test_gradients_fd(self):
        rng = np.random.default_rng(6)
        D, L, r = 6, 5, 2
        x = rng.normal(size=(L, D))
        W = rng.normal(size=(D, D))
        b = rng.normal(size=D)
        f = adapter.init_lora(rng, D, r, 16.0)
        f.B = rng.normal(0, 0.1, size=f.B.shape)
        gout = rng.normal(size=(L, D))

        def loss():
            y, _ = adapter.lora_project(x, W, b, f)
            return float(np.sum(y * gout))

        _, cache = adapter.lora_project(x, W, b, f)
        _, _, dx, fg = adapter.lora_project_backward(gout, W, cache)
        h = 1e-5
        worst = 0.0
        for arr, grad in ((f.A, fg["A"]), (f.B, fg["B"]), (x, dx)):
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
        W = rng.normal(size=(6, 6))
        f = adapter.init_lora(rng, 6, 2, 16.0)
        f.B = rng.normal(size=f.B.shape)
        drop = (rng.random(x.shape) >= 0.5) / 0.5
        y_drop, _ = adapter.lora_project(x, W, np.zeros(6), f, drop_scale=drop)
        y_eval, _ = adapter.lora_project(x, W, np.zeros(6), f)
        assert not np.allclose(y_drop, y_eval)
