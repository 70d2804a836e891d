import numpy as np
import pytest

from foldcast import rendering as rd
from foldcast.rendering import RenderSpec


def bilinear_oracle(grid, out_h, out_w):
    """Nested-loop half-pixel bilinear with edge clamping."""
    in_h, in_w = grid.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((j + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            ty, tx = sy - y0, sx - x0
            out[i, j] = (
                grid[y0, x0] * (1 - ty) * (1 - tx)
                + grid[y0, x1] * (1 - ty) * tx
                + grid[y1, x0] * ty * (1 - tx)
                + grid[y1, x1] * ty * tx
            )
    return out


class TestPad:
    def test_already_divisible(self):
        x = np.arange(1440.0)
        assert np.array_equal(rd.pad_left_replicate(x, 24), x)

    def test_pad_length_and_values(self):
        x = np.arange(1000.0) + 5
        padded = rd.pad_left_replicate(x, 24)
        assert padded.shape[0] == 1008
        assert np.all(padded[:8] == x[0])
        assert np.array_equal(padded[8:], x)

    def test_single_value(self):
        assert rd.pad_left_replicate(np.array([7.0]), 3).tolist() == [7.0, 7.0, 7.0]


class TestFold:
    def test_definition(self):
        grid = rd.fold_to_grid(np.arange(6.0), 3)
        assert grid.tolist() == [[0, 3], [1, 4], [2, 5]]

    def test_p1_single_row(self):
        x = np.arange(5.0)
        assert np.array_equal(rd.fold_to_grid(x, 1), x[None, :])

    def test_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            P = int(rng.integers(1, 12))
            F = int(rng.integers(1, 12))
            x = rng.normal(size=P * F)
            assert np.array_equal(rd.unfold_from_grid(rd.fold_to_grid(x, P)), x)

    def test_non_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            rd.fold_to_grid(np.arange(7.0), 3)

    def test_temporal_adjacency_across_columns(self):
        # last row of column c and first row of column c+1 are consecutive steps
        x = np.arange(12.0)
        grid = rd.fold_to_grid(x, 4)
        for c in range(2):
            assert grid[3, c] + 1 == grid[0, c + 1]


class TestResize:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(5, 7))
        assert np.array_equal(rd.resize_bilinear(g, 5, 7), g)

    def test_hand_value_1x2_to_1x4(self):
        out = rd.resize_bilinear(np.array([[0.0, 1.0]]), 1, 4)
        assert np.allclose(out, [[0.0, 0.25, 0.75, 1.0]], atol=1e-15)

    def test_constant_exact(self):
        out = rd.resize_bilinear(np.full((3, 4), 2.5), 9, 17)
        assert np.all(out == 2.5)

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h, w = rng.integers(1, 17, size=2)
            oh, ow = rng.integers(1, 17, size=2)
            g = rng.normal(size=(h, w))
            fast = rd.resize_bilinear(g, oh, ow)
            assert np.abs(fast - bilinear_oracle(g, oh, ow)).max() < 1e-12

    def test_backward_is_adjoint(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(6, 5))
        y = rng.normal(size=(9, 11))
        lhs = np.sum(rd.resize_bilinear(g, 9, 11) * y)
        rhs = np.sum(g * rd.resize_bilinear_backward(y, 6, 5))
        assert abs(lhs - rhs) < 1e-10


class TestLayout:
    def test_symmetric_neutral(self):
        spec = RenderSpec(image_width=224, image_height=224, align_const=1.0)
        w_vis, w_mask = rd.layout_widths(500, 500, spec)
        assert w_vis == 7 * 16 == 112
        assert w_mask == 112

    def test_clamped_below_total(self):
        spec = RenderSpec(align_const=1.0)
        w_vis, _ = rd.layout_widths(10000, 1, spec)
        assert w_vis == 13 * 16

    def test_golden_values(self):
        w_vis, w_mask = rd.layout_widths(1440, 96, RenderSpec(align_const=0.4))
        assert (w_vis, w_mask) == (80, 144)
        w_vis, w_mask = rd.layout_widths(1440, 96, RenderSpec(align_const=1.0))
        assert (w_vis, w_mask) == (208, 16)

    def test_monotone_in_horizon(self):
        spec = RenderSpec(align_const=0.7)
        prev = None
        for H in range(1, 2000, 37):
            w_vis, _ = rd.layout_widths(1000, H, spec)
            if prev is not None:
                assert w_vis <= prev
            prev = w_vis

    def test_degenerate(self):
        with pytest.raises(ValueError):
            rd.layout_widths(0, 5, RenderSpec())


def exact_spec(P, f_ctx, f_hor):
    return RenderSpec(
        periodicity=P, image_height=P, image_width=f_ctx + f_hor,
        align_const=1.0, patch_size=1,
    )


class TestRenderReconstruct:
    def test_interpolation_free_equals_grid(self):
        rng = np.random.default_rng(4)
        P, f_ctx, f_hor = 6, 4, 2
        spec = exact_spec(P, f_ctx, f_hor)
        x = rng.normal(size=P * f_ctx)
        ri = rd.render(x, f_hor * P, spec)
        assert ri.visible_width == f_ctx and ri.masked_width == f_hor
        assert np.array_equal(ri.pixels[:, :f_ctx], rd.fold_to_grid(x, P))
        assert np.all(ri.pixels[:, f_ctx:] == 0.0)

    def test_constant_window(self):
        spec = RenderSpec(periodicity=4, image_height=32, image_width=32,
                          align_const=1.0, patch_size=16)
        ri = rd.render(np.full(16, 3.0), 16, spec)
        assert np.all(ri.pixels[:, : ri.visible_width] == 3.0)

    def test_etth_context_periods(self):
        spec = RenderSpec(periodicity=24)
        ri = rd.render(np.random.default_rng(5).normal(size=1440), 96, spec)
        assert ri.periods_context == 60
        assert ri.pad_len == 0

    def test_round_trip_exact_100_seeds(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            P = int(rng.integers(2, 9))
            f_ctx = int(rng.integers(1, 7))
            f_hor = int(rng.integers(1, 5))
            spec = exact_spec(P, f_ctx, f_hor)
            T, H = P * f_ctx, P * f_hor
            x = rng.normal(size=T)
            truth = rng.normal(size=H)
            ri = rd.render(x, H, spec)
            decoded = np.concatenate(
                [ri.pixels[:, :f_ctx], rd.fold_to_grid(truth, P)], axis=1
            )
            back = rd.reconstruct(decoded, ri)
            worst = max(worst, float(np.abs(back - truth).max()))
        assert worst < 1e-12

    def test_zero_decoded_zero_forecast(self):
        spec = exact_spec(4, 3, 2)
        ri = rd.render(np.random.default_rng(6).normal(size=12), 8, spec)
        assert np.all(rd.reconstruct(np.zeros((4, 5)), ri) == 0.0)

    def test_dimension_mismatch(self):
        spec = exact_spec(4, 3, 2)
        ri = rd.render(np.random.default_rng(7).normal(size=12), 8, spec)
        with pytest.raises(ValueError, match="shape"):
            rd.reconstruct(np.zeros((4, 6)), ri)

    def test_partial_horizon_period(self):
        # H not a multiple of P: horizon padded up to whole periods internally
        spec = RenderSpec(periodicity=4, image_height=4, image_width=5,
                          align_const=1.0, patch_size=1)
        x = np.random.default_rng(8).normal(size=12)
        ri = rd.render(x, 6, spec)
        assert ri.periods_total == 5
        out = rd.reconstruct(np.ones((4, 5)), ri)
        assert out.shape == (6,)

    def test_reconstruct_backward_is_adjoint(self):
        rng = np.random.default_rng(9)
        spec = RenderSpec(periodicity=5, image_height=16, image_width=16,
                          align_const=1.0, patch_size=4)
        ri = rd.render(rng.normal(size=35), 10, spec)
        decoded = rng.normal(size=(16, 16))
        gout = rng.normal(size=10)
        lhs = np.sum(rd.reconstruct(decoded, ri) * gout)
        rhs = np.sum(decoded * rd.reconstruct_backward(gout, ri))
        assert abs(lhs - rhs) < 1e-10

