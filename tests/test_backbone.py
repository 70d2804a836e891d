import re
import tracemalloc

import numpy as np
import pytest

from foldcast import adapter, backbone as bb, forecaster as fc
from foldcast import rendering as rd
from foldcast.backbone import BackboneConfig
from foldcast.rendering import RenderSpec
from tests.test_forecaster import desk_model, toy_windows


def toy_config(**kw):
    base = dict(
        image_height=32, image_width=32, patch_size=8, d_model=16, n_heads=2,
        e_layers=2, d_layers=1, d_ff=32, dropout=0.0, frozen=False,
    )
    base.update(kw)
    return BackboneConfig(**base)


ALL = np.arange(toy_config().n_patches)  # decode every patch of the toy grid


def grad_buffer(params, frozen=False):
    """A zeroed flat gradient buffer of every tensor in `params`, the `bb.*`
    ones left out when frozen."""
    return {k: np.zeros_like(v) for k, v in params.items()
            if not (frozen and k.startswith("bb."))}


class TestPatchify:
    def test_count_at_full_scale(self):
        img = np.zeros((224, 224))
        assert bb.patchify(img, 16).shape == (196, 256)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(32, 32))
        p = bb.patchify(img, 8)
        assert np.array_equal(bb.unpatchify(p, (4, 4), 8), img)

    def test_reading_order(self):
        img = np.zeros((4, 4))
        img[0:2, 2:4] = 1.0  # second patch in row-major order
        p = bb.patchify(img, 2)
        assert np.all(p[1] == 1.0)
        assert np.all(p[[0, 2, 3]] == 0.0)

    def test_non_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            bb.patchify(np.zeros((10, 10)), 3)


class TestEmbed:
    def test_zero_patches_give_bias(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(1))
        out = bb.embed(np.zeros((5, cfg.patch_size**2)), params)
        assert np.allclose(out, np.tile(params["bb.patch_embed.b"], (5, 1)))

    def test_linearity(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, cfg.patch_size**2))
        base = bb.embed(np.zeros_like(x), params)
        a = 2.7
        lhs = bb.embed(a * x, params) - base
        rhs = a * (bb.embed(x, params) - base)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestEncode:
    def test_zero_layers_identity(self):
        cfg = toy_config(e_layers=0)
        params = bb.init_backbone(cfg, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(6, cfg.d_model))
        out, _ = bb.encode(x, params, cfg)
        assert np.array_equal(out, x)

    def test_softmax_rows_sum_to_one(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=(6, cfg.d_model))
        _, caches = bb.encode(x, params, cfg)
        probs = caches[0]["attn"]["probs"]
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12

    def test_single_token_attention_is_value_projection(self):
        cfg = toy_config(e_layers=1)
        params = bb.init_backbone(cfg, np.random.default_rng(8))
        # out-projection = identity so the attention output is the context itself
        params["bb.enc0.attn.wo"] = np.eye(cfg.d_model)
        params["bb.enc0.attn.bo"] = np.zeros(cfg.d_model)
        x = np.random.default_rng(9).normal(size=(1, cfg.d_model))
        out, caches = bb.encode(x, params, cfg)
        n1 = caches[0]["ln1"]["xhat"] * params["bb.enc0.ln1.g"] + params["bb.enc0.ln1.b"]
        v = n1 @ params["bb.enc0.attn.wv"].T + params["bb.enc0.attn.bv"]
        attn_out = out - x  # residual removed; single token, mlp acts after
        expected_after_attn = x + v
        n2, _ = bb._layernorm(expected_after_attn, params, "bb.enc0.ln2")
        mlp_out, _ = bb._mlp_forward(n2, params, "enc0", cfg)
        assert np.abs(out - (expected_after_attn + mlp_out)).max() < 1e-10

    def test_nan_detection(self, monkeypatch):
        """No block scans its output; training checks the loss and the global
        gradient norm once per optimizer step and names the step and the
        first non-finite tensor, for NaN and for +Inf alike."""
        cfg = toy_config(e_layers=1)
        params = bb.init_backbone(cfg, np.random.default_rng(10))
        out, _ = bb.encode(np.full((4, cfg.d_model), np.nan), params, cfg)
        assert np.isnan(out).all()
        ws = toy_windows(6)
        tcfg = fc.TrainConfig(lr=1e-3, batch_size=2, epochs=1, seed=0)

        model = desk_model()
        model.params["bb.mask_token"][0] = np.nan
        with pytest.raises(FloatingPointError, match=r"optimizer step 1: loss nan, .*"
                           r"first non-finite tensor bb\."):
            fc.train(model, ws[:5], ws[5:], tcfg)

        model = desk_model()
        real = model.loss_and_grads
        calls = []

        def inf_at_step_two(*windows, **kw):
            loss, grads, outcome = real(*windows, **kw)
            calls.append(loss)
            if len(calls) == 2:
                grads["sma.conv2_w"][0, 3, 1, 1] = np.inf
            return loss, grads, outcome

        monkeypatch.setattr(model, "loss_and_grads", inf_at_step_two)
        with pytest.raises(FloatingPointError) as info:
            fc.train(model, ws[:5], ws[5:], tcfg)
        msg = str(info.value)
        assert np.isfinite(calls[1])
        assert msg.startswith(f"optimizer step 2: loss {calls[1]}, gradient norm inf, ")
        assert msg.endswith("first non-finite tensor sma.conv2_w")


class TestGelu:
    def test_cube_matches_pow_formula(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 20001),
                            np.random.default_rng(30).normal(0.0, 3.0, 2000)])
        y, t = bb._gelu(x)
        t_ref = np.tanh(bb._GELU_C0 * (x + bb._GELU_C1 * x**3))
        y_ref = 0.5 * x * (1.0 + t_ref)
        assert np.all(np.abs(t - t_ref) <= 1e-12 * np.abs(t_ref))
        # below x = -3, 1 + tanh(u) cancels in both formulas, so the output
        # is compared there on the scale of x instead of its own
        well = x >= -3.0
        assert np.all(np.abs(y - y_ref)[well] <= 1e-12 * np.abs(y_ref[well]))
        assert np.all(np.abs(y - y_ref) <= 1e-15 * np.abs(x))


class TestSingleChannelFold:
    def test_equals_replicate_embed_and_head_channel_mean(self):
        cfg = toy_config()
        rng = np.random.default_rng(31)
        params = bb.init_backbone(cfg, rng)
        params["bb.patch_embed.b"] = rng.normal(size=params["bb.patch_embed.b"].shape)
        params["bb.head.b"] = rng.normal(size=params["bb.head.b"].shape)
        p2 = cfg.patch_size**2
        patches = bb.patchify(rng.normal(size=(32, 32)), cfg.patch_size)
        # three identical channels, channel-major inside each 3p² patch vector
        patches3 = np.concatenate([patches] * 3, axis=1)
        tokens3 = patches3 @ params["bb.patch_embed.w"].T + params["bb.patch_embed.b"]
        tokens = bb.embed(patches, params)
        assert np.abs(tokens - tokens3).max() <= 1e-12 * np.abs(tokens3).max()
        vis = bb.visible_indices((4, 4), 2)
        latent = rng.normal(size=(vis.size, cfg.d_model))
        out, cache = bb.decode_with_mask_tokens(latent, vis, ALL, params, cfg)
        out3 = cache["n"] @ params["bb.head.w"].T + params["bb.head.b"]
        mean3 = out3.reshape(-1, 3, p2).mean(axis=1)
        assert out.shape == (cfg.n_patches, p2)
        assert np.abs(out - mean3).max() <= 1e-12 * np.abs(mean3).max()


class TestDecode:
    def test_all_visible_full_grid(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(11))
        vis = bb.visible_indices((4, 4), 4)
        latent = np.random.default_rng(12).normal(size=(16, cfg.d_model))
        out, _ = bb.decode_with_mask_tokens(latent, vis, ALL, params, cfg)
        assert out.shape == (16, cfg.patch_size**2)

    def test_zero_mask_token_zero_decoder_zero_masked_region(self):
        # a decoder block whose attention and MLP add zero, and an identity
        # head, expose the pre-decoder grid directly
        cfg = toy_config(d_layers=1, d_model=3 * 8 * 8)
        params = bb.init_backbone(cfg, np.random.default_rng(13))
        for name in ("attn.wo", "attn.bo", "mlp.w2", "mlp.b2"):
            params[f"bb.dec0.{name}"][:] = 0.0
        params["bb.mask_token"][:] = 0.0
        params["bb.dec_pos"][:] = 0.0
        params["bb.head.w"] = np.eye(cfg.patch_dim)
        params["bb.head.b"][:] = 0.0
        params["bb.dec_norm.g"][:] = 1.0
        params["bb.dec_norm.b"][:] = 0.0
        vis = bb.visible_indices((4, 4), 2)
        latent = np.random.default_rng(14).normal(size=(vis.size, cfg.d_model))
        out, _ = bb.decode_with_mask_tokens(latent, vis, ALL, params, cfg)
        img = bb.unpatchify(out, (4, 4), cfg.patch_size)
        assert np.all(img[:, 16:] == 0.0)  # masked columns stay zero
        assert np.any(img[:, :16] != 0.0)

    def test_count_mismatch(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(15))
        vis = bb.visible_indices((4, 4), 2)
        with pytest.raises(ValueError, match="count"):
            bb.decode_with_mask_tokens(np.zeros((5, cfg.d_model)), vis, ALL, params, cfg)


class TestRestrictedDecode:
    """Decoding only the patches `out_idx` gives the full decoder's rows."""

    @pytest.mark.parametrize("d_layers", [1, 2])
    def test_rows_match_full_decoder(self, d_layers):
        cfg = toy_config(d_layers=d_layers)
        rng = np.random.default_rng(40)
        params = bb.init_backbone(cfg, rng)
        vis = bb.visible_indices((4, 4), 2)
        latent = rng.normal(size=(vis.size, cfg.d_model))
        out_idx = np.array([3, 6, 7, 15])
        full, _ = bb.decode_with_mask_tokens(latent, vis, ALL, params, cfg)
        part, cache = bb.decode_with_mask_tokens(latent, vis, out_idx, params, cfg)
        assert part.shape == (out_idx.size, cfg.patch_size**2)
        assert np.abs(part - full[out_idx]).max() <= 1e-12 * np.abs(full).max()
        assert cache["blocks"][-1]["mlp"]["x"].shape[0] == out_idx.size
        assert all(c["mlp"]["x"].shape[0] == cfg.n_patches for c in cache["blocks"][:-1])

    @pytest.mark.parametrize("d_layers", [1, 2, 3])
    def test_backward_matches_full_decoder(self, d_layers):
        """With an image gradient that is zero outside out_idx, every gradient
        equals the full decoder's: the restricted pass is its exact adjoint."""
        cfg = toy_config(d_layers=d_layers)
        rng = np.random.default_rng(41)
        params = bb.init_backbone(cfg, rng)
        img = rng.normal(size=(32, 32))
        out_idx = np.arange(3, cfg.n_patches, 4)  # the last grid column
        keep = np.zeros(cfg.n_patches)
        keep[out_idx] = 1.0
        gout = rng.normal(size=(32, 32)) * np.kron(keep.reshape(4, 4), np.ones((8, 8)))
        full, c_full = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL)
        part, c_part = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=out_idx)
        assert np.all(part[gout == 0.0] == 0.0)
        assert np.abs(part - full * (gout != 0.0)).max() <= 1e-12 * np.abs(full).max()
        g_full, g_part = grad_buffer(params), grad_buffer(params)
        gi_full = bb.autoencode_backward(gout, params, cfg, c_full, g_full)
        gi_part = bb.autoencode_backward(gout, params, cfg, c_part, g_part)
        assert np.abs(gi_part - gi_full).max() <= 1e-12 * np.abs(gi_full).max()
        # a key bias shifts every score of a query alike, so its gradient is
        # zero in exact arithmetic and round-off on both sides
        for name in (n for n in params if not n.endswith("attn.bk")):
            scale = np.abs(g_full[name]).max()
            assert np.abs(g_part[name] - g_full[name]).max() <= 1e-12 * scale, name

    def test_paper_geometry_decodes_fourteen_rows(self):
        spec = RenderSpec()  # 224², patch 16, P=24, align_const 0.4
        ri = rd.render(np.random.default_rng(42).normal(size=1440), 96, spec)
        assert ri.read_patches.size == 14
        cfg = BackboneConfig(d_model=16, n_heads=2, e_layers=1, d_layers=2, d_ff=32,
                             dropout=0.0, frozen=True)
        params = bb.init_backbone(cfg, np.random.default_rng(43))
        vis_cols = ri.visible_width // spec.patch_size
        _, cache = bb.autoencode(ri.pixels, params, cfg, vis_cols, ri.read_patches)
        blocks = cache["dec"]["blocks"]
        assert blocks[-1]["mlp"]["x"].shape[0] == 14
        assert blocks[0]["mlp"]["x"].shape[0] == cfg.n_patches


class TestBaselineEquivalence:
    def test_lora_b_zero_and_gate_off_bitwise(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(16))
        rng = np.random.default_rng(17)
        img = rng.normal(size=(32, 32))
        params.update(adapter.init_lora(rng, cfg.d_model, 2, cfg.e_layers))
        base, _ = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL)
        adapted, _ = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL, lora_scale=8.0)
        assert np.array_equal(base, adapted)

    def test_eval_determinism(self):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(18))
        img = np.random.default_rng(19).normal(size=(32, 32))
        a, _ = bb.autoencode(img, params, cfg, vis_cols=3, out_idx=ALL)
        b, _ = bb.autoencode(img, params, cfg, vis_cols=3, out_idx=ALL)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d_layers", [1, 2, 3])
    def test_no_cache_without_backward(self, d_layers):
        cfg = toy_config(d_layers=d_layers)
        params = bb.init_backbone(cfg, np.random.default_rng(20))
        img = np.random.default_rng(21).normal(size=(3, 32, 32))
        kept, cache = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL)
        out, none = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL, keep_cache=False)
        assert none is None and cache is not None
        assert np.array_equal(out, kept)

    def test_no_cache_block_forms_gelu_in_place(self):
        # 256 rows x d_ff 512: each [rows, d_ff] array is 1 MiB.  Measured peak
        # without a cache: 2.2 MiB (h and tanh(u)); 4.2 MiB when the GELU
        # output and 1 + tanh(u) take buffers of their own; 4.8 MiB with a cache
        cfg = toy_config(patch_size=4, d_model=32, e_layers=1, d_layers=1, d_ff=512)
        params = bb.init_backbone(cfg, np.random.default_rng(22))
        x = np.random.default_rng(23).normal(size=(4, 64, 32))
        kept, _ = bb._block_forward(x, params, "enc0", cfg, slice(None))
        tracemalloc.start()
        try:
            out, none = bb._block_forward(x, params, "enc0", cfg, slice(None), keep_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert none is None
        assert np.array_equal(out, kept)
        assert peak < 3 * 2**20, peak

    def test_dropout_train_vs_eval(self):
        cfg = toy_config(dropout=0.3)
        params = bb.init_backbone(cfg, np.random.default_rng(20))
        img = np.random.default_rng(21).normal(size=(32, 32))
        ev, _ = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL)
        tr, _ = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL, rng=np.random.default_rng(0))
        assert not np.allclose(ev, tr)


class TestFrozen:
    def test_frozen_returns_no_base_grads(self):
        cfg = toy_config(frozen=True)
        rng = np.random.default_rng(22)
        params = bb.init_backbone(cfg, rng)
        lora = adapter.init_lora(rng, cfg.d_model, 2, cfg.e_layers)
        params.update((k, rng.normal(0.0, 0.1, size=v.shape) if k.endswith(".B") else v)
                      for k, v in lora.items())
        img = np.random.default_rng(23).normal(size=(32, 32))
        out, cache = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL, lora_scale=4.0)
        grads = grad_buffer(params, frozen=True)  # no bb.* entry to add into
        gimg = bb.autoencode_backward(np.ones_like(out), params, cfg, cache, grads)
        assert list(grads) == list(lora)
        assert np.any(gimg != 0.0)  # input gradient still flows
        assert all(np.any(g != 0.0) for g in grads.values())

    def test_zero_upstream_zero_grads(self):
        cfg = toy_config(frozen=False)
        params = bb.init_backbone(cfg, np.random.default_rng(24))
        img = np.random.default_rng(25).normal(size=(32, 32))
        out, cache = bb.autoencode(img, params, cfg, vis_cols=2, out_idx=ALL)
        grads = grad_buffer(params)
        gimg = bb.autoencode_backward(np.zeros_like(out), params, cfg, cache, grads)
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(gimg == 0.0)


class TestNamedTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = toy_config()
        params = bb.init_backbone(cfg, np.random.default_rng(26))
        path = tmp_path / "w.ntf"
        bb.save_weights(path, params)
        loaded = bb.read_weights(path, out={k: np.empty_like(v) for k, v in params.items()})
        assert set(loaded) == set(params)
        assert all(np.array_equal(loaded[k], params[k]) for k in params)

    def test_magic(self, tmp_path):
        path = tmp_path / "w.ntf"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            bb.read_weights(path, out={})

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "w.ntf"
        bb.save_weights(path, {"a": np.arange(10.0)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            bb.read_weights(path, out={"a": np.zeros(10)})

    # checkpoint validation: ForecastModel.load checks names and shapes in
    # read_weights(out=...) before it writes any array
    def test_unknown_name_rejected_with_list(self, tmp_path):
        path = tmp_path / "m.ntf"
        bb.save_weights(path, {**desk_model().state_tensors(), "mystery": np.zeros(2)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown tensor names: ['mystery']")):
            desk_model().load(path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        path = tmp_path / "m.ntf"
        bb.save_weights(path, {**desk_model().state_tensors(), "bb.head.b": np.zeros(5)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: tensor 'bb.head.b' has shape")):
            desk_model().load(path)

    def test_missing_name_rejected(self, tmp_path):
        path = tmp_path / "m.ntf"
        tensors = desk_model().state_tensors()
        del tensors["tga.w_fusion"]
        bb.save_weights(path, tensors)
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing tensor names: ['tga.w_fusion']")):
            desk_model().load(path)

    def test_every_truncation_raises_value_error(self, tmp_path):
        path = tmp_path / "w.ntf"
        tensors = {"a": np.arange(3.0), "scalar": np.array(2.0),
                   "f32": np.ones((2, 1), dtype=np.float32)}
        bb.save_weights(path, tensors)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ntf"
        out = {k: np.zeros_like(v) for k, v in tensors.items()}
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(ValueError, match="cut.ntf"):
                bb.read_weights(cut, out=out)
        assert all(not v.any() for v in out.values())

    def test_truncated_header_names_offset(self, tmp_path):
        path = tmp_path / "w.ntf"
        bb.save_weights(path, {"a": np.zeros(3)})
        path.write_bytes(path.read_bytes()[:9])
        with pytest.raises(ValueError, match="truncated header at byte 8"):
            bb.read_weights(path, out={"a": np.zeros(3)})

    def test_f32_supported(self, tmp_path):
        path = tmp_path / "w.ntf"
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        bb.save_weights(path, {"x": arr})
        out = {"x": np.zeros((2, 3), dtype=np.float32)}
        bb.read_weights(path, out=out)
        assert out["x"].dtype == np.float32 and np.array_equal(out["x"], arr)

    def test_read_into_arrays_holds_no_copy(self, tmp_path):
        # with `out`, the payloads land in the given arrays and the file's
        # bytes are never held as well
        path = tmp_path / "w.ntf"
        rng = np.random.default_rng(28)
        tensors = {f"t{i}": rng.normal(size=(64, 256)) for i in range(8)}
        bb.save_weights(path, tensors)
        out = {k: np.zeros_like(v) for k, v in tensors.items()}
        arrays = dict(out)
        tracemalloc.start()
        try:
            got = bb.read_weights(path, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * path.stat().st_size, peak
        assert got is out and all(out[k] is arrays[k] for k in out)
        assert all(np.array_equal(out[k], tensors[k]) for k in tensors)

    def test_read_into_converts_dtype(self, tmp_path):
        path = tmp_path / "w.ntf"
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        bb.save_weights(path, {"x": arr})
        out = {"x": np.zeros((2, 3))}
        bb.read_weights(path, out=out)
        assert out["x"].dtype == np.float64 and np.array_equal(out["x"], arr)

    def test_rejected_load_leaves_model_untouched(self, tmp_path):
        path = tmp_path / "m.ntf"
        tensors = desk_model(seed=5).state_tensors()
        bb.save_weights(path, {**tensors, "bb.head.b": np.zeros(5)})
        model = desk_model(seed=6)
        before = model.snapshot()
        with pytest.raises(ValueError, match="has shape"):
            model.load(path)
        assert all(np.array_equal(v, before[k]) for k, v in model.state_tensors().items())


class TestVisibleIndices:
    def test_row_major_column_selection(self):
        idx = bb.visible_indices((3, 4), 2)
        assert idx.tolist() == [0, 1, 4, 5, 8, 9]

    def test_bounds(self):
        with pytest.raises(ValueError):
            bb.visible_indices((3, 4), 5)
