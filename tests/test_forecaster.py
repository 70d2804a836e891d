import copy
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from foldcast import backbone as bb, data, forecaster as fc
from foldcast.backbone import BackboneConfig
from foldcast.data import normalize_target
from foldcast.rendering import RenderSpec
from foldcast.sma import SmaConfig


def desk_model(seed=0, **kw):
    rspec = RenderSpec(periodicity=8, image_height=32, image_width=32,
                       align_const=1.0, patch_size=8)
    bcfg = BackboneConfig(image_height=32, image_width=32, patch_size=8,
                          d_model=16, n_heads=2, e_layers=1, d_layers=1,
                          d_ff=32, dropout=0.0, frozen=kw.pop("frozen", False))
    mcfg = fc.ModelConfig(render=rspec, backbone=bcfg,
                          sma=SmaConfig(lam=kw.pop("lam", 0.05)),
                          lora_rank=2, lora_alpha=8.0, lora_dropout=0.0, **kw)
    return fc.ForecastModel(mcfg, seed=seed)


def drop_lora_paths(monkeypatch):
    """Run every autoencode without the low-rank paths, as a model without
    LoRA would."""
    real = fc.bb.autoencode
    monkeypatch.setattr(fc.bb, "autoencode",
                        lambda *args, **kw: real(*args, **{**kw, "lora_scale": None}))


def randomize_lora_B(model, rng):
    """A zero LoRA B would zero every A gradient: draw each B from N(0, 0.1)."""
    for k, v in model.params.items():
        if k.startswith("lora.") and k.endswith(".B"):
            v[...] = rng.normal(0.0, 0.1, size=v.shape)


def toy_windows(n_windows=6, T=48, H=16, n_vars=1, seed=0):
    rng = np.random.default_rng(seed)
    total = T + H + (n_windows - 1) * 8
    base = np.sin(2 * np.pi * np.arange(total) / 8.0)[:, None]
    vals = np.repeat(base, n_vars, axis=1) + 0.05 * rng.normal(size=(total, n_vars))
    seg = data.Segment(vals, 0, total)
    return data.windows(seg, T, H, stride=8, norm_const=0.4)


class TestFuse:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        assert np.array_equal(fc.fuse(a, b, 1.0), a)
        assert np.array_equal(fc.fuse(a, b, 0.0), b)

    def test_midpoint(self):
        a = np.full((2, 2), 2.0)
        b = np.full((2, 2), 4.0)
        assert np.all(fc.fuse(a, b, 0.5) == 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            fc.fuse(np.zeros((2, 2)), np.zeros((3, 2)), 0.5)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        c = 3.7
        assert np.abs(fc.fuse(c * a, c * b, 0.3) - c * fc.fuse(a, b, 0.3)).max() < 1e-12


class TestClamp:
    @pytest.mark.parametrize("raw,expect", [(1.5, 1.0), (-0.2, 0.0), (0.37, 0.37)])
    def test_values(self, raw, expect):
        assert fc.clamp_beta(raw) == expect


class TestMetrics:
    def test_hand_values(self):
        assert fc.mse([1.0, 2.0], [1.0, 4.0]) == 2.0
        assert fc.mae([1.0, 2.0], [1.0, 4.0]) == 1.0

    def test_perfect(self):
        x = np.random.default_rng(2).normal(size=(3, 3))
        assert fc.mse(x, x) == 0.0
        assert fc.mae(x, x) == 0.0

    def test_mae_sign_symmetry(self):
        p = np.array([1.0, -2.0])
        t = np.array([0.0, 0.0])
        assert fc.mae(p, t) == fc.mae(-p, t)


class TestSeasonalNaive:
    def test_repeats_last_period(self):
        w = toy_windows(1, T=24, H=16)[0]
        pred = fc.seasonal_naive(w, 8)
        assert np.array_equal(pred[:8], w.context[-8:])
        assert np.array_equal(pred[8:16], w.context[-8:])


class TestAdam:
    def test_zero_grads_no_change(self):
        params = {"w": np.arange(4.0)}
        grads = {"w": np.zeros(4)}
        state = fc.AdamState.init(params, ["w"])
        before = params["w"].copy()
        fc.adam_step(params, grads, state, fc.TrainConfig(lr=0.1))
        assert np.array_equal(params["w"], before)
        assert state.t == 1

    def test_first_step_magnitude(self):
        # bias-corrected first step with g=1: delta = -lr * 1/(1 + eps) ~ -lr
        params = {"w": np.zeros(1)}
        grads = {"w": np.ones(1)}
        state = fc.AdamState.init(params, ["w"])
        fc.adam_step(params, grads, state, fc.TrainConfig(lr=0.1))
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)

    def test_untracked_params_never_touched(self):
        params = {"w": np.ones(2), "frozen": np.ones(2)}
        grads = {"w": np.ones(2), "frozen": np.ones(2)}
        state = fc.AdamState.init(params, ["w"])
        for _ in range(5):
            fc.adam_step(params, grads, state, fc.TrainConfig(lr=0.1))
        assert np.array_equal(params["frozen"], np.ones(2))
        assert not np.array_equal(params["w"], np.ones(2))


    def test_three_steps_match_textbook_bitwise(self):
        rng = np.random.default_rng(0)
        shapes = {"a": (3, 4), "b": (5,), "c": ()}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        cfg = fc.TrainConfig(lr=0.01)
        state = fc.AdamState.init(params, list(shapes))
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for t in range(1, 4):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            fc.adam_step(params, grads, state, cfg)
            for k, g in kept.items():
                assert np.array_equal(grads[k], g)  # grads only read
                m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * g
                v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * g * g
                m_hat = m[k] / (1.0 - cfg.beta1**t)
                v_hat = v[k] / (1.0 - cfg.beta2**t)
                ref[k] = ref[k] - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        for k in shapes:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])


class TestForward:
    def test_beta_zero_equals_spectral_branch(self):
        model = desk_model(fixed_beta=0.0)
        w = toy_windows(1)[0]
        out = model.forward(w)
        expect = data.denormalize(out.y_spectral, w)
        assert np.array_equal(out.prediction, expect)

    def test_beta_one_equals_structural_branch(self):
        model = desk_model(fixed_beta=1.0)
        w = toy_windows(1)[0]
        out = model.forward(w)
        assert np.array_equal(out.prediction, data.denormalize(out.y_structural, w))

    def test_identical_variables_identical_forecasts(self):
        model = desk_model()
        rng = np.random.default_rng(3)
        total = 70
        x = np.sin(2 * np.pi * np.arange(total) / 8.0) + 0.1 * rng.normal(size=total)
        vals = np.stack([x, x], axis=1)
        w = data.windows(data.Segment(vals, 0, total), 48, 16, norm_const=0.4)[0]
        out = model.forward(w)
        assert np.array_equal(out.prediction[:, 0], out.prediction[:, 1])

    def test_eval_mode_deterministic(self):
        model = desk_model()
        w = toy_windows(1)[0]
        a = model.forward(w)
        b = model.forward(w)
        assert np.array_equal(a.prediction, b.prediction)

    def test_startup_branches_identical_when_disabled(self):
        # lam=0 and gate off: both branches run the same frozen pipeline
        model = desk_model(lam=0.0, use_tga=False)
        w = toy_windows(1)[0]
        out = model.forward(w)
        assert np.array_equal(out.y_structural, out.y_spectral)
        # hence the prediction is independent of beta
        m2 = desk_model(lam=0.0, use_tga=False, fixed_beta=0.123)
        out2 = m2.forward(w)
        assert np.abs(out.prediction - out2.prediction).max() < 1e-12

    def test_batched_forward_equals_per_variable_branches(self):
        # forward runs the 5 variables as one batch; loss_and_grads runs them
        # one variable at a time, each with its backward
        model = desk_model(seed=4)
        w = toy_windows(1, n_vars=5)[0]
        out = model.forward(w)
        _, _, (y_st, y_sp) = model.loss_and_grads(w, train=False)
        assert np.array_equal(out.y_structural, y_st[0])
        assert np.array_equal(out.y_spectral, y_sp[0])

    def test_forward_keeps_no_cache(self):
        # a 6-variable forward of a model with 64 patches and d_model 32:
        # measured at 1.7 MiB without caches and 8.3 MiB when the batched
        # forward keeps every autoencode and aligner cache
        rspec = RenderSpec(periodicity=8, image_height=32, image_width=32,
                           align_const=1.0, patch_size=4)
        bcfg = BackboneConfig(image_height=32, image_width=32, patch_size=4, d_model=32,
                              n_heads=2, e_layers=2, d_layers=1, d_ff=128, dropout=0.0)
        model = fc.ForecastModel(fc.ModelConfig(render=rspec, backbone=bcfg, lora_rank=2,
                                                lora_alpha=8.0, lora_dropout=0.0), seed=0)
        w = toy_windows(1, n_vars=6)[0]
        model.forward(w)  # warm-up: one-time allocations are not counted
        tracemalloc.start()
        try:
            model.forward(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_odd_width_with_aligner_rejected(self):
        rspec = RenderSpec(periodicity=8, image_height=25, image_width=25, patch_size=5)
        bcfg = BackboneConfig(image_height=25, image_width=25, patch_size=5, d_model=16,
                              n_heads=2, e_layers=1, d_layers=1, d_ff=32)
        with pytest.raises(ValueError, match="image_size 25 is odd"):
            fc.ModelConfig(render=rspec, backbone=bcfg)
        fc.ModelConfig(render=rspec, backbone=bcfg, use_sma=False)

    def test_lora_b_zero_end_to_end_bitwise(self, monkeypatch):
        model = desk_model()
        w = toy_windows(1)[0]
        with_lora = model.forward(w)
        drop_lora_paths(monkeypatch)
        without = model.forward(w)
        assert np.array_equal(with_lora.prediction, without.prediction)


class TestTrainSwitch:
    """Below the model a pass trains exactly when it is handed an rng; the
    model hands its rng down only in train mode, and train mode needs one."""

    def test_eval_mode_draws_nothing_from_a_given_rng(self):
        model = desk_model()  # the aligner's dropout would draw in train mode
        w = toy_windows(1)[0]
        stats = model.params["sma.bn_running_mean"].copy()
        r = np.random.default_rng(5)
        state = copy.deepcopy(r.bit_generator.state)
        loss, _, _ = model.loss_and_grads(w, rng=r, train=False)
        out = model.forward(w, rng=r)
        assert r.bit_generator.state == state
        assert loss == model.loss_and_grads(w, train=False)[0]
        assert np.array_equal(out.prediction, model.forward(w).prediction)
        assert np.array_equal(model.params["sma.bn_running_mean"], stats)

    @pytest.mark.parametrize("call", [lambda m, w: m.loss_and_grads(w),
                                      lambda m, w: m.forward(w, train=True)],
                             ids=["loss_and_grads", "forward"])
    def test_train_mode_without_rng_rejected(self, call):
        # no aligner and no block or LoRA dropout: nothing would be drawn
        model = desk_model(use_sma=False)
        assert model.cfg.backbone.dropout == model.cfg.lora_dropout == 0.0
        with pytest.raises(ValueError, match="train-mode pass needs an rng"):
            call(model, toy_windows(1)[0])


class TestBetaGradient:
    def test_matches_closed_form(self):
        model = desk_model(seed=3)
        w = toy_windows(1)[0]
        _, grads, (y_st, y_sp) = model.loss_and_grads(w, train=False)
        target = normalize_target(w)
        yhat = fc.fuse(y_st[0], y_sp[0], model.beta)
        closed = np.mean(2.0 * (yhat - target) * (y_st[0] - y_sp[0]))
        assert abs(grads["fuse.beta"][0] - closed) < 1e-10


class TestFrozenGradients:
    @staticmethod
    def dropout_model(frozen):
        rspec = RenderSpec(periodicity=8, image_height=32, image_width=32,
                           align_const=1.0, patch_size=8)
        bcfg = BackboneConfig(image_height=32, image_width=32, patch_size=8,
                              d_model=16, n_heads=2, e_layers=2, d_layers=1,
                              d_ff=32, dropout=0.2, frozen=frozen)
        mcfg = fc.ModelConfig(render=rspec, backbone=bcfg, sma=SmaConfig(lam=0.05),
                              lora_rank=2, lora_alpha=8.0, lora_dropout=0.2)
        model = fc.ForecastModel(mcfg, seed=5)
        randomize_lora_B(model, np.random.default_rng(6))
        return model

    def test_adapter_grads_bitwise_equal_to_unfrozen(self):
        w = toy_windows(1, n_vars=2)[0]
        frozen, full = self.dropout_model(True), self.dropout_model(False)
        loss_f, g_f, out_f = frozen.loss_and_grads(w, rng=np.random.default_rng(7))
        loss_u, g_u, out_u = full.loss_and_grads(w, rng=np.random.default_rng(7))
        assert sorted(g_f) == sorted(frozen.trainable_names())
        assert not any(k.startswith("bb.") for k in g_f)
        assert any(k.startswith("bb.") for k in g_u)
        assert loss_f == loss_u
        assert all(np.array_equal(f, u) for f, u in zip(out_f, out_u))
        for name in g_f:
            assert np.array_equal(g_f[name], g_u[name]), name
        assert all(np.any(g_f[n] != 0.0) for n in g_f if n.startswith("lora."))

    def test_grads_cover_exactly_trainable_names(self, monkeypatch):
        model = desk_model(frozen=True, use_sma=False, use_tga=False, fixed_beta=0.3)
        calls = []
        backward = fc.bb.autoencode_backward

        def counted(*args, **kwargs):
            calls.append(1)
            return backward(*args, **kwargs)

        monkeypatch.setattr(fc.bb, "autoencode_backward", counted)
        _, grads, _ = model.loss_and_grads(toy_windows(1, n_vars=3)[0], train=False)
        assert sorted(grads) == sorted(model.trainable_names())
        assert all(k.startswith("lora.") for k in grads)
        # nothing upstream of the spectral branch trains: one backward per variable
        assert len(calls) == 3

    @staticmethod
    def _peak_bytes(model, w):
        model.loss_and_grads(w, train=False)  # warm-up: one-time allocations are not counted
        tracemalloc.start()
        try:
            model.loss_and_grads(w, train=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_of_unequal_windows_rejected(self):
        model = desk_model()
        w = toy_windows(1)[0]
        for other in (toy_windows(1, T=40)[0], toy_windows(1, H=8)[0]):
            with pytest.raises(ValueError, match="one shape"):
                model.loss_and_grads(w, other, train=False)

    def test_peak_memory_of_a_batched_step(self):
        # a step holds its 8 windows' caches at once; the bound sits between
        # the trimmed caches (2.7 MiB) and caches that keep the aligner's
        # conv1 output, ReLU-dropout output and float dropout scale and the
        # MLP's activation (4.3 MiB)
        model = desk_model()
        ws = toy_windows(8)
        model.loss_and_grads(*ws, rng=np.random.default_rng(0))  # warm-up
        tracemalloc.start()
        try:
            model.loss_and_grads(*ws, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20, peak

    def test_peak_memory_does_not_grow_with_variables(self):
        # each variable's backward runs right after its forward, so only one
        # variable's caches are alive at a time
        model = desk_model(frozen=True)
        one = self._peak_bytes(model, toy_windows(1, n_vars=1)[0])
        six = self._peak_bytes(model, toy_windows(1, n_vars=6)[0])
        assert six < 1.5 * one, (six, one)


class TestTraining:
    def test_zero_lr_constant_losses(self):
        # use_sma=False: no batch-norm buffers or dropout, so an ineffective
        # learning rate leaves every loss bit-identical across epochs
        model = desk_model(use_sma=False)
        ws = toy_windows(5)
        report = fc.train(model, ws[:4], ws[4:], fc.TrainConfig(lr=1e-30, batch_size=2, epochs=3, patience=5, seed=0))
        vals = [e["val_mse"] for e in report["epochs"]]
        trains = [e["train_mse"] for e in report["epochs"]]
        assert max(vals) - min(vals) < 1e-12
        assert max(trains) - min(trains) < 1e-12

    def test_patience_zero_stops_first_non_improving(self):
        model = desk_model(use_sma=False)
        ws = toy_windows(5)
        report = fc.train(model, ws[:4], ws[4:], fc.TrainConfig(lr=1e-30, batch_size=2, epochs=10, patience=0, seed=0))
        # lr ~ 0 means epoch 1 cannot improve on the initial val loss
        assert len(report["epochs"]) == 1

    def test_beta_stays_clamped(self):
        model = desk_model()
        ws = toy_windows(6)
        report = fc.train(model, ws[:5], ws[5:], fc.TrainConfig(lr=0.05, batch_size=2, epochs=3, patience=5, seed=0))
        for e in report["epochs"]:
            assert 0.0 <= e["beta"] <= 1.0

    def test_determinism(self):
        r = []
        for _ in range(2):
            model = desk_model(seed=7)
            ws = toy_windows(6)
            r.append(fc.train(model, ws[:5], ws[5:], fc.TrainConfig(lr=1e-3, batch_size=2, epochs=2, patience=5, seed=1)))
        assert r[0] == r[1]

    def test_val_loss_chunks_equal_one_window_forwards(self):
        model = desk_model(seed=3)
        ws = toy_windows(7)
        total = 0.0
        for w in ws:
            o = model.forward(w, train=False)
            yhat = fc.fuse(o.y_structural, o.y_spectral, model.beta)
            total += float(np.mean((yhat - normalize_target(w)) ** 2))
        for chunk in (1, 3, len(ws)):
            assert fc._val_loss(model, ws, chunk) == total / len(ws)

    def test_empty_split_rejected(self):
        model = desk_model()
        with pytest.raises(ValueError, match="at least one"):
            fc.train(model, [], toy_windows(1), fc.TrainConfig())

    def test_best_weights_restored(self):
        model = desk_model()
        ws = toy_windows(6)
        report = fc.train(model, ws[:5], ws[5:], fc.TrainConfig(lr=1e-3, batch_size=2, epochs=3, patience=5, seed=2))
        val = fc.evaluate(ws[5:], fc.model_predict_fn(model))
        # the restored model reproduces the best recorded validation loss in
        # normalized space; check the denormalized metric is finite and stable
        assert np.isfinite(val["mse"])
        assert report["best_epoch"] <= len(report["epochs"])


class TestEvaluate:
    def test_oracle_on_noise_free_periodic(self):
        # horizon is an exact repetition of the context period
        total = 120
        x = np.sin(2 * np.pi * np.arange(total) / 12.0)
        seg = data.Segment(x[:, None], 0, total)
        ws = data.windows(seg, 48, 24, stride=12, norm_const=0.4)

        def oracle(w):
            return fc.seasonal_naive(w, 12)

        res = fc.evaluate(ws, oracle)
        assert res["mse"] < 1e-6

    def test_empty_error(self):
        with pytest.raises(ValueError, match="no windows"):
            fc.evaluate([], lambda w: None)

    def test_equals_mean_of_per_window(self):
        ws = toy_windows(4)
        preds = {id(w): np.random.default_rng(i).normal(size=w.target.shape) for i, w in enumerate(ws)}
        res = fc.evaluate(ws, lambda w: preds[id(w)])
        per = [fc.mse(preds[id(w)], w.target) for w in ws]
        assert res["mse"] == pytest.approx(np.mean(per), rel=1e-12)

    def test_worker_invariance(self):
        ws = toy_windows(4)
        model = desk_model()
        a = fc.evaluate(ws, fc.model_predict_fn(model), workers=1)
        b = fc.evaluate(ws, fc.model_predict_fn(model), workers=3)
        assert a == b


GROUPS = {"sma": "sma.", "tga": "tga.", "lora": "lora.", "beta": "fuse.", "backbone": "bb."}


class TestGradcheck:
    # seed 14 gave the largest backbone error of seeds 0-39, and seed 128 a
    # step across a kink of the aligner's ReLU
    @pytest.mark.parametrize("seed", [0, 14, 128])
    def test_all_groups_pass(self, seed):
        report = fc.gradcheck("all", seed=seed)
        assert report["passed"], report

    def test_a_step_across_a_kink_is_drawn_again(self, monkeypatch):
        real, results = fc.directional_error, []

        def recording(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(fc, "directional_error", recording)
        report = fc.gradcheck("sma", seed=128)
        assert report["passed"]
        assert None in results and results[-1] is not None
        assert report["groups"]["sma"]["kink_redraws"] == results.count(None) > 0

    def test_reports_the_gap_under_the_rounding_floor(self):
        """Each group reports its largest raw gap, before the rounding floor
        is taken off, and how many directions it drew again."""
        for group, r in fc.gradcheck("all", seed=0)["groups"].items():
            assert math.isfinite(r["max_raw_rel_gap"]) and r["max_raw_rel_gap"] >= r["max_rel_err"]
            assert isinstance(r["kink_redraws"], int) and r["kink_redraws"] >= 0, group

    @pytest.mark.parametrize("group, site", [
        *((g, "loss_and_grads") for g in GROUPS),
        *((g, "_backward_variable") for g in GROUPS if g != "beta")])
    def test_a_gradient_off_by_one_in_a_thousand_fails_its_group(self, monkeypatch, group, site):
        """The check runs through the model's own gradient wiring: scaling one
        group's gradient by 1.001 where the model forms it fails that group."""
        real = getattr(fc.ForecastModel, site)

        def loss_and_grads(self, *windows, **kw):
            loss, grads, out = real(self, *windows, **kw)
            for name, g in grads.items():
                if name.startswith(GROUPS[group]):
                    g *= 1.001
            return loss, grads, out

        def backward_variable(self, grads, *args):
            before = {name: g.copy() for name, g in grads.items()}
            real(self, grads, *args)
            for name, g in grads.items():
                if name.startswith(GROUPS[group]):
                    g += 0.001 * (g - before[name])

        faulty = loss_and_grads if site == "loss_and_grads" else backward_variable
        monkeypatch.setattr(fc.ForecastModel, site, faulty)
        assert not fc.gradcheck(group, seed=0)["passed"]

    def test_injected_fault_detected(self):
        for group in GROUPS:
            report = fc.gradcheck(group, seed=0, inject_fault=True)
            assert not report["passed"], group
            r = report["groups"][group]
            assert r["max_raw_rel_gap"] > r["bound"], group

    def test_unknown_component(self):
        with pytest.raises(ValueError, match="unknown"):
            fc.gradcheck("warp")

    def test_beta_checks_the_models_own_gradient(self, monkeypatch):
        real = fc.beta_grad
        monkeypatch.setattr(fc, "beta_grad", lambda *args: 1.1 * real(*args))
        assert not fc.gradcheck("beta")["passed"]


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        model = desk_model(seed=11)
        w = toy_windows(1)[0]
        before = model.forward(w).prediction
        path = tmp_path / "m.ntf"
        model.save(path)
        other = desk_model(seed=99)
        assert not np.array_equal(other.forward(w).prediction, before)
        other.load(path)
        assert np.array_equal(other.forward(w).prediction, before)

    def test_state_held_across_a_train_step_stays_the_models(self, tmp_path):
        """A train step updates the running statistics in place, so a
        state_tensors() dict taken before it still reads into the model."""
        model = desk_model(seed=11)
        path = tmp_path / "m.ntf"
        model.save(path)
        saved = model.snapshot()
        held = model.state_tensors()
        model.loss_and_grads(*toy_windows(2), rng=np.random.default_rng(0))
        for k in ("sma.bn_running_mean", "sma.bn_running_var"):
            assert held[k] is model.state_tensors()[k]
            assert not np.array_equal(held[k], saved[k])
        bb.read_weights(path, out=held)
        for k in ("sma.bn_running_mean", "sma.bn_running_var"):
            assert np.array_equal(model.state_tensors()[k], saved[k])

    def test_layout_is_pinned(self):
        """The names, order and shapes of the checkpoint's tensors, for the
        gradcheck-size model: a rename or reorder fails here, so checkpoints
        written before it keep loading."""
        size = dict(image_height=8, image_width=12, patch_size=4)
        model = fc.ForecastModel(fc.ModelConfig(
            render=RenderSpec(periodicity=4, align_const=1.0, **size), lora_rank=2,
            backbone=BackboneConfig(**size, d_model=8, n_heads=2, e_layers=2, d_layers=1,
                                    d_ff=16, frozen=False)))
        state = model.state_tensors()
        layout = "".join(f"{k} {tuple(v.shape)}\n" for k, v in state.items())
        assert len(state) == 80
        assert hashlib.sha256(layout.encode()).hexdigest() == \
            "16b5fb1a2ce373569f78e4e0c2605c5af8fe3c315e58ccb4dd5f540a62f9d304"
        runs = [group for group, _ in itertools.groupby(map(fc.param_group, state))]
        assert runs == ["backbone", "sma", "tga", "lora", "beta", "sma"]
        assert list(state)[-2:] == ["sma.bn_running_mean", "sma.bn_running_var"]

    def test_load_shape_mismatch(self, tmp_path):
        model = desk_model(seed=11)
        path = tmp_path / "m.ntf"
        model.save(path)
        other = desk_model(seed=0)
        other.params["bb.head.b"] = np.zeros(5)
        with pytest.raises(ValueError):
            other.load(path)


class TestAblationVariants:
    def test_three_variants_distinct(self):
        ws = toy_windows(6)
        cfgs = dict(
            no_spectral=dict(fixed_beta=1.0),
            no_structural=dict(fixed_beta=0.0),
            only_lora=dict(fixed_beta=1.0, use_tga=False),
        )
        preds = {}
        for name, kw in cfgs.items():
            model = desk_model(seed=5, **kw)
            fc.train(model, ws[:5], ws[5:], fc.TrainConfig(lr=1e-3, batch_size=2, epochs=2, patience=5, seed=3))
            preds[name] = model.forward(ws[0]).prediction
        names = list(preds)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert not np.array_equal(preds[names[i]], preds[names[j]])
