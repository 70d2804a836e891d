import copy

import numpy as np
import pytest

from foldcast import sma, spectral
from foldcast.forecaster import AdamState, TrainConfig, adam_step
from foldcast.sma import SmaConfig
from tests.test_spectral import dft2_oracle


def enhanced_image(img, p):
    """The aligner's image before the blend, I_enhanced, from its public steps
    (eval mode, so p is left as it is)."""
    F = sma.rfft2(img)
    A_enh, _ = sma.enhancer_forward(np.abs(F), p)
    return sma.irfft2(A_enh * np.exp(1j * np.angle(F)))


def trainable(p):
    """The names of the aligner's trainable tensors in `p`."""
    return [k for k in p if k not in sma.BUFFERS]


def param_grads(backward, g, cache, p):
    """The gradients `backward` (sma_backward or enhancer_backward) adds into
    a zeroed buffer of the aligner's trainable tensors."""
    grads = {k: np.zeros_like(p[k]) for k in trainable(p)}
    backward(g, cache, p, grads)
    return grads


def output_phase_error(img, out):
    """Largest distance, in radians, of the phase of rfft2(out) from the phase
    of rfft2(img) or its opposite, over the bins where |rfft2(out)| exceeds
    1e-9 of its largest value, edge columns included."""
    G = sma.rfft2(out)
    delta = np.abs(np.angle(G * np.conj(sma.rfft2(img))))
    live = np.abs(G) > 1e-9 * np.abs(G).max()
    return float(np.minimum(delta, np.pi - delta)[live].max())


def conv_oracle(x, w, b):
    """Nested-loop 3x3 convolution, stride 1, zero pad 1."""
    O, C, _, _ = w.shape
    _, H, W = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((O, H, W))
    for o in range(O):
        for yy in range(H):
            for xx in range(W):
                s = b[o]
                for c in range(C):
                    for i in range(3):
                        for j in range(3):
                            s += w[o, c, i, j] * xp[c, yy + i, xx + j]
                out[o, yy, xx] = s
    return out


class TestHalfSpectrum:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for H, W in [(8, 8), (6, 10), (5, 4)]:
            x = rng.normal(size=(H, W))
            assert np.abs(sma.irfft2(sma.rfft2(x)) - x).max() < 1e-10

    def test_matches_numpy_on_valid_spectra(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 8))
        hs = sma.rfft2(x)
        assert np.abs(sma.irfft2(hs) - np.fft.irfft2(hs, s=(6, 8))).max() < 1e-12

    def test_agrees_with_full_dft(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4))
        full = dft2_oracle(x)
        assert np.abs(sma.rfft2(x) - full[:, :3]).max() < 1e-10

    def test_constant_dc_only(self):
        hs = sma.rfft2(np.full((4, 6), 2.0))
        assert hs[0, 0] == pytest.approx(2.0 * 24)
        hs[0, 0] = 0
        assert np.abs(hs).max() < 1e-12

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sma.rfft2(np.zeros((4, 5)))

    def test_adjoints(self):
        rng = np.random.default_rng(3)
        H, W = 6, 8
        F = rng.normal(size=(H, W // 2 + 1)) + 1j * rng.normal(size=(H, W // 2 + 1))
        g = rng.normal(size=(H, W))
        adj = sma.irfft2_adjoint(g)
        lhs = np.sum(sma.irfft2(F) * g)
        rhs = np.sum(F.real * adj.real + F.imag * adj.imag)
        assert abs(lhs - rhs) < 1e-10

    def test_doubling_linearity(self):
        x = np.random.default_rng(6).normal(size=(6, 6))
        assert np.abs(sma.irfft2(2.0 * sma.rfft2(x)) - 2.0 * x).max() < 1e-10


class TestEnhancer:
    def test_all_zero_params(self):
        p = sma.init_enhancer(np.random.default_rng(0), channels=3)
        p["sma.conv1_w"][:] = 0
        p["sma.conv2_w"][:] = 0
        A = np.random.default_rng(1).uniform(0, 2, size=(6, 5))
        out, _ = sma.enhancer_forward(A, p)
        assert np.all(out == 0.0)

    def test_bias_only_constant(self):
        p = sma.init_enhancer(np.random.default_rng(0), channels=3)
        p["sma.conv1_w"][:] = 0
        p["sma.conv2_w"][:] = 0
        p["sma.conv2_b"][:] = 1.75
        A = np.random.default_rng(1).uniform(0, 2, size=(6, 5))
        out, _ = sma.enhancer_forward(A, p)
        assert np.all(out == 1.75)

    def test_matches_conv_oracle(self):
        rng = np.random.default_rng(7)
        p = sma.init_enhancer(rng, channels=4)
        p["sma.bn_running_mean"] = rng.normal(size=4) * 0.1
        p["sma.bn_running_var"] = rng.uniform(0.5, 1.5, size=4)
        A = rng.uniform(0, 2, size=(6, 6))
        out, _ = sma.enhancer_forward(A, p)
        q = {k.removeprefix("sma."): v for k, v in p.items()}
        h1 = conv_oracle(A[None], q["conv1_w"], q["conv1_b"])
        inv = 1.0 / np.sqrt(q["bn_running_var"] + sma._BN_EPS)
        h2 = q["bn_gamma"][:, None, None] * (h1 - q["bn_running_mean"][:, None, None]) * inv[:, None, None] + q["bn_beta"][:, None, None]
        h3 = np.maximum(h2, 0.0)
        expect = conv_oracle(h3, q["conv2_w"], q["conv2_b"])[0]
        assert np.abs(out - expect).max() < 1e-10

    def test_train_updates_running_stats(self):
        rng = np.random.default_rng(8)
        p = sma.init_enhancer(rng, channels=2)
        before = p["sma.bn_running_mean"].copy()
        sma.enhancer_forward(rng.uniform(0, 1, size=(5, 5)), p, rng=rng, dropout_rate=0.0)
        assert not np.array_equal(p["sma.bn_running_mean"], before)


class TestAligner:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.img = self.rng.normal(size=(8, 8))
        self.p = sma.init_enhancer(np.random.default_rng(1), channels=4)

    def test_lam_zero_bit_exact_identity(self):
        out, _ = sma.sma_forward(self.img, self.p, SmaConfig(lam=0.0))
        assert np.array_equal(out, self.img)

    def test_lam_zero_zero_param_grads(self):
        _, cache = sma.sma_forward(self.img, self.p, SmaConfig(lam=0.0))
        grads = param_grads(sma.sma_backward, np.ones((8, 8)), cache, self.p)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_lam_one_equals_enhanced(self):
        out, _ = sma.sma_forward(self.img, self.p, SmaConfig(lam=1.0))
        assert np.abs(out - enhanced_image(self.img, self.p)).max() < 1e-12

    def test_lam_continuity_bound(self):
        I_enh = enhanced_image(self.img, self.p)
        for lam in (0.05, 0.3, 0.9):
            out, _ = sma.sma_forward(self.img, self.p, SmaConfig(lam=lam))
            lhs = np.abs(out - self.img).max()
            rhs = lam * np.abs(I_enh - self.img).max()
            assert lhs <= rhs + 1e-12

    def test_default_lambda(self):
        assert SmaConfig().lam == 0.05

    def test_phase_preservation(self):
        """At lam = 1 the output's spectrum keeps the input's phase, up to pi
        where the enhanced magnitude is negative."""
        for H, W in [(8, 8), (6, 10), (64, 64)]:
            img = self.rng.normal(size=(H, W))
            out, _ = sma.sma_forward(img, self.p, SmaConfig(lam=1.0))
            assert output_phase_error(img, out) < 1e-6

    def test_eval_determinism(self):
        a, _ = sma.sma_forward(self.img, self.p, SmaConfig(lam=0.3))
        b, _ = sma.sma_forward(self.img, self.p, SmaConfig(lam=0.3))
        assert np.array_equal(a, b)

    def test_no_cache_without_backward(self):
        cfg = SmaConfig(lam=0.3)
        a, cache = sma.sma_forward(self.img, self.p, cfg)
        b, none = sma.sma_forward(self.img, self.p, cfg, keep_cache=False)
        assert none is None and cache is not None
        assert np.array_equal(a, b)

    def test_train_dropout_reproducible_under_seed(self):
        cfg = SmaConfig(lam=0.3)
        a, _ = sma.sma_forward(self.img, copy.deepcopy(self.p), cfg, rng=np.random.default_rng(5))
        b, _ = sma.sma_forward(self.img, copy.deepcopy(self.p), cfg, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_zero_upstream_zero_grads(self):
        _, cache = sma.sma_forward(self.img, self.p, SmaConfig(lam=0.5))
        grads = param_grads(sma.sma_backward, np.zeros((8, 8)), cache, self.p)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_train_cache_holds_one_channel_stack(self):
        """A step holds every window's aligner cache at once, so a train-mode
        cache keeps only what backward reads: no [H, W] image, no half-spectrum
        but the phase and the enhancer's input magnitude, a single float
        [C, H, W/2+1] activation, the masked one, and one boolean mask for ReLU
        and dropout together; no [9, H, W/2+1] stack of taps, which backward
        rebuilds."""
        _, cache = sma.sma_forward(self.img, copy.deepcopy(self.p), SmaConfig(lam=0.3),
                                   rng=np.random.default_rng(6))
        assert set(cache) == {"phi", "lam", "enh"}

        def arrays(obj):
            if isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v)
            elif isinstance(obj, np.ndarray):
                yield obj

        held = list(arrays(cache))
        assert not [a for a in held if a.shape[-2:] == self.img.shape]
        n = 8 * 5  # one half-spectrum
        halves = [a for a in held if a.size == n]
        assert all(a.dtype == np.float64 for a in halves)
        assert sorted(map(id, halves)) == sorted(map(id, (cache["phi"], cache["enh"]["A"])))
        stacks = [a for a in held if a.size > n and a.size % n == 0]
        assert sorted((a.dtype.name, a.size) for a in stacks) == [("bool", 4 * n), ("float64", 4 * n)]


def central_diff(f, arr, idx, h=1e-4):
    orig = arr[idx]
    arr[idx] = orig + h
    lp = f()
    arr[idx] = orig - h
    lm = f()
    arr[idx] = orig
    return (lp - lm) / (2 * h)


class TestGradients:
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_parameter_gradients_fd(self, train):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(8, 8))
        gout = rng.normal(size=(8, 8))
        p = sma.init_enhancer(np.random.default_rng(2), channels=4)
        cfg = SmaConfig(lam=0.3)

        def draws():  # the same dropout masks in every pass; None in eval mode
            return np.random.default_rng(9) if train else None

        def loss():
            q = copy.deepcopy(p)  # keep running stats untouched across FD evals
            out, _ = sma.sma_forward(img, q, cfg, draws())
            return float(np.sum(out * gout))

        q = copy.deepcopy(p)
        _, cache = sma.sma_forward(img, q, cfg, draws())
        grads = param_grads(sma.sma_backward, gout, cache, q)
        worst = 0.0
        pick = np.random.default_rng(3)
        for key in trainable(p):
            flat = p[key].reshape(-1)
            gflat = grads[key].reshape(-1)
            for ix in pick.choice(flat.size, size=min(8, flat.size), replace=False):
                fd = central_diff(loss, flat, ix)
                denom = max(abs(gflat[ix]), abs(fd), 1e-7)
                worst = max(worst, abs(gflat[ix] - fd) / denom)
        assert worst < 1e-4


class TestSpectralShift:
    def test_trained_enhancer_raises_pss(self):
        """An enhancer trained to amplify low radial frequencies must raise the
        measured power-spectrum slope of the blended image."""
        rng = np.random.default_rng(12)
        img = spectral.synth_power_law_image(1.5, 64, 64, seed=4)
        p = sma.init_enhancer(np.random.default_rng(5), channels=4)
        cfg = SmaConfig(lam=0.05)

        F = sma.rfft2(img)
        A0 = np.abs(F)
        H, W = img.shape
        fu = np.fft.fftfreq(H)[:, None] * H
        fv = np.arange(W // 2 + 1)[None, :]
        r = np.sqrt(fu * fu + fv * fv)
        boost = 1.0 + 9.0 * np.exp(-((r / 6.0) ** 2))
        target = A0 * boost

        state = AdamState.init(p, trainable(p))
        tcfg = TrainConfig(lr=3e-3, batch_size=1, epochs=1)
        for _ in range(200):
            A_enh, cache = sma.enhancer_forward(A0, p)
            gA = A_enh - target
            adam_step(p, param_grads(sma.enhancer_backward, gA, cache, p), state, tcfg)

        out, _ = sma.sma_forward(img, p, cfg)
        before = spectral.pss_of_image(img).alpha
        after = spectral.pss_of_image(out).alpha
        assert after > before
