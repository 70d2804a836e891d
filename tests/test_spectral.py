import re

import numpy as np
import pytest

from foldcast import data, pgm, sma, spectral
from foldcast.rendering import RenderSpec


def dft2_oracle(img):
    """Direct O(N^2) double-sum DFT."""
    H, W = img.shape
    out = np.zeros((H, W), dtype=complex)
    for u in range(H):
        for v in range(W):
            s = 0.0 + 0.0j
            for x in range(H):
                for y in range(W):
                    s += img[x, y] * np.exp(-2j * np.pi * (u * x / H + v * y / W))
            out[u, v] = s
    return out


def radial_oracle(power):
    """Exhaustive per-pixel binning by floor of the radius from the zero
    frequency at (H//2, W//2)."""
    H, W = power.shape
    sums, counts = {}, {}
    for u in range(H):
        for v in range(W):
            r = int(np.floor(np.sqrt((u - H // 2) ** 2 + (v - W // 2) ** 2)))
            sums[r] = sums.get(r, 0.0) + power[u, v]
            counts[r] = counts.get(r, 0) + 1
    ks = sorted(sums)
    return np.array(ks), np.array([sums[k] / counts[k] for k in ks]), np.array([counts[k] for k in ks])


class TestDft2:
    """The package's 2-D DFT: centered power in power_centered, half spectrum in sma.rfft2."""

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(4, 4))
        expect = np.abs(np.fft.fftshift(dft2_oracle(img))) ** 2
        assert np.abs(spectral.power_centered(img) - expect).max() < 1e-10

    def test_constant_image(self):
        P = spectral.power_centered(np.full((3, 5), 2.0))
        assert P[1, 2] == pytest.approx((2.0 * 15) ** 2, rel=1e-12)
        P[1, 2] = 0
        assert np.sqrt(P).max() < 1e-12  # off-center magnitudes vanish

    def test_delta_gives_ones(self):
        img = np.zeros((4, 6))
        img[0, 0] = 1.0
        assert np.abs(spectral.power_centered(img) - 1.0).max() < 1e-12
        assert np.abs(sma.rfft2(img) - 1.0).max() < 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(7, 6))
        assert np.abs(sma.irfft2(sma.rfft2(img)) - img).max() < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(8, 8))
        spatial = np.sum(img**2)
        freq = np.sum(spectral.power_centered(img)) / img.size
        assert abs(spatial - freq) / spatial < 1e-9


class TestPowerCentered:
    def test_constant_single_center_peak(self):
        ps = spectral.power_centered(np.full((6, 6), 1.5))
        assert ps[3, 3] > 0
        masked = ps.copy()
        masked[3, 3] = 0
        assert masked.max() < 1e-12

    def test_point_symmetry_for_real_input(self):
        rng = np.random.default_rng(3)
        ps = spectral.power_centered(rng.normal(size=(8, 8)))
        # P(H/2+u, W/2+v) == P(H/2-u, W/2-v) up to the wrap at the edges
        for u in range(-3, 4):
            for v in range(-3, 4):
                a = ps[4 + u, 4 + v]
                b = ps[4 - u, 4 - v]
                assert abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1e-12)

    def test_2x2_hand_dft(self):
        ps = spectral.power_centered(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.abs(ps - 1.0).max() < 1e-12


class TestRadialAverage:
    def test_constant_power(self):
        rs = spectral.radial_average(np.full((8, 8), 3.0))
        assert np.abs(rs.power - 3.0).max() < 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (16, 16), (9, 12)])
    def test_matches_exhaustive_oracle(self, shape):
        rng = np.random.default_rng(4)
        power = rng.uniform(0.1, 2.0, size=shape)
        rs = spectral.radial_average(power)
        ks, means, counts = radial_oracle(power)
        r_max = np.sqrt((shape[0] / 2) ** 2 + (shape[1] / 2) ** 2)
        assert np.allclose(rs.freqs, ks / r_max, atol=1e-12)
        assert np.allclose(rs.power, means, atol=1e-12)
        assert np.array_equal(rs.counts, counts)

    def test_counts_sum_to_pixels(self):
        assert spectral.radial_average(np.ones((10, 14))).counts.sum() == 140


class TestFitPowerLaw:
    def synthetic_rs(self, alpha, c=1.0):
        freqs = np.linspace(0.01, 0.7, 120)
        power = c * freqs ** (-alpha)
        return spectral.RadialSpectrum(
            freqs=freqs, power=power, counts=np.ones(120, dtype=int), r_max=100.0
        )

    def test_exact_minus_two(self):
        fit = spectral.fit_power_law(self.synthetic_rs(2.0))
        assert abs(fit.alpha - 2.0) < 1e-12
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_flat_gives_zero(self):
        fit = spectral.fit_power_law(self.synthetic_rs(0.0, c=3.0))
        assert abs(fit.alpha) < 1e-12
        assert fit.r_squared == 1.0

    def test_noisy_recovery(self):
        rng = np.random.default_rng(5)
        rs = self.synthetic_rs(1.5)
        noisy = spectral.RadialSpectrum(
            freqs=rs.freqs,
            power=rs.power * (1.0 + 0.01 * rng.normal(size=rs.freqs.size)),
            counts=rs.counts, r_max=rs.r_max,
        )
        fit = spectral.fit_power_law(noisy)
        assert abs(fit.alpha - 1.5) < 0.05

    def test_mask_bounds_respected(self):
        rs = self.synthetic_rs(2.0)
        fit = spectral.fit_power_law(rs, f_lo=0.1, f_hi=0.3)
        inside = (rs.freqs > 0.1) & (rs.freqs < 0.3)
        assert fit.n_points == int(inside.sum())

    def test_zero_power_bins_dropped(self):
        rs = self.synthetic_rs(1.0)
        power = rs.power.copy()
        power[30:40] = 0.0
        fit = spectral.fit_power_law(
            spectral.RadialSpectrum(rs.freqs, power, rs.counts, rs.r_max)
        )
        assert abs(fit.alpha - 1.0) < 1e-10

    def test_zero_power_bins_in_the_band_dropped_as_on_the_whole_plane(self):
        """An image constant down its columns has power only on the zero row
        frequency, so the band's annuli past W/2 hold none: the band path
        drops them and fits the same points as the whole centred plane."""
        H, W = 32, 8
        img = np.tile(np.random.default_rng(0).normal(size=W), (H, 1))
        band = spectral.fit_band(H, W, 0.05, 0.5)
        rs = spectral._band_spectrum(np.fft.rfft2(img)[np.ix_(band.rows, band.cols)], band)
        assert np.count_nonzero(rs.power == 0) == 4
        whole = spectral.fit_power_law(spectral.radial_average(spectral.power_centered(img)))
        fit = spectral.pss_of_image(img)
        assert fit.n_points == whole.n_points == np.count_nonzero(rs.power) == 4
        assert fit.alpha == pytest.approx(whole.alpha, rel=1e-12)

    def test_too_few_points(self):
        rs = spectral.RadialSpectrum(
            freqs=np.array([0.01, 0.2]), power=np.array([1.0, 0.0]),
            counts=np.array([1, 1]), r_max=10.0,
        )
        with pytest.raises(ValueError, match="usable bins"):
            spectral.fit_power_law(rs)

    @pytest.mark.parametrize("shape", [(2, 16, 16), (16,), ()])
    def test_image_not_2d_rejected_naming_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"2-D image, got shape {shape}")):
            spectral.pss_of_image(np.ones(shape))


class TestSynthImage:
    def test_seed_determinism(self):
        a = spectral.synth_power_law_image(2.0, 32, 32, seed=3)
        b = spectral.synth_power_law_image(2.0, 32, 32, seed=3)
        assert np.array_equal(a, b)

    def test_recovery_small(self):
        for alpha in (1.0, 2.5):
            img = spectral.synth_power_law_image(alpha, 64, 64, seed=1)
            fit = spectral.pss_of_image(img)
            assert abs(fit.alpha - alpha) < 0.05

    def test_flat_alpha_zero(self):
        img = spectral.synth_power_law_image(0.0, 64, 64, seed=2)
        assert abs(spectral.pss_of_image(img).alpha) < 0.05

    def test_recovery_odd_sizes(self):
        """Odd sizes put the zero frequency at (H//2, W//2), half a pixel off
        (H/2, W/2); annuli centred on the latter read 65x65 at alpha 2 as 1.945."""
        for H, W in [(65, 65), (63, 64), (33, 33)]:
            for alpha in (1.0, 2.0, 3.0):
                fits = [spectral.pss_of_image(spectral.synth_power_law_image(alpha, H, W, seed=s))
                        for s in range(10)]
                assert abs(np.mean([f.alpha for f in fits]) - alpha) <= 0.05, (H, W, alpha)

    def test_min_size(self):
        with pytest.raises(ValueError, match=">= 8"):
            spectral.synth_power_law_image(1.0, 4, 64)

    @pytest.mark.parametrize("alpha", [1e308, float("nan"), float("inf"), 300.0])
    def test_non_finite_or_overflowing_alpha_rejected(self, alpha):
        """A non-finite alpha, or one whose power spectrum overflows, is an
        error naming alpha, not an image of NaN or one whose spectrum overflows."""
        with pytest.raises(ValueError, match=f"alpha.*{re.escape(str(alpha))}"):
            spectral.synth_power_law_image(alpha, 32, 32)

    @pytest.mark.parametrize("H,W", [(224, 224), (65, 63)])
    def test_binned_as_the_estimator_bins(self, H, W):
        """Every in-band annulus of the centred plane holds one power value, so
        the estimator reads alpha back to rounding with R^2 = 1.  An annulus
        taken from the float fftfreq(224) * 224 put 154 half-plane cells one
        annulus low and read alpha off by up to 2e-3."""
        bins, k, freqs, _, _ = spectral._annuli(H, W)
        in_band = k[(freqs > spectral.DEFAULT_F_LO) & (freqs < spectral.DEFAULT_F_HI)]
        for alpha in (1.0, 2.0, 3.0):
            image = spectral.synth_power_law_image(alpha, H, W, seed=int(alpha))
            power = spectral.power_centered(image).ravel()
            for annulus in in_band:
                p = power[bins == annulus]
                assert p.max() - p.min() <= 1e-10 * p.max(), (alpha, annulus)
            fit = spectral.pss_of_image(image)
            assert abs(fit.alpha - alpha) <= 1e-12
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("H,W", [(224, 224), (64, 64), (65, 65), (32, 48), (9, 8),
                                     (8, 9), (33, 17)])
    def test_real_ffts_equal_the_complex_construction(self, H, W):
        """The half-plane construction against the full-plane one: a complex
        FFT of the noise, the magnitude on every frequency and the real part
        of a complex inverse.  Largest deviation measured: 1.15e-15."""
        for alpha in (0.0, 1.0, 2.0, 3.0):
            for seed in range(3):
                noise = np.random.default_rng(seed).normal(size=(H, W))
                a, b = np.arange(H)[:, None], np.arange(W)[None, :]
                u, v = np.minimum(a, H - a), np.minimum(b, W - b)
                k = np.floor(np.sqrt(u * u + v * v))
                r_max = float(np.sqrt((H / 2) ** 2 + (W / 2) ** 2))
                with np.errstate(divide="ignore"):
                    magnitude = np.where(k > 0, k / r_max, 1.0) ** (-alpha / 2.0)
                magnitude[0, 0] = 0.0
                noise_fft = np.fft.fft2(noise)
                image = np.fft.ifft2(magnitude * noise_fft / np.abs(noise_fft))
                assert np.abs(image.imag).max() <= 1e-12 * np.abs(image.real).max()
                got = spectral.synth_power_law_image(alpha, H, W, seed)
                assert np.abs(got - image.real).max() <= 2e-15 * np.abs(image.real).max()


class TestAsciiImage:
    def test_spaces_zero(self):
        assert np.all(spectral.ascii_text_to_image(" " * 10, 4, 4) == 0.0)

    def test_tilde_one(self):
        assert np.all(spectral.ascii_text_to_image("~" * 3, 4, 4) == 1.0)

    def test_tiling(self):
        img = spectral.ascii_text_to_image("ab", 2, 2)
        a = (97 - 32) / 94
        b = (98 - 32) / 94
        assert np.allclose(img, [[a, b], [a, b]], atol=1e-15)

    def test_nonprintable_clamped(self):
        img = spectral.ascii_text_to_image("\n\t", 2, 2)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectral.ascii_text_to_image("")


class TestLoadGrayscale:
    def test_uniform_zero_after_zscore(self, tmp_path):
        p = tmp_path / "u.pgm"
        pgm.write_pgm16(p, np.full((16, 16), 9.0))
        assert np.all(spectral.load_grayscale_image(p, 16, 16) == 0.0)

    def test_no_resize_at_native(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(224, 224))
        p = tmp_path / "n.pgm"
        pgm.write_pgm16(p, img)
        out = spectral.load_grayscale_image(p)
        zs = (img - img.mean()) / img.std()
        assert np.abs(out - zs).max() < 1e-3  # 16-bit quantization

    def test_p3_rejected(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="unsupported"):
            spectral.load_grayscale_image(p)


class TestPgm:
    def test_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(9, 13)) * 4.2
        p = tmp_path / "r.pgm"
        pgm.write_pgm16(p, img)
        back = pgm.read_pgm(p)
        step = (img.max() - img.min()) / 65535.0
        assert np.abs(back - img).max() <= step

    def test_p2_ascii(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n# comment\n3 2\n255\n0 10 20\n30 40 250\n")
        img = pgm.read_pgm(p)
        assert img.shape == (2, 3)
        assert img[1, 2] == 250

    def test_sidecar_inverts_the_header_maxval(self, tmp_path):
        p = tmp_path / "s.pgm"
        p.write_text("P2\n2 1\n255\n0 255\n")
        (tmp_path / "s.pgm.txt").write_text("min = 0.0\nmax = 1.0\n")
        assert np.array_equal(pgm.read_pgm(p), [[0.0, 1.0]])

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n65535\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            pgm.read_pgm(p)

    def test_corrupt_header(self, tmp_path):
        p = tmp_path / "h.pgm"
        p.write_bytes(b"P5\nxx yy\n255\n")
        with pytest.raises(ValueError, match="corrupt"):
            pgm.read_pgm(p)

    @pytest.mark.parametrize("sample", [b"300", b"-4", b"+4", b"1.5", b"1e2", b"nan", b"inf"])
    def test_p2_rejects_samples_outside_0_maxval(self, tmp_path, sample):
        p = tmp_path / "s.pgm"
        p.write_bytes(b"P2\n2 2\n255\n1 2\n" + sample + b" 7\n")
        with pytest.raises(ValueError, match=r"sample 2 \(row 1, column 0\)") as err:
            pgm.read_pgm(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("body, sidecar", [
        (b"", None),
        (b"P2\n2", None),
        (b"P5\n1 1\n255\n\x00", b"min = 0\nmax = x\n"),
        (b"P5\n1 1\n255\n\x00", b"min = 0\nmax = inf\n"),
        (b"P5\n1 1\n255\n\x00", b"min = \xff\nmax = 1\n"),
    ])
    def test_errors_name_the_file(self, tmp_path, body, sidecar):
        p = tmp_path / "e.pgm"
        p.write_bytes(body)
        if sidecar is not None:
            (tmp_path / "e.pgm.txt").write_bytes(sidecar)
        with pytest.raises(ValueError) as err:
            pgm.read_pgm(p)
        assert str(p) in str(err.value)


class TestPssOfSeries:
    def test_deterministic(self):
        ds = data.synth_series("sinusoid_mix", 2000, 24, amplitude=1.0, noise_std=0.5, seed=1)
        spec = RenderSpec(periodicity=24, image_height=64, image_width=64, patch_size=16)
        a = spectral.pss_of_series(ds, spec, 5, 480, seed=3, horizon=96)
        b = spectral.pss_of_series(ds, spec, 5, 480, seed=3, horizon=96)
        assert np.array_equal(a.alphas, b.alphas)
        assert np.isfinite(a.mean)

    def test_worker_count_invariance(self):
        ds = data.synth_series("sinusoid_mix", 2000, 24, amplitude=1.0, noise_std=0.5, seed=1)
        spec = RenderSpec(periodicity=24, image_height=64, image_width=64, patch_size=16)
        a = spectral.pss_of_series(ds, spec, 6, 480, seed=3, horizon=96, workers=1)
        b = spectral.pss_of_series(ds, spec, 6, 480, seed=3, horizon=96, workers=3)
        assert np.array_equal(a.alphas, b.alphas)

    def test_too_short(self):
        ds = data.synth_series("noise", 100, 10, noise_std=1.0, seed=0)
        spec = RenderSpec(periodicity=10, image_height=32, image_width=32, patch_size=16)
        with pytest.raises(ValueError, match="too short"):
            spectral.pss_of_series(ds, spec, 3, 500)

    def test_needs_a_sample(self):
        ds = data.synth_series("noise", 100, 10, noise_std=1.0, seed=0)
        spec = RenderSpec(periodicity=10, image_height=32, image_width=32, patch_size=16)
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            spectral.pss_of_series(ds, spec, 0, 50)

    @pytest.mark.parametrize("value", [5.0, 0.1, 1 / 3, 7.77])
    def test_constant_series_names_the_window(self, value):
        ds = data.Dataset("flat", np.full((600, 2), value))
        spec = RenderSpec(periodicity=24, image_height=64, image_width=64, patch_size=16)
        with pytest.raises(ValueError, match=r"window at row \d+, variable \d is constant"):
            spectral.pss_of_series(ds, spec, 3, 480, seed=3, horizon=96)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_constant_window_is_the_one_named(self, workers):
        # variable 1 is constant from row 200 on; the error names the first
        # sample, in draw order, whose window lies inside that run
        rng = np.random.default_rng(0)
        values = rng.normal(size=(700, 2))
        values[200:, 1] = 2.5
        ds = data.Dataset("part", values)
        spec = RenderSpec(periodicity=24, image_height=64, image_width=64, patch_size=16)
        draw = np.random.default_rng(5)
        starts, variables = draw.integers(0, 700 - 240 + 1, size=40), draw.integers(0, 2, size=40)
        i = next(i for i in range(40) if variables[i] == 1 and starts[i] >= 200)
        with pytest.raises(ValueError, match=rf"^window at row {starts[i]}, variable 1 is constant"):
            spectral.pss_of_series(ds, spec, 40, 240, seed=5, horizon=24, workers=workers)

    def test_sample_std_convention(self):
        stats = spectral.summarize_alphas(np.array([1.0, 2.0, 3.0]))
        assert stats.std == pytest.approx(1.0)  # ddof=1
        assert stats.mean == pytest.approx(2.0)
