import os
from pathlib import Path

import numpy as np
import pytest

from foldcast import data


def _etth1_path():
    env = os.environ.get("FOLDCAST_ETTH1", "")
    for cand in ([env] if env else []) + ["data/ETTh1.csv"]:
        if cand and Path(cand).exists():
            return cand
    return None


@pytest.mark.skipif(_etth1_path() is None, reason="ETTh1.csv not available")
def test_etth1_shape():
    ds = data.load_csv(_etth1_path())
    assert ds.values.shape == (17420, 7)


def write_csv(tmp_path, text, name="toy.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_three_row_csv(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2020-01-01 00:00:00,1\n2020-01-01 01:00:00,2\n2020-01-01 02:00:00,3\n")
        ds = data.load_csv(p)
        assert ds.values.tolist() == [[1.0], [2.0], [3.0]]
        assert ds.n_variables == 1

    def test_non_numeric_cell_names_row(self, tmp_path):
        rows = ["date,a,b"] + [f"t{i},1,2" for i in range(1, 5)] + ["t5,abc,2", "t6,1,2"]
        p = write_csv(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="row 5"):
            data.load_csv(p)

    def test_non_finite_cell_names_file_row_and_column(self, tmp_path):
        p = write_csv(tmp_path, "date,a,b\nt1,1,2\nt2,1,nan\nt3,1,2\n")
        with pytest.raises(ValueError, match=f"{p}: non-finite value at row 2, column 2"):
            data.load_csv(p)

    def test_non_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_bytes(b"date,a\nt1,1\nt2,\xff\n")
        with pytest.raises(ValueError, match=f"{p}: line 3 is not UTF-8"):
            data.load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path, "date,a,b\nt1,1,2\nt2,1\n")
        with pytest.raises(ValueError, match="ragged"):
            data.load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            data.load_csv(tmp_path / "nope.csv")

    def test_crlf_accepted(self, tmp_path):
        p = write_csv(tmp_path, "date,a\r\nt1,1\r\nt2,2\r\n")
        ds = data.load_csv(p)
        assert ds.values.tolist() == [[1.0], [2.0]]


def make_ds(n, n_vars=1, seed=0):
    rng = np.random.default_rng(seed)
    return data.Dataset(name="toy", values=rng.normal(size=(n, n_vars)))


class TestSplit:
    def test_60_20_20(self):
        ds = make_ds(100)
        tr, va, te = data.chronological_split(ds, data.SplitSpec(lookback=10, horizon=5))
        assert (tr.start, tr.end) == (0, 60)
        assert (va.start, va.end) == (60, 80)
        assert (te.start, te.end) == (80, 100)

    def test_70_10_20(self):
        ds = make_ds(100)
        tr, va, te = data.chronological_split(
            ds, data.SplitSpec(0.7, 0.1, 0.2, lookback=10, horizon=5)
        )
        assert (tr.end, va.end) == (70, 80)

    def test_too_short(self):
        ds = make_ds(10)
        with pytest.raises(ValueError, match="train segment"):
            data.chronological_split(ds, data.SplitSpec(lookback=20, horizon=1))

    def test_fractions_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            data.SplitSpec(0.5, 0.2, 0.2)

    def test_targets_disjoint_and_cover(self):
        ds = make_ds(137)
        segs = data.chronological_split(ds, data.SplitSpec(lookback=8, horizon=4))
        spans = [(s.start, s.end) for s in segs]
        assert spans[0][0] == 0 and spans[-1][1] == 137
        for (_, e), (s, _) in zip(spans, spans[1:]):
            assert e == s

    def test_context_borrowed_from_previous_segment(self):
        ds = make_ds(100)
        _, va, _ = data.chronological_split(ds, data.SplitSpec(lookback=10, horizon=5))
        assert va.context_pad == 10
        assert np.array_equal(va.values[:10], ds.values[50:60])


class TestFewShot:
    def test_prefix(self):
        seg = data.Segment(np.arange(1000, dtype=float)[:, None], 0, 1000)
        sub = data.few_shot_subset(seg, 0.10)
        assert len(sub) == 100
        assert np.array_equal(sub.values, seg.values[:100])

    def test_identity_at_one(self):
        seg = data.Segment(np.arange(50, dtype=float)[:, None], 0, 50)
        assert data.few_shot_subset(seg, 1.0) is seg

    def test_too_short_for_window(self):
        seg = data.Segment(np.arange(100, dtype=float)[:, None], 0, 100)
        with pytest.raises(ValueError, match="shorter"):
            data.few_shot_subset(seg, 0.05, min_window=100)

    def test_nested_prefixes(self):
        seg = data.Segment(np.arange(500, dtype=float)[:, None], 0, 500)
        for r1, r2 in [(0.05, 0.10), (0.10, 0.5), (0.3, 1.0)]:
            a = data.few_shot_subset(seg, r1)
            b = data.few_shot_subset(seg, r2)
            assert np.array_equal(a.values, b.values[: len(a)])


class TestWindows:
    @pytest.mark.parametrize(
        "n,T,H,stride,count",
        [(10, 4, 2, 1, 5), (6, 4, 2, 1, 1), (100, 10, 5, 7, 13)],
    )
    def test_count_formula(self, n, T, H, stride, count):
        seg = data.Segment(np.arange(n, dtype=float)[:, None], 0, n)
        ws = data.windows(seg, T, H, stride)
        assert len(ws) == count
        assert len(ws) == (n - T - H) // stride + 1

    def test_too_short(self):
        seg = data.Segment(np.arange(5, dtype=float)[:, None], 0, 5)
        with pytest.raises(ValueError, match="too short"):
            data.windows(seg, 4, 2)

    @pytest.mark.parametrize("norm_const", [0.0, -0.4, float("inf"), float("nan")])
    def test_norm_const_positive_and_finite(self, norm_const):
        seg = data.Segment(np.arange(6, dtype=float)[:, None], 0, 6)
        with pytest.raises(ValueError, match="norm_const"):
            data.windows(seg, 4, 2, norm_const=norm_const)

    @pytest.mark.parametrize("T,H,key", [(0, 2, "seq_len"), (-1, 2, "seq_len"),
                                         (4, 0, "pred_len"), (4, -3, "pred_len")])
    def test_length_below_one_names_the_key(self, T, H, key):
        seg = data.Segment(np.arange(6, dtype=float)[:, None], 0, 6)
        with pytest.raises(ValueError, match=f"{key} must be at least 1, got {min(T, H)}"):
            data.windows(seg, T, H)

    def test_window_offsets(self):
        seg = data.Segment(np.arange(12, dtype=float)[:, None], 0, 12)
        ws = data.windows(seg, 4, 2, stride=3)
        assert ws[1].context[0, 0] == 3.0
        assert ws[1].target[0, 0] == 7.0


class TestNormalize:
    def test_zero_mean(self):
        seg = data.Segment(np.array([1.0, 2.0, 3.0, 0.0, 0.0])[:, None], 0, 5)
        w = data.windows(seg, 3, 2)[0]
        xn = data.normalize(w)
        assert abs(xn.mean()) < 1e-6

    def test_constant_context_floored(self):
        seg = data.Segment(np.array([5.0, 5.0, 5.0, 1.0])[:, None], 0, 4)
        w = data.windows(seg, 3, 1)[0]
        assert np.all(data.normalize(w) == 0.0)

    def test_population_sigma_hand_value(self):
        # context [0, 2]: mu=1, population sigma=1 -> x' = [-0.4, 0.4]
        seg = data.Segment(np.array([0.0, 2.0, 9.0])[:, None], 0, 3)
        w = data.windows(seg, 2, 1, norm_const=0.4)[0]
        xn = data.normalize(w)
        assert np.allclose(xn[:, 0], [-0.4, 0.4], atol=1e-15)

    def test_round_trips(self):
        rng = np.random.default_rng(1)
        seg = data.Segment(rng.normal(size=(40, 3)), 0, 40)
        w = data.windows(seg, 30, 10, norm_const=0.4)[0]
        xn = data.normalize(w)
        assert np.abs(data.denormalize(xn, w) - w.context).max() < 1e-9
        yn = data.normalize_target(w)
        assert np.abs(data.denormalize(yn, w) - w.target).max() < 1e-9

    def test_denormalize_zero_gives_mean(self):
        seg = data.Segment(np.random.default_rng(2).normal(size=(20, 2)), 0, 20)
        w = data.windows(seg, 15, 5)[0]
        out = data.denormalize(np.zeros((5, 2)), w)
        assert np.allclose(out, np.tile(w.mean, (5, 1)))

    def test_denormalize_algebra(self):
        w = data.TimeSeriesWindow(
            context=np.zeros((2, 1)), target=np.zeros((1, 1)),
            mean=np.array([10.0]), std=np.array([2.0]), norm_const=0.4,
        )
        assert data.denormalize(np.array([[0.4]]), w)[0, 0] == pytest.approx(12.0, abs=1e-12)


class TestSynth:
    def test_single_sinusoid_periodic(self):
        ds = data.synth_series("sinusoid_mix", 240, 24, amplitude=1.0, noise_std=0.0, seed=4)
        x = ds.values[:, 0]
        assert np.abs(x[:-24] - x[24:]).max() < 1e-9

    def test_seed_determinism(self):
        a = data.synth_series("sinusoid_mix", 200, 24, amplitude=(1.0, 0.5), noise_std=0.2, seed=9)
        b = data.synth_series("sinusoid_mix", 200, 24, amplitude=(1.0, 0.5), noise_std=0.2, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_zero_amplitude_is_noise(self):
        ds = data.synth_series("sinusoid_mix", 10000, 24, amplitude=0.0, noise_std=0.7, seed=3)
        sd = ds.values.std()
        assert abs(sd - 0.7) / 0.7 < 0.10

    def test_length_precondition(self):
        with pytest.raises(ValueError, match="2\\*period"):
            data.synth_series("sinusoid_mix", 30, 24)

    def test_kinds(self):
        for kind in ("trend_plus_season", "noise"):
            ds = data.synth_series(kind, 100, 10, amplitude=1.0, noise_std=0.1, seed=0)
            assert ds.values.shape == (100, 1)
        with pytest.raises(ValueError, match="unknown kind"):
            data.synth_series("wavelets", 100, 10)
