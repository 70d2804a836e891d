"""Dataset ingestion, chronological splitting, sliding windows, instance normalization.

CSV layout: UTF-8, a header row, a first column named ``date``, remaining
columns numeric.  The date column must be present but is not kept: a Dataset
holds only the values, parsed as float64.  Splits are chronological;
val/test segments borrow `lookback` steps of context from the preceding segment
so that every target point in a segment can be forecast.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class Dataset:
    """A named multivariate series: `values` [T_total, N], float64, finite."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got ndim={v.ndim}")
        if v.shape[0] < 2:
            raise ValueError("dataset needs at least 2 time steps")
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite value at row {bad[0]}, column {bad[1]}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    lookback: int = 96
    horizon: int = 96

    def __post_init__(self):
        for key in ("train_frac", "val_frac", "test_frac"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {getattr(self, key)}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"train_frac + val_frac + test_frac sum to {total}, expected 1")
        if self.lookback < 1 or self.horizon < 1:
            raise ValueError(
                f"lookback (seq_len) and horizon (pred_len) must be at least 1, "
                f"got {self.lookback} and {self.horizon}"
            )


@dataclass(frozen=True)
class Segment:
    """Contiguous slice of a dataset, possibly extended backward for context.

    `start`/`end` are the segment's own (target) index range in the source
    series; `values` additionally contains `context_pad` leading steps borrowed
    from the preceding segment, used only to build windows whose targets lie
    inside [start, end).
    """

    values: np.ndarray
    start: int
    end: int
    context_pad: int = 0

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TimeSeriesWindow:
    """One sliding window: raw context/target plus per-variable context statistics."""

    context: np.ndarray  # [T, N]
    target: np.ndarray  # [H, N]
    mean: np.ndarray  # [N]
    std: np.ndarray  # [N], population convention, floored at SIGMA_FLOOR
    norm_const: float = 1.0


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file; otherwise a ValueError naming the file and
    the line of the first byte that does not decode."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: line {line} is not UTF-8") from None


def load_csv(path, name: str | None = None) -> Dataset:
    """Parse an ETT-format CSV into a Dataset.

    The first header column must be a date column; it is required but not
    kept.  Every other column is numeric.  A malformed file raises ValueError
    naming the file and the line, or the row and column: rows count the lines
    after the header from 1, columns count from the date column at 0.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    fh = io.StringIO(read_utf8(path), newline="")
    header_line = fh.readline()
    if not header_line:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in header_line.rstrip("\r\n").split(",")]
    if len(header) < 2:
        raise ValueError(f"{path}: need a date column plus at least one value column")
    n_cols = len(header)
    rows: list[list[float]] = []
    row_numbers: list[int] = []
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValueError(
                f"{path}: ragged row {lineno} has {len(cells)} fields, expected {n_cols}"
            )
        parsed = []
        for col, cell in enumerate(cells[1:], start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} at row {lineno}, column {col}"
                ) from None
        rows.append(parsed)
        row_numbers.append(lineno)
    values = np.asarray(rows, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 data rows")
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: non-finite value at row {row_numbers[row]}, column {col + 1}")
    return Dataset(name=name or path.stem, values=values)


def chronological_split(ds: Dataset, spec: SplitSpec) -> tuple[Segment, Segment, Segment]:
    """Split a dataset into contiguous train/val/test segments in time order.

    Val and test are extended backward by `spec.lookback` steps (window
    construction only); their target ranges stay disjoint from train.
    """
    n = ds.n_steps
    end_train = int(round(spec.train_frac * n))
    end_val = int(round((spec.train_frac + spec.val_frac) * n))
    bounds = [(0, end_train), (end_train, end_val), (end_val, n)]
    segments = []
    for i, (start, end) in enumerate(bounds):
        pad = 0 if i == 0 else min(spec.lookback, start)
        seg = Segment(
            values=ds.values[start - pad : end],
            start=start,
            end=end,
            context_pad=pad,
        )
        if len(seg) < spec.lookback + spec.horizon:
            label = ("train", "val", "test")[i]
            raise ValueError(
                f"{label} segment has {len(seg)} steps, "
                f"needs at least lookback+horizon = {spec.lookback + spec.horizon}"
            )
        segments.append(seg)
    return tuple(segments)


def few_shot_subset(segment: Segment, ratio: float, min_window: int | None = None) -> Segment:
    """Earliest `ratio` fraction of a training segment (prefix, deterministic)."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio (few_shot_ratio) must lie in (0, 1], got {ratio}")
    if ratio == 1.0:
        return segment
    keep = int(math.floor(ratio * len(segment)))
    if min_window is not None and keep < min_window:
        raise ValueError(
            f"few-shot subset of {keep} steps is shorter than one window ({min_window})"
        )
    if keep < 1:
        raise ValueError("few-shot subset is empty")
    return Segment(
        values=segment.values[:keep],
        start=segment.start,
        end=segment.start + keep - segment.context_pad,
        context_pad=segment.context_pad,
    )


def windows(segment: Segment, T: int, H: int, stride: int = 1, norm_const: float = 1.0):
    """Sliding windows over a segment; count = floor((len-T-H)/stride) + 1.

    Normalization statistics (mean, population std) are computed per window per
    variable over the context only, for every window at once by
    `_window_stats`; each window's `mean` and `std` are rows of its arrays.
    """
    if T < 1:
        raise ValueError(f"context length seq_len must be at least 1, got {T}")
    if H < 1:
        raise ValueError(f"horizon pred_len must be at least 1, got {H}")
    vals = segment.values
    n = vals.shape[0]
    if n < T + H:
        raise ValueError(f"segment of {n} steps too short for T+H = {T + H}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not 0.0 < norm_const < math.inf:
        raise ValueError(f"norm_const must be positive and finite, got {norm_const}")
    count = (n - T - H) // stride + 1
    mean, std = _window_stats(vals[: (count - 1) * stride + T], T, stride)
    return [
        TimeSeriesWindow(
            context=vals[s : s + T], target=vals[s + T : s + T + H], mean=mean[k],
            std=std[k], norm_const=norm_const,
        )
        for k, s in enumerate(range(0, count * stride, stride))
    ]


# values per chunk of _window_stats' [windows, T, N] temporaries: 2 MiB
_STATS_CHUNK = 1 << 18


def _window_stats(vals: np.ndarray, T: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std, floored at SIGMA_FLOOR, of the contexts
    vals[s : s + T] for s = 0, stride, ...: two [count, N] arrays.

    One pass over a sliding-window view, in chunks of at most `_STATS_CHUNK`
    values.  Each context is a [T, N] view with the strides of the window's
    own slice, and is reduced over T as `np.mean` and `np.std` reduce it
    (sum, divide; centre, square, sum, divide, sqrt), so the statistics are
    bitwise theirs."""
    ctx = np.lib.stride_tricks.sliding_window_view(vals, T, axis=0)[::stride].swapaxes(1, 2)
    mean = np.empty(ctx.shape[::2])
    var = np.empty(ctx.shape[::2])
    step = max(1, _STATS_CHUNK // (T * ctx.shape[2]))
    for a in range(0, ctx.shape[0], step):
        c, m, v = ctx[a : a + step], mean[a : a + step], var[a : a + step]
        np.add.reduce(c, axis=1, out=m)
        m /= T
        d = c - m[:, None, :]
        np.multiply(d, d, out=d)
        np.add.reduce(d, axis=1, out=v)
        v /= T
    return mean, np.maximum(np.sqrt(var), SIGMA_FLOOR)


def normalize(w: TimeSeriesWindow) -> np.ndarray:
    """Per-variable z-score of the context, scaled by the window's norm_const."""
    return (w.context - w.mean) / w.std * w.norm_const


def normalize_target(w: TimeSeriesWindow) -> np.ndarray:
    """Target mapped through the context statistics (training-loss space)."""
    return (w.target - w.mean) / w.std * w.norm_const


def denormalize(y_norm: np.ndarray, w: TimeSeriesWindow) -> np.ndarray:
    """Invert `normalize`: y = y'/norm_const * std + mean."""
    return y_norm / w.norm_const * w.std + w.mean


# Component period multipliers for the sinusoid mix; the first entry is the
# nominal period, later entries add a slower and a faster cycle.
_MIX_MULTIPLIERS = (1.0, 3.0, 0.5)


def synth_series(
    kind: str,
    length: int,
    period: int,
    amplitude=1.0,
    noise_std: float = 0.0,
    seed: int = 0,
    name: str | None = None,
) -> Dataset:
    """Deterministic synthetic series.

    kind = "sinusoid_mix": sum of sinusoids with random phases.  A scalar
    `amplitude` gives a single sinusoid at `period`; a sequence of amplitudes
    assigns one component per entry at periods period * (1, 3, 0.5, ...).
    kind = "trend_plus_season": linear ramp (0 -> amplitude over the series)
    plus a sinusoid at `period`.
    kind = "noise": white Gaussian noise only.
    """
    if period < 1:
        raise ValueError(f"period (synth_period) must be at least 1, got {period}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std (synth_noise_std) must be >= 0 and finite, got {noise_std}")
    if length < 2 * period:
        raise ValueError(f"length (synth_length) {length} must be at least 2*period = {2 * period}")
    amps = np.atleast_1d(np.asarray(amplitude, dtype=np.float64))
    if not np.isfinite(amps).all():
        raise ValueError(f"amplitude (synth_amplitude) must be finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    if kind == "sinusoid_mix":
        x = np.zeros(length)
        for i, a in enumerate(amps):
            p = period * _MIX_MULTIPLIERS[i % len(_MIX_MULTIPLIERS)]
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += a * np.sin(2.0 * np.pi * t / p + phase)
    elif kind == "trend_plus_season":
        a = float(amps[0])
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x = a * t / max(length - 1, 1) + a * np.sin(2.0 * np.pi * t / period + phase)
    elif kind == "noise":
        x = np.zeros(length)
    else:
        raise ValueError(f"unknown kind (synth_kind) {kind!r}: "
                         "expected sinusoid_mix, trend_plus_season or noise")
    if noise_std > 0:
        x = x + rng.normal(0.0, noise_std, size=length)
    return Dataset(name=name or f"synth_{kind}", values=x[:, None])
