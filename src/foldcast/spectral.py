"""Power-spectrum-slope (PSS) analysis.

Pipeline: 2D DFT -> power spectrum -> radial averaging over integer annuli
-> ordinary least squares fit of log P against log f inside a frequency band
f_lo < f < f_hi.  The slope of the fit is -alpha for the power-law model
P(f) ~ f^-alpha.  Includes a synthetic 1/f^alpha image generator used as the
estimator's oracle, plus readers that turn text and PGM images into
analyzable arrays.

The annuli are centred on the zero frequency at (H//2, W//2).  The spectrum
of a real image is conjugate-symmetric, so each cell of the real FFT's half
plane stands for one or two pixels of the centred plane, both in the same
annulus.  A fit reads only the annuli inside its band, so `pss_of_image` and
`pss_of_series` take the spectrum on the DFT rows and columns that the band
touches, and sum each annulus over its in-band cells, weighted by the pixels
each stands for (`fit_band`).  `pss_of_series` takes those rows and columns of
a render's DFT from the window's period grid, between the two tables of
`_band_dft_tables`, so it never draws the image.  The synthetic oracle sets
each frequency's magnitude from the same half-plane annulus table that
`fit_band` bins by.  `power_centered` and `radial_average` give the whole
centred plane and all of its annuli.  Every table that depends only on the
image's shape and the band is built once and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import pgm
from .data import Dataset
from .rendering import RenderSpec, _fold, _interp_matrix, _read_only, resize_bilinear

DEFAULT_F_LO = 0.05
DEFAULT_F_HI = 0.5


@dataclass(frozen=True)
class RadialSpectrum:
    freqs: np.ndarray  # f_k = k / r_max, strictly increasing
    power: np.ndarray  # mean power per annulus
    counts: np.ndarray  # pixels per annulus; over all the plane's annuli they sum to H*W
    r_max: float


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    intercept: float
    r_squared: float
    f_lo: float
    f_hi: float
    n_points: int


@dataclass(frozen=True)
class ModalityStats:
    alphas: np.ndarray
    mean: float
    std: float  # sample convention (N-1)
    n: int


def power_centered(image: np.ndarray) -> np.ndarray:
    """Squared magnitude of the unnormalized 2-D DFT [H, W], zero frequency
    shifted to the center (H//2, W//2)."""
    half = np.fft.rfft2(image)
    power = half.real**2 + half.imag**2
    return power.ravel()[_centered_index(half.shape[0], image.shape[-1])]


@lru_cache(maxsize=8)
def _centered_index(H: int, W: int) -> np.ndarray:
    """Flat index into the [H, W//2 + 1] half plane for each pixel of the
    centered [H, W] plane.  A frequency (fu, fv) and its point mirror
    (-fu, -fv) have equal power; both read the one of the pair that lies in
    the half plane, the one of smaller row index when both do, so the plane
    is exactly point-symmetric."""
    fu = np.arange(H)[:, None] - H // 2
    fv = np.arange(W)[None, :] - W // 2
    row, col = fu % H, fv % W
    mrow, mcol = -fu % H, -fv % W
    mirror = (col > W // 2) | ((mcol == col) & (mrow < row))
    return _read_only(np.where(mirror, mrow * (W // 2 + 1) + mcol, row * (W // 2 + 1) + col))


@lru_cache(maxsize=8)
def _annuli(H: int, W: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Radial table of the centered [H, W] plane: each pixel's annulus
    floor(r) as a flat index, with r measured from the zero frequency at
    (H//2, W//2); the nonempty annuli; their frequencies k / r_max; their
    pixel counts; and r_max."""
    u = np.arange(H)[:, None] - H // 2
    v = np.arange(W)[None, :] - W // 2
    bins = np.floor(np.sqrt(u * u + v * v)).astype(np.intp).ravel()
    counts = np.bincount(bins)
    k = np.nonzero(counts)[0]
    r_max = float(np.sqrt((H / 2) ** 2 + (W / 2) ** 2))
    return (*map(_read_only, (bins, k, k / r_max, counts[k])), r_max)


@dataclass(frozen=True)
class FitBand:
    """The annuli of an [H, W] image with f_lo < k / r_max < f_hi, as cells of
    its DFT's half plane [H, W//2 + 1]."""

    rows: np.ndarray  # the DFT rows the band touches
    cols: np.ndarray  # the half-plane columns it touches
    cells: np.ndarray  # per (cell, annulus) pair: flat index into the [rows, cols] cut
    weights: np.ndarray  # per pair: the centred pixels that read the cell
    starts: np.ndarray  # each annulus' first pair; pairs are sorted by annulus
    freqs: np.ndarray  # each annulus' k / r_max, strictly increasing
    counts: np.ndarray  # each annulus' pixels
    r_max: float


def _half_plane_annuli(H: int, W: int) -> tuple[np.ndarray, float]:
    """The annulus of each cell (a, b) of an [H, W] image's DFT half plane
    [H, W//2 + 1], floor(sqrt(u^2 + b^2)) with |u| = min(a, H - a): the
    annulus of both centred pixels the cell stands for.  Also r_max."""
    a = np.arange(H)[:, None]
    b = np.arange(W // 2 + 1)[None, :]
    u = np.minimum(a, H - a)
    k = np.floor(np.sqrt(u * u + b * b)).astype(np.intp)
    return k, float(np.sqrt((H / 2) ** 2 + (W / 2) ** 2))


@lru_cache(maxsize=8)
def fit_band(H: int, W: int, f_lo: float, f_hi: float) -> FitBand:
    """The FitBand of an [H, W] image, cached read-only.

    As `_centered_index` gathers them, the centred pixels of a half-plane cell
    (a, b) and of its point mirror (-a, -b) both read that cell, except in a
    column that is its own mirror (b = 0, or W/2 for even W): there both
    pixels read the cell of the smaller row.  A pixel and its mirror lie in
    the same annulus (`_half_plane_annuli`).
    """
    a = np.arange(H)[:, None]
    b = np.arange(W // 2 + 1)[None, :]
    ma = -a % H
    weight = np.where(-b % W == b, (a <= ma).astype(np.intp) + (a < ma), 2)
    k, r_max = _half_plane_annuli(H, W)
    f = k / r_max
    keep = (weight > 0) & (f > f_lo) & (f < f_hi)
    rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
    cut = np.ix_(rows, cols)
    cells = np.flatnonzero(keep[cut])
    k, weight = k[cut].ravel()[cells], weight[cut].ravel()[cells]
    order = np.argsort(k, kind="stable")
    cells, k, weight = cells[order], k[order], weight[order]
    starts = np.flatnonzero(np.diff(k, prepend=-1))
    return FitBand(
        *map(_read_only, (rows, cols, cells, weight.astype(np.float64), starts,
                          k[starts] / r_max, np.add.reduceat(weight, starts))),
        r_max=r_max,
    )


@lru_cache(maxsize=16)
def _band_dft_tables(
    P: int, H: int, F: int, w_vis: int, W: int, f_lo: float, f_hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two tables that give a render's DFT on the rows and columns of
    fit_band(H, W, f_lo, f_hi) from its [P, F] period grid G as rows @ G @ cols;
    cached read-only.

    A render [H, W] is [R_h G R_w^T | 0], with R_h = _interp_matrix(P, H) and
    R_w = _interp_matrix(F, w_vis), so its half-plane DFT is (F_H R_h) G (E R_w)^T,
    F_H the H-point DFT and E the first w_vis rows of the W-point real DFT.  The
    tables are the band's rows of F_H R_h [rows, P] and its columns of
    (E R_w)^T [F, cols].
    """
    band = fit_band(H, W, f_lo, f_hi)
    rows = np.fft.fft(_interp_matrix(P, H), axis=0)[band.rows]
    cols = np.fft.rfft(_interp_matrix(F, w_vis), n=W, axis=0).T[:, band.cols]
    return _read_only(rows), _read_only(np.ascontiguousarray(cols))


def _band_spectrum(dft: np.ndarray, band: FitBand) -> RadialSpectrum:
    """The band's annuli from the DFT on its rows and columns."""
    d = dft.ravel()[band.cells]
    sums = np.add.reduceat((d.real**2 + d.imag**2) * band.weights, band.starts)
    return RadialSpectrum(freqs=band.freqs, power=sums / band.counts, counts=band.counts,
                          r_max=band.r_max)


def radial_average(power: np.ndarray) -> RadialSpectrum:
    """Mean of a centered power spectrum per integer radial bin, bin(r) =
    floor(r) with r measured from (H//2, W//2); f_k = k / r_max.  `freqs` and
    `counts` are the shape's cached read-only arrays."""
    bins, k, freqs, counts, r_max = _annuli(*power.shape)
    sums = np.bincount(bins, weights=power.ravel())
    return RadialSpectrum(freqs=freqs, power=sums[k] / counts, counts=counts, r_max=r_max)


def fit_power_law(
    rs: RadialSpectrum, f_lo: float = DEFAULT_F_LO, f_hi: float = DEFAULT_F_HI
) -> PowerLawFit:
    """OLS fit of log P against log f on bins with f_lo < f < f_hi.

    Zero/negative-power bins inside the mask are dropped; fewer than 2 usable
    points is an error.  Returns alpha = -slope, the intercept, and R^2.
    """
    mask = (rs.freqs > f_lo) & (rs.freqs < f_hi) & (rs.power > 0)
    n = int(mask.sum())
    if n < 2:
        raise ValueError(f"power-law fit needs >= 2 usable bins in ({f_lo}, {f_hi}), got {n}")
    x = np.log(rs.freqs[mask])
    y = np.log(rs.power[mask])
    xm = x.mean()
    ym = y.mean()
    sxx = np.sum((x - xm) ** 2)
    sxy = np.sum((x - xm) * (y - ym))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    # constant data fits a zero-slope line exactly; guard the 0/0 against
    # float residue of the mean subtraction
    degenerate = 1e-20 * max(1.0, float(np.sum(y * y)))
    if ss_tot <= degenerate:
        r2 = 1.0 if ss_res <= degenerate else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return PowerLawFit(
        alpha=float(-slope),
        intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        f_lo=f_lo,
        f_hi=f_hi,
        n_points=n,
    )


def pss_of_image(image: np.ndarray, f_lo: float = DEFAULT_F_LO, f_hi: float = DEFAULT_F_HI) -> PowerLawFit:
    """Full pipeline on one [H, W] image: the spectrum on the band's rows and
    columns -> its annuli -> fit."""
    if np.ndim(image) != 2:
        raise ValueError(f"pss_of_image needs a 2-D image, got shape {np.shape(image)}")
    band = fit_band(*image.shape, f_lo, f_hi)
    dft = np.fft.rfft2(image)[np.ix_(band.rows, band.cols)]
    return fit_power_law(_band_spectrum(dft, band), f_lo, f_hi)


def synth_power_law_image(alpha: float, H: int, W: int, seed: int = 0) -> np.ndarray:
    """Random real image whose radially binned power spectrum is exactly f^-alpha.

    The magnitude at each frequency is set from its annulus index (the
    estimator's own `_half_plane_annuli`, DC set to 0); phases come from the FFT
    of white noise, which guarantees the conjugate symmetry needed for a real
    inverse transform.  Both transforms are real FFTs over the half plane of
    non-negative column frequencies.  A non-finite alpha, or one whose power
    spectrum overflows at this size, is an error.
    """
    if H < 8 or W < 8:
        raise ValueError("synth_power_law_image needs H, W >= 8")
    if not np.isfinite(alpha):
        raise ValueError(f"synth_power_law_image needs a finite alpha, got {alpha}")
    rng = np.random.default_rng(seed)
    k, r_max = _half_plane_annuli(H, W)
    with np.errstate(divide="ignore", over="ignore"):
        magnitude = np.where(k > 0, (k / r_max) ** (-alpha / 2.0), 0.0)
        if not np.isfinite(magnitude * magnitude).all():
            raise ValueError(f"the 1/f^alpha power spectrum overflows at {H}x{W} for alpha {alpha}")
    noise_fft = np.fft.rfft2(rng.normal(size=(H, W)))
    mod = np.abs(noise_fft)
    phase = np.where(mod > 0, noise_fft / np.where(mod > 0, mod, 1.0), 1.0)
    return np.fft.irfft2(magnitude * phase, s=(H, W))


def pss_of_series(
    ds: Dataset,
    spec: RenderSpec,
    n_samples: int,
    T: int,
    seed: int = 0,
    horizon: int = 96,
    f_lo: float = DEFAULT_F_LO,
    f_hi: float = DEFAULT_F_HI,
    workers: int = 1,
) -> ModalityStats:
    """PSS distribution over random single-variable windows of a dataset.

    Each sample draws a (start, variable) pair, z-scores the window (a constant
    one is an error), takes the DFT of the render the forecaster sees (visible
    region at its layout width plus the zero-valued masked region) on the fit
    band's rows and columns from the period grid without drawing it, and fits
    the power law.  Analyzing the masked composite keeps the data's broadband
    content inside the fit range; resizing the visible grid alone to the full
    image would push everything above the bilinear-interpolation rolloff and
    saturate alpha for any input.
    """
    n_steps, n_vars = ds.values.shape
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if n_steps < T:
        raise ValueError(f"dataset of {n_steps} steps too short for windows of T={T}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n_steps - T + 1, size=n_samples)
    variables = rng.integers(0, n_vars, size=n_samples)
    P, H, W = spec.periodicity, spec.image_height, spec.image_width
    band = fit_band(H, W, f_lo, f_hi)

    def one(i: int) -> float:
        x = ds.values[starts[i] : starts[i] + T, variables[i]]
        if x.min() == x.max():
            raise ValueError(f"window at row {starts[i]}, variable {variables[i]} is constant: no PSS")
        xn = (x - x.mean()) / max(float(x.std()), 1e-8)
        _, grid, w_vis = _fold(xn, horizon, spec)
        rows, cols = _band_dft_tables(P, H, grid.shape[-1], w_vis, W, f_lo, f_hi)
        # the right product first, as one real GEMM over the float pairs of cols
        dft = rows @ (grid @ cols.view(np.float64)).view(np.complex128)
        return fit_power_law(_band_spectrum(dft, band), f_lo, f_hi).alpha

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            alphas = np.array(list(pool.map(one, range(n_samples))))
    else:
        alphas = np.array([one(i) for i in range(n_samples)])
    return summarize_alphas(alphas)


def summarize_alphas(alphas: np.ndarray) -> ModalityStats:
    alphas = np.asarray(alphas, dtype=np.float64)
    n = alphas.shape[0]
    std = float(alphas.std(ddof=1)) if n >= 2 else 0.0
    return ModalityStats(alphas=alphas, mean=float(alphas.mean()), std=std, n=n)


def ascii_text_to_image(text: str, H: int = 224, W: int = 224) -> np.ndarray:
    """Map characters to (code-32)/94 in [0, 1], tile/truncate to H*W, reshape."""
    if not text:
        raise ValueError("text must be non-empty")
    codes = np.frombuffer(text.encode("utf-8", errors="replace"), dtype=np.uint8)
    codes = np.clip(codes.astype(np.float64), 32.0, 126.0)
    vals = (codes - 32.0) / 94.0
    need = H * W
    reps = -(-need // vals.shape[0])
    return np.tile(vals, reps)[:need].reshape(H, W)


def load_grayscale_image(path, H: int = 224, W: int = 224) -> np.ndarray:
    """Read a PGM, bilinear-resize to [H, W], z-score to zero mean/unit variance."""
    img = pgm.read_pgm(path)
    img = resize_bilinear(img, H, W)
    sd = max(float(img.std()), 1e-8)
    return (img - img.mean()) / sd
