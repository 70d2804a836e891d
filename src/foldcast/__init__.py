"""Time-series forecasting through a masked-autoencoder vision backbone.

Normalized windows are folded period-by-period into grayscale images; a
spectral branch aligns their Fourier magnitude statistics toward natural-image
spectra while a structural branch re-injects temporal order through sinusoidal
grounding and low-rank attention adapters.  Branch forecasts are blended by a
learnable clamped scalar.  Includes the full power-spectrum-slope analysis
pipeline and finite-difference verification of every hand-derived gradient.

Importing the package sets three glibc malloc parameters for the process
(`_keep_heap`).
"""

import ctypes
import platform

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_heap() -> None:
    """On glibc, keep freed heap pages in the process: one arena for every
    thread, arrays below 4 MiB from the heap (numpy asks for huge pages from
    4 MiB up), and no trim until 64 MiB lie free at the heap's top.  A
    training step then reuses the pages the step before it freed instead of
    faulting them in again.  README, "Process-wide heap settings", gives the
    reasons for each value."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_heap()

from .backbone import BackboneConfig
from .data import Dataset, SplitSpec, TimeSeriesWindow, load_csv, synth_series
from .forecaster import ForecastModel, ModelConfig, TrainConfig, evaluate, gradcheck, train
from .rendering import RenderSpec, RenderedImage, render
from .sma import SmaConfig
from .spectral import pss_of_image, pss_of_series, synth_power_law_image

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "Dataset",
    "ForecastModel",
    "ModelConfig",
    "RenderSpec",
    "RenderedImage",
    "SmaConfig",
    "SplitSpec",
    "TimeSeriesWindow",
    "TrainConfig",
    "evaluate",
    "gradcheck",
    "load_csv",
    "pss_of_image",
    "pss_of_series",
    "render",
    "synth_power_law_image",
    "synth_series",
    "train",
    "__version__",
]
