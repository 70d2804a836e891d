"""Time-series forecasting through a masked-autoencoder vision backbone.

Normalized windows are folded period-by-period into grayscale images; a
spectral branch aligns their Fourier magnitude statistics toward natural-image
spectra while a structural branch re-injects temporal order through sinusoidal
grounding and low-rank attention adapters.  Branch forecasts are blended by a
learnable clamped scalar.  Includes the full power-spectrum-slope analysis
pipeline and finite-difference verification of every hand-derived gradient.
"""

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
