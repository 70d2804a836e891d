"""Power-spectrum-slope analysis across modalities.

The radially averaged power spectrum of an image, fitted as P(f) ~ f^-alpha in
log-log space over 0.05 < f < 0.5, compresses its texture statistics into one
exponent.  Natural images sit near alpha ~ 2; rendered time series land lower;
ASCII-coded text is almost white.  The slope of a rendered series also moves
with the fold periodicity, which is the knob this analysis is usually turned
on.
"""

from pathlib import Path

import numpy as np

from foldcast import spectral
from foldcast.data import synth_series
from foldcast.rendering import RenderSpec

print("== estimator oracle: synthetic 1/f^alpha images ==")
for alpha in (1.0, 2.0, 3.0):
    fits = [spectral.pss_of_image(spectral.synth_power_law_image(alpha, 224, 224, seed=s))
            for s in range(5)]
    mean = np.mean([f.alpha for f in fits])
    print(f"  target alpha {alpha:.1f}: measured {mean:.4f} (R2 {fits[0].r_squared:.6f})")

print("\n== text is nearly white ==")
text = __doc__ + Path(__file__).read_text(encoding="utf-8")
img = spectral.ascii_text_to_image(text)
print(f"  ASCII-rendered text: alpha = {spectral.pss_of_image(img).alpha:.3f}")

print("\n== rendered hourly-like series, periodicity sweep ==")
ds = synth_series("sinusoid_mix", 20000, 24, amplitude=1.0, noise_std=2.0, seed=3)
for P in (24, 32, 48):
    spec = RenderSpec(periodicity=P, image_height=224, image_width=224, align_const=0.4)
    stats = spectral.pss_of_series(ds, spec, n_samples=50, T=1440, seed=11)
    print(f"  periodicity {P:2d}: alpha = {stats.mean:.3f} +- {stats.std:.3f}")
print("aligned folding (P = data period) keeps the spectrum shallow;")
print("misaligned folding smears the cycle into diagonal structure and steepens it")
