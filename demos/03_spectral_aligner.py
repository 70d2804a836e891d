"""The spectral magnitude aligner: reshape the magnitude, keep the phase.

The aligner enhances only |F| through a conv stack and recombines with the
original phase, so spatial structure (which lives in the phase) survives while
the spectrum's envelope moves.  Trained here to amplify low radial
frequencies, it raises the measured power-spectrum slope of the blended image;
the residual weight keeps the change gentle.
"""

import numpy as np

from foldcast import sma, spectral
from foldcast.forecaster import AdamState, TrainConfig, adam_step
from foldcast.sma import SmaConfig

rng = np.random.default_rng(0)
img = spectral.synth_power_law_image(1.5, 64, 64, seed=4)

print("== identity and phase preservation at initialization ==")
p = sma.init_enhancer(np.random.default_rng(5), channels=16)  # the `sma.*` tensors by name
out, _ = sma.sma_forward(img, p, SmaConfig(lam=0.0))
print(f"lam=0: output is the input, bit-exact: {np.array_equal(out, img)}")
out, _ = sma.sma_forward(img, p, SmaConfig(lam=1.0))
F, G = sma.rfft2(img), sma.rfft2(out)
delta = np.abs(np.angle(G * np.conj(F)))  # pi where the enhanced magnitude is negative
live = np.abs(G) > 1e-9 * np.abs(G).max()
print(f"lam=1: max phase deviation of the output's spectrum from the input's, up to pi: "
      f"{np.minimum(delta, np.pi - delta)[live].max():.2e} rad")

print("\n== train the enhancer to amplify low radial frequencies ==")
A0 = np.abs(F)
H, W = img.shape
fu = np.fft.fftfreq(H)[:, None] * H
fv = np.arange(W // 2 + 1)[None, :]
r = np.sqrt(fu * fu + fv * fv)
target = A0 * (1.0 + 9.0 * np.exp(-((r / 6.0) ** 2)))

names = [k for k in p if k not in sma.BUFFERS]  # the running statistics do not train
state = AdamState.init(p, names)
tcfg = TrainConfig(lr=3e-3, batch_size=1, epochs=1)
for step in range(200):
    A_enh, cache = sma.enhancer_forward(A0, p)
    grads = {k: np.zeros_like(p[k]) for k in names}
    sma.enhancer_backward(A_enh - target, cache, p, grads)  # adds under the names it read
    adam_step(p, grads, state, tcfg)
    if step % 50 == 0:
        print(f"  step {step:3d}: magnitude loss {0.5 * np.sum((A_enh - target) ** 2):.3e}")

cfg = SmaConfig(lam=0.05)
blended, _ = sma.sma_forward(img, p, cfg)
before = spectral.pss_of_image(img).alpha
after = spectral.pss_of_image(blended).alpha
print(f"\nmeasured slope: original {before:.3f} -> aligned {after:.3f} "
      f"(residual weight {cfg.lam})")
print(f"max pixel change: {np.abs(blended - img).max():.4f} "
      f"(bounded by lam * max |I_enhanced - I|)")
