"""Structural adapters and branch fusion.

The grounding adapter tags each patch embedding with a sinusoidal code of its
flattened grid index (its place in the original 1-D order) behind a sigmoid
gate; low-rank factors adapt the attention projections with B = 0 so the
adapted model starts exactly at the frozen base; a clamped scalar blends the
two branch forecasts.
"""

import numpy as np

from foldcast import adapter
from foldcast.forecaster import clamp_beta, fuse

rng = np.random.default_rng(0)
D, L = 64, 16

print("== sinusoidal grounding ==")
table = adapter.sinusoid_table(L, D)
print(f"table [{L} x {D}], entries in [{table.min():.1f}, {table.max():.1f}]")
print(f"row 0 starts {table[0, :4]}; row 1 starts [sin(1), cos(1), ...] = {table[1, :2]}")

tga = adapter.init_tga(rng, D)  # {"tga.W_proj", "tga.w_fusion"}
X = rng.normal(size=(L, D))
out, cache = adapter.tga_forward(X, tga, table)
print(f"gate sigmoid(w=0) = {cache['g']}; injected energy {np.abs(out - X).max():.3f}")
tga["tga.w_fusion"][0] = -40.0
out, _ = adapter.tga_forward(X, tga, table)
print(f"gate closed (w=-40): max |out - X| = {np.abs(out - X).max():.2e}")

print("\n== low-rank adaptation ==")
lora = adapter.init_lora(rng, D, rank=4, e_layers=1)  # lora.enc0.<q|k|v>.<A|B>
A, B = lora["lora.enc0.q.A"], lora["lora.enc0.q.B"]
scale = 16.0 / 4  # alpha / r
W = rng.normal(size=(D, D))
print(f"rank 4, alpha 16 -> scale {scale}; B starts zero, so W' == W: "
      f"{np.array_equal(adapter.lora_apply(W, A, B, scale), W)}")
B = rng.normal(size=B.shape)
sv = np.linalg.svd(adapter.lora_apply(W, A, B, scale) - W, compute_uv=False)
print(f"after training B: rank(W' - W) = {int((sv > 1e-10).sum())} <= 4")

print("\n== fusion ==")
y_st = rng.normal(size=(8, 1))
y_sp = rng.normal(size=(8, 1))
for raw in (-0.2, 0.37, 1.5):
    b = clamp_beta(raw)
    yhat = fuse(y_st, y_sp, b)
    which = {0.0: "spectral only", 1.0: "structural only"}.get(b, "blend")
    print(f"beta raw {raw:+.2f} -> clamped {b:.2f} ({which})")
