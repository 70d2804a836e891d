"""Correctness checks made apart from the program.

Each check compares the program's output with a computation of its own or
with a property the method must have, never with a stored copy of an earlier
output.  Every function returns ``(ok, detail)`` so that the self-test can
show each one failing on a corrupted output.
"""

from __future__ import annotations

import numpy as np


def directional_derivative(loss_and_grads, params, names, rng, h=1e-6, bound=1e-5):
    """<grad L, d> from the analytic gradients against the central difference
    (L(theta + h d) - L(theta - h d)) / 2h along a random unit direction d.

    `loss_and_grads()` returns ``(loss, grads)`` for the current parameters
    in eval mode; `params` maps names to the model's live arrays.
    """
    loss0, grads = loss_and_grads()
    d = {n: rng.standard_normal(params[n].shape) for n in names}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in d.values()))
    d = {n: v / norm for n, v in d.items()}
    analytic = sum(float(np.sum(grads[n] * d[n])) for n in names)
    saved = {n: params[n].copy() for n in names}
    try:
        for n in names:
            params[n][...] = saved[n] + h * d[n]
        lp, _ = loss_and_grads()
        for n in names:
            params[n][...] = saved[n] - h * d[n]
        lm, _ = loss_and_grads()
    finally:
        for n in names:
            params[n][...] = saved[n]
    numeric = (lp - lm) / (2.0 * h)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    ok = bool(np.isfinite(loss0) and rel < bound)
    return ok, f"directional derivative rel err {rel:.2e} (bound {bound:.0e})"


def all_finite(values, label):
    values = [float(v) for v in values]
    ok = bool(values) and all(np.isfinite(v) for v in values)
    return ok, f"{label}: {len(values)} values, all finite: {ok}"


def improves(after, before, label):
    ok = bool(np.isfinite(after) and after < before)
    return ok, f"{label}: {after:.6g} after vs {before:.6g} before"


def forecast_shape(pred, H, N):
    pred = np.asarray(pred)
    ok = pred.shape == (H, N) and bool(np.all(np.isfinite(pred)))
    return ok, f"forecast shape {pred.shape} (want {(H, N)}), finite"


def frozen_unchanged(before: dict, after: dict):
    """Every base weight is bitwise equal to its value before fine-tuning."""
    moved = sorted(n for n in before if not np.array_equal(before[n], after[n]))
    return not moved, f"{len(before)} base tensors, moved: {moved[:3]}"


def any_moved(before: dict, after: dict, label):
    moved = [n for n in before if not np.array_equal(before[n], after[n])]
    return bool(moved), f"{label}: {len(moved)} of {len(before)} moved"


def bitwise_equal(a, b, label):
    ok = np.asarray(a).shape == np.asarray(b).shape and np.array_equal(a, b)
    return bool(ok), f"{label}: bitwise equal {bool(ok)}"


def close_rel(got, want, bound, label):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False, f"{label}: shape {got.shape} != {want.shape}"
    scale = max(float(np.max(np.abs(want))), 1e-300)
    rel = float(np.max(np.abs(got - want))) / scale
    return rel <= bound, f"{label}: max rel err {rel:.2e} (bound {bound:.0e})"


def alpha_recovered(alphas: dict, tol=0.05):
    """Mean estimated alpha of synthetic 1/f^alpha images lies within tol."""
    errs = {a: abs(float(np.mean(v)) - a) for a, v in alphas.items()}
    worst = max(errs.values())
    return worst <= tol, f"oracle |mean alpha - alpha| max {worst:.2e} (tol {tol})"
