"""Minimal PGM (P2/P5) reading and 16-bit P5 writing.

Rendered images are stored as P5, maxval 65535, big-endian 16-bit samples after
an affine map of the image's [min, max] onto [0, 65535]; the affine endpoints
are recorded in a sidecar text file so the mapping is exactly invertible.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm16(path, image: np.ndarray) -> None:
    """Write a float image as 16-bit binary PGM plus a `<path>.txt` sidecar."""
    path = Path(path)
    img = np.asarray(image, dtype=np.float64)
    lo = float(img.min())
    hi = float(img.max())
    scale = hi - lo
    if scale <= 0:
        quant = np.zeros(img.shape, dtype=np.uint16)
    else:
        quant = np.round((img - lo) / scale * 65535.0).astype(np.uint16)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(quant.astype(">u2").tobytes())
    sidecar = path.with_suffix(path.suffix + ".txt")
    sidecar.write_text(f"min = {lo!r}\nmax = {hi!r}\n", encoding="ascii")


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM into a float64 array.

    If a sidecar (as write_pgm16 writes) is present, its affine map of [min,
    max] onto [0, maxval] is inverted; otherwise raw sample values are
    returned.  Every malformed file raises a ValueError that names its path.
    """
    path = Path(path)
    raw = path.read_bytes()
    magic, raw = _next_token(raw, path)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: unsupported PGM magic {magic.decode('ascii', 'replace')!r}")
    w, raw = _next_token(raw, path)
    h, raw = _next_token(raw, path)
    maxval, raw = _next_token(raw, path)
    try:
        w, h, maxval = int(w), int(h), int(maxval)
    except ValueError:
        raise ValueError(f"{path}: corrupt PGM header") from None
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: corrupt PGM header")
    if magic == b"P2":
        cells = raw.split()
        if len(cells) < w * h:
            raise ValueError(f"{path}: truncated P2 payload")
        samples = cells[: w * h]
        # decimal digits only: no sign, point, exponent, nan or inf; at most
        # five significant digits (maxval < 65536) before int() reads one
        for i, c in enumerate(samples):
            if not c.isdigit() or len(c.lstrip(b"0")) > 5 or int(c) > maxval:
                raise ValueError(
                    f"{path}: P2 sample {i} (row {i // w}, column {i % w}) is "
                    f"{c.decode('ascii', 'replace')!r}, not an integer in [0, {maxval}]")
        img = np.array(samples, dtype=np.float64).reshape(h, w)
    else:
        # P5: exactly one whitespace byte separates the header from the payload
        dtype = ">u2" if maxval > 255 else "u1"
        need = w * h * (2 if maxval > 255 else 1)
        if len(raw) < need:
            raise ValueError(f"{path}: truncated P5 payload")
        img = np.frombuffer(raw[:need], dtype=dtype).astype(np.float64).reshape(h, w)
    sidecar = path.with_suffix(path.suffix + ".txt")
    if sidecar.exists():
        lo, hi = _read_sidecar(sidecar)
        img = img / maxval * (hi - lo) + lo
    return img


def _next_token(raw: bytes, path: Path) -> tuple[bytes, bytes]:
    """Consume whitespace/comments, return (token, rest-after-one-separator)."""
    i = 0
    while i < len(raw):
        c = raw[i : i + 1]
        if c == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            break
    start = i
    while i < len(raw) and not raw[i : i + 1].isspace():
        i += 1
    if start == i:
        raise ValueError(f"{path}: corrupt PGM header")
    return raw[start:i], raw[i + 1 :]


def _read_sidecar(path: Path) -> tuple[float, float]:
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: sidecar is not ASCII text") from None
    lo = hi = None
    for n, line in enumerate(text.splitlines(), 1):
        if "=" not in line:
            continue
        key, val = [s.strip() for s in line.split("=", 1)]
        if key not in ("min", "max"):
            continue
        try:
            x = float(val)
        except ValueError:
            x = np.nan  # unparsable: rejected with the non-finite values
        if not np.isfinite(x):
            raise ValueError(f"{path}: line {n}: {key} {val!r} is not a finite number")
        if key == "min":
            lo = x
        else:
            hi = x
    if lo is None or hi is None:
        raise ValueError(f"{path}: sidecar missing min/max")
    return lo, hi
