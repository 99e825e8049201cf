"""Dependency-free file formats: 8-bit PGM images and dense CSV matrices.

PGM is read as ASCII (P2) or binary (P5) with maxval up to 255 and
written as P5; images are exchanged as float matrices in [0, 1].  CSV
matrices are row-major, comma separated, '.' decimal, no header; NaN
entries are legal and mark unobserved values in masked-matrix files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["read_pgm", "write_pgm", "read_matrix_csv", "write_matrix_csv"]


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    while pos < len(data):
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            yield pos, data[pos:end]
            pos = end


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 grayscale image as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        _, magic = next(toks)
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
        (_, w), (_, h), (mv_pos, mv_tok) = next(toks), next(toks), next(toks)
        width, height, maxval = int(w), int(h), int(mv_tok)
    except StopIteration:
        raise ValueError(f"{path}: truncated PGM header") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if magic == b"P5":
        start = mv_pos + len(mv_tok) + 1  # single whitespace after maxval
        raster = np.frombuffer(data, dtype=np.uint8, count=width * height,
                               offset=start)
        if raster.size != width * height:
            raise ValueError(f"{path}: truncated P5 raster")
    else:
        values = [int(v) for _, v in toks]
        if len(values) != width * height:
            raise ValueError(f"{path}: expected {width * height} samples, "
                             f"got {len(values)}")
        raster = np.array(values)
    if raster.min() < 0 or raster.max() > maxval:
        raise ValueError(f"{path}: samples must lie in [0, {maxval}]")
    return raster.reshape(height, width).astype(float) / maxval


def write_pgm(path, image: np.ndarray) -> None:
    """Write a float matrix in [0, 1] as an 8-bit binary PGM (P5)."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    raster = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    height, width = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def read_matrix_csv(path) -> np.ndarray:
    """Read a dense comma-separated matrix of at least one value."""
    with open(path, encoding="ascii") as fh:
        if not (rows := [line for line in fh if line.strip()]):
            raise ValueError(f"{path}: holds no values")
    return np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2)


def write_matrix_csv(path, x: np.ndarray) -> None:
    """Write a dense matrix at full round-trip precision."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
