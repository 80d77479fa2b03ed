"""2-D raster container plus 16-bit PGM I/O.

Every image in the pipeline (targets, blurred scenes, low-resolution
observations, reconstructions) is an ``ImageGrid``: a validated
row-major float64 array in detector counts.  Axis 0 is along-track,
axis 1 is across-track.  How an observation samples the HR grid is
recorded once, in ``Observation.decimation``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = ["ImageGrid", "write_pgm", "read_pgm"]

PGM_MAXVAL = 65535


@dataclass
class ImageGrid:
    """Real-valued raster.

    Parameters
    ----------
    data : ndarray
        2-D float array, row-major, values in detector counts.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.validate()

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def validate(self) -> None:
        """Check the container invariants; raises ValueError on a breach."""
        if self.data.ndim != 2:
            raise ValueError(f"expected 2-D data, got shape {self.data.shape}")
        if self.height < 2 or self.width < 2:
            raise ValueError(f"grid too small: {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("grid contains non-finite values")

    def mean(self) -> float:
        return float(self.data.mean())


def write_pgm(path, grid: ImageGrid) -> None:
    """Write a 16-bit binary PGM (P5, maxval 65535, big-endian).

    Values are rounded half-to-even and clamped to [0, 65535] at write
    time only, with one warning giving the number of clamped pixels; the
    in-memory pipeline never quantizes.
    """
    rounded = np.rint(grid.data)
    n_clamped = int(np.count_nonzero((rounded < 0) | (rounded > PGM_MAXVAL)))
    if n_clamped:
        logger.warning("%s: clamped %d of %d pixels to [0, %d]", path, n_clamped,
                       rounded.size, PGM_MAXVAL)
    q = np.clip(rounded, 0, PGM_MAXVAL).astype(">u2")
    header = f"P5\n{grid.width} {grid.height}\n{PGM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())


def _read_header_tokens(fh, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    token = b""
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                tokens.append(token)
                token = b""
            continue
        token += ch
    return tokens


def read_pgm(path) -> ImageGrid:
    """Read a binary PGM written by :func:`write_pgm`."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
        width_b, height_b, maxval_b = _read_header_tokens(fh, 3)
        width, height, maxval = int(width_b), int(height_b), int(maxval_b)
        if maxval != PGM_MAXVAL:
            raise ValueError(f"{path}: expected maxval {PGM_MAXVAL}, got {maxval}")
        raw = fh.read(width * height * 2)
    if len(raw) != width * height * 2:
        raise ValueError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=">u2").reshape(height, width).astype(np.float64)
    return ImageGrid(data)
