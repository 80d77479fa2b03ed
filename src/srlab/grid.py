"""Image checks, .npy stage-image reads, and 16-bit PGM I/O.

Every image in the pipeline (targets, blurred scenes, low-resolution
observations, reconstructions) is a row-major float64 ndarray in
detector counts.  Axis 0 is along-track, axis 1 is across-track.  How
an observation samples the HR grid is recorded once, in
``Observation.decimation``.  Each public stage function checks the
images it is given with ``check_image``, so every trial checks its
target, both simulated observations and its reconstruction.
"""

from __future__ import annotations

import logging

import numpy as np
from numpy.lib import format as npy_format

logger = logging.getLogger(__name__)

__all__ = ["check_image", "write_pgm", "read_pgm", "read_image"]

PGM_MAXVAL = 65535
MAX_PIXELS = 1 << 26  # largest image a file header may declare (8192 x 8192)
PGM_HEADER_BYTES = 1 << 16  # after the magic; write_pgm's header takes at most 17


def check_image(data, what: str) -> np.ndarray:
    """Return data as a row-major float64 array (data itself when it is
    one); ValueError unless it is 2-D, at least 2x2 and finite.  what
    names the image in the message."""
    data = np.asarray(data, dtype=np.float64, order="C")
    if data.ndim != 2:
        raise ValueError(f"{what}: expected 2-D data, got shape {data.shape}")
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"{what}: grid too small: {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{what}: grid contains non-finite values")
    return data


def write_pgm(path, image) -> None:
    """Write a 16-bit binary PGM (P5, maxval 65535, big-endian).

    Values are rounded half-to-even and clamped to [0, 65535] at write
    time only, with one warning giving the number of clamped pixels; the
    in-memory pipeline never quantizes.
    """
    image = check_image(image, str(path))
    rounded = np.rint(image)
    n_clamped = int(np.count_nonzero((rounded < 0) | (rounded > PGM_MAXVAL)))
    if n_clamped:
        logger.warning("%s: clamped %d of %d pixels to [0, %d]", path, n_clamped,
                       rounded.size, PGM_MAXVAL)
    q = np.clip(rounded, 0, PGM_MAXVAL).astype(">u2")
    height, width = image.shape
    header = f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())


def _read_header_tokens(fh, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens, skipping # comments, from
    at most PGM_HEADER_BYTES bytes."""
    tokens: list[bytes] = []
    token, comment = bytearray(), False
    for _ in range(PGM_HEADER_BYTES):
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PGM header")
        if comment:
            comment = ch != b"\n"
        elif ch == b"#":
            comment = True
        elif not ch.isspace():
            token += ch
        elif token:
            tokens.append(bytes(token))
            token.clear()
            if len(tokens) == count:
                return tokens
    raise ValueError(f"PGM header longer than {PGM_HEADER_BYTES} bytes")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by :func:`write_pgm`."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
        try:
            width, height, maxval = map(int, _read_header_tokens(fh, 3))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if maxval != PGM_MAXVAL:
            raise ValueError(f"{path}: expected maxval {PGM_MAXVAL}, got {maxval}")
        if not (width > 0 and height > 0 and width * height <= MAX_PIXELS):
            raise ValueError(f"{path}: PGM size {width}x{height} out of range")
        raw = fh.read(width * height * 2)
    if len(raw) != width * height * 2:
        raise ValueError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=">u2").reshape(height, width)
    return check_image(data, str(path))


def read_image(path) -> np.ndarray:
    """Read a stage image: a .npy file as its exact float64 array, any
    other file as a PGM (read_pgm).  A .npy header's shape and dtype are
    checked before any pixel is read, and nothing is unpickled."""
    if not str(path).endswith(".npy"):
        return read_pgm(path)
    with open(path, "rb") as fh:
        try:
            version = npy_format.read_magic(fh)
            shape, _, dtype = (npy_format.read_array_header_1_0 if version == (1, 0)
                               else npy_format.read_array_header_2_0)(fh)
            if not (dtype == np.float64 and len(shape) == 2 and min(shape) > 0
                    and shape[0] * shape[1] <= MAX_PIXELS):
                raise ValueError(f"expected a 2-D float64 array of at most "
                                 f"{MAX_PIXELS} pixels, got {dtype} of shape {shape}")
            fh.seek(0)
            data = np.load(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return check_image(data, str(path))
