"""On-disk formats: FMX1 feature files, the stats text file, and PGM images.

FMX1 layout (little-endian):

    magic   4 bytes  "FMX1"
    version u16      1
    frames  u32      M
    chans   u32      C
    payload M*C float32, row-major (frame-major)

The stats file is text: a header line "SEMSTATS v1 C=<channels> N=<frames>",
both counts at least 1 and nothing else on the line, followed by C lines of
"<channel> <mean> <std>". Floats are written with repr so a
write/read/write cycle is byte-identical.

Every writer goes through atomic_write, so a file at its final path is
always complete.
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
import threading
from pathlib import Path

import numpy as np

from .errors import FormatError
from .features import GlobalStats

FEATURE_MAGIC = b"FMX1"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHII")

STATS_HEADER_PREFIX = "SEMSTATS v1"
_STATS_HEADER = re.compile(rf"{STATS_HEADER_PREFIX} C=([1-9][0-9]*) N=([1-9][0-9]*)")

# FMX1 payload bytes converted to float32 per write call
_WRITE_CHUNK_BYTES = 1 << 18


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside `path` for writing; rename it onto `path`
    when the block ends without an error.

    The temporary file is in the same directory, so os.replace swaps it in
    atomically: `path` holds either its previous content or the complete new
    file, never a partial one. On an error the temporary file is removed;
    when it could not be created, open's error propagates alone.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    handle = open(temp, mode, **open_kwargs)
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def save_features(path: str | Path, values: np.ndarray) -> None:
    """Write an (M, C) feature matrix as an FMX1 file.

    The payload is converted to float32 a chunk of rows at a time, so the
    write holds no whole-matrix copy.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise FormatError(f"feature matrix must be 2-D, got shape {values.shape}")
    frames, channels = values.shape
    rows = max(1, _WRITE_CHUNK_BYTES // (4 * max(channels, 1)))
    with atomic_write(path) as handle:
        handle.write(_FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, frames, channels))
        for start in range(0, frames, rows):
            handle.write(np.ascontiguousarray(values[start : start + rows], dtype="<f4"))


def load_features(path: str | Path) -> np.ndarray:
    """Read an FMX1 file back into an (M, C) float32 matrix."""
    blob = Path(path).read_bytes()
    if len(blob) < _FEATURE_HEADER.size:
        raise FormatError(f"{path}: shorter than the FMX1 header")
    magic, version, frames, channels = _FEATURE_HEADER.unpack_from(blob)
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = 4 * frames * channels
    payload = blob[_FEATURE_HEADER.size :]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4")
    return data.reshape(frames, channels)


def save_stats(path: str | Path, stats: GlobalStats) -> None:
    """Write global stats as the SEMSTATS text format."""
    lines = [f"{STATS_HEADER_PREFIX} C={stats.num_channels} N={stats.num_frames_seen}"]
    for channel in range(stats.num_channels):
        mean = repr(float(stats.mean[channel]))
        std = repr(float(stats.std[channel]))
        lines.append(f"{channel} {mean} {std}")
    with atomic_write(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def load_stats(path: str | Path) -> GlobalStats:
    """Parse a SEMSTATS file back into GlobalStats."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    first = lines[0] if lines else ""
    header = _STATS_HEADER.fullmatch(first)
    if header is None:
        raise FormatError(
            f"{path}: header {first!r} is not "
            f"'{STATS_HEADER_PREFIX} C=<channels> N=<frames>', both at least 1"
        )
    channels, frames = int(header[1]), int(header[2])
    body = lines[1:]
    if len(body) != channels:
        raise FormatError(f"{path}: expected {channels} channel lines, got {len(body)}")
    mean = np.empty(channels)
    std = np.empty(channels)
    for i, line in enumerate(body):
        parts = line.split()
        try:
            if len(parts) != 3 or int(parts[0]) != i:
                raise ValueError(f"expected '{i} <mean> <std>'")
            mean[i] = float(parts[1])
            std[i] = float(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}: malformed channel line {i + 2} {line!r}") from exc
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise FormatError(f"{path}: mean and std fields must be finite")
    if np.any(std <= 0):
        raise FormatError(f"{path}: std fields must be strictly positive")
    return GlobalStats(mean=mean, std=std, num_frames_seen=frames)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-D uint8 array as a binary PGM (P5, maxval 255)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise FormatError(f"image must be 2-D, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise FormatError(f"image must be uint8, got {image.dtype}")
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    with atomic_write(path) as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(image))
