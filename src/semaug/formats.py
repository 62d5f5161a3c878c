"""On-disk formats: FMX1 feature files, the stats text file, and PGM images.

FMX1 layout (little-endian):

    magic   4 bytes  "FMX1"
    version u16      1
    frames  u32      M
    chans   u32      C
    payload M*C float32, row-major (frame-major)

The stats file is text: a header line "SEMSTATS v1 C=<channels> N=<frames>",
both counts at least 1 and nothing else on the line, followed by C lines of
"<channel> <mean> <std>", each line ending in "\n". Floats are written with
repr, so a write/read/write cycle is byte-identical, and a file is read only
if it is byte for byte what save_stats writes for the values it holds.

Every writer goes through atomic_write, so a file at its final path is
always complete. Its temporary is named `.<name>.<pid>.<tid>.tmp`;
sweep_stale_temporaries removes those of processes that no longer run.
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
from .features import GlobalStats, chunk_rows

FEATURE_MAGIC = b"FMX1"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHII")

# atomic_write's temporary: .<name>.<pid>.<thread id>.tmp
_TEMP_NAME = re.compile(r"\.(.+)\.([1-9][0-9]*)\.([0-9]+)\.tmp")

STATS_HEADER_PREFIX = "SEMSTATS v1"
_STATS_HEADER = re.compile(rf"{STATS_HEADER_PREFIX} C=([1-9][0-9]*) N=([1-9][0-9]*)")


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


def _pid_is_gone(pid: int) -> bool:
    """True only when no process `pid` exists; False when it runs or cannot
    be checked (another user's process, a pid out of range, or not POSIX,
    where os.kill would end the process)."""
    if os.name != "posix":
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        pass
    return False


def sweep_stale_temporaries(directory: str | Path) -> list[Path]:
    """Remove the atomic_write temporaries in `directory` whose writing
    process no longer runs; return the paths removed.

    A temporary of a live process, or of one whose pid cannot be checked,
    is kept, as is every file not named exactly like a temporary.
    """
    removed = []
    with os.scandir(directory) as entries:
        for entry in entries:
            match = _TEMP_NAME.fullmatch(entry.name)
            if match and entry.is_file(follow_symlinks=False) and _pid_is_gone(int(match[2])):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(entry.path)
                removed.append(Path(entry.path))
    return removed


def save_features(path: str | Path, values: np.ndarray) -> None:
    """Write an (M, C) feature matrix as an FMX1 file.

    The payload is converted to float32 a chunk of rows at a time, so the
    write holds no whole-matrix copy.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise FormatError(f"feature matrix must be 2-D, got shape {values.shape}")
    frames, channels = values.shape
    rows = chunk_rows(channels)
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


def _stats_text(stats: GlobalStats) -> str:
    """The one SEMSTATS spelling of stats: save_stats writes it, and
    load_stats accepts nothing else."""
    lines = [f"{STATS_HEADER_PREFIX} C={stats.num_channels} N={stats.num_frames_seen}"]
    for channel in range(stats.num_channels):
        mean = repr(float(stats.mean[channel]))
        std = repr(float(stats.std[channel]))
        lines.append(f"{channel} {mean} {std}")
    return "\n".join(lines) + "\n"


def save_stats(path: str | Path, stats: GlobalStats) -> None:
    """Write global stats as the SEMSTATS text format."""
    with atomic_write(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(_stats_text(stats))


def load_stats(path: str | Path) -> GlobalStats:
    """Parse a SEMSTATS file back into GlobalStats.

    Only the text save_stats writes is accepted: a file whose values parse
    but are spelled otherwise (CRLF line ends, `+0`, `1e-1`, `0.1_0`, a
    double space, no final newline) raises FormatError naming its first
    line that differs.
    """
    try:
        # bytes decoded as they are: read_text would turn "\r\n" into "\n"
        text = Path(path).read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from exc
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
    stats = GlobalStats(mean=mean, std=std, num_frames_seen=frames)
    expected = _stats_text(stats).splitlines(keepends=True)
    for number, (line, want) in enumerate(zip(text.splitlines(keepends=True), expected), 1):
        if line != want:
            raise FormatError(
                f"{path}: line {number} {line!r} is not spelled as save_stats writes it, {want!r}"
            )
    return stats


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
