"""Power-law feature computation and global mean/variance normalization.

Corpus statistics are always computed from raw power-mel features, before
any masking, so every utterance is normalized against unmasked data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FeatureConfig, FeatureMatrix
from .errors import EmptyCorpus

# std floor keeps divide_std total on degenerate constant channels
STD_FLOOR = 1e-8

# bins per pass of every chunked loop over a matrix (masking, stats, the
# StatsAccumulator.update below, formats.save_features), read at call time:
# 512 kB of float64 (a 600 s utterance has 2.4 M bins)
CHUNK_BINS = 1 << 16


@dataclass(frozen=True)
class GlobalStats:
    """Per-channel corpus mean and (floored) population standard deviation."""

    mean: np.ndarray
    std: np.ndarray
    num_frames_seen: int

    def __post_init__(self):
        if not np.all((self.std > 0) & np.isfinite(self.std)):
            raise ValueError("std must be finite and strictly positive (flooring failed?)")
        if self.num_frames_seen < 1:
            raise ValueError(f"num_frames_seen must be >= 1, got {self.num_frames_seen}")

    @property
    def num_channels(self) -> int:
        return int(self.mean.shape[0])


class StatsAccumulator:
    """One-pass per-channel mean/variance accumulator.

    Uses the Welford/Chan update so partial accumulators from parallel
    workers merge without a second pass over the data.
    """

    def __init__(self):
        self.count = 0
        self._mean = None
        self._m2 = None

    def update(self, features: FeatureMatrix) -> None:
        values = np.asarray(features.values, dtype=np.float64)
        if values.size == 0:
            return
        batch_count = values.shape[0]
        batch_mean = values.mean(axis=0)
        batch_m2 = _centred_square_sums(values, batch_mean)
        self._combine(batch_count, batch_mean, batch_m2)

    def merge(self, other: "StatsAccumulator") -> None:
        if other.count:
            self._combine(other.count, other._mean, other._m2)

    def _combine(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        if self.count == 0:
            self.count = count
            self._mean = mean.copy()
            self._m2 = m2.copy()
            return
        if mean.shape != self._mean.shape:
            raise ValueError(
                f"channel count changed mid-corpus: {mean.shape[0]} vs {self._mean.shape[0]}"
            )
        total = self.count + count
        delta = mean - self._mean
        self._mean = self._mean + delta * (count / total)
        self._m2 = self._m2 + m2 + delta * delta * (self.count * count / total)
        self.count = total

    def finalize(self) -> GlobalStats:
        if self.count == 0:
            raise EmptyCorpus("no utterance produced features")
        variance = self._m2 / self.count  # population variance
        std = np.maximum(np.sqrt(variance), STD_FLOOR)
        return GlobalStats(mean=self._mean.copy(), std=std, num_frames_seen=self.count)


def chunk_rows(channels: int) -> int:
    """Rows of a matrix of `channels` columns per pass of a chunked loop:
    CHUNK_BINS // channels, and at least one (1638 at 40 channels)."""
    return max(1, CHUNK_BINS // max(channels, 1))


def _centred_square_sums(values: np.ndarray, center: np.ndarray) -> np.ndarray:
    """((values - center) ** 2).sum(axis=0), with the same bits, chunk_rows
    rows at a time.

    numpy's axis-0 sum adds the rows in order, so the running sum carried in
    as the first row of the next chunk continues it exactly; adding per-chunk
    sums would round differently.
    """
    rows = min(values.shape[0], chunk_rows(values.shape[1]))
    buffer = np.empty((rows + 1, values.shape[1]))
    total = None
    for start in range(0, values.shape[0], rows):
        chunk = values[start : start + rows]
        body = buffer[1 : chunk.shape[0] + 1]
        np.subtract(chunk, center, out=body)
        np.square(body, out=body)
        if total is None:
            total = body.sum(axis=0)
        else:
            buffer[0] = total
            total = buffer[: chunk.shape[0] + 1].sum(axis=0)
    return total


def writable_values(matrix: FeatureMatrix) -> np.ndarray:
    """matrix.values, checked for the in-place transforms: a writable float64
    array. Anything else (a float32 or read-only matrix, such as the one
    formats.load_features returns) raises ValueError, so no transform casts
    or copies behind the caller's back."""
    values = matrix.values
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.flags.writeable
    ):
        kind = getattr(values, "dtype", type(values).__name__)
        if isinstance(values, np.ndarray) and not values.flags.writeable:
            kind = f"read-only {kind}"
        raise ValueError(
            f"{matrix.utterance_id}: in-place transforms need a writable float64 "
            f"matrix, got {kind}; pass np.array(values, dtype=np.float64)"
        )
    return values


def power_mel(energies: FeatureMatrix) -> FeatureMatrix:
    """Elementwise power-law compression of filterbank energies, in place:
    returns `energies`, its values now with the bits of
    energies.values ** FeatureConfig.power_exponent. Needs a writable
    float64 matrix."""
    values = writable_values(energies)
    values **= FeatureConfig.power_exponent
    return energies


def check_channels(matrix: FeatureMatrix, stats: GlobalStats) -> None:
    """ValueError unless the matrix has the stats' channel count."""
    if matrix.num_channels != stats.num_channels:
        raise ValueError(
            f"{matrix.utterance_id}: {matrix.num_channels} channels vs "
            f"stats with {stats.num_channels}"
        )


def normalize(features: FeatureMatrix, stats: GlobalStats) -> FeatureMatrix:
    """(x - mean) / std per channel, in place: returns `features`, its
    values now with the bits of divide_std(subtract_mean(x)). Needs a
    writable float64 matrix."""
    check_channels(features, stats)
    values = writable_values(features)
    values -= stats.mean
    values /= stats.std
    return features


def subtract_mean(features: FeatureMatrix, stats: GlobalStats) -> FeatureMatrix:
    """Subtract the per-channel corpus mean into a new matrix: with
    divide_std, the out-of-place reference of normalize, whose bits it
    matches. perfbench/child.py traces both by name."""
    check_channels(features, stats)
    return FeatureMatrix(values=features.values - stats.mean, utterance_id=features.utterance_id)


def divide_std(features: FeatureMatrix, stats: GlobalStats) -> FeatureMatrix:
    """Divide by the per-channel corpus standard deviation into a new
    matrix: the second step of normalize's out-of-place reference (see
    subtract_mean)."""
    check_channels(features, stats)
    return FeatureMatrix(values=features.values / stats.std, utterance_id=features.utterance_id)
