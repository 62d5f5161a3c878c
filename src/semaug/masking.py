"""Small energy masking, its fixed-threshold variant, and input dropout.

The masking pipeline per utterance:

  1. draw a dB threshold eta_th uniformly from [eta_a, eta_b)
  2. e_th = e_peak * 10^(eta_th/10), with e_peak the 95th-percentile energy
  3. mask mu[m,c] = 1 where energy >= e_th, else 0
  4. r = sum(x_raw) / sum(x_raw * mu), so the utterance feature sum is
     preserved through masking
  5. output = r * mu * (x_raw - mean) / std

The scaling coefficient is computed from raw (nonnegative) power-mel
features; the mask multiplies the mean-subtracted values so masked bins
are exactly zero. An utterance with no r (all silence, so no peak to take a
dB ratio from, or no mass left under the mask) falls back to an unmasked
pass-through with a flag instead of failing the batch: one branch gives it
the all-ones mask, -inf dB, zero energy and r = 1. zero_fraction is the
share of a mask's bins it drops, or of dropout's outputs it zeroes.

Steps 3-5 run in place on the energy matrix: the mask is built from the
energies, which then become x_raw and then the output, so an utterance
holds one (M, C) float64 array plus its uint8 mask, never two. The peak
percentile, at every size, keeps the largest 5% of the bins seen so far
and takes in features.CHUNK_BINS more at a time; r's masked sum and
dropout's draws work CHUNK_BINS bins at a time, with the bits of their
whole-matrix forms.

Input dropout draws from SplitMix64 over element counters, keyed by the
utterance's stream digest: draw i is a pure function of (key, i), so a
chunk computes its draws on its own, in integer numpy arithmetic that gives
the same bits on every CPU, and no command imports numpy.random (whose
secrets import loads OpenSSL's libcrypto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# hashlib's own blake2b, without importing hashlib: that import loads
# OpenSSL's libcrypto (about 3.5 MB resident), and hashlib never takes
# BLAKE2 from OpenSSL anyway
from _blake2 import blake2b

import numpy as np

from . import features
from .dsp import FeatureMatrix
from .errors import EmptyCorpus
from .features import (
    GlobalStats, check_channels, chunk_rows, normalize, power_mel, writable_values,
)

# energies below this floor are clamped before the dB ratio (keeps eta finite)
ETA_FLOOR = 1e-30

# masked sums below this leave no r: "everything masked"
MASKED_SUM_FLOOR = 1e-12

PEAK_PERCENTILE = 95

# numpy's pairwise sum adds up to this many elements in one unrolled loop
_PAIRWISE_BLOCK = 128

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), a counter-based stream:
# draw i of key k is mix(k + (i + 1) * gamma mod 2**64), where mix is
# three xor-shifts, the first two each followed by a multiply
_UINT64_MASK = (1 << 64) - 1
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX = (
    (30, np.uint64(0xBF58476D1CE4E5B9)),
    (27, np.uint64(0x94D049BB133111EB)),
    (31, None),
)


@dataclass(frozen=True)
class SemConfig:
    """Threshold-sampling bounds in dB and the corpus-level seed."""

    eta_a: float = -80.0
    eta_b: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eta_a) and math.isfinite(self.eta_b)):
            raise ValueError(f"eta_a and eta_b must be finite, got [{self.eta_a}, {self.eta_b})")
        if not self.eta_a < self.eta_b:
            raise ValueError(f"eta_a must be < eta_b, got [{self.eta_a}, {self.eta_b})")


@dataclass(frozen=True)
class SemOutcome:
    """One utterance's masking: its output features, the uint8 keep mask
    (1 = kept), the dB and energy thresholds that made the mask, and r.

    A fallback has the all-ones mask, eta_th = -inf, e_th = 0 and r = 1;
    fallback_applied tells it apart from a threshold of -inf dB, which
    keeps every bin too.
    """

    features: FeatureMatrix
    mask: np.ndarray
    eta_th: float
    e_th: float
    scaling_r: float
    fallback_applied: bool


def _stream_digest(seed: int, utterance_id: str, stream: str) -> bytes:
    """Stable 8-byte digest keyed by (stream label, seed, utterance id): an
    8-byte BLAKE2b of the ASCII label, a zero byte, the seed mod 2**64 as 8
    little-endian bytes and the UTF-8 id.

    Replayable regardless of processing order or platform; distinct stream
    labels give independent per-utterance draws.
    """
    h = blake2b(digest_size=8)
    h.update(stream.encode("ascii"))
    h.update(b"\x00")
    h.update((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    h.update(utterance_id.encode("utf-8"))
    return h.digest()


def _unit_uniform(seed: int, utterance_id: str, stream: str) -> float:
    # 53-bit mantissa construction: uniform on [0, 1), strictly below 1.
    bits = int.from_bytes(_stream_digest(seed, utterance_id, stream), "little") >> 11
    return bits / (1 << 53)


def peak_energy(energies: FeatureMatrix) -> float:
    """Nearest-rank 95th percentile over all time-frequency bins.

    Sorted ascending, the element at index ceil(0.95 * n) - 1; the ceiling
    is taken in exact integer arithmetic.

    np.partition(values.ravel(), index)[index] without its whole-matrix
    copy: a pool holds the n - index largest entries seen so far behind a
    CHUNK_BINS slot; each further chunk of the matrix goes into the slot and
    one partition of slot and pool puts the largest back in the pool. The
    wanted entry is then the pool's smallest. The same value as that call
    for every matrix without NaN, at every size.
    """
    values = np.asarray(energies.values, dtype=np.float64)
    if values.size == 0:
        raise EmptyCorpus("peak_energy of an empty matrix")
    rank = (PEAK_PERCENTILE * values.size + 99) // 100 - 1
    flat = values.ravel()
    keep = flat.size - rank
    slot = features.CHUNK_BINS
    pool = np.empty(slot + keep)
    pool[slot:] = flat[:keep]
    for start in range(keep, flat.size, slot):
        chunk = flat[start : start + slot]
        view = pool[slot - chunk.size :]
        view[: chunk.size] = chunk
        view.partition(chunk.size)
    return float(pool[slot])


def eta(e_val, e_peak: float):
    """Energy expressed in dB relative to the peak: 10*log10(e/e_peak).

    Zero energies are floored at 1e-30 so the ratio stays finite. Accepts
    scalars or arrays; an array result is one fresh array, computed in place.
    """
    if e_peak <= 0:
        raise ValueError(f"e_peak must be > 0, got {e_peak}")
    values = np.asarray(e_val, dtype=np.float64)
    result = np.maximum(values, ETA_FLOOR, out=np.empty(values.shape))
    result /= e_peak
    np.log10(result, out=result)
    result *= 10.0
    return float(result) if result.ndim == 0 else result


def sample_threshold(cfg: SemConfig, utterance_id: str) -> float:
    """One uniform dB threshold per utterance, on [eta_a, eta_b).

    Deterministic given (cfg.seed, utterance_id): the draw comes from a
    keyed hash stream, never from shared RNG state.
    """
    u = _unit_uniform(cfg.seed, utterance_id, "eta-threshold")
    return cfg.eta_a + u * (cfg.eta_b - cfg.eta_a)


def energy_threshold(e_peak: float, eta_th: float) -> float:
    """Convert a dB ratio threshold back to an absolute energy threshold."""
    if e_peak <= 0:
        raise ValueError(f"e_peak must be > 0, got {e_peak}")
    return e_peak * 10.0 ** (eta_th / 10.0)


def binary_mask(energies: FeatureMatrix, e_th: float) -> np.ndarray:
    """The uint8 mask keeping bins with energy >= e_th (ties kept): 1 where
    kept, 0 where dropped."""
    values = np.asarray(energies.values, dtype=np.float64)
    mask = np.empty(values.shape, dtype=np.uint8)
    np.greater_equal(values, e_th, out=mask.view(np.bool_))
    return mask


def threshold_mask(energies: FeatureMatrix, eta_th: float) -> tuple[np.ndarray, float] | None:
    """(mask, e_th): keep bins within eta_th dB of the utterance's peak
    energy, e_th being that bound in the energy domain.

    Returns None when the peak energy is zero (all silence): no dB ratio
    exists, and the caller passes the utterance through unmasked.
    """
    e_peak = peak_energy(energies)
    if e_peak <= 0:
        return None
    e_th = energy_threshold(e_peak, eta_th)
    return binary_mask(energies, e_th), e_th


def zero_fraction(values: np.ndarray) -> float:
    """The share of entries that are zero: a mask's dropped bins, or the
    outputs input dropout zeroed."""
    return (values.size - np.count_nonzero(values)) / values.size


def _masked_sum(x: np.ndarray, mu: np.ndarray, buffer: np.ndarray) -> float:
    """float((x * mu).sum()) for flat x and mu, with no product of their size.

    Splits where numpy's pairwise sum splits, at n / 2 rounded down to a
    multiple of 8, so the partial sums add in its order; each leaf of at
    most buffer.size elements is one product in buffer and its sum. The
    product of C-ordered matrices (every command's) sums in this flat order.
    """
    n = x.size
    if n <= buffer.size:
        return float(np.multiply(x, mu, out=buffer[:n]).sum())
    half = n // 2
    half -= half % 8
    return _masked_sum(x[:half], mu[:half], buffer) + _masked_sum(x[half:], mu[half:], buffer)


def scaling_coefficient(x_raw: FeatureMatrix, mask: np.ndarray) -> float | None:
    """Sum-preserving rescale factor r = sum(x) / sum(x * mu).

    None when the surviving mass is below MASKED_SUM_FLOOR (numerically
    zero); the caller decides the fallback. The masked sum has the bits of
    (x * mu).sum() and holds one CHUNK_BINS buffer, not the product.
    """
    if x_raw.values.shape != mask.shape:
        raise ValueError(f"features {x_raw.values.shape} vs mask {mask.shape}")
    numerator = float(x_raw.values.sum())
    leaf = min(x_raw.values.size, max(features.CHUNK_BINS, _PAIRWISE_BLOCK))
    denominator = _masked_sum(x_raw.values.ravel(), mask.ravel(), np.empty(leaf))
    if denominator < MASKED_SUM_FLOOR:
        return None
    return numerator / denominator


def _mask_and_normalize(
    energies: FeatureMatrix,
    stats: GlobalStats,
    eta_th: float,
) -> SemOutcome:
    check_channels(energies, stats)
    masked = threshold_mask(energies, eta_th)
    x_raw = power_mel(energies)
    scaling_r = None if masked is None else scaling_coefficient(x_raw, masked[0])
    fallback = scaling_r is None
    if fallback:
        # silence, or no mass left under the mask: pass through unmasked
        masked = np.ones(x_raw.values.shape, dtype=np.uint8), 0.0
        eta_th, scaling_r = -math.inf, 1.0
    mask, e_th = masked

    output = normalize(x_raw, stats).values
    output *= mask
    output *= scaling_r
    return SemOutcome(energies, mask, eta_th, e_th, scaling_r, fallback)


def apply_sem(
    energies: FeatureMatrix,
    stats: GlobalStats,
    cfg: SemConfig,
) -> SemOutcome:
    """Full small-energy-masking pipeline with a per-utterance random threshold.

    In place: the energies, a writable float64 matrix, become the output
    features (outcome.features is energies), by way of power_mel. Pass a
    copy to keep the energies.
    """
    eta_th = sample_threshold(cfg, energies.utterance_id)
    return _mask_and_normalize(energies, stats, eta_th)


def apply_fixed_sem(
    energies: FeatureMatrix,
    stats: GlobalStats,
    eta_th_fixed: float,
) -> SemOutcome:
    """Masking pipeline with a constant dB threshold (the non-random ablation).

    In place, as apply_sem.
    """
    return _mask_and_normalize(energies, stats, eta_th_fixed)


def _drop_bound(rate: float) -> int:
    """The b with z < b exactly when (z >> 11) * 2**-53 < rate, for every
    64-bit z: ceil(rate * 2**53) << 11, below 2**64 for rate < 1."""
    return math.ceil(rate * (1 << 53)) << 11


def input_dropout(features: FeatureMatrix, rate: float, seed: int) -> FeatureMatrix:
    """Inverted input dropout: zero each element with probability `rate`,
    scale survivors by 1/(1 - rate). Deterministic per (seed,
    features.utterance_id, shape).

    Element i, counted in row-major order, is dropped when its SplitMix64
    draw z = mix(child_seed + (i + 1) * 0x9E3779B97F4A7C15 mod 2**64) has
    (z >> 11) * 2**-53 < rate, with child_seed the utterance's "dropout"
    stream digest. Each draw is a function of its counter alone, so a chunk
    of about CHUNK_BINS bins, rows in order, computes its own draws: the
    same stream as one draw of the whole shape, whatever the chunk size or
    the matrix's strides.

    In place: returns `features`, whose values must be a writable float64
    matrix. Dropped entries become +0.0 whatever their sign
    (multiplying by a 0/1 mask would leave -0.0 where a value was negative).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    values = writable_values(features)
    if rate == 0.0 or values.size == 0:
        return features
    child_seed = int.from_bytes(_stream_digest(seed, features.utterance_id, "dropout"), "little")
    bound = np.uint64(_drop_bound(rate))
    frames, channels = values.shape
    rows = chunk_rows(channels)
    # steps[j] = (j + 1) * gamma for the chunk's j-th bin; z and shifted are
    # the draws and the mix's scratch, all three reused by every chunk
    steps = np.arange(1, min(rows, frames) * channels + 1, dtype=np.uint64).reshape(-1, channels)
    steps *= _SPLITMIX_GAMMA
    z = np.empty_like(steps)
    shifted = np.empty_like(steps)
    dropped = np.empty(steps.shape, dtype=np.bool_)
    for start in range(0, frames, rows):
        block = values[start : start + rows]
        n = block.shape[0]
        # the chunk's first counter is start * channels
        key = (child_seed + start * channels * int(_SPLITMIX_GAMMA)) & _UINT64_MASK
        draws = np.add(steps[:n], np.uint64(key), out=z[:n])
        for shift, multiplier in _SPLITMIX_MIX:
            draws ^= np.right_shift(draws, shift, out=shifted[:n])
            if multiplier is not None:
                draws *= multiplier
        np.less(draws, bound, out=dropped[:n])
        block *= 1.0 / (1.0 - rate)
        block[dropped[:n]] = 0.0
    return features
