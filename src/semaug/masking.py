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
are exactly zero. Utterances the mask would wipe out entirely (including
all-silence input with zero peak energy) fall back to an unmasked
pass-through with a flag instead of failing the batch.

Steps 3-5 run in place on the energy matrix: the mask is built from the
energies, which then become x_raw and then the output, so an utterance
holds one (M, C) float64 array plus its uint8 mask, never two. The peak
percentile keeps the largest 5% of the bins seen so far and takes in
CHUNK_BINS more at a time; r's masked sum and dropout's draws work
CHUNK_BINS bins at a time, with the bits of their whole-matrix forms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .dsp import EnergyMatrix
from .errors import AllMaskedSignal, EmptyCorpus
from .features import (
    FeatureMatrix,
    GlobalStats,
    check_channels,
    normalize,
    power_mel,
    writable_values,
)

# energies below this floor are clamped before the dB ratio (keeps eta finite)
ETA_FLOOR = 1e-30

# denominators below this are treated as "everything masked"
MASKED_SUM_FLOOR = 1e-12

PEAK_PERCENTILE = 95

# bins per pass of the peak selection, per leaf of r's masked sum, per
# dropout draw and per dB-ratio pass of stats.EtaHistogramAccumulator.update:
# 512 kB of float64 (a 600 s utterance has 2.4 M bins)
CHUNK_BINS = 1 << 16

# numpy's pairwise sum adds up to this many elements in one unrolled loop
_PAIRWISE_BLOCK = 128


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
class MaskMatrix:
    """Binary keep/drop mask with the thresholds that produced it."""

    values: np.ndarray  # uint8, entries in {0, 1}
    eta_th_used: float
    e_th_used: float

    @property
    def masked_fraction(self) -> float:
        return (self.values.size - np.count_nonzero(self.values)) / self.values.size


@dataclass(frozen=True)
class SemOutcome:
    features: FeatureMatrix
    mask: MaskMatrix
    scaling_r: float
    fallback_applied: bool


def _stream_digest(seed: int, utterance_id: str, stream: str) -> bytes:
    """Stable 8-byte digest keyed by (stream label, seed, utterance id).

    Replayable regardless of processing order or platform; distinct stream
    labels give independent per-utterance draws.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(stream.encode("ascii"))
    h.update(b"\x00")
    h.update((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    h.update(utterance_id.encode("utf-8"))
    return h.digest()


def _unit_uniform(seed: int, utterance_id: str, stream: str) -> float:
    # 53-bit mantissa construction: uniform on [0, 1), strictly below 1.
    bits = int.from_bytes(_stream_digest(seed, utterance_id, stream), "little") >> 11
    return bits / (1 << 53)


def peak_energy(energies: EnergyMatrix) -> float:
    """Nearest-rank 95th percentile over all time-frequency bins.

    Sorted ascending, the element at index ceil(0.95 * n) - 1; the ceiling
    is taken in exact integer arithmetic.

    np.partition(values.ravel(), index)[index] without its whole-matrix
    copy: a pool holds the n - index largest entries seen so far behind a
    CHUNK_BINS slot; each further chunk of the matrix goes into the slot and
    one partition of slot and pool puts the largest back in the pool. The
    wanted entry is then the pool's smallest. An utterance of at most
    CHUNK_BINS bins takes that call itself. The same value as that call for
    every matrix without NaN.
    """
    values = np.asarray(energies.values, dtype=np.float64)
    if values.size == 0:
        raise EmptyCorpus("peak_energy of an empty matrix")
    rank = (PEAK_PERCENTILE * values.size + 99) // 100 - 1
    flat = values.ravel()
    if flat.size <= CHUNK_BINS:
        return float(np.partition(flat, rank)[rank])
    keep = flat.size - rank
    pool = np.empty(CHUNK_BINS + keep)
    pool[CHUNK_BINS:] = flat[:keep]
    for start in range(keep, flat.size, CHUNK_BINS):
        chunk = flat[start : start + CHUNK_BINS]
        view = pool[CHUNK_BINS - chunk.size :]
        view[: chunk.size] = chunk
        view.partition(chunk.size)
    return float(pool[CHUNK_BINS])


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


def binary_mask(
    energies: EnergyMatrix,
    e_th: float,
    eta_th: float = math.nan,
) -> MaskMatrix:
    """Keep bins with energy >= e_th (ties kept), drop the rest.

    eta_th is recorded as provenance only; the comparison runs in the
    energy domain.
    """
    values = np.asarray(energies.values, dtype=np.float64)
    mask = np.empty(values.shape, dtype=np.uint8)
    np.greater_equal(values, e_th, out=mask.view(np.bool_))
    return MaskMatrix(values=mask, eta_th_used=float(eta_th), e_th_used=float(e_th))


def threshold_mask(energies: EnergyMatrix, eta_th: float) -> MaskMatrix | None:
    """Keep bins within eta_th dB of the utterance's peak energy.

    Returns None when the peak energy is zero (all silence): no dB ratio
    exists, and the caller passes the utterance through unmasked.
    """
    e_peak = peak_energy(energies)
    if e_peak <= 0:
        return None
    return binary_mask(energies, energy_threshold(e_peak, eta_th), eta_th=eta_th)


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


def scaling_coefficient(x_raw: FeatureMatrix, mask: MaskMatrix) -> float:
    """Sum-preserving rescale factor r = sum(x) / sum(x * mu).

    Raises AllMaskedSignal when the surviving mass is numerically zero;
    the caller decides the fallback. The masked sum has the bits of
    (x * mu).sum() and holds one CHUNK_BINS buffer, not the product.
    """
    if x_raw.values.shape != mask.values.shape:
        raise ValueError(f"features {x_raw.values.shape} vs mask {mask.values.shape}")
    numerator = float(x_raw.values.sum())
    leaf = min(x_raw.values.size, max(CHUNK_BINS, _PAIRWISE_BLOCK))
    denominator = _masked_sum(x_raw.values.ravel(), mask.values.ravel(), np.empty(leaf))
    if denominator < MASKED_SUM_FLOOR:
        raise AllMaskedSignal(
            f"{x_raw.utterance_id}: masked feature sum {denominator!r} below floor"
        )
    return numerator / denominator


def _passthrough_mask(shape) -> MaskMatrix:
    # Effective thresholds of an all-ones mask: -inf dB, zero energy.
    return MaskMatrix(
        values=np.ones(shape, dtype=np.uint8),
        eta_th_used=-math.inf,
        e_th_used=0.0,
    )


def _mask_and_normalize(
    energies: EnergyMatrix,
    stats: GlobalStats,
    eta_th: float,
) -> SemOutcome:
    check_channels(energies, stats)
    mask = threshold_mask(energies, eta_th)
    x_raw = power_mel(energies)
    fallback = mask is None
    if not fallback:
        try:
            scaling_r = scaling_coefficient(x_raw, mask)
        except AllMaskedSignal:
            fallback = True
    if fallback:
        mask = _passthrough_mask(x_raw.values.shape)
        scaling_r = 1.0

    features = normalize(x_raw, stats)
    output = features.values
    output *= mask.values
    output *= scaling_r
    return SemOutcome(
        features=features, mask=mask, scaling_r=scaling_r, fallback_applied=fallback
    )


def apply_sem(
    energies: EnergyMatrix,
    stats: GlobalStats,
    cfg: SemConfig,
) -> SemOutcome:
    """Full small-energy-masking pipeline with a per-utterance random threshold.

    In place: the energies, a writable float64 matrix, become the output
    features (outcome.features.values is energies.values), by way of
    power_mel. Pass a copy to keep the energies.
    """
    eta_th = sample_threshold(cfg, energies.utterance_id)
    return _mask_and_normalize(energies, stats, eta_th)


def apply_fixed_sem(
    energies: EnergyMatrix,
    stats: GlobalStats,
    eta_th_fixed: float,
) -> SemOutcome:
    """Masking pipeline with a constant dB threshold (the non-random ablation).

    In place, as apply_sem.
    """
    return _mask_and_normalize(energies, stats, eta_th_fixed)


def input_dropout(features: FeatureMatrix, rate: float, seed: int) -> FeatureMatrix:
    """Inverted input dropout: zero each element with probability `rate`,
    scale survivors by 1/(1 - rate). Deterministic per (seed,
    features.utterance_id).

    In place: the result's values are features.values, which must be a
    writable float64 matrix. Dropped entries become +0.0 whatever their sign
    (multiplying by a 0/1 mask would leave -0.0 where a value was negative).
    The uniform draws come about CHUNK_BINS at a time, rows in order: the
    same stream as one draw of the whole shape.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    values = writable_values(features)
    if rate == 0.0:
        return features
    child_seed = int.from_bytes(_stream_digest(seed, features.utterance_id, "dropout"), "little")
    rng = np.random.default_rng(child_seed)
    rows = max(1, CHUNK_BINS // max(1, values.shape[1]))
    for start in range(0, values.shape[0], rows):
        block = values[start : start + rows]
        dropped = rng.random(block.shape) < rate
        block *= 1.0 / (1.0 - rate)
        block[dropped] = 0.0
    return features
