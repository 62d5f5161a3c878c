"""Waveform to mel filterbank energy extraction.

The front end frames the signal with a symmetric Hamming window, takes the
squared-magnitude DFT (unscaled forward transform, zero-padded to the FFT
size) and sums it through triangular mel filters:

    energy[m, c] = sum_k |X[m, k]|^2 * W[c, k],   k = 0 .. K/2

No pre-emphasis and no dithering are applied.

Frames are processed in blocks of BLOCK_FRAMES (512) rows, each block's
energies written into the preallocated (M, C) result, so the peak memory
of one utterance is O(block) above its output rather than O(utterance):
no whole-utterance spectrum exists, and the samples of an open WAV file
are read one block's span at a time into one reused buffer. Within a
block the window and FFT run SUB_BLOCK_FRAMES (64) rows at a time through
one zero-padded float64 workspace; only the block's power spectrum, the
input of its mel matmul, is held at full block height. Every frame is
read and transformed once: a final partial block reuses the power rows it
shares with the block before it instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import WavReader, Waveform, read_wav
from .errors import BadAudio

# Frames per block of the front end: the height of every mel matmul, which
# fixes its bits, and of the block's 512 x 257 float64 power spectrum (1.05 MB).
# With OpenBLAS every matmul height above 30 rows gives each row the bits of
# a whole-utterance product; a final block shorter than this would not.
BLOCK_FRAMES = 512

# Frames per window + FFT pass inside a block: bounds the workspace and the
# complex spectrum to 64 x 512 and 64 x 257 values (263 kB each); 64 is
# also faster than 256 on long utterances.
SUB_BLOCK_FRAMES = 64


def hz_to_mel(freq_hz):
    """Perceptual frequency warp: mel(f) = 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class FeatureConfig:
    """Front-end configuration: 25 ms Hamming windows, 10 ms hop, 40 mel
    channels on 16 kHz audio, power-law exponent 1/15."""

    window_length_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int = 512
    num_channels: int = 40
    sample_rate_hz: int = 16000
    power_exponent: float = 1.0 / 15.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1) != 0:
            raise ValueError(f"fft_size must be a power of two >= 2, got {self.fft_size}")
        if self.window_samples < 2:
            raise ValueError("window shorter than 2 samples")
        if self.fft_size < self.window_samples:
            raise ValueError(
                f"fft_size {self.fft_size} smaller than window of "
                f"{self.window_samples} samples"
            )
        if not 0 < self.num_channels <= self.fft_size // 2:
            raise ValueError(
                f"num_channels must be in (0, fft_size/2], got {self.num_channels}"
            )
        if self.hop_ms > self.window_length_ms:
            raise ValueError("hop_ms must not exceed window_length_ms")
        if self.hop_ms <= 0:
            raise ValueError("hop_ms must be > 0")
        if self.power_exponent <= 0:
            raise ValueError("power_exponent must be > 0")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_length_ms * self.sample_rate_hz / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * self.sample_rate_hz / 1000.0))


@dataclass(frozen=True)
class FilterbankMatrix:
    """Triangular mel filter weights, one row per channel.

    weights: (num_channels, fft_size/2 + 1), entries in [0, 1], each row a
    contiguous triangle peaking at exactly 1.0.
    """

    weights: np.ndarray
    center_freqs_hz: np.ndarray

    @property
    def num_channels(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class EnergyMatrix:
    """Per-frame, per-channel filterbank energies (all entries >= 0)."""

    values: np.ndarray
    utterance_id: str

    @property
    def num_frames(self) -> int:
        return int(self.values.shape[0])

    @property
    def num_channels(self) -> int:
        return int(self.values.shape[1])


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming window w[n] = 0.54 - 0.46*cos(2*pi*n/(length-1))."""
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def _check_length(num_samples: int, cfg: FeatureConfig, utterance_id: str) -> None:
    if num_samples < cfg.window_samples:
        raise BadAudio(
            f"{utterance_id}: {num_samples} samples < one window of {cfg.window_samples}"
        )


def frame_signal(waveform: Waveform, cfg: FeatureConfig) -> np.ndarray:
    """Slice a waveform into overlapping frames of one window each.

    Returns an (M, L) array with M = 1 + floor((N - L) / H); the trailing
    partial frame is dropped. The array is a read-only strided view of the
    samples (frames overlap in memory), not a copy, in their floating dtype;
    samples of another dtype are converted to float64 first.
    """
    samples = np.asarray(waveform.samples)
    if not np.issubdtype(samples.dtype, np.floating):
        samples = samples.astype(np.float64)
    length = cfg.window_samples
    hop = cfg.hop_samples
    _check_length(samples.size, cfg, waveform.utterance_id)
    return np.lib.stride_tricks.sliding_window_view(samples, length)[::hop]


def power_spectrum(
    frame: np.ndarray, fft_size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared DFT magnitudes at bins 0..K/2 of a zero-padded frame.

    With `out`, a float64 array of the result's shape, the magnitudes are
    written and squared there in place and `out` is returned; the bits are
    those of np.abs(X) ** 2 either way.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError(f"frame of {frame.shape[-1]} samples > fft_size {fft_size}")
    spectrum = np.fft.rfft(frame, n=fft_size, axis=-1)
    magnitude = np.abs(spectrum, out=out)
    return np.square(magnitude, out=magnitude)


def mel_filterbank(cfg: FeatureConfig) -> FilterbankMatrix:
    """Build triangular mel filters with centers equally spaced on the mel
    scale between 0 Hz and Nyquist.

    Centers snap to the nearest DFT bin so every triangle peaks at exactly
    1.0; triangle c spans from center c-1 to center c+1 (band edges for the
    first and last).
    """
    half = cfg.fft_size // 2
    nyquist = cfg.sample_rate_hz / 2.0
    grid_mel = np.linspace(0.0, float(hz_to_mel(nyquist)), cfg.num_channels + 2)
    grid_hz = mel_to_hz(grid_mel)
    grid_bins = np.rint(grid_hz * cfg.fft_size / cfg.sample_rate_hz).astype(np.int64)
    grid_bins[0] = 0
    grid_bins[-1] = half
    if np.any(np.diff(grid_bins) < 1):
        raise ValueError(
            f"{cfg.num_channels} channels collapse adjacent centers onto one DFT bin "
            f"(fft_size={cfg.fft_size}, rate={cfg.sample_rate_hz})"
        )

    weights = np.zeros((cfg.num_channels, half + 1))
    bins = np.arange(half + 1, dtype=np.float64)
    for c in range(cfg.num_channels):
        left, center, right = grid_bins[c], grid_bins[c + 1], grid_bins[c + 2]
        rising = (bins > left) & (bins <= center)
        falling = (bins > center) & (bins < right)
        weights[c, rising] = (bins[rising] - left) / (center - left)
        weights[c, falling] = (right - bins[falling]) / (right - center)

    center_freqs = grid_bins[1:-1] * cfg.sample_rate_hz / cfg.fft_size
    return FilterbankMatrix(weights=weights, center_freqs_hz=center_freqs.astype(np.float64))


def filterbank_energies(
    source: Waveform | WavReader,
    cfg: FeatureConfig,
    filterbank: FilterbankMatrix | None = None,
) -> EnergyMatrix:
    """Full front end: framing, Hamming windowing, power spectrum, mel sum.

    source is a Waveform, or an open WavReader whose samples are read one
    block's span at a time (read_wav into one reused float32 buffer), so no
    whole-utterance sample array exists; both give the same bits for the
    same samples. A precomputed FilterbankMatrix may be shared read-only
    across calls.

    Runs BLOCK_FRAMES frames at a time. When M > BLOCK_FRAMES the last block
    is the final BLOCK_FRAMES frames, overlapping the one before it: every
    mel matmul then has the same height, so each row gets the same bits as
    from one whole-utterance matmul (BLAS may round a short block's rows
    differently). That last block reads and transforms only its new frames:
    the power rows it shares with the block before are moved to its head in
    place, so every frame's spectrum is computed once. Power rows are
    filled SUB_BLOCK_FRAMES at a time: the windowed frames are written,
    promoted to float64 exactly, into the first L columns of a zeroed
    (sub-block, fft_size) workspace whose other columns stay zero, so the
    FFT sees the zero-padded frames and needs no padding copy of its own.
    """
    if filterbank is None:
        filterbank = mel_filterbank(cfg)
    length, hop = cfg.window_samples, cfg.hop_samples
    _check_length(source.num_samples, cfg, source.utterance_id)
    num_frames = 1 + (source.num_samples - length) // hop
    window = hamming_window(length)
    weights_t = filterbank.weights.T
    energies = np.empty((num_frames, filterbank.num_channels))
    block_rows = min(num_frames, BLOCK_FRAMES)
    span = (block_rows - 1) * hop + length
    streamed = isinstance(source, WavReader)
    samples = np.empty(span, dtype=np.float32) if streamed else None
    bins = cfg.fft_size // 2 + 1
    power = np.empty((block_rows, bins))
    # one flat view, so the overlapping row move below copies front to back
    # in place (numpy buffers an overlapping 2-D assignment in a temporary)
    power_flat = power.reshape(-1)
    workspace = np.zeros((min(block_rows, SUB_BLOCK_FRAMES), cfg.fft_size))
    for start in range(0, num_frames, BLOCK_FRAMES):
        new = min(BLOCK_FRAMES, num_frames - start)
        kept = block_rows - new
        if kept:
            power_flat[: kept * bins] = power_flat[new * bins :]
        lo = start * hop
        hi = lo + (new - 1) * hop + length
        if streamed:
            block = read_wav(source, lo, hi, out=samples)
        else:
            block = Waveform(source.samples[lo:hi], source.sample_rate_hz, source.utterance_id)
        frames = frame_signal(block, cfg)
        for row in range(0, new, SUB_BLOCK_FRAMES):
            rows = min(SUB_BLOCK_FRAMES, new - row)
            np.multiply(frames[row : row + rows], window, out=workspace[:rows, :length])
            tail = power[kept + row : kept + row + rows]
            power_spectrum(workspace[:rows], cfg.fft_size, out=tail)
        stop = start + new
        np.matmul(power, weights_t, out=energies[stop - block_rows : stop])
    return EnergyMatrix(values=energies, utterance_id=source.utterance_id)
