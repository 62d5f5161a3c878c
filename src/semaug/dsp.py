"""Waveform to mel filterbank energy extraction.

The front end frames the signal with a symmetric Hamming window, takes the
squared-magnitude DFT (unscaled forward transform, zero-padded to the FFT
size) and sums it through triangular mel filters:

    energy[m, c] = sum_k |X[m, k]|^2 * W[c, k],   k = 0 .. K/2

No pre-emphasis and no dithering are applied. There is one front end,
FeatureConfig: its values are constants, so mel_filterbank builds one
filterbank per process and every call shares it, as every call shares one
Hamming window.

Frames are processed in blocks of BLOCK_FRAMES (512) rows, each block's
energies written into a preallocated result of whole blocks, whose first M
rows are the (M, C) output, so the peak memory of one utterance is
O(block) above its output rather than O(utterance): no whole-utterance
spectrum exists, and the samples of an open WAV file are read one block's
span at a time into one reused buffer. Within a block the window and FFT
run SUB_BLOCK_FRAMES (64) rows at a time through one zero-padded float64
workspace; only the block's power spectrum, the input of its mel matmul,
is held at full block height. Every frame is read and transformed once; a
final partial block zeroes its power rows past its new frames, and its
matmul runs on into at most 511 padding rows.

Given a thread count T, the calling thread and up to T - 1 helper
threads that share starts for the call claim an utterance's blocks in
order, each thread with its own block buffers (about 1.6 MB); every block
is computed as it would be serially, so the bits do not depend on which
thread takes it. share is also the CLI's loop over files, the package's
one fan-out. At T = 1, the default, the front end runs serially.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .audio_io import WavReader, Waveform, read_wav
from .errors import BadAudio

# Frames per block of the front end: the height of every mel matmul, which
# fixes its bits, and of the block's 512 x 257 float64 power spectrum (1.05 MB).
# Some OpenBLAS kernels round the rows of an odd-height product otherwise than
# those of a tall one, so the final partial block is padded to this height
# rather than cut short.
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
    """The one front end: 25 ms Hamming windows, 10 ms hop, 40 mel channels
    on 16 kHz audio, power-law exponent 1/15.

    Its values are class constants; every instance compares and hashes equal.
    """

    window_samples = 400
    hop_samples = 160
    fft_size = 512
    num_channels = 40
    sample_rate_hz = 16000
    power_exponent = 1.0 / 15.0


@dataclass(frozen=True)
class FeatureMatrix:
    """An utterance's (M, C) matrix: filterbank_energies fills it with the
    per-frame, per-channel filterbank energies (all entries >= 0), and
    features.power_mel, features.normalize and the masks of semaug.masking
    turn those energies into its features in place."""

    values: np.ndarray
    utterance_id: str

    @property
    def num_channels(self) -> int:
        return int(self.values.shape[1])


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming window w[n] = 0.54 - 0.46*cos(2*pi*n/(length-1))."""
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


@functools.cache
def _analysis_window(cfg: FeatureConfig) -> np.ndarray:
    """The front end's Hamming window, built once per process and shared
    by every block of every utterance: read-only, like mel_filterbank's
    weights."""
    window = hamming_window(cfg.window_samples)
    window.flags.writeable = False
    return window


def multi_block(num_samples: int, cfg: FeatureConfig) -> bool:
    """Whether num_samples samples make two or more whole blocks of frames
    (2 * BLOCK_FRAMES = 1024 frames, about 10.3 s): the only utterances
    whose front end the CLI gives threads of its own."""
    return num_samples >= cfg.window_samples + (2 * BLOCK_FRAMES - 1) * cfg.hop_samples


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


@functools.cache
def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Triangular mel filter weights, one row per channel: a read-only
    (num_channels, fft_size/2 + 1) array, entries in [0, 1].

    Centers are equally spaced on the mel scale between 0 Hz and Nyquist and
    snap to the nearest DFT bin, so every triangle peaks at exactly 1.0;
    triangle c spans from center c-1 to center c+1 (band edges for the first
    and last). Built once per process and shared.
    """
    half = cfg.fft_size // 2
    nyquist = cfg.sample_rate_hz / 2.0
    grid_mel = np.linspace(0.0, float(hz_to_mel(nyquist)), cfg.num_channels + 2)
    grid_hz = mel_to_hz(grid_mel)
    grid_bins = np.rint(grid_hz * cfg.fft_size / cfg.sample_rate_hz).astype(np.int64)
    grid_bins[0] = 0
    grid_bins[-1] = half

    weights = np.zeros((cfg.num_channels, half + 1))
    bins = np.arange(half + 1, dtype=np.float64)
    for c in range(cfg.num_channels):
        left, center, right = grid_bins[c], grid_bins[c + 1], grid_bins[c + 2]
        rising = (bins > left) & (bins <= center)
        falling = (bins > center) & (bins < right)
        weights[c, rising] = (bins[rising] - left) / (center - left)
        weights[c, falling] = (right - bins[falling]) / (right - center)
    weights.flags.writeable = False
    return weights


def filterbank_energies(
    source: Waveform | WavReader,
    cfg: FeatureConfig,
    threads: int = 1,
) -> FeatureMatrix:
    """Full front end: framing, Hamming windowing, power spectrum, mel sum.

    source is a Waveform, or an open WavReader whose samples are read one
    block's span at a time (read_wav into a reused float32 buffer), so no
    whole-utterance sample array exists; both give the same bits for the
    same samples. A source at another sample rate than cfg's raises
    BadAudio before anything is allocated.

    Runs BLOCK_FRAMES frames at a time into an energy buffer of whole blocks
    (just M rows when M < BLOCK_FRAMES) and returns its first M rows. Every
    mel matmul has the same height, the final partial block's too, so each
    row gets the bits of a BLOCK_FRAMES-row product (of one M-row product
    when M < BLOCK_FRAMES); some OpenBLAS kernels round the rows of another
    height's product, a whole-utterance one too, otherwise. That last block
    reads and transforms only its new frames and zeroes the rest of its
    power rows, whose products land in padding rows that nothing reads.
    Power rows are filled SUB_BLOCK_FRAMES at a time: the windowed frames
    are written, promoted to float64 exactly, into the first L columns of a
    zeroed (sub-block, fft_size) workspace whose other columns stay zero,
    so the FFT sees the zero-padded frames and needs no padding copy of its
    own.

    The blocks are claimed in order through share by the calling thread
    and up to threads - 1 helpers, each with one set of block buffers
    allocated here on the calling thread; the lowest failed block's error
    is raised, as a serial run would raise it.
    """
    if source.sample_rate_hz != cfg.sample_rate_hz:
        name = source.path if isinstance(source, WavReader) else source.utterance_id
        raise BadAudio(
            f"{name}: sample rate {source.sample_rate_hz} != configured {cfg.sample_rate_hz}"
        )
    _check_length(source.num_samples, cfg, source.utterance_id)
    length, hop = cfg.window_samples, cfg.hop_samples
    num_frames = 1 + (source.num_samples - length) // hop
    block_rows = min(num_frames, BLOCK_FRAMES)
    num_blocks = -(-num_frames // block_rows)
    energies = np.empty((num_blocks * block_rows, cfg.num_channels))
    window = _analysis_window(cfg)
    weights_t = mel_filterbank(cfg).T
    streamed = isinstance(source, WavReader)
    span = (block_rows - 1) * hop + length
    claimers = min(threads, num_blocks)
    # one set per claiming thread, so a set is always free (a failed block
    # keeps its set, as its thread claims no other)
    free = [
        (
            np.empty(span, dtype=np.float32) if streamed else None,
            np.empty((block_rows, cfg.fft_size // 2 + 1)),
            np.zeros((min(block_rows, SUB_BLOCK_FRAMES), cfg.fft_size)),
        )
        for _ in range(claimers)
    ]

    def compute_block(index: int) -> None:
        samples, power, workspace = free.pop()
        start = index * block_rows
        new = min(block_rows, num_frames - start)
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
            power_spectrum(workspace[:rows], cfg.fft_size, out=power[row : row + rows])
        power[new:] = 0.0
        np.matmul(power, weights_t, out=energies[start : start + block_rows])
        free.append((samples, power, workspace))

    share(range(num_blocks), compute_block, claimers)
    return FeatureMatrix(values=energies[:num_frames], utterance_id=source.utterance_id)


def share(indices, run, threads: int) -> None:
    """Call run(index) for each of indices, claimed in order by the calling
    thread and min(threads, len(indices)) - 1 helper threads started for
    this call, which have all ended when it returns or raises. An
    exception that escapes run ends all claims; of those, the lowest
    index's is raised, as a serial run would, every lower index having
    been claimed first and ended, except that an interrupt (a
    BaseException that is no Exception) outranks every error. One of the
    calling thread outside run propagates as it is. The calling thread
    always takes part: a helper in its place would bring a malloc arena of
    its own, 3.6 MB more peak RSS on a 600 s file.
    """
    claims = iter(indices)
    lock = threading.Lock()
    done = threading.Event()
    failures = {}

    def claim_until_done() -> None:
        while not done.is_set():
            with lock:
                index = next(claims, None)
            if index is None:
                return
            try:
                run(index)
            except BaseException as exc:
                failures[index] = exc
                done.set()

    started = []
    try:
        for _ in range(min(threads, len(indices)) - 1):
            helper = threading.Thread(target=claim_until_done, name="semaug-helper")
            helper.start()
            started.append(helper)
        claim_until_done()
    finally:
        done.set()
        for helper in started:
            helper.join()
    if failures:
        interrupts = [index for index, exc in failures.items() if not isinstance(exc, Exception)]
        raise failures[min(interrupts or failures)]
