"""WAV input/output and deterministic waveform fixtures.

Only 16-bit mono linear PCM is accepted, tagged plain PCM or
WAVE_FORMAT_EXTENSIBLE with the PCM subformat; resampling and multi-channel
mixing are out of scope. Peak amplitude normalization is deliberately
not performed.
"""

from __future__ import annotations

import os
import struct
import threading
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadAudio

# 16-bit PCM full scale; raw integers map to [-1.0, 1.0).
PCM_SCALE = 32768.0

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# the extensible subformat GUID of integer PCM, as stored in the file
KSDATAFORMAT_SUBTYPE_PCM = bytes.fromhex("0100000000001000800000aa00389b71")
# fmt chunk bytes: tag, channels, rate, byte rate, block align, bits per
# sample; the extensible form adds cbSize, valid bits, channel mask, GUID
_FMT_PCM_SIZE = 16
_FMT_EXTENSIBLE_SIZE = 40

@dataclass(frozen=True)
class Waveform:
    """Mono amplitude sequence with its sample rate and an utterance label.

    samples is a 1-D float32 or float64 array. read_wav returns float32:
    every 16-bit PCM value divided by 32768 needs at most 15 significant
    bits, so float32 holds it exactly at half the memory of float64. The
    synthesized fixtures are float64.
    """

    samples: np.ndarray
    sample_rate_hz: int
    utterance_id: str

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)


class WavReader:
    """A 16-bit mono PCM WAV file, open for reading its samples by span.

    Opening parses and validates the RIFF header once, with every check
    read_wav makes; read_wav then reads spans of samples through it (see
    there), so a long file can be read block by block with no
    whole-utterance sample array. Chunks other than `fmt ` and `data` are
    skipped, with the pad byte that follows an odd-sized chunk. A data chunk
    cut short by the end of the file holds the samples that are there; no
    header read asks for more than the file holds. Span reads may come from
    several threads at once: each one's seek and read run under the
    reader's lock. Close it, or use it as a context manager.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.utterance_id = self.path.stem
        self._handle = open(self.path, "rb")
        try:
            fmt, self._data_offset, data_size = self._parse_chunks()
            self.sample_rate_hz = self._check_fmt(fmt)
            if data_size == 0:
                raise BadAudio(f"{self.path}: no audio samples")
            if data_size % 2 != 0:
                raise BadAudio(f"{self.path}: truncated sample data")
        except BaseException:
            self._handle.close()
            raise
        self.num_samples = data_size // 2
        self._lock = threading.Lock()

    def _parse_chunks(self) -> tuple[bytes, int, int]:
        """The `fmt ` chunk, and the offset and readable size of the data chunk."""
        handle, path = self._handle, self.path
        file_size = os.fstat(handle.fileno()).st_size
        riff = handle.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise BadAudio(f"{path}: not a RIFF/WAVE file")
        fmt = None
        while True:
            header = handle.read(8)
            if len(header) < 8:
                raise BadAudio(f"{path}: truncated header, no data chunk")
            chunk_id, size = header[:4], int.from_bytes(header[4:], "little")
            if chunk_id == b"data":
                if fmt is None:
                    raise BadAudio(f"{path}: data chunk before fmt chunk")
                offset = handle.tell()
                return fmt, offset, min(size, file_size - offset)
            skip = size + size % 2
            if chunk_id == b"fmt ":
                fmt = handle.read(min(size, _FMT_EXTENSIBLE_SIZE))
                if len(fmt) < _FMT_PCM_SIZE:
                    raise BadAudio(f"{path}: truncated fmt chunk")
                skip -= len(fmt)
            handle.seek(skip, os.SEEK_CUR)

    def _check_fmt(self, fmt: bytes) -> int:
        """The sample rate of a 16-bit mono PCM `fmt ` chunk; raises otherwise."""
        path = self.path
        tag, num_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
        if tag == WAVE_FORMAT_EXTENSIBLE:
            if len(fmt) < _FMT_EXTENSIBLE_SIZE:
                raise BadAudio(f"{path}: truncated extensible fmt chunk")
            subformat = fmt[_FMT_EXTENSIBLE_SIZE - 16 : _FMT_EXTENSIBLE_SIZE]
            if subformat != KSDATAFORMAT_SUBTYPE_PCM:
                raise BadAudio(
                    f"{path}: extensible subformat {subformat.hex()} is not PCM"
                )
        elif tag != WAVE_FORMAT_PCM:
            raise BadAudio(f"{path}: format tag {tag:#06x} is not PCM")
        sample_width = (bits + 7) // 8
        if rate == 0 or num_channels == 0 or sample_width == 0:
            raise BadAudio(
                f"{path}: {num_channels} channels of {bits}-bit samples at {rate} Hz"
            )
        if num_channels != 1:
            raise BadAudio(f"{path}: expected mono, got {num_channels} channels")
        if sample_width != 2:
            raise BadAudio(
                f"{path}: expected 16-bit samples, got {8 * sample_width}-bit"
            )
        return rate

    def _read(self, start: int, count: int) -> np.ndarray:
        """The count samples from `start` on, as a new float32 array: one seek
        and one readinto of the raw integers into an array of this call's own.

        The handle's position is shared, so the seek and the read hold the
        reader's lock; the samples are scaled after it.
        """
        pcm = np.empty(count, dtype="<i2")
        with self._lock:
            self._handle.seek(self._data_offset + 2 * start)
            read = self._handle.readinto(pcm)
        if read != pcm.nbytes:
            raise BadAudio(f"{self.path}: sample data ends early")
        return np.divide(pcm, np.float32(PCM_SCALE), dtype=np.float32)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_wav(
    wav: str | Path | WavReader, start: int = 0, stop: int | None = None
) -> Waveform:
    """Read samples [start, stop) of a 16-bit mono PCM WAV file as float32.

    wav is a path, opened for this one call, or an open WavReader, whose
    header was parsed when it was opened. The format tag is PCM (1), or
    WAVE_FORMAT_EXTENSIBLE (0xFFFE) with the PCM subformat. stop defaults to
    the end of the data. Samples are the raw integers divided by 32768,
    exactly (see Waveform), whatever the span, in a new array of this
    call's own; the utterance id is the file stem.
    """
    if not isinstance(wav, WavReader):
        with WavReader(wav) as reader:
            return read_wav(reader, start, stop)
    stop = wav.num_samples if stop is None else stop
    if not 0 <= start <= stop <= wav.num_samples:
        raise ValueError(f"span [{start}, {stop}) outside [0, {wav.num_samples})")
    return Waveform(wav._read(start, stop - start), wav.sample_rate_hz, wav.utterance_id)


def write_wav(path: str | Path, waveform: Waveform) -> None:
    """Write a waveform as 16-bit mono PCM (the fixture writer).

    Amplitudes already on the 1/32768 grid round-trip bit-exactly through
    read_wav.
    """
    ints = np.clip(
        np.rint(np.asarray(waveform.samples, dtype=np.float64) * PCM_SCALE),
        -32768,
        32767,
    ).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(waveform.sample_rate_hz)
        handle.writeframes(ints.tobytes())


def synth_speech_like(
    duration_s: float,
    sample_rate_hz: int = 16000,
    seed: int = 0,
    utterance_id: str | None = None,
) -> Waveform:
    """Synthesize a deterministic speech-like waveform.

    A continuously voiced harmonic carrier (drifting pitch, two random
    formant peaks) with a syllabic amplitude envelope, short pauses, and
    fricative noise bursts rides on a low broadband noise floor. The
    voicing is dense so the energy distribution has a speech-like top
    end rather than isolated peaks. Deterministic per
    (duration_s, sample_rate_hz, seed).
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    # Salted so the stream differs from a plain default_rng(seed).
    rng = np.random.default_rng([seed, 0x5EE])
    num = int(round(duration_s * sample_rate_hz))
    t = np.arange(num) / sample_rate_hz

    sig = rng.normal(0.0, 1.5e-3, size=num)  # background floor, keeps bins nonzero

    # Voiced carrier: harmonics of a slowly drifting pitch.
    f0 = rng.uniform(100.0, 220.0)
    drift = 1.0 + 0.08 * np.sin(2.0 * np.pi * rng.uniform(0.3, 0.8) * t + rng.uniform(0, 2 * np.pi))
    inst_freq = f0 * drift * (1.0 + 0.02 * np.sin(2.0 * np.pi * 5.0 * t))
    base_phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate_hz
    formant1 = rng.uniform(300.0, 900.0)
    formant2 = rng.uniform(1000.0, 2500.0)
    voiced = np.zeros(num)
    for h in range(1, 13):
        freq = h * f0
        if freq >= 0.45 * sample_rate_hz:
            break
        weight = (1.0 / h) * (
            1.0
            + 2.0 * np.exp(-(((freq - formant1) / 200.0) ** 2))
            + 1.5 * np.exp(-(((freq - formant2) / 350.0) ** 2))
        )
        voiced += weight * np.sin(h * base_phase + rng.uniform(0.0, 2.0 * np.pi))
    voiced /= np.max(np.abs(voiced))

    # Syllabic envelope: 3-4 Hz modulation with audible but bounded dips.
    syllable_rate = rng.uniform(2.8, 4.0)
    envelope = 0.62 + 0.38 * np.sin(2.0 * np.pi * syllable_rate * t + rng.uniform(0, 2 * np.pi))
    envelope *= rng.uniform(0.2, 0.35)

    # Short pauses where the voicing drops to near the floor.
    for _ in range(rng.integers(2, 4)):
        pause_len = int(rng.uniform(0.08, 0.18) * sample_rate_hz)
        if pause_len >= num:
            continue
        start = rng.integers(0, num - pause_len)
        dip = 1.0 - 0.99 * np.hanning(pause_len)
        envelope[start : start + pause_len] *= dip

    sig += envelope * voiced

    # Fricative bursts: band-shaped noise around a random high-band center.
    for _ in range(max(1, int(round(duration_s * rng.uniform(0.8, 1.5))))):
        length = min(num, max(32, int(rng.uniform(0.06, 0.15) * sample_rate_hz)))
        start = rng.integers(0, num - length + 1)
        noise = rng.normal(0.0, 1.0, size=length)
        spectrum = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(length, d=1.0 / sample_rate_hz)
        center = rng.uniform(2000.0, 6000.0)
        width = rng.uniform(800.0, 2000.0)
        spectrum *= np.exp(-(((freqs - center) / width) ** 2))
        burst = np.fft.irfft(spectrum, n=length)
        peak = np.max(np.abs(burst))
        if peak > 0:
            sig[start : start + length] += (
                rng.uniform(0.05, 0.12) * np.hanning(length) * burst / peak
            )

    # Soft limiter: compresses syllable peaks the way recording chains do,
    # which keeps the loudest time-frequency bins densely clustered.
    sig = 0.42 * np.tanh(sig / 0.24)

    np.clip(sig, -0.999, 0.999, out=sig)
    if utterance_id is None:
        utterance_id = f"speech_like_{seed}"
    return Waveform(samples=sig, sample_rate_hz=sample_rate_hz, utterance_id=utterance_id)
