"""WAV parsing, the fixture writer, and deterministic synthesis."""

import struct
import sys
import threading
import wave

import numpy as np
import pytest

from semaug import (
    FeatureConfig,
    Waveform,
    WavReader,
    filterbank_energies,
    read_wav,
)
from semaug import cli, dsp
from semaug.audio_io import (
    KSDATAFORMAT_SUBTYPE_PCM,
    WAVE_FORMAT_EXTENSIBLE,
    synth_fixture,
    synth_speech_like,
    write_wav,
)
from semaug.errors import BadAudio, SemaugError

# KSDATAFORMAT_SUBTYPE_IEEE_FLOAT, as stored in the file
FLOAT_SUBFORMAT = bytes.fromhex("0300000000001000800000aa00389b71")


def _write_pcm(path, ints, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(sampwidth)
        handle.setframerate(rate)
        handle.writeframes(np.asarray(ints, dtype="<i2").tobytes())


def _chunk(chunk_id, body):
    """One RIFF chunk, with the pad byte an odd-sized body needs."""
    return chunk_id + struct.pack("<I", len(body)) + body + bytes(len(body) % 2)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _extensible_fmt(subformat, channels=1, bits=16):
    block = channels * bits // 8
    return struct.pack(
        "<HHIIHHHHI", WAVE_FORMAT_EXTENSIBLE, channels, 16000, 16000 * block, block, bits,
        22, bits, 0x4,
    ) + subformat


class TestReadWav:
    def test_zero_file(self, tmp_path):
        path = tmp_path / "zeros.wav"
        _write_pcm(path, np.zeros(400, dtype=np.int16))
        wav = read_wav(path)
        assert wav.num_samples == 400
        assert wav.sample_rate_hz == 16000
        assert np.all(wav.samples == 0.0)
        assert wav.utterance_id == "zeros"

    def test_integer_scaling(self, tmp_path):
        path = tmp_path / "half.wav"
        _write_pcm(path, [16384, -16384, 0, 32767])
        wav = read_wav(path)
        assert wav.samples[0] == 0.5
        assert wav.samples[1] == -0.5
        assert wav.samples[3] == 32767 / 32768.0

    def test_float32_samples_exact(self, tmp_path):
        path = tmp_path / "grid.wav"
        ints = np.arange(-32768, 32768, dtype=np.int64)
        _write_pcm(path, ints)
        wav = read_wav(path)
        assert wav.samples.dtype == np.float32
        assert np.array_equal(wav.samples, ints / 32768.0)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_pcm(path, np.zeros(200, dtype=np.int16), channels=2)
        with pytest.raises(BadAudio, match="expected mono"):
            read_wav(path)

    def test_rejects_8bit(self, tmp_path):
        path = tmp_path / "eight.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(1)
            handle.setframerate(16000)
            handle.writeframes(bytes(100))
        with pytest.raises(BadAudio, match="expected 16-bit"):
            read_wav(path)

    def test_rejects_non_pcm(self, tmp_path):
        # Hand-built RIFF with IEEE-float format tag (3).
        path = tmp_path / "float.wav"
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        data = bytes(16)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(data)) + data
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(BadAudio, match="format tag 0x0003 is not PCM"):
            read_wav(path)

    def test_extensible_pcm_reads_like_plain_pcm(self, tmp_path):
        ints = np.random.default_rng(3).integers(-32768, 32768, size=300).astype("<i2")
        plain = tmp_path / "plain.wav"
        _write_pcm(plain, ints)
        extensible = tmp_path / "extensible.wav"
        extensible.write_bytes(
            _riff(_chunk(b"fmt ", _extensible_fmt(KSDATAFORMAT_SUBTYPE_PCM)),
                  _chunk(b"data", ints.tobytes()))
        )
        wav = read_wav(extensible)
        assert wav.sample_rate_hz == 16000
        assert wav.samples.dtype == np.float32
        assert np.array_equal(wav.samples, read_wav(plain).samples)

    def test_rejects_extensible_float(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(
            _riff(_chunk(b"fmt ", _extensible_fmt(FLOAT_SUBFORMAT, bits=32)),
                  _chunk(b"data", bytes(16)))
        )
        with pytest.raises(BadAudio, match="extensible subformat .* is not PCM"):
            read_wav(path)

    def test_rejects_extensible_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(
            _riff(_chunk(b"fmt ", _extensible_fmt(KSDATAFORMAT_SUBTYPE_PCM, channels=2)),
                  _chunk(b"data", bytes(16)))
        )
        with pytest.raises(BadAudio, match="expected mono"):
            read_wav(path)

    def test_rejects_truncated_extensible_fmt(self, tmp_path):
        path = tmp_path / "short.wav"
        fmt = _extensible_fmt(KSDATAFORMAT_SUBTYPE_PCM)[:24]
        path.write_bytes(_riff(_chunk(b"fmt ", fmt), _chunk(b"data", bytes(16))))
        with pytest.raises(BadAudio, match="truncated extensible fmt chunk"):
            read_wav(path)

    def test_skips_odd_sized_unknown_chunks(self, tmp_path):
        ints = np.array([1, -2, 300, -32768], dtype="<i2")
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        path = tmp_path / "chunks.wav"
        path.write_bytes(
            _riff(_chunk(b"LIST", b"odd"), _chunk(b"fmt ", fmt), _chunk(b"fact", b"x"),
                  _chunk(b"data", ints.tobytes()), _chunk(b"LIST", b"trailer"))
        )
        assert np.array_equal(read_wav(path).samples, ints / 32768.0)

    @pytest.mark.parametrize("field", ["rate", "channels", "bits"])
    def test_rejects_zero_header_field(self, tmp_path, field):
        values = {"rate": 16000, "channels": 1, "bits": 16, field: 0}
        fmt = struct.pack(
            "<HHIIHH", 1, values["channels"], values["rate"], 32000, 2, values["bits"]
        )
        path = tmp_path / "zero.wav"
        path.write_bytes(_riff(_chunk(b"fmt ", fmt), _chunk(b"data", bytes(8))))
        with pytest.raises(BadAudio, match="channels of .*-bit samples at"):
            read_wav(path)

    def test_rejects_data_before_fmt(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        path = tmp_path / "order.wav"
        path.write_bytes(_riff(_chunk(b"data", bytes(8)), _chunk(b"fmt ", fmt)))
        with pytest.raises(BadAudio, match="data chunk before fmt chunk"):
            read_wav(path)

    @pytest.mark.parametrize("size", [4, 12, 20, 30])
    def test_rejects_truncated_header(self, tmp_path, size):
        path = tmp_path / "cut.wav"
        _write_pcm(path, np.zeros(10, dtype=np.int16))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(BadAudio):
            read_wav(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"this is not a wav file at all")
        with pytest.raises(BadAudio, match="not a RIFF/WAVE file"):
            read_wav(path)

    def test_rejects_empty_audio(self, tmp_path):
        path = tmp_path / "empty.wav"
        _write_pcm(path, np.zeros(0, dtype=np.int16))
        with pytest.raises(BadAudio, match="no audio samples"):
            read_wav(path)


_PCM_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


def _wav_file_bytes(kind, ints):
    """A valid 16-bit mono WAV of the given integers, in one of four layouts."""
    data = np.asarray(ints, dtype="<i2").tobytes()
    if kind == "plain":
        return _riff(_chunk(b"fmt ", _PCM_FMT), _chunk(b"data", data))
    if kind == "extensible":
        return _riff(_chunk(b"fmt ", _extensible_fmt(KSDATAFORMAT_SUBTYPE_PCM)),
                     _chunk(b"data", data))
    if kind == "odd_chunk":
        return _riff(_chunk(b"LIST", b"odd"), _chunk(b"fmt ", _PCM_FMT),
                     _chunk(b"fact", b"x"), _chunk(b"data", data))
    if kind == "truncated":  # the data chunk claims more bytes than the file holds
        header = b"data" + struct.pack("<I", len(data) + 1000)
        return _riff(_chunk(b"fmt ", _PCM_FMT)) + header + data
    raise ValueError(kind)


def _stream_cases():
    for kind in ("plain", "extensible", "odd_chunk", "truncated"):
        # block sizes below, at and above the default for plain PCM
        blocks = (16, dsp.BLOCK_FRAMES, 4 * dsp.BLOCK_FRAMES) if kind == "plain" else (16,)
        for block in blocks:
            for num_frames in (1, block - 1, block, block + 1, 2 * block + 3):
                yield kind, block, num_frames


# (name, file bytes): every one is rejected while the header is read
_MALFORMED = [
    ("garbage", b"this is not a wav file at all"),
    ("riff_only", b"RIFF"),
    ("no_chunks", _riff()),
    ("cut_fmt_header", _riff()[:12] + b"fmt \x10\x00"),
    ("short_fmt", _riff(_chunk(b"fmt ", _PCM_FMT[:10]), _chunk(b"data", bytes(8)))),
    ("fmt_past_end", _riff() + b"fmt " + struct.pack("<I", 1000) + _PCM_FMT),
    ("unknown_past_end", _riff(_chunk(b"fmt ", _PCM_FMT)) + b"LIST" + struct.pack("<I", 1 << 30)),
    ("data_before_fmt", _riff(_chunk(b"data", bytes(8)), _chunk(b"fmt ", _PCM_FMT))),
    ("stereo", _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 2, 16000, 64000, 4, 16)),
                     _chunk(b"data", bytes(8)))),
    ("8bit", _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 16000, 1, 8)),
                   _chunk(b"data", bytes(8)))),
    ("float_tag", _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)),
                        _chunk(b"data", bytes(8)))),
    ("extensible_float", _riff(_chunk(b"fmt ", _extensible_fmt(FLOAT_SUBFORMAT, bits=32)),
                               _chunk(b"data", bytes(16)))),
    ("short_extensible", _riff(_chunk(b"fmt ", _extensible_fmt(KSDATAFORMAT_SUBTYPE_PCM)[:24]),
                               _chunk(b"data", bytes(16)))),
    ("zero_rate", _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 0, 32000, 2, 16)),
                        _chunk(b"data", bytes(8)))),
    ("zero_channels", _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 0, 16000, 32000, 2, 16)),
                            _chunk(b"data", bytes(8)))),
    ("zero_bits", _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 0)),
                        _chunk(b"data", bytes(8)))),
    ("empty_data", _riff(_chunk(b"fmt ", _PCM_FMT), _chunk(b"data", b""))),
    ("data_at_end", _riff(_chunk(b"fmt ", _PCM_FMT)) + b"data" + struct.pack("<I", 800)),
    ("odd_data", _riff(_chunk(b"fmt ", _PCM_FMT), _chunk(b"data", bytes(801)))),
]


class TestWavReader:
    def test_spans_match_whole_read(self, tmp_path):
        ints = np.random.default_rng(11).integers(-32768, 32768, size=1000)
        path = tmp_path / "span.wav"
        path.write_bytes(_wav_file_bytes("odd_chunk", ints))
        whole = read_wav(path).samples
        out = np.full(400, np.nan, dtype=np.float32)
        with WavReader(path) as reader:
            assert reader.num_samples == 1000
            for start, stop in [(0, 1000), (0, 0), (5, 17), (999, 1000), (600, 1000)]:
                span = read_wav(reader, start, stop).samples
                assert span.dtype == np.float32
                assert np.array_equal(span, whole[start:stop])
            view = read_wav(reader, 100, 400, out=out).samples
            assert np.shares_memory(view, out)
            assert np.array_equal(view, whole[100:400])
            with pytest.raises(ValueError, match=r"out holds 10 samples < the 1000 of span"):
                read_wav(reader, 0, 1000, out=np.empty(10, np.float32))
        with pytest.raises(ValueError, match=r"out holds 10 samples < the 1000 of span"):
            read_wav(path, 0, 1000, out=np.empty(10, np.float32))
        assert np.array_equal(read_wav(path, 7, 9).samples, whole[7:9])

    def test_interleaved_reads_from_two_threads_match_serial(self, tmp_path):
        # each thread reads its own spans into its own buffer through the one
        # reader, as the front end's ranges do; switching threads every few
        # microseconds interleaves one thread's seek with the other's read
        ints = np.random.default_rng(12).integers(-32768, 32768, size=20000)
        path = tmp_path / "shared.wav"
        path.write_bytes(_wav_file_bytes("plain", ints))
        whole = read_wav(path).samples
        rng = np.random.default_rng(13)
        starts = rng.integers(0, ints.size - 2000, size=5000)
        spans = list(zip(starts, starts + rng.integers(0, 2000, size=starts.size)))
        barrier = threading.Barrier(2, timeout=30)
        mismatches = []

        def read_spans(reader, order):
            out = np.empty(ints.size, dtype=np.float32)
            barrier.wait()
            for start, stop in spans[::order]:
                try:
                    got = read_wav(reader, start, stop, out=out).samples
                except BadAudio as exc:  # a read from another thread's position
                    got = exc
                if not np.array_equal(got, whole[start:stop]):
                    mismatches.append((start, stop))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WavReader(path) as reader:
                threads = [
                    threading.Thread(target=read_spans, args=(reader, order))
                    for order in (1, -1)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.parametrize("start,stop", [(-1, 5), (6, 5), (0, 1001)])
    def test_span_outside_data(self, tmp_path, start, stop):
        path = tmp_path / "span.wav"
        path.write_bytes(_wav_file_bytes("plain", np.zeros(1000)))
        with pytest.raises(ValueError):
            read_wav(path, start, stop)

    @pytest.mark.parametrize("kind,block,num_frames", list(_stream_cases()))
    def test_streamed_energies_match_whole_read(
        self, tmp_path, monkeypatch, kind, block, num_frames
    ):
        # the CLI's block-by-block read gives the bits of one whole read,
        # at the block edges and for every accepted layout
        monkeypatch.setattr(dsp, "BLOCK_FRAMES", block)
        if block < dsp.SUB_BLOCK_FRAMES:
            monkeypatch.setattr(dsp, "SUB_BLOCK_FRAMES", 5)
        cfg = FeatureConfig()
        num = (num_frames - 1) * cfg.hop_samples + cfg.window_samples + 77
        ints = np.random.default_rng(num_frames).integers(-32768, 32768, size=num)
        path = tmp_path / f"{kind}.wav"
        path.write_bytes(_wav_file_bytes(kind, ints))
        whole = filterbank_energies(read_wav(path), cfg)
        with WavReader(path) as reader:
            energies = filterbank_energies(reader, cfg)
        assert whole.num_frames == num_frames
        assert energies.utterance_id == kind
        assert np.array_equal(energies.values, whole.values)

    @pytest.mark.parametrize("name,content", _MALFORMED, ids=[name for name, _ in _MALFORMED])
    def test_cli_reader_raises_what_read_wav_raises(self, tmp_path, caplog, name, content):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        path = wavs / f"{name}.wav"
        path.write_bytes(content)
        with pytest.raises(SemaugError) as from_read_wav:
            read_wav(path)
        assert type(from_read_wav.value) is BadAudio
        # the one input fails, so stats finds an empty corpus
        assert cli.main(["stats", "--in", str(wavs), "--out", str(tmp_path / "d.csv")]) == 2
        failed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("failed on")]
        assert failed == [f"failed on {name}.wav: {from_read_wav.value}"]


class TestWriteWav:
    def test_quantized_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ints = rng.integers(-32768, 32768, size=500).astype(np.int16)
        original = Waveform(ints / 32768.0, 16000, "grid")
        path = tmp_path / "grid.wav"
        write_wav(path, original)
        recovered = read_wav(path)
        assert np.array_equal(recovered.samples, original.samples)

    def test_write_read_write_stabilizes(self, tmp_path):
        wav = synth_fixture("white_noise", 0.05, seed=4)
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        write_wav(first, wav)
        once = read_wav(first)
        write_wav(second, once)
        assert first.read_bytes() == second.read_bytes()


class TestSynthFixture:
    def test_silence(self):
        wav = synth_fixture("silence", 1.0, 16000, seed=99)
        assert wav.num_samples == 16000
        assert np.all(wav.samples == 0.0)

    def test_sine_is_deterministic(self):
        a = synth_fixture("sine", 1.0, 16000, seed=0)
        b = synth_fixture("sine", 1.0, 16000, seed=0)
        assert np.array_equal(a.samples, b.samples)

    def test_sine_expected_samples(self):
        wav = synth_fixture("sine", 0.01, 16000)
        t = np.arange(160) / 16000
        assert np.allclose(wav.samples, 0.5 * np.sin(2 * np.pi * 440.0 * t))

    def test_noise_seed_sensitivity(self):
        a = synth_fixture("white_noise", 1.0, 16000, seed=1)
        b = synth_fixture("white_noise", 1.0, 16000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_invalid_duration(self):
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            synth_fixture("sine", 0.0)
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            synth_fixture("sine", -1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_fixture("square", 1.0)

    @pytest.mark.parametrize("kind", ["sine", "white_noise", "chirp", "silence"])
    def test_amplitudes_in_range(self, kind):
        wav = synth_fixture(kind, 0.5, seed=3)
        assert np.all(np.abs(wav.samples) < 1.0)


class TestSpeechLike:
    def test_deterministic(self):
        a = synth_speech_like(1.0, seed=5)
        b = synth_speech_like(1.0, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_sensitivity(self):
        a = synth_speech_like(1.0, seed=5)
        b = synth_speech_like(1.0, seed=6)
        assert not np.array_equal(a.samples, b.samples)

    def test_nonsilent_and_bounded(self):
        wav = synth_speech_like(1.0, seed=7)
        assert np.max(np.abs(wav.samples)) < 1.0
        assert np.max(np.abs(wav.samples)) > 0.05

    def test_invalid_duration(self):
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            synth_speech_like(0.0)


def test_waveform_rejects_bad_rate():
    with pytest.raises(ValueError):
        Waveform(np.zeros(10), 0, "bad")
