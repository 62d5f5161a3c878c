"""Front-end tests: windowing, framing, spectra, mel filters, energies."""

import ast
import math
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from semaug import FeatureConfig, filterbank_energies, mel_filterbank
from semaug import cli, dsp
from semaug.audio_io import PCM_SCALE, WavReader, Waveform, write_wav
from semaug.dsp import (
    BLOCK_FRAMES,
    SUB_BLOCK_FRAMES,
    frame_signal,
    hamming_window,
    hz_to_mel,
    mel_to_hz,
    power_spectrum,
)
from semaug.errors import BadAudio
from conftest import front_end_oracle, run_python, synth_fixture, traced_peak


def direct_dft_power(frame, fft_size):
    """O(K^2) DFT-summation oracle for squared magnitudes at bins 0..K/2."""
    padded = np.zeros(fft_size)
    padded[: len(frame)] = frame
    bins = fft_size // 2 + 1
    out = np.empty(bins)
    n = np.arange(fft_size)
    for k in range(bins):
        angle = -2.0 * np.pi * k * n / fft_size
        real = float(np.sum(padded * np.cos(angle)))
        imag = float(np.sum(padded * np.sin(angle)))
        out[k] = real * real + imag * imag
    return out


# Run in a subprocess under one OpenBLAS kernel: the front end at T = 1 and
# T = 3, from a Waveform and from a WavReader, against conftest's
# front_end_oracle. Prints each case that differs.
_KERNEL_CHECK = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import numpy as np

    from conftest import front_end_oracle
    from semaug import FeatureConfig, filterbank_energies
    from semaug.audio_io import PCM_SCALE, WavReader, Waveform, write_wav

    cfg = FeatureConfig()
    for num_frames in (513, 1025, 2577):
        num = (num_frames - 1) * cfg.hop_samples + cfg.window_samples
        rng = np.random.default_rng(num_frames)
        samples = rng.integers(-3000, 3000, size=num) / PCM_SCALE
        oracle = front_end_oracle(samples, cfg)
        wav = Waveform(samples, cfg.sample_rate_hz, "kernel")
        path = Path(sys.argv[1]) / f"{num_frames}.wav"
        write_wav(path, wav)
        for threads in (1, 3):
            with WavReader(path) as reader:
                for name, source in (("waveform", wav), ("reader", reader)):
                    values = filterbank_energies(source, cfg, threads).values
                    if not np.array_equal(values, oracle):
                        print(num_frames, threads, name)
    """
)


class TestHammingWindow:
    def test_length_three(self):
        window = hamming_window(3)
        assert np.allclose(window, [0.08, 1.0, 0.08], atol=1e-12)

    @pytest.mark.parametrize("length", [2, 5, 64, 401])
    def test_symmetry(self, length):
        window = hamming_window(length)
        assert np.allclose(window, window[::-1], atol=0)

    def test_odd_length_peaks_at_exactly_one(self):
        window = hamming_window(401)
        assert window[200] == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(window) == 200

    def test_length_400_matches_direct_evaluation(self):
        # Even lengths peak between samples, so the maximum is slightly
        # below 1; freeze against scalar evaluation of the formula.
        window = hamming_window(400)
        expected = [0.54 - 0.46 * math.cos(2 * math.pi * n / 399) for n in range(400)]
        assert np.allclose(window, expected, atol=1e-15)
        assert window.max() == pytest.approx(0.54 - 0.46 * math.cos(2 * math.pi * 199 / 399), abs=1e-15)
        assert window.max() < 1.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            hamming_window(1)

    def test_front_end_builds_one_read_only_window(self, cfg, monkeypatch):
        # one window per process, not one per range of every utterance
        built = []
        build = dsp.hamming_window
        monkeypatch.setattr(
            dsp, "hamming_window", lambda length: built.append(length) or build(length)
        )
        dsp._analysis_window.cache_clear()
        num = (3 * BLOCK_FRAMES - 1) * cfg.hop_samples + cfg.window_samples
        wav = synth_fixture("white_noise", num / cfg.sample_rate_hz, seed=5, utterance_id="w")
        for _ in range(2):
            filterbank_energies(wav, cfg, 3)
        assert built == [cfg.window_samples]
        window = dsp._analysis_window(cfg)
        assert not window.flags.writeable
        assert np.array_equal(window, build(cfg.window_samples))


class TestFrameSignal:
    @pytest.mark.parametrize(
        "num_samples,length,hop,expected",
        [(400, 400, 160, 1), (560, 400, 160, 2), (16000, 400, 160, 98)],
    )
    def test_frame_counts(self, cfg, num_samples, length, hop, expected):
        assert (cfg.window_samples, cfg.hop_samples) == (length, hop)
        wav = Waveform(np.arange(num_samples, dtype=float), 16000, "n")
        frames = frame_signal(wav, cfg)
        assert frames.shape == (expected, length)

    def test_too_short(self, cfg):
        wav = Waveform(np.zeros(399), 16000, "short")
        with pytest.raises(BadAudio, match="< one window"):
            frame_signal(wav, cfg)

    def test_frame_count_formula_randomized(self, cfg):
        rng = np.random.default_rng(21)
        for _ in range(100):
            num = int(rng.integers(400, 4000))
            wav = Waveform(rng.normal(size=num), 16000, "r")
            frames = frame_signal(wav, cfg)
            assert frames.shape == (1 + (num - 400) // 160, 400)

    def test_frames_are_hops_apart(self, cfg):
        wav = Waveform(np.arange(1000, dtype=float), 16000, "ramp")
        frames = frame_signal(wav, cfg)
        assert np.array_equal(frames[0], np.arange(400))
        assert np.array_equal(frames[1], np.arange(160, 560))
        assert np.array_equal(frames[-1], np.arange(480, 880))

    def test_returns_read_only_view_of_samples(self, cfg):
        wav = Waveform(np.arange(16000, dtype=np.float64), 16000, "view")
        frames = frame_signal(wav, cfg)
        assert np.shares_memory(frames, wav.samples)
        assert not frames.flags.writeable

    def test_float32_samples_stay_float32_view(self, cfg):
        wav = Waveform(np.arange(16000, dtype=np.float32), 16000, "f32")
        frames = frame_signal(wav, cfg)
        assert frames.dtype == np.float32
        assert np.shares_memory(frames, wav.samples)

    def test_integer_samples_become_float64(self, cfg):
        wav = Waveform(np.arange(1000), 16000, "ints")
        frames = frame_signal(wav, cfg)
        assert frames.dtype == np.float64
        assert np.array_equal(frames[1], np.arange(160, 560))


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.all(power_spectrum(np.zeros(100), 512) == 0.0)

    def test_unit_impulse_flat(self):
        frame = np.zeros(8)
        frame[0] = 1.0
        assert np.allclose(power_spectrum(frame, 8), np.ones(5), atol=1e-15)

    def test_cosine_at_bin_concentrates(self):
        k = 4
        n = np.arange(16)
        frame = np.cos(2 * np.pi * k * n / 16)
        spectrum = power_spectrum(frame, 16)
        peak = spectrum[k]
        off_bins = np.delete(spectrum, k)
        assert peak == pytest.approx(64.0, rel=1e-12)
        assert np.all(off_bins < 1e-10 * peak)

    def test_frame_too_long(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(600), 512)

    def test_out_gives_the_same_bits(self):
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(SUB_BLOCK_FRAMES, 400)) * 1e3
        reference = np.abs(np.fft.rfft(frames, n=512)) ** 2
        out = np.full((SUB_BLOCK_FRAMES, 257), np.nan)
        returned = power_spectrum(frames, 512, out=out)
        assert returned is out
        assert np.array_equal(out, reference)
        assert np.array_equal(power_spectrum(frames, 512), reference)

    def test_matches_direct_dft_small(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            frame = rng.normal(size=48)
            fast = power_spectrum(frame, 64)
            slow = direct_dft_power(frame, 64)
            assert np.max(np.abs(fast - slow)) <= 1e-9 * slow.max()


class TestMelFilterbank:
    def test_built_once_and_read_only(self):
        bank = mel_filterbank(FeatureConfig())
        assert mel_filterbank(FeatureConfig()) is bank
        assert isinstance(bank, np.ndarray) and bank.shape == (40, 257)
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 0.5

    def test_rows_rise_then_fall(self, filterbank):
        for row in filterbank:
            peak = int(np.argmax(row))
            support = np.nonzero(row)[0]
            assert np.all(np.diff(row[support[0] : peak + 1]) > 0) or peak == support[0]
            assert np.all(np.diff(row[peak : support[-1] + 1]) < 0) or peak == support[-1]

    def test_rows_peak_at_exactly_one(self, filterbank):
        assert np.array_equal(filterbank.max(axis=1), np.ones(40))

    def test_weights_in_unit_interval(self, filterbank):
        assert filterbank.min() >= 0.0
        assert filterbank.max() <= 1.0

    def test_support_contiguous(self, filterbank):
        for row in filterbank:
            support = np.nonzero(row)[0]
            assert np.all(np.diff(support) == 1)

    def test_default_centers_against_mel_spacing(self, filterbank):
        # independent evaluation of the mel spacing formula
        edge_mels = np.linspace(0.0, hz_to_mel(8000.0), 42)
        exact_hz = mel_to_hz(edge_mels)[1:-1]
        bin_width = 16000 / 512
        # every triangle peaks at its center bin alone
        centers_hz = filterbank.argmax(axis=1) * bin_width
        assert np.all(np.diff(centers_hz) > 0)
        assert centers_hz[-1] < 8000.0
        assert np.max(np.abs(centers_hz - exact_hz)) <= bin_width / 2 + 1e-9


class TestFilterbankEnergies:
    def test_silence_is_zero(self, cfg):
        wav = synth_fixture("silence", 0.5)
        energies = filterbank_energies(wav, cfg)
        assert np.all(energies.values == 0.0)
        assert energies.num_channels == 40

    def test_gain_covariance(self, cfg):
        wav = synth_fixture("white_noise", 0.3, seed=9)
        base = filterbank_energies(wav, cfg).values
        for gain in (0.5, 3.0):
            scaled = Waveform(wav.samples * gain, wav.sample_rate_hz, wav.utterance_id)
            boosted = filterbank_energies(scaled, cfg).values
            assert np.max(np.abs(boosted - gain**2 * base)) <= 1e-9 * (gain**2 * base).max()

    def test_sine_peaks_in_covering_channel(self, cfg, filterbank):
        wav = synth_fixture("sine", 1.0)
        energies = filterbank_energies(wav, cfg).values
        sine_bin = round(440.0 * cfg.fft_size / cfg.sample_rate_hz)
        covering = int(np.argmax(filterbank[:, sine_bin]))
        assert np.all(np.argmax(energies, axis=1) == covering)

    def test_nonnegative(self, cfg):
        for seed in range(4):
            wav = synth_fixture("white_noise", 0.2, seed=seed)
            assert filterbank_energies(wav, cfg).values.min() >= 0.0

    @pytest.mark.parametrize(
        "num_frames",
        [
            1,
            SUB_BLOCK_FRAMES - 1,
            SUB_BLOCK_FRAMES,
            SUB_BLOCK_FRAMES + 1,
            # at and around one and four whole blocks: the last block has
            # from 1 to BLOCK_FRAMES new frames, the rest of it padding
            *(
                blocks * BLOCK_FRAMES + offset
                for blocks in (1, 4)
                for offset in (-1, 0, 1, SUB_BLOCK_FRAMES + 1)
            ),
            2 * BLOCK_FRAMES + 3,
            8 * BLOCK_FRAMES + 3,
        ],
    )
    def test_blocks_match_whole_utterance_bits(self, cfg, num_frames):
        rng = np.random.default_rng(num_frames)
        samples = rng.normal(size=(num_frames - 1) * cfg.hop_samples + cfg.window_samples)
        wav = Waveform(samples, cfg.sample_rate_hz, "blocks")
        energies = filterbank_energies(wav, cfg).values
        assert np.array_equal(energies, front_end_oracle(samples, cfg))

    @pytest.mark.parametrize(
        "num_frames",
        [
            BLOCK_FRAMES - 1,
            BLOCK_FRAMES,
            BLOCK_FRAMES + 1,
            2 * BLOCK_FRAMES + 3,
            5 * BLOCK_FRAMES + 17,
        ],
    )
    @pytest.mark.parametrize("streamed", [False, True], ids=["waveform", "reader"])
    def test_each_frame_transformed_once(
        self, cfg, tmp_path, monkeypatch, num_frames, streamed
    ):
        transformed = []

        def counting_power_spectrum(frame, fft_size, **kwargs):
            transformed.append(np.asarray(frame).shape[0])
            return power_spectrum(frame, fft_size, **kwargs)

        monkeypatch.setattr(dsp, "power_spectrum", counting_power_spectrum)
        num = (num_frames - 1) * cfg.hop_samples + cfg.window_samples
        wav = Waveform(
            np.random.default_rng(num_frames).integers(-3000, 3000, size=num) / PCM_SCALE,
            cfg.sample_rate_hz,
            "once",
        )
        if streamed:
            write_wav(tmp_path / "once.wav", wav)
            with WavReader(tmp_path / "once.wav") as reader:
                energies = filterbank_energies(reader, cfg)
        else:
            energies = filterbank_energies(wav, cfg)
        assert energies.values.shape[0] == num_frames
        assert sum(transformed) == num_frames

    @pytest.mark.parametrize("threads", [2, 3, 8])
    @pytest.mark.parametrize(
        "num_frames",
        [
            BLOCK_FRAMES + 1,
            2 * BLOCK_FRAMES - 1,
            2 * BLOCK_FRAMES,
            2 * BLOCK_FRAMES + 3,
            5 * BLOCK_FRAMES + 17,
        ],
    )
    @pytest.mark.parametrize("streamed", [False, True], ids=["waveform", "reader"])
    def test_ranges_on_a_pool_give_the_serial_bits(
        self, cfg, tmp_path, monkeypatch, num_frames, threads, streamed
    ):
        # its blocks claimed by up to `threads` threads, every frame is
        # still transformed once and every bit is the serial front end's
        transformed = []

        def counting_power_spectrum(frame, fft_size, **kwargs):
            transformed.append((np.asarray(frame).shape[0], threading.get_ident()))
            return power_spectrum(frame, fft_size, **kwargs)

        num = (num_frames - 1) * cfg.hop_samples + cfg.window_samples
        wav = Waveform(
            np.random.default_rng(num_frames).integers(-3000, 3000, size=num) / PCM_SCALE,
            cfg.sample_rate_hz,
            "ranges",
        )
        serial = filterbank_energies(wav, cfg).values
        monkeypatch.setattr(dsp, "power_spectrum", counting_power_spectrum)
        if streamed:
            write_wav(tmp_path / "ranges.wav", wav)
        if streamed:
            with WavReader(tmp_path / "ranges.wav") as reader:
                energies = filterbank_energies(reader, cfg, threads)
        else:
            energies = filterbank_energies(wav, cfg, threads)
        assert sum(rows for rows, _ in transformed) == num_frames
        blocks = -(-num_frames // BLOCK_FRAMES)
        assert len({thread for _, thread in transformed}) <= min(threads, blocks)
        assert dsp.multi_block(num, cfg) == (num_frames >= 2 * BLOCK_FRAMES)
        assert np.array_equal(energies.values, serial)

    @pytest.mark.skipif(not cli._openblas_thread_controls(), reason="no OpenBLAS")
    @pytest.mark.parametrize("coretype", ["Haswell", "Zen", "Prescott"])
    def test_blas_kernel_gives_each_row_the_bits_of_a_whole_block(self, tmp_path, coretype):
        # OpenBLAS kernels differ in how they round the rows of a product
        # whose height is not BLOCK_FRAMES; every product here has that height
        run = run_python(
            ["-c", _KERNEL_CHECK, str(tmp_path)], env={"OPENBLAS_CORETYPE": coretype}
        )
        assert (run.returncode, run.stdout) == (0, ""), run.stderr

    def test_a_busy_share_does_not_hold_the_front_end(self, cfg):
        # every thread of an outer share is inside run when it calls the
        # front end, so none of them is free to take a block: each call
        # starts a helper of its own rather than wait for one
        num = (3 * BLOCK_FRAMES - 1) * cfg.hop_samples + cfg.window_samples
        samples = np.random.default_rng(3).integers(-3000, 3000, size=num) / PCM_SCALE
        wav = Waveform(samples, cfg.sample_rate_hz, "busy")
        barrier = threading.Barrier(3, timeout=30)
        results = {}

        def run(index):
            barrier.wait()
            results[index] = filterbank_energies(wav, cfg, 2).values

        # a daemon, so that a hang fails this test rather than hold the process
        outer = threading.Thread(target=dsp.share, args=(range(3), run, 3), daemon=True)
        outer.start()
        outer.join(timeout=30)
        assert not outer.is_alive()
        assert sorted(results) == [0, 1, 2]
        oracle = front_end_oracle(samples, cfg)
        assert all(np.array_equal(values, oracle) for values in results.values())

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_lowest_failing_block_raises(self, cfg, tmp_path, monkeypatch, threads):
        # blocks 1 and 3 fail; block 1 fails late, so that at T > 1 block 3
        # fails first on another thread, yet block 1's error is the one raised
        num = (5 * BLOCK_FRAMES - 1) * cfg.hop_samples + cfg.window_samples
        write_wav(tmp_path / "fail.wav", synth_fixture(
            "white_noise", num / cfg.sample_rate_hz, seed=5, utterance_id="fail"
        ))
        block_span = BLOCK_FRAMES * cfg.hop_samples
        read = dsp.read_wav

        def read_or_fail(source, start, stop, out):
            block = start // block_span
            if block == 1:
                time.sleep(0.02)
            if block in (1, 3):
                raise BadAudio(f"block {block}")
            return read(source, start, stop, out=out)

        monkeypatch.setattr(dsp, "read_wav", read_or_fail)
        with WavReader(tmp_path / "fail.wav") as reader:
            for _ in range(5):
                with pytest.raises(BadAudio, match="^block 1$"):
                    filterbank_energies(reader, cfg, threads)

    @pytest.mark.parametrize(
        "num_frames", [SUB_BLOCK_FRAMES + 1, BLOCK_FRAMES + 3, 4 * BLOCK_FRAMES + 3]
    )
    def test_float32_samples_give_float64_bits(self, cfg, num_frames):
        # float32 holds every 16-bit PCM amplitude exactly, so the energies
        # must not depend on which of the two dtypes carries it
        rng = np.random.default_rng(num_frames)
        num = (num_frames - 1) * cfg.hop_samples + cfg.window_samples
        samples = rng.integers(-32768, 32768, size=num) / PCM_SCALE
        as64 = Waveform(samples, cfg.sample_rate_hz, "f64")
        as32 = Waveform(samples.astype(np.float32), cfg.sample_rate_hz, "f32")
        assert np.array_equal(as32.samples, samples)
        reference = filterbank_energies(as64, cfg).values
        energies = filterbank_energies(as32, cfg).values
        assert np.array_equal(energies, reference)

    def test_read_and_extract_memory(self, cfg, tmp_path):
        # Read block by block, the peak above the energies is one block's
        # power spectrum (the mel matmul's input), one block's samples and
        # O(sub-block) temporaries: no samples-sized buffer, so it does not
        # grow with the file, and no second power block for the final
        # partial one. Its padding rows (at most 511) are part of the peak.
        def extra_peak(duration_s):
            path = tmp_path / f"long_{duration_s:.0f}.wav"
            write_wav(path, synth_fixture("white_noise", duration_s, seed=5))

            def read_and_extract():
                with WavReader(path) as wav:
                    return filterbank_energies(wav, cfg)

            energies, peak = traced_peak(read_and_extract)
            return peak - energies.values.nbytes

        short, long = extra_peak(60.0), extra_peak(300.0)
        power_block = BLOCK_FRAMES * (cfg.fft_size // 2 + 1) * 8
        assert long <= power_block + (3 << 19)  # 1.5 MiB
        assert abs(long - short) <= 1 << 20

    def test_memory_does_not_grow_with_length(self, cfg):
        def extra_peak(duration_s):
            wav = synth_fixture("white_noise", duration_s, seed=5)
            energies, peak = traced_peak(lambda: filterbank_energies(wav, cfg))
            return peak - energies.values.nbytes

        mib = 1 << 20
        short, long = extra_peak(60.0), extra_peak(300.0)
        assert short < 64 * mib
        assert long < 64 * mib
        assert abs(long - short) <= mib

    @pytest.mark.parametrize("streamed", [False, True], ids=["waveform", "reader"])
    def test_other_sample_rate_raises_before_allocating(self, cfg, tmp_path, streamed):
        # read as 16 kHz, these 10 s would take a 1 MB power block
        wav = synth_fixture("sine", 10.0, sample_rate_hz=8000, utterance_id="narrow")
        path = tmp_path / "narrow.wav"
        write_wav(path, wav)

        def extract(source):
            with pytest.raises(BadAudio) as exc:
                filterbank_energies(source, cfg)
            return str(exc.value)

        if streamed:
            with WavReader(path) as reader:
                message, peak = traced_peak(lambda: extract(reader))
            name = path
        else:
            message, peak = traced_peak(lambda: extract(wav))
            name = "narrow"
        assert message == f"{name}: sample rate 8000 != configured 16000"
        assert peak < 64 << 10

    def test_propagates_too_short(self, cfg):
        wav = Waveform(np.zeros(100), 16000, "tiny")
        with pytest.raises(BadAudio, match="< one window"):
            filterbank_energies(wav, cfg)


class TestShare:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_raises_the_lowest_failing_index(self, threads):
        # index 1 fails late, so that at two or more threads index 3 fails
        # first; every call has ended when share raises
        running = set()
        lock = threading.Lock()

        def run(index):
            with lock:
                running.add(index)
            try:
                if index == 1:
                    time.sleep(0.02)
                if index in (1, 3):
                    raise ValueError(index)
            finally:
                with lock:
                    running.discard(index)

        for _ in range(5):
            with pytest.raises(ValueError) as exc:
                dsp.share(range(8), run, threads)
            assert exc.value.args == (1,)
            assert not running


    def test_is_the_package_s_one_fan_out(self):
        # a second fan-out beside share would need a thread or an executor:
        # no code under semaug calls .submit( or imports concurrent.futures,
        # and only dsp.share calls threading.Thread(
        package = Path(dsp.__file__).parent
        calls = []
        imports = []
        for path in sorted(package.rglob("*.py")):
            module = ".".join(path.relative_to(package).with_suffix("").parts)

            def visit(node, scope):
                for child in ast.iter_child_nodes(node):
                    inner = scope
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        inner = scope or child.name
                    if isinstance(child, ast.Call):
                        name = getattr(child.func, "attr", getattr(child.func, "id", None))
                        if name in ("submit", "Thread"):
                            calls.append((f"{module}.{scope}", name))
                    if isinstance(child, ast.Import):
                        imports.extend(alias.name for alias in child.names)
                    if isinstance(child, ast.ImportFrom):
                        imports.append(child.module)
                    visit(child, inner)

            visit(ast.parse(path.read_text(encoding="utf-8")), "")
        assert not [name for name in imports if name and name.startswith("concurrent")]
        assert calls == [("dsp.share", "Thread")]

    def test_claims_hold_under_a_short_switch_interval(self, cfg):
        # four claiming threads on two CPUs, switching every microsecond:
        # every index runs once, and no two blocks share a buffer set
        num = (12 * BLOCK_FRAMES + 5 - 1) * cfg.hop_samples + cfg.window_samples
        samples = np.random.default_rng(12).integers(-3000, 3000, size=num) / PCM_SCALE
        wav = Waveform(samples, cfg.sample_rate_hz, "switch")
        serial = filterbank_energies(wav, cfg).values
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            dsp.share(range(2000), seen.append, 4)
            energies = filterbank_energies(wav, cfg, 4).values
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(2000))
        assert np.array_equal(energies, serial)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_an_interrupt_outranks_a_lower_error(self, threads):
        # index 1's error waits for index 3's interrupt, which must not be
        # lost to it
        interrupted = threading.Event()

        def run(index):
            if index == 1:
                assert interrupted.wait(timeout=30)
                raise ValueError(index)
            if index == 3:
                interrupted.set()
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            dsp.share(range(8), run, threads)


def test_cli_claims_its_outputs_in_one_place():
    # a second output rule would need to remove a file: no function of cli
    # but _claim_outputs calls .unlink( or sweep_stale_temporaries(
    calls = []
    for top in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("unlink", "sweep_stale_temporaries"):
                    calls.append((getattr(top, "name", None), name))
    assert sorted(calls) == [
        ("_claim_outputs", "sweep_stale_temporaries"), ("_claim_outputs", "unlink"),
    ]


class TestFeatureConfig:
    def test_defaults(self, cfg):
        assert cfg.window_samples == 400
        assert cfg.hop_samples == 160
        assert cfg.fft_size == 512
        assert cfg.num_channels == 40
        assert cfg.sample_rate_hz == 16000
        assert cfg.power_exponent == 1.0 / 15.0

    def test_takes_no_arguments(self):
        with pytest.raises(TypeError):
            FeatureConfig(num_channels=39)
