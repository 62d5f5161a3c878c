"""End-to-end command-line behavior: files in, files out, exit codes."""

import csv
import itertools
import json
import logging
import os
import signal
import subprocess
import textwrap
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from semaug import (
    FeatureConfig,
    FeatureMatrix,
    GlobalStats,
    filterbank_energies,
    power_mel,
    read_wav,
)
from semaug.audio_io import synth_fixture, synth_speech_like, write_wav
from semaug.features import divide_std, subtract_mean
from semaug import cli, dsp, formats
from semaug.cli import main
from semaug.errors import BadAudio
from semaug.formats import load_features, load_stats, save_stats
from conftest import (
    MULTI_BLOCK_FRAMES,
    assert_same_files,
    assert_same_trees,
    mixed_waveforms,
    reaped_pid,
    run_every_command,
    run_python,
    run_with_rusage,
    traced_peak,
    waveform_of_frames,
)


def make_corpus(directory, waves):
    directory.mkdir(parents=True, exist_ok=True)
    for wave in waves:
        write_wav(directory / f"{wave.utterance_id}.wav", wave)


def read_manifest(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture()
def corpus_dir(tmp_path):
    path = tmp_path / "wavs"
    make_corpus(path, mixed_waveforms(6))
    return path


@pytest.fixture()
def featurized(tmp_path, corpus_dir):
    out = tmp_path / "features"
    code = main(["featurize", "--in", str(corpus_dir), "--out", str(out)])
    assert code == 0
    return out


def interrupt_third_save(monkeypatch):
    """Make the third formats.save_features call raise KeyboardInterrupt, as
    a Ctrl-C in the middle of a run would."""
    save = formats.save_features
    calls = itertools.count(1)  # next() is atomic, so one worker thread sees 3

    def save_or_interrupt(path, values):
        if next(calls) == 3:
            raise KeyboardInterrupt
        save(path, values)

    monkeypatch.setattr(formats, "save_features", save_or_interrupt)


# Run as `python -c _KILLED_AT_THIRD_SAVE <mask argv>`: prints its pid, then
# runs the command on one CPU, so files are written one at a time in input
# order. The third formats.save_features opens its atomic_write temporary,
# writes the FMX1 header and sends SIGKILL to its own process.
_KILLED_AT_THIRD_SAVE = textwrap.dedent(
    """
    import itertools
    import os
    import signal
    import sys

    from semaug import cli, formats

    calls = itertools.count(1)
    save = formats.save_features

    def save_or_die(path, values):
        if next(calls) == 3:
            with formats.atomic_write(path) as handle:
                handle.write(formats._FEATURE_HEADER.pack(
                    formats.FEATURE_MAGIC, formats.FEATURE_VERSION, *values.shape
                ))
                handle.flush()
                os.kill(os.getpid(), signal.SIGKILL)
        save(path, values)

    print(os.getpid(), flush=True)
    formats.save_features = save_or_die
    cli._cpu_count = lambda: 1
    sys.exit(cli.main(sys.argv[1:]))
    """
)

MODE_FLAGS = {
    "sem": ["--seed", "2"],
    "fixed": ["--eta-th", "-30"],
    "dropout": ["--rate", "0.1", "--seed", "2"],
    "none": [],
}

PARTIAL_FAILURE_COMMANDS = [
    *(pytest.param(["featurize", "--workers", w], id=f"featurize-w{w}") for w in "12"),
    *(
        pytest.param(["mask", "--mode", mode, *flags, "--workers", w], id=f"mask-{mode}-w{w}")
        for mode, flags in MODE_FLAGS.items()
        for w in "12"
    ),
    pytest.param(["stats"], id="stats"),
]


class TestFeaturize:
    def test_empty_dir_exits_2(self, tmp_path, caplog):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["featurize", "--in", str(empty), "--out", str(tmp_path / "o")]) == 2
        assert "no input files" in caplog.text

    def test_all_broken_corpus_exits_2(self, tmp_path, caplog):
        wavs = tmp_path / "w"
        wavs.mkdir()
        for name in ("a", "b"):
            (wavs / f"{name}.wav").write_bytes(b"not audio")
        out = tmp_path / "f"
        assert main(["featurize", "--in", str(wavs), "--out", str(out)]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert [line.split(":")[0] for line in errors[:2]] == [
            "failed on a.wav", "failed on b.wav",
        ]
        assert errors[2:] == ["no utterance produced features"]
        assert list(out.iterdir()) == []

    def test_one_second_default_shapes(self, tmp_path):
        wavs = tmp_path / "w"
        make_corpus(wavs, [synth_fixture("white_noise", 1.0, seed=1, utterance_id="one")])
        out = tmp_path / "f"
        assert main(["featurize", "--in", str(wavs), "--out", str(out)]) == 0
        matrix = load_features(out / "one.fmx")
        assert matrix.shape == (98, 40)
        stats = load_stats(out / "global_stats.txt")
        assert stats.num_channels == 40
        assert stats.num_frames_seen == 98

    def test_rerun_is_byte_identical(self, tmp_path, corpus_dir):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(out_a)]) == 0
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(out_b)]) == 0
        assert_same_files(out_a, out_b)

    @pytest.mark.parametrize("command", PARTIAL_FAILURE_COMMANDS)
    def test_partial_failure_exits_1(self, tmp_path, corpus_dir, featurized, caplog, command):
        # every command: the broken file is one logged failure and exit 1, and
        # the other files' artifacts are those of a run without it
        def run(out_dir):
            out_dir.mkdir()
            out = out_dir / "dist.csv" if command[0] == "stats" else out_dir
            argv = [command[0], "--in", str(corpus_dir), *command[1:], "--out", str(out)]
            if command[0] == "mask":
                argv += ["--stats", str(featurized / "global_stats.txt")]
            return main(argv)

        assert run(tmp_path / "clean") == 0
        (corpus_dir / "broken.wav").write_bytes(b"not audio")
        caplog.clear()
        assert run(tmp_path / "partial") == 1
        failed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("failed on")]
        assert len(failed) == 1 and failed[0].startswith("failed on broken.wav: ")
        assert_same_files(tmp_path / "clean", tmp_path / "partial")

    def test_zero_sample_rate_fails_only_its_file(self, tmp_path, corpus_dir, caplog):
        path = corpus_dir / "zero_rate.wav"
        write_wav(path, synth_fixture("sine", 0.1, utterance_id="zero_rate"))
        header = bytearray(path.read_bytes())
        header[24:28] = bytes(4)  # the fmt chunk's sample rate
        path.write_bytes(bytes(header))
        out = tmp_path / "f"
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(out)]) == 1
        assert (out / "utt_000.fmx").exists()
        assert "zero_rate.wav" in caplog.text

    @pytest.mark.parametrize(
        "command",
        [["featurize"], *(["mask", "--mode", m, *f] for m, f in MODE_FLAGS.items()), ["stats"]],
        ids=["featurize", *(f"mask-{m}" for m in MODE_FLAGS), "stats"],
    )
    def test_other_sample_rate_fails_only_its_file(
        self, tmp_path, corpus_dir, featurized, monkeypatch, caplog, command
    ):
        # one log line naming the file, at T = 1 and T = 2, and the other
        # files' artifacts those of a run without it; read as 16 kHz the file
        # is two blocks long, so at T = 2 it fails in the second pass
        def run(out_dir, cpus):
            out_dir.mkdir()
            out = out_dir / "dist.csv" if command[0] == "stats" else out_dir
            argv = [command[0], "--in", str(corpus_dir), *command[1:], "--out", str(out)]
            if command[0] == "mask":
                argv += ["--stats", str(featurized / "global_stats.txt")]
            monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
            return main(argv)

        assert run(tmp_path / "clean", 2) == 0
        path = corpus_dir / "x.wav"
        write_wav(path, synth_fixture("sine", 21.0, sample_rate_hz=8000, utterance_id="x"))
        for cpus in (1, 2):
            caplog.clear()
            assert run(tmp_path / f"c{cpus}", cpus) == 1
            failed = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
            assert failed == [f"failed on x.wav: {path}: sample rate 8000 != configured 16000"]
            assert_same_files(tmp_path / "clean", tmp_path / f"c{cpus}")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_interrupted_rerun_leaves_no_stats(self, tmp_path, corpus_dir, monkeypatch, workers):
        def run(out_dir):
            argv = ["featurize", "--in", str(corpus_dir), "--out", str(out_dir)]
            return main(argv + ["--workers", workers])

        out = tmp_path / "f"
        assert run(out) == 0
        interrupt_third_save(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run(out)
        assert not (out / "global_stats.txt").exists()
        monkeypatch.undo()
        assert run(out) == 0
        clean = tmp_path / "clean"
        assert run(clean) == 0
        assert_same_files(out, clean)

    def test_raw_features_match_library(self, corpus_dir, featurized):
        cfg = FeatureConfig()
        wav = read_wav(corpus_dir / "utt_000.wav")
        energies = filterbank_energies(wav, cfg)
        expected = power_mel(energies).values.astype(np.float32)
        assert np.array_equal(load_features(featurized / "utt_000.fmx"), expected)

    def test_workers_do_not_change_bytes(self, tmp_path, corpus_dir):
        # (--workers, CPUs seen): front-end threads T = 1, 2 and 3 at one
        # worker, T = 1 at 4 workers (more than the cores of a small
        # machine) and T = 3 at two workers; stats and render run one
        # worker, so T = CPUs
        long_ids = [f"long_{frames}" for frames in MULTI_BLOCK_FRAMES]
        for seed, (frames, uid) in enumerate(zip(MULTI_BLOCK_FRAMES, long_ids)):
            write_wav(corpus_dir / f"{uid}.wav", waveform_of_frames(frames, seed, uid))
        outs = []
        for workers, cpus in ((1, 1), (1, 2), (1, 3), (4, 4), (2, 6)):
            outs.append(tmp_path / f"w{workers}_c{cpus}")
            modes = [[mode, *flags] for mode, flags in MODE_FLAGS.items()]
            run_every_command(corpus_dir, outs[-1], workers, cpus, modes, long_ids)
        assert (outs[0] / "mask_sem" / "manifest.csv").exists()
        for out in outs[1:]:
            assert_same_trees(outs[0], out)

    def test_workers_below_one_exit_2(self, tmp_path, corpus_dir):
        out = tmp_path / "f"
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["featurize", "--in", str(corpus_dir), "--out", str(out),
                      "--workers", workers])
            assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["abc", "1.5"])
    def test_non_integer_workers_exit_2(self, tmp_path, corpus_dir, capsys, workers):
        out = tmp_path / "f"
        with pytest.raises(SystemExit) as exc:
            main(["featurize", "--in", str(corpus_dir), "--out", str(out),
                  "--workers", workers])
        assert exc.value.code == 2
        assert f"must be an integer, got '{workers}'" in capsys.readouterr().err
        assert not out.exists()


class TestMask:
    def _stats_path(self, featurized):
        return featurized / "global_stats.txt"

    def test_mode_none_is_plain_normalization(self, tmp_path, corpus_dir, featurized):
        out = tmp_path / "m"
        code = main([
            "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
            "--mode", "none", "--out", str(out),
        ])
        assert code == 0
        cfg = FeatureConfig()
        stats = load_stats(self._stats_path(featurized))
        wav = read_wav(corpus_dir / "utt_001.wav")
        x_raw = power_mel(filterbank_energies(wav, cfg))
        expected = divide_std(subtract_mean(x_raw, stats), stats).values.astype(np.float32)
        assert np.array_equal(load_features(out / "utt_001.fmx"), expected)
        rows = read_manifest(out / "manifest.csv")
        assert all(row["eta_th"] == "" and row["scaling_r"] == "" for row in rows)

    def test_sem_rerun_identical_manifest(self, tmp_path, corpus_dir, featurized):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            code = main([
                "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", "sem", "--eta-a", "-80", "--eta-b", "0", "--seed", "7",
                "--out", str(out),
            ])
            assert code == 0
            outs.append(out)
        assert (outs[0] / "manifest.csv").read_bytes() == (outs[1] / "manifest.csv").read_bytes()

    def test_sem_manifest_columns(self, tmp_path, corpus_dir, featurized):
        out = tmp_path / "m"
        main([
            "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
            "--mode", "sem", "--seed", "3", "--out", str(out),
        ])
        rows = read_manifest(out / "manifest.csv")
        assert [row["utterance_id"] for row in rows] == sorted(r["utterance_id"] for r in rows)
        for row in rows:
            eta_th = float(row["eta_th"])
            assert -80.0 <= eta_th < 0.0
            assert float(row["e_th"]) > 0.0
            assert 0.0 <= float(row["masked_fraction"]) <= 1.0
            assert float(row["scaling_r"]) >= 1.0
            assert row["fallback"] == "0"

    def test_dropout_survivors_scaled(self, tmp_path, corpus_dir, featurized):
        out = tmp_path / "m"
        stats_path = self._stats_path(featurized)
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(stats_path),
            "--mode", "dropout", "--rate", "0.1", "--seed", "5", "--out", str(out),
        ]) == 0
        dropped = load_features(out / "utt_002.fmx")
        cfg = FeatureConfig()
        stats = load_stats(stats_path)
        wav = read_wav(corpus_dir / "utt_002.wav")
        x_raw = power_mel(filterbank_energies(wav, cfg))
        normalized = divide_std(subtract_mean(x_raw, stats), stats).values
        scaled = (normalized * (1.0 / 0.9)).astype(np.float32)
        kept = dropped != 0.0
        assert np.any(kept) and not np.all(kept)
        assert np.array_equal(dropped[kept], scaled[kept])

    def test_fixed_mode(self, tmp_path, corpus_dir, featurized):
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
            "--mode", "fixed", "--eta-th", "-20", "--out", str(out),
        ]) == 0
        rows = read_manifest(out / "manifest.csv")
        assert all(row["eta_th"] == "-20" for row in rows)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "mode_flags", [["sem"], ["fixed", "--eta-th", "-20"]], ids=["sem", "fixed"]
    )
    def test_silent_utterance_falls_back(
        self, tmp_path, corpus_dir, featurized, mode_flags, workers
    ):
        # no dB ratio exists for silence: the row holds the effective
        # thresholds of the all-ones mask, -inf dB and 0 energy, r = 1
        make_corpus(corpus_dir, [synth_fixture("silence", 0.5, utterance_id="quiet")])
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
            "--mode", *mode_flags, "--workers", workers, "--out", str(out),
        ]) == 0
        lines = (out / "manifest.csv").read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("quiet,")] == ["quiet,-inf,0,0,1,1"]

    def test_flag_mode_mismatch_exits_2(self, tmp_path, corpus_dir, featurized):
        stats = str(self._stats_path(featurized))
        out = str(tmp_path / "m")
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", stats,
            "--mode", "sem", "--rate", "0.1", "--out", out,
        ]) == 2
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", stats,
            "--mode", "dropout", "--out", out,
        ]) == 2
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", stats,
            "--mode", "none", "--eta-a", "-60", "--out", out,
        ]) == 2

    def test_manifest_masked_fraction_recomputes(self, tmp_path, corpus_dir, featurized):
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
            "--mode", "sem", "--seed", "21", "--out", str(out),
        ]) == 0
        cfg = FeatureConfig()
        for row in read_manifest(out / "manifest.csv"):
            wav = read_wav(corpus_dir / f"{row['utterance_id']}.wav")
            energies = filterbank_energies(wav, cfg)
            kept = np.count_nonzero(energies.values >= float(row["e_th"]))
            zeros = energies.values.size - kept
            assert round(float(row["masked_fraction"]) * energies.values.size) == zeros

    def test_workers_below_one_exit_2(self, tmp_path, corpus_dir, featurized):
        out = tmp_path / "m"
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                    "--mode", "none", "--out", str(out), "--workers", workers,
                ])
            assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["abc", "1.5"])
    def test_non_integer_workers_exit_2(
        self, tmp_path, corpus_dir, featurized, capsys, workers
    ):
        out = tmp_path / "m"
        with pytest.raises(SystemExit) as exc:
            main([
                "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", "none", "--out", str(out), "--workers", workers,
            ])
        assert exc.value.code == 2
        assert f"must be an integer, got '{workers}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode_flags",
        [["dropout", "--rate", "1.5", "--seed", "1"], ["fixed", "--eta-th", "nan"],
         ["sem", "--eta-b", "inf"]],
        ids=["dropout-rate-1.5", "fixed-eta-th-nan", "sem-eta-b-inf"],
    )
    def test_invalid_flag_value_exits_2_before_any_work(
        self, tmp_path, corpus_dir, featurized, mode_flags
    ):
        out = tmp_path / "m"
        with pytest.raises(SystemExit) as exc:
            main([
                "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", *mode_flags, "--out", str(out),
            ])
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_stats_exits_2(self, tmp_path, corpus_dir, caplog):
        stats_path = tmp_path / "nope.txt"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(stats_path),
            "--mode", "none", "--out", str(tmp_path / "m"),
        ]) == 2
        assert f"stats file {stats_path} does not exist" in caplog.text

    def test_stats_directory_exits_2(self, tmp_path, corpus_dir, caplog):
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(tmp_path),
            "--mode", "none", "--out", str(out),
        ]) == 2
        assert f"stats file {tmp_path} is not a file" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("header", [
        "SEMSTATS v12 C=40 N=5", "SEMSTATS v1 C=40 N=-7", "SEMSTATS v1 C=40 N=0",
        "SEMSTATS v1 C=40 N=5 junk",
    ])
    def test_malformed_stats_header_exits_2(self, tmp_path, corpus_dir, caplog, header):
        stats_path = tmp_path / "bad.txt"
        stats_path.write_text("\n".join([header] + [f"{c} 0.0 1.0" for c in range(40)]) + "\n")
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(stats_path),
            "--mode", "none", "--out", str(out),
        ]) == 2
        assert f"header {header!r}" in caplog.text
        assert not out.exists()

    def test_non_ascii_stats_exits_2_naming_the_file(self, tmp_path, corpus_dir, caplog):
        stats_path = tmp_path / "bad.txt"
        lines = ["SEMSTATS v1 C=40 N=5"] + [f"{c} 0.0 1.0" for c in range(40)]
        stats_path.write_bytes("\n".join(lines).encode("ascii") + b"\xff\n")
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(stats_path),
            "--mode", "none", "--out", str(out),
        ]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and str(stats_path) in errors[0]
        assert not out.exists()

    def test_non_finite_stats_exits_2(self, tmp_path, corpus_dir):
        stats_path = tmp_path / "nan.txt"
        lines = ["SEMSTATS v1 C=40 N=5"] + [f"{c} 0.0 1.0" for c in range(39)] + ["39 nan nan"]
        stats_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(stats_path),
            "--mode", "none", "--out", str(out),
        ]) == 2
        assert not list(out.glob("*.fmx"))

    def test_stats_channel_mismatch_exits_2(self, tmp_path, corpus_dir, caplog):
        # a stats file from another front end: 39 channels against the fixed 40
        stats_path = tmp_path / "c39.txt"
        save_stats(stats_path, GlobalStats(np.zeros(39), np.ones(39), 5))
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(stats_path),
            "--mode", "none", "--out", str(out),
        ]) == 2
        assert "stats file has 39 channels, the front end has 40" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_interrupted_rerun_leaves_no_manifest(
        self, tmp_path, corpus_dir, featurized, monkeypatch, workers
    ):
        def run(out_dir, seed):
            return main([
                "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", "sem", "--seed", seed, "--out", str(out_dir), "--workers", workers,
            ])

        out = tmp_path / "m"
        assert run(out, "1") == 0
        interrupt_third_save(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run(out, "2")
        assert not (out / "manifest.csv").exists()
        monkeypatch.undo()
        assert run(out, "2") == 0
        clean = tmp_path / "clean"
        assert run(clean, "2") == 0
        assert_same_files(out, clean)

    def test_interrupted_rerun_leaves_no_earlier_features(
        self, tmp_path, corpus_dir, featurized, monkeypatch
    ):
        # every .fmx an interrupted seed-2 rerun leaves is its own, none of
        # them the seed-1 run's
        def run(out_dir, seed):
            return main([
                "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", "sem", "--seed", seed, "--out", str(out_dir),
            ])

        out, clean = tmp_path / "m", tmp_path / "clean"
        assert run(out, "1") == 0
        assert run(clean, "2") == 0
        interrupt_third_save(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run(out, "2")
        left = sorted(out.glob("*.fmx"))
        assert 1 <= len(left) < 6
        for path in left:
            assert path.read_bytes() == (clean / path.name).read_bytes()
        monkeypatch.undo()
        assert run(out, "2") == 0
        assert_same_files(out, clean)

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
    def test_killed_rerun_leaves_no_record_and_no_earlier_features(
        self, tmp_path, corpus_dir, featurized, caplog
    ):
        # a seed-2 rerun over a seed-1 directory, killed mid-write of its
        # third file: no manifest, only its own .fmx, and its temporary,
        # which the next run removes before it writes
        def argv(out_dir, seed):
            return [
                "mask", "--in", str(corpus_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", "sem", "--seed", seed, "--out", str(out_dir),
            ]

        out, clean = tmp_path / "m", tmp_path / "clean"
        assert main(argv(out, "1")) == 0
        assert main(argv(clean, "2")) == 0
        names = sorted(path.name for path in out.glob("*.fmx"))
        # the seed-1 files the killed run never reaches include some that a
        # seed-2 run writes otherwise
        assert any(
            (out / name).read_bytes() != (clean / name).read_bytes() for name in names[2:]
        )
        run = run_python(["-c", _KILLED_AT_THIRD_SAVE, *argv(out, "2")])
        assert run.returncode == -signal.SIGKILL, run.stderr
        assert not (out / "manifest.csv").exists()
        left = sorted(path.name for path in out.glob("*.fmx"))
        assert left == names[:2]
        for name in left:
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        [temp] = out.glob(".*.tmp")
        assert temp.name.split(".")[-3] == run.stdout.strip()
        caplog.clear()
        with caplog.at_level(logging.INFO):
            assert main(argv(out, "2")) == 0
        assert f"removed {temp}, left by a process that no longer runs" in caplog.messages
        assert_same_files(out, clean)

    def test_shuffled_input_ordering_identical(self, tmp_path, featurized):
        waves = mixed_waveforms(6)
        dir_a = tmp_path / "wa"
        dir_b = tmp_path / "wb"
        make_corpus(dir_a, waves)
        make_corpus(dir_b, waves[::-1])
        outs = []
        for wav_dir, name in ((dir_a, "ma"), (dir_b, "mb")):
            out = tmp_path / name
            assert main([
                "mask", "--in", str(wav_dir), "--stats", str(self._stats_path(featurized)),
                "--mode", "sem", "--seed", "11", "--out", str(out),
            ]) == 0
            outs.append(out)
        assert (outs[0] / "manifest.csv").read_bytes() == (outs[1] / "manifest.csv").read_bytes()
        for fmx in sorted(p.name for p in outs[0].glob("*.fmx")):
            assert (outs[0] / fmx).read_bytes() == (outs[1] / fmx).read_bytes()


    def test_non_ascii_stem(self, tmp_path):
        wavs = tmp_path / "wavs"
        make_corpus(wavs, [
            synth_speech_like(0.5, seed=1, utterance_id="café"),
            synth_speech_like(0.5, seed=2, utterance_id="plain"),
            synth_speech_like(0.5, seed=3, utterance_id="a,b"),
        ])
        feats = tmp_path / "features"
        assert main(["featurize", "--in", str(wavs), "--out", str(feats)]) == 0
        assert (feats / "café.fmx").is_file()
        out = tmp_path / "m"
        assert main([
            "mask", "--in", str(wavs), "--stats", str(feats / "global_stats.txt"),
            "--mode", "sem", "--seed", "4", "--out", str(out),
        ]) == 0
        assert (out / "café.fmx").is_file()
        rows = read_manifest(out / "manifest.csv")
        assert [row["utterance_id"] for row in rows] == ["a,b", "café", "plain"]
        lines = (out / "manifest.csv").read_bytes().split(b"\n")
        # an id holding a comma is CSV-quoted
        assert lines[1].startswith(b'"a,b",')
        assert lines[2].startswith("café,".encode("utf-8"))

    @pytest.mark.parametrize(
        "mode_flags",
        [["sem", "--seed", "2"], ["fixed", "--eta-th", "-30"],
         ["dropout", "--rate", "0.1", "--seed", "2"], ["none"]],
        ids=["sem", "fixed", "dropout", "none"],
    )
    def test_memory_one_matrix_and_one_transient(self, tmp_path, monkeypatch, mode_flags):
        # From the energies on, every mode works in place on them: the peak is
        # that matrix, at most three one-byte-per-bin masks and one chunk-sized
        # transient at a time (the percentile's pool of a chunk and the top 5%,
        # r's leaf sums or dropout's draws); no matrix-sized float64 transient.
        shape = (60000, 40)
        monkeypatch.setattr(cli, "filterbank_energies", _random_energies(shape))
        wavs = tmp_path / "wavs"
        make_corpus(wavs, [synth_fixture("sine", 0.1, utterance_id="long")])
        stats = tmp_path / "stats.txt"
        save_stats(stats, GlobalStats(np.zeros(40), np.ones(40), 1))
        out = tmp_path / "m"
        argv = ["mask", "--in", str(wavs), "--stats", str(stats), "--mode", *mode_flags,
                "--out", str(out)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        matrix = shape[0] * shape[1] * 8
        assert peak <= matrix + 3 * (matrix // 8) + (1 << 20)


def _random_energies(shape):
    """A filterbank_energies stand-in: a wide-range random energy matrix of
    `shape`, built in place, whatever the source and the thread arguments."""

    def extract(source, cfg, *front_end_threads):
        values = np.random.default_rng(3).uniform(-8.0, 3.0, size=shape)
        np.power(10.0, values, out=values)
        return FeatureMatrix(values, source.utterance_id)

    return extract


class TestStatsCommand:
    def test_csv_shape_and_invariants(self, tmp_path, corpus_dir):
        out_csv = tmp_path / "dist.csv"
        assert main(["stats", "--in", str(corpus_dir), "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 110
        cdf = np.array([float(r["cdf"]) for r in rows])
        ratio = np.array([float(r["energy_ratio"]) for r in rows])
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(cdf) >= 0)
        assert np.all(ratio <= cdf + 1e-9)

    def test_constant_utterance_single_bin(self, tmp_path):
        wavs = tmp_path / "w"
        # constant nonzero samples give one constant-energy utterance
        wav = synth_fixture("sine", 0.5, utterance_id="const")
        make_corpus(wavs, [wav])
        out_csv = tmp_path / "dist.csv"
        assert main(["stats", "--in", str(wavs), "--out", str(out_csv)]) == 0

    def test_does_not_compute_features(self, tmp_path, corpus_dir, monkeypatch):
        expected = tmp_path / "plain.csv"
        assert main(["stats", "--in", str(corpus_dir), "--out", str(expected)]) == 0

        def no_features(*args, **kwargs):
            raise AssertionError("stats needs the energies only")

        monkeypatch.setattr(cli, "power_mel", no_features)
        out_csv = tmp_path / "dist.csv"
        assert main(["stats", "--in", str(corpus_dir), "--out", str(out_csv)]) == 0
        assert out_csv.read_bytes() == expected.read_bytes()

    def test_empty_dir_exits_2(self, tmp_path):
        empty = tmp_path / "e"
        empty.mkdir()
        assert main(["stats", "--in", str(empty), "--out", str(tmp_path / "x.csv")]) == 2

    def test_silent_utterance_adds_no_bins(self, tmp_path, corpus_dir, caplog):
        expected = tmp_path / "plain.csv"
        assert main(["stats", "--in", str(corpus_dir), "--out", str(expected)]) == 0
        make_corpus(corpus_dir, [synth_fixture("silence", 0.5, utterance_id="quiet")])
        caplog.set_level(logging.INFO, logger="semaug")
        out_csv = tmp_path / "dist.csv"
        assert main(["stats", "--in", str(corpus_dir), "--out", str(out_csv)]) == 0
        assert out_csv.read_bytes() == expected.read_bytes()
        quiet = [r for r in caplog.records if "quiet.wav" in r.getMessage()]
        assert [r.levelno for r in quiet] == [logging.INFO]

    def test_log_does_not_depend_on_threads(self, tmp_path, corpus_dir, monkeypatch, caplog):
        # zero-peak INFO lines and failures' ERROR lines are logged after the
        # run, in input order, whichever thread ran each file
        make_corpus(corpus_dir, [
            synth_fixture("silence", 0.5, utterance_id=uid) for uid in ("a_quiet", "zz_quiet")
        ])
        (corpus_dir / "broken.wav").write_bytes(b"not audio")
        caplog.set_level(logging.INFO, logger="semaug")
        logs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
            caplog.clear()
            out_csv = tmp_path / f"dist{cpus}.csv"
            assert main(["stats", "--in", str(corpus_dir), "--out", str(out_csv)]) == 1
            logs[cpus] = [
                f"{r.levelname} {r.getMessage()}".replace(out_csv.name, "dist.csv")
                for r in caplog.records
            ]
        assert logs[1] == logs[2]
        assert [line.split()[1] for line in logs[1] if "zero peak" in line] == [
            "a_quiet.wav", "zz_quiet.wav",
        ]
        assert (tmp_path / "dist1.csv").read_bytes() == (tmp_path / "dist2.csv").read_bytes()

    def test_all_silent_corpus_exits_2(self, tmp_path, caplog):
        wavs = tmp_path / "w"
        make_corpus(wavs, [synth_fixture("silence", 0.5, utterance_id=f"s{i}") for i in range(2)])
        out_csv = tmp_path / "dist.csv"
        assert main(["stats", "--in", str(wavs), "--out", str(out_csv)]) == 2
        assert "empty corpus" in caplog.text
        assert not out_csv.exists()


class TestRender:
    def _wav(self, tmp_path):
        path = tmp_path / "r.wav"
        write_wav(path, mixed_waveforms(4)[3])  # speech-like
        return path

    def test_low_threshold_matches_unmasked(self, tmp_path):
        wav = self._wav(tmp_path)
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        assert main(["render", "--in", str(wav), "--eta-th", "-200", "--out", str(out_a)]) == 0
        assert main(["render", "--in", str(wav), "--eta-th", "-1000", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_threshold_mostly_black(self, tmp_path):
        wav = self._wav(tmp_path)
        out = tmp_path / "z.pgm"
        assert main(["render", "--in", str(wav), "--eta-th", "0", "--out", str(out)]) == 0
        blob = out.read_bytes()
        payload = blob.split(b"\n", 3)[3]
        assert payload.count(0) / len(payload) >= 0.90

    def test_deterministic(self, tmp_path):
        wav = self._wav(tmp_path)
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        assert main(["render", "--in", str(wav), "--eta-th", "-40", "--out", str(out_a)]) == 0
        assert main(["render", "--in", str(wav), "--eta-th", "-40", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_image_dimensions(self, tmp_path):
        wavs = tmp_path / "w"
        wav = synth_fixture("white_noise", 1.0, seed=2, utterance_id="dims")
        make_corpus(wavs, [wav])
        out = tmp_path / "d.pgm"
        assert main(["render", "--in", str(wavs / "dims.wav"), "--eta-th", "-40", "--out", str(out)]) == 0
        header = out.read_bytes().split(b"\n")
        assert header[0] == b"P5"
        assert header[1] == b"98 40"  # width = frames, height = channels

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["render", "--in", str(tmp_path / "no.wav"), "--eta-th", "0",
                     "--out", str(tmp_path / "o.pgm")]) == 2

    def test_non_finite_threshold_exits_2(self, tmp_path):
        out = tmp_path / "o.pgm"
        with pytest.raises(SystemExit) as exc:
            main(["render", "--in", str(self._wav(tmp_path)), "--eta-th", "nan", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_memory_one_matrix_and_masks(self, tmp_path, monkeypatch):
        # the energies scaled in place, the mask and the uint8 image, cast
        # straight into its flipped layout; no flipped copy and no
        # matrix-sized float64 transient
        shape = (60000, 40)
        monkeypatch.setattr(cli, "filterbank_energies", _random_energies(shape))
        out = tmp_path / "r.pgm"
        argv = ["render", "--in", str(self._wav(tmp_path)), "--eta-th", "-30", "--out", str(out)]
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        matrix = shape[0] * shape[1] * 8
        assert peak <= matrix + 2 * (matrix // 8) + (1 << 20)

    def test_unreadable_input_fails_like_other_commands(self, tmp_path, caplog):
        path = tmp_path / "broken.wav"
        path.write_bytes(b"not audio")
        out = tmp_path / "o.pgm"
        assert main(["render", "--in", str(path), "--eta-th", "-30", "--out", str(out)]) == 2
        failed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("failed on")]
        assert len(failed) == 1 and failed[0].startswith("failed on broken.wav: ")
        assert not out.exists()

    def test_silence_renders_black(self, tmp_path):
        wavs = tmp_path / "w"
        make_corpus(wavs, [synth_fixture("silence", 0.5, utterance_id="quiet")])
        out = tmp_path / "q.pgm"
        assert main(["render", "--in", str(wavs / "quiet.wav"), "--eta-th", "-20",
                     "--out", str(out)]) == 0
        payload = out.read_bytes().split(b"\n", 3)[3]
        assert payload == bytes(len(payload))


# the front-end and binning flags no command takes: the front end is fixed
REMOVED_FLAGS = [
    pytest.param(command, flag, value, id=f"{command}{flag}")
    for command in ("featurize", "mask", "stats", "render")
    for flag, value in (
        ("--window-ms", "25"), ("--hop-ms", "10"), ("--fft-size", "512"),
        ("--num-channels", "40"), ("--sample-rate", "16000"), ("--power-exponent", "0.5"),
    )
] + [pytest.param("stats", "--bin-width", "1", id="stats--bin-width")]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_removed_flag_is_usage_error(tmp_path, corpus_dir, capsys, command, flag, value):
    stats = tmp_path / "stats.txt"
    save_stats(stats, GlobalStats(np.zeros(40), np.ones(40), 1))
    out = tmp_path / "out"
    inputs = {
        "featurize": ["--in", str(corpus_dir)],
        "mask": ["--in", str(corpus_dir), "--stats", str(stats), "--mode", "none"],
        "stats": ["--in", str(corpus_dir)],
        "render": ["--in", str(corpus_dir / "utt_000.wav"), "--eta-th", "-30"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


# an output path (always the last argument) blocked by the existing file
# {file}, as the output itself or as a directory on the way to it, or under
# the missing directory {tmp}/nodir
BLOCKED_OUTPUTS = [
    pytest.param(["featurize", "--in", "{wavs}", "--out", "{file}"], id="featurize-out"),
    pytest.param(
        ["featurize", "--in", "{wavs}", "--out", "{tmp}/f", "--stats-out", "{file}/s.txt"],
        id="featurize-stats-out",
    ),
    pytest.param(["stats", "--in", "{wavs}", "--out", "{file}/x.csv"], id="stats-out"),
    pytest.param(
        ["mask", "--in", "{wavs}", "--stats", "{stats}", "--mode", "none", "--out", "{file}"],
        id="mask-out",
    ),
    pytest.param(
        ["render", "--in", "{wavs}/utt.wav", "--eta-th", "-30", "--out", "{file}/x.pgm"],
        id="render-out",
    ),
    pytest.param(
        ["featurize", "--in", "{wavs}", "--out", "{tmp}/f", "--stats-out", "{tmp}/nodir/s.txt"],
        id="featurize-stats-out-nodir",
    ),
    pytest.param(["stats", "--in", "{wavs}", "--out", "{tmp}/nodir/x.csv"], id="stats-out-nodir"),
    pytest.param(
        ["render", "--in", "{wavs}/utt.wav", "--eta-th", "-30", "--out", "{tmp}/nodir/x.pgm"],
        id="render-out-nodir",
    ),
]


@pytest.mark.parametrize("argv", BLOCKED_OUTPUTS)
def test_unwritable_output_exits_2(tmp_path, argv):
    wavs = tmp_path / "wavs"
    make_corpus(wavs, [synth_fixture("white_noise", 0.3, seed=1, utterance_id="utt")])
    stats = tmp_path / "stats.txt"
    save_stats(stats, GlobalStats(np.zeros(40), np.ones(40), 1))
    blocker = tmp_path / "afile"
    blocker.write_text("in the way\n")
    args = [arg.format(wavs=wavs, tmp=tmp_path, file=blocker, stats=stats) for arg in argv]
    run = run_python(["-m", "semaug.cli", *args])
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    errors = [line for line in run.stderr.splitlines() if line.startswith("ERROR ")]
    assert len(errors) == 1, run.stderr
    # the path as given, not a temporary beside it
    assert args[-1] in errors[0]
    assert ".tmp" not in errors[0]
    assert blocker.read_text() == "in the way\n"
    assert not (tmp_path / "nodir").exists()
    # the output is checked before any input is read
    assert not list(tmp_path.rglob("*.fmx"))


def test_stats_out_in_the_new_out_dir(tmp_path, corpus_dir):
    # the output directory is made before the stats file's directory is checked
    out = tmp_path / "f"
    argv = ["featurize", "--in", str(corpus_dir), "--out", str(out),
            "--stats-out", str(out / "s.txt")]
    assert main(argv) == 0
    assert load_stats(out / "s.txt").num_channels == 40


@pytest.mark.parametrize("command", ["featurize", "featurize-stats-out", "mask"])
def test_run_sweeps_dead_writers_temporaries(tmp_path, corpus_dir, featurized, caplog, command):
    # an earlier run killed mid-write left a temporary; one of this
    # process's own (alive) is kept
    caplog.set_level(logging.INFO, logger="semaug")
    dead, alive = reaped_pid(), os.getpid()
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    for directory in (out, elsewhere):
        directory.mkdir()
        for pid in (dead, alive):
            (directory / f".utt_000.fmx.{pid}.77.tmp").write_bytes(b"partial")
    argv = {
        "featurize": ["featurize", "--in", str(corpus_dir), "--out", str(out)],
        "featurize-stats-out": ["featurize", "--in", str(corpus_dir), "--out", str(out),
                                "--stats-out", str(elsewhere / "s.txt")],
        "mask": ["mask", "--in", str(corpus_dir), "--stats",
                 str(featurized / "global_stats.txt"), "--mode", "none", "--out", str(out)],
    }[command]
    assert main(argv) == 0
    swept = [out] + ([elsewhere] if command == "featurize-stats-out" else [])
    for directory in (out, elsewhere):
        assert (directory / f".utt_000.fmx.{dead}.77.tmp").exists() == (directory not in swept)
        assert (directory / f".utt_000.fmx.{alive}.77.tmp").exists()
    removed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("removed ")]
    assert len(removed) == len(swept)


def test_unwritable_output_of_one_file_fails_that_file(tmp_path, corpus_dir, caplog):
    # a directory where one utterance's .fmx goes: os.replace fails for that
    # file alone, the run goes on and exits 1
    out = tmp_path / "f"
    (out / "utt_001.fmx").mkdir(parents=True)
    assert main(["featurize", "--in", str(corpus_dir), "--out", str(out)]) == 1
    failed = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(failed) == 1 and failed[0].startswith("failed on utt_001.wav: ")
    expected = {f"utt_{i:03d}.fmx" for i in range(6)} | {"global_stats.txt"}
    assert {p.name for p in out.iterdir()} == expected
    assert (out / "utt_001.fmx").is_dir()


blas_controls = cli._openblas_thread_controls()
needs_openblas = pytest.mark.skipif(
    not blas_controls, reason="no OpenBLAS thread control in this process (another BLAS or OS)"
)


def blas_threads():
    return [get_threads() for get_threads, _ in blas_controls]


@needs_openblas
def test_main_holds_blas_at_one_thread(tmp_path, corpus_dir, monkeypatch):
    seen = []
    original = cli.filterbank_energies

    def recording(*args, **kwargs):
        seen.append(blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "filterbank_energies", recording)
    found = blas_threads()
    try:
        # at every worker count: the command's own threads fill the CPUs
        for workers in ("1", "2"):
            for _, set_threads in blas_controls:
                set_threads(2)
            seen.clear()
            assert main([
                "featurize", "--in", str(corpus_dir), "--out", str(tmp_path / workers),
                "--workers", workers,
            ]) == 0
            assert seen == [[1] * len(blas_controls)] * 6
            # set once per process, with no restore
            assert blas_threads() == [1] * len(blas_controls)
    finally:
        for (_, set_threads), count in zip(blas_controls, found):
            set_threads(count)


def fail_second_range(monkeypatch, uid, error, on_a_helper):
    """Make the front end raise `error` at the third block of utterance uid
    (a file of MULTI_BLOCK_FRAMES[-1] frames, six blocks), whichever thread
    reads it; return the names of the threads it was raised on. With
    on_a_helper, a pool thread reads no block of uid before the calling
    thread has read its first, and the calling thread then waits there
    until the error has been raised: it holds the first or the second
    block, so a pool thread claims the third."""
    failing_sample = 2 * dsp.BLOCK_FRAMES * FeatureConfig.hop_samples
    read = dsp.read_wav
    raised_on = []
    caller_read = threading.Event()
    raised = threading.Event()

    def read_or_fail(source, start, stop, out):
        if source.utterance_id == uid:
            if on_a_helper and threading.current_thread() is not threading.main_thread():
                assert caller_read.wait(timeout=30)
            elif on_a_helper and not caller_read.is_set():
                caller_read.set()
                assert raised.wait(timeout=30)
            if start == failing_sample:
                raised_on.append(threading.current_thread().name)
                raised.set()
                raise error
        return read(source, start, stop, out=out)

    monkeypatch.setattr(dsp, "read_wav", read_or_fail)
    return raised_on


def fail_short_file(monkeypatch, uid, error, on_a_helper):
    """Make the front end raise `error` when it reads utterance uid, a file
    of fewer than two blocks, whichever thread runs it; return the names of
    the threads it was raised on. With on_a_helper, a pool thread reads no
    file before the calling thread has read its first, and the calling
    thread waits at its first read until the pool threads' claim loops have
    ended, so a helper takes uid (any file after the first two)."""
    read = dsp.read_wav
    raised_on = []
    claim_loops = []
    caller_read = threading.Event()

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            claim_loops.append(super().submit(*args, **kwargs))
            return claim_loops[-1]

    def read_or_fail(source, start, stop, out):
        if on_a_helper and threading.current_thread() is not threading.main_thread():
            assert caller_read.wait(timeout=30)
        elif on_a_helper:
            caller_read.set()
            assert not futures.wait(claim_loops, timeout=30).not_done
        if source.utterance_id == uid:
            raised_on.append(threading.current_thread().name)
            raise error
        return read(source, start, stop, out=out)

    monkeypatch.setattr(dsp, "read_wav", read_or_fail)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    return raised_on


class TestThreads:
    """No thread outlives a command, and a front-end block or a short file
    on a helper fails its file as the serial front end would."""

    @pytest.fixture()
    def wavs(self, corpus_dir):
        uid = "long"
        write_wav(corpus_dir / f"{uid}.wav", waveform_of_frames(MULTI_BLOCK_FRAMES[-1], 4, uid))
        return corpus_dir

    def featurize(self, wavs, out, cpus, monkeypatch):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        before = threading.active_count()
        try:
            return main(["featurize", "--in", str(wavs), "--out", str(out)])
        finally:
            assert threading.active_count() == before

    def test_clean_run(self, tmp_path, wavs, monkeypatch):
        seen = []
        original = dsp.power_spectrum

        def recording(*args, **kwargs):
            seen.append(threading.current_thread().name)
            return original(*args, **kwargs)

        monkeypatch.setattr(dsp, "power_spectrum", recording)
        assert self.featurize(wavs, tmp_path / "f", 2, monkeypatch) == 0
        assert any(name.startswith("semaug-pool") for name in seen)

    def test_broken_file(self, tmp_path, wavs, monkeypatch, caplog):
        (wavs / "broken.wav").write_bytes(b"not audio")
        assert self.featurize(wavs, tmp_path / "f", 2, monkeypatch) == 1
        assert "failed on broken.wav: " in caplog.text

    def test_bad_audio_in_a_helper_range_fails_its_file_alone(
        self, tmp_path, wavs, monkeypatch, caplog
    ):
        errors = {}
        raised_on = {}
        for cpus in (1, 2):
            caplog.clear()
            out = tmp_path / f"c{cpus}"
            with monkeypatch.context() as patch:
                error = BadAudio("long.wav: cut")
                raised_on[cpus] = fail_second_range(patch, "long", error, cpus == 2)
                assert self.featurize(wavs, out, cpus, monkeypatch) == 1
            errors[cpus] = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
            assert sorted(p.name for p in out.glob("*.fmx")) == [
                f"utt_{i:03d}.fmx" for i in range(6)
            ]
        assert errors[1] == errors[2] == ["failed on long.wav: long.wav: cut"]
        # at T = 1 on the utterance's worker, at T = 2 on a helper
        assert raised_on[1] == [threading.main_thread().name]
        assert len(raised_on[2]) == 1 and raised_on[2][0].startswith("semaug-pool")
        assert_same_files(tmp_path / "c1", tmp_path / "c2")

    def test_interrupt_in_a_helper_range(self, tmp_path, wavs, monkeypatch):
        raised_on = fail_second_range(monkeypatch, "long", KeyboardInterrupt(), True)
        with pytest.raises(KeyboardInterrupt):
            self.featurize(wavs, tmp_path / "f", 2, monkeypatch)
        assert len(raised_on) == 1 and raised_on[0].startswith("semaug-pool")

    # an all-short corpus: every file runs whole, on the calling thread or a helper

    def test_clean_run_all_short(self, tmp_path, corpus_dir, monkeypatch):
        for cpus in (1, 2):
            assert self.featurize(corpus_dir, tmp_path / f"c{cpus}", cpus, monkeypatch) == 0
        assert_same_files(tmp_path / "c1", tmp_path / "c2")

    def test_broken_short_file(self, tmp_path, corpus_dir, monkeypatch, caplog):
        (corpus_dir / "broken.wav").write_bytes(b"not audio")
        assert self.featurize(corpus_dir, tmp_path / "f", 2, monkeypatch) == 1
        assert "failed on broken.wav: " in caplog.text
        assert len(list((tmp_path / "f").glob("*.fmx"))) == 6

    def test_bad_audio_in_a_short_file_on_a_helper_fails_its_file_alone(
        self, tmp_path, corpus_dir, monkeypatch, caplog
    ):
        errors = {}
        raised_on = {}
        for cpus in (1, 2):
            caplog.clear()
            out = tmp_path / f"c{cpus}"
            with monkeypatch.context() as patch:
                error = BadAudio("utt_005.wav: cut")
                raised_on[cpus] = fail_short_file(patch, "utt_005", error, cpus == 2)
                assert self.featurize(corpus_dir, out, cpus, monkeypatch) == 1
            errors[cpus] = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
            assert sorted(p.name for p in out.glob("*.fmx")) == [
                f"utt_{i:03d}.fmx" for i in range(5)
            ]
        assert errors[1] == errors[2] == ["failed on utt_005.wav: utt_005.wav: cut"]
        assert raised_on[1] == [threading.main_thread().name]
        assert len(raised_on[2]) == 1 and raised_on[2][0].startswith("semaug-pool")
        assert_same_files(tmp_path / "c1", tmp_path / "c2")

    def test_interrupt_in_a_short_file_on_a_helper(self, tmp_path, corpus_dir, monkeypatch):
        # the helper's interrupt at the third file ends every thread's claims
        raised_on = fail_short_file(monkeypatch, "utt_002", KeyboardInterrupt(), True)
        with pytest.raises(KeyboardInterrupt):
            self.featurize(corpus_dir, tmp_path / "f", 2, monkeypatch)
        assert len(raised_on) == 1 and raised_on[0].startswith("semaug-pool")
        assert sorted(p.name for p in (tmp_path / "f").glob("*.fmx")) == [
            "utt_000.fmx", "utt_001.fmx",
        ]


def test_short_utterances_take_every_thread(tmp_path, corpus_dir, monkeypatch):
    # --workers 1 on two CPUs: the helper takes whole short files too; the
    # calling thread waits at its first file until the helper has one
    idents = []
    helper_started = threading.Event()
    original = cli.filterbank_energies

    def recording(*args, **kwargs):
        idents.append(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            helper_started.wait(timeout=30)
        else:
            helper_started.set()
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "filterbank_energies", recording)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    assert main(["featurize", "--in", str(corpus_dir), "--out", str(tmp_path / "f")]) == 0
    assert len(idents) == 6
    assert len(set(idents)) == 2


@pytest.mark.parametrize("workers,cpus", [(1, 2), (2, 4)])
def test_multi_block_utterances_run_on_workers_at_most_n_at_a_time(
    tmp_path, corpus_dir, monkeypatch, workers, cpus
):
    # T = 2 either way; the long files sort before the short ones
    for i, frames in enumerate(MULTI_BLOCK_FRAMES):
        write_wav(corpus_dir / f"long_{i}.wav", waveform_of_frames(frames, i, f"long_{i}"))
    lock = threading.Lock()
    running = []
    peak = 0
    long_threads = []
    original = cli.filterbank_energies

    def recording(source, cfg, *front_end_threads):
        nonlocal peak
        if not dsp.multi_block(source.num_samples, cfg):
            return original(source, cfg, *front_end_threads)
        with lock:
            running.append(source.utterance_id)
            peak = max(peak, len(running))
            long_threads.append(threading.current_thread().name)
        try:
            return original(source, cfg, *front_end_threads)
        finally:
            with lock:
                running.remove(source.utterance_id)

    monkeypatch.setattr(cli, "filterbank_energies", recording)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    assert main(["featurize", "--in", str(corpus_dir), "--out", str(tmp_path / "f"),
                 "--workers", str(workers)]) == 0
    assert len(long_threads) == len(MULTI_BLOCK_FRAMES)
    assert 1 <= peak <= workers
    if workers == 1:
        assert set(long_threads) == {threading.main_thread().name}
    else:
        assert all(
            name == threading.main_thread().name or name.startswith("semaug-pool")
            for name in long_threads
        )


# Run as `python -c _FIRST_TO_LOAD <JSON list of argv lists>`: prints the
# first step (`import semaug`, `import semaug.cli` or one of the commands)
# after which _hashlib, and with it OpenSSL's libcrypto, or numpy.random is
# loaded, with the module's name, or nothing if no step loads either.
_FIRST_TO_LOAD = textwrap.dedent(
    """
    import json
    import sys

    def check(step):
        for module in ("_hashlib", "numpy.random"):
            if module in sys.modules:
                print(f"{step}: {module}")
                sys.exit(0)

    import semaug
    check("import semaug")
    import semaug.cli
    check("import semaug.cli")
    for argv in json.loads(sys.argv[1]):
        assert semaug.cli.main(argv) == 0, argv
        check(" ".join(argv))
    """
)


def test_no_command_loads_openssl_or_numpy_random(tmp_path):
    # importing hashlib loads _hashlib, which maps OpenSSL's libcrypto:
    # about 3.5 MB more resident memory for a command that hashes nothing
    # with it (masking's BLAKE2b comes from _blake2); numpy.random imports
    # secrets, which imports hmac and _hashlib (dropout draws from its own
    # SplitMix64 stream instead)
    wavs = tmp_path / "wavs"
    make_corpus(wavs, mixed_waveforms(3, 0.5))
    stats = tmp_path / "f" / "global_stats.txt"
    commands = [
        ["featurize", "--in", str(wavs), "--out", str(tmp_path / "f")],
        *(
            ["mask", "--in", str(wavs), "--stats", str(stats), "--mode", mode,
             *MODE_FLAGS[mode], "--out", str(tmp_path / mode)]
            for mode in MODE_FLAGS
        ),
        ["stats", "--in", str(wavs), "--out", str(tmp_path / "dist.csv")],
        ["render", "--in", str(wavs / "utt_000.wav"), "--eta-th", "-30",
         "--out", str(tmp_path / "utt_000.pgm")],
    ]
    run = run_python(["-c", _FIRST_TO_LOAD, json.dumps(commands)])
    assert (run.returncode, run.stdout) == (0, ""), run.stderr


def _featurize_faults(tmp_path, num_utterances):
    """Minor page faults of `featurize` over that many 1.5 s WAVs, in a fresh process."""
    wavs = tmp_path / f"wavs{num_utterances}"
    make_corpus(wavs, [
        synth_speech_like(1.5, seed=i, utterance_id=f"utt_{i:03d}")
        for i in range(num_utterances)
    ])
    code, usage = run_with_rusage(
        ["-m", "semaug.cli", "featurize",
         "--in", str(wavs), "--out", str(tmp_path / f"out{num_utterances}")],
        stderr=subprocess.DEVNULL,
    )
    assert code == 0
    return usage.ru_minflt


class TestKeepFreedMemory:
    @pytest.mark.skipif(cli._libc_mallopt() is None, reason="the C library has no mallopt")
    def test_no_page_faults_per_utterance(self, tmp_path):
        # glibc's default thresholds fault each utterance's temporaries in
        # again: about 235 extra faults per extra 1.5 s utterance
        few = _featurize_faults(tmp_path, 20)
        many = _featurize_faults(tmp_path, 60)
        assert (many - few) / 40 < 20

    @pytest.mark.parametrize("failure", ["no_library", "no_symbol"])
    def test_runs_without_mallopt(self, tmp_path, corpus_dir, monkeypatch, failure):
        reference = tmp_path / "reference"
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(reference)]) == 0

        def no_library(name):
            raise OSError(f"cannot load {name}")

        def no_symbol(name):
            return object()

        monkeypatch.setattr(
            cli.ctypes, "CDLL", no_library if failure == "no_library" else no_symbol
        )
        assert cli._libc_mallopt() is None
        out = tmp_path / "out"
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(out)]) == 0
        assert_same_files(reference, out)
