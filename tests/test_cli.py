"""End-to-end command-line behavior: files in, files out, exit codes."""

import csv

import numpy as np
import pytest

from semaug import (
    FeatureConfig,
    divide_std,
    filterbank_energies,
    power_mel,
    read_wav,
    subtract_mean,
    synth_fixture,
    write_wav,
)
from semaug import cli
from semaug.cli import main
from semaug.formats import load_features, load_stats
from conftest import mixed_waveforms


def make_corpus(directory, waves):
    directory.mkdir(parents=True, exist_ok=True)
    for wave in waves:
        write_wav(directory / f"{wave.utterance_id}.wav", wave)


def assert_same_files(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def read_manifest(path):
    with open(path, newline="") as handle:
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


class TestFeaturize:
    def test_empty_dir_exits_2(self, tmp_path, caplog):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["featurize", "--in", str(empty), "--out", str(tmp_path / "o")]) == 2
        assert "no input files" in caplog.text

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

    def test_partial_failure_exits_1(self, tmp_path, corpus_dir, caplog):
        (corpus_dir / "broken.wav").write_bytes(b"not audio")
        out = tmp_path / "f"
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(out)]) == 1
        # good files still produced
        assert (out / "utt_000.fmx").exists()
        assert "broken.wav" in caplog.text

    def test_raw_features_match_library(self, corpus_dir, featurized):
        cfg = FeatureConfig()
        wav = read_wav(corpus_dir / "utt_000.wav")
        energies = filterbank_energies(wav, cfg)
        expected = power_mel(energies, cfg.power_exponent).values.astype(np.float32)
        assert np.array_equal(load_features(featurized / "utt_000.fmx"), expected)

    def test_workers_do_not_change_bytes(self, tmp_path, corpus_dir):
        # 4 workers is more than the cores of a small machine
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["featurize", "--in", str(corpus_dir), "--out", str(out_a)]) == 0
        assert main(
            ["featurize", "--in", str(corpus_dir), "--out", str(out_b), "--workers", "4"]
        ) == 0
        assert_same_files(out_a, out_b)
        stats = str(out_a / "global_stats.txt")
        modes = (
            ["sem", "--seed", "3"], ["fixed", "--eta-th", "-30"],
            ["dropout", "--rate", "0.1", "--seed", "3"], ["none"],
        )
        for mode in modes:
            outs = []
            for workers in ("1", "4"):
                out = tmp_path / f"{mode[0]}_{workers}"
                assert main([
                    "mask", "--in", str(corpus_dir), "--stats", stats, "--mode", *mode,
                    "--out", str(out), "--workers", workers,
                ]) == 0
                outs.append(out)
            assert (outs[0] / "manifest.csv").exists()
            assert_same_files(*outs)

    def test_workers_below_one_exit_2(self, tmp_path, corpus_dir):
        out = tmp_path / "f"
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["featurize", "--in", str(corpus_dir), "--out", str(out),
                      "--workers", workers])
            assert exc.value.code == 2
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
        x_raw = power_mel(filterbank_energies(wav, cfg), cfg.power_exponent)
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
        x_raw = power_mel(filterbank_energies(wav, cfg), cfg.power_exponent)
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

    def test_missing_stats_exits_2(self, tmp_path, corpus_dir):
        assert main([
            "mask", "--in", str(corpus_dir), "--stats", str(tmp_path / "nope.txt"),
            "--mode", "none", "--out", str(tmp_path / "m"),
        ]) == 2

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

    def test_silence_renders_black(self, tmp_path):
        wavs = tmp_path / "w"
        make_corpus(wavs, [synth_fixture("silence", 0.5, utterance_id="quiet")])
        out = tmp_path / "q.pgm"
        assert main(["render", "--in", str(wavs / "quiet.wav"), "--eta-th", "-20",
                     "--out", str(out)]) == 0
        payload = out.read_bytes().split(b"\n", 3)[3]
        assert payload == bytes(len(payload))


blas_controls = cli._openblas_thread_controls()
needs_openblas = pytest.mark.skipif(
    not blas_controls, reason="no OpenBLAS thread control in this process (another BLAS or OS)"
)


def blas_threads():
    return [get_threads() for get_threads, _ in blas_controls]


@needs_openblas
class TestSingleThreadedBlas:
    def test_one_thread_inside_restored_after(self):
        before = blas_threads()
        with cli._single_threaded_blas():
            assert blas_threads() == [1] * len(before)
        assert blas_threads() == before

    def test_restored_after_exception(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with cli._single_threaded_blas():
                raise RuntimeError("inside")
        assert blas_threads() == before

    def test_restored_after_partial_failure(self, tmp_path, corpus_dir):
        before = blas_threads()
        (corpus_dir / "broken.wav").write_bytes(b"not audio")
        out = tmp_path / "f"
        assert main([
            "featurize", "--in", str(corpus_dir), "--out", str(out), "--workers", "4",
        ]) == 1
        assert blas_threads() == before

    def test_held_only_while_pool_runs(self, tmp_path, corpus_dir, monkeypatch):
        seen = []
        original = cli.filterbank_energies

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "filterbank_energies", recording)
        before = blas_threads()
        for workers in ("1", "2"):
            seen.clear()
            assert main([
                "featurize", "--in", str(corpus_dir), "--out", str(tmp_path / workers),
                "--workers", workers,
            ]) == 0
            expected = before if workers == "1" else [1] * len(before)
            assert seen == [expected] * 6
