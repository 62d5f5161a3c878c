"""Shared fixtures: a default front-end config, small mixed corpora, corpus
statistics through the accumulators, the front-end and energy-ratio oracles,
every command run at a chosen thread count, and memory and page-fault
probes."""

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from semaug import (
    EnergyMatrix,
    EtaHistogramAccumulator,
    FeatureConfig,
    StatsAccumulator,
    filterbank_energies,
    mel_filterbank,
    power_mel,
)
from semaug import cli
from semaug.audio_io import synth_fixture, synth_speech_like
from semaug.dsp import BLOCK_FRAMES, hamming_window
from semaug.errors import EmptyCorpus
from semaug.masking import energy_threshold, peak_energy


@pytest.fixture(scope="session")
def cfg():
    return FeatureConfig()


@pytest.fixture(scope="session")
def filterbank(cfg):
    return mel_filterbank(cfg)


def mixed_waveforms(num=8, duration_s=1.0):
    """A deterministic mix of fixture kinds, ids fixed by position."""
    kinds = ["sine", "white_noise", "chirp"]
    waves = []
    for i in range(num):
        if i % 4 == 3:
            waves.append(synth_speech_like(duration_s, seed=i, utterance_id=f"utt_{i:03d}"))
        else:
            waves.append(
                synth_fixture(kinds[i % 3], duration_s, seed=i, utterance_id=f"utt_{i:03d}")
            )
    return waves


@pytest.fixture(scope="session")
def mixed_corpus(cfg):
    """(energies, raw features) pairs for a small mixed fixture corpus."""
    pairs = []
    for wave in mixed_waveforms(8):
        energies = filterbank_energies(wave, cfg)
        pairs.append((energies, power_mel(fresh(energies))))
    return pairs


# utterances of two whole front-end blocks, of two and a final partial
# block, and of five and a final partial block
MULTI_BLOCK_FRAMES = (1024, 1027, 2577)


def front_end_oracle(samples, cfg):
    """The energies filterbank_energies gives for samples, built the slow way:
    every frame windowed and transformed at once, then each row taken from a
    BLOCK_FRAMES-row mel product (one M-row product when M < BLOCK_FRAMES),
    the final block formed as the last BLOCK_FRAMES frames. Unlike one
    whole-utterance product, this holds under every OpenBLAS kernel."""
    length, hop = cfg.window_samples, cfg.hop_samples
    num_frames = 1 + (len(samples) - length) // hop
    frames = np.stack([samples[m * hop : m * hop + length] for m in range(num_frames)])
    power = np.abs(np.fft.rfft(frames * hamming_window(length), n=cfg.fft_size)) ** 2
    weights_t = mel_filterbank(cfg).T
    block_rows = min(num_frames, BLOCK_FRAMES)
    energies = np.empty((num_frames, weights_t.shape[1]))
    for start in range(0, num_frames, block_rows):
        first = min(start, num_frames - block_rows)
        block = power[first : first + block_rows] @ weights_t
        energies[start : first + block_rows] = block[start - first :]
    return energies


def waveform_of_frames(num_frames, seed, utterance_id):
    """A speech-like waveform of exactly num_frames front-end frames."""
    cfg = FeatureConfig()
    num = (num_frames - 1) * cfg.hop_samples + cfg.window_samples
    return synth_speech_like(num / cfg.sample_rate_hz, seed=seed, utterance_id=utterance_id)


def run_every_command(wavs, out, workers, cpus, mask_modes, render_ids):
    """Run featurize, mask in each of mask_modes (a mode and its flags), stats,
    and render of each utterance in render_ids on the WAVs in wavs, at
    --workers `workers`, with cli seeing `cpus` CPUs; each command's output
    goes in its own directory under out."""
    run = cli.main
    with mock.patch.object(cli, "_cpu_count", return_value=cpus):
        features = out / "featurize"
        assert run(["featurize", "--in", str(wavs), "--out", str(features),
                    "--workers", str(workers)]) == 0
        stats = str(features / "global_stats.txt")
        for mode in mask_modes:
            assert run(["mask", "--in", str(wavs), "--stats", stats, "--mode", *mode,
                        "--out", str(out / f"mask_{mode[0]}"), "--workers", str(workers)]) == 0
        (out / "stats").mkdir()
        assert run(["stats", "--in", str(wavs), "--out", str(out / "stats" / "dist.csv")]) == 0
        (out / "render").mkdir()
        for uid in render_ids:
            assert run(["render", "--in", str(wavs / f"{uid}.wav"), "--eta-th", "-30",
                        "--out", str(out / "render" / f"{uid}.pgm")]) == 0


def assert_same_trees(dir_a, dir_b):
    """Each directory under dir_a has a namesake under dir_b with the same files."""
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert_same_files(dir_a / name, dir_b / name)


def assert_same_files(dir_a, dir_b):
    """The two directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def fresh(energies):
    """A copy for an in-place transform to overwrite."""
    return EnergyMatrix(energies.values.copy(), energies.utterance_id)


def accumulated_stats(matrices):
    """GlobalStats of the feature matrices, through one StatsAccumulator."""
    acc = StatsAccumulator()
    for features in matrices:
        acc.update(features)
    return acc.finalize()


def accumulated_histogram(matrices):
    """EtaDistribution of the energy matrices, through one EtaHistogramAccumulator."""
    acc = EtaHistogramAccumulator()
    for energies in matrices:
        acc.update(energies)
    return acc.finalize()


def energy_ratio_curve(corpus, thresholds):
    """Oracle of r_e: the fraction of total corpus energy held by bins below
    each dB threshold, computed from sorted energies rather than binned.

    Bin by bin, "below" is the comparison threshold_mask makes: energy under
    energy_threshold(e_peak, threshold), the bins the mask drops. Peaks are
    per utterance; thresholds must be given in ascending order.
    An utterance with no bins or a zero peak (all silence) has no dB ratios
    and is left out, as in EtaHistogramAccumulator.update; EmptyCorpus when
    no utterance is left.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size == 0:
        raise ValueError("at least one threshold required")
    if np.any(np.diff(thresholds) < 0):
        raise ValueError("thresholds must be sorted ascending")

    numerators = np.zeros(thresholds.size)
    total_energy = 0.0
    for energies in corpus:
        if energies.values.size == 0:
            continue
        e_peak = peak_energy(energies)
        if e_peak <= 0:
            continue
        sorted_energy = np.sort(np.asarray(energies.values, dtype=np.float64), axis=None)
        cum_energy = np.concatenate(([0.0], np.cumsum(sorted_energy)))
        e_th = [energy_threshold(e_peak, threshold) for threshold in thresholds.tolist()]
        positions = np.searchsorted(sorted_energy, e_th, side="left")
        numerators += cum_energy[positions]
        # same accumulation as the numerators, so "above everything" is exactly 1
        total_energy += cum_energy[-1]
    # a counted utterance has a positive peak, so a positive energy sum
    if total_energy == 0.0:
        raise EmptyCorpus("no utterance with a positive peak energy")
    return numerators / total_energy


def random_energy_matrix(rng, num_frames=None, num_channels=None):
    """Random nonnegative energies with a wide dynamic range."""
    frames = num_frames or int(rng.integers(2, 40))
    channels = num_channels or int(rng.integers(1, 16))
    magnitudes = rng.uniform(-8.0, 3.0, size=(frames, channels))
    return 10.0 ** magnitudes


def traced_peak(fn):
    """Call fn(); return (its result, the peak bytes tracemalloc saw above the
    traced total at the start of the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def reaped_pid():
    """The pid of a child process that has exited and been reaped: no
    process runs under it (until the system hands it out again)."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def run_with_rusage(argv, **popen_kwargs):
    """Run argv in a child process; return (its exit code, its os.wait4 rusage).

    The rusage covers the child alone, so ru_minflt counts its minor page
    faults from start to exit.
    """
    proc = subprocess.Popen(argv, **popen_kwargs)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage
