"""Shared fixtures: a default front-end config, small mixed corpora, and
memory and page-fault probes."""

import os
import subprocess
import tracemalloc

import pytest

from semaug import EnergyMatrix, FeatureConfig, filterbank_energies, mel_filterbank, power_mel
from semaug import synth_fixture, synth_speech_like


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
def mixed_corpus(cfg, filterbank):
    """(energies, raw features) pairs for a small mixed fixture corpus."""
    pairs = []
    for wave in mixed_waveforms(8):
        energies = filterbank_energies(wave, cfg, filterbank=filterbank)
        pairs.append((energies, power_mel(fresh(energies), cfg.power_exponent)))
    return pairs


def assert_same_files(dir_a, dir_b):
    """The two directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def fresh(energies):
    """A copy for an in-place transform to overwrite."""
    return EnergyMatrix(energies.values.copy(), energies.utterance_id)


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


def run_with_rusage(argv, **popen_kwargs):
    """Run argv in a child process; return (its exit code, its os.wait4 rusage).

    The rusage covers the child alone, so ru_minflt counts its minor page
    faults from start to exit.
    """
    proc = subprocess.Popen(argv, **popen_kwargs)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage
