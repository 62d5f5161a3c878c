"""Deterministic benchmark corpus: synth_speech_like utterances written as WAVs.

Every utterance of a workload has the same duration, so the compute a
command does depends on the workload alone and not on the seed; the seed
only changes the audio content.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

SAMPLE_RATE_HZ = 16000
# Synthesis of a 600 s utterance peaks near 700 MB, so at most two at once.
MAX_GENERATORS = 2
# Workers are forked: spawn would also start a multiprocessing resource
# tracker that outlives the benchmark. fork is safe here because run.py has
# started no thread and imported no numpy when it generates the corpus, and
# the executor forks all its workers before it starts its own thread.


@dataclass(frozen=True)
class Corpus:
    wav_dir: Path
    utterance_ids: tuple[str, ...]
    num_samples: dict[str, int]  # utterance id -> sample count N
    audio_s: float
    sha256: str  # over every WAV's name and bytes, in sorted order


def utterance_seed(workload: str, seed: int, index: int) -> int:
    """Synthesis seed of one utterance, keyed by (workload, seed, index)."""
    key = f"{workload}/{seed}/{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def _write_utterance(path: Path, duration_s: float, synth_seed: int) -> int:
    from semaug.audio_io import synth_speech_like, write_wav

    wave = synth_speech_like(
        duration_s, sample_rate_hz=SAMPLE_RATE_HZ, seed=synth_seed, utterance_id=path.stem
    )
    write_wav(path, wave)
    return wave.num_samples


def generate(wav_dir: Path, workload: str, seed: int, utterances: int, duration_s: float) -> Corpus:
    """Write the corpus of (workload, seed) into wav_dir and hash it."""
    wav_dir.mkdir(parents=True)
    ids = tuple(f"utt{i:04d}" for i in range(utterances))
    paths = [wav_dir / f"{uid}.wav" for uid in ids]
    seeds = [utterance_seed(workload, seed, i) for i in range(utterances)]
    workers = min(MAX_GENERATORS, len(os.sched_getaffinity(0)), utterances)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        counts = list(pool.map(_write_utterance, paths, [duration_s] * utterances, seeds,
                               chunksize=max(1, utterances // (4 * workers))))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode("ascii") + b"\0")
        digest.update(path.read_bytes())
    audio_s = sum(counts) / SAMPLE_RATE_HZ
    return Corpus(wav_dir, ids, dict(zip(ids, counts)), audio_s, digest.hexdigest())
