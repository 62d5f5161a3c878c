"""Batch command-line tools: featurize, mask, stats, render.

All commands are deterministic functions of (inputs, flags, seed):
utterances are processed in sorted utterance-id order, per-utterance
randomness comes from keyed hash streams, and output files carry no
timestamps. Exit codes: 0 success, 1 partial per-file failure, 2
usage/empty-input error or an output that cannot be written.

Before it reads a WAV, each command claims its outputs (_claim_outputs):
featurize its stats file and feature files, mask its manifest.csv and
feature files, stats its CSV, render its PGM. An output that cannot be
written, is an input, or is another output of the run refuses the run
before featurize or mask makes its --out. The record (stats file or
manifest) is removed first and written last: an interrupted run leaves no
record of outputs it did not finish, and no feature file of an earlier run.

Every command runs its utterances on the calling thread and helper
threads, for --workers N (stats and render have one) and T = max(1, C // N),
C being the CPUs in the process's affinity mask. First the calling thread
and N x T - 1 helpers take whole utterances of fewer than two front-end
blocks. Then the calling thread and N - 1 helpers take the utterances of
two or more, at most N at a time, each sharing its front end's blocks with
up to T - 1 helpers of its own. Files and blocks are claimed by one loop,
dsp.share, which starts and joins the helpers of each call. main holds
OpenBLAS to one thread, once per process and with no restore. Neither count
changes an output byte or a log line, and no thread outlives the command.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import logging
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import formats
from .audio_io import WavReader
from .dsp import FeatureConfig, filterbank_energies, multi_block, share
from .errors import EmptyCorpus, SemaugError
from .features import StatsAccumulator, normalize, power_mel
from .masking import (
    SemConfig, apply_fixed_sem, apply_sem, input_dropout, threshold_mask, zero_fraction,
)
from .stats import BIN_EDGES, EtaHistogramAccumulator

log = logging.getLogger("semaug")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2

FEATURE_SUFFIX = ".fmx"
DEFAULT_STATS_NAME = "global_stats.txt"
MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("utterance_id", "eta_th", "e_th", "masked_fraction", "scaling_r", "fallback")

# masking mode -> (flags it accepts, flags it requires); any other mode flag
# is a usage error
MASK_MODES = {
    "sem": ({"eta_a", "eta_b", "seed"}, set()),
    "fixed": ({"eta_th"}, {"eta_th"}),
    "dropout": ({"rate", "seed"}, {"rate"}),
    "none": (set(), set()),
}


def _fmt(value: float) -> str:
    """CSV number format: 9 significant digits, '.' decimal separator."""
    return f"{value:.9g}"


def _input_wavs(in_dir: str) -> list[Path]:
    """The directory's WAVs in utterance-id order; a usage error when it is
    missing, is not a directory or holds none."""
    directory = Path(in_dir)
    if not directory.is_dir():
        problem = "is not a directory" if directory.exists() else "does not exist"
        raise SemaugError(f"input directory {directory} {problem}")
    wavs = sorted(directory.glob("*.wav"), key=lambda p: p.stem)
    if not wavs:
        raise SemaugError("no input files")
    return wavs


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _dropout_rate(text: str) -> float:
    rate = _finite(text)
    if not 0.0 <= rate < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text!r}")
    return rate


# (get, set) thread-count symbols: numpy >= 2 wheels bundle an ILP64 OpenBLAS
# with suffixed names; a system OpenBLAS exports the plain ones.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    Empty where there is no /proc/self/maps (not Linux) or no OpenBLAS.
    """
    try:
        with open("/proc/self/maps", "rb") as handle:
            paths = {
                os.fsdecode(line.split(maxsplit=5)[-1].strip())
                for line in handle if b"openblas" in line
            }
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get_threads = getattr(lib, get_name, None)
            set_threads = getattr(lib, set_name, None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                controls.append((get_threads, set_threads))
                break
    return controls


def _one_blas_thread() -> None:
    """Hold every OpenBLAS in this process to one thread: a command's own
    threads fill the CPUs, and OpenBLAS's helper would only spin and take a
    core from them. Set once per process, like _keep_freed_memory."""
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Above the largest temporary whose size does not grow with the utterance (the
# 512 x 257 float64 block power buffer, 1.05 MB), below the whole-utterance
# arrays of long files, which stay mmapped and go back to the OS when freed.
_MMAP_THRESHOLD_BYTES = 8 << 20
# Freed heap top kept resident between utterances, in every thread's arena.
_TRIM_THRESHOLD_BYTES = 64 << 20


def _libc_mallopt():
    """The running C library's mallopt, or None where it has none (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_memory() -> None:
    """Keep the per-utterance temporaries the allocator frees in this process.

    By default glibc mmaps each temporary above 128 kB and trims the freed
    heap top, so every utterance faults the same pages in again. Raising both
    thresholds once per process ends that churn; bytes never depend on it.
    Without mallopt, or when it refuses a value, this does nothing.
    """
    mallopt = _libc_mallopt()
    if mallopt is not None and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_utterances(paths, worker, num_workers: int):
    """Run `worker(path, energies)` on each path's energies; (results in
    input order, failure count).

    The threads are those of the module docstring, N = num_workers. First
    the calling thread and N * T - 1 helpers take whole utterances of fewer
    than two front-end blocks (dsp.multi_block), in input order; then the
    calling thread and N - 1 helpers take the multi-block ones, each
    sharing its front end's blocks with up to T - 1 helpers of its own
    (none at T = 1), all through dsp.share. Every thread has ended when
    this returns or raises. A SemaugError or OSError fails only its file,
    which is logged after the run and yields no result. Input order holds
    whatever the thread counts.
    """
    cfg = FeatureConfig()
    threads = max(1, _cpu_count() // num_workers)
    outcomes = [None] * len(paths)
    deferred = []

    def attempt(index, second_pass=False):
        path = paths[index]
        try:
            with WavReader(path) as wav:
                # a multi-block file waits for the second pass
                if not second_pass and multi_block(wav.num_samples, cfg):
                    deferred.append(index)
                    return
                energies = filterbank_energies(wav, cfg, threads if second_pass else 1)
            outcomes[index] = worker(path, energies)
        except (SemaugError, OSError) as exc:
            outcomes[index] = exc

    share(range(len(paths)), attempt, num_workers * threads)
    share(sorted(deferred), lambda index: attempt(index, second_pass=True), num_workers)
    results = []
    for path, outcome in zip(paths, outcomes):
        if isinstance(outcome, Exception):
            log.error("failed on %s: %s", path.name, outcome)
        else:
            results.append(outcome)
    return results, len(paths) - len(results)


def _claim_outputs(outputs: list[Path], inputs: list[Path], out_dir: Path | None = None) -> None:
    """Check, sweep and clear a run's outputs, before any WAV is read.

    A usage error names the first output that lies in no directory, is a
    directory or out_dir, is an input (the same file), or is an earlier
    output (the same name in the same directory). Then out_dir, the run's --out, is made
    if it is missing, dead processes' temporaries go from each output
    directory, and each output goes in order.
    """
    taken = set()
    for path in inputs:
        with contextlib.suppress(OSError):  # it fails its own read later
            found = path.stat()
            taken.add((found.st_dev, found.st_ino))
    # a missing out_dir, by its resolved path: nothing is in it yet
    new_dir = out_dir.resolve() if out_dir is not None and not out_dir.exists() else None
    # output directory -> its (device, inode), or new_dir
    directories = {}
    claimed = set()
    for path in outputs:
        if path.parent not in directories:
            if new_dir is not None and path.parent.resolve() == new_dir:
                directories[path.parent] = new_dir
            elif not path.parent.is_dir():
                raise SemaugError(f"cannot write {path}: {path.parent} is not a directory")
            else:
                found = path.parent.stat()
                directories[path.parent] = (found.st_dev, found.st_ino)
        key = (directories[path.parent], path.name)
        if key in claimed:
            raise SemaugError(f"cannot write {path}: it is another output of this run")
        claimed.add(key)
        if key[0] == new_dir:
            continue
        if new_dir is not None and path.resolve() == new_dir:
            raise SemaugError(f"cannot write {path}: it is the --out directory")
        try:
            found = path.stat()
        except FileNotFoundError:
            continue
        if stat.S_ISDIR(found.st_mode):
            raise SemaugError(f"cannot write {path}: it is a directory")
        if (found.st_dev, found.st_ino) in taken:
            raise SemaugError(f"cannot write {path}: it is an input of this run")
    if new_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for directory in sorted(directories):
        for path in formats.sweep_stale_temporaries(directory):
            log.info("removed %s, left by a process that no longer runs", path)
    for path in outputs:
        path.unlink(missing_ok=True)


# --- featurize -------------------------------------------------------------

def cmd_featurize(args: argparse.Namespace) -> int:
    wavs = _input_wavs(args.in_dir)
    out_dir = Path(args.out_dir)
    stats_path = Path(args.stats_out) if args.stats_out else out_dir / DEFAULT_STATS_NAME
    fmx = {path: out_dir / (path.stem + FEATURE_SUFFIX) for path in wavs}
    _claim_outputs([stats_path, *fmx.values()], wavs, out_dir)

    def worker(path: Path, energies):
        x_raw = power_mel(energies)
        formats.save_features(fmx[path], x_raw.values)
        acc = StatsAccumulator()
        acc.update(x_raw)
        return acc

    accumulators, failures = _run_utterances(wavs, worker, args.workers)
    corpus_acc = StatsAccumulator()
    for acc in accumulators:
        corpus_acc.merge(acc)
    formats.save_stats(stats_path, corpus_acc.finalize())
    log.info("featurized %d utterances (%d failed), stats at %s",
             len(accumulators), failures, stats_path)
    return EXIT_PARTIAL if failures else EXIT_OK


# --- mask --------------------------------------------------------------------

def _mode_flags(args: argparse.Namespace) -> dict:
    """The mode flags given, by name; ValueError when they contradict the mode."""
    accepted, required = MASK_MODES[args.mode]
    every = set().union(*(flags for flags, _ in MASK_MODES.values()))
    given = {name: getattr(args, name) for name in every if getattr(args, name) is not None}
    stray = given.keys() - accepted
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(stray))
        raise ValueError(f"{flags} not valid with --mode {args.mode}")
    missing = required - given.keys()
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(missing))
        raise ValueError(f"--mode {args.mode} requires {flags}")
    return given


def cmd_mask(args: argparse.Namespace) -> int:
    given = _mode_flags(args)
    wavs = _input_wavs(args.in_dir)
    out_dir = Path(args.out_dir)
    stats_path = Path(args.stats)
    if not stats_path.is_file():
        problem = "is not a file" if stats_path.exists() else "does not exist"
        raise SemaugError(f"stats file {stats_path} {problem}")
    stats = formats.load_stats(stats_path)
    if stats.num_channels != FeatureConfig.num_channels:
        raise SemaugError(f"stats file has {stats.num_channels} channels, "
                          f"the front end has {FeatureConfig.num_channels}")

    # after _mode_flags, the flags given to sem are SemConfig fields
    sem_cfg = SemConfig(**given) if args.mode == "sem" else None
    manifest_path = out_dir / MANIFEST_NAME
    fmx = {path: out_dir / (path.stem + FEATURE_SUFFIX) for path in wavs}
    _claim_outputs([manifest_path, *fmx.values()], [*wavs, stats_path], out_dir)

    def worker(path: Path, energies):
        # every mode turns the energies into its output in place
        uid = energies.utterance_id
        if args.mode == "sem" or args.mode == "fixed":
            if args.mode == "sem":
                outcome = apply_sem(energies, stats, sem_cfg)
            else:
                outcome = apply_fixed_sem(energies, stats, args.eta_th)
            row = (
                uid,
                _fmt(outcome.eta_th),
                _fmt(outcome.e_th),
                _fmt(zero_fraction(outcome.mask)),
                _fmt(outcome.scaling_r),
                str(int(outcome.fallback_applied)),
            )
        else:
            normalize(power_mel(energies), stats)
            if args.mode == "dropout":
                values = input_dropout(energies, args.rate, given.get("seed", 0)).values
                row = (uid, "", "", _fmt(zero_fraction(values)), _fmt(1.0 / (1.0 - args.rate)), "0")
            else:  # none
                row = (uid, "", "", "", "", "")
        formats.save_features(fmx[path], energies.values)
        return row

    rows, failures = _run_utterances(wavs, worker, args.workers)
    if not rows:
        raise EmptyCorpus("no utterance was masked")
    with formats.atomic_write(manifest_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    log.info("masked %d utterances (%d failed), manifest at %s",
             len(rows), failures, manifest_path)
    return EXIT_PARTIAL if failures else EXIT_OK


# --- stats ---------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    wavs = _input_wavs(args.in_dir)
    out_path = Path(args.out)
    _claim_outputs([out_path], wavs)

    def worker(path: Path, energies):
        # the utterance's own histogram, or None when it adds no bins
        acc = EtaHistogramAccumulator()
        return path, acc if acc.update(energies) else None

    partials, failures = _run_utterances(wavs, worker, 1)
    acc = EtaHistogramAccumulator()
    for path, partial in partials:
        if partial is None:
            log.info("%s has zero peak energy (silence): no bins added", path.name)
        else:
            acc.merge(partial)
    dist = acc.finalize()
    rows = list(zip(BIN_EDGES[1:], dist.pdf, dist.cdf, dist.energy_ratio))
    with formats.atomic_write(out_path, "w", encoding="ascii", newline="") as handle:
        handle.write("eta_db,pdf,cdf,energy_ratio\n")
        for row in rows:
            handle.write(",".join(map(_fmt, row)) + "\n")
    log.info("wrote %d histogram rows to %s", len(rows), out_path)
    return EXIT_PARTIAL if failures else EXIT_OK


# --- render ----------------------------------------------------------------------

def cmd_render(args: argparse.Namespace) -> int:
    in_path = Path(args.in_path)
    if not in_path.is_file():
        problem = "is not a file" if in_path.exists() else "does not exist"
        raise SemaugError(f"input file {in_path} {problem}")
    _claim_outputs([Path(args.out)], [in_path])

    def worker(path: Path, energies):
        masked = threshold_mask(energies, args.eta_th)
        values = power_mel(energies).values
        lo, hi = float(values.min()), float(values.max())
        # width = frames, height = channels, channel 0 at the bottom row: the
        # image is cast straight into that layout, so no flipped copy is made
        if hi > lo:
            # rint(255 * (values - lo) / (hi - lo)), in place: same steps, same bits
            values -= lo
            values *= 255.0
            values /= hi - lo
            np.rint(values, out=values)
            image = values.T[::-1].astype(np.uint8, order="C")
        else:
            image = np.zeros(values.T.shape, dtype=np.uint8)
        if masked is not None:
            image *= masked[0].T[::-1]
        formats.write_pgm(args.out, image)
        return image.shape

    shapes, failures = _run_utterances([in_path], worker, 1)
    if failures:
        return EXIT_USAGE
    height, width = shapes[0]
    log.info("rendered %s (%d x %d)", args.out, width, height)
    return EXIT_OK


# --- entry point --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semaug",
        description="Small energy masking tools for power-mel speech features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("featurize", help="WAV dir -> raw power-mel FMX1 files + stats")
    p_feat.add_argument("--in", dest="in_dir", required=True)
    p_feat.add_argument("--out", dest="out_dir", required=True)
    p_feat.add_argument("--stats-out", default=None,
                        help=f"stats file path (default <out>/{DEFAULT_STATS_NAME})")
    p_feat.add_argument("--workers", type=_worker_count, default=1)
    p_feat.set_defaults(func=cmd_featurize)

    p_mask = sub.add_parser("mask", help="WAV dir + stats -> masked/normalized FMX1 files")
    p_mask.add_argument("--in", dest="in_dir", required=True)
    p_mask.add_argument("--stats", required=True)
    p_mask.add_argument("--mode", choices=MASK_MODES, required=True)
    p_mask.add_argument("--eta-a", type=_finite, default=None, help="lower dB bound (sem)")
    p_mask.add_argument("--eta-b", type=_finite, default=None, help="upper dB bound (sem)")
    p_mask.add_argument("--eta-th", type=_finite, default=None, help="fixed dB threshold (fixed)")
    p_mask.add_argument("--rate", type=_dropout_rate, default=None, help="dropout rate (dropout)")
    p_mask.add_argument("--seed", type=int, default=None)
    p_mask.add_argument("--out", dest="out_dir", required=True)
    p_mask.add_argument("--workers", type=_worker_count, default=1)
    p_mask.set_defaults(func=cmd_mask)

    p_stats = sub.add_parser("stats", help="WAV dir -> dB-ratio histogram CSV")
    p_stats.add_argument("--in", dest="in_dir", required=True)
    p_stats.add_argument("--out", required=True)
    p_stats.set_defaults(func=cmd_stats)

    p_render = sub.add_parser("render", help="WAV -> masked power-mel spectrogram PGM")
    p_render.add_argument("--in", dest="in_path", required=True)
    p_render.add_argument("--eta-th", type=_finite, required=True)
    p_render.add_argument("--out", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    _one_blas_thread()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SemaugError, ValueError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
