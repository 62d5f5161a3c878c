"""Batch command-line tools: featurize, mask, stats, render.

All commands are deterministic functions of (inputs, flags, seed):
utterances are processed in sorted utterance-id order, per-utterance
randomness comes from keyed hash streams, and output files carry no
timestamps. Exit codes: 0 success, 1 partial per-file failure, 2
usage/empty-input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import formats
from .audio_io import read_wav
from .dsp import FeatureConfig, FilterbankMatrix, filterbank_energies, mel_filterbank
from .errors import SemaugError
from .features import StatsAccumulator, divide_std, power_mel, subtract_mean
from .masking import SemConfig, apply_fixed_sem, apply_sem, input_dropout, threshold_mask
from .stats import EtaHistogramAccumulator

log = logging.getLogger("semaug")

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2

FEATURE_SUFFIX = ".fmx"
DEFAULT_STATS_NAME = "global_stats.txt"
MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("utterance_id", "eta_th", "e_th", "masked_fraction", "scaling_r", "fallback")

MASK_MODES = ("sem", "fixed", "dropout", "none")
# flags that may accompany each masking mode; anything else is a usage error
_MODE_FLAGS = {
    "sem": {"eta_a", "eta_b", "seed"},
    "fixed": {"eta_th"},
    "dropout": {"rate", "seed"},
    "none": set(),
}
_MODE_REQUIRED = {"fixed": {"eta_th"}, "dropout": {"rate"}}


def _fmt(value: float) -> str:
    """CSV number format: 9 significant digits, '.' decimal separator."""
    return f"{value:.9g}"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("front-end config")
    group.add_argument("--window-ms", type=float, default=25.0)
    group.add_argument("--hop-ms", type=float, default=10.0)
    group.add_argument("--fft-size", type=int, default=512)
    group.add_argument("--num-channels", type=int, default=40)
    group.add_argument("--sample-rate", type=int, default=16000)
    group.add_argument("--power-exponent", type=float, default=1.0 / 15.0)


def _config_from_args(args: argparse.Namespace) -> FeatureConfig:
    return FeatureConfig(
        window_length_ms=args.window_ms,
        hop_ms=args.hop_ms,
        fft_size=args.fft_size,
        num_channels=args.num_channels,
        sample_rate_hz=args.sample_rate,
        power_exponent=args.power_exponent,
    )


def _list_wavs(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.wav"), key=lambda p: p.stem)


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


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


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold OpenBLAS to one thread inside the block; restore its count on exit.

    With two or more utterance workers, OpenBLAS's own helper thread only
    spins and takes a core from them. The count is process-wide, so this
    must not overlap another such block in another thread.
    """
    controls = _openblas_thread_controls()
    previous = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def _map_utterances(paths, worker, num_workers: int):
    """Run `worker` over paths, preserving input order regardless of pool size."""
    if num_workers > 1:
        with _single_threaded_blas(), ThreadPoolExecutor(max_workers=num_workers) as pool:
            return list(pool.map(worker, paths))
    return [worker(path) for path in paths]


def _extract_energies(path: Path, cfg: FeatureConfig, filterbank: FilterbankMatrix):
    waveform = read_wav(path)
    if waveform.sample_rate_hz != cfg.sample_rate_hz:
        raise SemaugError(
            f"{path}: sample rate {waveform.sample_rate_hz} != configured {cfg.sample_rate_hz}"
        )
    return filterbank_energies(waveform, cfg, filterbank=filterbank)


def _extract_raw(path: Path, cfg: FeatureConfig, filterbank: FilterbankMatrix):
    energies = _extract_energies(path, cfg, filterbank)
    return energies, power_mel(energies, cfg.power_exponent)


# --- featurize -------------------------------------------------------------

def cmd_featurize(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    if not in_dir.is_dir():
        log.error("input directory %s does not exist", in_dir)
        return EXIT_USAGE
    wavs = _list_wavs(in_dir)
    if not wavs:
        log.error("no input files")
        return EXIT_USAGE
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _config_from_args(args)
    filterbank = mel_filterbank(cfg)

    def worker(path: Path):
        energies, x_raw = _extract_raw(path, cfg, filterbank)
        formats.save_features(out_dir / (path.stem + FEATURE_SUFFIX), x_raw.values)
        acc = StatsAccumulator()
        acc.update(x_raw)
        return acc

    failures = 0
    corpus_acc = StatsAccumulator()
    for path, result in zip(wavs, _map_utterances(wavs, _safe(worker), args.workers)):
        if isinstance(result, Exception):
            log.error("failed on %s: %s", path.name, result)
            failures += 1
        else:
            corpus_acc.merge(result)

    if corpus_acc.count == 0:
        log.error("no utterance produced features")
        return EXIT_USAGE
    stats_path = Path(args.stats_out) if args.stats_out else out_dir / DEFAULT_STATS_NAME
    formats.save_stats(stats_path, corpus_acc.finalize())
    log.info("featurized %d utterances (%d failed), stats at %s",
             len(wavs) - failures, failures, stats_path)
    return EXIT_PARTIAL if failures else EXIT_OK


def _safe(worker):
    def wrapped(path):
        try:
            return worker(path)
        except (SemaugError, OSError) as exc:
            return exc
    return wrapped


# --- mask --------------------------------------------------------------------

def _validate_mode_flags(args: argparse.Namespace) -> str | None:
    """Return an error message when flags contradict the chosen mode."""
    passed = {
        name for name in ("eta_a", "eta_b", "eta_th", "rate", "seed")
        if getattr(args, name) is not None
    }
    stray = passed - _MODE_FLAGS[args.mode]
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(stray))
        return f"{flags} not valid with --mode {args.mode}"
    missing = _MODE_REQUIRED.get(args.mode, set()) - passed
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in sorted(missing))
        return f"--mode {args.mode} requires {flags}"
    return None


def cmd_mask(args: argparse.Namespace) -> int:
    problem = _validate_mode_flags(args)
    if problem:
        log.error("%s", problem)
        return EXIT_USAGE
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    stats_path = Path(args.stats)
    if not in_dir.is_dir():
        log.error("input directory %s does not exist", in_dir)
        return EXIT_USAGE
    if not stats_path.is_file():
        log.error("stats file %s does not exist", stats_path)
        return EXIT_USAGE
    wavs = _list_wavs(in_dir)
    if not wavs:
        log.error("no input files")
        return EXIT_USAGE

    cfg = _config_from_args(args)
    stats = formats.load_stats(stats_path)
    if stats.num_channels != cfg.num_channels:
        log.error("stats file has %d channels, config has %d",
                  stats.num_channels, cfg.num_channels)
        return EXIT_USAGE

    seed = 0 if args.seed is None else args.seed
    sem_cfg = None
    if args.mode == "sem":
        sem_cfg = SemConfig(
            eta_a=-80.0 if args.eta_a is None else args.eta_a,
            eta_b=0.0 if args.eta_b is None else args.eta_b,
            seed=seed,
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    filterbank = mel_filterbank(cfg)

    def worker(path: Path):
        energies, x_raw = _extract_raw(path, cfg, filterbank)
        uid = x_raw.utterance_id
        if args.mode == "sem" or args.mode == "fixed":
            if args.mode == "sem":
                outcome = apply_sem(x_raw, energies, stats, sem_cfg)
            else:
                outcome = apply_fixed_sem(x_raw, energies, stats, args.eta_th)
            final = outcome.features.values
            row = (
                uid,
                _fmt(outcome.mask.eta_th_used),
                _fmt(outcome.mask.e_th_used),
                _fmt(outcome.mask.masked_fraction),
                _fmt(outcome.scaling_r),
                str(int(outcome.fallback_applied)),
            )
        elif args.mode == "dropout":
            normalized = divide_std(subtract_mean(x_raw, stats), stats)
            dropped = input_dropout(normalized, args.rate, seed, uid)
            final = dropped.values
            zero_fraction = np.count_nonzero(dropped.values == 0.0) / dropped.values.size
            row = (uid, "", "", _fmt(zero_fraction), _fmt(1.0 / (1.0 - args.rate)), "0")
        else:  # none
            final = divide_std(subtract_mean(x_raw, stats), stats).values
            row = (uid, "", "", "", "", "")
        formats.save_features(out_dir / (path.stem + FEATURE_SUFFIX), final)
        return row

    failures = 0
    rows = []
    for path, result in zip(wavs, _map_utterances(wavs, _safe(worker), args.workers)):
        if isinstance(result, Exception):
            log.error("failed on %s: %s", path.name, result)
            failures += 1
        else:
            rows.append(result)

    rows.sort(key=lambda row: row[0])
    manifest_path = out_dir / MANIFEST_NAME
    with open(manifest_path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    log.info("masked %d utterances (%d failed), manifest at %s",
             len(rows), failures, manifest_path)
    return EXIT_PARTIAL if failures else EXIT_OK


# --- stats ---------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        log.error("input directory %s does not exist", in_dir)
        return EXIT_USAGE
    wavs = _list_wavs(in_dir)
    if not wavs:
        log.error("no input files")
        return EXIT_USAGE
    cfg = _config_from_args(args)
    filterbank = mel_filterbank(cfg)
    acc = EtaHistogramAccumulator(bin_width_db=args.bin_width)

    failures = 0
    for path in wavs:
        try:
            # unbound, so one utterance's arrays are freed before the next read
            acc.update(_extract_energies(path, cfg, filterbank))
        except (SemaugError, OSError) as exc:
            log.error("failed on %s: %s", path.name, exc)
            failures += 1
    if int(acc.counts.sum()) == 0:
        log.error("empty corpus")
        return EXIT_USAGE

    dist = acc.finalize()
    out_path = Path(args.out)
    with open(out_path, "w", encoding="ascii", newline="") as handle:
        handle.write("eta_db,pdf,cdf,energy_ratio\n")
        for i in range(dist.num_bins):
            handle.write(
                f"{_fmt(dist.bin_edges[i + 1])},{_fmt(dist.pdf[i])},"
                f"{_fmt(dist.cdf[i])},{_fmt(dist.energy_ratio[i])}\n"
            )
    log.info("wrote %d histogram rows to %s", dist.num_bins, out_path)
    return EXIT_PARTIAL if failures else EXIT_OK


# --- render ----------------------------------------------------------------------

def cmd_render(args: argparse.Namespace) -> int:
    in_path = Path(args.in_path)
    if not in_path.is_file():
        log.error("input file %s does not exist", in_path)
        return EXIT_USAGE
    cfg = _config_from_args(args)
    try:
        energies, x_raw = _extract_raw(in_path, cfg, mel_filterbank(cfg))
    except (SemaugError, OSError) as exc:
        log.error("failed on %s: %s", in_path.name, exc)
        return EXIT_USAGE

    values = x_raw.values
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.rint(255.0 * (values - lo) / (hi - lo)).astype(np.uint8)
    else:
        scaled = np.zeros(values.shape, dtype=np.uint8)
    mask = threshold_mask(energies, args.eta_th)
    if mask is not None:
        scaled *= mask.values
    # width = frames, height = channels, channel 0 at the bottom row
    image = scaled.T[::-1]
    formats.write_pgm(args.out, np.ascontiguousarray(image))
    log.info("rendered %s (%d x %d)", args.out, image.shape[1], image.shape[0])
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
    _add_config_flags(p_feat)
    p_feat.set_defaults(func=cmd_featurize)

    p_mask = sub.add_parser("mask", help="WAV dir + stats -> masked/normalized FMX1 files")
    p_mask.add_argument("--in", dest="in_dir", required=True)
    p_mask.add_argument("--stats", required=True)
    p_mask.add_argument("--mode", choices=MASK_MODES, required=True)
    p_mask.add_argument("--eta-a", type=float, default=None, help="lower dB bound (sem)")
    p_mask.add_argument("--eta-b", type=float, default=None, help="upper dB bound (sem)")
    p_mask.add_argument("--eta-th", type=float, default=None, help="fixed dB threshold (fixed)")
    p_mask.add_argument("--rate", type=float, default=None, help="dropout rate (dropout)")
    p_mask.add_argument("--seed", type=int, default=None)
    p_mask.add_argument("--out", dest="out_dir", required=True)
    p_mask.add_argument("--workers", type=_worker_count, default=1)
    _add_config_flags(p_mask)
    p_mask.set_defaults(func=cmd_mask)

    p_stats = sub.add_parser("stats", help="WAV dir -> dB-ratio histogram CSV")
    p_stats.add_argument("--in", dest="in_dir", required=True)
    p_stats.add_argument("--bin-width", type=float, default=1.0)
    p_stats.add_argument("--out", required=True)
    _add_config_flags(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_render = sub.add_parser("render", help="WAV -> masked power-mel spectrogram PGM")
    p_render.add_argument("--in", dest="in_path", required=True)
    p_render.add_argument("--eta-th", type=float, required=True)
    p_render.add_argument("--out", required=True)
    _add_config_flags(p_render)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SemaugError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
