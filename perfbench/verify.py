"""Independent checks of the artifacts the semaug commands write.

The checks parse every format here rather than through semaug's own
readers, so a reader bug cannot hide a writer bug. Each check returns the
utterance ids it found at fault; a fault in a corpus-wide artifact (the
stats file, the histogram CSV, the manifest header) fails every utterance
of that command.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from pathlib import Path

import numpy as np

# The benchmark passes no front-end flags, so the CLI defaults apply:
# 25 ms windows and 10 ms hops at 16 kHz, 40 mel channels, and power-mel
# features x_raw = E^(1/15) of the filterbank energies E.
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
CHANNELS = 40
POWER_EXPONENT = 1.0 / 15.0
# SEM draws eta_th from [ETA_A, ETA_B) dB; e_th = (95th-percentile energy) * 10^(eta_th/10).
ETA_A, ETA_B = -80.0, 0.0
PEAK_PERCENTILE = 95
ETA_FLOOR = 1e-30

FMX_HEADER = struct.Struct("<4sHII")
MANIFEST_HEADER = ["utterance_id", "eta_th", "e_th", "masked_fraction", "scaling_r", "fallback"]
CSV_HEADER = "eta_db,pdf,cdf,energy_ratio"
HISTOGRAM_BINS = 110  # 1 dB bins over [-100, +10] dB
HISTOGRAM_LO_DB = -100.0

SUM_RTOL = 1e-5  # x_raw is stored as float32
VALUE_ATOL = 1e-4  # per element, scaled by max(1, r)
# E recomputed from float32 x_raw carries a relative error of up to
# 15 * 2^-24 (about 1e-6): energies this close to e_th may fall either side.
ENERGY_RTOL = 1e-5
# Histogram entries recomputed from the featurize output: a bin whose dB
# value lies within ~1e-5 dB of an edge may land in the neighbour.
HISTOGRAM_ATOL = 1e-4
# Dropout zeroes each element with probability rate; allowed deviation of
# one utterance's zero fraction, in binomial standard deviations.
DROPOUT_SIGMAS = 6.0


class Fault(Exception):
    """An artifact that fails verification."""


def expected_frames(num_samples: int) -> int:
    """M = 1 + floor((N - L) / H)."""
    return 1 + (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def read_fmx(path: Path, frames: int) -> np.ndarray:
    """Parse one FMX1 file and check its shape; float64 values."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise Fault(f"{path.name}: {exc.strerror}") from exc
    if len(blob) < FMX_HEADER.size:
        raise Fault(f"{path.name}: shorter than the FMX1 header")
    magic, version, m, c = FMX_HEADER.unpack_from(blob)
    if magic != b"FMX1" or version != 1:
        raise Fault(f"{path.name}: bad magic/version {magic!r}/{version}")
    if (m, c) != (frames, CHANNELS):
        raise Fault(f"{path.name}: shape ({m}, {c}), expected ({frames}, {CHANNELS})")
    if len(blob) != FMX_HEADER.size + 4 * m * c:
        raise Fault(f"{path.name}: payload size {len(blob) - FMX_HEADER.size}")
    values = np.frombuffer(blob, dtype="<f4", offset=FMX_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise Fault(f"{path.name}: non-finite values")
    return values.reshape(m, c)


def read_semstats(path: Path, total_frames: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        lines = path.read_text(encoding="ascii").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise Fault(f"{path.name}: unreadable ({exc})") from exc
    if lines[0] != f"SEMSTATS v1 C={CHANNELS} N={total_frames}" or lines[-1] != "":
        raise Fault(f"{path.name}: header {lines[0]!r}, expected N={total_frames}")
    body = lines[1:-1]
    if len(body) != CHANNELS:
        raise Fault(f"{path.name}: {len(body)} channel lines")
    mean = np.empty(CHANNELS)
    std = np.empty(CHANNELS)
    for i, line in enumerate(body):
        parts = line.split(" ")
        try:
            if len(parts) != 3 or int(parts[0]) != i:
                raise ValueError(line)
            mean[i], std[i] = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise Fault(f"{path.name}: malformed line {line!r}") from exc
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std)) and np.all(std > 0)):
        raise Fault(f"{path.name}: non-finite mean or non-positive std")
    return mean, std


class Verifier:
    """Checks one round's outputs against the corpus that produced them."""

    def __init__(self, corpus, out_root: Path):
        self.corpus = corpus
        self.out_root = out_root
        self.frames = {uid: expected_frames(n) for uid, n in corpus.num_samples.items()}
        self.faults: list[str] = []
        self._raw: dict[str, np.ndarray] = {}
        self._stats: tuple[np.ndarray, np.ndarray] | None = None

    def _fail(self, uid: str | None, fault: Exception) -> set[str]:
        self.faults.append(str(fault))
        return set(self.corpus.utterance_ids) if uid is None else {uid}

    # --- featurize: <out>/featurize/<uid>.fmx and global_stats.txt ---------

    def featurize(self) -> set[str]:
        failed: set[str] = set()
        feat_dir = self.out_root / "featurize"
        for uid in self.corpus.utterance_ids:
            try:
                x_raw = read_fmx(feat_dir / f"{uid}.fmx", self.frames[uid])
                if np.any(x_raw < 0):
                    raise Fault(f"{uid}.fmx: negative power-mel value")
                self._raw[uid] = x_raw
            except Fault as exc:
                failed |= self._fail(uid, exc)
        try:
            mean, std = read_semstats(feat_dir / "global_stats.txt", sum(self.frames.values()))
            if not failed:
                stacked = np.concatenate([self._raw[uid] for uid in self.corpus.utterance_ids])
                if not np.allclose(mean, stacked.mean(axis=0), rtol=SUM_RTOL, atol=0):
                    raise Fault("global_stats.txt: mean differs from the features")
                if not np.allclose(std, stacked.std(axis=0), rtol=1e-3, atol=1e-7):
                    raise Fault("global_stats.txt: std differs from the features")
            self._stats = (mean, std)
        except Fault as exc:
            failed |= self._fail(None, exc)
        return failed

    # --- mask: <out>/mask_<mode>/<uid>.fmx and manifest.csv ----------------

    def mask(self, mode: str, fixed_eta_th: float, dropout_rate: float) -> set[str]:
        mask_dir = self.out_root / f"mask_{mode}"
        if self._stats is None:
            return self._fail(None, Fault(f"mask_{mode}: no valid stats to check against"))
        mean, std = self._stats
        try:
            rows = self._manifest(mask_dir / "manifest.csv")
        except Fault as exc:
            return self._fail(None, exc)
        failed: set[str] = set()
        for uid in self.corpus.utterance_ids:
            try:
                row = rows.get(uid)
                if row is None:
                    raise Fault(f"mask_{mode}/manifest.csv: no row for {uid}")
                out = read_fmx(mask_dir / f"{uid}.fmx", self.frames[uid])
                x_raw = self._raw.get(uid)
                if x_raw is None:
                    raise Fault(f"mask_{mode}/{uid}: no valid featurize output to check against")
                _check_masked(mode, uid, out, x_raw, mean, std, row, fixed_eta_th, dropout_rate)
            except Fault as exc:
                failed |= self._fail(uid, exc)
        return failed

    def _manifest(self, path: Path) -> dict[str, list[str]]:
        try:
            with open(path, encoding="ascii", newline="") as handle:
                table = list(csv.reader(handle))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise Fault(f"{path.parent.name}/manifest.csv: unreadable ({exc})") from exc
        if not table or table[0] != MANIFEST_HEADER:
            raise Fault(f"{path.parent.name}/manifest.csv: bad header")
        ids = [row[0] for row in table[1:] if row]
        if ids != sorted(ids) or len(ids) != len(set(ids)):
            raise Fault(f"{path.parent.name}/manifest.csv: rows not in sorted unique id order")
        if len(ids) != len(self.corpus.utterance_ids):
            raise Fault(f"{path.parent.name}/manifest.csv: {len(ids)} rows for "
                        f"{len(self.corpus.utterance_ids)} utterances")
        return {row[0]: row for row in table[1:] if len(row) == len(MANIFEST_HEADER)}

    # --- stats: <out>/distribution.csv --------------------------------------

    def histogram(self) -> set[str]:
        path = self.out_root / "distribution.csv"
        if len(self._raw) != len(self.corpus.utterance_ids):
            return self._fail(None, Fault("distribution.csv: no valid featurize output "
                                          "to check against"))
        try:
            try:
                lines = path.read_text(encoding="ascii").split("\n")
            except (OSError, UnicodeDecodeError) as exc:
                raise Fault(f"distribution.csv: unreadable ({exc})") from exc
            if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != HISTOGRAM_BINS + 2:
                raise Fault("distribution.csv: bad header or row count")
            try:
                table = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
            except ValueError as exc:
                raise Fault(f"distribution.csv: unparsable number ({exc})") from exc
            if table.shape != (HISTOGRAM_BINS, 4) or not np.all(np.isfinite(table)):
                raise Fault("distribution.csv: wrong shape or non-finite values")
            edges, pdf, cdf, ratio = table.T
            if not np.array_equal(edges, np.arange(-99.0, 11.0)):
                raise Fault("distribution.csv: bin edges")
            if cdf[-1] != 1.0 or ratio[-1] != 1.0:
                raise Fault(f"distribution.csv: last cdf {cdf[-1]!r}, energy_ratio {ratio[-1]!r}")
            expected = _eta_distribution(self._raw[uid] for uid in self.corpus.utterance_ids)
            for column, got, want in zip(("pdf", "cdf", "energy_ratio"), (pdf, cdf, ratio),
                                         expected):
                worst = float(np.max(np.abs(got - want)))
                if worst > HISTOGRAM_ATOL:
                    raise Fault(f"distribution.csv: {column} differs from the one recomputed "
                                f"from the featurize output by {worst:.3g}")
        except Fault as exc:
            return self._fail(None, exc)
        return set()


def _energies(x_raw: np.ndarray) -> np.ndarray:
    """Filterbank energies E = x_raw^(1/p) behind the power-mel features."""
    return x_raw ** (1.0 / POWER_EXPONENT)


def _peak(energies: np.ndarray) -> float:
    """Nearest-rank 95th percentile: sorted ascending, index ceil(0.95 n) - 1."""
    flat = np.sort(energies, axis=None)
    return float(flat[-(-PEAK_PERCENTILE * flat.size // 100) - 1])


def _eta_distribution(raw_features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pdf, cdf and energy_ratio of 10 log10(E / peak) over a corpus, 1 dB bins."""
    counts = np.zeros(HISTOGRAM_BINS)
    energy = np.zeros(HISTOGRAM_BINS)
    for x_raw in raw_features:
        e = _energies(x_raw).ravel()
        eta_db = 10.0 * np.log10(np.maximum(e, ETA_FLOOR) / _peak(e))
        index = np.clip(np.floor(eta_db - HISTOGRAM_LO_DB).astype(np.int64), 0, HISTOGRAM_BINS - 1)
        counts += np.bincount(index, minlength=HISTOGRAM_BINS)
        energy += np.bincount(index, weights=e, minlength=HISTOGRAM_BINS)
    total = counts.sum()
    return counts / total, np.cumsum(counts) / total, np.cumsum(energy) / energy.sum()


def _check_masked(mode, uid, out, x_raw, mean, std, row, fixed_eta_th, dropout_rate):
    """Check one masked utterance against its raw features and manifest row."""
    normalized = (x_raw - mean) / std
    kept = out != 0.0
    try:
        masked_fraction = float(row[3]) if row[3] else None
        scaling_r = float(row[4]) if row[4] else None
    except ValueError as exc:
        raise Fault(f"manifest row of {uid}: {exc}") from exc
    if mode == "none":
        if any(row[1:]):
            raise Fault(f"manifest row of {uid}: mode none fills mask columns")
        expected = normalized
        scale = 1.0
    else:
        if masked_fraction is None or scaling_r is None:
            raise Fault(f"manifest row of {uid}: empty masked_fraction or scaling_r")
        if abs(masked_fraction - np.count_nonzero(~kept) / out.size) > 1e-8:
            raise Fault(f"{uid}: manifest masked_fraction {masked_fraction} vs "
                        f"{np.count_nonzero(~kept) / out.size} zeros in the output")
        scale = scaling_r
        if mode == "dropout":
            _check_dropout(uid, kept, row, scaling_r, dropout_rate)
        else:
            _check_sem_mask(mode, uid, kept, x_raw, row, scaling_r, fixed_eta_th)
        expected = np.where(kept, normalized * scale, 0.0)
    worst = float(np.max(np.abs(out - expected)))
    if worst > VALUE_ATOL * max(1.0, scale):
        raise Fault(f"{uid}: output differs from r*mu*(x-mean)/std by {worst:.3g}")


def _check_dropout(uid, kept, row, scaling_r, rate):
    if row[1] or row[2] or row[5] != "0":
        raise Fault(f"manifest row of {uid}: dropout fills eta_th, e_th or fallback")
    if not math.isclose(scaling_r, 1.0 / (1.0 - rate), rel_tol=1e-8):
        raise Fault(f"{uid}: dropout scale {scaling_r}")
    n = kept.size
    zeros = np.count_nonzero(~kept) / n
    if abs(zeros - rate) > DROPOUT_SIGMAS * math.sqrt(rate * (1.0 - rate) / n) + 1.0 / n:
        raise Fault(f"{uid}: dropout zeroed {zeros:.4f} of {n} elements at rate {rate}")


def _check_sem_mask(mode, uid, kept, x_raw, row, scaling_r, fixed_eta_th):
    """The mask keeps exactly the bins with E >= e_th, and r preserves the feature sum."""
    energies = _energies(x_raw)
    peak = _peak(energies)
    fallback = row[5]
    if fallback not in ("0", "1"):
        raise Fault(f"{uid}: fallback {fallback!r}")
    # Any eta_th < 0 dB keeps the bins at or above the peak, so the masked
    # sum is positive and only an all-silence utterance falls back.
    if (fallback == "1") != (peak == 0.0):
        raise Fault(f"{uid}: fallback {fallback} with peak energy {peak!r}")
    if fallback == "1":
        if row[1] != "-inf" or float(row[2]) != 0.0 or scaling_r != 1.0 or not kept.all():
            raise Fault(f"{uid}: fallback row {row} is not an unmasked pass-through")
        return
    try:
        eta_th, e_th = float(row[1]), float(row[2])
    except ValueError as exc:
        raise Fault(f"manifest row of {uid}: {exc}") from exc
    if mode == "fixed" and eta_th != fixed_eta_th:
        raise Fault(f"{uid}: eta_th {row[1]} with --eta-th {fixed_eta_th}")
    if mode == "sem" and not ETA_A <= eta_th < ETA_B:
        raise Fault(f"{uid}: eta_th {eta_th} outside [{ETA_A}, {ETA_B})")
    if not math.isclose(e_th, peak * 10.0 ** (eta_th / 10.0), rel_tol=ENERGY_RTOL):
        raise Fault(f"{uid}: e_th {e_th!r}, expected {peak * 10.0 ** (eta_th / 10.0)!r} "
                    f"from peak energy {peak!r} and eta_th {eta_th}")
    wrong = (kept != (energies >= e_th)) & (np.abs(energies - e_th) > ENERGY_RTOL * e_th)
    if wrong.any():
        raise Fault(f"{uid}: {np.count_nonzero(wrong)} bins kept or dropped against E >= e_th")
    # SEM preserves the utterance feature sum: r * sum(mu * x_raw) = sum(x_raw)
    total = x_raw.sum()
    if not math.isclose(scaling_r * x_raw[kept].sum(), total, rel_tol=SUM_RTOL):
        raise Fault(f"{uid}: r*sum(mu*x_raw) = {scaling_r * x_raw[kept].sum()!r}, "
                    f"sum(x_raw) = {total!r}")


def outputs_digest(out_root: Path) -> str:
    """SHA-256 over every artifact's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
