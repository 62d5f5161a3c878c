"""Corpus-level distribution analytics for the dB energy ratio.

For each utterance, every time-frequency bin's energy is expressed in dB
relative to that utterance's peak (95th-percentile) energy. The histogram
accumulates those dB values into fixed-width bins, alongside the energy
mass per bin, so both the empirical CDF and the below-threshold energy
fraction

    r_e(eta_th) = sum_{eta < eta_th} e / sum e

come out of one pass. Per-utterance partial histograms merge associatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dsp import EnergyMatrix
from .errors import EmptyCorpus
from .masking import energy_threshold, eta, peak_energy, threshold_mask

DEFAULT_RANGE_DB = (-100.0, 10.0)
DEFAULT_BIN_WIDTH_DB = 1.0

# bins per eta / bin-index pass of EtaHistogramAccumulator.update (512 kB
# of float64 dB ratios and as much of int64 indices)
UPDATE_CHUNK_BINS = 1 << 16


@dataclass(frozen=True)
class EtaDistribution:
    """Binned distribution of the dB energy ratio over a corpus.

    bin_edges has one more entry than the per-bin arrays; row i of the
    pdf/cdf/energy_ratio arrays describes [bin_edges[i], bin_edges[i+1]).
    cdf[i] and energy_ratio[i] are the bin/energy fractions strictly below
    the right edge, with out-of-range values clamped into the end bins.
    """

    bin_edges: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    energy_ratio: np.ndarray
    total_bins_counted: int

    @property
    def num_bins(self) -> int:
        return int(self.pdf.shape[0])


class EtaHistogramAccumulator:
    """Mergeable count/energy histogram over the dB ratio."""

    def __init__(
        self,
        bin_width_db: float = DEFAULT_BIN_WIDTH_DB,
        range_db: tuple[float, float] = DEFAULT_RANGE_DB,
    ):
        lo, hi = range_db
        if bin_width_db <= 0:
            raise ValueError(f"bin_width_db must be > 0, got {bin_width_db}")
        if not lo < hi:
            raise ValueError(f"range must satisfy lo < hi, got [{lo}, {hi}]")
        num_bins = max(1, int(round((hi - lo) / bin_width_db)))
        self.bin_edges = lo + bin_width_db * np.arange(num_bins + 1)
        self.counts = np.zeros(num_bins, dtype=np.int64)
        self.energy = np.zeros(num_bins, dtype=np.float64)

    def update(self, energies: EnergyMatrix) -> bool:
        """Add one utterance's bins; False, adding nothing, when it has no dB
        ratios (no bins, or a zero peak: all silence)."""
        values = np.asarray(energies.values, dtype=np.float64).ravel()
        if values.size == 0:
            return False
        e_peak = peak_energy(energies)
        if e_peak <= 0:
            return False
        energy = None
        for start in range(0, values.size, UPDATE_CHUNK_BINS):
            chunk = values[start : start + UPDATE_CHUNK_BINS]
            # bin index floor((eta - lo) / width), in place on eta's fresh array
            ratios_db = eta(chunk, e_peak)
            ratios_db -= self.bin_edges[0]
            ratios_db /= self.bin_edges[1] - self.bin_edges[0]
            np.floor(ratios_db, out=ratios_db)
            idx = ratios_db.astype(np.int64)
            np.clip(idx, 0, self.counts.size - 1, out=idx)
            self.counts += np.bincount(idx, minlength=self.counts.size)
            # in element order from 0.0 across chunks, as one weighted bincount
            # over the utterance adds them; summed per-chunk bincounts would not
            if energy is None:
                energy = np.bincount(idx, weights=chunk, minlength=self.counts.size)
            else:
                np.add.at(energy, idx, chunk)
        self.energy += energy
        return True

    def merge(self, other: "EtaHistogramAccumulator") -> None:
        if not np.array_equal(self.bin_edges, other.bin_edges):
            raise ValueError("cannot merge histograms with different binning")
        self.counts += other.counts
        self.energy += other.energy

    def finalize(self) -> EtaDistribution:
        total = int(self.counts.sum())
        if total == 0:
            raise EmptyCorpus("no bins accumulated")
        pdf = self.counts / total
        cdf = np.cumsum(self.counts) / total
        cum_energy = np.cumsum(self.energy)
        # every counted utterance has a positive peak, so the total is > 0;
        # dividing by the cumulative total makes the last entry exactly 1
        energy_ratio = cum_energy / cum_energy[-1]
        return EtaDistribution(
            bin_edges=self.bin_edges.copy(),
            pdf=pdf,
            cdf=cdf,
            energy_ratio=energy_ratio,
            total_bins_counted=total,
        )


def eta_histogram(
    corpus: Iterable[EnergyMatrix],
    bin_width_db: float = DEFAULT_BIN_WIDTH_DB,
    range_db: tuple[float, float] = DEFAULT_RANGE_DB,
) -> EtaDistribution:
    """Histogram of the dB energy ratio over a corpus of energy matrices."""
    acc = EtaHistogramAccumulator(bin_width_db=bin_width_db, range_db=range_db)
    for energies in corpus:
        acc.update(energies)
    return acc.finalize()


def energy_ratio_curve(
    corpus: Iterable[EnergyMatrix],
    thresholds: Sequence[float],
) -> np.ndarray:
    """Fraction of total corpus energy held by bins below each dB threshold.

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


def masked_fraction(energies: EnergyMatrix, eta_th: float) -> float:
    """Share of bins threshold_mask(energies, eta_th) drops.

    0.0 for a zero peak (all silence): the mask passes it through whole.
    """
    mask = threshold_mask(energies, eta_th)
    return 0.0 if mask is None else mask.masked_fraction
