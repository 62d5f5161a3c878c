"""Corpus-level distribution analytics for the dB energy ratio.

For each utterance, every time-frequency bin's energy is expressed in dB
relative to that utterance's peak (95th-percentile) energy. The histogram
accumulates those dB values into 1 dB bins over [-100, +10] dB (values
outside clamp into the end bins), alongside the energy mass per bin, so
both the empirical CDF and the below-threshold energy fraction

    r_e(eta_th) = sum_{eta < eta_th} e / sum e

come out of one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features
from .dsp import FeatureMatrix
from .errors import EmptyCorpus
from .masking import eta, peak_energy

# the histogram's bins: 1 dB wide, over [-100, +10] dB
RANGE_DB = (-100.0, 10.0)
# their edges, shared read-only by every accumulator
BIN_EDGES = np.arange(RANGE_DB[0], RANGE_DB[1] + 1.0)
BIN_EDGES.flags.writeable = False


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

    @property
    def num_bins(self) -> int:
        return int(self.pdf.shape[0])


class EtaHistogramAccumulator:
    """Count/energy histogram over the dB ratio, in RANGE_DB's bins."""

    bin_edges = BIN_EDGES

    def __init__(self):
        self.counts = np.zeros(BIN_EDGES.size - 1, dtype=np.int64)
        self.energy = np.zeros(BIN_EDGES.size - 1, dtype=np.float64)

    def update(self, energies: FeatureMatrix) -> bool:
        """Add one utterance's bins; False, adding nothing, when it has no dB
        ratios (no bins, or a zero peak: all silence)."""
        values = np.asarray(energies.values, dtype=np.float64).ravel()
        if values.size == 0:
            return False
        e_peak = peak_energy(energies)
        if e_peak <= 0:
            return False
        # this utterance's energy per bin, added in element order from 0.0
        # as one weighted bincount over the utterance adds them (summed
        # per-chunk bincounts would not)
        energy = np.zeros(self.energy.size)
        # a chunk of float64 dB ratios and as much of int64 indices at a time
        for start in range(0, values.size, features.CHUNK_BINS):
            chunk = values[start : start + features.CHUNK_BINS]
            # bin index floor(eta - lo) (the bins are 1 dB wide), in place on
            # eta's fresh array
            ratios_db = eta(chunk, e_peak)
            ratios_db -= BIN_EDGES[0]
            np.floor(ratios_db, out=ratios_db)
            idx = ratios_db.astype(np.int64)
            np.clip(idx, 0, self.counts.size - 1, out=idx)
            self.counts += np.bincount(idx, minlength=self.counts.size)
            np.add.at(energy, idx, chunk)
        self.energy += energy
        return True

    def merge(self, other: "EtaHistogramAccumulator") -> None:
        """Add another accumulator's bins. Counts add exactly and energies
        by one addition per bin, as update adds an utterance's, so merging
        one-utterance accumulators in input order gives the bits of
        updating one accumulator in that order."""
        self.counts += other.counts
        self.energy += other.energy

    def finalize(self) -> EtaDistribution:
        total = int(self.counts.sum())
        if total == 0:
            raise EmptyCorpus("empty corpus")
        pdf = self.counts / total
        cdf = np.cumsum(self.counts) / total
        cum_energy = np.cumsum(self.energy)
        # every counted utterance has a positive peak, so the total is > 0;
        # dividing by the cumulative total makes the last entry exactly 1
        energy_ratio = cum_energy / cum_energy[-1]
        return EtaDistribution(
            bin_edges=BIN_EDGES.copy(),
            pdf=pdf,
            cdf=cdf,
            energy_ratio=energy_ratio,
        )
