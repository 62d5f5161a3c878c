"""The dB-ratio histogram, the energy-ratio oracle it is checked against, and
the masked fraction of threshold_mask."""

import math

import numpy as np
import pytest

from semaug import EtaHistogramAccumulator, FeatureMatrix
from semaug.masking import binary_mask, energy_threshold, eta, peak_energy
from semaug import features
from semaug.errors import EmptyCorpus
from semaug.masking import threshold_mask, zero_fraction
from conftest import (
    accumulated_histogram,
    energy_ratio_curve,
    random_energy_matrix,
    traced_peak,
)


def _matrices(rng, count=6):
    return [FeatureMatrix(random_energy_matrix(rng), f"m{i}") for i in range(count)]


class TestEtaHistogram:
    def test_fixed_one_db_bins(self):
        acc = EtaHistogramAccumulator()
        assert np.array_equal(acc.bin_edges, np.arange(-100.0, 11.0))
        assert acc.counts.shape == acc.energy.shape == (110,)

    def test_accumulators_share_read_only_bin_edges(self):
        first, second = EtaHistogramAccumulator(), EtaHistogramAccumulator()
        assert first.bin_edges is second.bin_edges
        with pytest.raises(ValueError, match="read-only"):
            first.bin_edges[0] = 0.0
        dist = accumulated_histogram([FeatureMatrix(np.full((2, 3), 1.0), "c")])
        assert dist.bin_edges is not first.bin_edges and dist.bin_edges.flags.writeable

    def test_constant_energies_fill_zero_db_bin(self):
        dist = accumulated_histogram([FeatureMatrix(np.full((5, 8), 2.0), "c")])
        zero_bin = int(np.searchsorted(dist.bin_edges, 0.0))  # bin [0, 1)
        assert dist.pdf[zero_bin] == 1.0
        assert dist.pdf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pdf_normalized_on_mixtures(self, mixed_corpus):
        dist = accumulated_histogram([e for e, _ in mixed_corpus])
        assert dist.pdf.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_values_clamp(self):
        # one bin at 1e-30 of the peak lands far below -100 dB
        values = np.full((2, 4), 5.0)
        values[0, 0] = 5e-30
        dist = accumulated_histogram([FeatureMatrix(values, "clamp")])
        assert dist.pdf[0] == pytest.approx(1.0 / 8.0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            accumulated_histogram([])

    def test_zero_peak_utterance_adds_no_bins(self):
        rng = np.random.default_rng(47)
        matrices = _matrices(rng, 3)
        expected = accumulated_histogram(matrices)
        acc = EtaHistogramAccumulator()
        assert acc.update(FeatureMatrix(np.zeros((6, 4)), "silent")) is False
        assert acc.counts.sum() == 0 and acc.energy.sum() == 0.0
        for m in matrices:
            assert acc.update(m) is True
        dist = acc.finalize()
        assert np.array_equal(dist.pdf, expected.pdf)
        assert np.array_equal(dist.energy_ratio, expected.energy_ratio)

    def test_merged_partials_keep_one_accumulator_bits(self):
        # as stats runs: one accumulator per utterance, merged in input order
        matrices = _matrices(np.random.default_rng(53), 8)
        matrices.insert(3, FeatureMatrix(np.zeros((4, 6)), "silent"))
        serial = EtaHistogramAccumulator()
        merged = EtaHistogramAccumulator()
        for energies in matrices:
            serial.update(energies)
            partial = EtaHistogramAccumulator()
            if partial.update(energies):
                merged.merge(partial)
        assert np.array_equal(merged.counts, serial.counts)
        assert np.array_equal(merged.energy, serial.energy)

    def test_all_silent_corpus_is_empty(self):
        with pytest.raises(EmptyCorpus):
            accumulated_histogram(
                [FeatureMatrix(np.zeros((3, 5)), "s0"), FeatureMatrix(np.zeros((2, 5)), "s1")]
            )

    def test_update_memory(self):
        # the peak's pool of a chunk and the top 5%, then one chunk of dB
        # ratios at a time
        rng = np.random.default_rng(49)
        energies = FeatureMatrix(random_energy_matrix(rng, 60000, 40), "mem")
        acc = EtaHistogramAccumulator()
        _, peak = traced_peak(lambda: acc.update(energies))
        assert peak <= 4 * 8 * features.CHUNK_BINS

    @pytest.mark.parametrize("size", [1, 6, 7, 8, 17])
    def test_chunked_update_keeps_whole_matrix_bits(self, monkeypatch, size):
        # chunks of 7 bins: counts and the energy column equal one bincount
        # over the whole matrix, bit for bit
        monkeypatch.setattr(features, "CHUNK_BINS", 7)
        values = random_energy_matrix(np.random.default_rng(size), size, 1)
        acc = EtaHistogramAccumulator()
        assert acc.update(FeatureMatrix(values, "c"))
        flat = values.ravel()
        ratios_db = (eta(flat, peak_energy(FeatureMatrix(values, "c"))) - acc.bin_edges[0]) / (
            acc.bin_edges[1] - acc.bin_edges[0]
        )
        idx = np.clip(np.floor(ratios_db).astype(np.int64), 0, acc.counts.size - 1)
        assert np.array_equal(acc.counts, np.bincount(idx, minlength=acc.counts.size))
        expected = np.bincount(idx, weights=flat, minlength=acc.counts.size)
        assert np.array_equal(acc.energy, expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(43)
        matrices = _matrices(rng, 5)
        forward = accumulated_histogram(matrices)
        backward = accumulated_histogram(matrices[::-1])
        assert np.array_equal(forward.pdf, backward.pdf)
        assert np.array_equal(forward.cdf, backward.cdf)

    def test_cdf_nondecreasing_and_ratio_bounded(self, mixed_corpus):
        dist = accumulated_histogram([e for e, _ in mixed_corpus])
        assert np.all(np.diff(dist.cdf) >= 0)
        assert np.all(np.diff(dist.energy_ratio) >= 0)
        assert dist.energy_ratio[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.energy_ratio <= dist.cdf + 1e-12)

    def test_energy_ratio_matches_oracle(self, mixed_corpus):
        # the histogram's r_e, the one `stats` writes, against the sorted-energy
        # oracle at every interior bin edge: equal but for summation order
        corpus = [e for e, _ in mixed_corpus]
        dist = accumulated_histogram(corpus)
        oracle = energy_ratio_curve(corpus, dist.bin_edges[1:-1])
        assert np.allclose(dist.energy_ratio[:-1], oracle, rtol=0.0, atol=1e-12)


class TestEnergyRatioCurve:
    def test_below_everything_is_zero(self):
        values = np.array([[4.0, 1.0], [2.0, 8.0]])
        out = energy_ratio_curve([FeatureMatrix(values, "x")], [-500.0])
        assert out[0] == 0.0

    def test_above_everything_is_one(self):
        values = np.array([[4.0, 1.0], [2.0, 8.0]])
        out = energy_ratio_curve([FeatureMatrix(values, "x")], [50.0])
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_hand_example(self):
        # e_peak = 8 (nearest-rank 95th of 4 entries); threshold exactly at
        # the dB ratio of the 4-entry, which the strict < excludes.
        values = np.array([[4.0, 1.0], [2.0, 8.0]])
        threshold = 10.0 * math.log10(4.0 / 8.0)
        out = energy_ratio_curve([FeatureMatrix(values, "x")], [threshold])
        assert out[0] == pytest.approx(3.0 / 15.0, rel=1e-12)

    def test_nondecreasing(self):
        rng = np.random.default_rng(47)
        thresholds = np.linspace(-100, 10, 111)
        out = energy_ratio_curve(_matrices(rng), thresholds)
        assert np.all(np.diff(out) >= 0)

    def test_requires_sorted_thresholds(self):
        with pytest.raises(ValueError):
            energy_ratio_curve([FeatureMatrix(np.ones((2, 2)), "x")], [0.0, -10.0])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            energy_ratio_curve([], [0.0])

    def test_zero_peak_utterance_is_left_out(self):
        rng = np.random.default_rng(61)
        matrices = _matrices(rng, 3)
        thresholds = np.arange(-100.0, 11.0, 5.0)
        expected = energy_ratio_curve(matrices, thresholds)
        silent = FeatureMatrix(np.zeros((6, 4)), "silent")
        out = energy_ratio_curve([silent, *matrices, silent], thresholds)
        assert np.array_equal(out, expected)

    def test_merged_partials_keep_one_accumulator_bits(self):
        # as stats runs: one accumulator per utterance, merged in input order
        matrices = _matrices(np.random.default_rng(53), 8)
        matrices.insert(3, FeatureMatrix(np.zeros((4, 6)), "silent"))
        serial = EtaHistogramAccumulator()
        merged = EtaHistogramAccumulator()
        for energies in matrices:
            serial.update(energies)
            partial = EtaHistogramAccumulator()
            if partial.update(energies):
                merged.merge(partial)
        assert np.array_equal(merged.counts, serial.counts)
        assert np.array_equal(merged.energy, serial.energy)

    def test_all_silent_corpus_is_empty(self):
        silent = [FeatureMatrix(np.zeros((3, 4)), "s0"), FeatureMatrix(np.zeros((0, 4)), "s1")]
        with pytest.raises(EmptyCorpus):
            energy_ratio_curve(silent, [-20.0])

    def test_ratio_below_cdf_on_random_corpora(self):
        rng = np.random.default_rng(53)
        matrices = _matrices(rng)
        thresholds = np.arange(-100.0, 11.0, 1.0)
        ratio = energy_ratio_curve(matrices, thresholds)
        total = sum(m.values.size for m in matrices)
        for i, t in enumerate(thresholds):
            count = sum(
                np.count_nonzero(eta(m.values, peak_energy(m)) < t) for m in matrices
            )
            assert ratio[i] <= count / total + 1e-12


class TestMaskedFraction:
    def test_huge_threshold(self):
        values = np.random.default_rng(3).uniform(0.1, 1, size=(5, 5))
        assert zero_fraction(threshold_mask(FeatureMatrix(values, "x"), 100.0)[0]) == 1.0

    def test_tiny_threshold(self):
        values = np.random.default_rng(4).uniform(0.1, 1, size=(5, 5))
        assert zero_fraction(threshold_mask(FeatureMatrix(values, "x"), -500.0)[0]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            threshold_mask(FeatureMatrix(np.zeros((0, 2)), "e"), -20.0)

    def test_zero_peak_masks_nothing(self):
        silent = FeatureMatrix(np.zeros((3, 4)), "silent")
        assert threshold_mask(silent, -20.0) is None

    def test_equals_brute_force_count(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            values = random_energy_matrix(rng)
            sort_peak = np.sort(values.ravel())[math.ceil(0.95 * values.size) - 1]
            threshold = rng.uniform(-90, 5)
            count = 0
            for entry in values.ravel():
                ratio_db = 10.0 * math.log10(max(entry, 1e-30) / sort_peak)
                if ratio_db < threshold:
                    count += 1
            frac = zero_fraction(threshold_mask(FeatureMatrix(values, "bf"), threshold)[0])
            assert frac == count / values.size

    def test_matches_binary_mask_zero_fraction(self, mixed_corpus):
        for energies, _ in mixed_corpus:
            e_peak = peak_energy(energies)
            for threshold in (-60.0, -20.0, -5.0, 0.0, 5.0):
                mask = binary_mask(energies, energy_threshold(e_peak, threshold))
                assert zero_fraction(threshold_mask(energies, threshold)[0]) == zero_fraction(mask)
