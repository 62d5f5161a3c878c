"""Power-law features and global mean/variance normalization."""

import numpy as np
import pytest

from semaug import (
    EnergyMatrix,
    FeatureMatrix,
    GlobalStats,
    StatsAccumulator,
    compute_global_stats,
    divide_std,
    power_mel,
    subtract_mean,
)
from semaug.features import STAGE_FINAL, STAGE_MEAN_SUBTRACTED, STAGE_RAW, STD_FLOOR
from semaug.errors import EmptyCorpus, ShapeMismatch


def feat(values, uid="u", stage=STAGE_RAW):
    return FeatureMatrix(values=np.asarray(values, dtype=float), utterance_id=uid, stage=stage)


class TestPowerMel:
    def test_zero_energies(self):
        energies = EnergyMatrix(np.zeros((3, 4)), "z")
        assert np.all(power_mel(energies, 1 / 15).values == 0.0)

    def test_exponent_one_is_identity(self):
        values = np.random.default_rng(0).uniform(0, 5, size=(6, 3))
        energies = EnergyMatrix(values, "i")
        assert np.array_equal(power_mel(energies, 1.0).values, values)

    def test_analytic_power(self):
        energies = EnergyMatrix(np.array([[2.0**15]]), "p")
        assert power_mel(energies, 1 / 15).values[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        low = rng.uniform(0, 10, size=(8, 4))
        high = low + rng.uniform(0, 3, size=(8, 4))
        f_low = power_mel(EnergyMatrix(low, "a"), 1 / 15).values
        f_high = power_mel(EnergyMatrix(high, "b"), 1 / 15).values
        assert np.all(f_low <= f_high)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            power_mel(EnergyMatrix(np.ones((1, 1)), "e"), 0.0)

    def test_stage_is_raw(self):
        out = power_mel(EnergyMatrix(np.ones((2, 2)), "s"), 0.5)
        assert out.stage == STAGE_RAW


class TestGlobalStats:
    def test_constant_corpus_floors_std(self):
        frames = feat(np.full((10, 3), 7.5))
        stats = compute_global_stats([frames])
        assert np.allclose(stats.mean, 7.5)
        assert np.all(stats.std == STD_FLOOR)

    def test_two_point_population_std(self):
        stats = compute_global_stats([feat([[0.0], [2.0]])])
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.std[0] == pytest.approx(1.0)
        assert stats.num_frames_seen == 2

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(17)
        matrices = [rng.normal(3.0, 2.0, size=(rng.integers(50, 150), 5)) for _ in range(10)]
        stats = compute_global_stats([feat(m, uid=str(i)) for i, m in enumerate(matrices)])
        stacked = np.vstack(matrices)
        mean = stacked.sum(axis=0) / stacked.shape[0]
        std = np.sqrt(((stacked - mean) ** 2).sum(axis=0) / stacked.shape[0])
        assert np.max(np.abs(stats.mean - mean)) <= 1e-9
        assert np.max(np.abs(stats.std - std)) <= 1e-9
        assert stats.num_frames_seen == stacked.shape[0]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            compute_global_stats([])

    def test_merge_matches_single_accumulator(self):
        rng = np.random.default_rng(23)
        matrices = [rng.uniform(0, 4, size=(30, 4)) for _ in range(6)]
        whole = StatsAccumulator()
        for m in matrices:
            whole.update(m)
        left, right = StatsAccumulator(), StatsAccumulator()
        for m in matrices[:2]:
            left.update(m)
        for m in matrices[2:]:
            right.update(m)
        left.merge(right)
        a, b = whole.finalize(), left.finalize()
        assert a.num_frames_seen == b.num_frames_seen
        assert np.allclose(a.mean, b.mean, atol=1e-12)
        assert np.allclose(a.std, b.std, atol=1e-12)

    def test_mismatched_channels(self):
        acc = StatsAccumulator()
        acc.update(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            acc.update(np.ones((2, 4)))

    def test_stats_reject_nonpositive_std(self):
        with pytest.raises(ValueError):
            GlobalStats(mean=np.zeros(2), std=np.array([1.0, 0.0]), num_frames_seen=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stats_reject_non_finite_std(self, value):
        with pytest.raises(ValueError):
            GlobalStats(mean=np.zeros(2), std=np.array([1.0, value]), num_frames_seen=1)


class TestNormalization:
    def test_zero_mean_is_identity(self):
        x = feat(np.random.default_rng(2).normal(size=(5, 3)))
        stats = GlobalStats(np.zeros(3), np.ones(3), 5)
        assert np.array_equal(subtract_mean(x, stats).values, x.values)

    def test_exact_cancellation(self):
        mean = np.array([1.0, -2.0, 0.5])
        x = feat(np.tile(mean, (4, 1)))
        stats = GlobalStats(mean, np.ones(3), 4)
        assert np.all(subtract_mean(x, stats).values == 0.0)

    def test_subtract_then_add_inverts(self):
        rng = np.random.default_rng(8)
        x = feat(rng.normal(size=(6, 4)))
        stats = GlobalStats(rng.normal(size=4), np.ones(4), 6)
        back = subtract_mean(x, stats).values + stats.mean
        assert np.allclose(back, x.values, atol=1e-12)

    def test_unit_std_is_identity(self):
        x = feat(np.random.default_rng(3).normal(size=(5, 3)))
        stats = GlobalStats(np.zeros(3), np.ones(3), 5)
        assert np.array_equal(divide_std(x, stats).values, x.values)

    def test_zeros_stay_zero(self):
        x = feat(np.zeros((4, 2)))
        stats = GlobalStats(np.zeros(2), np.array([0.5, 2.0]), 4)
        assert np.all(divide_std(x, stats).values == 0.0)

    def test_divide_then_multiply_inverts(self):
        rng = np.random.default_rng(9)
        x = feat(rng.normal(size=(6, 4)))
        stats = GlobalStats(np.zeros(4), rng.uniform(0.5, 3.0, size=4), 6)
        back = divide_std(x, stats).values * stats.std
        assert np.allclose(back, x.values, atol=1e-12)

    def test_shape_mismatch(self):
        x = feat(np.zeros((4, 2)))
        stats = GlobalStats(np.zeros(3), np.ones(3), 4)
        with pytest.raises(ShapeMismatch):
            subtract_mean(x, stats)
        with pytest.raises(ShapeMismatch):
            divide_std(x, stats)

    def test_stages_advance(self):
        x = feat(np.ones((2, 2)))
        stats = GlobalStats(np.zeros(2), np.ones(2), 2)
        centered = subtract_mean(x, stats)
        assert centered.stage == STAGE_MEAN_SUBTRACTED
        assert divide_std(centered, stats).stage == STAGE_FINAL

    def test_self_normalization_gives_zero_mean_unit_std(self, mixed_corpus):
        raws = [x for _, x in mixed_corpus]
        stats = compute_global_stats(raws)
        normalized = np.vstack(
            [divide_std(subtract_mean(x, stats), stats).values for x in raws]
        )
        assert np.max(np.abs(normalized.mean(axis=0))) < 1e-6
        assert np.max(np.abs(normalized.std(axis=0) - 1.0)) < 1e-6
