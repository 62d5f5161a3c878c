"""Power-law features and global mean/variance normalization."""

import numpy as np
import pytest

from semaug import (
    FeatureMatrix,
    GlobalStats,
    SemConfig,
    StatsAccumulator,
    apply_fixed_sem,
    apply_sem,
    input_dropout,
    normalize,
    power_mel,
)
from semaug.features import STD_FLOOR, chunk_rows, divide_std, subtract_mean
from conftest import accumulated_stats, traced_peak
from semaug.errors import EmptyCorpus
from semaug.formats import load_features, save_features


def feat(values, uid="u"):
    return FeatureMatrix(values=np.asarray(values, dtype=float), utterance_id=uid)


class TestPowerMel:
    def test_zero_energies(self):
        energies = FeatureMatrix(np.zeros((3, 4)), "z")
        assert np.all(power_mel(energies).values == 0.0)

    def test_analytic_power(self):
        energies = FeatureMatrix(np.array([[2.0**15]]), "p")
        assert power_mel(energies).values[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        low = rng.uniform(0, 10, size=(8, 4))
        high = low + rng.uniform(0, 3, size=(8, 4))
        f_low = power_mel(FeatureMatrix(low, "a")).values
        f_high = power_mel(FeatureMatrix(high, "b")).values
        assert np.all(f_low <= f_high)

    def test_keeps_utterance_id(self):
        out = power_mel(FeatureMatrix(np.ones((2, 2)), "s"))
        assert isinstance(out, FeatureMatrix)
        assert out.utterance_id == "s"


    def test_in_place_same_bits(self):
        values = 10.0 ** np.random.default_rng(5).uniform(-8, 3, size=(30, 7))
        energies = FeatureMatrix(values.copy(), "b")
        out = power_mel(energies)
        assert out.values is energies.values
        assert np.array_equal(out.values, values ** (1.0 / 15.0))


def _transforms():
    """Each in-place transform as a call on a matrix, returning the matrix
    it hands back (a masking outcome's features)."""
    stats = GlobalStats(np.full(3, 0.5), np.full(3, 2.0), 4)
    return {
        "power_mel": power_mel,
        "normalize": lambda m: normalize(m, stats),
        "input_dropout": lambda m: input_dropout(m, 0.5, seed=1),
        "apply_sem": lambda m: apply_sem(m, stats, SemConfig(seed=1)).features,
        "apply_fixed_sem": lambda m: apply_fixed_sem(m, stats, -20.0).features,
    }


def feat_view(values):
    return FeatureMatrix(values=values, utterance_id="u")


class TestInPlaceContract:
    """The in-place transforms take a writable float64 matrix and return
    it, and raise ValueError on anything else, leaving it untouched."""

    @pytest.mark.parametrize("name", sorted(_transforms()))
    def test_returns_its_argument(self, name):
        matrix = feat_view(np.arange(1.0, 13.0).reshape(4, 3))
        assert _transforms()[name](matrix) is matrix

    @pytest.mark.parametrize("name", sorted(_transforms()))
    def test_loaded_features_raise(self, tmp_path, name):
        values = np.arange(1.0, 13.0).reshape(4, 3)
        save_features(tmp_path / "u.fmx", values)
        loaded = load_features(tmp_path / "u.fmx")
        assert loaded.dtype == np.float32 and not loaded.flags.writeable
        with pytest.raises(ValueError, match="read-only float32"):
            _transforms()[name](feat_view(loaded))
        assert np.array_equal(loaded, values)

    @pytest.mark.parametrize("name", sorted(_transforms()))
    def test_writable_float32_raises(self, name):
        values = np.arange(1.0, 13.0, dtype=np.float32).reshape(4, 3)
        with pytest.raises(ValueError, match="float32"):
            _transforms()[name](feat_view(values))
        assert np.array_equal(values, np.arange(1.0, 13.0).reshape(4, 3))

    @pytest.mark.parametrize("name", sorted(_transforms()))
    def test_read_only_float64_raises(self, name):
        values = np.arange(1.0, 13.0).reshape(4, 3)
        values.flags.writeable = False
        with pytest.raises(ValueError, match="read-only float64"):
            _transforms()[name](feat_view(values))


class TestGlobalStats:
    def test_constant_corpus_floors_std(self):
        frames = feat(np.full((10, 3), 7.5))
        stats = accumulated_stats([frames])
        assert np.allclose(stats.mean, 7.5)
        assert np.all(stats.std == STD_FLOOR)

    def test_two_point_population_std(self):
        stats = accumulated_stats([feat([[0.0], [2.0]])])
        assert stats.mean[0] == pytest.approx(1.0)
        assert stats.std[0] == pytest.approx(1.0)
        assert stats.num_frames_seen == 2

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(17)
        matrices = [rng.normal(3.0, 2.0, size=(rng.integers(50, 150), 5)) for _ in range(10)]
        stats = accumulated_stats([feat(m, uid=str(i)) for i, m in enumerate(matrices)])
        stacked = np.vstack(matrices)
        mean = stacked.sum(axis=0) / stacked.shape[0]
        std = np.sqrt(((stacked - mean) ** 2).sum(axis=0) / stacked.shape[0])
        assert np.max(np.abs(stats.mean - mean)) <= 1e-9
        assert np.max(np.abs(stats.std - std)) <= 1e-9
        assert stats.num_frames_seen == stacked.shape[0]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            accumulated_stats([])

    def test_merge_matches_single_accumulator(self):
        rng = np.random.default_rng(23)
        matrices = [rng.uniform(0, 4, size=(30, 4)) for _ in range(6)]
        whole = StatsAccumulator()
        for m in matrices:
            whole.update(feat(m))
        left, right = StatsAccumulator(), StatsAccumulator()
        for m in matrices[:2]:
            left.update(feat(m))
        for m in matrices[2:]:
            right.update(feat(m))
        left.merge(right)
        a, b = whole.finalize(), left.finalize()
        assert a.num_frames_seen == b.num_frames_seen
        assert np.allclose(a.mean, b.mean, atol=1e-12)
        assert np.allclose(a.std, b.std, atol=1e-12)

    # at and around one and two chunks of 2048 rows
    @pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 2 * 2048 + 3])
    def test_chunked_update_keeps_whole_matrix_bits(self, rows, monkeypatch):
        # the row chunks carry the running sum, so mean and m2 are bit-equal
        # to numpy's one-pass axis-0 reductions; per-chunk partial sums are not
        monkeypatch.setattr("semaug.features.CHUNK_BINS", 2048 * 40)
        values = np.random.default_rng(rows).uniform(0.0, 3.0, size=(rows, 40))
        acc = StatsAccumulator()
        acc.update(feat(values))
        mean = values.mean(axis=0)
        assert np.array_equal(acc._mean, mean)
        assert np.array_equal(acc._m2, ((values - mean) ** 2).sum(axis=0))

    def test_update_memory(self):
        values = np.random.default_rng(8).uniform(0.0, 3.0, size=(60000, 40))
        features = feat(values)
        _, peak = traced_peak(lambda: StatsAccumulator().update(features))
        chunk_buffer = (chunk_rows(40) + 1) * 40 * 8
        assert peak <= chunk_buffer + (256 << 10)

    def test_mismatched_channels(self):
        acc = StatsAccumulator()
        acc.update(feat(np.ones((2, 3))))
        with pytest.raises(ValueError, match="channel count changed"):
            acc.update(feat(np.ones((2, 4))))

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
        with pytest.raises(ValueError, match="channels vs stats"):
            subtract_mean(x, stats)
        with pytest.raises(ValueError, match="channels vs stats"):
            divide_std(x, stats)

    def test_steps_keep_utterance_id(self):
        x = feat(np.ones((2, 2)), uid="s")
        stats = GlobalStats(np.zeros(2), np.ones(2), 2)
        centered = subtract_mean(x, stats)
        assert centered.utterance_id == "s"
        assert divide_std(centered, stats).utterance_id == "s"

    def test_normalize_in_place_same_bits(self):
        rng = np.random.default_rng(12)
        x = feat(rng.uniform(0.0, 2.0, size=(9, 4)))
        stats = GlobalStats(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4), 9)
        expected = divide_std(subtract_mean(x, stats), stats).values
        out = normalize(x, stats)
        assert out.values is x.values
        assert np.array_equal(out.values, expected)

    def test_normalize_shape_mismatch(self):
        stats = GlobalStats(np.zeros(3), np.ones(3), 1)
        with pytest.raises(ValueError, match="channels vs stats"):
            normalize(feat(np.ones((2, 4))), stats)

    def test_self_normalization_gives_zero_mean_unit_std(self, mixed_corpus):
        raws = [x for _, x in mixed_corpus]
        stats = accumulated_stats(raws)
        normalized = np.vstack(
            [divide_std(subtract_mean(x, stats), stats).values for x in raws]
        )
        assert np.max(np.abs(normalized.mean(axis=0))) < 1e-6
        assert np.max(np.abs(normalized.std(axis=0) - 1.0)) < 1e-6
