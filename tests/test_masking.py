"""Threshold sampling, binary masks, sum-preserving rescale, dropout."""

import hashlib
import math
import textwrap

import numpy as np
import pytest

from semaug import (
    FeatureConfig,
    FeatureMatrix,
    GlobalStats,
    SemConfig,
    apply_fixed_sem,
    apply_sem,
    filterbank_energies,
    input_dropout,
    normalize,
    power_mel,
)
from semaug.audio_io import Waveform, synth_fixture, synth_speech_like
from semaug.features import divide_std, subtract_mean
from semaug.masking import (
    binary_mask,
    energy_threshold,
    eta,
    peak_energy,
    sample_threshold,
    scaling_coefficient,
    threshold_mask,
    zero_fraction,
)
from semaug import features, masking
from semaug.errors import EmptyCorpus
from conftest import (
    accumulated_stats,
    dropout_oracle,
    fresh,
    random_energy_matrix,
    run_python,
    splitmix64,
    traced_peak,
)


def raw_feat(values, uid="u"):
    return FeatureMatrix(np.asarray(values, dtype=float), uid)


def sort_oracle_percentile(values):
    flat = np.sort(np.asarray(values, dtype=float).ravel())
    index = math.ceil(0.95 * flat.size) - 1
    return flat[index]


class TestPeakEnergy:
    def test_constant_matrix(self):
        assert peak_energy(FeatureMatrix(np.full((4, 5), 3.25), "c")) == 3.25

    def test_one_to_hundred(self):
        values = np.arange(1.0, 101.0).reshape(10, 10)
        assert peak_energy(FeatureMatrix(values, "h")) == 95.0

    def test_single_entry(self):
        assert peak_energy(FeatureMatrix(np.array([[7.0]]), "s")) == 7.0

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            peak_energy(FeatureMatrix(np.zeros((0, 4)), "e"))

    def test_against_sort_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            values = random_energy_matrix(rng)
            assert peak_energy(FeatureMatrix(values, "o")) == sort_oracle_percentile(values)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_one_chunk(self, offset):
        # around CHUNK_BINS bins: one pass through the pool, as for any size
        rng = np.random.default_rng(offset + 5)
        values = random_energy_matrix(rng, features.CHUNK_BINS + offset, 1)
        assert peak_energy(FeatureMatrix(values, "c")) == sort_oracle_percentile(values)

    def test_long_utterance_value_and_memory(self):
        # 60000 x 40 bins: 35 chunks through the pool, which alone is allocated
        rng = np.random.default_rng(23)
        values = random_energy_matrix(rng, 60000, 40)
        peak, traced = traced_peak(lambda: peak_energy(FeatureMatrix(values, "l")))
        assert peak == sort_oracle_percentile(values)
        rank = (95 * values.size + 99) // 100 - 1
        assert traced <= 8 * (values.size - rank + features.CHUNK_BINS) + 4096


class TestEta:
    def test_ratio_of_one(self):
        assert eta(4.0, 4.0) == 0.0

    def test_minus_twenty(self):
        assert eta(0.01, 1.0) == pytest.approx(-20.0, abs=1e-12)

    def test_zero_energy_floored(self):
        value = eta(0.0, 1.0)
        assert math.isfinite(value)
        assert value <= -200.0

    def test_nonpositive_peak(self):
        with pytest.raises(ValueError, match="e_peak must be > 0"):
            eta(1.0, 0.0)

    def test_array_input(self):
        out = eta(np.array([1.0, 0.1]), 1.0)
        assert np.allclose(out, [0.0, -10.0], atol=1e-12)

    def test_scalar_input_returns_float(self):
        assert type(eta(0.1, 1.0)) is float
        assert type(eta(np.float64(0.1), 1.0)) is float

    def test_leaves_input_unchanged(self):
        values = np.array([[0.0, 0.5], [2.0, 1.0]])
        original = values.copy()
        out = eta(values, 2.0)
        assert np.array_equal(values, original)
        assert not np.shares_memory(out, values)


class TestSampleThreshold:
    def test_deterministic(self):
        cfg = SemConfig(seed=42)
        assert sample_threshold(cfg, "utt1") == sample_threshold(cfg, "utt1")

    def test_varies_with_utterance_and_seed(self):
        cfg = SemConfig(seed=42)
        assert sample_threshold(cfg, "utt1") != sample_threshold(cfg, "utt2")
        assert sample_threshold(cfg, "utt1") != sample_threshold(SemConfig(seed=43), "utt1")

    def test_collapsed_interval(self):
        cfg = SemConfig(eta_a=-5.0 - 1e-12, eta_b=-5.0)
        assert sample_threshold(cfg, "x") == pytest.approx(-5.0, abs=1e-11)

    def test_uniform_moments(self):
        cfg = SemConfig(eta_a=-80.0, eta_b=0.0, seed=0)
        draws = np.array([sample_threshold(cfg, f"utt{i}") for i in range(100_000)])
        assert abs(draws.mean() + 40.0) < 0.3
        assert draws.min() >= -80.0
        assert draws.max() < 0.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SemConfig(eta_a=0.0, eta_b=0.0)

    @pytest.mark.parametrize(
        "bounds", [(-80.0, math.inf), (-math.inf, 0.0), (math.nan, 0.0), (-80.0, math.nan)]
    )
    def test_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            SemConfig(eta_a=bounds[0], eta_b=bounds[1])


class TestStreamDigest:
    @pytest.mark.parametrize("stream", ["eta-threshold", "dropout"])
    @pytest.mark.parametrize("uid", ["", "utt0000", "ünï", "a,b"])
    @pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 + 5])
    def test_keyed_blake2b(self, seed, uid, stream):
        message = (
            stream.encode("ascii") + b"\x00"
            + (seed % 2**64).to_bytes(8, "little") + uid.encode("utf-8")
        )
        expected = hashlib.blake2b(message, digest_size=8).digest()
        assert masking._stream_digest(seed, uid, stream) == expected

    def test_golden_draws(self):
        # where the hash comes from must not move a threshold or a dropout seed
        assert repr(sample_threshold(SemConfig(seed=7), "utt0000")) == "-3.361265974347404"
        child_seed = int.from_bytes(masking._stream_digest(7, "utt0000", "dropout"), "little")
        assert repr(child_seed) == "12339775757055095375"


class TestEnergyThreshold:
    @pytest.mark.parametrize("eta_th,divisor", [(0.0, 1.0), (-20.0, 100.0), (-10.0, 10.0)])
    def test_analytic(self, eta_th, divisor):
        assert energy_threshold(5.0, eta_th) == pytest.approx(5.0 / divisor, rel=1e-14)

    def test_nonpositive_peak(self):
        with pytest.raises(ValueError, match="e_peak must be > 0"):
            energy_threshold(0.0, -20.0)


class TestBinaryMask:
    def test_zero_threshold_keeps_all(self):
        mask = binary_mask(FeatureMatrix(np.abs(np.random.default_rng(1).normal(size=(3, 4))), "a"), 0.0)
        assert np.all(mask == 1)

    def test_above_max_drops_all(self):
        mask = binary_mask(FeatureMatrix(np.ones((3, 4)), "b"), 2.0)
        assert np.all(mask == 0)

    def test_hand_example(self):
        energies = FeatureMatrix(np.array([[4.0, 1.0], [2.0, 8.0]]), "h")
        mask = binary_mask(energies, 2.0)
        assert np.array_equal(mask, [[1, 0], [1, 1]])

    def test_tie_is_kept(self):
        mask = binary_mask(FeatureMatrix(np.array([[5.0]]), "t"), 5.0)
        assert mask[0, 0] == 1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            energies = FeatureMatrix(random_energy_matrix(rng), "m")
            e_peak = peak_energy(energies)
            t1, t2 = sorted(rng.uniform(-90, 5, size=2))
            low = binary_mask(energies, energy_threshold(e_peak, t1))
            high = binary_mask(energies, energy_threshold(e_peak, t2))
            assert np.all(low >= high)


class TestScalingCoefficient:
    def test_all_ones_mask(self):
        x = raw_feat([[2.0, 1.0, 1.0]])
        mask = binary_mask(FeatureMatrix(np.ones((1, 3)), "m"), 0.0)
        assert scaling_coefficient(x, mask) == 1.0

    def test_hand_example(self):
        x = raw_feat([[2.0, 1.0, 1.0]])
        mask = binary_mask(FeatureMatrix(np.array([[1.0, 0.0, 1.0]]), "m"), 0.5)
        assert scaling_coefficient(x, mask) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_all_masked(self):
        x = raw_feat([[1.0, 1.0]])
        mask = binary_mask(FeatureMatrix(np.zeros((1, 2)), "m"), 1.0)
        assert scaling_coefficient(x, mask) is None

    def test_shape_mismatch(self):
        x = raw_feat(np.ones((2, 3)))
        mask = binary_mask(FeatureMatrix(np.ones((2, 2)), "m"), 0.0)
        with pytest.raises(ValueError, match="vs mask"):
            scaling_coefficient(x, mask)

    def test_at_least_one(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            values = random_energy_matrix(rng)
            x = raw_feat(values ** (1 / 15))
            energies = FeatureMatrix(values, "m")
            e_peak = peak_energy(energies)
            mask = binary_mask(energies, energy_threshold(e_peak, rng.uniform(-80, 0)))
            assert scaling_coefficient(x, mask) >= 1.0


def _pipeline_inputs(seed=0, kind="white_noise", duration=0.5):
    cfg_feat = FeatureConfig()
    wav = synth_fixture(kind, duration, seed=seed, utterance_id=f"pipe_{kind}_{seed}")
    energies = filterbank_energies(wav, cfg_feat)
    x_raw = power_mel(fresh(energies))
    stats = accumulated_stats([x_raw])
    return wav, energies, x_raw, stats


class TestApplySem:
    def test_no_masking_limit_matches_plain_normalization(self):
        _, energies, x_raw, stats = _pipeline_inputs()
        cfg = SemConfig(eta_a=-10000.0, eta_b=-9999.0, seed=1)
        outcome = apply_sem(energies, stats, cfg)
        assert outcome.scaling_r == 1.0
        assert not outcome.fallback_applied
        assert np.all(outcome.mask == 1)
        expected = divide_std(subtract_mean(x_raw, stats), stats).values
        assert np.array_equal(outcome.features.values, expected)

    def test_sum_preservation_on_raw_features(self):
        rng = np.random.default_rng(3)
        _, energies, x_raw, stats = _pipeline_inputs(seed=5)
        for _ in range(25):
            eta_th = rng.uniform(-80, 0)
            outcome = apply_fixed_sem(fresh(energies), stats, eta_th)
            if outcome.fallback_applied:
                continue
            masked_sum = (outcome.scaling_r * outcome.mask * x_raw.values).sum()
            total = x_raw.values.sum()
            assert abs(masked_sum - total) / total <= 1e-6

    def test_mask_is_gain_invariant(self):
        wav, _, _, _ = _pipeline_inputs(seed=8)
        cfg_feat = FeatureConfig()
        sem = SemConfig(seed=77)
        masks = []
        for gain in (0.1, 1.0, 10.0):
            scaled = Waveform(wav.samples * gain, wav.sample_rate_hz, wav.utterance_id)
            energies = filterbank_energies(scaled, cfg_feat)
            x_raw = power_mel(fresh(energies))
            stats = accumulated_stats([x_raw])
            outcome = apply_sem(energies, stats, sem)
            masks.append(outcome.mask)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])

    def test_fallback_on_silence(self):
        _, _, x_ref, stats = _pipeline_inputs()
        silent = FeatureMatrix(np.zeros_like(x_ref.values), x_ref.utterance_id)
        x_raw = power_mel(fresh(silent))
        outcome = apply_sem(silent, stats, SemConfig(seed=3))
        assert outcome.fallback_applied
        assert outcome.scaling_r == 1.0
        assert np.all(outcome.mask == 1)
        expected = divide_std(subtract_mean(x_raw, stats), stats).values
        assert np.array_equal(outcome.features.values, expected)

    def test_masked_bins_are_exactly_zero(self):
        _, energies, _, stats = _pipeline_inputs(seed=4, kind="chirp")
        outcome = apply_fixed_sem(energies, stats, -20.0)
        assert np.any(outcome.mask == 0)
        assert np.all(outcome.features.values[outcome.mask == 0] == 0.0)

    def test_shape_mismatch(self):
        _, energies, _, stats = _pipeline_inputs()
        bad = FeatureMatrix(energies.values[:, :-1].copy(), energies.utterance_id)
        with pytest.raises(ValueError, match="channels vs stats"):
            apply_sem(bad, stats, SemConfig())
        assert np.array_equal(bad.values, energies.values[:, :-1])

    def test_output_overwrites_energies(self):
        _, energies, x_raw, stats = _pipeline_inputs(seed=7)
        reference = apply_sem(fresh(energies), stats, SemConfig(seed=4))
        outcome = apply_sem(energies, stats, SemConfig(seed=4))
        assert outcome.features.values is energies.values
        assert np.array_equal(outcome.features.values, reference.features.values)

    def test_memory_one_output_and_mask(self):
        # in place on the energies: above them, the mask and a few chunk-sized
        # buffers (the percentile's pool of a chunk and the top 5%, then r's
        # leaf sums)
        rng = np.random.default_rng(17)
        energies = FeatureMatrix(random_energy_matrix(rng, 60000, 40), "mem")
        stats = accumulated_stats([power_mel(fresh(energies))])
        outcome, peak = traced_peak(lambda: apply_sem(energies, stats, SemConfig(seed=2)))
        assert not outcome.fallback_applied
        assert peak <= outcome.mask.nbytes + 4 * 8 * features.CHUNK_BINS

    def test_same_seed_same_outcome(self):
        _, energies, x_raw, stats = _pipeline_inputs(seed=6)
        cfg = SemConfig(seed=123)
        a = apply_sem(fresh(energies), stats, cfg)
        b = apply_sem(fresh(energies), stats, cfg)
        assert a.eta_th == b.eta_th
        assert np.array_equal(a.features.values, b.features.values)


class TestApplyFixedSem:
    def test_very_low_threshold_masks_nothing(self):
        for kind in ("sine", "white_noise", "chirp"):
            _, energies, _, stats = _pipeline_inputs(seed=2, kind=kind)
            outcome = apply_fixed_sem(energies, stats, -200.0)
            assert not outcome.fallback_applied
            assert np.all(outcome.mask == 1)
            assert outcome.scaling_r == 1.0

    def test_hand_chain(self):
        energies = FeatureMatrix(np.array([[4.0, 1.0], [2.0, 8.0]]), "hand")
        x_raw = power_mel(fresh(energies))
        stats = GlobalStats(np.zeros(2), np.ones(2), 2)
        # e_peak = 8; eta_th puts e_th exactly at 2.5
        eta_th = 10.0 * math.log10(2.5 / 8.0)
        outcome = apply_fixed_sem(energies, stats, eta_th)
        assert outcome.e_th == pytest.approx(2.5, rel=1e-12)
        assert np.array_equal(outcome.mask, [[1, 0], [0, 1]])
        expected_r = x_raw.values.sum() / (x_raw.values[0, 0] + x_raw.values[1, 1])
        assert outcome.scaling_r == pytest.approx(expected_r, rel=1e-12)

    def test_minus_twenty_on_hand_matrix_keeps_all(self):
        energies = FeatureMatrix(np.array([[4.0, 1.0], [2.0, 8.0]]), "hand")
        x_raw = power_mel(fresh(energies))
        stats = GlobalStats(np.zeros(2), np.ones(2), 2)
        outcome = apply_fixed_sem(energies, stats, -20.0)
        # e_th = 0.08, below every entry
        assert np.all(outcome.mask == 1)

    def test_repeated_calls_identical(self):
        _, energies, _, stats = _pipeline_inputs(seed=9)
        a = apply_fixed_sem(fresh(energies), stats, -30.0)
        b = apply_fixed_sem(fresh(energies), stats, -30.0)
        assert np.array_equal(a.features.values, b.features.values)
        assert a.scaling_r == b.scaling_r

    def test_mask_zero_fraction_equals_cdf_statistic(self):
        cfg_feat = FeatureConfig()
        for seed in range(4):
            wav = synth_speech_like(1.0, seed=seed, utterance_id=f"cdf_{seed}")
            energies = filterbank_energies(wav, cfg_feat)
            x_raw = power_mel(fresh(energies))
            stats = accumulated_stats([x_raw])
            expected = zero_fraction(threshold_mask(energies, -20.0)[0])
            outcome = apply_fixed_sem(energies, stats, -20.0)
            assert zero_fraction(outcome.mask) == expected

    def test_floor_fallback_through_both_masks(self):
        # a positive peak, but the kept power-mel mass (12 * 5e-324 ** (1/15),
        # about 3e-21) is below MASKED_SUM_FLOOR: r is None, so pass through
        energies = FeatureMatrix(np.full((3, 4), 5e-324), "tiny")
        stats = GlobalStats(np.zeros(4), np.ones(4), 3)
        expected = normalize(power_mel(fresh(energies)), stats).values
        assert peak_energy(energies) > 0.0
        for outcome in (
            apply_sem(fresh(energies), stats, SemConfig()),
            apply_fixed_sem(fresh(energies), stats, -20.0),
        ):
            assert outcome.fallback_applied
            assert outcome.eta_th == -math.inf
            assert outcome.e_th == 0.0
            assert outcome.scaling_r == 1.0
            assert outcome.mask.dtype == np.uint8
            assert np.all(outcome.mask == 1)
            assert np.array_equal(outcome.features.values, expected)
        # a threshold of -inf dB keeps every bin too, but is no fallback
        _, ordinary, _, ordinary_stats = _pipeline_inputs(seed=3)
        outcome = apply_fixed_sem(ordinary, ordinary_stats, -math.inf)
        assert not outcome.fallback_applied
        assert outcome.eta_th == -math.inf
        assert np.all(outcome.mask == 1)
        assert outcome.scaling_r == 1.0


class TestInputDropout:
    def test_rate_zero_is_identity(self):
        x = raw_feat(np.random.default_rng(0).normal(size=(5, 4)))
        out = input_dropout(x, 0.0, seed=1)
        assert np.array_equal(out.values, x.values)

    def test_survivor_scale_exact(self):
        values = np.random.default_rng(1).uniform(1, 2, size=(50, 20))
        out = input_dropout(raw_feat(values.copy()), 0.1, seed=2)
        kept = out.values != 0.0
        assert np.array_equal(out.values[kept], values[kept] * (1.0 / 0.9))

    def test_empirical_rate(self):
        x = raw_feat(np.ones((1000, 1000)))
        out = input_dropout(x, 0.2, seed=3)
        dropped = np.count_nonzero(out.values == 0.0) / out.values.size
        assert abs(dropped - 0.2) <= 3.0 * math.sqrt(0.2 * 0.8 / 1e6)

    def test_unbiased_mean(self):
        values = np.random.default_rng(4).uniform(0.5, 1.5, size=(1000, 1000))
        out = input_dropout(raw_feat(values.copy()), 0.2, seed=5)
        assert abs(out.values.mean() - values.mean()) / values.mean() < 0.01

    def test_deterministic_per_utterance(self):
        a = input_dropout(raw_feat(np.ones((10, 10)), "u1"), 0.5, seed=6)
        b = input_dropout(raw_feat(np.ones((10, 10)), "u1"), 0.5, seed=6)
        c = input_dropout(raw_feat(np.ones((10, 10)), "u2"), 0.5, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_invalid_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be in"):
            input_dropout(raw_feat(np.ones((2, 2))), rate, seed=0)

    def test_in_place_with_positive_zeros(self):
        # dropped entries are +0.0 even where the value was negative; a 0/1
        # multiply would write -0.0, which changes FMX1 bytes
        values = -np.random.default_rng(7).uniform(0.5, 1.5, size=(40, 30))
        x = raw_feat(values.copy())
        out = input_dropout(x, 0.3, seed=8)
        assert out.values is x.values
        dropped = out.values == 0.0
        assert np.any(dropped)
        assert not np.any(np.signbit(out.values[dropped]))
        keep = (~dropped).astype(np.float64)
        multiplied = values * (1.0 / 0.7) * keep
        assert np.array_equal(multiplied, out.values)
        assert np.all(np.signbit(multiplied[dropped]))
        assert multiplied.astype("<f4").tobytes() != out.values.astype("<f4").tobytes()

    def test_golden_positions(self):
        # the SplitMix64 stream of seed 7's "utt0000" must not move
        out = input_dropout(raw_feat(np.ones((3, 7)), "utt0000"), 0.5, seed=7)
        dropped = np.argwhere(out.values == 0.0).tolist()
        assert dropped == [[0, 2], [1, 2], [1, 3], [1, 5], [2, 0], [2, 1], [2, 2]]
        assert np.array_equal(out.values, dropout_oracle(np.ones((3, 7)), 0.5, 7, "utt0000"))

    @pytest.mark.parametrize("layout", ["every-other-row", "fortran"])
    def test_in_place_on_a_matrix_that_is_not_c_contiguous(self, monkeypatch, layout):
        # chunks of three rows count their draws from row * C, so a strided
        # or Fortran-ordered matrix is neither copied nor drawn in its
        # memory order
        monkeypatch.setattr(features, "CHUNK_BINS", 21)
        big = np.random.default_rng(9).uniform(0.5, 1.5, size=(40, 7))
        original = big.copy()
        values = big[::2] if layout == "every-other-row" else np.asfortranarray(big[:20])
        assert not values.flags.c_contiguous
        expected = dropout_oracle(values, 0.4, 3, "u")
        x = raw_feat(values)
        out = input_dropout(x, 0.4, seed=3)
        assert out is x and out.values is values
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        if layout == "every-other-row":
            assert np.array_equal(big[1::2], original[1::2])


class TestSplitMix64:
    def test_reference_gives_the_published_outputs(self):
        assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 2**26 + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1])
    def test_integer_compare_equals_float_compare(self, k):
        # rates on and next to k * 2**-53, and z on both sides of the bound
        on = k * 2.0**-53
        for rate in (on, math.nextafter(on, 0.0), math.nextafter(on, 1.0)):
            if not 0.0 < rate < 1.0:
                continue
            bound = masking._drop_bound(rate)
            assert bound < 2**64
            top = bound >> 11
            for high in (top - 2, top - 1, top, top + 1):
                for low in (0, 1, 2**11 - 1):
                    z = (high << 11) | low
                    if 0 <= z < 2**64:
                        assert (z < bound) == ((z >> 11) * 2.0**-53 < rate), (rate, z)

    def test_rates_finer_than_the_draws(self):
        # below 2**-53 only z >> 11 == 0 drops; at the largest rate below 1,
        # every z >> 11 but the largest
        assert masking._drop_bound(2.0**-60) == 1 << 11
        assert masking._drop_bound(math.nextafter(1.0, 0.0)) == (2**53 - 1) << 11

    def test_positions_do_not_depend_on_cpu_features(self):
        # integer xor, shift, multiply and compare: the same dropped
        # positions whichever SIMD kernels numpy dispatches to
        code = textwrap.dedent(
            """
            import numpy as np
            from semaug import FeatureMatrix, input_dropout
            values = input_dropout(FeatureMatrix(np.ones((2000, 40)), "utt0000"), 0.3, 11).values
            print(np.packbits(values == 0.0).tobytes().hex())
            """
        )
        here = input_dropout(raw_feat(np.ones((2000, 40)), "utt0000"), 0.3, 11).values
        expected = np.packbits(here == 0.0).tobytes().hex()
        for disabled in ("", "X86_V4,AVX512_ICL,AVX512_SPR", "X86_V4,AVX512_ICL,AVX512_SPR,X86_V3"):
            env = {"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {}
            run = run_python(["-c", code], env=env)
            assert run.returncode == 0, run.stderr
            assert run.stdout.strip() == expected, disabled
