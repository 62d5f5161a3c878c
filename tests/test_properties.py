"""Property tests (hypothesis): invariants over generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from semaug import (  # noqa: E402
    FeatureConfig,
    FeatureMatrix,
    GlobalStats,
    StatsAccumulator,
    apply_fixed_sem,
    filterbank_energies,
    input_dropout,
    power_mel,
)
from semaug import features  # noqa: E402
from semaug.audio_io import (  # noqa: E402
    PCM_SCALE,
    Waveform,
    synth_speech_like,
    write_wav,
)
from conftest import (  # noqa: E402
    MULTI_BLOCK_FRAMES,
    assert_same_trees,
    dropout_oracle,
    run_every_command,
    synth_fixture,
    waveform_of_frames,
)
from semaug.dsp import BLOCK_FRAMES, SUB_BLOCK_FRAMES  # noqa: E402
from semaug.errors import FormatError  # noqa: E402
from semaug.formats import load_features, load_stats, save_features, save_stats  # noqa: E402
from semaug.masking import (  # noqa: E402
    peak_energy,
    scaling_coefficient,
    threshold_mask,
)

CFG = FeatureConfig()

# frame counts at and around every sub-block and block edge, plus anything in between
_EDGES = sorted(
    {
        edge + offset
        for edge in (SUB_BLOCK_FRAMES, 2 * SUB_BLOCK_FRAMES, BLOCK_FRAMES,
                     BLOCK_FRAMES + SUB_BLOCK_FRAMES)
        for offset in (-1, 0, 1)
    }
)
frame_counts = st.one_of(
    st.sampled_from(_EDGES), st.integers(1, BLOCK_FRAMES + 2 * SUB_BLOCK_FRAMES)
)


@settings(max_examples=25, deadline=None)
@given(
    num_frames=frame_counts,
    extra_samples=st.integers(0, CFG.hop_samples - 1),
    peak_bits=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_and_float64_samples_give_identical_energies(
    num_frames, extra_samples, peak_bits, seed
):
    num = (num_frames - 1) * CFG.hop_samples + CFG.window_samples + extra_samples
    bound = 1 << peak_bits
    ints = np.random.default_rng(seed).integers(-bound, bound, size=num)
    samples = np.clip(ints, -32768, 32767) / PCM_SCALE
    as64 = filterbank_energies(Waveform(samples, CFG.sample_rate_hz, "f64"))
    as32 = filterbank_energies(
        Waveform(samples.astype(np.float32), CFG.sample_rate_hz, "f32")
    )
    assert as64.values.shape[0] == num_frames
    assert np.array_equal(as32.values, as64.values)


def energy_matrices(max_frames=30, max_channels=12):
    """Nonnegative energies spanning 11 decades, with some exact zeros."""
    shapes = st.tuples(st.integers(1, max_frames), st.integers(1, max_channels))
    decades = st.one_of(st.just(-np.inf), st.floats(-8.0, 3.0))
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=decades).map(
            lambda logs: FeatureMatrix(10.0 ** logs, "utt")
        )
    )


def _unit_stats(num_channels):
    return GlobalStats(np.zeros(num_channels), np.ones(num_channels), num_frames_seen=1)


@settings(max_examples=100, deadline=None)
@given(energies=energy_matrices(), eta_th=st.floats(-100.0, 10.0))
def test_scaling_preserves_feature_sum(energies, eta_th):
    x_raw = power_mel(FeatureMatrix(energies.values.copy(), "utt"))
    outcome = apply_fixed_sem(energies, _unit_stats(energies.num_channels), eta_th)
    if outcome.fallback_applied:
        return
    kept_sum = float((outcome.mask * x_raw.values).sum())
    total = float(x_raw.values.sum())
    assert outcome.scaling_r * kept_sum == pytest.approx(total, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    energies=energy_matrices(),
    thresholds=st.lists(st.floats(-120.0, 20.0), min_size=2, max_size=2).map(sorted),
)
def test_kept_bins_shrink_as_threshold_rises(energies, thresholds):
    low, high = (threshold_mask(energies, t) for t in thresholds)
    if low is None:
        assert high is None  # a zero peak has no mask at any threshold
        return
    # every bin kept at the higher threshold is kept at the lower one
    assert np.all(high[0] <= low[0])


@settings(max_examples=50, deadline=None)
@given(
    values=hnp.arrays(
        np.float32,
        st.tuples(st.integers(0, 40), st.integers(1, 8)),
        elements=st.floats(width=32, allow_nan=True, allow_infinity=True),
    )
)
def test_fmx1_round_trip_is_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("fmx") / "m.fmx"
    save_features(path, values)
    loaded = load_features(path)
    assert loaded.shape == values.shape
    assert np.array_equal(loaded.view(np.uint32), values.view(np.uint32))


@settings(max_examples=50, deadline=None)
@given(
    num_channels=st.integers(1, 16),
    num_frames=st.integers(1, 2**40),
    data=st.data(),
)
def test_semstats_round_trip_is_exact(tmp_path_factory, num_channels, num_frames, data):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    stats = GlobalStats(
        mean=data.draw(hnp.arrays(np.float64, num_channels, elements=finite)),
        std=data.draw(hnp.arrays(np.float64, num_channels, elements=positive)),
        num_frames_seen=num_frames,
    )
    path = tmp_path_factory.mktemp("stats") / "global_stats.txt"
    save_stats(path, stats)
    loaded = load_stats(path)
    assert np.array_equal(loaded.mean.view(np.uint64), stats.mean.view(np.uint64))
    assert np.array_equal(loaded.std, stats.std)
    assert loaded.num_frames_seen == num_frames


# characters a stats-file mutation inserts or writes over another with:
# every one the SEMSTATS text or Python's int and float literals may hold
_STATS_TEXT_CHARS = "0123456789+-._eEinfa SEMTATSv1C=N\t\r\n\x0b\x0c"


@settings(max_examples=300, deadline=None)
@given(
    num_channels=st.integers(1, 3),
    num_frames=st.integers(1, 99),
    data=st.data(),
)
def test_every_accepted_semstats_text_is_what_save_stats_writes(
    tmp_path_factory, num_channels, num_frames, data
):
    # a saved file with up to four characters inserted, deleted or written
    # over: whatever load_stats accepts must be byte-equal to save_stats of
    # the result
    short = st.floats(-9.0, 9.0).map(lambda v: round(v, 2))
    stats = GlobalStats(
        mean=np.array(data.draw(st.lists(short, min_size=num_channels, max_size=num_channels))),
        std=np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 10.0, 0.25]),
                                        min_size=num_channels, max_size=num_channels))),
        num_frames_seen=num_frames,
    )
    root = tmp_path_factory.mktemp("stats")
    save_stats(root / "saved.txt", stats)
    text = (root / "saved.txt").read_text(encoding="ascii")
    edits = st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(0, len(text)),
        st.sampled_from(_STATS_TEXT_CHARS),
    )
    for kind, at, char in data.draw(st.lists(edits, min_size=1, max_size=4)):
        at = min(at, len(text))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if kind == "replace" else "") + text[at + 1 :]
    mutated = root / "mutated.txt"
    mutated.write_bytes(text.encode("ascii"))
    try:
        loaded = load_stats(mutated)
    except FormatError:
        return
    save_stats(root / "resaved.txt", loaded)
    assert (root / "resaved.txt").read_bytes() == mutated.read_bytes()


# CHUNK_BINS values for the chunked reductions below: tiny ones force many
# passes, leaves and draws on small matrices
chunk_sizes = st.sampled_from([1, 2, 7, 8, 64, 200])


def sizes_near_chunks(chunk):
    """Element counts at and around one to four chunks, or anything up to 300."""
    near = st.builds(lambda k, d: max(1, k * chunk + d), st.integers(1, 4), st.integers(-1, 1))
    return st.one_of(near, st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(chunk=chunk_sizes, data=st.data())
def test_peak_selection_equals_partition(chunk, data):
    size = data.draw(sizes_near_chunks(chunk))
    kind = data.draw(
        st.sampled_from(["ties", "zeros", "constant", "close", "any", "ascending", "descending"])
    )
    if kind == "zeros":
        flat = np.zeros(size)
    elif kind == "constant":
        flat = np.full(size, data.draw(st.floats(allow_nan=False)))
    elif kind == "close":
        # one sign and exponent, lower bits apart: values that differ by a few ulps
        base = np.float64(data.draw(st.floats(-1e300, 1e300))).view(np.int64)
        offsets = data.draw(hnp.arrays(np.int64, size, elements=st.integers(0, 3 << 16)))
        flat = (base + offsets).view(np.float64)
    elif kind in ("ascending", "descending"):
        # sorted: in ascending order every chunk displaces the whole pool
        flat = np.sort(data.draw(hnp.arrays(np.float64, size, elements=st.floats(allow_nan=False))))
        if kind == "descending":
            flat = flat[::-1].copy()
    else:
        # "ties" draws from a few values of both signs, zeros of both signs among them
        pool = (
            st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.0, 1e-300, np.inf])
            if kind == "ties"
            else st.floats(allow_nan=False)
        )
        flat = data.draw(hnp.arrays(np.float64, size, elements=pool))
    columns = data.draw(st.sampled_from([c for c in (1, 2, 5) if size % c == 0]))
    energies = FeatureMatrix(flat.reshape(-1, columns), "utt")
    index = (95 * size + 99) // 100 - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "CHUNK_BINS", chunk)
        assert peak_energy(energies) == np.partition(flat, index)[index]


@settings(max_examples=200, deadline=None)
@given(chunk=st.sampled_from([1, 128, 200, 1000]), data=st.data())
def test_masked_sum_has_the_product_sum_bits(chunk, data):
    size = data.draw(sizes_near_chunks(chunk))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** rng.uniform(-3.0, 3.0, size=(size, 1))
    mu = (rng.random((size, 1)) < data.draw(st.floats(0.05, 1.0))).astype(np.uint8)
    mu[0] = 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "CHUNK_BINS", chunk)
        r = scaling_coefficient(FeatureMatrix(x, "utt"), mu)
    assert r == float(x.sum()) / float((x * mu).sum())


def test_masked_sum_bits_for_every_small_size(monkeypatch):
    # every size numpy's pairwise sum adds in one block, and its first splits
    monkeypatch.setattr(features, "CHUNK_BINS", 1)
    rng = np.random.default_rng(8)
    for size in range(1, 301):
        x = rng.standard_normal((size, 1)) + 4.0
        mu = (rng.random((size, 1)) < 0.5).astype(np.uint8)
        mu[0] = 1
        r = scaling_coefficient(FeatureMatrix(x, "utt"), mu)
        assert r == float(x.sum()) / float((x * mu).sum()), size


@settings(max_examples=100, deadline=None)
@given(
    chunk=chunk_sizes,
    shape=st.tuples(st.integers(0, 60), st.integers(1, 9)),
    rate=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**64 - 1),
)
def test_chunked_dropout_equals_one_whole_draw(chunk, shape, rate, seed):
    values = np.random.default_rng(seed % 1000).standard_normal(shape)
    # the whole-matrix reference: one scalar draw per element, row-major
    expected = dropout_oracle(values, rate, seed, "utt")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "CHUNK_BINS", chunk)
        out = input_dropout(FeatureMatrix(values, "utt"), rate, seed).values
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _merged_stats(partials):
    total = StatsAccumulator()
    for partial in partials:
        total.merge(partial)
    return total


@settings(max_examples=50, deadline=None)
@given(
    corpus=st.lists(
        st.tuples(st.integers(1, 30), st.just(3)).flatmap(
            lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(-100.0, 100.0))
        ),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_stats_merge_order_and_grouping_do_not_matter(corpus, data):
    partials = []
    for values in corpus:
        acc = StatsAccumulator()
        acc.update(FeatureMatrix(values, "utt"))
        partials.append(acc)
    forward = _merged_stats(partials).finalize()
    order = data.draw(st.permutations(range(len(partials))))
    split = data.draw(st.integers(0, len(partials)))
    grouped = _merged_stats(partials[:split])
    grouped.merge(_merged_stats(partials[split:]))
    # Chan's merge rounds differently in each order: within float64 rounding
    # of values up to 100 in magnitude
    for other in (_merged_stats([partials[i] for i in order]).finalize(), grouped.finalize()):
        assert other.num_frames_seen == forward.num_frames_seen
        assert np.allclose(other.mean, forward.mean, rtol=1e-12, atol=1e-10)
        assert np.allclose(other.std**2, forward.std**2, rtol=1e-9, atol=1e-9)


_MASK_MODES = (
    ["sem", "--seed", "5"],
    ["fixed", "--eta-th", "-30"],
    ["dropout", "--rate", "0.2", "--seed", "5"],
    ["none"],
)


def _utterances():
    kinds = st.sampled_from(["sine", "white_noise", "chirp", "speech"])
    utterance = st.tuples(kinds, st.floats(0.03, 0.6), st.integers(0, 2**16))
    return st.tuples(
        st.lists(utterance, min_size=1, max_size=4),
        st.booleans(),
        st.sampled_from(MULTI_BLOCK_FRAMES),
    )


def _write_corpus(path, utterances, one_silent, long_frames):
    """The short utterances, the first one silent if one_silent, and one
    speech-like utterance "long" of long_frames frames."""
    path.mkdir()
    for i, (kind, duration_s, seed) in enumerate(utterances):
        if one_silent and i == 0:
            kind = "silence"
        utterance_id = f"utt_{i}"
        if kind == "speech":
            wave = synth_speech_like(duration_s, seed=seed, utterance_id=utterance_id)
        else:
            wave = synth_fixture(kind, duration_s, seed=seed, utterance_id=utterance_id)
        write_wav(path / f"{utterance_id}.wav", wave)
    write_wav(path / "long.wav", waveform_of_frames(long_frames, long_frames, "long"))


@settings(max_examples=10, deadline=None)
@given(corpus=_utterances())
def test_outputs_do_not_depend_on_worker_count(tmp_path_factory, corpus):
    # (--workers, CPUs seen): front-end threads T = 1, 2 and 3 at one
    # worker and T = 1 at three workers; stats and render run T = CPUs
    root = tmp_path_factory.mktemp("workers")
    wavs = root / "wavs"
    _write_corpus(wavs, *corpus)
    outs = []
    for workers, cpus in ((1, 1), (1, 2), (1, 3), (3, 3)):
        outs.append(root / f"w{workers}_c{cpus}")
        run_every_command(wavs, outs[-1], workers, cpus, _MASK_MODES, ["long"])
    assert (outs[0] / "mask_sem" / "manifest.csv").exists()
    for out in outs[1:]:
        assert_same_trees(outs[0], out)
