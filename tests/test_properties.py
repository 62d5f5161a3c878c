"""Property tests (hypothesis): invariants over generated inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semaug import FeatureConfig, filterbank_energies, mel_filterbank  # noqa: E402
from semaug.audio_io import PCM_SCALE, Waveform  # noqa: E402
from semaug.dsp import BLOCK_FRAMES, SUB_BLOCK_FRAMES  # noqa: E402

CFG = FeatureConfig()
FILTERBANK = mel_filterbank(CFG)

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
    as64 = filterbank_energies(Waveform(samples, CFG.sample_rate_hz, "f64"), CFG, FILTERBANK)
    as32 = filterbank_energies(
        Waveform(samples.astype(np.float32), CFG.sample_rate_hz, "f32"), CFG, FILTERBANK
    )
    assert as64.num_frames == num_frames
    assert np.array_equal(as32.values, as64.values)
