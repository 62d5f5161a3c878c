"""Small energy masking augmentation for power-mel speech features.

The package namespace holds the pipeline: read a WAV, compute its mel
filterbank energies, raise them to power-mel features, accumulate corpus
stats, then mask and normalize. An utterance is one FeatureMatrix:
filterbank_energies returns its energies, and power_mel, normalize,
apply_sem, apply_fixed_sem and input_dropout turn them into features in
place (power_mel, normalize and input_dropout return the matrix they were
given; the two masks return their outcome). The steps inside it
(framing, spectra, peak energy, thresholds, masks, the rescale factor)
stay importable from their modules: semaug.dsp, semaug.masking, and so on.
"""

from . import errors
from .audio_io import WavReader, Waveform, read_wav
from .dsp import FeatureConfig, FeatureMatrix, filterbank_energies, mel_filterbank
from .features import GlobalStats, StatsAccumulator, normalize, power_mel
from .masking import SemConfig, apply_fixed_sem, apply_sem, input_dropout
from .stats import EtaHistogramAccumulator

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Waveform",
    "WavReader",
    "read_wav",
    "FeatureConfig",
    "FeatureMatrix",
    "mel_filterbank",
    "filterbank_energies",
    "GlobalStats",
    "StatsAccumulator",
    "power_mel",
    "normalize",
    "SemConfig",
    "apply_sem",
    "apply_fixed_sem",
    "input_dropout",
    "EtaHistogramAccumulator",
]
