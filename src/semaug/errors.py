"""Exception types shared across the package."""


class SemaugError(Exception):
    """Base class for all semaug errors."""


# --- audio input ---------------------------------------------------------

class UnsupportedFormat(SemaugError):
    """Audio file is valid RIFF/WAVE but not 16-bit mono linear PCM."""


class MalformedHeader(SemaugError):
    """Audio file is not a parseable RIFF/WAVE container."""


class EmptyAudio(SemaugError):
    """Audio file contains no samples."""


class InvalidDuration(SemaugError):
    """Requested fixture duration is not positive."""


# --- feature extraction --------------------------------------------------

class TooShort(SemaugError):
    """Waveform shorter than one analysis window."""


class TooManyChannels(SemaugError):
    """Adjacent mel filter centers collapse onto the same DFT bin."""


# --- statistics and transforms -------------------------------------------

class EmptyCorpus(SemaugError):
    """No frames seen while accumulating corpus statistics."""


class EmptyMatrix(SemaugError):
    """Operation requires at least one matrix entry."""


class ShapeMismatch(SemaugError):
    """Matrix shapes or channel counts do not line up."""


# --- masking --------------------------------------------------------------

class NonPositivePeak(SemaugError):
    """Peak energy must be strictly positive to form a dB ratio."""


class AllMaskedSignal(SemaugError):
    """Mask removed (numerically) all feature mass; no scaling possible."""


class InvalidRate(SemaugError):
    """Dropout rate outside [0, 1)."""


# --- file formats ----------------------------------------------------------

class FormatError(SemaugError):
    """Feature or stats file does not conform to its on-disk format."""
