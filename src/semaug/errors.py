"""Exception types shared across the package.

A SemaugError raised while one file is processed fails that file alone;
the CLI tells no subclass apart. Checks that no command can reach (a
non-default front end, a synthesis duration, a dropout rate, mismatched
shapes) raise ValueError instead.
"""


class SemaugError(Exception):
    """Base class for all semaug errors."""


class BadAudio(SemaugError):
    """Audio input the front end cannot use: not a parseable RIFF/WAVE file,
    not 16-bit mono linear PCM, no samples, shorter than one analysis
    window, or at another sample rate than the front end's."""


class FormatError(SemaugError):
    """Feature or stats file does not conform to its on-disk format."""


class EmptyCorpus(SemaugError):
    """No frames, bins, matrix entries or utterances to compute a result from."""
