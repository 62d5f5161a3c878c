"""README.md's library examples run against the current API."""

import re
from pathlib import Path

import numpy as np

from semaug.audio_io import synth_speech_like, write_wav

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks():
    """The python code blocks of README's "Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run(tmp_path, monkeypatch):
    # the examples read wavs/utt.wav; each block goes on from the names
    # the blocks before it bound, as a reader's session would
    (tmp_path / "wavs").mkdir()
    write_wav(tmp_path / "wavs" / "utt.wav", synth_speech_like(1.5, seed=0, utterance_id="utt"))
    monkeypatch.chdir(tmp_path)
    blocks = _library_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    outcome = namespace["outcome"]
    assert outcome.features.utterance_id == "utt"
    assert np.isfinite(outcome.features.values).all()
