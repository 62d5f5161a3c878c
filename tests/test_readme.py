"""README.md's library examples run against the current API, and the
names it quotes resolve."""

import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np

import semaug
from semaug.audio_io import synth_speech_like, write_wav
from semaug.masking import SemOutcome

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
    energies = namespace["energies"]
    assert energies.utterance_id == "utt"
    assert np.isfinite(energies.values).all()


def _quoted_names(pattern):
    """README's inline code spans that are wholly a match of pattern."""
    text = README.read_text(encoding="utf-8")
    spans = re.findall(r"(?<!`)`([^`\n]+)`(?!`)", text)
    return sorted({span for span in spans if re.fullmatch(pattern, span)})


def test_quoted_module_names_resolve():
    names = _quoted_names(r"semaug(\.\w+)+")
    assert names
    for dotted in names:
        _, module, *attrs = dotted.split(".")
        target = importlib.import_module(f"semaug.{module}")
        for attr in attrs:
            target = getattr(target, attr)


def test_quoted_package_attributes_resolve():
    names = [
        span for span in _quoted_names(r"\w+\.\w+") if span.split(".")[0] in semaug.__all__
    ]
    assert names
    for span in names:
        owner, attr = span.split(".")
        assert hasattr(getattr(semaug, owner), attr), span


def test_quoted_outcome_fields_exist():
    fields = {field.name for field in dataclasses.fields(SemOutcome)}
    names = _quoted_names(r"outcome\.\w+")
    assert names
    for span in names:
        assert span.split(".")[1] in fields, span
