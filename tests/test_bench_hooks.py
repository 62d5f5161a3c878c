"""The names and code the benchmark in perfbench/ runs against semaug.

perfbench/child.py wraps the functions its TRACED table names,
perfbench/run.py times SETUP_CODE as `setup_s`, and perfbench/corpus.py
imports its synthesis functions inside the worker that writes each WAV;
all of these fail only when the benchmark runs. These tests load the
scripts (stdlib-only at import) by path, unchanged, check those hooks
against the current sources, pin the bytes of a small corpus that
corpus.py generates, run the benchmark once at its self-test size, and
check that a traced featurize of a long file counts every frame its
threaded front end transforms and one of short files records every file's
write, and that a traced mask counts the fallback of a silent file.
"""

import ast
import importlib
import json
import os
import sys
import types
from pathlib import Path

import pytest

from semaug.audio_io import synth_speech_like, write_wav
from semaug.cli import main
from semaug.dsp import FeatureConfig
from conftest import run_python, synth_fixture

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name):
    """perfbench/<name>.py as a module, without writing bytecode beside it."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("module_name,attr_path", [
    pytest.param(module_name, attr_path, id=f"{module_name}.{attr_path}")
    for module_name, attr_path, _ in _load_script("child").TRACED
])
def test_traced_name_resolves(module_name, attr_path):
    target = importlib.import_module(f"semaug.{module_name}")
    for part in attr_path.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_setup_code_runs():
    run = run_python(["-c", _load_script("run").SETUP_CODE])
    assert run.returncode == 0, run.stderr


def test_cli_import_builds_no_filterbank():
    # setup_s times the import plus one mel_filterbank; the import adds none
    code = (
        "import semaug.dsp as dsp\n"
        "calls = []\n"
        "build = dsp.mel_filterbank\n"
        "dsp.mel_filterbank = lambda *args, **kwargs: calls.append(1) or build(*args, **kwargs)\n"
        "import semaug.cli\n"
        "assert not calls, calls\n"
    )
    run = run_python(["-c", code])
    assert run.returncode == 0, run.stderr


def test_corpus_imports_resolve():
    tree = ast.parse((ROOT / "perfbench" / "corpus.py").read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semaug")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert callable(getattr(module, alias.name)), f"{node.module}.{alias.name}"


def test_corpus_is_pinned(tmp_path):
    # three many_short utterances of seed 0, written by the benchmark's own
    # generator (in a fresh interpreter, because it forks its writers)
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import corpus\n"
        "print(corpus.generate(Path(sys.argv[2]), 'many_short', 0, 3, 1.5).sha256)\n"
    )
    run = run_python(["-c", code, str(ROOT / "perfbench"), str(tmp_path / "wavs")])
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "13dbae79d79ad2fdeee29b5f727032e9f1f85d423a4ee03cd2fcf7dc1dce4e7f"
    ]


def test_trace_sees_every_frame_of_the_threaded_front_end(tmp_path):
    # 13 s: 1298 frames, two whole blocks and a final partial one, so
    # with two or more CPUs the front end runs in two ranges on two threads
    cfg = FeatureConfig()
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    write_wav(wavs / "long.wav", synth_speech_like(13.0, seed=2, utterance_id="long"))
    num_frames = 1 + (13 * cfg.sample_rate_hz - cfg.window_samples) // cfg.hop_samples
    result_path = tmp_path / "result.json"
    run = run_python([
        str(ROOT / "perfbench" / "child.py"), str(result_path), "--trace",
        "featurize", "--in", str(wavs), "--out", str(tmp_path / "out"),
    ])
    assert run.returncode == 0, run.stderr
    spans = json.loads(result_path.read_text(encoding="ascii"))["spans"]
    front_ends = [span for span in spans if span[1] == "dsp.filterbank_energies"]
    assert [span[5] for span in front_ends] == ["long"]
    power = [span for span in spans if span[1] == "dsp.power_spectrum"]
    assert sum(span[7] for span in power) == num_frames * (cfg.fft_size // 2 + 1) * 16
    if len(os.sched_getaffinity(0)) >= 2:
        assert len({span[6] for span in power}) == 2


def test_trace_records_every_short_file_on_every_thread(tmp_path):
    # files under two blocks run whole on each front-end thread: one write
    # span per file, from more than one thread when two CPUs are available
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    uids = [f"utt_{i:02d}" for i in range(12)]
    for i, uid in enumerate(uids):
        write_wav(wavs / f"{uid}.wav", synth_speech_like(0.5, seed=i, utterance_id=uid))
    result_path = tmp_path / "result.json"
    run = run_python([
        str(ROOT / "perfbench" / "child.py"), str(result_path), "--trace",
        "featurize", "--in", str(wavs), "--out", str(tmp_path / "out"),
    ])
    assert run.returncode == 0, run.stderr
    spans = json.loads(result_path.read_text(encoding="ascii"))["spans"]
    saves = [span for span in spans if span[1] == "formats.save_features"]
    assert sorted(span[5] for span in saves) == uids
    if len(os.sched_getaffinity(0)) >= 2:
        assert len({span[6] for span in saves}) >= 2


@pytest.mark.parametrize("mode_flags,traced", [
    (["sem"], "masking.apply_sem"),
    (["fixed", "--eta-th", "-20"], "masking.apply_fixed_sem"),
], ids=["sem", "fixed"])
def test_trace_counts_the_fallback_of_a_silent_file(tmp_path, mode_flags, traced):
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    for i, uid in enumerate(("utt_0", "utt_1")):
        write_wav(wavs / f"{uid}.wav", synth_speech_like(0.5, seed=i, utterance_id=uid))
    write_wav(wavs / "quiet.wav", synth_fixture("silence", 0.5, utterance_id="quiet"))
    assert main(["featurize", "--in", str(wavs), "--out", str(tmp_path / "feats")]) == 0
    result_path = tmp_path / "result.json"
    run = run_python([
        str(ROOT / "perfbench" / "child.py"), str(result_path), "--trace",
        "mask", "--in", str(wavs), "--stats", str(tmp_path / "feats" / "global_stats.txt"),
        "--mode", *mode_flags, "--out", str(tmp_path / "masked"),
    ])
    assert run.returncode == 0, run.stderr
    spans = json.loads(result_path.read_text(encoding="ascii"))["spans"]
    masks = [span for span in spans if span[1] == traced]
    assert sorted(span[5] for span in masks) == ["quiet", "utt_0", "utt_1"]
    assert sum(span[7] for span in masks) == 1


def test_tiny_benchmark_run():
    # featurize, all four mask modes and stats on three 1 s files, each
    # round's artifacts checked by perfbench/verify.py
    run = run_python([
        str(ROOT / "perfbench" / "run.py"), "--workload", "parallel_modes",
        "--seed", "0", "--seconds", "1", "--tiny",
    ])
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout + run.stderr
