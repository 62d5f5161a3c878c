"""The names and code the benchmark in perfbench/ runs against semaug.

perfbench/child.py wraps the functions its TRACED table names, and
perfbench/run.py times SETUP_CODE as `setup_s`; both fail only when the
benchmark runs. These tests load the two scripts (stdlib-only at import)
by path, unchanged, and check those hooks against the current sources.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def _run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


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
    run = _run_python(_load_script("run").SETUP_CODE)
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
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
