"""Run one semaug command in this process and report what it cost.

    python3 perfbench/child.py RESULT.json [--trace] featurize --in wavs --out feats

Runs `semaug.cli.main` on the arguments, the same call the `semaug`
console script makes, and writes RESULT.json when the command ends:
{"peak_rss_kb": VmHWM of this process, "spans": [...]}. The parent cannot
take peak RSS from wait4: a child's ru_maxrss starts from the parent's own
high-water mark, which the exec does not reset.

With --trace, the public functions of semaug's modules are wrapped from
the outside (nothing in src/ knows about it) and each call records a span
[id, name, start, end, parent id or -1, utterance id, thread id, count,
cpu]; start and end are time.perf_counter() readings, which on Linux share
the system-wide monotonic clock with the parent benchmark process. `count`
is the work a call did where the call exposes it (frames framed, spectrum
bytes computed, fallbacks, bytes written), else 0. `cpu` is the calling
thread's own CPU time (time.thread_time) over a top-level span, else 0: it
counts the CLI's worker threads and not OpenBLAS's, whose spinning threads
fill the process's user+sys time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


def _frames(args, kwargs, result):
    return int(result.shape[0])


def _spectrum_bytes(args, kwargs, result):
    # The complex rfft array the call computes: M x (K/2 + 1) x 16 bytes.
    frame = args[0]
    fft_size = args[1] if len(args) > 1 else kwargs["fft_size"]
    rows = frame.shape[0] if frame.ndim > 1 else 1
    return rows * (fft_size // 2 + 1) * 16


def _fallback(args, kwargs, result):
    return int(result.fallback_applied)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute path, counter). Layer = module name.
TRACED = (
    ("audio_io", "read_wav", None),
    ("dsp", "mel_filterbank", None),
    ("dsp", "filterbank_energies", None),
    ("dsp", "frame_signal", _frames),
    ("dsp", "hamming_window", None),
    ("dsp", "power_spectrum", _spectrum_bytes),
    ("features", "power_mel", None),
    ("features", "StatsAccumulator.update", None),
    ("features", "StatsAccumulator.merge", None),
    ("features", "StatsAccumulator.finalize", None),
    ("features", "subtract_mean", None),
    ("features", "divide_std", None),
    ("masking", "apply_sem", _fallback),
    ("masking", "apply_fixed_sem", _fallback),
    ("masking", "input_dropout", None),
    ("masking", "peak_energy", None),
    ("masking", "eta", None),
    ("masking", "binary_mask", None),
    ("masking", "scaling_coefficient", None),
    ("stats", "EtaHistogramAccumulator.update", None),
    ("stats", "EtaHistogramAccumulator.finalize", None),
    ("formats", "save_features", _file_size),
    ("formats", "save_stats", _file_size),
    ("formats", "load_stats", None),
)


class Tracer:
    """Collects spans in memory; one span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, counter):
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, parent_uid = stack[-1] if stack else (-1, "")
            span_id = next(ids)
            uid = _utterance_id(args) or parent_uid
            stack.append((span_id, uid))
            cpu = time.thread_time() if parent < 0 else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if parent < 0:
                    cpu = time.thread_time() - cpu
                stack.pop()
                span = [span_id, name, start, end, parent, uid, threading.get_ident(), 0, cpu]
                spans.append(span)
            if counter:
                span[7] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced callable wherever a semaug module bound it."""
        import semaug.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("semaug") and m]
        for module_name, attr_path, counter in TRACED:
            module = sys.modules[f"semaug.{module_name}"]
            name = f"{module_name}.{attr_path}"
            if "." in attr_path:
                cls_name, method = attr_path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), counter))
                continue
            original = getattr(module, attr_path)
            wrapped = self.wrap(name, original, counter)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)


def _utterance_id(args) -> str:
    for arg in args:
        uid = getattr(arg, "utterance_id", None)
        if isinstance(uid, str):
            return uid
        if isinstance(arg, (str, Path)) and str(arg).endswith((".wav", ".fmx")):
            return Path(arg).stem
    return ""


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        tracer.install()
    from semaug.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        result = {"peak_rss_kb": peak_rss_kb(), "spans": tracer.spans}
        Path(result_path).write_text(json.dumps(result), encoding="ascii")


if __name__ == "__main__":
    sys.exit(main())
