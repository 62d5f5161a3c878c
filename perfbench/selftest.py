#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units; that seed code verifies clean; that the traced run counts
one front-end pass per command and utterance and accounts for the whole
command wall; that verification fails on one corrupted output byte, on a
mask that drops nothing and on a well-formed but wrong histogram; that output
digests repeat across runs; and that the benchmark refuses to run where
there are no semaug sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None, proc.stderr
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2][len("report: "):]), proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, report, stderr = run(workload, trace)
            label = f"{workload} trace={trace}"
            if result is None:
                check(False, f"{label}: exit {code}, no result; {stderr[-300:]}")
                continue
            metrics = result["metrics"]
            check({k: v["unit"] for k, v in metrics.items()} == named[trace],
                  f"{label}: emits every named metric with its unit")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in metrics.values()), f"{label}: every value is a finite number")
            check(result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0,
                  f"{label}: outputs verify, failed_frac = 0")
            digests.setdefault(workload, set()).add(report["outputs_sha256"])
            if trace == 1:
                value = {k: v["value"] for k, v in metrics.items()}
                passes = 6 if workload == "parallel_modes" else 3  # one per command
                check(value["dsp.filterbank_energies_calls"] == passes * report["utterances"],
                      f"{label}: {passes} front-end passes per utterance")
                check(math.isclose(value["cli.self_s"] + value["cli.covered_s"],
                                   value["cli.wall_s"], rel_tol=1e-9),
                      f"{label}: covered spans + cli.self_s = command wall")
                check(0 < value["cli.covered_s"] < value["cli.wall_s"],
                      f"{label}: spans lie inside the command wall")
                check(value["trace.missing_layers"] == 0, f"{label}: no layer missing")
    for workload, seen in digests.items():
        check(len(seen) == 1, f"{workload}: outputs_sha256 repeats across runs of one seed")

    for workload, kind, command in (("many_short", "byte", "mask_sem"),
                                    ("parallel_modes", "unmasked", "mask_sem"),
                                    ("parallel_modes", "histogram", "stats")):
        _, result, report, _ = run(workload, 0, "--corrupt", kind)
        check(result is not None and not result["correct"] and result["failed"] > 0
              and report["failed_frac"] > 0 and result["metrics"]["ok_frac"]["value"] < 1
              and report["failed_by_command"][command] > 0,
              f"{workload}: corruption '{kind}' fails {command}, failed_frac > 0")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, _, _ = run("many_short", 0, cwd=bare)
        check(code != 0 and result is None, "without semaug sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
