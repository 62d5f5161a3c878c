#!/usr/bin/env python3
"""Record the outputs_sha256 of each full-size workload for a range of seeds.

    python3 perfbench/record_outputs.py 0 19     # seeds 0..19, every workload

Runs one round of perfbench/run.py per (workload, seed) and writes the
digests to perfbench/expected_outputs.json, which later runs compare their
artifacts with (the report's outputs_match_expected). Re-record only when a
change is meant to alter artifact bytes, and say so with the change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def digest(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    if not json.loads(result_line)["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs fail verification\n{proc.stderr}")
    return json.loads(report_line[len("report: "):])["outputs_sha256"]


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    table = {w: {str(seed): digest(w, seed) for seed in range(first, last + 1)} for w in workloads}
    (BENCH_DIR / "expected_outputs.json").write_text(
        json.dumps(table, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
