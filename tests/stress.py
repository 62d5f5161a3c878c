"""Run a keyword subset of the tests under load and count each test's failures.

Each round starts C pytest processes at once on the same subset and waits
for all of them; after R rounds it writes, as JSON, how many of the R x C
runs each selected test failed (0 for a test that always passed). The
subset is the tests of test_cli.py, test_dsp.py and test_bench_hooks.py
that match -k, by default the threaded ones. pytest does not collect this
file. From the repository root:

    python tests/stress.py --rounds 20 --concurrency 3 > stress.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = ["tests/test_cli.py", "tests/test_dsp.py", "tests/test_bench_hooks.py"]
DEFAULT_KEYWORD = "helper or pool or interrupt or share or range or thread or multi_block"
# "FAILED tests/x.py::test_y[1] - AssertionError" in pytest's -rfE summary
_OUTCOME = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def _pytest(args, basetemp=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args]
    if basetemp is not None:
        argv.append(f"--basetemp={basetemp}")
    return subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def _selected(keyword):
    out, _ = _pytest(["--collect-only", "-q", "-k", keyword, *FILES]).communicate()
    return [line for line in out.splitlines() if "::" in line]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--concurrency", type=int, default=3)
    parser.add_argument("-k", dest="keyword", default=DEFAULT_KEYWORD)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.concurrency < 1:
        parser.error("--rounds and --concurrency must be >= 1")

    tests = _selected(args.keyword)
    if not tests:
        parser.error(f"no test matches -k {args.keyword!r}")
    failures = dict.fromkeys(tests, 0)
    broken_runs = 0
    with tempfile.TemporaryDirectory(prefix="semaug-stress-") as scratch:
        for round_index in range(args.rounds):
            runs = [
                _pytest(
                    ["-q", "-rfE", "-k", args.keyword, *FILES],
                    Path(scratch) / f"r{round_index}-{i}",
                )
                for i in range(args.concurrency)
            ]
            for run in runs:
                out, _ = run.communicate()
                # exit 1 is "some tests failed"; any other non-zero code
                # means the run itself did not complete
                if run.returncode not in (0, 1):
                    broken_runs += 1
                for test in _OUTCOME.findall(out):
                    failures[test] = failures.get(test, 0) + 1
            failed = sum(failures.values())
            print(f"round {round_index + 1}/{args.rounds}: {failed} failures so far",
                  file=sys.stderr)

    report = {
        "rounds": args.rounds,
        "concurrency": args.concurrency,
        "keyword": args.keyword,
        "files": FILES,
        "tests": len(tests),
        "broken_runs": broken_runs,
        "failures": failures,
    }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if broken_runs or any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
