#!/usr/bin/env python3
"""Batch-pipeline benchmark of the semaug CLI.

    python3 perfbench/run.py --workload many_short --seed 1 --seconds 40 --trace 0

Generates a fixed-seed synth_speech_like corpus for the workload, then runs
rounds of the real CLI commands (featurize, mask in each of the workload's
modes, stats), each command in a fresh interpreter through child.py, one
at a time: one client, closed loop. Every round's outputs are verified. Rounds repeat
while another one fits in --seconds; timings are medians over rounds.

--trace 0 prints the end-to-end metrics; each timed process is scaled to a
reference speed of the CPUs it ran on (see PROBE_REF_S), and the report
keeps the unscaled samples too. --trace 1 alternates untraced rounds with
traced rounds, in which child.py records a span around each call into
semaug's modules, and prints the per-layer metrics; the tracing overhead
is the traced minus the untraced round time.

The last line of stdout is one JSON object:
{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}
where attempted/failed count utterances over all commands and rounds. The
line before it, prefixed "report: ", holds the details: corpus and output
digests, environment, sample counts and tail percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Rounds stop being started this long after the process started, so a slow
# machine still ends the run well inside its time limit.
START_DEADLINE_S = 120.0


@dataclass(frozen=True)
class Workload:
    utterances: int
    duration_s: float
    workers: int
    mask_modes: tuple[str, ...]


# Why each workload exists is in BENCHMARK.json. few_long holds 1200 s of
# audio, many_short and parallel_modes 300 s each (ratio 4:1): the timings
# swing by 10-20% from one command to the next on a shared 2-CPU machine,
# so a run needs several rounds for a steady median, and a round of
# many_short or parallel_modes at 1200 s would take 13-35 s.
WORKLOADS = {
    "many_short": Workload(200, 1.5, 1, ("sem",)),
    "few_long": Workload(2, 600.0, 1, ("sem",)),
    "parallel_modes": Workload(100, 3.0, 2, ("sem", "fixed", "dropout", "none")),
}
# Same shapes at a size the self-test can run in seconds.
TINY = {
    "many_short": Workload(4, 0.5, 1, ("sem",)),
    "few_long": Workload(2, 2.0, 1, ("sem",)),
    "parallel_modes": Workload(3, 1.0, 2, ("sem", "fixed", "dropout", "none")),
}

FIXED_ETA_TH = -30.0
DROPOUT_RATE = 0.1
# outputs_sha256 of each full-size (workload, seed) as recorded by
# record_outputs.py; a run reports whether its artifacts still match.
EXPECTED_OUTPUTS = BENCH_DIR / "expected_outputs.json"
# On a shared host each vCPU switches, every few seconds and independently
# of the others, between a fast state and one up to 1.8x slower, which makes
# a command's wall time bimodal. So just before and after every process a
# run spawns, the benchmark times a fixed kernel of its own on each CPU
# (probe_cpus), samples which CPU the child's main thread is on while it
# runs, and scales the child's wall time by PROBE_REF_S over the probe time
# of the CPUs it ran on. The program's code cannot move the kernel. The
# reference is the kernel's median on the 2-vCPU VM of the baseline.
PROBE_REF_S = 0.011
# The probe of a CPU is the fastest of this many kernel runs, so that one
# interrupt does not set it.
PROBE_REPEATS = 2
# How often the child's current CPU is sampled while it runs.
CPU_SAMPLE_S = 0.005
SETUP_CODE = (
    "import semaug.cli\n"
    "from semaug.dsp import FeatureConfig, mel_filterbank\n"
    "mel_filterbank(FeatureConfig())\n"
)

# Layers each command must show in a traced run; one that shows no span
# ran somewhere the wrappers cannot see (another process, say).
EXPECTED_LAYERS = {
    "featurize": {"audio_io", "dsp", "features", "formats"},
    "mask_sem": {"audio_io", "dsp", "features", "masking", "formats"},
    "mask_fixed": {"audio_io", "dsp", "features", "masking", "formats"},
    "mask_dropout": {"audio_io", "dsp", "features", "masking", "formats"},
    "mask_none": {"audio_io", "dsp", "features", "formats"},
    "stats": {"audio_io", "dsp", "features", "masking", "stats"},
}
LAYERS = ("audio_io", "dsp", "features", "masking", "stats", "formats")

END_TO_END = {
    "setup_s": "s",
    "featurize_s": "s",
    "mask_s": "s",
    "stats_s": "s",
    "audio_s_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "audio_io.read_wav_s": "s",
    "audio_io.read_wav_calls": "count",
    "dsp.frame_signal_s": "s",
    "dsp.power_spectrum_s": "s",
    "dsp.filterbank_energies_self_s": "s",
    "dsp.frames": "count",
    "dsp.spectrum_bytes_computed": "B",
    "dsp.filterbank_energies_calls": "count",
    "features.power_mel_s": "s",
    "features.stats_update_s": "s",
    "masking.apply_sem_s": "s",
    "masking.apply_fixed_sem_s": "s",
    "masking.input_dropout_s": "s",
    "masking.fallbacks": "count",
    "stats.hist_update_s": "s",
    "formats.save_features_s": "s",
    "formats.save_features_files": "count",
    "formats.bytes_written": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "cli.covered_s": "s",
    "cli.wall_s": "s",
    "cli.cpu_util": "ratio",
    "cli.worker_cpu_util": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.missing_layers": "count",
}


# --- running commands ----------------------------------------------------------

@dataclass
class CommandRun:
    name: str
    start: float
    end: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    spans: list[list]
    probe_s: float  # kernel time on the CPUs the child ran on, weighted by its time there

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def scaled_s(self) -> float:
        return scaled(self.wall_s, self.probe_s)


@dataclass
class Round:
    traced: bool
    commands: list[CommandRun] = field(default_factory=list)
    failed: dict[str, set[str]] = field(default_factory=dict)  # command -> utterance ids
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    def wall_of(self, prefix: str) -> float:
        return sum(c.wall_s for c in self.commands if c.name.startswith(prefix))

    def scaled_of(self, prefix: str) -> float:
        return sum(c.scaled_s for c in self.commands if c.name.startswith(prefix))


def scaled(wall_s: float, probe_s: float) -> float:
    """Wall time at the reference CPU speed."""
    return wall_s * PROBE_REF_S / probe_s


def _probe_kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    acc += len(bytearray(4 << 20))  # fresh pages: faults and zeroing in the kernel
    return time.perf_counter() - start


def probe_cpus() -> dict[int, float]:
    """Kernel time on each CPU this process may use, pinned to it in turn."""
    cpus = os.sched_getaffinity(0)
    times = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times[cpu] = min(_probe_kernel() for _ in range(PROBE_REPEATS))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def _sample_cpus(pid: int, counts: dict[int, int], stop: threading.Event) -> None:
    """Count the CPU the main thread of pid is on, every CPU_SAMPLE_S until stop."""
    path = f"/proc/{pid}/stat"
    while not stop.wait(CPU_SAMPLE_S):
        try:
            with open(path, "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            return
        cpu = int(fields[36])  # field 39 of proc(5), "processor"
        counts[cpu] = counts.get(cpu, 0) + 1


@dataclass
class Spawned:
    start: float
    end: float
    usage: object  # resource.struct_rusage of the child alone
    returncode: int
    probe_s: float


def spawn(argv: list[str], env: dict, log_path: Path) -> Spawned:
    """Run argv to completion and probe the speed of the CPUs it ran on."""
    before = probe_cpus()
    counts: dict[int, int] = {}
    stop = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        sampler = threading.Thread(target=_sample_cpus, args=(proc.pid, counts, stop))
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            stop.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = probe_cpus()
    weights = {cpu: counts.get(cpu, 0) for cpu in before}
    if not any(weights.values()):  # ended before the first sample
        weights = dict.fromkeys(before, 1)
    probe_s = sum(w * (before[cpu] + after[cpu]) / 2 for cpu, w in weights.items())
    return Spawned(start, end, usage, proc.returncode, probe_s / sum(weights.values()))


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, corpus):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.corpus = corpus
        self.out = work / "out"
        self.logs = work / "logs"
        self.logs.mkdir()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        self.rounds_run = 0

    def commands(self) -> list[tuple[str, list[str]]]:
        wavs, out, workers = str(self.corpus.wav_dir), self.out, str(self.workload.workers)
        mode_flags = {
            "sem": ["--seed", str(self.seed)],
            "fixed": ["--eta-th", str(FIXED_ETA_TH)],
            "dropout": ["--rate", str(DROPOUT_RATE), "--seed", str(self.seed)],
            "none": [],
        }
        cmds = [("featurize", ["featurize", "--in", wavs, "--out", str(out / "featurize"),
                               "--workers", workers])]
        for mode in self.workload.mask_modes:
            cmds.append((f"mask_{mode}", [
                "mask", "--in", wavs, "--stats", str(out / "featurize" / "global_stats.txt"),
                "--mode", mode, *mode_flags[mode], "--out", str(out / f"mask_{mode}"),
                "--workers", workers,
            ]))
        cmds.append(("stats", ["stats", "--in", wavs, "--out", str(out / "distribution.csv")]))
        return cmds

    def run_round(self, traced: bool) -> Round:
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir()
        rnd = Round(traced=traced)
        index = self.rounds_run
        self.rounds_run += 1
        for name, args in self.commands():
            result_path = self.logs / f"{index}_{name}.json"
            argv = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
                    *(["--trace"] if traced else []), *args]
            log_path = self.logs / f"{index}_{name}.log"
            run = spawn(argv, self.env, log_path)
            try:
                child = json.loads(result_path.read_text(encoding="ascii"))
            except (OSError, ValueError):  # the child died before writing it
                child = {"peak_rss_kb": run.usage.ru_maxrss, "spans": []}
            rnd.commands.append(CommandRun(
                name, run.start, run.end, run.usage.ru_utime + run.usage.ru_stime,
                child["peak_rss_kb"] / 1024.0, run.returncode, child["spans"], run.probe_s,
            ))
            if run.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-5:]
                print(f"{name} exited {run.returncode}: " + " | ".join(tail), file=sys.stderr)
        return rnd

    def setup_time(self) -> Spawned:
        run = spawn([sys.executable, "-c", SETUP_CODE], self.env, self.logs / "setup.log")
        if run.returncode != 0:
            raise SystemExit(f"set-up import failed with exit code {run.returncode}")
        return run


def verify_round(bench: Bench, rnd: Round, reference: Round | None) -> bool:
    """Fill rnd.failed and rnd.digest; False when bytes differ from the reference round."""
    from verify import Verifier, outputs_digest

    rnd.digest = outputs_digest(bench.out)
    all_ids = set(bench.corpus.utterance_ids)
    if reference is not None and rnd.digest == reference.digest:
        rnd.failed = {name: set(ids) for name, ids in reference.failed.items()}
    else:
        checker = Verifier(bench.corpus, bench.out)
        rnd.failed["featurize"] = checker.featurize()
        for mode in bench.workload.mask_modes:
            rnd.failed[f"mask_{mode}"] = checker.mask(mode, FIXED_ETA_TH, DROPOUT_RATE)
        rnd.failed["stats"] = checker.histogram()
        for fault in checker.faults[:5]:
            print(f"verify: {fault}", file=sys.stderr)
        if len(checker.faults) > 5:
            print(f"verify: ... {len(checker.faults) - 5} more faults", file=sys.stderr)
    for cmd in rnd.commands:
        if cmd.returncode != 0:
            rnd.failed[cmd.name] = set(all_ids)
    return reference is None or rnd.digest == reference.digest


CORRUPTIONS = ("byte", "unmasked", "histogram")


def corrupt(out: Path, kind: str) -> None:
    """Damage one round's outputs the way a broken program might (self-test only).

    byte: flip an exponent bit of the first value of one masked output.
    unmasked: replace the sem outputs with the unmasked ones, and the
    manifest's masked_fraction and scaling_r with 0 and 1, as a mask that
    drops nothing would write them; needs a workload that runs mask none.
    histogram: replace the distribution with a well-formed uniform one.
    """
    from verify import FMX_HEADER, HISTOGRAM_BINS

    if kind == "byte":
        target = sorted((out / "mask_sem").glob("*.fmx"))[0]
        blob = bytearray(target.read_bytes())
        blob[FMX_HEADER.size + 3] ^= 0x40
        target.write_bytes(bytes(blob))
    elif kind == "unmasked":
        for source in (out / "mask_none").glob("*.fmx"):
            shutil.copyfile(source, out / "mask_sem" / source.name)
        manifest = out / "mask_sem" / "manifest.csv"
        lines = manifest.read_text(encoding="ascii").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        manifest.write_text("\n".join([lines[0]] + [
            ",".join(row[:3] + ["0", "1"] + row[5:]) for row in rows
        ]) + "\n", encoding="ascii")
    else:
        rows = [f"{edge},{1 / HISTOGRAM_BINS!r},{cdf!r},{cdf!r}" for edge, cdf in (
            (i - 99, (i + 1) / HISTOGRAM_BINS) for i in range(HISTOGRAM_BINS))]
        (out / "distribution.csv").write_text(
            "eta_db,pdf,cdf,energy_ratio\n" + "\n".join(rows) + "\n", encoding="ascii")


def expected_outputs(workload: str, seed: int, tiny: bool) -> str | None:
    if tiny or not EXPECTED_OUTPUTS.is_file():
        return None
    table = json.loads(EXPECTED_OUTPUTS.read_text(encoding="ascii"))
    return table.get(workload, {}).get(str(seed))


# --- metrics ------------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "samples": samples}
    if n > 10:
        pct = (100 * (n - 10)) // n
        rank = max(1, -(-pct * n // 100))  # nearest rank, ceil(pct/100 * n)
        summary[f"p{pct}"] = ordered[rank - 1]
    return summary


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def command_layers(cmd: CommandRun) -> tuple[dict[str, float], set[str]]:
    """Per-layer sums of one traced command, and the expected layers it never entered."""
    spans = cmd.spans
    child_s: dict[int, float] = defaultdict(float)
    for span_id, name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    m: dict[str, float] = defaultdict(float)
    roots = []
    seen = set()
    worker_cpu = 0.0
    for span_id, name, start, end, parent, _uid, _thread, count, cpu in spans:
        layer = name.split(".")[0]
        seen.add(layer)
        own = end - start - child_s[span_id]
        m[f"{layer}.self_s"] += own
        m[f"{name}:s"] += end - start
        m[f"{name}:self_s"] += own
        m[f"{name}:calls"] += 1
        m[f"{name}:count"] += count
        if name == "dsp.power_spectrum":
            m["dsp.spectrum_bytes_computed"] = max(m["dsp.spectrum_bytes_computed"], count)
        if parent < 0:
            roots.append((max(start, cmd.start), min(end, cmd.end)))
            worker_cpu += cpu
    covered = union_length([iv for iv in roots if iv[1] > iv[0]])
    out = {
        "audio_io.read_wav_s": m["audio_io.read_wav:s"],
        "audio_io.read_wav_calls": m["audio_io.read_wav:calls"],
        "dsp.frame_signal_s": m["dsp.frame_signal:s"],
        "dsp.power_spectrum_s": m["dsp.power_spectrum:s"],
        "dsp.filterbank_energies_self_s": m["dsp.filterbank_energies:self_s"],
        "dsp.frames": m["dsp.frame_signal:count"],
        "dsp.spectrum_bytes_computed": m["dsp.spectrum_bytes_computed"],
        "dsp.filterbank_energies_calls": m["dsp.filterbank_energies:calls"],
        "features.power_mel_s": m["features.power_mel:s"],
        "features.stats_update_s": m["features.StatsAccumulator.update:s"],
        "masking.apply_sem_s": m["masking.apply_sem:s"],
        "masking.apply_fixed_sem_s": m["masking.apply_fixed_sem:s"],
        "masking.input_dropout_s": m["masking.input_dropout:s"],
        "masking.fallbacks": m["masking.apply_sem:count"] + m["masking.apply_fixed_sem:count"],
        "stats.hist_update_s": m["stats.EtaHistogramAccumulator.update:s"],
        "formats.save_features_s": m["formats.save_features:s"],
        "formats.save_features_files": m["formats.save_features:calls"],
        "formats.bytes_written": m["formats.save_features:count"] + m["formats.save_stats:count"],
        **{f"{layer}.self_s": m[f"{layer}.self_s"] for layer in LAYERS},
        "cli.self_s": cmd.wall_s - covered,
        "cli.covered_s": covered,
        "cli.wall_s": cmd.wall_s,
        "cli.worker_cpu_s": worker_cpu,
        "trace.spans": len(spans),
    }
    return out, EXPECTED_LAYERS[cmd.name] - seen


def cpu_util(rnd: Round) -> float:
    return sum(c.cpu_s for c in rnd.commands) / rnd.wall_s


def end_to_end(bench: Bench, rounds: list[Round], setup: list[Spawned], ok_frac: float):
    """Medians over rounds of the scaled timings; the summaries keep the unscaled ones too."""
    samples = {
        "setup_s": [scaled(s.end - s.start, s.probe_s) for s in setup],
        "featurize_s": [r.scaled_of("featurize") for r in rounds],
        "mask_s": [r.scaled_of("mask_") for r in rounds],
        "stats_s": [r.scaled_of("stats") for r in rounds],
        "audio_s_per_s": [bench.corpus.audio_s / r.scaled_of("") for r in rounds],  # all commands
        "peak_rss_mb": [max(c.peak_rss_mb for c in r.commands) for r in rounds],
    }
    unscaled = {
        "setup_s": [s.end - s.start for s in setup],
        "featurize_s": [r.wall_of("featurize") for r in rounds],
        "mask_s": [r.wall_of("mask_") for r in rounds],
        "stats_s": [r.wall_of("stats") for r in rounds],
        "audio_s_per_s": [bench.corpus.audio_s / r.wall_s for r in rounds],
    }
    timings = {name: summarize(values) for name, values in samples.items()}
    for name, values in unscaled.items():
        timings[name]["unscaled_median"] = statistics.median(values)
        timings[name]["unscaled_samples"] = values
    timings["probe_s"] = summarize([s.probe_s for s in setup]
                                   + [c.probe_s for r in rounds for c in r.commands])
    values = {name: t["median"] for name, t in timings.items()}
    values["ok_frac"] = ok_frac
    return values, timings


def per_layer(untraced: list[Round], traced: list[Round]):
    sums = []
    missing: dict[str, set[str]] = defaultdict(set)
    for rnd in traced:
        total: dict[str, float] = defaultdict(float)
        for cmd in rnd.commands:
            layers, gone = command_layers(cmd)
            for key, value in layers.items():
                if key == "dsp.spectrum_bytes_computed":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
            if gone:
                missing[cmd.name] |= gone
        sums.append(total)
    # One traced round's values, so that they add up (cli.self_s +
    # cli.covered_s = cli.wall_s): the round with the median wall time.
    values = dict(sorted(sums, key=lambda s: s["cli.wall_s"])[(len(sums) - 1) // 2])
    values["cli.worker_cpu_util"] = values.pop("cli.worker_cpu_s") / values["cli.covered_s"]
    values["cli.cpu_util"] = statistics.median(cpu_util(r) for r in untraced)
    values["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
    )
    values["trace.missing_layers"] = sum(len(v) for v in missing.values())
    return values, {name: sorted(v) for name, v in missing.items()}


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# --- main ------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--corrupt", choices=CORRUPTIONS,
                        help="damage the first round's outputs (self-test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "semaug" / "cli.py").is_file():
        print(f"no semaug sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus as corpus_mod

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        corpus = corpus_mod.generate(work / "wavs", args.workload, args.seed,
                                     workload.utterances, workload.duration_s)
        bench = Bench(workload, args.seed, work, corpus)

        rounds: list[Round] = []
        setup: list[Spawned] = []
        deterministic = True
        measure_start = now = time.perf_counter()
        while True:
            round_start = now
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if not args.trace:
                setup.append(bench.setup_time())
            rnd = bench.run_round(traced)
            if args.corrupt and not rounds:
                corrupt(bench.out, args.corrupt)
            deterministic &= verify_round(bench, rnd, rounds[0] if rounds else None)
            rounds.append(rnd)
            now = time.perf_counter()
            if args.trace and len(rounds) < 2:
                continue
            # Start another round only if one as long as this one still
            # ends inside the measured window and the start deadline.
            if now - measure_start + (now - round_start) > args.seconds:
                break
            if now - process_start + (now - round_start) > START_DEADLINE_S:
                break

        expected = expected_outputs(args.workload, args.seed, args.tiny)
        if expected is not None and expected != rounds[0].digest:
            print(f"outputs_sha256 {rounds[0].digest} differs from {expected}, recorded for "
                  f"{args.workload} seed {args.seed} in {EXPECTED_OUTPUTS.name}: artifact "
                  "bytes changed", file=sys.stderr)
        attempted = sum(len(corpus.utterance_ids) * len(r.commands) for r in rounds)
        failed = sum(len(ids) for r in rounds for ids in r.failed.values())
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "utterances": workload.utterances,
            "duration_s": workload.duration_s,
            "workers": workload.workers,
            "audio_s": corpus.audio_s,
            "corpus_sha256": corpus.sha256,
            "outputs_sha256": rounds[0].digest,
            "outputs_match_expected": None if expected is None else expected == rounds[0].digest,
            "deterministic": deterministic,
            "rounds": len(rounds),
            "failed_frac": failed / attempted,
            "failed_by_command": {
                name: sum(len(r.failed.get(name, ())) for r in rounds)
                for name, _ in bench.commands()
            },
            "environment": environment(),
        }
        if args.trace:
            untraced = [r for r in rounds if not r.traced]
            values, missing = per_layer(untraced, [r for r in rounds if r.traced])
            units = PER_LAYER
            report["missing_layers"] = missing
            for name, layers in missing.items():
                print(f"trace: {name} entered no span of {', '.join(layers)}; that work ran "
                      "where the wrappers cannot see it", file=sys.stderr)
        else:
            values, timings = end_to_end(bench, rounds, setup, 1.0 - failed / attempted)
            units = END_TO_END
            report["timings"] = timings
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
