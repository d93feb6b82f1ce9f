#!/usr/bin/env python3
"""Closed-loop benchmark of ``binaural-mwf process`` runs.

One client, one run at a time, in one process: the CLI is called in-process
(``binaural_mwf.cli.main``), cycling through the workload's inputs until
``--seconds`` have passed, every input has run and the first has run twice.
BLAS is pinned to one thread before numpy is imported.  Every run is
checked: its exit code, the byte identity of its artifacts with an earlier
run of the same input and, where ``references.json`` has its ``run.seed``,
its alphas and metrics against the values recorded there.

Standard output ends with two JSON lines: the environment (Python, numpy,
scipy, BLAS, its thread setting, nproc, RAM, L3 size) and the result.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every run
of the seed's own input (see ``tracing.py``) and reports the per-layer
metrics of the median traced run.

Usage:
    python3 perfbench/run.py --workload fixed --seed 1234 --seconds 20 --trace 0
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import ROOT_SPAN, Tracer, per_call_overhead  # noqa: E402
from workloads import DEFAULT_SEED, SRC, WORKLOADS, write_config  # noqa: E402

ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Relative and absolute tolerance on recorded metrics: far above the 1e-10
# filter moves a solver rewrite may cause, far below any changed decision
# (adjacent calibration alphas differ by 7% or more).
RTOL, ATOL = 1e-6, 1e-9
REPORT_FIELDS = ("snr_l", "snr_r", "ditd_n", "dmsc_n")
CHECKED_FIELDS = ("alpha", "achieved_snr_loss") + REPORT_FIELDS
EXPECTED_EXITS = (0, 3)  # success, or a truthful non-convergence report


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "l3_bytes": l3,
    }


def set_up(work, name, seed):
    """Set up SETUP_REPEATS times in fresh processes; (median seconds, inputs)."""
    workload = WORKLOADS[name]
    times, wavs = [], []
    seconds = str(workload.speech_seconds)
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(out), seconds],
            cwd=ROOT, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        wavs.append((out / "speech.wav").read_bytes())
    if len(set(wavs)) != 1:
        raise SystemExit("set-up is not deterministic: speech WAVs differ")
    wav = work / "setup0" / "speech.wav"
    inputs = [Input(write_config(workload, wav, run_seed), load_reference(name, run_seed))
              for run_seed in workload.run_seeds(seed)]
    return statistics.median(times), inputs


def summarize(out_dir, exit_code):
    """The checked values of one run: exit code plus per-variant metrics."""
    doc = json.loads((out_dir / "metrics.json").read_text())
    variants = {}
    for name, report in doc["variants"].items():
        meta = doc["alphas"][name]
        fields = {"alpha": meta["alpha"], **{k: report[k] for k in REPORT_FIELDS}}
        if "achieved_snr_loss" in meta:
            fields["achieved_snr_loss"] = meta["achieved_snr_loss"]
        variants[name] = fields
    worst = max(meta["nonconverged_fraction"] for meta in doc["alphas"].values())
    return {"exit_code": exit_code, "variants": variants}, 1.0 - worst


def compare(summary, reference):
    """Differences of a run summary from its reference; empty when it matches."""
    problems = []
    if summary["exit_code"] != reference["exit_code"]:
        problems.append(f"exit code {summary['exit_code']} != {reference['exit_code']}")
    if set(summary["variants"]) != set(reference["variants"]):
        return problems + ["variant set differs"]
    for name, ref in reference["variants"].items():
        got = summary["variants"][name]
        for key in CHECKED_FIELDS:
            if (key in got) != (key in ref):
                problems.append(f"{name}.{key} present in only one of run and reference")
            elif key in ref and not math.isclose(got[key], ref[key],
                                                 rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"{name}.{key} = {got[key]!r}, reference {ref[key]!r}")
    return problems


def artifact_bytes(out_dir, variants):
    names = ["metrics.json", "ic_spectrum.csv"] + [f"cues_{v}.csv" for v in variants]
    return {name: (out_dir / name).read_bytes() for name in names}


class Input:
    """One config of a workload, its reference and its first run's artifacts."""

    def __init__(self, conf, reference):
        self.conf = conf
        self.reference = reference
        self.first_artifacts = None


class Runner:
    """Runs a workload's inputs in turn and checks every run."""

    def __init__(self, cli, inputs, work, variants):
        self.cli = cli
        self.inputs = inputs
        self.work = work
        self.variants = variants
        self.runs = []  # dicts: input, wall_s, exit_code, ok, converged_frac

    def run_once(self, tracer=None):
        index = len(self.runs) % len(self.inputs)
        out = self.work / f"out{len(self.runs)}"
        argv = ["process", "--config", str(self.inputs[index].conf), "--out", str(out)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                exit_code = self.cli.main(argv)
            else:
                exit_code = tracer.call(ROOT_SPAN, self.cli.main, argv)
        except Exception:  # a raising run is a failed run, not a crash
            traceback.print_exc()
            exit_code = None
        wall = time.perf_counter() - t0
        # a run whose artifacts cannot be read counts as converging nothing
        run = {"input": index, "wall_s": wall, "exit_code": exit_code, "ok": False,
               "converged_frac": 0.0}
        self.runs.append(run)
        problems = self.check(out, self.inputs[index], run)
        shutil.rmtree(out, ignore_errors=True)
        for problem in problems:
            print(f"run {len(self.runs) - 1}: {problem}", file=sys.stderr)
        run["ok"] = not problems
        return run

    def check(self, out, inp, run):
        exit_code = run["exit_code"]
        if exit_code not in EXPECTED_EXITS:
            return [f"exit code {exit_code}"]
        try:
            artifacts = artifact_bytes(out, self.variants)
            summary, run["converged_frac"] = summarize(out, exit_code)
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable artifacts: {exc!r}"]
        problems = []
        if inp.first_artifacts is None:
            inp.first_artifacts = artifacts
        for name, data in artifacts.items():
            if data != inp.first_artifacts[name]:
                problems.append(f"{name} differs from the first run of its input")
        for name, fields in summary["variants"].items():
            if not all(math.isfinite(v) for v in fields.values()):
                problems.append(f"{name}: non-finite metric {fields}")
        if inp.reference is not None:
            problems += compare(summary, inp.reference)
        return problems

    def min_runs(self):
        """Every input once, then the first again for the identity check."""
        return len(self.inputs) + 1

    def loop(self, seconds, tracer=None, on_run=None):
        """Run until ``seconds`` have passed and ``min_runs`` runs are done."""
        start = time.perf_counter()
        while len(self.runs) < self.min_runs() or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            run = self.run_once(tracer)
            if on_run is not None:
                on_run(run)

    def per_input(self, key):
        """Median of ``key`` over each input's runs, one value per input."""
        return [statistics.median(run[key] for run in self.runs if run["input"] == i)
                for i in range(len(self.inputs))]


def end_to_end(runner, setup_s):
    return {
        "setup_s": setup_s,
        "run_s": statistics.fmean(runner.per_input("wall_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": statistics.fmean(runner.per_input("converged_frac")),
    }


def per_layer(runner, seconds):
    """Trace every run; report the median run and check that counts repeat."""
    tracer = Tracer()
    traced = []  # (run wall seconds, metrics, counts, span calls)

    def keep(run):
        metrics, counts = tracer.snapshot()
        traced.append((run["wall_s"], metrics, counts, tracer.span_calls()))

    tracer.install()
    try:
        runner.loop(seconds, tracer, keep)
    finally:
        tracer.restore()
    repeats = all(t[2] == traced[0][2] for t in traced)
    if not repeats:
        print("trace counts differ between runs", file=sys.stderr)
    wall, metrics, _, span_calls = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics["trace.run_s"] = wall
    metrics["trace.overhead_frac"] = per_call_overhead() * span_calls / wall
    metrics["failed_frac"] = sum(
        run["exit_code"] != 0 or not run["ok"] for run in runner.runs) / len(runner.runs)
    return metrics, repeats


def load_reference(workload_name, run_seed):
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    return table.get(workload_name, {}).get(str(run_seed))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"run.seed (the noise); {DEFAULT_SEED} gives the canonical inputs")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text())
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setup_s, inputs = set_up(work, args.workload, args.seed)
        sys.path.insert(0, str(SRC))
        from binaural_mwf import cli

        variants = WORKLOADS[args.workload].variants
        if args.trace:
            # the per-layer breakdown is of the seed's own input
            runner = Runner(cli, inputs[:1], work, variants)
            metrics, repeats = per_layer(runner, args.seconds)
        else:
            runner = Runner(cli, inputs, work, variants)
            runner.loop(args.seconds)
            metrics, repeats = end_to_end(runner, setup_s), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not run["ok"] for run in runner.runs)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": failed == 0 and repeats,
        "attempted": len(runner.runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
