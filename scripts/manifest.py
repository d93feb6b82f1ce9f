#!/usr/bin/env python3
"""Byte-identity manifest of the canonical runs.

Runs ``binaural_mwf.cli.main`` in-process on a fixed set of inputs and
prints one sorted line per artifact (its SHA-256), per exit code and per
stderr digest.  The package is imported from the path and the inputs are
this script's, so one copy of the script compares two trees:

    PYTHONPATH=src python scripts/manifest.py > change.txt
    PYTHONPATH=../base/src python scripts/manifest.py > base.txt
    diff base.txt change.txt

The inputs:

- the 20 ``process`` inputs of the benchmark workloads ``fixed`` (8 noise
  seeds), ``calibrate`` and ``long-mwf`` at workload seeds 1234 and 3, with
  the configs and speech of ``perfbench/workloads.py``;
- the ``calibrate`` command on the ``calibrate`` workload config at both
  seeds;
- the four runs of ``tests/test_digests.py`` (``process``, ``sweep``,
  ``calibrate`` and ``phase-pdf``);
- a 2-bin, 2-microphone ``process`` config (the ``long-mwf`` scene on 4 s
  of speech), with and without ``run.cue_cutoff = 8000``.

Both modules are loaded by path without writing bytecode (the second
imports pytest).  In stderr the temporary directory is replaced by a fixed
token; Python warnings are ignored, since their text names source files
and lines.  The whole set takes about a minute and peaks at about 530 MB
resident (``long-mwf``'s 60 s scene).
"""

import contextlib
import hashlib
import io
import shutil
import tempfile
import types
import warnings
from pathlib import Path

from binaural_mwf import cli

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1234, 3)
TWO_BINS = "array.mics_per_ear = 1\nstft.fft_size = 2\nstft.window_len = 2\nstft.hop = 1\n"


def load(path):
    """The module at ``path``, executed without writing bytecode."""
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def config_run(command, text):
    """A run of ``command`` on the config ``text``, writing to ``work/out``."""
    def run(work):
        conf = work / "run.conf"
        conf.write_text(text)
        return cli.main([command, "--config", str(conf), "--out", str(work / "out")])
    return run


def inputs(tmp):
    """(name, run) of every input; ``run(work)`` returns the exit code and
    leaves the artifacts in ``work/out``."""
    workloads = load(ROOT / "perfbench" / "workloads.py")
    digests = load(ROOT / "tests" / "test_digests.py")
    speech = {s: workloads.write_speech(tmp / f"speech{s:g}", s) for s in (4.0, 60.0)}
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for run_seed in workload.run_seeds(seed):
                text = workload.config_text(speech[workload.speech_seconds], run_seed)
                yield f"process:{name}:{run_seed}", config_run("process", text)
    for seed in SEEDS:
        text = workloads.WORKLOADS["calibrate"].config_text(speech[4.0], seed)
        yield f"calibrate:calibrate:{seed}", config_run("calibrate", text)
    yield "digests:process", lambda work: digests.run_digests(work)[0]
    for command in digests.COMMANDS:
        yield f"digests:{command}", lambda work, c=command: digests.command_digest(work, c)[0]
    text = workloads.WORKLOADS["long-mwf"].config_text(speech[4.0], SEEDS[0]) + TWO_BINS
    yield "process:two-bins", config_run("process", text)
    yield "process:two-bins-cue-8000", config_run("process", text + "run.cue_cutoff = 8000\n")


def entries(name, run, tmp):
    """Manifest lines of one input, run in a directory of its own."""
    work = tmp / name.replace(":", "-")
    work.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(work)
    yield f"{name} exit {code}"
    yield f"{name} stderr {sha256(err.getvalue().replace(str(tmp), '<tmp>').encode())}"
    out = work / "out"
    for path in sorted(out.rglob("*")):
        if path.is_file():
            yield f"{name} {path.relative_to(out).as_posix()} {sha256(path.read_bytes())}"
    shutil.rmtree(work)


def main():
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        lines = [line for input_name, run in inputs(tmp)
                 for line in entries(input_name, run, tmp)]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
