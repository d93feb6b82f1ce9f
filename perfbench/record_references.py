#!/usr/bin/env python3
"""Record the reference outcome of one workload at the given seeds.

Runs each input of each seed once and stores its exit code and per-variant
alphas and metrics in ``references.json``, which ``run.py`` checks every run
against.  Record from the commit whose behaviour is the reference, never
from a change under test.

Usage: python3 perfbench/record_references.py WORKLOAD SEED [SEED ...]
"""

import json
import shutil
import sys

from run import REFERENCES, WORK_ROOT, summarize
from workloads import SRC, WORKLOADS, write_config, write_speech

sys.path.insert(0, str(SRC))

from binaural_mwf import cli  # noqa: E402


def main(name, seeds):
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    workload = WORKLOADS[name]
    work = WORK_ROOT / "record"
    wav = write_speech(work, workload.speech_seconds)
    for run_seed in [r for seed in seeds for r in workload.run_seeds(seed)]:
        conf = write_config(workload, wav, run_seed)
        exit_code = cli.main(["process", "--config", str(conf),
                              "--out", str(work / "out")])
        summary, _ = summarize(work / "out", exit_code)
        table.setdefault(name, {})[str(run_seed)] = summary
        print(name, run_seed, exit_code, flush=True)
    shutil.rmtree(work)
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], [int(s) for s in sys.argv[2:]])
