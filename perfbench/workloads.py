#!/usr/bin/env python3
"""Benchmark workloads and their input generation.

Each workload is one ``binaural-mwf process`` configuration.  All use the
canonical geometry (3 mics per ear), the default STFT and the canonical demo
speech, ``synthetic_speech(seed=7)``.  The workload seed is the config's
``run.seed``, from which the program derives the noise; the default, 1234,
gives the canonical demo inputs.  The optimizer's work moves less with the
noise than with the speech (see README.md).

Run as a script, this module is one benchmark set-up: a fresh process that
imports the CLI and writes the speech of one workload.

Usage: python3 perfbench/workloads.py OUT_DIR SPEECH_SECONDS
"""

import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SPEECH_SEED = 7
DEFAULT_SEED = 1234
INPUT_STRIDE = 100_000  # run.seed stride between the inputs of one workload seed


@dataclass(frozen=True)
class Workload:
    speech_seconds: float
    noise_azimuth: float
    variants: tuple
    run_line: str  # how the weighting factor is chosen
    inputs: int = 1  # noise realizations per workload seed

    def run_seeds(self, seed):
        """The run.seed of each input; the first is the workload seed itself."""
        return [seed + j * INPUT_STRIDE for j in range(self.inputs)]

    def config_text(self, speech_wav, seed):
        return (
            f"scene.speech_wav = {speech_wav}\n"
            f"scene.noise_azimuth = {self.noise_azimuth:g}\n"
            "scene.target_snr_worst_ear = 0\n"
            f"run.variants = {', '.join(self.variants)}\n"
            f"{self.run_line}\n"
            f"run.seed = {seed}\n"
        )


ALL_VARIANTS = ("mwf", "mwf-itd", "mwf-ic")

WORKLOADS = {
    # the documented demo (S0N60, fixed alpha): every layer runs once.  Its
    # work moves by an interquartile 15% with the noise (the count of bins
    # that run to the iteration limit), so a seed averages eight realizations.
    "fixed": Workload(4.0, 60.0, ALL_VARIANTS, "run.alpha = 40", inputs=8),
    # the paper's operating-point rule (S0N30, 15% worst-ear SNR loss)
    "calibrate": Workload(4.0, 30.0, ALL_VARIANTS, "run.calibrate = 0.15"),
    # closed form only, on tensors larger than the last-level cache
    "long-mwf": Workload(60.0, 30.0, ("mwf",), ""),
}


def write_speech(out_dir, seconds):
    """Write the workload speech as ``out_dir/speech.wav``; returns its path."""
    from binaural_mwf import scene, wavio
    from binaural_mwf.stft import StftConfig

    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    rate = StftConfig().sample_rate
    wav = out_dir / "speech.wav"
    wavio.write_wav(wav, scene.synthetic_speech(seconds, rate, seed=SPEECH_SEED), rate)
    return wav


def write_config(workload: Workload, wav, seed):
    """Write ``run<seed>.conf`` next to the speech WAV; returns its path."""
    conf = Path(wav).parent / f"run{seed}.conf"
    conf.write_text(workload.config_text(wav, seed))
    return conf


def main(argv):
    out_dir, seconds = argv
    sys.path.insert(0, str(SRC))
    import binaural_mwf.cli  # noqa: F401  (the import a CLI run pays)

    write_speech(out_dir, float(seconds))


if __name__ == "__main__":
    main(sys.argv[1:])
