"""Byte identity of canonical runs with recorded digests.

The ``process`` run is acceptance criterion 9's: S0N60, alpha 40, all three
variants, seed 1234, ``synthetic_speech(4.0, seed=7)``.  The other three
commands each write one artifact: a two-alpha mwf-ic ``sweep`` and an
mwf-ic ``calibrate`` at the default 15% loss, both on S0N30 with the same
speech and seed, and ``phase-pdf`` with 2e4 samples.  Each artifact's
SHA-256 is compared with the digest recorded for this platform, so a change
that moves one bit of any output fails here.  Floating-point results depend
on the numpy, scipy and BLAS builds and on the CPU, so the digests are keyed
on them and the test skips on any other platform.  To record a platform's
digests, run this file as a script with ``src`` on the path.
"""

import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from binaural_mwf import cli, scene, wavio
from binaural_mwf.stft import StftConfig

ARTIFACTS = (
    "metrics.json", "ic_spectrum.csv",
    "cues_mwf.csv", "cues_mwf-itd.csv", "cues_mwf-ic.csv",
    "enhanced_mwf.wav", "enhanced_mwf-itd.wav", "enhanced_mwf-ic.wav",
)

# platform key -> artifact -> SHA-256
DIGESTS = {
    ('numpy 2.4.6', 'scipy 1.17.1', 'scipy-openblas 0.3.31.188.0', 'Intel(R) Xeon(R) Processor'): {
        'metrics.json': 'bc7fe4d954b286fd00fe95299db1bcc7a6045b4bbf7d69623ea6ad3958997035',
        'ic_spectrum.csv': '297b306c89fc52c961b34811489346133cca580596dc5f54d7a21ceef5cc4cfc',
        'cues_mwf.csv': '2be01da1992a33d0413edbfff284b322c974dbebb4922b1577f9405f373bd7e4',
        'cues_mwf-itd.csv': 'd228d63ea2054798b1382f36e6ae27c182b4171babdc80c6e5b34e9af1f3c9de',
        'cues_mwf-ic.csv': '4e49329fb8147da6b0a19b08d8ea00364ca89384ed0c620abeb7143fa7697ab4',
        'enhanced_mwf.wav': 'cf3b0360939551953e7839f23ef60c2bcc18f843c9f705cabeb43d6beb21c95b',
        'enhanced_mwf-itd.wav': 'a5b8f6235fed861c5341b5bfd900c44bea9c92b8eccb9cfcd4dcfcd44dcfa545',
        'enhanced_mwf-ic.wav': 'a0ac21344bd92c836464ddc4a5f3a377661b41029e2c2167c706163d7a401170',
    },
}

# the sweep, calibrate and phase-pdf runs: platform key -> artifact -> SHA-256
COMMAND_DIGESTS = {
    ('numpy 2.4.6', 'scipy 1.17.1', 'scipy-openblas 0.3.31.188.0', 'Intel(R) Xeon(R) Processor'): {
        'sweep.csv': 'f1fa77c72064e430b7f5526b855bf1d550e997ea37ba35e862ed24257474c87b',
        'calibration.json': 'd0b2eee2ca5549edb224541728f37ad166a58ed3a5efe737911c7c46165cf605',
        'phase_pdf.csv': 'e49cabd4e590ea2e97d51066dabbc045bc002b19918cea53ca5a709026b21a6e',
    },
}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def platform_key():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}", f"scipy {scipy.__version__}",
            f"{blas.get('name')} {blas.get('version')}", cpu_model())


def write_config(tmp_path, lines):
    """Config of the canonical speech with ``lines`` appended; returns its path."""
    rate = StftConfig().sample_rate
    wav = tmp_path / "speech.wav"
    wavio.write_wav(wav, scene.synthetic_speech(4.0, rate, seed=7), rate)
    conf = tmp_path / "run.conf"
    conf.write_text(f"scene.speech_wav = {wav}\n" + lines)
    return str(conf)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(tmp_path):
    """Exit code and artifact digests of the canonical run in ``tmp_path``."""
    conf = write_config(tmp_path, (
        "scene.noise_azimuth = 60\n"
        "run.variants = mwf, mwf-itd, mwf-ic\n"
        "run.alpha = 40\n"
        "run.seed = 1234\n"
    ))
    out = tmp_path / "out"
    code = cli.main(["process", "--config", conf, "--out", str(out)])
    return code, {name: sha256(out / name) for name in ARTIFACTS}


S0N30_MWF_IC = "scene.noise_azimuth = 30\nrun.variants = mwf-ic\nrun.seed = 1234\n"

# command -> (its artifact, the config lines or None for phase-pdf)
COMMANDS = {
    "sweep": ("sweep.csv", S0N30_MWF_IC + "run.alphas = 1, 40\n"),
    "calibrate": ("calibration.json", S0N30_MWF_IC),
    "phase-pdf": ("phase_pdf.csv", None),
}


def command_digest(tmp_path, command):
    """Exit code and artifact digest of one ``COMMANDS`` run in ``tmp_path``."""
    artifact, lines = COMMANDS[command]
    out = tmp_path / "out"
    if lines is None:
        argv = [command, "--samples", "20000", "--out", str(out)]
    else:
        argv = [command, "--config", write_config(tmp_path, lines), "--out", str(out)]
    code = cli.main(argv)
    return code, sha256(out / artifact)


def test_canonical_run_matches_recorded_digests(tmp_path):
    key = platform_key()
    if key not in DIGESTS:
        pytest.skip(f"digests not comparable: none recorded for {key}")
    code, digests = run_digests(tmp_path)
    assert code == cli.EXIT_OK
    for name in ARTIFACTS:
        assert digests[name] == DIGESTS[key][name], f"{name} changed"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_artifact_matches_recorded_digest(tmp_path, command):
    key = platform_key()
    if key not in COMMAND_DIGESTS:
        pytest.skip(f"digests not comparable: none recorded for {key}")
    code, digest = command_digest(tmp_path, command)
    assert code == cli.EXIT_OK
    artifact = COMMANDS[command][0]
    assert digest == COMMAND_DIGESTS[key][artifact], f"{artifact} changed"


def print_entry(recorded):
    print(f"    {platform_key()!r}: {{")
    for name, digest in recorded.items():
        print(f"        {name!r}: {digest!r},")
    print("    },")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _, recorded = run_digests(Path(tmp))
    print("DIGESTS:")
    print_entry(recorded)
    recorded = {}
    for command, (artifact, _) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[artifact] = command_digest(Path(tmp), command)[1]
    print("COMMAND_DIGESTS:")
    print_entry(recorded)
