"""Byte identity of one canonical ``process`` run with recorded digests.

The run is acceptance criterion 9's: S0N60, alpha 40, all three variants,
seed 1234, ``synthetic_speech(4.0, seed=7)``.  Each artifact's SHA-256 is
compared with the digest recorded for this platform, so a change that moves
one bit of any output fails here.  Floating-point results depend on the
numpy, scipy and BLAS builds and on the CPU, so the digests are keyed on
them and the test skips on any other platform.  To record a platform's
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


def run_digests(tmp_path):
    """Exit code and artifact digests of the canonical run in ``tmp_path``."""
    rate = StftConfig().sample_rate
    wav = tmp_path / "speech.wav"
    wavio.write_wav(wav, scene.synthetic_speech(4.0, rate, seed=7), rate)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"scene.speech_wav = {wav}\n"
        "scene.noise_azimuth = 60\n"
        "run.variants = mwf, mwf-itd, mwf-ic\n"
        "run.alpha = 40\n"
        "run.seed = 1234\n"
    )
    out = tmp_path / "out"
    code = cli.main(["process", "--config", str(conf), "--out", str(out)])
    return code, {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ARTIFACTS}


def test_canonical_run_matches_recorded_digests(tmp_path):
    key = platform_key()
    if key not in DIGESTS:
        pytest.skip(f"digests not comparable: none recorded for {key}")
    code, digests = run_digests(tmp_path)
    assert code == cli.EXIT_OK
    for name in ARTIFACTS:
        assert digests[name] == DIGESTS[key][name], f"{name} changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _, recorded = run_digests(Path(tmp))
    print(f"    {platform_key()!r}: {{")
    for name, digest in recorded.items():
        print(f"        {name!r}: {digest!r},")
    print("    },")
