#!/usr/bin/env python3
"""Write a demo speech WAV plus a ready-to-run config for the CLI.

Usage: python scripts/make_demo_speech.py [out_dir]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from binaural_mwf import scene, wavio
from binaural_mwf.stft import StftConfig


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo")
    out.mkdir(parents=True, exist_ok=True)
    cfg = StftConfig()
    speech = scene.synthetic_speech(4.0, cfg.sample_rate, seed=7)
    wav_path = out / "speech.wav"
    wavio.write_wav(wav_path, speech, cfg.sample_rate)
    conf = out / "demo.conf"
    conf.write_text(
        f"""# demo scene: speech ahead, band-limited noise from the right
scene.speech_wav = {wav_path.resolve()}
scene.noise_azimuth = 60
scene.target_snr_worst_ear = 0

run.variants = mwf, mwf-itd, mwf-ic
run.alpha = 40            # or, in its place: run.calibrate = 0.15 (scripts/run_tradeoff.py)
run.seed = 1234
run.out_dir = {out.resolve() / 'out'}
"""
    )
    print(f"wrote {wav_path} and {conf}")
    print(f"run:  binaural-mwf process --config {conf}")


if __name__ == "__main__":
    main()
