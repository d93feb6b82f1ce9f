#!/usr/bin/env python3
"""Reproduce the noise-reduction vs cue-preservation trade-off tables.

Builds the two canonical scenes (speech ahead, noise at +30 and +60
degrees, worst-ear SNR 0 dB), calibrates the weighting factor of each
penalized variant for a maximum 15% worst-ear SNR loss against the plain
Wiener solution, and prints the objective-metric table per scene.

Usage: python scripts/run_tradeoff.py [--seed N] [--duration SECONDS]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from binaural_mwf import costs, metrics, scene, solver, spatial_stats, stft


def run_scene(azimuth, speech, cfg, geometry, selector):
    spec = scene.SceneSpec(noise_azimuth=azimuth, seed=11)
    sc = scene.synthesize_scene(speech, spec, geometry, cfg)
    phi = spatial_stats.estimate_coherence((sc.x, sc.v), sc.vad)
    rows = {}
    mwf = solver.solve_all_bins(costs.CostSpec("mwf"), phi, selector)
    rows["mwf"] = (0.0, None, metrics.evaluate_filters(mwf.filters, sc, selector))
    for variant in ("mwf-itd", "mwf-ic"):
        cal = solver.calibrate_alpha(costs.CostSpec(variant), phi, selector, sc)
        rows[variant] = (cal.alpha, cal, cal.report)
    return sc, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="speech synthesis seed")
    parser.add_argument("--duration", type=float, default=4.0)
    args = parser.parse_args()

    cfg = stft.StftConfig()
    geometry = scene.ArrayGeometry()
    selector = spatial_stats.Selector.from_geometry(geometry)
    speech = scene.synthetic_speech(args.duration, cfg.sample_rate, seed=args.seed)

    for azimuth in (30.0, 60.0):
        t0 = time.time()
        sc, rows = run_scene(azimuth, speech, cfg, geometry, selector)
        print(f"\n=== S0N{int(azimuth)} (worst ear: {sc.worst_ear}, "
              f"{time.time() - t0:.0f}s) ===")
        header = f"{'':10s} {'alpha':>9s} {'snr_l':>7s} {'snr_r':>7s} " \
                 f"{'disnr_l':>8s} {'disnr_r':>8s} {'ditd_s':>8s} {'ditd_n':>8s} " \
                 f"{'dmsc_s':>8s} {'dmsc_n':>8s} {'mean|IC|':>9s}"
        print(header)
        for variant, (alpha, cal, rep) in rows.items():
            mean_ic = float(np.nanmean(rep.ic_magnitude_spectrum))
            print(
                f"{variant:10s} {alpha:9.3g} {rep.snr_l:7.1f} {rep.snr_r:7.1f} "
                f"{rep.disnr_l:8.1f} {rep.disnr_r:8.1f} {rep.ditd_s:8.3f} "
                f"{rep.ditd_n:8.3f} {rep.dmsc_s:8.3f} {rep.dmsc_n:8.3f} "
                f"{mean_ic:9.3f}"
            )
            if cal is not None:
                note = f" (loss {cal.achieved_loss:.1%} of MWF worst-ear SNR"
                note += f", {cal.warning})" if cal.warning else ")"
                print(f"{'':10s}{note}")


if __name__ == "__main__":
    main()
