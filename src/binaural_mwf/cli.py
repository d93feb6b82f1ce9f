"""Batch command-line front end.

Subcommands:

- ``process``:   synthesize the scene, solve every requested variant, write
                 enhanced WAVs, a metrics JSON and per-bin cue CSVs.
- ``sweep``:     one solve + metric row per (variant, weighting factor).
- ``calibrate``: weighting-factor calibration only, results as JSON.
- ``phase-pdf``: analytic vs Monte-Carlo density grid of the ratio phase.

Runs are configured by a flat key-value file with dotted section prefixes
(``scene.noise_azimuth = 60``); every key is validated against the schema
below and unknown or ill-typed keys abort with exit code 1 naming the key.
All randomness derives from one seed (``run.seed``, overridable with
``--seed``), so identical configurations produce byte-identical artifacts.

Exit codes: 0 success, 1 invalid configuration, 2 I/O failure, 3 solver
non-convergence on more than 10% of bins.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, solver, spatial_stats, wavio
from .costs import CostSpec, FilterPair, VARIANTS
from .errors import ConfigError, InvalidInputError
from .phase_model import RatioPhaseParams, phase_pdf, sample_ratio_phase
from .scene import ArrayGeometry, SceneSpec, synthesize_scene
from .seeding import derive_seed
from .stft import StftConfig, synthesize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NONCONVERGED = 3

_NONCONVERGED_LIMIT = 0.10


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text}")


def _parse_variants(text):
    names = [v.strip().lower() for v in text.split(",") if v.strip()]
    for name in names:
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}")
    if not names:
        raise ValueError("empty variant list")
    return names


def _parse_float_list(text):
    return [float(v.strip()) for v in text.split(",") if v.strip()]


# key -> (section attribute, parser)
CONFIG_SCHEMA = {
    "scene.speech_wav": ("speech_wav", str),
    "scene.speech_azimuth": ("speech_azimuth", float),
    "scene.noise_azimuth": ("noise_azimuth", float),
    "scene.speech_distance": ("speech_distance", float),
    "scene.noise_distance": ("noise_distance", float),
    "scene.target_snr_worst_ear": ("target_snr_worst_ear", float),
    "scene.noise_cutoff": ("noise_cutoff", float),
    "scene.sensor_noise_db": ("sensor_noise_db", float),
    "scene.reflection_gain_db": ("reflection_gain_db", float),
    "scene.speech_ir_wav": ("speech_ir_wav", str),
    "scene.noise_ir_wav": ("noise_ir_wav", str),
    "array.mics_per_ear": ("mics_per_ear", int),
    "array.intra_array_spacing": ("intra_array_spacing", float),
    "array.head_radius": ("head_radius", float),
    "array.sound_speed": ("sound_speed", float),
    "stft.fft_size": ("fft_size", int),
    "stft.window_len": ("window_len", int),
    "stft.hop": ("hop", int),
    "stft.sample_rate": ("sample_rate", float),
    "stft.window": ("window", str),
    "solver.max_iterations": ("max_iterations", int),
    "solver.gradient_tolerance": ("gradient_tolerance", float),
    "run.variants": ("variants", _parse_variants),
    "run.alpha": ("alpha", float),
    "run.alphas": ("alphas", _parse_float_list),
    "run.calibrate": ("calibrate", float),
    "run.cue_cutoff": ("cue_cutoff", float),
    "run.seed": ("seed", int),
    "run.out_dir": ("out_dir", str),
    "run.write_pcm16": ("write_pcm16", _parse_bool),
}


@dataclass
class RunConfig:
    """Validated run description assembled from the config file."""

    scene: SceneSpec
    geometry: ArrayGeometry
    stft: StftConfig
    solver: solver.SolverConfig
    speech_wav: str
    variants: list
    alpha: float | None
    alphas: list | None
    calibrate: float | None
    cue_cutoff: float
    seed: int
    out_dir: str
    write_pcm16: bool = False
    speech_ir_wav: str | None = None
    noise_ir_wav: str | None = None


def parse_config_file(path):
    """Flat key = value lines; '#' starts a comment; keys are validated."""
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value': {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(key, "unknown key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        _, parser = CONFIG_SCHEMA[key]
        try:
            raw[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from exc
    return raw


def _collect(raw, prefix):
    return {
        CONFIG_SCHEMA[k][0]: v for k, v in raw.items() if k.startswith(prefix + ".")
    }


def build_run_config(raw, seed_override=None, out_override=None) -> RunConfig:
    scene_kwargs = _collect(raw, "scene")
    speech_wav = scene_kwargs.pop("speech_wav", None)
    speech_ir = scene_kwargs.pop("speech_ir_wav", None)
    noise_ir = scene_kwargs.pop("noise_ir_wav", None)
    if speech_wav is None:
        raise ConfigError("scene.speech_wav", "required")
    run_kwargs = _collect(raw, "run")
    seed = run_kwargs.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    out_dir = out_override or run_kwargs.get("out_dir")
    if out_dir is None:
        raise ConfigError("run.out_dir", "required (or pass --out)")
    try:
        geometry = ArrayGeometry(**_collect(raw, "array"))
        stft_cfg = StftConfig(**_collect(raw, "stft"))
        scene_spec = SceneSpec(seed=derive_seed(seed, "scene"), **scene_kwargs)
        solver_cfg = solver.SolverConfig(**_collect(raw, "solver"))
    except InvalidInputError as exc:
        raise ConfigError("(scene/stft/solver)", str(exc)) from exc
    for label, candidate in (
        ("scene.speech_wav", speech_wav),
        ("scene.speech_ir_wav", speech_ir),
        ("scene.noise_ir_wav", noise_ir),
    ):
        if candidate is not None and not Path(candidate).is_file():
            raise ConfigError(label, f"file not found: {candidate}")
    return RunConfig(
        scene=scene_spec,
        geometry=geometry,
        stft=stft_cfg,
        solver=solver_cfg,
        speech_wav=speech_wav,
        variants=run_kwargs.get("variants", ["mwf"]),
        alpha=run_kwargs.get("alpha"),
        alphas=run_kwargs.get("alphas"),
        calibrate=run_kwargs.get("calibrate"),
        cue_cutoff=run_kwargs.get("cue_cutoff", spatial_stats.CUE_CUTOFF_HZ),
        seed=seed,
        out_dir=out_dir,
        write_pcm16=run_kwargs.get("write_pcm16", False),
        speech_ir_wav=speech_ir,
        noise_ir_wav=noise_ir,
    )


def _prepare(cfg: RunConfig):
    """(scene, selector, coherence of the mixture) of the configured run."""
    speech, _ = wavio.read_wav(cfg.speech_wav, expected_rate=cfg.stft.sample_rate)
    if speech.shape[0] != 1:
        raise InvalidInputError("scene.speech_wav must be mono")

    def load_ir(path):
        if path is None:
            return None
        ir, rate = wavio.read_wav(path, expected_rate=cfg.stft.sample_rate)
        if ir.shape[0] != cfg.geometry.total_mics:
            raise InvalidInputError(
                f"{path}: impulse response needs {cfg.geometry.total_mics} channels"
            )
        return ir

    scene = synthesize_scene(
        speech[0],
        cfg.scene,
        cfg.geometry,
        cfg.stft,
        speech_ir=load_ir(cfg.speech_ir_wav),
        noise_ir=load_ir(cfg.noise_ir_wav),
    )
    selector = spatial_stats.Selector.from_geometry(cfg.geometry)
    return scene, selector, spatial_stats.estimate_coherence(scene.y, scene.vad)


def _calibrate(cfg: RunConfig, variant, loss_fraction, scene, selector, phi):
    return solver.calibrate_alpha(
        CostSpec(variant, cue_cutoff=cfg.cue_cutoff),
        phi, selector, scene, cfg.solver, loss_fraction=loss_fraction,
    )


def _variant_alpha(cfg: RunConfig, variant, scene, selector, phi):
    """(alpha, calibration record or None) for one variant."""
    if variant == "mwf":
        return 0.0, None
    if cfg.calibrate is not None:
        cal = _calibrate(cfg, variant, cfg.calibrate, scene, selector, phi)
        if cal.warning:
            print(f"warning: {variant}: {cal.warning}", file=sys.stderr)
        return cal.alpha, cal
    if cfg.alpha is None:
        raise ConfigError("run.alpha", f"required for variant {variant} "
                          "(or set run.calibrate)")
    return cfg.alpha, None


def cmd_process(cfg: RunConfig):
    scene, selector, phi = _prepare(cfg)

    results = {}
    nonconv_fractions = []
    for variant in cfg.variants:
        alpha, cal = _variant_alpha(cfg, variant, scene, selector, phi)
        if cal is not None:  # calibration already solved at the chosen alpha
            solved, report = cal.solve, cal.report
        else:
            spec = CostSpec(variant, alpha, cue_cutoff=cfg.cue_cutoff)
            solved = solver.solve_all_bins(spec, phi, selector, cfg.solver)
            report = metrics.evaluate_filters(solved.filters, scene, selector,
                                              cue_cutoff=cfg.cue_cutoff)
        nonconv_fractions.append(solved.nonconverged_fraction)
        results[variant] = (alpha, cal, solved, report)

    snr_in = metrics.input_snr_db(scene, selector)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = {}
    extra = {
        "seed": cfg.seed,
        "worst_ear": scene.worst_ear,
        "input": {"snr_l": snr_in[0], "snr_r": snr_in[1]},
        "alphas": {},
    }
    cues_by_variant = {}
    identity = FilterPair.identity(selector, cfg.stft.bin_count)
    cues_by_variant["unprocessed"] = metrics.noise_cue_pair(
        identity, scene, selector, cfg.cue_cutoff)[1]
    for variant, (alpha, cal, solved, report) in results.items():
        reports[variant] = report
        meta = {"alpha": alpha, "nonconverged_fraction": solved.nonconverged_fraction}
        if cal is not None:
            meta["achieved_snr_loss"] = cal.achieved_loss
            meta["snr_mwf_db"] = cal.snr_mwf_db
            if cal.warning:
                meta["warning"] = cal.warning
        extra["alphas"][variant] = meta
        enhanced = metrics.apply_filters(solved.filters, scene.y)
        audio = synthesize(enhanced)
        encoding = "pcm16" if cfg.write_pcm16 else "float32"
        wavio.write_wav(out / f"enhanced_{variant}.wav", audio,
                        cfg.stft.sample_rate, encoding=encoding)
        _, cues_out = metrics.noise_cue_pair(solved.filters, scene, selector,
                                             cfg.cue_cutoff)
        cues_by_variant[variant] = cues_out
        spatial_stats.cues_to_csv(out / f"cues_{variant}.csv", cues_out)
    metrics.report_to_json(out / "metrics.json", reports, extra=extra)
    metrics.write_ic_spectrum_csv(out / "ic_spectrum.csv", cfg.stft.freqs,
                                  cues_by_variant)
    worst = max(nonconv_fractions) if nonconv_fractions else 0.0
    if worst > _NONCONVERGED_LIMIT:
        print(f"warning: {worst:.1%} of bins did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_sweep(cfg: RunConfig):
    if cfg.alphas is None or len(cfg.alphas) < 2:
        raise ConfigError("run.alphas", "sweep needs at least two alpha values")
    alphas = []
    for a in cfg.alphas:
        if a in alphas:
            print(f"warning: duplicate alpha {a} dropped", file=sys.stderr)
        else:
            alphas.append(a)
    if len(alphas) < 2:
        raise ConfigError("run.alphas", "fewer than two distinct alpha values")
    scene, selector, phi = _prepare(cfg)
    rows_by_variant = {}
    for variant in cfg.variants:
        spec = CostSpec(variant, cue_cutoff=cfg.cue_cutoff)
        rows_by_variant[variant] = solver.alpha_sweep(
            spec, phi, selector, scene, alphas, cfg.solver
        )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solver.write_sweep_csv(out / "sweep.csv", rows_by_variant)
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig):
    loss = cfg.calibrate if cfg.calibrate is not None else 0.15
    scene, selector, phi = _prepare(cfg)
    doc = {"seed": cfg.seed, "loss_fraction": loss, "variants": {}}
    for variant in cfg.variants:
        if variant == "mwf":
            continue
        cal = _calibrate(cfg, variant, loss, scene, selector, phi)
        doc["variants"][variant] = {
            "alpha": cal.alpha,
            "achieved_snr_loss": cal.achieved_loss,
            "snr_mwf_db": cal.snr_mwf_db,
            "snr_db": cal.snr_db,
            "warning": cal.warning,
        }
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    import json

    with open(out / "calibration.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def cmd_phase_pdf(args):
    if args.points < 1:
        raise InvalidInputError("--points must be at least 1")
    if not np.all(np.isfinite([args.rho_abs, args.rho_arg])):
        raise InvalidInputError("--rho-abs and --rho-arg must be finite")
    if abs(args.rho_abs) >= 1.0:
        raise InvalidInputError("|rho| must be < 1")
    params = RatioPhaseParams(rho=args.rho_abs * np.exp(1j * args.rho_arg))
    points = args.points
    edges = -np.pi + 2.0 * np.pi * np.arange(points + 1) / points
    centers = 0.5 * (edges[:-1] + edges[1:])
    grid = edges[1:]  # spans (-pi, pi] inclusive of pi
    analytic = phase_pdf(centers, params)
    samples = sample_ratio_phase(params, args.samples,
                                 derive_seed(args.seed, "phase-pdf"))
    counts, _ = np.histogram(samples, bins=edges)
    mc = counts / (args.samples * (2.0 * np.pi / points))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["theta,analytic_density,mc_density"]
    for theta, a, m in zip(grid, analytic, mc):
        lines.append(f"{float(theta)!r},{float(a)!r},{float(m)!r}")
    (out / "phase_pdf.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="binaural-mwf",
        description="Binaural noise reduction with interaural cue preservation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=None, help="output directory (overrides run.out_dir)")
        p.add_argument("--seed", type=int, default=None, help="overrides run.seed")

    add_config_flags(sub.add_parser("process", help="run the processing chain"))
    add_config_flags(sub.add_parser("sweep", help="weighting-factor sweep"))
    add_config_flags(sub.add_parser("calibrate", help="weighting-factor calibration"))

    pdf = sub.add_parser("phase-pdf", help="ratio-phase density grid")
    pdf.add_argument("--rho-abs", type=float, default=0.9)
    pdf.add_argument("--rho-arg", type=float, default=np.pi / 4,
                     help="angle of rho in radians")
    pdf.add_argument("--points", type=int, default=360)
    pdf.add_argument("--samples", type=int, default=10**6)
    pdf.add_argument("--out", required=True)
    pdf.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "phase-pdf":
            return cmd_phase_pdf(args)
        raw = parse_config_file(args.config)
        cfg = build_run_config(raw, seed_override=args.seed, out_override=args.out)
        if args.command == "process":
            return cmd_process(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_calibrate(cfg)
    except (InvalidInputError, FileNotFoundError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
