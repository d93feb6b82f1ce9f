"""Batch command-line front end.

Subcommands:

- ``process``:   synthesize the scene, solve every requested variant, write
                 enhanced WAVs, a metrics JSON and per-bin cue CSVs.
- ``sweep``:     one solve + metric row per (variant, weighting factor).
- ``calibrate``: weighting-factor calibration only, results as JSON.
- ``phase-pdf``: analytic vs Monte-Carlo density grid of the ratio phase.

Runs are configured by a flat key-value file with dotted section prefixes
(``scene.noise_azimuth = 60``); a key's suffix is the field it sets.  Every
key is validated against the schema below before any audio is read: an
unknown, repeated or ill-typed key, a repeated variant, an invalid ``run.*``
weighting value or a ``run.*`` key the command ignores (``run.alphas``
outside ``sweep``, ``run.alpha`` outside ``process``, ``run.calibrate`` in
``sweep``, both without a penalized variant) exits 1 naming the key, as do
``process`` with both ``run.alpha`` and ``run.calibrate`` and ``calibrate``
without a penalized variant; invalid ``array``, ``stft``, ``scene`` or
``solver`` values exit 1 naming the section.  All randomness derives from
one seed (``run.seed``, overridable with ``--seed``), so identical
configurations produce byte-identical artifacts, which ``wavio`` writes.

Exit codes: 0 success, 1 invalid configuration, 2 I/O failure, 3 solver
non-convergence on more than 10% of bins in any solve a command reports.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, solver, spatial_stats, wavio
from .costs import CostSpec, VARIANTS
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
    for i, name in enumerate(names):
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}")
        if name in names[:i]:
            raise ValueError(f"duplicate variant {name!r}")
    if not names:
        raise ValueError("empty variant list")
    return names


def _parse_float_list(text):
    return [float(v.strip()) for v in text.split(",") if v.strip()]


# key -> value parser; the key's suffix is the field it sets
CONFIG_SCHEMA = {
    "scene.speech_wav": str,
    "scene.speech_azimuth": float,
    "scene.noise_azimuth": float,
    "scene.speech_distance": float,
    "scene.noise_distance": float,
    "scene.target_snr_worst_ear": float,
    "scene.noise_cutoff": float,
    "scene.sensor_noise_db": float,
    "scene.reflection_gain_db": float,
    "scene.speech_ir_wav": str,
    "scene.noise_ir_wav": str,
    "array.mics_per_ear": int,
    "array.intra_array_spacing": float,
    "array.head_radius": float,
    "array.sound_speed": float,
    "stft.fft_size": int,
    "stft.window_len": int,
    "stft.hop": int,
    "stft.sample_rate": float,
    "stft.window": str,
    "solver.max_iterations": int,
    "solver.gradient_tolerance": float,
    "run.variants": _parse_variants,
    "run.alpha": float,
    "run.alphas": _parse_float_list,
    "run.calibrate": float,
    "run.cue_cutoff": float,
    "run.seed": int,
    "run.out_dir": str,
    "run.write_pcm16": _parse_bool,
}


@dataclass
class RunConfig:
    """Validated run description assembled from the config file.

    Each ``run.*`` key and scene file key sets the field of its name; the
    ``run.*`` defaults are here.
    """

    scene: SceneSpec
    geometry: ArrayGeometry
    stft: StftConfig
    solver: solver.SolverConfig
    speech_wav: str
    seed: int
    out_dir: str
    variants: list = field(default_factory=lambda: ["mwf"])
    alpha: float | None = None
    alphas: list | None = None
    calibrate: float | None = None
    cue_cutoff: float = spatial_stats.CUE_CUTOFF_HZ
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
        try:
            raw[key] = CONFIG_SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from exc
    return raw


def _collect(raw, prefix):
    """{field: value} of the keys in section ``prefix``."""
    return {
        k[len(prefix) + 1:]: v for k, v in raw.items() if k.startswith(prefix + ".")
    }


def _checked(name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; an invalid value is reported under ``name``."""
    try:
        return fn(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(name, str(exc)) from exc


def build_run_config(raw, seed_override=None, out_override=None) -> RunConfig:
    scene_kwargs = _collect(raw, "scene")
    # the scene's input files are RunConfig fields, not SceneSpec ones
    files = {name: scene_kwargs.pop(name, None)
             for name in ("speech_wav", "speech_ir_wav", "noise_ir_wav")}
    if files["speech_wav"] is None:
        raise ConfigError("scene.speech_wav", "required")
    run_kwargs = _collect(raw, "run")
    seed = run_kwargs.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    out_dir = out_override or run_kwargs.get("out_dir")
    if out_dir is None:
        raise ConfigError("run.out_dir", "required (or pass --out)")
    geometry = _checked("array", ArrayGeometry, **_collect(raw, "array"))
    stft_cfg = _checked("stft", StftConfig, **_collect(raw, "stft"))
    scene_spec = _checked("scene", SceneSpec, seed=derive_seed(seed, "scene"),
                          **scene_kwargs)
    solver_cfg = _checked("solver", solver.SolverConfig, **_collect(raw, "solver"))
    for key, rule, values in (
        ("run.alpha", lambda v: CostSpec(alpha=v), [run_kwargs.get("alpha")]),
        ("run.alphas", lambda v: CostSpec(alpha=v), run_kwargs.get("alphas", [])),
        ("run.cue_cutoff", lambda v: CostSpec(cue_cutoff=v), [run_kwargs.get("cue_cutoff")]),
        ("run.calibrate", solver.check_loss_fraction, [run_kwargs.get("calibrate")]),
    ):
        for value in values:
            if value is not None:
                _checked(key, rule, value)
    for name, candidate in files.items():
        if candidate is not None and not Path(candidate).is_file():
            raise ConfigError(f"scene.{name}", f"file not found: {candidate}")
    run_kwargs.update(seed=seed, out_dir=out_dir)
    return RunConfig(scene=scene_spec, geometry=geometry, stft=stft_cfg,
                     solver=solver_cfg, **files, **run_kwargs)


def _reject_unused(cfg: RunConfig, command, *names):
    """Exit 1 naming the first of the ``run.*`` fields ``names`` that is set:
    ``command`` would ignore it."""
    for name in names:
        if getattr(cfg, name) is not None:
            raise ConfigError(f"run.{name}", f"not used by {command}")


def _convergence_exit(fractions):
    """3, with a warning, if a solve's unconverged fraction of bins exceeds 10%, else 0."""
    worst = max(fractions)
    if worst > _NONCONVERGED_LIMIT:
        print(f"warning: {worst:.1%} of bins did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


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
    return scene, selector, spatial_stats.estimate_coherence((scene.x, scene.v), scene.vad)


def _calibrate(cfg: RunConfig, variant, loss_fraction, scene, selector, phi):
    return solver.calibrate_alpha(
        CostSpec(variant, cue_cutoff=cfg.cue_cutoff),
        phi, selector, scene, cfg.solver, loss_fraction=loss_fraction,
    )


def _solve_variant(cfg: RunConfig, variant, scene, selector, phi):
    """(alpha, calibration record or None, solve, report) of one variant."""
    if variant != "mwf" and cfg.calibrate is not None:
        cal = _calibrate(cfg, variant, cfg.calibrate, scene, selector, phi)
        if cal.warning:
            print(f"warning: {variant}: {cal.warning}", file=sys.stderr)
        # the calibration already solved at the chosen alpha
        return cal.alpha, cal, cal.solve, cal.report
    alpha = 0.0 if variant == "mwf" else cfg.alpha
    spec = CostSpec(variant, alpha, cue_cutoff=cfg.cue_cutoff)
    solved = solver.solve_all_bins(spec, phi, selector, cfg.solver)
    report = metrics.evaluate_filters(solved.filters, scene, selector,
                                      cue_cutoff=cfg.cue_cutoff)
    return alpha, None, solved, report


def cmd_process(cfg: RunConfig):
    _reject_unused(cfg, "process", "alphas")
    penalized = [v for v in cfg.variants if v != "mwf"]
    if not penalized:
        _reject_unused(cfg, "process without mwf-itd or mwf-ic", "alpha", "calibrate")
    elif cfg.alpha is None and cfg.calibrate is None:
        raise ConfigError("run.alpha", f"required for variant {penalized[0]} "
                          "(or set run.calibrate)")
    if cfg.alpha is not None and cfg.calibrate is not None:
        raise ConfigError("run.calibrate", "set run.alpha or run.calibrate, not both")
    scene, selector, phi = _prepare(cfg)

    results = {v: _solve_variant(cfg, v, scene, selector, phi) for v in cfg.variants}

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
    for variant, (alpha, cal, solved, report) in results.items():
        reports[variant] = report
        meta = {"alpha": alpha, "nonconverged_fraction": solved.nonconverged_fraction}
        if cal is not None:
            meta["achieved_snr_loss"] = cal.achieved_loss
            meta["snr_mwf_db"] = cal.snr_mwf_db
            if cal.warning:
                meta["warning"] = cal.warning
        extra["alphas"][variant] = meta
        # filtered one block of frames at a time as the synthesis reads it, so
        # the enhanced tensor never exists whole
        audio = synthesize(metrics.FilteredView(solved.filters, (scene.x, scene.v)))
        encoding = "pcm16" if cfg.write_pcm16 else "float32"
        wavio.write_wav(out / f"enhanced_{variant}.wav", audio,
                        cfg.stft.sample_rate, encoding=encoding)
        # the "unprocessed" column: the input cues, one object for every variant
        cues_in, cues_out = metrics.noise_cue_pair(solved.filters, scene, selector,
                                                   cfg.cue_cutoff)
        cues_by_variant[variant] = cues_out
        spatial_stats.cues_to_csv(out / f"cues_{variant}.csv", cues_out)
    metrics.report_to_json(out / "metrics.json", reports, extra=extra)
    metrics.write_ic_spectrum_csv(out / "ic_spectrum.csv", cfg.stft.freqs,
                                  {"unprocessed": cues_in, **cues_by_variant})
    return _convergence_exit(m["nonconverged_fraction"] for m in extra["alphas"].values())


def cmd_sweep(cfg: RunConfig):
    _reject_unused(cfg, "sweep", "alpha", "calibrate")
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
    return _convergence_exit(row["nonconverged_fraction"]
                             for rows in rows_by_variant.values() for row in rows)


def cmd_calibrate(cfg: RunConfig):
    penalized = [v for v in cfg.variants if v != "mwf"]
    if not penalized:
        raise ConfigError("run.variants", "calibrate needs mwf-itd or mwf-ic")
    _reject_unused(cfg, "calibrate", "alpha", "alphas")
    loss = solver.DEFAULT_LOSS_FRACTION if cfg.calibrate is None else cfg.calibrate
    scene, selector, phi = _prepare(cfg)
    doc = {"seed": cfg.seed, "loss_fraction": loss, "variants": {}}
    fractions = []
    for variant in penalized:
        cal = _calibrate(cfg, variant, loss, scene, selector, phi)
        fractions.append(cal.solve.nonconverged_fraction)
        doc["variants"][variant] = {
            "alpha": cal.alpha,
            "achieved_snr_loss": cal.achieved_loss,
            "snr_mwf_db": cal.snr_mwf_db,
            "snr_db": cal.snr_db,
            "warning": cal.warning,
        }
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wavio.write_json(out / "calibration.json", doc)
    return _convergence_exit(fractions)


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
    wavio.write_csv(out / "phase_pdf.csv", ["theta", "analytic_density", "mc_density"],
                    zip(grid, analytic, mc))
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
