import json
import re
from pathlib import Path

import numpy as np
import pytest

from binaural_mwf import cli, scene, wavio
from binaural_mwf.solver import SolverConfig
from binaural_mwf.stft import StftConfig

EXAMPLE_CONF = Path(__file__).resolve().parents[1] / "configs" / "example.conf"


@pytest.fixture(scope="module")
def speech_wav(tmp_path_factory):
    cfg = StftConfig()
    path = tmp_path_factory.mktemp("audio") / "speech.wav"
    wavio.write_wav(
        path, scene.synthetic_speech(2.5, cfg.sample_rate, seed=7), cfg.sample_rate
    )
    return path


@pytest.fixture
def no_scene(monkeypatch):
    """Fail any run that reaches scene synthesis."""

    def fail(*args, **kwargs):
        raise AssertionError("scene synthesized before the config was checked")

    monkeypatch.setattr(cli, "synthesize_scene", fail)


def assert_rejected(tmp_path, speech_wav, capsys, command, extra, key):
    """``command`` exits 1 naming ``key`` and writes nothing; returns stderr."""
    out = tmp_path / "out"
    conf = write_config(tmp_path / "c.conf", speech_wav, out, extra=extra)
    assert cli.main([command, "--config", str(conf)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert not out.exists()
    return err


def write_config(path, speech_wav, out_dir, extra=""):
    path.write_text(
        f"""
# test scene
scene.speech_wav = {speech_wav}
scene.noise_azimuth = 30
run.seed = 42
run.out_dir = {out_dir}
{extra}
"""
    )
    return path


class TestConfigParsing:
    def test_unknown_key_names_offender(self, tmp_path, speech_wav, capsys):
        conf = write_config(tmp_path / "c.conf", speech_wav, tmp_path / "out",
                            extra="scene.bogus_key = 3")
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG
        assert "scene.bogus_key" in capsys.readouterr().err

    def test_missing_speech_file_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", tmp_path / "missing.wav", out)
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG
        assert "scene.speech_wav" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_type(self, tmp_path, speech_wav, capsys):
        conf = write_config(tmp_path / "c.conf", speech_wav, tmp_path / "out",
                            extra="stft.fft_size = many")
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG
        assert "stft.fft_size" in capsys.readouterr().err

    def test_penalized_variant_needs_alpha(self, tmp_path, speech_wav, capsys,
                                           no_scene):
        assert_rejected(tmp_path, speech_wav, capsys, "process",
                        "run.variants = mwf, mwf-itd", "run.alpha")

    # every weighting value is checked before the scene is synthesized
    @pytest.mark.parametrize("command, line, key", [
        pytest.param("process", "run.alpha = nan", "run.alpha", id="run.alpha = nan"),
        pytest.param("process", "run.alpha = inf", "run.alpha", id="run.alpha = inf"),
        pytest.param("process", "run.calibrate = nan", "run.calibrate",
                     id="run.calibrate = nan"),
        pytest.param("process", "run.alpha = 1\nrun.cue_cutoff = nan", "run.cue_cutoff",
                     id="run.cue_cutoff = nan"),
        pytest.param("process", "run.alpha = 1\nrun.cue_cutoff = -5", "run.cue_cutoff",
                     id="run.cue_cutoff = -5"),
        pytest.param("sweep", "run.alphas = 1, nan", "run.alphas",
                     id="sweep run.alphas = 1, nan"),
    ])
    def test_non_finite_weighting_rejected(self, tmp_path, speech_wav, capsys,
                                           no_scene, command, line, key):
        err = assert_rejected(tmp_path, speech_wav, capsys, command,
                              f"run.variants = mwf-itd, mwf-ic\n{line}", key)
        assert "must be finite" in err

    @pytest.mark.parametrize("command, line, key", [
        pytest.param("process", "run.alpha = -1", "run.alpha", id="run.alpha = -1"),
        pytest.param("sweep", "run.alphas = 1, -1", "run.alphas",
                     id="sweep run.alphas = 1, -1"),
        pytest.param("calibrate", "run.cue_cutoff = -5", "run.cue_cutoff",
                     id="calibrate run.cue_cutoff = -5"),
    ])
    def test_negative_weighting_rejected(self, tmp_path, speech_wav, capsys,
                                         no_scene, command, line, key):
        assert_rejected(tmp_path, speech_wav, capsys, command,
                        f"run.variants = mwf-itd, mwf-ic\n{line}", key)

    # rejected before any audio is read; a section's values are checked
    # together, so an error there names the section
    @pytest.mark.parametrize("command, line, key", [
        ("process", "array.mics_per_ear = 0", "array"),
        ("process", "stft.hop = 48", "stft"),
        ("process", "solver.max_iterations = 0", "solver"),
        ("process", "scene.noise_distance = -1", "scene"),
        ("process", "run.variants = mwf-ic, mwf-ic\nrun.alpha = 40", "run.variants"),
        ("process", "run.variants = mwf-ic\nrun.alpha = 40\nrun.calibrate = 0.15",
         "run.calibrate"),
        ("calibrate", "run.variants = mwf", "run.variants"),
        ("calibrate", "run.variants = mwf-ic\nrun.alpha = 40", "run.alpha"),
        ("sweep", "run.alphas = 1, 40\nrun.alpha = 40", "run.alpha"),
        ("sweep", "run.alphas = 1, 40\nrun.calibrate = 0.05", "run.calibrate"),
        ("process", "run.variants = mwf\nrun.alphas = 1, 10", "run.alphas"),
        ("calibrate", "run.variants = mwf-ic\nrun.alphas = 1, 10", "run.alphas"),
        ("process", "run.variants = mwf\nrun.alpha = 40", "run.alpha"),
        ("process", "run.variants = mwf\nrun.calibrate = 0.15", "run.calibrate"),
    ], ids=["array", "stft", "solver", "scene", "duplicate variant", "alpha and calibrate",
            "calibrate without penalized variant", "calibrate with alpha",
            "sweep with alpha", "sweep with calibrate", "process with alphas",
            "calibrate with alphas", "mwf-only process with alpha",
            "mwf-only process with calibrate"])
    def test_invalid_value_names_key_or_section(self, tmp_path, speech_wav, capsys,
                                                no_scene, command, line, key):
        assert_rejected(tmp_path, speech_wav, capsys, command, line, key)

    # a NaN or an infinity is rejected with its section before any audio is
    # read; unchecked, these fail in an eigendecomposition, silently switch
    # a term off or drop the noise.  The documented infinities stay valid
    # (test_scene.py).
    @pytest.mark.parametrize("line", [
        "solver.gradient_tolerance = inf",
        "solver.gradient_tolerance = nan",
        "scene.speech_azimuth = nan",
        "scene.noise_azimuth = nan",
        "scene.noise_cutoff = nan",
        "scene.noise_cutoff = inf",
        "scene.speech_distance = nan",
        "scene.noise_distance = inf",
        "scene.target_snr_worst_ear = nan",
        "scene.target_snr_worst_ear = -inf",
        "scene.sensor_noise_db = nan",
        "scene.sensor_noise_db = inf",
        "scene.reflection_gain_db = nan",
        "scene.reflection_gain_db = inf",
        "array.sound_speed = inf",
        "array.head_radius = nan",
        "array.intra_array_spacing = inf",
        "stft.sample_rate = inf",
        "stft.sample_rate = nan",
    ])
    def test_non_finite_value_names_section(self, tmp_path, speech_wav, capsys,
                                            no_scene, line):
        section, name = line.split("=")[0].strip().split(".")
        out = tmp_path / "out"
        # no other scene line, so any scene key can be the one under test
        conf = tmp_path / "c.conf"
        conf.write_text(f"scene.speech_wav = {speech_wav}\nrun.out_dir = {out}\n"
                        f"run.variants = mwf, mwf-ic\nrun.alpha = 40\n{line}\n")
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{section}'" in err and name in err
        assert not out.exists()

    def test_noise_ir_channel_count_checked(self, tmp_path, speech_wav, capsys):
        ir_wav = tmp_path / "noise_ir.wav"
        wavio.write_wav(ir_wav, np.eye(2, 16), StftConfig().sample_rate)
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out,
                            extra=f"scene.noise_ir_wav = {ir_wav}")
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG
        assert str(ir_wav) in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    # an all-zero noise response, or a level the noise gain cannot reach
    @pytest.mark.parametrize("setting", ["noise_ir_wav", "target_snr_worst_ear"])
    def test_unscalable_noise_rejected(self, tmp_path, speech_wav, capsys, setting):
        ir_wav = tmp_path / "noise_ir.wav"
        wavio.write_wav(ir_wav, np.zeros((6, 16)), StftConfig().sample_rate)
        value, cause = {"noise_ir_wav": (ir_wav, "noise is silent"),
                        "target_snr_worst_ear": (-10000, "gain overflows")}[setting]
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out,
                            extra=f"scene.{setting} = {value}")
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and cause in err
        assert not (out / "metrics.json").exists()

    def test_noise_ir_sample_rate_checked(self, tmp_path, speech_wav, capsys,
                                          no_scene):
        # a 6-channel pure delay at 48 kHz; nothing is resampled
        ir_wav = tmp_path / "noise_ir.wav"
        wavio.write_wav(ir_wav, np.eye(6, 16, k=1), 48000)
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out,
                            extra=f"scene.noise_ir_wav = {ir_wav}")
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(ir_wav) in err and "48000" in err
        assert not out.exists()

    # unchecked, a NaN noise IR fails in an eigendecomposition and an
    # infinite speech sample reads as an unusable scene
    @pytest.mark.parametrize("which", ["noise_ir", "speech"])
    def test_non_finite_wav_rejected(self, tmp_path, speech_wav, capsys, which):
        bad_wav = tmp_path / f"{which}.wav"
        if which == "noise_ir":
            audio, speech, extra = np.eye(6, 16, k=1), speech_wav, f"scene.noise_ir_wav = {bad_wav}"
            audio[3, 5] = np.nan
        else:
            audio, speech, extra = wavio.read_wav(speech_wav, 16000)[0], bad_wav, ""
            audio[1000] = np.inf
        wavio.write_wav(bad_wav, audio, StftConfig().sample_rate)
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech, out, extra=extra)
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad_wav) in err and "non-finite" in err
        assert not (out / "metrics.json").exists()

    def test_duplicate_key_rejected(self, tmp_path, speech_wav, capsys):
        conf = write_config(tmp_path / "c.conf", speech_wav, tmp_path / "out",
                            extra="run.seed = 43")
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG
        assert "run.seed" in capsys.readouterr().err


class TestExampleConfig:
    def test_documents_every_key_with_its_default(self):
        # commented-out keys count: the file lists each schema key once
        text = EXAMPLE_CONF.read_text()
        keys = re.findall(r"^#?\s*([a-z0-9_]+\.[a-z0-9_]+)\s*=", text, re.MULTILINE)
        assert sorted(keys) == sorted(cli.CONFIG_SCHEMA)
        raw = cli.parse_config_file(EXAMPLE_CONF)
        scene_kwargs = cli._collect(raw, "scene")
        scene_kwargs.pop("speech_wav")
        assert scene.SceneSpec(**scene_kwargs) == scene.SceneSpec()
        assert scene.ArrayGeometry(**cli._collect(raw, "array")) == scene.ArrayGeometry()
        assert StftConfig(**cli._collect(raw, "stft")) == StftConfig()
        assert SolverConfig(**cli._collect(raw, "solver")) == SolverConfig()


class TestProcess:
    def test_minimal_mwf_run_writes_artifacts(self, tmp_path, speech_wav):
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out)
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_OK
        assert (out / "enhanced_mwf.wav").is_file()
        assert (out / "cues_mwf.csv").is_file()
        assert (out / "ic_spectrum.csv").is_file()
        doc = json.loads((out / "metrics.json").read_text())
        assert "mwf" in doc["variants"]
        assert doc["worst_ear"] == "right"
        assert doc["input"]["snr_r"] == pytest.approx(0.0, abs=0.1)

    def test_metrics_json_is_standard_json_without_noise(self, tmp_path, speech_wav):
        # no noise: the SNRs are infinite and the noise cue errors undefined
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out,
                            extra="scene.target_snr_worst_ear = inf")
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_OK

        def reject(token):
            raise ValueError(f"{token} is not standard JSON")

        doc = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
        assert doc["input"]["snr_l"] is None
        assert doc["variants"]["mwf"]["ditd_n"] is None

    def test_enhanced_audio_is_stereo_and_rate_matched(self, tmp_path, speech_wav):
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out)
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_OK
        # a rate other than 16 kHz fails the read
        audio = wavio.read_wav(out / "enhanced_mwf.wav", 16000)
        assert audio.shape[0] == 2

    def test_seed_flag_overrides_config(self, tmp_path, speech_wav):
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out)
        assert cli.main(["process", "--config", str(conf), "--seed", "7"]) == cli.EXIT_OK
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["seed"] == 7

    def test_nonconvergence_exit_code(self, tmp_path, speech_wav, capsys):
        # an unreachable gradient tolerance leaves every penalized bin
        # unconverged, which must be surfaced as exit code 3
        out = tmp_path / "out"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out,
            extra="run.variants = mwf-itd\nrun.alpha = 1e5\n"
                  "solver.gradient_tolerance = 1e-15",
        )
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_NONCONVERGED
        assert (out / "metrics.json").is_file()  # diagnostics still written
        assert "did not converge" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, speech_wav):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        conf = write_config(tmp_path / "c.conf", speech_wav, out_a,
                            extra="run.variants = mwf, mwf-ic\nrun.alpha = 40")
        assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_OK
        assert cli.main(["process", "--config", str(conf), "--out", str(out_b)]) == cli.EXIT_OK
        for name in ("metrics.json", "cues_mwf.csv", "cues_mwf-ic.csv", "ic_spectrum.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweep:
    def test_rows_and_monotonicity(self, tmp_path, speech_wav):
        out = tmp_path / "out"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out,
            extra="run.variants = mwf-ic\nrun.alphas = 0, 0.4, 0.8, 0.8",
        )
        rc = cli.main(["sweep", "--config", str(conf)])
        assert rc == cli.EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "variant"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3  # duplicate alpha dropped
        snr_r = [float(r[3]) for r in rows]
        for a, b in zip(snr_r, snr_r[1:]):
            assert b <= a + 0.5

    def test_fewer_than_two_alphas_rejected(self, tmp_path, speech_wav, capsys):
        conf = write_config(tmp_path / "c.conf", speech_wav, tmp_path / "out",
                            extra="run.alphas = 1.0")
        rc = cli.main(["sweep", "--config", str(conf)])
        assert rc == cli.EXIT_CONFIG
        assert "run.alphas" in capsys.readouterr().err

    def test_sweep_deterministic(self, tmp_path, speech_wav):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out_a,
            extra="run.variants = mwf-ic\nrun.alphas = 0, 1.0",
        )
        assert cli.main(["sweep", "--config", str(conf)]) == cli.EXIT_OK
        assert cli.main(["sweep", "--config", str(conf), "--out", str(out_b)]) == cli.EXIT_OK
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_nonconvergence_exit_code(self, tmp_path, speech_wav, capsys):
        # one iteration leaves the large-alpha solve's penalized bins
        # unconverged: exit 3, as process does, with sweep.csv still written
        out = tmp_path / "out"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out,
            extra="run.variants = mwf-ic\nrun.alphas = 1, 1e5\nsolver.max_iterations = 1",
        )
        assert cli.main(["sweep", "--config", str(conf)]) == cli.EXIT_NONCONVERGED
        assert "did not converge" in capsys.readouterr().err
        assert (out / "sweep.csv").is_file()


class TestPhasePdf:
    def test_uniform_rho_analytic_column(self, tmp_path):
        out = tmp_path / "pdf"
        rc = cli.main([
            "phase-pdf", "--rho-abs", "0", "--out", str(out),
            "--samples", "200000", "--seed", "5",
        ])
        assert rc == cli.EXIT_OK
        lines = (out / "phase_pdf.csv").read_text().strip().split("\n")
        assert lines[0] == "theta,analytic_density,mc_density"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape[0] == 360
        np.testing.assert_allclose(rows[:, 1], 1.0 / (2 * np.pi), atol=1e-12)
        # grid spans (-pi, pi] inclusive of pi
        assert rows[-1, 0] == pytest.approx(np.pi)
        assert rows[0, 0] > -np.pi

    def test_monte_carlo_tracks_analytic(self, tmp_path):
        out = tmp_path / "pdf"
        n = 10**6
        rc = cli.main([
            "phase-pdf", "--rho-abs", "0.5", "--rho-arg", "0.785398",
            "--out", str(out), "--samples", str(n), "--seed", "11",
        ])
        assert rc == cli.EXIT_OK
        lines = (out / "phase_pdf.csv").read_text().strip().split("\n")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        width = 2 * np.pi / 360
        p = rows[:, 1] * width
        se = np.sqrt(p * (1 - p) / n) / width
        # bin-center analytic vs binned MC: allow 3 sigma plus curvature slack
        assert np.all(np.abs(rows[:, 2] - rows[:, 1]) < 3.0 * se + 1e-3)

    @pytest.mark.parametrize("args", [
        ["--rho-abs", "1.0"],
        ["--points", "0"],
        ["--points", "-3"],
        ["--rho-abs", "nan"],
        ["--rho-arg", "nan"],
    ], ids=["rho_abs_1", "points_0", "points_neg3", "rho_abs_nan", "rho_arg_nan"])
    def test_invalid_arguments_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "pdf"
        rc = cli.main(["phase-pdf", *args, "--samples", "1000", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not (out / "phase_pdf.csv").exists()


class TestCalibratedProcess:
    def test_report_records_alpha_and_loss_window(self, tmp_path, speech_wav):
        out = tmp_path / "out"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out,
            extra="run.variants = mwf-ic\nrun.calibrate = 0.15",
        )
        rc = cli.main(["process", "--config", str(conf)])
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "metrics.json").read_text())
        meta = doc["alphas"]["mwf-ic"]
        assert meta["alpha"] > 0
        assert 0.13 <= meta["achieved_snr_loss"] <= 0.15


class TestCalibrateCommand:
    def test_calibration_json(self, tmp_path, speech_wav):
        out = tmp_path / "out"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out,
            extra="run.variants = mwf-ic\nrun.calibrate = 0.15",
        )
        rc = cli.main(["calibrate", "--config", str(conf)])
        assert rc == cli.EXIT_OK
        doc = json.loads((out / "calibration.json").read_text())
        rec = doc["variants"]["mwf-ic"]
        assert rec["alpha"] > 0
        assert rec["achieved_snr_loss"] <= 0.15 + 1e-9

    def test_nonconvergence_exit_code(self, tmp_path, speech_wav, capsys):
        # one iteration leaves the chosen solve's penalized bins unconverged:
        # exit 3, as process does, with the calibration still written
        out = tmp_path / "out"
        conf = write_config(tmp_path / "c.conf", speech_wav, out,
                            extra="run.variants = mwf-ic\nsolver.max_iterations = 1")
        assert cli.main(["calibrate", "--config", str(conf)]) == cli.EXIT_NONCONVERGED
        assert "did not converge" in capsys.readouterr().err
        assert (out / "calibration.json").is_file()

    def test_infinite_reference_snr_rejected(self, tmp_path, speech_wav, capsys):
        # no noise: the reference SNR is infinite, so no fractional loss of
        # it can be expressed
        out = tmp_path / "out"
        conf = write_config(
            tmp_path / "c.conf", speech_wav, out,
            extra="run.variants = mwf-ic\nscene.target_snr_worst_ear = inf",
        )
        assert cli.main(["calibrate", "--config", str(conf)]) == cli.EXIT_CONFIG
        assert "reference SNR is not finite and positive" in capsys.readouterr().err
        assert not (out / "calibration.json").exists()
