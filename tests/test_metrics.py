import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError
from binaural_mwf.costs import FilterPair
from binaural_mwf.metrics import (
    MetricsReport,
    SII_BAND_CENTERS,
    SII_BAND_WEIGHTS,
    _reference_terms,
    apply_filters,
    band_snrs_db,
    delta_itd,
    delta_msc,
    evaluate_filters,
    ic_spectrum_rows,
    input_snr_db,
    isnr_gain,
    noise_cue_pair,
    report_to_json,
    shadow_filter,
    snr_db,
    write_ic_spectrum_csv,
)
from binaural_mwf.scene import SceneData, VadLabels, steered_tensor, steering_vector
from binaural_mwf.spatial_stats import (
    CueEstimate,
    Selector,
    covariance_per_bin,
    input_cues,
    output_cues,
)
from binaural_mwf.stft import SpectralTensor, StftConfig

from conftest import identity_filters, random_psd


def complex_white(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def make_cues(cfg, ipd, ic_abs):
    k = cfg.bin_count
    ipd_arr = np.full(k, float(ipd))
    ic = ic_abs * np.exp(1j * ipd_arr)
    valid = (cfg.freqs > 0) & (cfg.freqs <= 1500.0)
    itd = np.where(valid, ipd_arr / (2 * np.pi * np.maximum(cfg.freqs, 1.0)), np.nan)
    return CueEstimate(ipd=ipd_arr, itd=itd, ic=ic, valid=valid, freqs=cfg.freqs)


class TestShadowFilter:
    def test_identity_preserves_reference_channels(self, scene30, selector):
        identity = identity_filters(selector, scene30.x.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        np.testing.assert_allclose(
            z_x.data[0], scene30.x.data[selector.index_left], atol=1e-14
        )
        np.testing.assert_allclose(
            z_v.data[1], scene30.v.data[selector.index_right], atol=1e-14
        )

    def test_zero_filters_give_silence(self, scene30, cfg):
        zero = FilterPair(
            w_l=np.zeros((cfg.bin_count, 6)), w_r=np.zeros((cfg.bin_count, 6))
        )
        z_x, z_v = shadow_filter(zero, scene30.x, scene30.v)
        assert np.all(z_x.data == 0)
        assert np.all(z_v.data == 0)

    def test_additivity(self, scene30, mwf30):
        z_x, z_v = shadow_filter(mwf30.filters, scene30.x, scene30.v)
        z_y = apply_filters(mwf30.filters, scene30.y)
        np.testing.assert_allclose(z_x.data + z_v.data, z_y.data, atol=1e-12)

    def test_shape_mismatch_rejected(self, scene30, mwf30, cfg):
        small = SpectralTensor(
            scene30.v.data[:, : scene30.v.frame_count // 2, :], cfg
        )
        with pytest.raises(InvalidInputError):
            shadow_filter(mwf30.filters, scene30.x, small)


class TestSnr:
    def test_equal_energy_is_zero_db(self, cfg):
        rng = np.random.default_rng(0)
        a = complex_white(rng, (2, 50, cfg.bin_count))
        x = SpectralTensor(a, cfg)
        v = SpectralTensor(np.roll(a, 7, axis=1), cfg)
        l, r = snr_db(x, v, np.ones(50, dtype=bool))
        assert l == pytest.approx(0.0, abs=1e-12)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_scaling_shifts_20db(self, cfg):
        rng = np.random.default_rng(1)
        a = complex_white(rng, (2, 50, cfg.bin_count))
        x = SpectralTensor(a, cfg)
        v = SpectralTensor(0.1 * a.copy(), cfg)
        l, r = snr_db(x, v, np.ones(50, dtype=bool))
        assert l == pytest.approx(20.0, abs=1e-9)

    def test_zero_noise_flagged_infinite(self, cfg):
        rng = np.random.default_rng(2)
        x = SpectralTensor(complex_white(rng, (2, 10, cfg.bin_count)), cfg)
        v = SpectralTensor(np.zeros_like(x.data), cfg)
        l, r = snr_db(x, v, np.ones(10, dtype=bool))
        assert np.isinf(l) and np.isinf(r)

    def test_scene_input_snr_calibrated(self, scene30, selector):
        l, r = input_snr_db(scene30, selector)
        assert r == pytest.approx(0.0, abs=0.1)


class TestDeltaIsnr:
    def test_weights_form_a_partition(self):
        assert SII_BAND_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-12)
        assert SII_BAND_CENTERS.size == SII_BAND_WEIGHTS.size

    def test_no_processing_gives_zero(self, scene30, selector):
        identity = identity_filters(selector, scene30.x.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        bands = band_snrs_db(z_x, z_v, scene30.vad.active, scene30.x.freqs)
        l, r = isnr_gain(bands, bands)
        assert l == 0.0 and r == 0.0

    def test_uniform_gain_passes_through(self, scene30, selector, cfg):
        identity = identity_filters(selector, scene30.x.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        boosted = SpectralTensor(z_v.data * 10 ** (-6.0 / 20.0), cfg)
        active = scene30.vad.active
        l, r = isnr_gain(band_snrs_db(z_x, boosted, active, cfg.freqs),
                         band_snrs_db(z_x, z_v, active, cfg.freqs))
        assert l == pytest.approx(6.0, abs=1e-9)
        assert r == pytest.approx(6.0, abs=1e-9)

    def test_gain_outside_importance_bands_ignored(self, scene30, selector, cfg):
        # boost only below the lowest one-third-octave band edge (~141 Hz)
        identity = identity_filters(selector, scene30.x.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        modified = z_v.data.copy()
        low = cfg.freqs < 140.0
        modified[:, :, low] *= 0.01
        active = scene30.vad.active
        l, r = isnr_gain(
            band_snrs_db(z_x, SpectralTensor(modified, cfg), active, cfg.freqs),
            band_snrs_db(z_x, z_v, active, cfg.freqs),
        )
        assert abs(l) < 1e-9 and abs(r) < 1e-9


class TestCueErrors:
    def test_identical_cues_zero(self, cfg):
        cues = make_cues(cfg, 0.7, 0.9)
        assert delta_itd(cues, cues) == 0.0
        assert delta_msc(cues, cues) == 0.0

    def test_maximal_flip_is_one(self, cfg):
        a = make_cues(cfg, 0.0, 1.0)
        b = make_cues(cfg, np.pi, 1.0)
        assert delta_itd(a, b) == pytest.approx(1.0)

    def test_total_decoherence_is_one(self, cfg):
        a = make_cues(cfg, 0.0, 1.0)
        b = make_cues(cfg, 0.0, 0.0)
        assert delta_msc(a, b) == pytest.approx(1.0)

    def test_no_valid_bins_flagged_nan(self, cfg):
        a = make_cues(cfg, 0.0, 1.0)
        b = make_cues(cfg, 0.0, 1.0)
        a.valid[:] = False
        assert np.isnan(delta_itd(a, b))
        assert np.isnan(delta_msc(a, b))

    def test_filter_scaling_invariance(self, scene30, mwf30, selector):
        base = evaluate_filters(mwf30.filters, scene30, selector)
        scaled = FilterPair(
            w_l=5.0 * mwf30.filters.w_l, w_r=0.2 * mwf30.filters.w_r
        )
        rep = evaluate_filters(scaled, scene30, selector)
        assert rep.ditd_n == pytest.approx(base.ditd_n, abs=1e-12)
        assert rep.dmsc_n == pytest.approx(base.dmsc_n, abs=1e-12)

    def test_identity_processing_all_deltas_zero(self, scene30, selector):
        identity = identity_filters(selector, scene30.x.bin_count)
        rep = evaluate_filters(identity, scene30, selector)
        assert rep.ditd_n == 0.0
        assert rep.ditd_s == 0.0
        assert rep.dmsc_n == 0.0
        assert rep.dmsc_s == 0.0
        assert rep.disnr_l == 0.0
        assert rep.disnr_r == 0.0


class TestEndToEnd:
    def test_mwf_improves_snr_substantially(self, scene30, mwf30, selector):
        rep = evaluate_filters(mwf30.filters, scene30, selector)
        in_l, in_r = input_snr_db(scene30, selector)
        assert rep.snr_l >= in_l + 10.0
        assert rep.snr_r >= in_r + 10.0

    def test_reused_scene_terms_match_a_fresh_scene(self, scene30, mwf30, selector):
        # the shared scene keeps terms from earlier filters and cutoffs; a
        # copy starts without any
        evaluate_filters(mwf30.filters, scene30, selector, cue_cutoff=1000.0)
        for cutoff in (1500.0, 1000.0):
            fresh = dataclasses.replace(scene30)
            assert not fresh.metric_terms
            want = evaluate_filters(mwf30.filters, fresh, selector, cue_cutoff=cutoff)
            got = evaluate_filters(mwf30.filters, scene30, selector, cue_cutoff=cutoff)
            assert got.to_dict() == want.to_dict()
        fresh = dataclasses.replace(scene30)
        assert input_snr_db(scene30, selector) == input_snr_db(fresh, selector)

    def test_unprocessed_rank_one_noise_fully_coherent(self, cfg, geometry, selector):
        rng = np.random.default_rng(3)
        sv = steering_vector(geometry, 30.0, 3.0, cfg)
        phi = np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        np.testing.assert_allclose(np.abs(cues.ic[cues.valid]), 1.0, atol=1e-9)


def frozen_reference_terms(scene, selector):
    """The unprocessed terms as computed before they read the reference
    channels directly: the pass-through filter pair, shadow-filtered."""
    identity = identity_filters(selector, scene.x.bin_count)
    zx, zv = shadow_filter(identity, scene.x, scene.v)
    active = scene.vad.active
    return snr_db(zx, zv, active), band_snrs_db(zx, zv, active, scene.x.config.freqs)


def frozen_input_noise_cues(scene, selector, cue_cutoff):
    """The former "unprocessed" column of ic_spectrum.csv: output cues of the
    pass-through filter pair."""
    identity = identity_filters(selector, scene.x.bin_count)
    return output_cues(covariance_per_bin(scene.v.data), identity, scene.v.config,
                       cue_cutoff)


class TestUnprocessedMatchesFrozenIdentityPath:
    CFG = StftConfig()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        mics=st.integers(2, 8),
        frames=st.integers(2, 12),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        cue_cutoff=st.sampled_from([500.0, 1500.0, 8000.0]),
        data=st.data(),
    )
    def test_bitwise_equal(self, seed, mics, frames, zero_fraction, cue_cutoff, data):
        rng = np.random.default_rng(seed)
        il = data.draw(st.integers(0, mics - 1), label="left reference")
        ir = data.draw(st.integers(0, mics - 1), label="right reference")
        selector = Selector(q_l=np.eye(mics)[il], q_r=np.eye(mics)[ir])
        shape = (mics, frames, self.CFG.bin_count)

        def tensor():
            # exact zeros: scattered entries, and whole channels or bins
            values = complex_white(rng, shape) * 10.0 ** rng.uniform(-3, 3)
            values[rng.uniform(size=shape) < zero_fraction] = 0.0
            values[rng.uniform(size=mics) < 0.2] = 0.0
            values[:, :, rng.uniform(size=shape[2]) < 0.2] = 0.0
            return SpectralTensor(values, self.CFG)

        x, v = tensor(), tensor()
        scene = SceneData(y=SpectralTensor(x.data + v.data, self.CFG), x=x, v=v,
                          vad=VadLabels(rng.uniform(size=frames) < 0.5),
                          worst_ear="right")
        with np.errstate(divide="ignore"):
            snr_want, bands_want = frozen_reference_terms(scene, selector)
            snr_got = input_snr_db(scene, selector)
            bands_got = _reference_terms(scene, selector)[1]
        assert np.array(snr_got).tobytes() == np.array(snr_want).tobytes()
        assert bands_got.tobytes() == bands_want.tobytes()

        want = frozen_input_noise_cues(scene, selector, cue_cutoff)
        got = input_cues(covariance_per_bin(v.data), selector, self.CFG, cue_cutoff)
        np.testing.assert_array_equal(got.valid, want.valid)
        # equal values; only the sign of a zero part could differ, which no
        # artifact shows (ic_spectrum.csv writes |ic|)
        np.testing.assert_array_equal(got.ic[got.valid], want.ic[want.valid])
        assert (np.abs(got.ic[got.valid]).tobytes()
                == np.abs(want.ic[want.valid]).tobytes())


class TestIcSpectrum:
    def test_rows_and_thresholds(self, cfg, geometry, selector):
        sv = steering_vector(geometry, 30.0, 3.0, cfg)
        phi = np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        header, rows = ic_spectrum_rows(cfg.freqs, {"unprocessed": cues})
        assert header == [
            "bin", "freq_hz", "ic_abs_unprocessed", "threshold_low", "threshold_high",
        ]
        assert len(rows) == cfg.bin_count
        k = 10
        assert rows[k][2] == pytest.approx(1.0, abs=1e-9)
        assert rows[k][3] == 0.2 and rows[k][4] == 0.8

    def test_csv_write(self, tmp_path, cfg, geometry, selector):
        sv = steering_vector(geometry, 30.0, 3.0, cfg)
        phi = np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        path = tmp_path / "ic.csv"
        write_ic_spectrum_csv(path, cfg.freqs, {"mwf": cues})
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + cfg.bin_count


class TestReportSerialization:
    def test_json_round_trip(self, tmp_path):
        rep = MetricsReport(
            snr_l=10.0, snr_r=9.0, disnr_l=5.0, disnr_r=4.5,
            ditd_s=0.01, ditd_n=0.4, dmsc_s=0.001, dmsc_n=0.2,
            ic_magnitude_spectrum=np.array([1.0, np.nan, 0.5]),
        )
        path = tmp_path / "report.json"
        report_to_json(path, {"mwf": rep}, extra={"seed": 3})
        doc = json.loads(path.read_text())
        assert doc["seed"] == 3
        assert doc["variants"]["mwf"]["snr_l"] == 10.0
        assert doc["variants"]["mwf"]["ic_magnitude_spectrum"][1] is None
