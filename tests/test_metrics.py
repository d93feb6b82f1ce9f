import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError
from binaural_mwf.costs import FilterPair
from binaural_mwf.metrics import (
    FilteredView,
    MetricsReport,
    SII_BAND_CENTERS,
    SII_BAND_WEIGHTS,
    _reference_terms,
    active_power,
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
from binaural_mwf.stft import SpectralTensor, StftConfig, blocks, squared_magnitude, synthesize

from conftest import (
    SUMMAND_CONFIGS,
    SUMMAND_SHAPES,
    assert_bitwise,
    identity_filters,
    pool_of,
    random_psd,
    summand_pair,
)


def complex_white(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def shadow_filter(filters, x, v):
    """The filters applied to the clean components one at a time."""
    return apply_filters(filters, x), apply_filters(filters, v)


def powers(z_x, z_v, active):
    """Speech-active powers of two filtered outputs."""
    return active_power(z_x.data, active), active_power(z_v.data, active)


def make_cues(cfg, ipd, ic_abs):
    k = cfg.bin_count
    ipd_arr = np.full(k, float(ipd))
    ic = ic_abs * np.exp(1j * ipd_arr)
    valid = (cfg.freqs > 0) & (cfg.freqs <= 1500.0)
    itd = np.where(valid, ipd_arr / (2 * np.pi * np.maximum(cfg.freqs, 1.0)), np.nan)
    return CueEstimate(ipd=ipd_arr, itd=itd, ic=ic, valid=valid, freqs=cfg.freqs)


class TestShadowFilter:
    def test_identity_preserves_reference_channels(self, scene30, selector):
        identity = identity_filters(selector, scene30.x.config.bin_count)
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
        z_y = apply_filters(mwf30.filters, (scene30.x, scene30.v))
        np.testing.assert_allclose(z_x.data + z_v.data, z_y.data, atol=1e-12)

    def test_shape_mismatch_rejected(self, scene30, mwf30, selector, cfg):
        small = SpectralTensor(
            scene30.v.data[:, : scene30.v.frame_count // 2, :], cfg
        )
        with pytest.raises(InvalidInputError):
            evaluate_filters(mwf30.filters, dataclasses.replace(scene30, v=small),
                             selector)


class TestSnr:
    def test_equal_energy_is_zero_db(self, cfg):
        rng = np.random.default_rng(0)
        a = complex_white(rng, (2, 50, cfg.bin_count))
        x = SpectralTensor(a, cfg)
        v = SpectralTensor(np.roll(a, 7, axis=1), cfg)
        l, r = snr_db(*powers(x, v, np.ones(50, dtype=bool)))
        assert l == pytest.approx(0.0, abs=1e-12)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_scaling_shifts_20db(self, cfg):
        rng = np.random.default_rng(1)
        a = complex_white(rng, (2, 50, cfg.bin_count))
        x = SpectralTensor(a, cfg)
        v = SpectralTensor(0.1 * a.copy(), cfg)
        l, r = snr_db(*powers(x, v, np.ones(50, dtype=bool)))
        assert l == pytest.approx(20.0, abs=1e-9)

    def test_zero_noise_flagged_infinite(self, cfg):
        rng = np.random.default_rng(2)
        x = SpectralTensor(complex_white(rng, (2, 10, cfg.bin_count)), cfg)
        v = SpectralTensor(np.zeros_like(x.data), cfg)
        l, r = snr_db(*powers(x, v, np.ones(10, dtype=bool)))
        assert np.isinf(l) and np.isinf(r)

    def test_scene_input_snr_calibrated(self, scene30, selector):
        l, r = input_snr_db(scene30, selector)
        assert r == pytest.approx(0.0, abs=0.1)


class TestDeltaIsnr:
    def test_weights_form_a_partition(self):
        assert SII_BAND_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-12)
        assert SII_BAND_CENTERS.size == SII_BAND_WEIGHTS.size

    def test_no_processing_gives_zero(self, scene30, selector):
        identity = identity_filters(selector, scene30.x.config.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        bands = band_snrs_db(*powers(z_x, z_v, scene30.vad.active), scene30.x.config.freqs)
        l, r = isnr_gain(bands, bands)
        assert l == 0.0 and r == 0.0

    def test_uniform_gain_passes_through(self, scene30, selector, cfg):
        identity = identity_filters(selector, scene30.x.config.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        boosted = SpectralTensor(z_v.data * 10 ** (-6.0 / 20.0), cfg)
        active = scene30.vad.active
        l, r = isnr_gain(band_snrs_db(*powers(z_x, boosted, active), cfg.freqs),
                         band_snrs_db(*powers(z_x, z_v, active), cfg.freqs))
        assert l == pytest.approx(6.0, abs=1e-9)
        assert r == pytest.approx(6.0, abs=1e-9)

    def test_gain_outside_importance_bands_ignored(self, scene30, selector, cfg):
        # boost only below the lowest one-third-octave band edge (~141 Hz)
        identity = identity_filters(selector, scene30.x.config.bin_count)
        z_x, z_v = shadow_filter(identity, scene30.x, scene30.v)
        modified = z_v.data.copy()
        low = cfg.freqs < 140.0
        modified[:, :, low] *= 0.01
        active = scene30.vad.active
        l, r = isnr_gain(
            band_snrs_db(*powers(z_x, SpectralTensor(modified, cfg), active), cfg.freqs),
            band_snrs_db(*powers(z_x, z_v, active), cfg.freqs),
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
        identity = identity_filters(selector, scene30.x.config.bin_count)
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


# Frozen one-shot forms of the filtering and the power reductions: both
# ears stacked from two einsum results, and each SNR measure forming its own
# |z|^2 of the speech-active frames of both outputs.

def one_shot_apply_filters(filters, tensor):
    z_l = np.einsum("km,mtk->tk", filters.w_l.conj(), tensor.data)
    z_r = np.einsum("km,mtk->tk", filters.w_r.conj(), tensor.data)
    return SpectralTensor(np.stack([z_l, z_r]), tensor.config)


def one_shot_snr_db(z_x, z_v, active):
    active = np.asarray(active, dtype=bool)
    p_x = np.sum(np.abs(z_x.data[:, active, :]) ** 2, axis=(1, 2))
    p_v = np.sum(np.abs(z_v.data[:, active, :]) ** 2, axis=(1, 2))
    out = np.full(2, np.inf)
    nz = p_v > 0
    out[nz] = 10.0 * np.log10(p_x[nz] / p_v[nz])
    return float(out[0]), float(out[1])


def one_shot_band_snrs_db(z_x, z_v, active, freqs):
    lo, hi = SII_BAND_CENTERS / 2.0 ** (1.0 / 6.0), SII_BAND_CENTERS * 2.0 ** (1.0 / 6.0)
    nyquist = freqs[-1]
    active = np.asarray(active, dtype=bool)
    px = np.sum(np.abs(z_x.data[:, active, :]) ** 2, axis=1)
    pv = np.sum(np.abs(z_v.data[:, active, :]) ** 2, axis=1)
    out = np.full((SII_BAND_CENTERS.size, 2), np.nan)
    for b, (f_lo, f_hi) in enumerate(zip(lo, hi)):
        if SII_BAND_CENTERS[b] > nyquist:
            continue
        sel = (freqs >= f_lo) & (freqs < min(f_hi, nyquist + 1e-9))
        if not np.any(sel):
            continue
        bx = px[:, sel].sum(axis=1)
        bv = pv[:, sel].sum(axis=1)
        ok = (bx > 0) & (bv > 0)
        out[b, ok] = 10.0 * np.log10(bx[ok] / bv[ok])
    return out


def frozen_reference_terms(scene, selector):
    """The unprocessed terms as computed before they read the reference
    channels directly: the pass-through filter pair, shadow-filtered."""
    identity = identity_filters(selector, scene.x.config.bin_count)
    zx = one_shot_apply_filters(identity, scene.x)
    zv = one_shot_apply_filters(identity, scene.v)
    active = scene.vad.active
    return (one_shot_snr_db(zx, zv, active),
            one_shot_band_snrs_db(zx, zv, active, scene.x.config.freqs))


def random_scene(rng, cfg, mics, frames, zero_fraction):
    """A hand-built scene whose tensors have exact zeros: scattered entries,
    and whole channels or bins."""
    shape = (mics, frames, cfg.bin_count)

    def tensor():
        values = complex_white(rng, shape) * 10.0 ** rng.uniform(-3, 3)
        values[rng.uniform(size=shape) < zero_fraction] = 0.0
        values[rng.uniform(size=mics) < 0.2] = 0.0
        values[:, :, rng.uniform(size=shape[2]) < 0.2] = 0.0
        return SpectralTensor(values, cfg)

    x, v = tensor(), tensor()
    return SceneData(x=x, v=v, vad=VadLabels(rng.uniform(size=frames) < 0.5),
                     worst_ear="right")


class TestStreamedMetricsMatchOneShotForms:
    CFG = StftConfig()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        mics=st.integers(1, 8),
        frames=st.integers(2, 40),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
        zero_filters=st.booleans(),
    )
    def test_bitwise_equal(self, seed, mics, frames, zero_fraction, zero_filters):
        rng = np.random.default_rng(seed)
        scene = random_scene(rng, self.CFG, mics, frames, zero_fraction)
        k = self.CFG.bin_count
        filters = FilterPair(w_l=complex_white(rng, (k, mics)),
                             w_r=complex_white(rng, (k, mics)) * 10.0 ** rng.uniform(-3, 3))
        if zero_filters:
            filters.w_r[rng.uniform(size=k) < 0.5] = 0.0
        active = scene.vad.active
        z_x = apply_filters(filters, scene.x)
        z_v = apply_filters(filters, scene.v)
        assert_bitwise(z_x.data, one_shot_apply_filters(filters, scene.x).data)
        assert_bitwise(z_v.data, one_shot_apply_filters(filters, scene.v).data)
        with np.errstate(divide="ignore", invalid="ignore"):
            snr_want = one_shot_snr_db(z_x, z_v, active)
            bands_want = one_shot_band_snrs_db(z_x, z_v, active, self.CFG.freqs)
            p_x, p_v = powers(z_x, z_v, active)
            assert_bitwise(snr_db(p_x, p_v), snr_want)
            assert_bitwise(band_snrs_db(p_x, p_v, self.CFG.freqs), bands_want)
            # a report needs two ears and two speech-active frames
            if mics >= 2 and scene.vad.active_count >= 2:
                selector = Selector(q_l=np.eye(mics)[0], q_r=np.eye(mics)[mics - 1])
                report = evaluate_filters(filters, scene, selector)
                bands_in = frozen_reference_terms(scene, selector)[1]
                assert_bitwise([report.snr_l, report.snr_r], snr_want)
                assert_bitwise([report.disnr_l, report.disnr_r],
                               isnr_gain(bands_want, bands_in))
                assert_bitwise(input_snr_db(scene, selector),
                               frozen_reference_terms(scene, selector)[0])


class TestSummandFilteringMatchesOneShotForm:
    """Filtering the summands (x, v) a block of frames at a time gives the
    frozen whole-tensor einsum on a stored y = x + v, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=SUMMAND_SHAPES, zero_filters=st.booleans())
    def test_bitwise_equal(self, seed, shape, zero_filters):
        rng = np.random.default_rng(seed)
        mics, _, bins = shape
        cfg = SUMMAND_CONFIGS[bins]
        x, v = summand_pair(rng, shape)
        filters = FilterPair(w_l=complex_white(rng, (bins, mics)),
                             w_r=complex_white(rng, (bins, mics)) * 10.0 ** rng.uniform(-3, 3))
        if zero_filters:
            filters.w_l[rng.uniform(size=bins) < 0.5] = 0.0
        got = apply_filters(filters, (SpectralTensor(x, cfg), SpectralTensor(v, cfg)))
        want = one_shot_apply_filters(filters, SpectralTensor(x + v, cfg))
        assert_bitwise(got.data, want.data)


class TestActivePowerAcrossBlocks:
    """The blocked active-frame power, through ``evaluate_filters`` and
    ``input_snr_db``, equals the frozen one-shot forms bit for bit at
    speech-active frame counts around one and two blocks, where the layout
    of its power buffer fixes the order of the sums."""

    CFG = StftConfig()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        mics=st.integers(2, 6),
        active_count=st.sampled_from([1, 63, 64, 65, 129, 200]),
        silent_count=st.integers(2, 40),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_bitwise_equal(self, seed, mics, active_count, silent_count, zero_fraction):
        rng = np.random.default_rng(seed)
        frames = active_count + silent_count
        active = np.zeros(frames, dtype=bool)
        active[rng.choice(frames, active_count, replace=False)] = True
        scene = dataclasses.replace(random_scene(rng, self.CFG, mics, frames, zero_fraction),
                                    vad=VadLabels(active))
        k, freqs = self.CFG.bin_count, self.CFG.freqs
        filters = FilterPair(w_l=complex_white(rng, (k, mics)),
                             w_r=complex_white(rng, (k, mics)) * 10.0 ** rng.uniform(-3, 3))
        selector = Selector(q_l=np.eye(mics)[0], q_r=np.eye(mics)[mics - 1])
        z_x = one_shot_apply_filters(filters, scene.x)
        z_v = one_shot_apply_filters(filters, scene.v)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_x = active_power(FilteredView(filters, scene.x).data, active)
            power = np.abs(z_x.data[:, active, :]) ** 2
            assert_bitwise(p_x.total, np.sum(power, axis=(1, 2)))
            assert_bitwise(p_x.per_bin, np.sum(power, axis=1))

            snr_want = one_shot_snr_db(z_x, z_v, active)
            bands_want = one_shot_band_snrs_db(z_x, z_v, active, freqs)
            ref_snr_want, ref_bands_want = frozen_reference_terms(scene, selector)
            assert_bitwise(input_snr_db(scene, selector), ref_snr_want)
            assert_bitwise(_reference_terms(scene, selector)[1], ref_bands_want)
            # a report needs two speech-active frames
            if active_count >= 2:
                report = evaluate_filters(filters, scene, selector)
                assert_bitwise([report.snr_l, report.snr_r], snr_want)
                assert_bitwise([report.disnr_l, report.disnr_r],
                               isnr_gain(bands_want, ref_bands_want))


def frozen_serial_active_power(data, active, ears=slice(None)):
    """Frozen serial form of ``active_power`` before its blocks ran on the
    worker pool: 64-frame blocks walked in order on the calling thread."""
    frames = np.arange(data.shape[1])[np.asarray(active, dtype=bool)]
    power = np.empty((frames.size, 2, data.shape[2])).transpose(1, 0, 2)
    for block in blocks(frames.size, 64):
        squared_magnitude(data[:, frames[block]][ears], out=power[:, block])
    return np.sum(power, axis=(1, 2)), np.sum(power, axis=1)


class TestPooledActivePowerMatchesSerialForm:
    """The active-frame blocks run on the worker pool give the frozen serial
    walk's bits at one, two and three workers, for a plain array read at two
    of its channels and for a ``FilteredView`` of the summands (x, v), at
    active frame counts around the 16-frame task and the 64-frame block."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), mics=st.integers(2, 6), bins=st.sampled_from([3, 129]),
           active_count=st.sampled_from([0, 1, 15, 16, 17, 63, 64, 65, 129]),
           silent_count=st.integers(1, 20), view=st.booleans())
    def test_bitwise_equal(self, workers, seed, mics, bins, active_count, silent_count, view):
        rng = np.random.default_rng(seed)
        frames = active_count + silent_count
        active = np.zeros(frames, dtype=bool)
        active[rng.choice(frames, active_count, replace=False)] = True
        x, v = summand_pair(rng, (mics, frames, bins))
        if view:
            cfg = SUMMAND_CONFIGS[bins]
            filters = FilterPair(w_l=complex_white(rng, (bins, mics)),
                                 w_r=complex_white(rng, (bins, mics)) * 10.0 ** rng.uniform(-3, 3))
            data = FilteredView(filters, (SpectralTensor(x, cfg), SpectralTensor(v, cfg))).data
            ears = slice(None)
        else:
            data, ears = x, list(rng.choice(mics, 2, replace=False))
        want_total, want_per_bin = frozen_serial_active_power(data, active, ears)
        with pool_of(workers):
            got = active_power(data, active, ears)
        assert_bitwise(got.total, want_total)
        assert_bitwise(got.per_bin, want_per_bin)


def test_pooled_walks_under_contention():
    # eight workers on fewer cores, switching threads every microsecond: a
    # step writing outside its own slice, or a sum read before every step
    # has written, would move these bits
    rng = np.random.default_rng(5)
    cfg = StftConfig()
    x, v = summand_pair(rng, (4, 200, cfg.bin_count))
    summed = (SpectralTensor(x, cfg), SpectralTensor(v, cfg))
    active = rng.uniform(size=200) < 0.7
    filters = FilterPair(w_l=complex_white(rng, (cfg.bin_count, 4)),
                         w_r=complex_white(rng, (cfg.bin_count, 4)))
    view = FilteredView(filters, summed).data

    def walks():
        return covariance_per_bin(summed, (active, ~active)) + tuple(active_power(view, active))

    with pool_of(1):
        want = walks()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pool_of(8):
            for _ in range(5):
                for got, expected in zip(walks(), want):
                    assert_bitwise(got, expected)
    finally:
        sys.setswitchinterval(interval)


class TestBlockFedSynthesis:
    """Synthesizing the enhanced output from a ``FilteredView``, one block
    of frames filtered at a time, equals synthesizing the stored output."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=SUMMAND_SHAPES)
    def test_bitwise_equal(self, seed, shape):
        rng = np.random.default_rng(seed)
        mics, _, bins = shape
        cfg = SUMMAND_CONFIGS[bins]
        x, v = summand_pair(rng, shape)
        filters = FilterPair(w_l=complex_white(rng, (bins, mics)),
                             w_r=complex_white(rng, (bins, mics)))
        summed = (SpectralTensor(x, cfg), SpectralTensor(v, cfg))
        assert_bitwise(synthesize(FilteredView(filters, summed)),
                       synthesize(apply_filters(filters, summed)))


def frozen_input_noise_cues(scene, selector, cue_cutoff):
    """The former "unprocessed" column of ic_spectrum.csv: output cues of the
    pass-through filter pair."""
    identity = identity_filters(selector, scene.x.config.bin_count)
    return output_cues(covariance_per_bin(scene.v, (None,))[0], identity, scene.v.config,
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
        scene = random_scene(rng, self.CFG, mics, frames, zero_fraction)
        v = scene.v
        with np.errstate(divide="ignore"):
            snr_want, bands_want = frozen_reference_terms(scene, selector)
            snr_got = input_snr_db(scene, selector)
            bands_got = _reference_terms(scene, selector)[1]
        assert np.array(snr_got).tobytes() == np.array(snr_want).tobytes()
        assert bands_got.tobytes() == bands_want.tobytes()

        want = frozen_input_noise_cues(scene, selector, cue_cutoff)
        got = input_cues(covariance_per_bin(v, (None,))[0], selector, self.CFG, cue_cutoff)
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
