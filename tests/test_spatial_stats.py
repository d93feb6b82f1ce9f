from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaural_mwf import InvalidInputError, spatial_stats
from binaural_mwf.costs import FilterPair, input_ic, input_ipd
from binaural_mwf.scene import VadLabels, steered_tensor, steering_vector
from binaural_mwf.spatial_stats import (
    Selector,
    covariance_per_bin,
    cues_to_csv,
    estimate_coherence,
    input_cues,
    output_cues,
    psd_floor,
    wrap_angle,
)
from binaural_mwf.solver import closed_form_bin
from binaural_mwf.stft import SpectralTensor, StftConfig

from conftest import (
    SUMMAND_CONFIGS,
    SUMMAND_SHAPES,
    assert_bitwise,
    bins_innermost,
    identity_filters,
    low_rank_psd,
    random_psd,
    summand_pair,
)


def complex_white(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def tensor_from_frames(data, cfg):
    return SpectralTensor(data, cfg)


class TestWrap:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_range_and_congruence(self, x):
        w = float(wrap_angle(x))
        assert -np.pi <= w <= np.pi
        assert np.cos(w - x) == pytest.approx(1.0, abs=1e-9)


class TestEstimateCoherence:
    def test_white_noise_gives_identity(self, cfg):
        rng = np.random.default_rng(0)
        frames = 10**4
        data = complex_white(rng, (2, frames, cfg.bin_count))
        vad = VadLabels(np.arange(frames) < 2)  # two 'speech' frames, rest noise
        phi = estimate_coherence(tensor_from_frames(data, cfg), vad)
        diag = np.diagonal(phi.phi_vv, axis1=1, axis2=2).real
        np.testing.assert_allclose(diag, 1.0, atol=0.06)
        off = phi.phi_vv[:, 0, 1]
        assert np.max(np.abs(off)) < 0.05  # ~3 sigma at 1e4 frames

    def test_single_source_matches_rank_one_model(self, cfg, geometry):
        rng = np.random.default_rng(1)
        frames = 10**4
        sigma = 1.3
        src = sigma * complex_white(rng, (frames, cfg.bin_count))
        sv = steering_vector(geometry, 40.0, 3.0, cfg)
        tensor = steered_tensor(sv, src, cfg)
        vad = VadLabels(np.arange(frames) < 2)
        phi = estimate_coherence(tensor, vad)
        model = sigma**2 * np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        err = np.linalg.norm(phi.phi_vv - model, axis=(1, 2))
        scale = np.linalg.norm(model, axis=(1, 2))
        assert np.max(err / scale) < 0.05

    def test_zero_tensor_gives_zero_matrices(self, cfg):
        data = np.zeros((3, 10, cfg.bin_count), dtype=complex)
        vad = VadLabels(np.arange(10) < 5)
        phi = estimate_coherence(tensor_from_frames(data, cfg), vad)
        assert np.all(phi.phi_yy == 0)
        assert np.all(phi.phi_vv == 0)
        assert np.all(phi.phi_xx == 0)

    def test_insufficient_frames_rejected(self, cfg):
        data = np.zeros((2, 5, cfg.bin_count), dtype=complex)
        vad = VadLabels([True, True, True, True, False])
        with pytest.raises(InvalidInputError):
            estimate_coherence(tensor_from_frames(data, cfg), vad)

    def test_hermitian_and_psd(self, cfg):
        rng = np.random.default_rng(2)
        data = complex_white(rng, (3, 200, cfg.bin_count))
        vad = VadLabels(np.arange(200) % 2 == 0)
        phi = estimate_coherence(tensor_from_frames(data, cfg), vad)
        for mats in (phi.phi_yy, phi.phi_vv, phi.phi_xx):
            herm = np.conj(np.transpose(mats, (0, 2, 1)))
            assert np.max(np.abs(mats - herm)) < 1e-12
        for mats in (phi.phi_yy, phi.phi_vv, phi.phi_xx):
            vals = np.linalg.eigvalsh(mats)
            traces = np.trace(mats, axis1=1, axis2=2).real
            assert np.all(vals[:, 0] >= -1e-10 * np.maximum(traces, 1e-30))


def one_shot_covariance(data, frame_mask=None):
    """Frozen whole-tensor form: one einsum over a masked copy of the frames."""
    sel = data if frame_mask is None else data[:, frame_mask, :]
    cov = np.einsum("mtk,ntk->kmn", sel, sel.conj()) / sel.shape[1]
    return 0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1))))


def frozen_per_bin_covariance(data, frame_mask=None):
    """Frozen per-bin form of the estimator before it read several masks in
    one pass: the selected frames of a group of bins gathered from every
    summand and added, each bin reduced from a contiguous copy into an
    (M, M, K) buffer (groups of 4 bins)."""
    parts = (data,) if isinstance(data, np.ndarray) else tuple(data)
    m, t, bins = parts[0].shape
    frames = slice(None)
    if frame_mask is not None:
        frames = np.asarray(frame_mask, dtype=bool)
        t = int(np.count_nonzero(frames))
    cov = np.empty((m, m, bins), dtype=np.result_type(*parts))
    for first in range(0, bins, 4):
        group = slice(first, first + 4)
        block = parts[0][:, frames, group]
        for part in parts[1:]:
            block = block + part[:, frames, group]
        for j in range(block.shape[2]):
            a = np.ascontiguousarray(block[:, :, j])
            np.einsum("mt,nt->mn", a, a.conj(), out=cov[:, :, first + j])
    cov = np.transpose(cov, (2, 0, 1)) / t
    return 0.5 * (cov + np.conj(np.transpose(cov, (0, 2, 1))))


def config_of(bins, sample_rate=16000.0):
    """An STFT configuration with ``bins`` one-sided bins."""
    return StftConfig(fft_size=2 * bins - 1, window_len=1, hop=1, window="rect",
                      sample_rate=sample_rate)


class TestCovarianceMatchesOneShotForm:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        mics=st.integers(1, 8),
        frames=st.integers(2, 3000),
        bins=st.integers(1, 129),
        mask=st.sampled_from(["none", "random", "all"]),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_bitwise_equal(self, seed, mics, frames, bins, mask, zero_fraction):
        rng = np.random.default_rng(seed)
        shape = (mics, frames, bins)
        data = complex_white(rng, shape) * 10.0 ** rng.uniform(-3, 3)
        data[rng.uniform(size=shape) < zero_fraction] = 0.0
        data[rng.uniform(size=mics) < 0.2] = 0.0
        frame_mask = {"none": None, "all": np.ones(frames, dtype=bool),
                      "random": rng.uniform(size=frames) < 0.5}[mask]
        if mask == "random":
            frame_mask[rng.choice(frames, 2, replace=False)] = True
        # one pass serves every mask; each estimate is the one it has alone
        got, got_all = covariance_per_bin(SpectralTensor(data, config_of(bins)),
                                          (frame_mask, None))
        for got, want in ((got, one_shot_covariance(data, frame_mask)),
                          (got_all, one_shot_covariance(data))):
            assert_bitwise(got, want)


class TestSummandCovarianceMatchesOneShotForm:
    """The covariance of the summands (x, v), added once per group of bins
    for every mask, equals the frozen one-shot form on a stored y = x + v,
    bit for bit, for group sizes that do not divide the bins."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), shape=SUMMAND_SHAPES, group=st.sampled_from([2, 4, 8, 32]),
           masked=st.booleans())
    def test_bitwise_equal(self, seed, shape, group, masked):
        rng = np.random.default_rng(seed)
        frames = shape[1]
        x, v = summand_pair(rng, shape)
        cfg = SUMMAND_CONFIGS[shape[2]]
        summands = (SpectralTensor(x, cfg), SpectralTensor(v, cfg))
        frame_mask = rng.uniform(size=frames) < 0.5 if masked else None
        selected = frames if frame_mask is None else np.count_nonzero(frame_mask)
        with mock.patch.object(spatial_stats, "_GROUP_BINS", group):
            if selected < 2:
                with pytest.raises(InvalidInputError):
                    covariance_per_bin(summands, (frame_mask,))
                return
            (got,) = covariance_per_bin(summands, (frame_mask,))
            assert_bitwise(got, one_shot_covariance(x + v, frame_mask))
            # the estimate reads the summands the same way, both VAD classes
            vad = VadLabels(frame_mask if masked else np.arange(frames) % 2 == 0)
            if min(vad.active_count, frames - vad.active_count) >= 2:
                phi = estimate_coherence(summands, vad)
                assert_bitwise(phi.phi_yy, one_shot_covariance(x + v, vad.active))
                assert_bitwise(phi.phi_vv, one_shot_covariance(x + v, ~vad.active))


class TestLongCovarianceMatchesPerBinForm:
    """More selected frames per mask than numpy's 8,192-element iterator
    buffer, as in a 60 s scene: the one-pass estimate equals the frozen
    per-bin form bit for bit, for one tensor and for the summands (x, v),
    for both masks."""

    def test_bitwise_equal(self):
        rng = np.random.default_rng(18)
        shape = (6, 18500, 10)  # 10 bins: the last group is partial
        x, v = summand_pair(rng, shape)
        active = rng.uniform(size=shape[1]) < 0.5
        masks = (active, ~active)
        assert min(np.count_nonzero(active), np.count_nonzero(~active)) >= 9000
        cfg = config_of(shape[2])
        for data, tensor in ((x, SpectralTensor(x, cfg)),
                             ((x, v), (SpectralTensor(x, cfg), SpectralTensor(v, cfg)))):
            for got, mask in zip(covariance_per_bin(tensor, masks), masks):
                assert_bitwise(got, frozen_per_bin_covariance(data, mask))


class TestLayoutReaders:
    """Every reader of Phi_yy and Phi_vv gives the same bits on a
    C-contiguous Phi as on one stored bin axis innermost.  ``output_cues``
    sums in one order whatever the layout, which matters at 2 bins and 2
    microphones: there numpy's einsum sums in another order on a
    C-contiguous Phi.  Low-rank matrices take the closed form's loading
    path, zero ones its no-speech path."""

    # 2 bins and 2 microphones, where einsum's order depends on the layout,
    # are drawn often
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), mics=st.just(2) | st.integers(2, 8),
           bins=st.just(2) | st.integers(2, 40), data=st.data())
    def test_bitwise_equal(self, seed, mics, bins, data):
        rng = np.random.default_rng(seed)
        il = data.draw(st.integers(0, mics - 1), label="left reference")
        ir = data.draw(st.integers(0, mics - 1), label="right reference")
        selector = Selector(q_l=np.eye(mics)[il], q_r=np.eye(mics)[ir])
        rank = st.integers(0, mics)
        scales = 10.0 ** rng.uniform(-3, 3, size=bins)
        phi_xx = np.stack([s * low_rank_psd(rng, mics, data.draw(rank)) for s in scales])
        phi_vv = np.stack([s * low_rank_psd(rng, mics, data.draw(rank)) for s in scales])
        phi_yy = phi_xx + phi_vv
        filters = FilterPair(w_l=complex_white(rng, (bins, mics)),
                             w_r=complex_white(rng, (bins, mics)))
        # every bin but DC in the cue band
        cfg = config_of(bins, sample_rate=3000.0)

        def read(phi_yy, phi_vv):
            cue_sets = [input_cues(phi_vv, selector, cfg), output_cues(phi_vv, filters, cfg)]
            out = [c for cues in cue_sets for c in (cues.ipd, cues.itd, cues.ic, cues.valid)]
            out.append(psd_floor(phi_yy - phi_vv))
            for k in range(bins):
                out += closed_form_bin(phi_yy[k], phi_xx[k], selector)
                out += [input_ipd(phi_vv[k], selector.q_l, selector.q_r),
                        input_ic(phi_vv[k], selector.q_l, selector.q_r)]
            return [np.asarray(value).tobytes() for value in out]

        laid_out = bins_innermost(phi_yy), bins_innermost(phi_vv)
        assert laid_out[1].strides[0] == phi_vv.itemsize
        assert read(*laid_out) == read(phi_yy, phi_vv)


class TestPsdFloor:
    def test_clamps_negative_eigenvalues(self):
        rng = np.random.default_rng(3)
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        diff = (a - 2.0 * b)[np.newaxis]
        floored = psd_floor(diff)
        vals = np.linalg.eigvalsh(floored[0])
        assert np.all(vals >= -1e-12 * np.abs(vals).max())

    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(4)
        a = random_psd(rng, 5)[np.newaxis]
        np.testing.assert_allclose(psd_floor(a), a, atol=1e-10)


class TestInputCues:
    def test_rank_one_has_unit_coherence(self, cfg, geometry, selector):
        sv = steering_vector(geometry, 35.0, 3.0, cfg)
        phi = 2.0 * np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        assert np.any(cues.valid)
        mask = cues.valid
        np.testing.assert_allclose(np.abs(cues.ic[mask]), 1.0, atol=1e-9)
        # angle of ic coincides with ipd exactly (same numerator)
        np.testing.assert_allclose(
            wrap_angle(np.angle(cues.ic[mask]) - cues.ipd[mask]), 0.0, atol=1e-12
        )

    def test_identity_matrix_flagged_incoherent(self, cfg, selector):
        m = selector.q_l.size
        phi = np.tile(np.eye(m, dtype=complex), (cfg.bin_count, 1, 1))
        cues = input_cues(phi, selector, cfg)
        assert not np.any(cues.valid)
        np.testing.assert_allclose(cues.ic[1:25], 0.0, atol=1e-15)

    def test_two_by_two_direct_evaluation(self):
        cfg2 = __import__("binaural_mwf").stft.StftConfig()
        sel = Selector(q_l=np.array([1.0, 0.0]), q_r=np.array([0.0, 1.0]))
        off = 0.5 * np.exp(1j * np.pi / 4)
        phi = np.tile(
            np.array([[1.0, off], [np.conj(off), 1.0]]), (cfg2.bin_count, 1, 1)
        )
        cues = input_cues(phi, sel, cfg2)
        k = 10
        assert cues.ic[k] == pytest.approx(off)
        assert cues.ipd[k] == pytest.approx(np.pi / 4)
        assert cues.itd[k] == pytest.approx((np.pi / 4) / (2 * np.pi * cfg2.freqs[k]))

    def test_itd_is_ipd_over_angular_frequency(self, cfg, geometry, selector):
        sv = steering_vector(geometry, 50.0, 3.0, cfg)
        phi = np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        mask = cues.valid
        np.testing.assert_allclose(
            cues.itd[mask], cues.ipd[mask] / (2 * np.pi * cfg.freqs[mask])
        )

    def test_cutoff_excludes_high_bins(self, cfg, geometry, selector):
        sv = steering_vector(geometry, 50.0, 3.0, cfg)
        phi = np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        assert not np.any(cues.valid[cfg.freqs > 1500.0])
        assert not cues.valid[0]  # DC carries no timing cue


class TestOutputCues:
    def test_identity_filters_reproduce_input_cues(self, cfg, geometry, selector):
        rng = np.random.default_rng(5)
        phi = np.stack([random_psd(rng, 6) for _ in range(cfg.bin_count)])
        identity = identity_filters(selector, cfg.bin_count)
        cin = input_cues(phi, selector, cfg)
        cout = output_cues(phi, identity, cfg)
        np.testing.assert_allclose(cout.ipd, cin.ipd, atol=1e-12)
        np.testing.assert_allclose(cout.ic, cin.ic, atol=1e-12)
        np.testing.assert_array_equal(cout.valid, cin.valid)

    def test_equal_filters_fully_coherent(self, cfg, selector):
        rng = np.random.default_rng(6)
        phi = np.stack([random_psd(rng, 6) for _ in range(cfg.bin_count)])
        w = complex_white(rng, (cfg.bin_count, 6))
        pair = FilterPair(w_l=w, w_r=w.copy())
        cues = output_cues(phi, pair, cfg)
        mask = cues.valid
        np.testing.assert_allclose(cues.ipd[mask], 0.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(cues.ic[mask]), 1.0, atol=1e-9)

    def test_phase_rotation_shifts_ipd(self, cfg, selector):
        # rotating w_r by e^{j phi} shifts angle(w_l^H Phi w_r) by +phi and
        # leaves |ic| unchanged
        rng = np.random.default_rng(7)
        phi = np.stack([random_psd(rng, 6) for _ in range(cfg.bin_count)])
        w_l = complex_white(rng, (cfg.bin_count, 6))
        w_r = complex_white(rng, (cfg.bin_count, 6))
        rot = 0.9
        base = output_cues(phi, FilterPair(w_l=w_l, w_r=w_r), cfg)
        shifted = output_cues(
            phi, FilterPair(w_l=w_l, w_r=w_r * np.exp(1j * rot)), cfg
        )
        mask = base.valid & shifted.valid
        np.testing.assert_allclose(
            wrap_angle(shifted.ipd[mask] - base.ipd[mask] - rot), 0.0, atol=1e-9
        )
        np.testing.assert_allclose(
            np.abs(shifted.ic[mask]), np.abs(base.ic[mask]), atol=1e-12
        )

    def test_nonfinite_filters_rejected(self, cfg, selector):
        phi = np.tile(np.eye(6, dtype=complex), (cfg.bin_count, 1, 1))
        w = np.full((cfg.bin_count, 6), np.nan, dtype=complex)
        with pytest.raises(InvalidInputError):
            output_cues(phi, FilterPair(w_l=w, w_r=w), cfg)


class TestCueInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-6, 1e6))
    def test_scale_invariance(self, seed, scale):
        import binaural_mwf.stft as stft_mod

        cfg = stft_mod.StftConfig()
        sel = Selector(
            q_l=np.eye(4)[0].astype(float), q_r=np.eye(4)[2].astype(float)
        )
        rng = np.random.default_rng(seed)
        phi = np.stack([random_psd(rng, 4) for _ in range(cfg.bin_count)])
        a = input_cues(phi, sel, cfg)
        b = input_cues(scale * phi, sel, cfg)
        mask = a.valid
        np.testing.assert_allclose(b.ipd[mask], a.ipd[mask], atol=1e-10)
        np.testing.assert_allclose(b.ic[mask], a.ic[mask], atol=1e-10)

    def test_coherence_magnitude_bounded(self, cfg, selector):
        rng = np.random.default_rng(8)
        for _ in range(100):
            phi = random_psd(rng, 6)[np.newaxis].repeat(cfg.bin_count, axis=0)
            cues = input_cues(phi, selector, cfg)
            finite = np.isfinite(cues.ic)
            assert np.all(np.abs(cues.ic[finite]) <= 1.0 + 1e-9)

    def test_phase_sample_dispersion_grows_as_coherence_drops(self):
        # per-frame phase samples of v_l conj(v_r) spread more as |rho| drops
        rng = np.random.default_rng(9)
        n = 10**5
        variances = []
        for rho in (0.99, 0.9, 0.5, 0.2):
            z1 = complex_white(rng, n)
            z2 = complex_white(rng, n)
            v_l = z1
            v_r = rho * z1 + np.sqrt(1 - rho**2) * z2
            phases = np.angle(v_l * np.conj(v_r))
            variances.append(1.0 - np.abs(np.mean(np.exp(1j * phases))))
        assert all(b > a for a, b in zip(variances, variances[1:]))


class TestSerialization:
    def test_cue_csv_round_shape(self, tmp_path, cfg, geometry, selector):
        sv = steering_vector(geometry, 30.0, 3.0, cfg)
        phi = np.einsum("km,kn->kmn", sv.h, sv.h.conj())
        cues = input_cues(phi, selector, cfg)
        path = tmp_path / "cues.csv"
        cues_to_csv(path, cues)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("bin,freq_hz,ipd_rad,itd_s")
        assert len(lines) == 1 + cfg.bin_count
