from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from binaural_mwf import costs, metrics, scene, solver, spatial_stats, stft


@pytest.fixture(scope="session")
def cfg():
    return stft.StftConfig()


@pytest.fixture(scope="session")
def geometry():
    return scene.ArrayGeometry()


@pytest.fixture(scope="session")
def selector(geometry):
    return spatial_stats.Selector.from_geometry(geometry)


@pytest.fixture(scope="session")
def speech(cfg):
    return scene.synthetic_speech(4.0, cfg.sample_rate, seed=7)


@pytest.fixture(scope="session")
def scene30(speech, cfg, geometry):
    spec = scene.SceneSpec(noise_azimuth=30.0, seed=11)
    return scene.synthesize_scene(speech, spec, geometry, cfg)


@pytest.fixture(scope="session")
def phi30(scene30):
    return spatial_stats.estimate_coherence((scene30.x, scene30.v), scene30.vad)


@pytest.fixture(scope="session")
def mwf30(phi30, selector):
    return solver.solve_all_bins(costs.CostSpec("mwf"), phi30, selector)


def identity_filters(selector, bins):
    """Pass-through filters selecting the reference microphones."""
    return costs.FilterPair(w_l=np.tile(selector.q_l.astype(complex), (bins, 1)),
                            w_r=np.tile(selector.q_r.astype(complex), (bins, 1)))


def random_psd(rng, m, scale=1.0):
    """Random Hermitian PSD matrix, moderately conditioned."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    mat = a @ a.conj().T
    mat += 0.1 * np.trace(mat).real / m * np.eye(m)
    return scale * mat


def random_filters(rng, m):
    return (
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
    )


def low_rank_psd(rng, m, rank):
    a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    return a @ a.conj().T


def shrink_cross_power(w_l, w_r, phi_vv, factor):
    """w_r with its component along c_l = Phi w_l scaled by ``factor``, so
    that u = w_l^H Phi w_r = c_l^H w_r is scaled by ``factor`` too."""
    c_l = phi_vv @ w_l
    along = c_l * (np.vdot(c_l, w_r) / np.vdot(c_l, c_l))
    return w_r - (1.0 - factor) * along


def random_coherence_set(rng, m, bins, freqs):
    """Consistent CoherenceSet with phi_yy = phi_xx + phi_vv."""
    phi_xx = np.stack([random_psd(rng, m) for _ in range(bins)])
    phi_vv = np.stack([random_psd(rng, m) for _ in range(bins)])
    return spatial_stats.CoherenceSet(
        phi_yy=phi_xx + phi_vv,
        phi_vv=phi_vv,
        phi_xx=phi_xx,
        freqs=freqs[:bins],
    )


def bins_innermost(mats):
    """(K, M, M) ``mats`` stored with the bin axis innermost in memory, the
    order ``output_cues`` sums in: each bin's matrix is a strided view that
    numpy's matmul multiplies without BLAS."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(mats, 0, -1)), -1, 0)


@contextmanager
def pool_of(workers):
    """``stft``'s worker pool swapped for one of ``workers`` threads."""
    with ThreadPoolExecutor(workers) as pool, pytest.MonkeyPatch.context() as patch:
        patch.setattr(stft, "_WORKERS", workers)
        patch.setattr(stft, "_POOL", pool)
        yield


def assert_bitwise(got, want):
    """Equal values, dtype and sign bits (a -0.0 is not a +0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))


# (mics, frames, bins) of the summand properties: frame counts around the
# 64-frame block, and bin counts that no tested group size divides
SUMMAND_SHAPES = st.tuples(st.integers(2, 8), st.sampled_from([1, 63, 64, 65, 200]),
                           st.sampled_from([3, 129]))
# an STFT configuration of each of those bin counts
SUMMAND_CONFIGS = {3: stft.StftConfig(fft_size=4, window_len=4, hop=2), 129: stft.StftConfig()}


def summand_pair(rng, shape):
    """Complex (x, v) of ``shape`` with per-channel scales over six decades,
    +0 and -0 entries, and entries where x + v cancels exactly."""

    def part():
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data *= 10.0 ** rng.uniform(-3, 3, size=(shape[0], 1, 1))
        data[rng.uniform(size=shape) < 0.2] = 0.0
        data[rng.uniform(size=shape) < 0.1] = complex(-0.0, -0.0)
        return data

    x, v = part(), part()
    cancel = rng.uniform(size=shape) < 0.1
    v[cancel] = -x[cancel]
    return x, v
