import numpy as np
import pytest

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
    return spatial_stats.estimate_coherence(scene30.y, scene30.vad)


@pytest.fixture(scope="session")
def mwf30(phi30, selector):
    return solver.solve_all_bins(costs.CostSpec("mwf"), phi30, selector)


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
