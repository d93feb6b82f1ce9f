"""Working-memory bounds of the streamed closed-form operations.

tracemalloc sees numpy's allocations.  Each bound is on the transient of one
call: its traced peak above the level at the start, the returned arrays
included, relative to the size of the tensor the call reads.  Whole-tensor
temporaries (a masked or conjugated copy, a frame tensor, a whole filtered
output, the mixture y = x + v, a real |x|^2) each cost a large
fraction of that size, so any one of them coming back breaks a bound.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from binaural_mwf.metrics import FilteredView, active_power, apply_filters, evaluate_filters
from binaural_mwf.scene import (
    _PARAMETRIC_PAD,
    ArrayGeometry,
    SceneSpec,
    _filter_multichannel,
    scene_response,
    synthesize_scene,
)
from binaural_mwf.spatial_stats import covariance_per_bin, estimate_coherence
from binaural_mwf.stft import SpectralTensor, StftConfig, synthesize

from conftest import pool_of


def transient(fn, *args, **kwargs):
    """Bytes ``fn(*args, **kwargs)`` allocated at its peak beyond the start."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    del result
    return peak - start


# Worker counts at which the bounds that depend on them are checked, whatever
# the host's CPU count: each worker holds one task's working set at a time.
WORKERS = (1, 2, 4)


@pytest.mark.parametrize("masked", [False, True], ids=["all frames", "masked"])
def test_covariance_holds_one_bin_at_a_time(masked):
    # one bin's frames per busy worker: 0.008 of the data each
    rng = np.random.default_rng(0)
    shape = (6, 4000, 129)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = rng.uniform(size=shape[1]) < 0.6 if masked else None
    tensor = SpectralTensor(data, StftConfig())
    for workers in WORKERS:
        with pool_of(workers):
            used = transient(covariance_per_bin, tensor, (mask,))
        assert used < 0.1 * data.nbytes, f"{workers} workers"


def test_scene_holds_two_tensors(speech, geometry, cfg, scene30):
    # x and v plus the noise steering's working set; the stored mixture
    # (3.10 tensors in all) or a whole-tensor |x|^2 (2.60) breaks it
    spec = SceneSpec(noise_azimuth=30.0, seed=11)
    used = transient(synthesize_scene, speech, spec, geometry, cfg)
    assert used < 2.55 * scene30.x.data.nbytes


def test_steering_forms_no_whole_response(speech):
    # relative to the (M, n_fft) real output: the output, the product
    # spectrum (1.0 each), the input spectrum, and per worker one chunk's
    # response temporaries or one row of inverse-FFT scratch: 2.75-2.80 at
    # two workers; a whole (M, bins) response costs 1.0 more (the
    # whole-grid form read 4.96)
    geometry = ArrayGeometry()
    n_fft = speech.size + 2 * _PARAMETRIC_PAD
    freqs = np.fft.rfftfreq(n_fft, 1.0 / 16000.0)
    out_bytes = geometry.total_mics * n_fft * 8
    with pool_of(2):
        used = transient(
            _filter_multichannel, speech,
            lambda chunk: scene_response(geometry, 30.0, 3.0, SceneSpec(), freqs[chunk]),
            geometry.total_mics, _PARAMETRIC_PAD)
    assert used < 3.2 * out_bytes


def test_coherence_forms_the_mixture_a_group_of_bins_at_a_time(scene30):
    # one 4-bin group of x + v per busy worker: 0.075 of x at one worker,
    # 0.12 at two and 0.20-0.21 at four; forming y = x + v whole first
    # costs a tensor (1.05 in all)
    for workers in WORKERS:
        with pool_of(workers):
            used = transient(estimate_coherence, (scene30.x, scene30.v), scene30.vad)
        assert used < 0.25 * scene30.x.data.nbytes, f"{workers} workers"


def test_synthesis_holds_one_block_of_frames(scene30, mwf30):
    # the enhanced path, filtered as the synthesis reads it: 0.22 of x here,
    # the audio included; a whole enhanced tensor (0.33) breaks it
    view = FilteredView(mwf30.filters, (scene30.x, scene30.v))
    assert transient(synthesize, view) < 0.3 * scene30.x.data.nbytes
    enhanced = apply_filters(mwf30.filters, (scene30.x, scene30.v))
    assert transient(synthesize, enhanced) < 1.0 * enhanced.data.nbytes


def test_evaluation_holds_one_filtered_output(scene30, mwf30, selector):
    # a copy starts without the scene's cached terms, so the first call
    # computes them too; 0.13 of x at one worker, 0.19 at four (0.45 with
    # 64-frame tasks), and one whole filtered output (0.33) breaks it
    size = scene30.x.data.nbytes
    for workers in WORKERS:
        fresh = dataclasses.replace(scene30)
        with pool_of(workers):
            for call in ("first", "later"):
                used = transient(evaluate_filters, mwf30.filters, fresh, selector)
                assert used < 0.3 * size, \
                    f"{workers} workers, {call} call: {used / size:.2f} of the tensor"


def test_evaluation_adds_at_most_one_task_per_worker(scene30, mwf30, selector):
    # a later call (the scene's terms cached) holds the active frames' power
    # buffer (0.10 of x) and one 16-frame filtered block per busy worker.
    # One task is measured as an active_power over 16 active frames (0.025
    # of x, its own small buffer included).  Over the buffer, one worker
    # held 1.03 tasks, and four workers held 0.065 of x more (2.6 tasks).
    # Filtering each worker's whole run at once holds about 30 tasks at one
    # worker, and 64-frame tasks about 4.
    fresh = dataclasses.replace(scene30)
    evaluate_filters(mwf30.filters, fresh, selector)
    active = fresh.vad.active
    sixteen = np.zeros_like(active)
    sixteen[np.flatnonzero(active)[:16]] = True
    with pool_of(1):
        task = transient(active_power, FilteredView(mwf30.filters, fresh.x).data, sixteen)
    buffer = np.count_nonzero(active) * 2 * fresh.x.config.bin_count * 8
    used = {}
    for workers in (1, 4):
        with pool_of(workers):
            used[workers] = transient(evaluate_filters, mwf30.filters, fresh, selector)
    assert used[1] - buffer < 2 * task, f"{(used[1] - buffer) / task:.1f} tasks at one worker"
    growth = used[4] - used[1]
    assert growth <= 3 * task, f"{growth / task:.1f} tasks more at four workers"
