"""The benchmark tracer's patches must apply to this package and undo cleanly.

``perfbench/tracing.py`` replaces functions where the program binds them; a
renamed or unbound name breaks ``install``, and a leaked patch would change
later runs.  The module is loaded by path, without writing bytecode next to
it.
"""

import threading
import types
from pathlib import Path

import numpy as np

from binaural_mwf import cli, costs, scene, solver, wavio
from binaural_mwf.spatial_stats import Selector

from conftest import pool_of, random_coherence_set

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_install_patches_and_restore_puts_back_every_original():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
        # the solve reaches the closed form through the traced names
        phi = random_coherence_set(np.random.default_rng(0), 4, 3,
                                   np.array([250.0, 500.0, 750.0]))
        sel = Selector(q_l=np.eye(4)[0], q_r=np.eye(4)[2])
        solver.solve_all_bins(costs.CostSpec("mwf"), phi, sel)
        assert tracer.calls["solver.solve"] == 1
        assert tracer.calls["solver.closed_form"] == 1
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr


def test_penalized_solve_reaches_the_optimizer_and_the_gated_cost():
    # one bin below the 1.5 kHz cue cutoff (one lockstep drive) and one above
    # it (a gated bin, costed through ``combined``)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        phi = random_coherence_set(np.random.default_rng(1), 4, 2,
                                   np.array([500.0, 3000.0]))
        sel = Selector(q_l=np.eye(4)[0], q_r=np.eye(4)[2])
        solver.solve_all_bins(costs.CostSpec("mwf-ic", 40.0), phi, sel)
        assert tracer.calls["solver.bfgs"] == 1
        assert tracer.calls["costs.combined"] >= 1
    finally:
        tracer.restore()


def test_every_span_of_a_process_run_opens_on_the_calling_thread(tmp_path):
    # the span stack is not thread-safe, so the worker pool stays inside
    # untraced callees (the covariance groups under the coherence estimate,
    # the active-frame power under the evaluation)
    speech = tmp_path / "speech.wav"
    wavio.write_wav(speech, scene.synthetic_speech(1.0, 16000.0, seed=7), 16000.0)
    conf = tmp_path / "c.conf"
    conf.write_text(f"scene.speech_wav = {speech}\nscene.noise_azimuth = 30\n"
                    f"run.seed = 42\nrun.out_dir = {tmp_path / 'out'}\n")
    tracer = load_tracing().Tracer()
    threads = set()
    call = tracer.call

    def recording(name, fn, *args, **kwargs):
        threads.add(threading.current_thread().name)
        return call(name, fn, *args, **kwargs)

    tracer.call = recording
    try:
        tracer.install()
        with pool_of(2):
            assert cli.main(["process", "--config", str(conf)]) == cli.EXIT_OK
    finally:
        tracer.restore()
    assert tracer.calls["spatial_stats.coherence"] == 1
    assert tracer.calls["metrics.evaluate"] == 1
    assert threads == {threading.current_thread().name}
