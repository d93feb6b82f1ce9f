"""The benchmark tracer's patches must apply to this package and undo cleanly.

``perfbench/tracing.py`` replaces functions where the program binds them; a
renamed or unbound name breaks ``install``, and a leaked patch would change
later runs.  The module is loaded by path, without writing bytecode next to
it.
"""

import types
from pathlib import Path

import numpy as np

from binaural_mwf import costs, solver
from binaural_mwf.spatial_stats import Selector

from conftest import random_coherence_set

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
