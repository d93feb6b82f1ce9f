"""Binaural multichannel Wiener filtering with interaural cue preservation.

Library layout:

- ``stft``          frame analysis / weighted overlap-add synthesis
- ``wavio``         WAV read/write (16-bit PCM, 32-bit float, no resampling)
- ``scene``         parametric binaural scene synthesis and ideal VAD
- ``spatial_stats`` coherence matrices and IPD/ITD/IC estimators
- ``costs``         Wiener, phase-penalty and coherence-penalty objectives
- ``solver``        closed-form Wiener, BFGS, alpha calibration and sweeps
- ``metrics``       SNR, intelligibility-weighted gain, cue-error measures
- ``phase_model``   phase distribution of a correlated complex-normal ratio
- ``cli``           batch front end (process / sweep / phase-pdf / calibrate)
"""

from .costs import CostSpec, FilterPair
from .errors import ConfigError, InvalidInputError
from .scene import ArrayGeometry, SceneSpec, ideal_vad, synthesize_scene, synthetic_speech
from .solver import SolverConfig, calibrate_alpha, mwf_closed_form, solve_all_bins
from .spatial_stats import CoherenceSet, CueEstimate, Selector, estimate_coherence
from .stft import SpectralTensor, StftConfig, analyze, synthesize

__all__ = [
    "ArrayGeometry",
    "CoherenceSet",
    "ConfigError",
    "CostSpec",
    "CueEstimate",
    "FilterPair",
    "InvalidInputError",
    "SceneSpec",
    "Selector",
    "SolverConfig",
    "SpectralTensor",
    "StftConfig",
    "analyze",
    "calibrate_alpha",
    "estimate_coherence",
    "ideal_vad",
    "mwf_closed_form",
    "solve_all_bins",
    "synthesize",
    "synthesize_scene",
    "synthetic_speech",
]

__version__ = "0.1.0"
