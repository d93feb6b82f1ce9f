"""WAV read/write limited to 16-bit integer and 32-bit float PCM.

No resampling is performed anywhere in the package: a sample-rate mismatch
between a file and the processing configuration is an error.
"""

import numpy as np
from scipy.io import wavfile

from .errors import InvalidInputError


def read_wav(path, expected_rate=None):
    """Load a WAV file as ((channels, samples) float64, rate).

    Integer PCM is scaled to [-1, 1); float PCM is passed through.
    """
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise InvalidInputError(f"cannot read WAV {path}: {exc}") from exc
    if expected_rate is not None and rate != expected_rate:
        raise InvalidInputError(
            f"{path}: sample rate {rate} Hz does not match configured "
            f"{expected_rate} Hz (no resampling)"
        )
    if data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(np.float64)
    else:
        raise InvalidInputError(
            f"{path}: unsupported sample format {data.dtype}; "
            "use 16-bit PCM or 32-bit float"
        )
    if x.ndim == 1:
        x = x[np.newaxis, :]
    else:
        x = x.T  # scipy gives (samples, channels)
    return x, rate


def write_wav(path, data, rate, encoding="float32"):
    """Write (channels, samples) or (samples,) audio to a WAV file."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2:
        raise InvalidInputError("audio must be 1-D or (channels, samples)")
    samples = x.T if x.shape[0] > 1 else x[0]
    if encoding == "float32":
        wavfile.write(path, int(rate), samples.astype(np.float32))
    elif encoding == "pcm16":
        clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, int(rate), np.round(clipped * 32768.0).astype(np.int16))
    else:
        raise InvalidInputError(f"unsupported encoding {encoding!r}")
