"""Every artifact file: WAV audio, CSV tables and JSON documents.

WAV is 16-bit integer or 32-bit float PCM, never resampled: a sample-rate
mismatch between a file and the configuration is an error.  A CSV cell is
text as given, a Python int in decimal, else ``repr(float(v))``.  JSON is
indented by two with sorted keys and a closing newline, and a non-finite
float is written as ``null`` (RFC 8259).  Callers build rows and documents;
only this module decides their bytes.
"""

import json
import math

import numpy as np
from scipy.io import wavfile

from .errors import InvalidInputError


def read_wav(path, expected_rate):
    """Return the samples of a WAV file as (channels, samples) float64; a
    file at a rate other than ``expected_rate`` is an error.

    Integer PCM is scaled to [-1, 1); float PCM is passed through and must
    be finite.
    """
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise InvalidInputError(f"cannot read WAV {path}: {exc}") from exc
    if rate != expected_rate:
        raise InvalidInputError(
            f"{path}: sample rate {rate} Hz does not match configured "
            f"{expected_rate} Hz (no resampling)"
        )
    if data.dtype == np.int16:
        x = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(np.float64)
        if not np.all(np.isfinite(x)):
            raise InvalidInputError(f"{path}: non-finite samples (NaN or infinity)")
    else:
        raise InvalidInputError(
            f"{path}: unsupported sample format {data.dtype}; "
            "use 16-bit PCM or 32-bit float"
        )
    if x.ndim == 1:
        x = x[np.newaxis, :]
    else:
        x = x.T  # scipy gives (samples, channels)
    return x


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


def _cell(value):
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows):
    """Write the header line, then one comma-separated line per row."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _finite_or_null(value):
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, doc):
    """Write ``doc`` as indented, key-sorted JSON; non-finite floats as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
