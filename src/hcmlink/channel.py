"""Optical front end: peak-power clipping, FIR propagation, receiver noise.

The LED is an ideal hard limiter on [0, p_max], and the link's only clip:
its lower edge is ACO-OFDM's zero clip. The discrete impulse
response has unit sum (channel loss folded out), and receiver noise is
AWGN whose variance is inflated by the constant pulse-shaping penalty GAMMA
(1.21, i.e. 0.83 dB), which the paper's link model fixes. Noise levels
quoted in microwatts are interpreted as the noise standard deviation in
watts. The link's parameters are fields of harness.ExperimentConfig, which
checks them when it is built; propagate takes only the values it reads.
"""

import numpy as np

from .errors import ConfigError

GAMMA = 1.21  # sinc pulse-shaping SNR penalty, 10*log10 = 0.83 dB


def check_taps(taps) -> np.ndarray:
    """taps as a float64 vector; ConfigError unless finite, non-negative and of unit sum."""
    h = np.asarray(taps, dtype=np.float64)
    if h.ndim != 1 or not (np.all(np.isfinite(h)) and np.all(h >= 0) and h.sum() > 0):
        raise ConfigError(f"taps must be a vector of finite, non-negative taps with a "
                          f"positive sum, got {h.tolist()}")
    if abs(h.sum() - 1.0) > 1e-9:
        raise ConfigError(f"taps must sum to 1, got {float(h.sum())!r}")
    return h


def propagate(samples: np.ndarray, h: np.ndarray, p_max: float, noise_var: float,
              normals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """LED clip to [0, p_max], FIR taps h, then AWGN sqrt(noise_var) * normals.

    Vectorized over leading axes. noise_var is the receiver noise variance
    with the pulse-shaping penalty already applied (GAMMA * sigma2_n).
    normals are standard normals of samples' shape; propagate only reads
    them, so one draw serves every drive of a sweep. The FIR output is
    truncated to the input length, so with a cyclic prefix of at least
    len(h)-1, which every ExperimentConfig has, the deframed payload equals
    the cyclic convolution of the payload with h.

    With `out` (float64, the shape of samples, not overlapping them) the
    received samples are written there, and samples, which must then be a
    C-contiguous float64 array, serve as scratch: they are clipped in place
    and then overwritten with the noise. Without `out` a copy of samples
    does that, so both forms return the same floats.
    """
    if out is None:
        samples = np.array(samples, dtype=np.float64, order="C")
        out = np.empty_like(samples)
    x = np.clip(samples, 0.0, p_max, out=samples)  # the LED limiter
    np.multiply(x, h[0], out=out)
    for ell in range(1, h.size):
        out[..., ell:] += h[ell] * x[..., :-ell]
    out += np.multiply(normals, np.sqrt(noise_var), out=x)
    return out
