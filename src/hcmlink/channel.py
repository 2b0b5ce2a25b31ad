"""Optical front end: peak-power clipping, FIR propagation, receiver noise.

The LED is an ideal hard limiter on [0, p_max]. The discrete impulse
response is normalized to unit sum (channel loss folded out), and receiver
noise is AWGN whose variance is inflated by the pulse-shaping penalty gamma
(1.21, i.e. 0.83 dB). Noise levels quoted in microwatts are interpreted as
the noise standard deviation in watts.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

DEFAULT_GAMMA = 1.21  # sinc pulse-shaping SNR penalty, 10*log10 = 0.83 dB


@dataclass(frozen=True)
class LinkConfig:
    """Physical-link parameters shared by all schemes.

    sigma2_n is the receiver noise variance in W^2; cp_len must be at least len(h) - 1.
    """

    p_max: float
    sigma2_n: float
    gamma: float = DEFAULT_GAMMA
    h: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    cp_len: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h", check_taps(self.h))
        if abs(self.h.sum() - 1.0) > 1e-9:
            raise ConfigError(f"impulse response must sum to 1, got {float(self.h.sum())!r}")
        if not self.p_max > 0:
            raise ConfigError(f"p_max must be positive, got {self.p_max!r}")
        if not self.sigma2_n >= 0:
            raise ConfigError("sigma2_n must be non-negative")
        if not self.gamma >= 1.0:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma!r}")
        if self.cp_len < self.h.size - 1:
            raise ConfigError(
                f"cyclic prefix {self.cp_len} too short for {self.h.size}-tap channel")


def check_taps(taps, source: str = "impulse response") -> np.ndarray:
    """taps as a float64 vector; ConfigError unless finite, non-negative, summing above 0."""
    h = np.asarray(taps, dtype=np.float64)
    if h.ndim != 1 or not (np.all(np.isfinite(h)) and np.all(h >= 0) and h.sum() > 0):
        raise ConfigError(f"{source} must be a vector of finite, non-negative taps with a "
                          f"positive sum, got {h.tolist()}")
    return h


def propagate(samples: np.ndarray, config: LinkConfig, rng: np.random.Generator,
              out: np.ndarray | None = None) -> np.ndarray:
    """LED clip, FIR channel, then AWGN; vectorized over leading axes.

    The FIR output is truncated to the input length, so with the cyclic
    prefix of at least len(h)-1 that LinkConfig requires, the deframed
    payload equals the cyclic convolution of the payload with h.

    With `out` (float64, the shape of samples, not overlapping them) the
    received samples are written there, and samples, which must then be a
    C-contiguous float64 array, serve as scratch: they are clipped in place
    and then overwritten with the noise. Without `out` a copy of samples
    does that, so both forms draw the same noise from rng.
    """
    h = config.h
    if out is None:
        samples = np.array(samples, dtype=np.float64, order="C")
        out = np.empty_like(samples)
    x = np.clip(samples, 0.0, config.p_max, out=samples)  # the LED limiter
    np.multiply(x, h[0], out=out)
    for ell in range(1, h.size):
        out[..., ell:] += h[ell] * x[..., :-ell]
    # rng.normal(0, std) draws loc + std * z from the same stream of z
    noise = rng.standard_normal(out=x)
    noise *= np.sqrt(config.sigma2_n * config.gamma)
    out += noise
    return out


def load_impulse_response(path) -> np.ndarray:
    """Read whitespace-separated taps and normalize them to unit sum."""
    taps = check_taps(np.loadtxt(path, dtype=np.float64).reshape(-1), str(path))
    total = taps.sum()
    if abs(total - 1.0) > 1e-6:
        log.warning("impulse response in %s sums to %.9g; renormalizing", path, total)
    return taps / total
