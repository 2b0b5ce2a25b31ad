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

from .errors import ConfigError, DomainError

log = logging.getLogger(__name__)

DEFAULT_GAMMA = 1.21  # sinc pulse-shaping SNR penalty, 10*log10 = 0.83 dB


@dataclass(frozen=True)
class LinkConfig:
    """Physical-link parameters shared by all schemes.

    p is the scheme drive amplitude (unclipped peak for HCM, waveform scale
    for OFDM); sigma2_n is the receiver noise variance in W^2.
    """

    p: float
    p_max: float
    sigma2_n: float
    gamma: float = DEFAULT_GAMMA
    h: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    cp_len: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64))
        if self.h.ndim != 1 or self.h.size == 0:
            raise ConfigError("impulse response must be a non-empty vector")
        if np.any(self.h < 0):
            raise ConfigError("impulse response taps must be non-negative")
        if abs(self.h.sum() - 1.0) > 1e-9:
            raise ConfigError(f"impulse response must sum to 1, got {self.h.sum()!r}")
        if self.p_max <= 0:
            raise ConfigError("p_max must be positive")
        if self.sigma2_n < 0:
            raise ConfigError("sigma2_n must be non-negative")
        if self.gamma < 1.0:
            raise ConfigError("gamma must be >= 1")
        if self.cp_len < 0:
            raise ConfigError("cp_len must be >= 0")


def clip(samples: np.ndarray, p_max: float) -> np.ndarray:
    """Hard-limit samples to [0, p_max]."""
    return np.clip(samples, 0.0, p_max)


def propagate(samples: np.ndarray, config: LinkConfig, rng: np.random.Generator) -> np.ndarray:
    """LED clip, FIR channel, then AWGN; vectorized over leading axes.

    The FIR output is truncated to the input length, so with a cyclic prefix
    of at least len(h)-1 the deframed payload equals the cyclic convolution
    of the payload with h.
    """
    h = config.h
    if h.size > 1 and config.cp_len < h.size - 1:
        raise ConfigError(
            f"cyclic prefix {config.cp_len} too short for {h.size}-tap channel"
        )
    x = clip(np.asarray(samples, dtype=np.float64), config.p_max)
    out = h[0] * x
    for ell in range(1, h.size):
        out[..., ell:] += h[ell] * x[..., :-ell]
    noise_std = np.sqrt(config.sigma2_n * config.gamma)
    return out + rng.normal(0.0, noise_std, size=out.shape)


def illuminance_to_power(lux: float, ler: float, area_m2: float) -> float:
    """Received optical power (W) for an illuminance target.

    lux / ler is the irradiance in W/m^2 for a source with the given
    luminous efficacy of radiation (lm/W); multiplying by the detector area
    gives the collected power.
    """
    if lux <= 0 or ler <= 0 or area_m2 <= 0:
        raise DomainError("illuminance, LER and area must all be positive")
    return lux / ler * area_m2


def load_impulse_response(path) -> np.ndarray:
    """Read whitespace-separated taps and normalize them to unit sum."""
    taps = np.loadtxt(path, dtype=np.float64).reshape(-1)
    if taps.size == 0:
        raise ConfigError(f"no taps found in {path}")
    if np.any(taps < 0):
        raise ConfigError(f"negative tap in {path}")
    total = taps.sum()
    if total <= 0:
        raise ConfigError(f"taps in {path} sum to zero")
    if abs(total - 1.0) > 1e-6:
        log.warning("impulse response in %s sums to %.9g; renormalizing", path, total)
    return taps / total
