"""Closed-form link analysis: amplitude pmfs, clipping variance, SNR, BER
and DCR energy efficiency.

All BER expressions are of the form alpha * Q(sqrt(SNR)) where SNR is the
squared argument of the dominant nearest-neighbor error event (pam_ber,
qam_ber). The pulse-shaping penalty gamma multiplies the thermal noise
variance, matching what the simulator does.

The HCM chip amplitude pmf accounts for the pinned u[0] = 0: each chip is a
sum of N-1 independent uniform M-ary terms, so the binary case is
Binomial(N-1, 1/2) with mean (N-1)/2. The transmitted per-symbol chip mean
is exactly (N-1)/2 for every frame, which the drive calibration relies on.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, ndtr

from .channel import DEFAULT_GAMMA
from .errors import DomainError
from .modem_hcm import encode_levels

DCO_HEADROOM_FACTOR = 6.0  # AC std = min(bias, p_max - bias) / this


@dataclass(frozen=True)
class AmplitudePmf:
    """Probability mass function over chip amplitudes k/(m-1)."""

    support: np.ndarray
    probs: np.ndarray

    def mean(self) -> float:
        return float(self.support @ self.probs)


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x) via the complementary error function."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def extended_binomial(m: int, n: int) -> list:
    """Coefficients of (1 + x + ... + x**(m-1))**n as exact integers."""
    if m < 2 or n < 0:
        raise DomainError(f"need m >= 2 and n >= 0, got m={m}, n={n}")
    row = [1]
    for _ in range(n):
        new = [0] * (len(row) + m - 1)
        for j, c in enumerate(row):
            for k in range(m):
                new[j + k] += c
        row = new
    return row


def _check_power_of_two(n: int):
    if n < 2 or n & (n - 1):
        raise DomainError(f"n must be a power of two >= 2, got {n}")


def hcm_amplitude_pmf(n: int, m: int) -> AmplitudePmf:
    """Exact pmf of one encoder output chip for random data frames.

    With u[0] pinned to 0, a chip equals the sum of N-1 iid uniform levels
    k/(m-1): Pr(x = k/(m-1)) = C(m, N-1, k) / m**(N-1).
    """
    _check_power_of_two(n)
    coeffs = extended_binomial(m, n - 1)
    denom = m ** (n - 1)
    probs = np.array([c / denom for c in coeffs])
    support = np.arange(len(coeffs)) / (m - 1)
    return AmplitudePmf(support=support, probs=probs)


def dcr_amplitude_pmf(n: int, m: int, symbols: int, rng: np.random.Generator) -> AmplitudePmf:
    """Monte-Carlo pmf of DC-reduced chips (no closed form is known)."""
    _check_power_of_two(n)
    counts = np.zeros((n - 1) * (m - 1) + 1, dtype=np.int64)
    chunk = 4096
    done = 0
    while done < symbols:
        k = min(chunk, symbols - done)
        levels = np.zeros((k, n))
        levels[:, 1:] = rng.integers(0, m, size=(k, n - 1)) / (m - 1)
        chips = encode_levels(levels)
        reduced = chips - chips.min(axis=-1, keepdims=True)
        grid = np.rint(reduced * (m - 1)).astype(np.int64).reshape(-1)
        counts += np.bincount(grid, minlength=counts.size)
        done += k
    last = int(np.max(np.nonzero(counts)))
    probs = counts[: last + 1] / counts.sum()
    support = np.arange(last + 1) / (m - 1)
    return AmplitudePmf(support=support, probs=probs)


def clipping_variance_discrete(pmf: AmplitudePmf, p: float, n: int, p_max: float) -> float:
    """Distortion variance of top clipping for chips scaled by p/n."""
    amps = pmf.support * (p / n)
    excess = amps - p_max
    mask = excess > 0
    return float(np.sum(pmf.probs[mask] * excess[mask] ** 2))


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _lower_tail_var(mean: float, std: float, floor: float = 0.0) -> float:
    # E[(X - floor)^2 ; X < floor] for X ~ N(mean, std^2)
    a = (floor - mean) / std
    mu = mean - floor
    return float((mu * mu + std * std) * ndtr(a) - mu * std * _phi(a))


def _upper_tail_var(mean: float, std: float, cap: float) -> float:
    # E[(X - cap)^2 ; X > cap] for X ~ N(mean, std^2)
    if np.isinf(cap):
        return 0.0
    b = (cap - mean) / std
    mu = mean - cap
    return float((mu * mu + std * std) * (1.0 - ndtr(b)) + mu * std * _phi(b))


def clipping_variance_gaussian(mean: float, variance: float, p_max: float) -> float:
    """Closed-form clipping distortion of a Gaussian amplitude clipped to [0, p_max]."""
    if variance <= 0:
        raise DomainError("variance must be positive")
    std = math.sqrt(variance)
    lower = _lower_tail_var(mean, std, 0.0)
    return lower + _upper_tail_var(mean, std, p_max)


def hcm_peak_snr(m: int, n: int, p: float, sigma2_n: float, sigma2_clip: float,
                 gamma: float = DEFAULT_GAMMA) -> float:
    """Peak-signal to noise power ratio of the decoded data component.

    The decoded components are (p/N) u + noise with per-component noise
    variance (gamma*sigma2_n + sigma2_clip)/N, so the peak SNR is
    3/(gamma'(M^2-1)) * (p^2/N) / (sigma2_n + sigma2_clip)-shaped. This is
    the conventional reported "achievable SNR" for these links; for binary
    modulation it is 4x the squared decision Q-argument because the level
    grid is unipolar (the decision distance is half the peak).
    """
    return 4.0 * hcm_snr(m, n, p, sigma2_n, sigma2_clip, gamma)


def hcm_snr(m: int, n: int, p: float, sigma2_n: float, sigma2_clip: float,
            gamma: float = DEFAULT_GAMMA) -> float:
    """Squared Q-argument of the dominant HCM/DCR-HCM error event.

    The decoded data components are (p/N) u + noise with noise variance
    (gamma*sigma2_n + sigma2_clip)/N, and the unipolar level grid spans
    [0, p/N], so the half-distance between neighbors is p/(2N(M-1)).
    """
    noise = gamma * sigma2_n + sigma2_clip
    if noise == 0.0:
        return math.inf
    return 3.0 / (m * m - 1.0) * (p * p / (4.0 * n)) / noise


def pam_ber(snr: float, m: int) -> float:
    """Gray M-PAM bit error rate at squared Q-argument snr."""
    prefactor = 2.0 * (m - 1) / (m * math.log2(m))
    return min(prefactor * float(qfunc(math.sqrt(snr))), 0.5)


def hcm_analytical_ber(m: int, n: int, p: float, sigma2_n: float, sigma2_clip: float,
                       gamma: float = DEFAULT_GAMMA) -> float:
    """Approximate bit error rate of Gray-labeled M-PAM HCM."""
    return pam_ber(hcm_snr(m, n, p, sigma2_n, sigma2_clip, gamma), m)


def qam_ber(snr: float, m_qam: int) -> float:
    """Gray square-QAM bit error rate at squared Q-argument snr = 3 Es/N0 / (M-1)."""
    side = math.sqrt(m_qam)
    ber = 4.0 * (side - 1.0) / (side * math.log2(m_qam)) * float(qfunc(math.sqrt(snr)))
    return min(ber, 0.5)


def aco_time_std(n_fft: int) -> float:
    """Per-sample std of the unscaled ACO waveform (unit-energy QAM)."""
    return math.sqrt(1.0 / (2.0 * n_fft))


def dco_time_std(n_fft: int) -> float:
    """Per-sample std of the unscaled DCO AC waveform (unit-energy QAM)."""
    return math.sqrt((n_fft - 2.0) / (n_fft * n_fft))


def aco_es_snr(avg_power: float, n_fft: int, p_max: float, sigma2_n: float,
               gamma: float = DEFAULT_GAMMA) -> float:
    """Per-symbol SNR of ACO-OFDM at a nominal drive average power.

    The drive average (before the peak limiter) of a zero-clipped Gaussian
    is sigma_x/sqrt(2*pi); only the p_max clip counts as distortion and it
    is modeled through the Gaussian tail integral.
    """
    sigma_x = avg_power * math.sqrt(2.0 * math.pi)
    sigma2_clip = _upper_tail_var(0.0, sigma_x, p_max)
    scale = sigma_x / aco_time_std(n_fft)
    return scale * scale / (4.0 * n_fft * (gamma * sigma2_n + sigma2_clip))


def dco_es_snr(avg_power: float, n_fft: int, p_max: float, sigma2_n: float,
               gamma: float = DEFAULT_GAMMA,
               headroom_factor: float = DCO_HEADROOM_FACTOR) -> float:
    """Per-symbol SNR of DCO-OFDM biased at its average power.

    The AC std is tied to the clipping headroom min(bias, p_max - bias), so
    the bias sweep trades signal power against double-sided clipping and the
    best point sits at p_max/2.
    """
    bias = avg_power
    sigma_x = min(bias, p_max - bias) / headroom_factor
    if sigma_x <= 0:
        return 0.0
    sigma2_clip = clipping_variance_gaussian(bias, sigma_x * sigma_x, p_max)
    scale = sigma_x / dco_time_std(n_fft)
    return scale * scale / (n_fft * (gamma * sigma2_n + sigma2_clip))


def dcr_energy_efficiency_exact(n: int, m: int) -> float:
    """Exact eta by enumerating every data frame; only viable for small n."""
    frames = m ** (n - 1)
    if frames > 1 << 20:
        raise DomainError(f"{frames} frames is too many for exhaustive enumeration")
    idx = np.arange(frames)
    digits = np.zeros((frames, n))
    for pos in range(n - 1):
        digits[:, pos + 1] = (idx // m**pos) % m
    chips = encode_levels(digits / (m - 1))
    mean_chip = (n - 1) / 2.0
    e_min = float(chips.min(axis=-1).mean())
    return mean_chip / (mean_chip - e_min)


def dcr_energy_efficiency(n: int, m: int, trials: int, rng: np.random.Generator) -> float:
    """Monte-Carlo eta = E{chip} / (E{chip} - E{min chip}); ratio >= 1."""
    _check_power_of_two(n)
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials for a stable estimate")
    mean_chip = (n - 1) / 2.0
    total_min = 0.0
    chunk = 8192
    done = 0
    while done < trials:
        k = min(chunk, trials - done)
        levels = np.zeros((k, n))
        levels[:, 1:] = rng.integers(0, m, size=(k, n - 1)) / (m - 1)
        total_min += encode_levels(levels).min(axis=-1).sum()
        done += k
    e_min = total_min / trials
    return mean_chip / (mean_chip - e_min)


def hcm_drive_peak(avg_power: float, n: int) -> float:
    """Unclipped peak P whose drive average is avg_power (chip mean (N-1)/2)."""
    return 2.0 * n * avg_power / (n - 1.0)
