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
from .hadamard import MAX_ORDER_LOG2, fwht

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


def _check_power_of_two(n: int):
    if n < 2 or n & (n - 1) or n > 1 << MAX_ORDER_LOG2:
        raise DomainError(f"n must be a power of two in [2, {1 << MAX_ORDER_LOG2}], got {n}")


def _check_order(m: int):
    if m < 2:
        raise DomainError(f"need m >= 2 levels, got m={m}")


def _window_power_row(m: int, n: int) -> list:
    """Coefficients c_k of (1 + x + ... + x**(m-1))**n as exact integers.

    J. C. P. Miller's recurrence for a power of a polynomial (Knuth, TAOCP
    Vol. 2, 4.7): k c_k = (n+1) S1 - k S0 with S0 = sum c_(k-i) and
    S1 = sum i c_(k-i) over i = 1..m-1. Both window sums are updated in
    O(1) per coefficient, so the row takes O(n m) big-integer steps, and the
    division by k is exact.
    """
    c = [1]
    s0 = s1 = 0
    for k in range(1, n * (m - 1) + 1):
        old = c[k - m] if k >= m else 0
        s0 += c[k - 1] - old
        s1 += s0 - (m - 1) * old
        c.append(((n + 1) * s1 - k * s0) // k)
    return c


def hcm_amplitude_pmf(n: int, m: int) -> AmplitudePmf:
    """Exact pmf of one encoder output chip for random data frames.

    With u[0] pinned to 0, a chip equals the sum of N-1 iid uniform levels
    k/(m-1): Pr(x = k/(m-1)) = c_k / m**(N-1), where c_k is the coefficient
    of x**k in (1 + x + ... + x**(m-1))**(N-1).
    """
    _check_power_of_two(n)
    _check_order(m)
    denom = m ** (n - 1)
    probs = np.array([c / denom for c in _window_power_row(m, n - 1)])
    support = np.arange(probs.size) / (m - 1)
    return AmplitudePmf(support=support, probs=probs)


DCR_BLOCK_CHIPS = 1 << 16  # chips per calibration block: 256 KiB in float32


def dcr_amplitude_pmf(n: int, m: int, symbols: int, rng: np.random.Generator) -> AmplitudePmf:
    """Monte-Carlo pmf of DC-reduced chips (no closed form is known).

    Counted in the integer domain: with level indices idx (idx[0] = 0) the
    scaled chips are (m-1) x = ((m-1) N + s) / 2 with s = B c and
    c = 2 idx - (m-1), so a DC-reduced chip sits on grid point
    k = (s - min s) / 2. Every entry of c and s is an integer of magnitude
    at most (m-1) N, held exactly in float32 while that is below 2**24
    (float64 otherwise), and fwht is exact on integers, so the counts, and
    the pmf, equal those of rounding the float chips of encode_levels for
    the same draws from rng.

    Frames are drawn and transformed in blocks of DCR_BLOCK_CHIPS chips,
    which stay in cache. The block size does not change the draws: rng
    hands out the level indices in order across calls.
    """
    _check_power_of_two(n)
    _check_order(m)
    if symbols < 1:
        raise DomainError(f"need at least one symbol, got {symbols}")
    dtype = np.float32 if (m - 1) * n < 1 << 24 else np.float64
    rows = max(1, DCR_BLOCK_CHIPS // n)
    c = np.empty((rows, n), dtype=dtype)
    c[:, 0] = 1 - m
    grid = np.empty((rows, n), dtype=np.intp)
    counts = np.zeros((n - 1) * (m - 1) + 1, dtype=np.int64)
    done = 0
    while done < symbols:
        k = min(rows, symbols - done)
        np.multiply(rng.integers(0, m, size=(k, n - 1)), 2, out=c[:k, 1:], casting="unsafe")
        c[:k, 1:] += 1 - m
        s = fwht(c[:k])
        s -= s.min(axis=-1, keepdims=True)
        np.multiply(s, 0.5, out=grid[:k], casting="unsafe")
        counts += np.bincount(grid[:k].reshape(-1), minlength=counts.size)
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


def hcm_snr(m: int, n: int, p: float, sigma2_n: float, sigma2_clip: float,
            gamma: float = DEFAULT_GAMMA) -> float:
    """Squared Q-argument of the dominant HCM/DCR-HCM error event.

    The decoded data components are (p/N) u + noise with noise variance
    (gamma*sigma2_n + sigma2_clip)/N, and the unipolar level grid spans
    [0, p/N], so the half-distance between neighbors is p/(2N(M-1)) and
    the squared Q-argument is (p/(2N(M-1)))**2 / (noise/N).
    """
    return _snr(1.0 / (m - 1.0) ** 2 * (p * p / (4.0 * n)), gamma * sigma2_n + sigma2_clip)


def _snr(signal: float, noise: float) -> float:
    """signal / noise, infinite when there is neither noise nor clipping."""
    return math.inf if noise == 0.0 else signal / noise


def pam_ber(snr: float, m: int) -> float:
    """Gray M-PAM bit error rate at squared Q-argument snr."""
    prefactor = 2.0 * (m - 1) / (m * math.log2(m))
    return min(prefactor * float(qfunc(math.sqrt(snr))), 0.5)


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
    return _snr(scale * scale, 4.0 * n_fft * (gamma * sigma2_n + sigma2_clip))


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
    return _snr(scale * scale, n_fft * (gamma * sigma2_n + sigma2_clip))


def dcr_energy_efficiency(n: int, m: int, trials: int, rng: np.random.Generator) -> float:
    """Monte-Carlo eta = E{chip} / (E{chip} - E{min chip}); ratio >= 1.

    E{chip} is exactly (N-1)/2, and E{chip} - E{min chip} is the mean
    DC-reduced chip, read from dcr_amplitude_pmf over trials frames of rng.
    """
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials for a stable estimate")
    return (n - 1) / 2.0 / dcr_amplitude_pmf(n, m, trials, rng).mean()


def hcm_drive_peak(avg_power: float, n: int) -> float:
    """Unclipped peak P whose drive average is avg_power (chip mean (N-1)/2)."""
    return 2.0 * n * avg_power / (n - 1.0)
