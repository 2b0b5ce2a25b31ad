"""Closed-form link analysis: amplitude pmfs, clipping variance, SNR, BER
and DCR energy efficiency.

All BER expressions are of the form alpha * Q(sqrt(SNR)) where SNR is the
squared argument of the dominant nearest-neighbor error event (pam_ber).
Gray square M-QAM is sqrt(M)-PAM on each axis, so its BER is
pam_ber(snr, isqrt(M)), to the last bit. The SNRs take noise_var, the
receiver noise variance channel.GAMMA * sigma2_n that the simulator draws.

The closed forms take scalars or arrays of powers, drives or SNRs
elementwise, so a power scan is one array pass. They take powers in
harness's [MIN_POWER_W, MAX_POWER_W], where no square or Gaussian z
quotient overflows, so only degenerate points are masks: a DCO bias with
no headroom, and an SNR over noise so small (or none) that its quotient
would overflow. No mask is np.errstate: after it, each numpy ufunc call
in the process costs about 70 ns more.

The HCM chip amplitude pmf accounts for the pinned u[0] = 0: each chip is a
sum of N-1 independent uniform M-ary terms, so the binary case is
Binomial(N-1, 1/2) with mean (N-1)/2. The transmitted per-symbol chip mean
is exactly (N-1)/2 for every frame, which the drive calibration relies on.

The Gaussian tail Q and the normal cdf Phi(a) = Q(-a) are built on
math.erfc (applied elementwise to arrays), so the package needs numpy only.
The tests hold Q to within 1e-12 relative of scipy.special.erfc wherever
scipy's value is at least 1e-300, and the Gaussian clipping tail variances
to 1e-12 relative of the same formulas on scipy.special.ndtr. The one
exception is a tail whose edge lies more than 4 std beyond the mean: its
two terms cancel there, which magnifies the last ulp of the probability, so
it is held to 1e-12 of its probability term instead.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hadamard import MAX_ORDER_LOG2, fwht

DCO_HEADROOM_FACTOR = 6.0  # AC std = min(bias, p_max - bias) / this
MIN_ETA_TRIALS = 10_000  # dcr_energy_efficiency's floor on its Monte-Carlo frames


@dataclass(frozen=True)
class AmplitudePmf:
    """Probability mass function over chip amplitudes k/(m-1)."""

    support: np.ndarray
    probs: np.ndarray

    def mean(self) -> float:
        return float(self.support @ self.probs)


_erfc_objects = np.frompyfunc(math.erfc, 1, 1)


def qfunc(x) -> np.ndarray:
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2.

    math.erfc is applied to each element: an array gives a float64 array of
    its shape, and a scalar or 0-d array gives an np.float64. It differs
    from Q on scipy.special.erfc by at most 5.7e-14 relative on [-40, 37],
    where Q >= 1e-300 (numpy 2.4, scipy 1.17, glibc libm).
    """
    z = np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    return 0.5 * np.asarray(_erfc_objects(z), dtype=np.float64)[()]


def _check_power_of_two(n: int):
    if n < 2 or n & (n - 1) or n > 1 << MAX_ORDER_LOG2:
        raise DomainError(f"n must be a power of two in [2, {1 << MAX_ORDER_LOG2}], got {n}")


def _check_order(m: int):
    if m < 2:
        raise DomainError(f"need m >= 2 levels, got m={m}")


def _window_power_row(m: int, n: int):
    """Coefficients c_k of (1 + x + ... + x**(m-1))**n as exact integers, in order.

    J. C. P. Miller's recurrence for a power of a polynomial (Knuth, TAOCP
    Vol. 2, 4.7): k c_k = (n+1) S1 - k S0 with S0 = sum c_(k-i) and
    S1 = sum i c_(k-i) over i = 1..m-1. Both window sums are updated in
    O(1) per coefficient, so the row takes O(n m) big-integer steps, and the
    division by k is exact. Only the last m coefficients are kept, so a
    caller that consumes the row as it goes holds m big integers, not the
    n (m-1) + 1 of the whole row.
    """
    window = deque([1], maxlen=m)
    yield 1
    s0 = s1 = 0
    for k in range(1, n * (m - 1) + 1):
        old = window[0] if k >= m else 0
        s0 += window[-1] - old
        s1 += s0 - (m - 1) * old
        window.append(((n + 1) * s1 - k * s0) // k)
        yield window[-1]


def hcm_amplitude_pmf(n: int, m: int) -> AmplitudePmf:
    """Exact pmf of one encoder output chip for random data frames.

    With u[0] pinned to 0, a chip equals the sum of N-1 iid uniform levels
    k/(m-1): Pr(x = k/(m-1)) = c_k / m**(N-1), where c_k is the coefficient
    of x**k in (1 + x + ... + x**(m-1))**(N-1).
    """
    _check_power_of_two(n)
    _check_order(m)
    denom = m ** (n - 1)
    # int / int is correctly rounded, however large the integers
    probs = np.fromiter((c / denom for c in _window_power_row(m, n - 1)), np.float64,
                        count=(n - 1) * (m - 1) + 1)
    support = np.arange(probs.size) / (m - 1)
    return AmplitudePmf(support=support, probs=probs)


def _uniform_ints(rng: np.random.Generator, m: int, shape: tuple, out=None) -> np.ndarray:
    """rng.integers(0, m, size=shape), read from raw words when that is cheaper.

    The values and the state rng is left in are those of rng.integers. They
    are cast into out, of any real dtype and possibly a strided view, and
    out is returned; without out they go to a new int64 array, the dtype of
    rng.integers. For a PCG64 generator and a power-of-two m <= 2**32,
    numpy draws each value from one 32-bit word: the low half, then the high
    half, of each 64-bit output, with the unused high half buffered in the
    state (has_uint32, uinteger) for the next 32-bit draw. Lemire's bounded
    multiply never rejects when m divides 2**32, so each value is the word's
    top log2(m) bits. This reads those words with random_raw, two values per
    call of the generator, and writes the buffer back into the state. Any
    other generator or m calls rng.integers.

    The half-words are shifted in place and cast in one copy into out: a
    shift from uint32 straight into int64 would allocate a full int64
    temporary. Drawn straight into the DCR calibration's float32 transform
    buffer, 20,000 frames at N = 128 take 4.7 ms, against 6.2 ms through an
    int64 array and a cast (2-core Xeon).

    Reading, then writing, the state is not atomic: rng must not be shared
    with another thread during the call (the package runs one thread).
    """
    out = np.empty(shape, dtype=np.int64) if out is None else out
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or m < 2 or m > 1 << 32 or m & (m - 1):
        np.copyto(out, rng.integers(0, m, size=out.shape), casting="unsafe")
        return out
    if out.size == 0:
        return out
    state = bitgen.state
    buffered, held = state["has_uint32"], state["uinteger"]
    need = out.size - buffered
    halves = bitgen.random_raw((need + 1) // 2).astype("<u8", copy=False).view("<u4")
    # numpy leaves uinteger at the last word's high half, used or not
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = need % 2, int(halves[-1]) if need else held
    bitgen.state = state
    if buffered:
        halves = np.concatenate((np.array([held], dtype=halves.dtype), halves))
    np.right_shift(halves, 33 - int(m).bit_length(), out=halves)
    np.copyto(out, halves[:out.size].reshape(out.shape), casting="unsafe")
    return out


CALIB_BLOCK_CHIPS = 1 << 16  # chips per DCR pmf block; (drive, chip) terms per clipping block


def dcr_amplitude_pmf(n: int, m: int, symbols: int, rng: np.random.Generator) -> AmplitudePmf:
    """Monte-Carlo pmf of DC-reduced chips (no closed form is known).

    Counted in the integer domain: with level indices idx in [0, m-1]
    (idx[0] = 0) the scaled chips are (m-1) x = ((m-1) N 1 + B c) / 2 with
    c = 2 idx - (m-1) 1. Since B 1 = N e_0, B c / 2 = t - (m-1) N / 2 e_0
    with t = B idx, so a DC-reduced chip sits on grid point k = t' - min t',
    where t' is t with (m-1) N / 2 taken off t[0]. Every entry of idx and
    every partial sum of fwht has magnitude at most (m-1) N, held exactly
    in float32 while that is below 2**24 (float64 otherwise), and fwht is
    exact on integers, so the counts, and the pmf, equal those of rounding
    the float chips of encode_levels for the same draws from rng.

    Frames are drawn and transformed in blocks of CALIB_BLOCK_CHIPS chips,
    which stay in cache. The block size does not change the draws: rng
    hands out the level indices in order across calls. The indices are
    drawn straight into one buffer and transformed into another, both reused
    by every block (with two BLAS threads a fresh transform output cost 162
    minor page faults a block at N = 2**16, the reused one 0.6), and the
    transform is copied once into an integer grid (int32; intp beside
    float64) for the shift and the row minima: on 128-wide rows the minima
    of 20,000 frames take 1.3 ms in int32, 3.4 ms in float32. A block is
    counted up to its own largest grid point, not over the whole support
    (512 KiB a block at N = 2**16, to reach about 1,200 bins).
    """
    _check_power_of_two(n)
    _check_order(m)
    if symbols < 1:
        raise DomainError(f"need at least one symbol, got {symbols}")
    dtype = np.float32 if (m - 1) * n < 1 << 24 else np.float64
    rows = max(1, CALIB_BLOCK_CHIPS // n)
    idx = np.zeros((rows, n), dtype=dtype)  # column 0 stays the pinned idx[0] = 0
    spread = np.empty((rows, n), dtype=dtype)  # the transform of each block
    grid = np.empty((rows, n), dtype=np.int32 if dtype is np.float32 else np.intp)
    counts = np.zeros((n - 1) * (m - 1) + 1, dtype=np.int64)
    done = 0
    while done < symbols:
        k = min(rows, symbols - done)
        _uniform_ints(rng, m, (k, n - 1), out=idx[:k, 1:])
        t = grid[:k]
        np.copyto(t, fwht(idx[:k], out=spread[:k]), casting="unsafe")
        t[:, 0] -= (m - 1) * n // 2
        t -= np.minimum.reduce(t, axis=-1, keepdims=True)
        seen = np.bincount(t.reshape(-1))
        counts[:seen.size] += seen
        done += k
    last = int(np.max(np.nonzero(counts)))
    probs = counts[: last + 1] / counts.sum()
    support = np.arange(last + 1) / (m - 1)
    return AmplitudePmf(support=support, probs=probs)


def clipping_variance_discrete(pmf: AmplitudePmf, p, n: int, p_max: float):
    """Distortion variance of top clipping for chips scaled by p/n, for each drive p,
    summed over blocks of at most CALIB_BLOCK_CHIPS (drive, chip) terms."""
    scales = np.asarray(p, dtype=np.float64) / n
    out = np.empty(scales.shape)
    rows = max(1, CALIB_BLOCK_CHIPS // pmf.support.size)
    for i in range(0, scales.size, rows):
        excess = np.multiply.outer(scales.flat[i:i + rows], pmf.support)
        excess -= p_max
        np.maximum(excess, 0.0, out=excess)  # only the chips above p_max clip
        excess *= excess
        excess *= pmf.probs
        out.flat[i:i + rows] = excess.sum(axis=-1)
        del excess  # freed before the next block is allocated
    return out[()]


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _tail_var(mean, std, edge, side: float):
    """E[(X - edge)^2 ; X beyond edge] for X ~ N(mean, std^2), std > 0 and a finite edge,
    side -1 below and +1 above; never below 0 where its terms cancel. Unguarded: for
    powers in harness's [MIN_POWER_W, MAX_POWER_W] the z quotient stays below 1e19 and
    the squares below 1e7, so a far tail reads 0 from Q and phi, not inf times 0."""
    mu = mean - edge  # = -z * std, for z = (edge - mean) / std
    r = mu / std
    var = (mu * mu + std * std) * qfunc(-side * r) + side * mu * std * _phi(r)
    return np.maximum(var, 0.0)[()]


def clipping_variance_gaussian(mean, variance, p_max: float):
    """Closed-form clipping distortion of a Gaussian amplitude clipped to [0, p_max]; its
    domain is a finite p_max and a positive variance (DomainError otherwise)."""
    if not math.isfinite(p_max) or np.any(np.asarray(variance) <= 0):
        raise DomainError(f"need a finite p_max and a positive variance, got p_max={p_max!r}")
    std = np.sqrt(variance)
    return _tail_var(mean, std, 0.0, side=-1.0) + _tail_var(mean, std, p_max, side=1.0)


def hcm_snr(m: int, n: int, p, noise_var: float, sigma2_clip):
    """Squared Q-argument of the dominant HCM/DCR-HCM error event.

    The decoded data components are (p/N) u + noise with noise variance
    (noise_var + sigma2_clip)/N, and the unipolar level grid spans
    [0, p/N], so the half-distance between neighbors is p/(2N(M-1)) and
    the squared Q-argument is (p/(2N(M-1)))**2 / (noise/N).
    """
    return _snr(1.0 / (m - 1.0) ** 2 * (p * p / (4.0 * n)), noise_var + sigma2_clip)


def _snr(signal, noise):
    """signal / noise, infinite where there is neither noise nor clipping or where the
    ratio would reach 2**1020, so that neither it nor the few-fold multiples the schemes
    take of it (QAM and peak SNRs) overflow."""
    out = np.full(np.broadcast(signal, noise).shape, np.inf)
    return np.divide(signal, noise, out=out, where=noise > signal * 2.0**-1020)[()]


def pam_ber(snr, m: int):
    """Gray M-PAM bit error rate at squared Q-argument snr."""
    prefactor = 2.0 * (m - 1) / (m * math.log2(m))
    return np.minimum(prefactor * qfunc(np.sqrt(snr)), 0.5)


def aco_time_std(n_fft: int) -> float:
    """Per-sample std of the unscaled ACO waveform (unit-energy QAM)."""
    return math.sqrt(1.0 / (2.0 * n_fft))


def dco_time_std(n_fft: int) -> float:
    """Per-sample std of the unscaled DCO AC waveform (unit-energy QAM)."""
    return math.sqrt((n_fft - 2.0) / (n_fft * n_fft))


def aco_scale(avg_power, n_fft: int):
    """The ACO-OFDM drive: the scale of the unit waveform at each nominal average power.

    A zero-clipped Gaussian of std sigma_x has mean sigma_x/sqrt(2*pi), so
    sigma_x = avg_power * sqrt(2*pi) and the scale is sigma_x over the unit
    waveform's aco_time_std. A sample is a sum of N/4 QAM terms, so that
    mean holds only as N grows: against the exact mean, for QAM-4 it reads
    +2.2 % at N = 16, -0.19 % at 64, -0.16 % at 128 and under 2e-4 from
    N = 1024.
    """
    sigma_x = np.asarray(avg_power, dtype=np.float64) * math.sqrt(2.0 * math.pi)
    return sigma_x / aco_time_std(n_fft)


def aco_es_snr(avg_power, n_fft: int, p_max: float, noise_var: float):
    """Per-symbol SNR of ACO-OFDM at each nominal drive average power.

    The waveform is the unit one times aco_scale, the simulated drive; only
    the p_max clip counts as distortion, modeled through the Gaussian tail
    integral.
    """
    scale = aco_scale(avg_power, n_fft)
    sigma2_clip = _tail_var(0.0, scale * aco_time_std(n_fft), p_max, side=1.0)
    return _snr(scale * scale, 4.0 * n_fft * (noise_var + sigma2_clip))


def dco_ac_std(bias, p_max: float):
    """AC std of the DCO waveform biased at each average power: the clipping
    headroom min(bias, p_max - bias) over the constant DCO_HEADROOM_FACTOR."""
    return np.minimum(bias, p_max - bias) / DCO_HEADROOM_FACTOR


def dco_scale(avg_power, n_fft: int, p_max: float):
    """The DCO-OFDM drive: the scale of the unit AC waveform biased at each average power,
    its AC std dco_ac_std over the unit waveform's dco_time_std."""
    return dco_ac_std(avg_power, p_max) / dco_time_std(n_fft)


def dco_es_snr(avg_power, n_fft: int, p_max: float, noise_var: float):
    """Per-symbol SNR of DCO-OFDM biased at each average power.

    The waveform is the unit one times dco_scale, the simulated drive, so
    the bias sweep trades signal power against double-sided clipping and
    the best point sits at p_max/2. A bias with no headroom scores 0.
    """
    bias = np.asarray(avg_power, dtype=np.float64)
    sigma_x = dco_ac_std(bias, p_max)
    room = sigma_x > 0
    bias, sigma_x, snr = bias[room], sigma_x[room], np.zeros(room.shape)
    sigma2_clip = clipping_variance_gaussian(bias, sigma_x * sigma_x, p_max)
    scale = dco_scale(bias, n_fft, p_max)
    snr[room] = _snr(scale * scale, n_fft * (noise_var + sigma2_clip))
    return snr[()]


def dcr_energy_efficiency(n: int, m: int, trials: int, rng: np.random.Generator) -> float:
    """Monte-Carlo eta = E{chip} / (E{chip} - E{min chip}); ratio >= 1.

    E{chip} is exactly (N-1)/2, and E{chip} - E{min chip} is the mean
    DC-reduced chip, read from dcr_amplitude_pmf over trials frames of rng.
    """
    if trials < MIN_ETA_TRIALS:
        raise DomainError(f"need at least {MIN_ETA_TRIALS} trials for a stable estimate")
    return (n - 1) / 2.0 / dcr_amplitude_pmf(n, m, trials, rng).mean()


def hcm_drive_peak(avg_power: float, n: int) -> float:
    """Unclipped peak P whose drive average is avg_power (chip mean (N-1)/2)."""
    return 2.0 * n * avg_power / (n - 1.0)
