"""Deterministic Monte-Carlo BER engine and sweep runner.

Reproducibility model: every power point gets a fixed schedule of
256-symbol chunks, and chunk j of point i draws all of its randomness from
an independent stream seeded by (master_seed, 0, i, j). A point runs its
chunks one after another in index order and applies the stopping rule
(target_errors or max_symbols) after each, so those streams and that order
fix every result. The DCR chip pmf and the interleaver search draw from
the reserved stream keys (1, 0) and (2, 0), so they never collide with
trial streams.

An ExperimentConfig holds the link and the sweep and checks both when it is
built, so every config the engine sees is valid. Each scheme is one entry
of the table _SCHEMES: its order check, bits per symbol, calibration, drive
mapping, analytic SNR and BER, transmit stage, and a receiver in two stages,
a linear estimate in decision units (PAM levels or QAM symbols) and a
decision that slices it to bits. The engine itself names no scheme. The
entries call other modules through this module's globals at call time,
never stored function objects, so a wrapper on a module attribute sees
every call. dco-ofdm is aco-ofdm's entry with its own layout, drive, SNR
and bias, and no transmit stage clips: propagate's LED limiter is ACO's zero clip.

Analytic columns: analyze, sweep and a lone run_point score their whole
power grid in one pass of _points, which calls the slicer's drive, snr and
ber once each, on the array. MMSE builds one filter per power, when that
point is taken, and drops it before the next: one O(N) filter at a time.

Chunk buffers: a sweep owns one _ChunkBuffers, CHUNK_SYMBOLS rows each,
allocated on its first chunk, and every scheme's stages write into them
through their `out=` arguments; propagate writes the received samples into
one, using the framed samples as scratch. The OFDM receiver multiplies the
data bins of the received spectrum once by c / (p H_k): the one-tap
equalizer, ACO's clipping factor c = 2 (1 for DCO) and the drive p in one
vector. After the first chunk a sweep allocates per chunk only the payload
bit array, its raw generator words and a few transient arrays (bit-group
values, an fwht intermediate, the slicer's scaled estimates, numpy's ufunc
buffers). The payload bits are those of rng.integers(0, 2), read by
analysis._uniform_ints two to a 64-bit PCG64 word instead of one bounded
draw per bit. The buffers matter because a
chunk array at N=128 is 256 KiB, above glibc's initial mmap threshold of
128 KiB: without the buffers each chunk allocated about ten of them, each
mapped fresh from the kernel and page-faulted in unless a block of 4 MiB
or more had been freed earlier in the process (as the old 4 MiB DCR
calibration blocks did). On a 2-core host an hcm sweep at N=128 then took
132-162 ms against 87-92 ms after such a free.

The average-power axis is the nominal drive average, i.e. the mean optical
power of the waveform before the peak-power limiter. This is the
conventional x-axis for clipping-distortion curves and keeps high-power
operating points meaningful for schemes whose post-clip average saturates
(ACO-OFDM cannot exceed p_max/2 after the limiter).
"""

import csv
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import analysis
from .analysis import (
    _uniform_ints,
    clipping_variance_discrete,
    dcr_amplitude_pmf,
    hcm_amplitude_pmf,
    hcm_drive_peak,
)
from .channel import GAMMA, check_taps, propagate
from .equalization import (
    MAX_MATRIX_ORDER,
    MmseWeights,
    interleaver_search,
    load_permutation,
    mmse_weights,
)
from .errors import ConfigError, DomainError
from .hadamard import MAX_ORDER_LOG2
from .modem_hcm import (
    _check_pam_order,
    deinterleave,
    decode_samples,
    encode_levels,
    frame_chips,
    interleave,
    levels_from_bits,
    slice_levels,
)
from .modem_ofdm import (
    _check_qam_order,
    aco_data_count,
    aco_extract,
    aco_time_samples,
    dco_data_count,
    dco_extract,
    dco_time_samples,
    one_tap_gains,
    qam_bits,
    qam_symbols,
)

CHUNK_SYMBOLS = 256  # symbols per chunk and its RNG stream; changing it changes every result
MIN_POWER_W, MAX_POWER_W = 1e-15, 1e3  # every power, 1 fW to 1 kW (ExperimentConfig)

BER_CSV_HEADER = ("avg_power_w", "symbols", "bit_errors", "ber", "ci95", "analytical_ber")
ANALYZE_CSV_HEADER = ("avg_power_w", "analytical_ber", "snr")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scheme, link and sweep. Building one checks it (ConfigError).

    The link is an LED clipped at p_max, unit-sum FIR taps h behind a
    cyclic prefix of at least len(h) - 1 samples, and AWGN of variance
    sigma2_n (W^2) times the pulse-shaping penalty channel.GAMMA; that and
    DCO's headroom factor analysis.DCO_HEADROOM_FACTOR are constants. A
    permutation file named as the interleaver is read and checked here.

    p_max and every grid power lie in [MIN_POWER_W, MAX_POWER_W], 1 fW to
    1 kW, which holds any LED: an infinite p_max, an unclipped LED, is
    rejected with the rest. In that range the closed forms' squared
    amplitudes and the Gaussian tails' z quotients stay finite at every
    order, so analysis carries no guard against their overflow.

    dcr-hcm calibrates its chip pmf on calib_symbols frames of N chips, so its
    set-up grows with N: with the default 20,000 frames, `hcmlink analyze` of
    one power takes 2.7 s at N = 2^14 and 9.4 s at N = 2^16, at 38 MiB peak
    RSS (2-core Xeon, 1 BLAS thread). The MMSE equalizer adds, per power, the
    O(N^2) error diagonal of equalization.mmse_weights (timed there).
    """

    scheme: str
    n: int = 128
    m: int = 2
    p_max: float = 1e-4
    power_grid: np.ndarray = field(default_factory=lambda: np.array([5e-5]))
    sigma2_n: float = 4e-12
    h: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    cp_len: int = 0
    target_errors: int = 200
    max_symbols: int = 40_000
    master_seed: int = 1
    equalizer: str = "slicer"  # "slicer" or "mmse"
    interleaver: str = "none"  # "none", "search" or a permutation file path
    interleaver_budget: int = 2000
    calib_symbols: int = 20_000

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.n < 4 or self.n & (self.n - 1) or self.n > 1 << MAX_ORDER_LOG2:
            raise ConfigError(
                f"n must be a power of two in [4, {1 << MAX_ORDER_LOG2}], got {self.n}")
        object.__setattr__(self, "h", check_taps(self.h))
        if not MIN_POWER_W <= self.p_max <= MAX_POWER_W:  # NaN fails too
            raise ConfigError(f"p_max must be positive and finite, in [{MIN_POWER_W:g}, "
                              f"{MAX_POWER_W:g}] W, got {self.p_max!r}")
        if not 0 <= self.sigma2_n < math.inf:
            raise ConfigError(f"sigma2_n must be finite and >= 0, got {self.sigma2_n!r}")
        if self.cp_len < self.h.size - 1:
            raise ConfigError(
                f"cyclic prefix {self.cp_len} too short for {self.h.size}-tap channel")
        grid = np.asarray(self.power_grid, dtype=np.float64)
        if not np.all((grid >= MIN_POWER_W) & (grid <= self.p_max)):
            raise ConfigError(f"power grid values must be finite, in [{MIN_POWER_W:g} W, p_max]")
        if self.target_errors < 100:
            raise ConfigError("target_errors must be >= 100 for a meaningful CI")
        for name in ("max_symbols", "calib_symbols", "interleaver_budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.cp_len >= self.n:
            raise ConfigError("cp_len must be in [0, n)")
        if self.equalizer not in ("slicer", "mmse"):
            raise ConfigError(f"equalizer must be slicer or mmse, got {self.equalizer!r}")
        if self.equalizer == "mmse" and self.sigma2_n == 0:
            # without noise the MMSE filter is 0/0 at a channel null
            raise ConfigError("mmse equalization needs noise_std_w > 0")
        if self.n > MAX_MATRIX_ORDER and self.interleaver == "search":
            raise ConfigError(
                f"the interleaver search supports n <= {MAX_MATRIX_ORDER}, got {self.n}")
        _SCHEMES[self.scheme].check(self)
        if self.interleaver not in ("none", "search"):  # a permutation file
            load_permutation(self.interleaver, self.n)

    @property
    def noise_var(self) -> float:
        """The receiver noise variance, GAMMA * sigma2_n."""
        return GAMMA * self.sigma2_n


class BerPoint(NamedTuple):
    """One power point's set-up: drive, MMSE filter and the analytic curve.

    A point of `analyze` carries only the analytic values: p and weights are
    None. A named tuple costs half a frozen dataclass to build, and a dense
    grid's analyze builds two per power.
    """

    avg_power: float
    p: float | None  # the scheme's drive amplitude
    weights: MmseWeights | None
    analytical_ber: float
    snr: float


@dataclass(frozen=True)
class AchievableSnr:
    spectral_efficiency: float
    max_snr: float
    best_avg_power: float


@dataclass(frozen=True)
class BerRecord:
    avg_power: float
    symbols_run: int
    bit_errors: int
    ber: float
    analytical_ber: float
    ci_95: float


def _parse_grid(text: str) -> np.ndarray:
    text = text.strip()
    for prefix, builder in (("lin:", np.linspace), ("log:", np.geomspace)):
        if text.startswith(prefix):
            parts = text[len(prefix):].split(":")
            if len(parts) != 3 or int(parts[2]) < 1:
                raise ConfigError(f"grid spec {text!r} must be {prefix}start:stop:count "
                                  "with a count >= 1")
            return builder(float(parts[0]), float(parts[1]), int(parts[2]))
    return np.array([float(v) for v in text.split(",")])  # float("") rejects an empty grid


def _noise_variance(value) -> float:
    """The variance of a noise std given in watts (text or number); ConfigError if negative."""
    std = float(value)
    if not std >= 0:
        raise ConfigError(f"noise_std_w must be >= 0, got {std!r}")
    return std * std


# config key -> (ExperimentConfig field, parser of the value text); a key
# left out of a config keeps the field's default
_CONFIG_KEYS = {
    "scheme": ("scheme", str),
    "n": ("n", int),
    "m": ("m", int),
    "p_max_w": ("p_max", float),
    "noise_std_w": ("sigma2_n", _noise_variance),
    "taps": ("h", lambda text: [float(v) for v in text.split(",")]),
    "cp_len": ("cp_len", int),
    "power_grid_w": ("power_grid", _parse_grid),
    "target_errors": ("target_errors", int),
    "max_symbols": ("max_symbols", int),
    "master_seed": ("master_seed", int),
    "equalizer": ("equalizer", str),
    "interleaver": ("interleaver", str),
    "interleaver_budget": ("interleaver_budget", int),
    "calib_symbols": ("calib_symbols", int),
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the key = value experiment format (one key per line, # comments)."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value
    if overrides:
        for key, value in overrides.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown override key {key!r}")
            raw[key] = value

    if raw.get("scheme") not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {raw.get('scheme')!r}")
    fields = {}
    for key, value in raw.items():
        name, parse = _CONFIG_KEYS[key]
        try:
            fields[name] = parse(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(**fields)


def _stream(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


def _check_ofdm(cfg: ExperimentConfig):
    _check_qam_order(cfg.m)
    if cfg.equalizer == "mmse":
        raise ConfigError("mmse equalization applies to hcm/dcr-hcm only")
    if cfg.interleaver != "none":
        raise ConfigError("interleaving applies to hcm/dcr-hcm only")


def _check_dco(cfg: ExperimentConfig):
    _check_ofdm(cfg)
    # the bias is the average power, so a point at p_max leaves no AC headroom
    if np.any(np.asarray(cfg.power_grid) >= cfg.p_max):
        raise ConfigError(f"dco-ofdm power grid values must lie below p_max={cfg.p_max:g}")


def _dcr_pmf(ctx: "_SweepContext"):
    cfg, rng = ctx.cfg, ctx.calib_rng
    if rng is None:
        rng = _stream(cfg.master_seed, 1, 0)
    return dcr_amplitude_pmf(cfg.n, cfg.m, cfg.calib_symbols, rng)


def _hcm_snr(ctx: "_SweepContext", avg):
    cfg = ctx.cfg
    p = ctx.scheme.drive(ctx, avg)
    sigma2_clip = clipping_variance_discrete(ctx.calib, p, cfg.n, cfg.p_max)
    return analysis.hcm_snr(cfg.m, cfg.n, p, cfg.noise_var, sigma2_clip)


def _hcm_tx(ctx: "_SweepContext", point: BerPoint, bits: np.ndarray,
            reduce_dc: bool = False) -> np.ndarray:
    cfg, work, k = ctx.cfg, ctx.work, len(bits)
    levels, chips = work.levels[:k], work.chips[:k]
    levels_from_bits(bits, cfg.m, cfg.n, out=levels)
    encode_levels(levels, out=chips)
    if reduce_dc:
        chips -= chips.min(axis=-1, keepdims=True)
    if ctx.perm is not None:
        chips = interleave(chips, ctx.perm, out=levels)
    return frame_chips(chips, point.p, cfg.cp_len, out=work.tx[:k])


def _hcm_estimate(ctx: "_SweepContext", point: BerPoint, y: np.ndarray) -> np.ndarray:
    n, p, work, k = ctx.cfg.n, point.p, ctx.work, len(y)
    if point.weights is not None:  # MMSE: the Wiener filter on the received chips
        spec = np.fft.rfft(y, out=work.spec[:k])
        spec *= point.weights.spectrum
        y = np.fft.irfft(spec, n, out=work.tx[:k, :n])
    if ctx.perm is not None:
        y = deinterleave(y, ctx.perm, out=work.levels[:k])
    # scaled whole, before the [:, 1:] view: one contiguous pass, not a strided one
    v = decode_samples(y, p, out=work.chips[:k])
    v *= n / p
    return v[:, 1:]


def _ofdm_tx(ctx: "_SweepContext", point: BerPoint, bits: np.ndarray, time_samples: Callable,
             biased: bool = False) -> np.ndarray:
    cfg, work, k = ctx.cfg, ctx.work, len(bits)
    tx = work.tx[:k]
    symbols = qam_symbols(bits, cfg.m, out=work.symbols[:k])
    x = time_samples(symbols, cfg.n, out=(work.spec[:k], tx[:, cfg.cp_len:]))
    x *= point.p
    if biased:  # DCO rides on the average power; ACO's zero clip is the LED limiter's
        x += point.avg_power
    tx[:, :cfg.cp_len] = tx[:, cfg.n:]
    return tx


def _qam_snr(ctx: "_SweepContext", avg, es_snr: Callable):
    """Square QAM's squared Q-argument per axis, 3 Es / (M - 1), at symbol SNR es_snr."""
    return 3.0 * es_snr(avg, ctx.cfg.n, ctx.cfg.p_max, ctx.cfg.noise_var) / (ctx.cfg.m - 1.0)


def _ofdm_estimate(ctx: "_SweepContext", point: BerPoint, y: np.ndarray,
                   extract: Callable) -> np.ndarray:
    # equalizing against p * H_k folds the drive into the one multiply by c / (p H_k)
    work, k = ctx.work, len(y)
    return extract(y, point.p * ctx.gains, out=(work.spec[:k], work.symbols[:k]))


@dataclass(frozen=True)
class _Scheme:
    """Everything the harness knows about one scheme (see the module docstring)."""

    check: Callable  # (cfg): PAM/QAM order and scheme limits; raises ConfigError
    data_count: Callable  # (n): PAM levels or QAM symbols per symbol
    calibrate: Callable  # (ctx): chip pmf or None
    # drive, snr and ber take a scalar or an array (of powers; ber of SNRs)
    drive: Callable  # (ctx, avg): unclipped peak (HCM family) or waveform scale (OFDM)
    snr: Callable  # (ctx, avg): squared Q-argument of the dominant error event
    ber: Callable  # (snr, m): analytic bit error rate
    tx: Callable  # (ctx, point, bits): unclipped transmit samples, cyclic prefix included;
    # a C-contiguous float64 array that propagate's LED limiter clips, then uses as scratch
    estimate: Callable  # (ctx, point, payload): a chunk buffer of PAM levels or QAM symbols
    decide: Callable  # (estimates, m, out): their bits, written to the pair out = (indices,
    # bits); the estimates may serve as scratch
    peak_snr_factor: float = 1.0  # achievable_snr reports this times snr


_HCM = _Scheme(
    check=lambda cfg: _check_pam_order(cfg.m),
    data_count=lambda n: n - 1,
    calibrate=lambda ctx: hcm_amplitude_pmf(ctx.cfg.n, ctx.cfg.m),
    # the per-symbol chip mean is exactly (n-1)/2 for every frame
    drive=lambda ctx, avg: hcm_drive_peak(avg, ctx.cfg.n),
    snr=_hcm_snr,
    ber=lambda snr, m: analysis.pam_ber(snr, m),
    tx=_hcm_tx,
    estimate=_hcm_estimate,
    decide=lambda est, m, out: slice_levels(est, m, out=out)[1],
    peak_snr_factor=4.0,
)

_ACO = _Scheme(
    check=_check_ofdm,
    data_count=lambda n: aco_data_count(n),
    calibrate=lambda ctx: None,
    drive=lambda ctx, avg: analysis.aco_scale(avg, ctx.cfg.n),
    snr=lambda ctx, avg: _qam_snr(ctx, avg, analysis.aco_es_snr),
    ber=lambda snr, m: analysis.pam_ber(snr, math.isqrt(m)),  # Gray QAM: PAM per axis
    tx=lambda ctx, point, bits: _ofdm_tx(ctx, point, bits, aco_time_samples),
    estimate=lambda ctx, point, y: _ofdm_estimate(ctx, point, y, aco_extract),
    decide=lambda est, m, out: qam_bits(est, m, out=out),
)

_SCHEMES = {
    "hcm": _HCM,
    "dcr-hcm": replace(
        _HCM,
        calibrate=_dcr_pmf,
        drive=lambda ctx, avg: avg * ctx.cfg.n / ctx.calib.mean(),
        tx=lambda ctx, point, bits: _hcm_tx(ctx, point, bits, reduce_dc=True),
    ),
    "aco-ofdm": _ACO,
    "dco-ofdm": replace(
        _ACO,
        check=_check_dco,
        data_count=lambda n: dco_data_count(n),
        drive=lambda ctx, avg: analysis.dco_scale(avg, ctx.cfg.n, ctx.cfg.p_max),
        snr=lambda ctx, avg: _qam_snr(ctx, avg, analysis.dco_es_snr),
        tx=lambda ctx, point, bits: _ofdm_tx(ctx, point, bits, dco_time_samples, biased=True),
        estimate=lambda ctx, point, y: _ofdm_estimate(ctx, point, y, dco_extract),
    ),
}
SCHEMES = tuple(_SCHEMES)


class _ChunkBuffers:
    """A sweep's work arrays for the chunk pipeline, CHUNK_SYMBOLS rows each.

    HCM: levels holds the PAM levels, then the interleaved chips, then the
    deinterleaved payload; chips holds the chips, then the decoded vectors
    v; spec holds the payload's spectrum for the MMSE filter. OFDM: symbols
    holds the QAM symbols sent, then those received; spec holds the half
    spectrum of the frames, then that of the payload. tx and rx hold the
    framed samples (tx is propagate's scratch, then the MMSE-filtered
    payload); idx and bits receive the decisions, an index and its bits for
    each PAM level or QAM symbol. A shorter last chunk uses [:k].
    np.empty commits no memory to the arrays a scheme never writes.
    """

    def __init__(self, cfg: ExperimentConfig, decision_shape: tuple):
        rows, n = CHUNK_SYMBOLS, cfg.n
        self.levels = np.empty((rows, n))
        self.chips = np.empty((rows, n))
        self.tx = np.empty((rows, n + cfg.cp_len))
        self.rx = np.empty((rows, n + cfg.cp_len))
        self.spec = np.empty((rows, n // 2 + 1), dtype=np.complex128)
        self.idx = np.empty((rows, decision_shape[0]), dtype=np.int64)
        self.bits = np.empty((rows, *decision_shape), dtype=np.int64)

    @cached_property
    def symbols(self) -> np.ndarray:
        # allocated on first use: HCM sweeps never read it
        return np.empty(self.idx.shape, dtype=np.complex128)


class _SweepContext:
    """Per-sweep precomputation shared by all power points; the channel is cfg.h.

    Every value beyond the sizes is built on its first read. perm is read only
    by _hcm_tx, _hcm_estimate and _mmse_point, so a slicer's analyze never
    searches; calib_rng (None: the reserved stream) only by _dcr_pmf.
    """

    def __init__(self, cfg: ExperimentConfig, calib_rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.scheme = _SCHEMES[cfg.scheme]
        self.decision_shape = self.scheme.data_count(cfg.n), int(math.log2(cfg.m))
        self.bits_per_symbol = math.prod(self.decision_shape)
        self.calib_rng = calib_rng

    @cached_property
    def work(self) -> _ChunkBuffers:
        """The sweep's chunk buffers, allocated on its first chunk."""
        return _ChunkBuffers(self.cfg, self.decision_shape)

    @cached_property
    def calib(self):
        """The scheme's calibration, built on first use: the HCM family's chip pmf, or None."""
        return self.scheme.calibrate(self)

    @cached_property
    def gains(self):
        """The channel spectrum rfft(h, N), built on first use (OFDM and MMSE read it)."""
        return one_tap_gains(self.cfg.h, self.cfg.n)

    @cached_property
    def points(self) -> Iterator[BerPoint]:
        """The points of the grid, from one _points pass on first read; each run_point
        of a sweep takes the next."""
        return _points(self, self.cfg.power_grid)

    @cached_property
    def perm(self):
        """The interleaver (None for none), built on first use; cfg has checked a file."""
        cfg = self.cfg
        if cfg.interleaver == "none":
            return None
        if cfg.interleaver == "search":
            return interleaver_search(cfg.h, cfg.n, budget=cfg.interleaver_budget,
                                      rng=_stream(cfg.master_seed, 2, 0))[0]
        return load_permutation(cfg.interleaver, cfg.n)


def _points(ctx: _SweepContext, grid) -> Iterator[BerPoint]:
    """Each power of grid's BerPoint, in grid order: drive, MMSE filter, analytic BER, SNR.

    The scheme's drive, and the slicer's snr and ber, are each called once,
    on the whole grid; they are elementwise, so each power's values are
    those of a grid of it alone. MMSE builds a point's filter when the point
    is taken: a caller that drops each point first holds one at a time.
    """
    cfg, scheme = ctx.cfg, ctx.scheme
    grid = np.asarray(grid, dtype=np.float64)
    rows = zip(grid.tolist(), scheme.drive(ctx, grid).tolist())
    if cfg.equalizer == "mmse":
        # the generator holds the filter's inputs, not ctx: were ctx.points a reference
        # cycle, a finished sweep's chunk buffers would wait for the garbage collector
        link = cfg, ctx.gains, ctx.perm if ctx.perm is not None else np.arange(cfg.n)
        return (_mmse_point(*link, avg, p) for avg, p in rows)
    snr = scheme.snr(ctx, grid)
    return (BerPoint(avg, p, None, ber, s)
            for (avg, p), ber, s in zip(rows, scheme.ber(snr, cfg.m).tolist(), snr.tolist()))


def _mmse_point(cfg: ExperimentConfig, gains: np.ndarray, perm: np.ndarray, avg_power: float,
                p: float) -> BerPoint:
    """A power's point under MMSE: its filter for drive p, and the BER and SNR of the
    Gaussian approximation on the filter's per-component residual error."""
    weights = mmse_weights(gains, perm, p, cfg.noise_var, cfg.m)
    err = np.sqrt(np.maximum(weights.error_diag[1:], 1e-300))
    half_dist = 0.5 / (cfg.m - 1)
    ber = float(np.mean(analysis.pam_ber((half_dist / err) ** 2, cfg.m)))
    return BerPoint(avg_power, p, weights, ber, float((half_dist / err.mean()) ** 2))


def _run_chunk(ctx: _SweepContext, point: BerPoint, rng: np.random.Generator,
               k: int) -> int:
    """One chunk of k symbols: tx, propagate, drop the prefix, estimate and decide;
    returns its bit errors."""
    bits = _uniform_ints(rng, 2, (k, ctx.bits_per_symbol))
    tx = ctx.scheme.tx(ctx, point, bits)
    cfg, work = ctx.cfg, ctx.work
    y = propagate(tx, cfg.h, cfg.p_max, cfg.noise_var, rng, out=work.rx[:k])[:, cfg.cp_len:]
    est = ctx.scheme.estimate(ctx, point, y)
    bits_hat = ctx.scheme.decide(est, cfg.m, (work.idx[:k], work.bits[:k]))
    return int(np.count_nonzero(bits_hat.reshape(k, -1) != bits))


def run_point(cfg: ExperimentConfig, avg_power: float, power_index: int = 0,
              ctx: _SweepContext | None = None) -> BerRecord:
    """Monte-Carlo one power point until target_errors or max_symbols.

    Chunk j draws from the stream keyed (0, power_index, j); the chunks run
    in index order and the point stops after the first one that brings the
    bit errors to target_errors. Without a context, avg_power is checked like
    a value of cfg's power grid and scored by _points as a grid of its own.
    A sweep passes its context and its grid's values in order, and each call
    takes the next point of the context's one pass (its filter, under MMSE).
    """
    ctx = ctx or _SweepContext(replace(cfg, power_grid=np.array([avg_power])))
    point = next(ctx.points)
    errors = symbols = 0
    # a lazy schedule: a huge max_symbols costs nothing beyond the chunks run
    for j, start in enumerate(range(0, cfg.max_symbols, CHUNK_SYMBOLS)):
        k = min(CHUNK_SYMBOLS, cfg.max_symbols - start)
        errors += _run_chunk(ctx, point, _stream(cfg.master_seed, 0, power_index, j), k)
        symbols += k
        if errors >= cfg.target_errors:
            break
    bits = symbols * ctx.bits_per_symbol

    ber = errors / bits if bits else 0.0
    if errors:
        ci = 1.96 * math.sqrt(ber * (1.0 - ber) / bits)
    else:
        ci = 3.0 / bits if bits else 0.0  # one-sided 95% upper bound (rule of three)
    return BerRecord(
        avg_power=avg_power,
        symbols_run=symbols,
        bit_errors=errors,
        ber=ber,
        analytical_ber=point.analytical_ber,
        ci_95=ci,
    )


def sweep(cfg: ExperimentConfig) -> list:
    """Run every grid point; returns BerRecords in grid order.

    The drives and analytic column are one pass of _points over the grid;
    MMSE builds each power's filter when its point runs, one at a time.
    """
    ctx = _SweepContext(cfg)
    return [run_point(cfg, p, i, ctx)
            for i, p in enumerate(np.asarray(cfg.power_grid, dtype=np.float64).tolist())]


def analyze(cfg: ExperimentConfig) -> list:
    """Analytical curve only, no Monte-Carlo: one BerPoint per grid value, with no drive
    and no MMSE filter.

    The column is one pass of _points over the grid. It builds only what
    the analytic values read: the hcm or dcr-hcm chip pmf, and for MMSE the
    interleaver, the channel spectrum and one filter per power, dropped once
    its error diagonal is read, before the next is built.
    """
    # map keeps no point once it is copied: its filter goes before the next is built
    return list(map(lambda pt: BerPoint(pt.avg_power, None, None, pt.analytical_ber, pt.snr),
                    _SweepContext(cfg).points))


def achievable_snr(scheme: str, p_max: float, sigma2_n: float, *, n: int, m: int) -> AchievableSnr:
    """Scan average power over (0, p_max] and return the best per-point SNR.

    The grid is log-spaced from p_max/100 with 200 points and scored in one
    array pass. p_max, m and sigma2_n are checked as a config's
    (ConfigError): p_max lies in [MIN_POWER_W, MAX_POWER_W], where no
    squared amplitude of the scan overflows. The grid's low end may fall
    below MIN_POWER_W: the Gaussian z quotients depend only on the ratio of
    a power to p_max, at most 100 here, so they stay finite too.

    max_snr is the squared Q-argument of the scheme's analytic BER times its
    peak_snr_factor: 4x for hcm and dcr-hcm, the squared ratio of the PAM
    level spacing to the noise std, which for m = 2 is the peak SNR (the
    decision distance is half the unipolar grid's peak), and 1x for the
    OFDM schemes.
    The noise variance is channel.GAMMA * sigma2_n, as in a config. The
    dcr-hcm chip pmf is a Monte-Carlo estimate over 30,000 frames drawn
    from np.random.default_rng(0x5EED); dco-ofdm's AC std is its headroom
    over the constant analysis.DCO_HEADROOM_FACTOR.
    """
    if scheme not in _SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    cfg = ExperimentConfig(scheme=scheme, n=n, m=m, p_max=p_max, power_grid=np.array([]),
                           sigma2_n=sigma2_n, calib_symbols=30_000)
    ctx = _SweepContext(cfg, np.random.default_rng(0x5EED))
    grid = np.geomspace(p_max * 1e-2, p_max, 200)
    snrs = ctx.scheme.peak_snr_factor * ctx.scheme.snr(ctx, grid)
    best = int(np.argmax(snrs))
    return AchievableSnr(
        spectral_efficiency=ctx.bits_per_symbol / n,
        max_snr=float(snrs[best]),
        best_avg_power=float(grid[best]),
    )


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def write_ber_csv(records, fh):
    writer = csv.writer(fh)
    writer.writerow(BER_CSV_HEADER)
    for r in records:
        writer.writerow(
            [_fmt(r.avg_power), r.symbols_run, r.bit_errors, _fmt(r.ber), _fmt(r.ci_95),
             _fmt(r.analytical_ber)]
        )


def write_analyze_csv(points, fh):
    writer = csv.writer(fh)
    writer.writerow(ANALYZE_CSV_HEADER)
    for p in points:
        writer.writerow([_fmt(p.avg_power), _fmt(p.analytical_ber), _fmt(p.snr)])
