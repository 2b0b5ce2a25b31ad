"""Deterministic Monte-Carlo BER engine and sweep runner.

Reproducibility model: every power point gets a fixed schedule of
256-symbol chunks, and chunk j of point i draws all of its randomness from
an independent stream seeded by (master_seed, 0, i, j). A point runs its
chunks one after another in index order and applies the stopping rule
(target_errors or max_symbols) after each, so those streams and that order
fix every result. Calibration samples (DCR chip pmf, ACO waveform mean,
interleaver search) use reserved stream keys (1, *) and (2, *) so they
never collide with trial streams.

An ExperimentConfig holds the link and the sweep and checks both when it is
built, so every config the engine sees is valid. Each scheme is one entry
of the table _SCHEMES: its order check, bits per symbol, calibration, drive
mapping, analytic SNR and BER, and transmit and receive stages. The engine
itself names no scheme.

Chunk buffers: a sweep owns one _ChunkBuffers, CHUNK_SYMBOLS rows of N or
N + cp_len samples each, allocated on its first chunk, and the HCM stages
write into them through their `out=` arguments; propagate writes every
scheme's received samples into one, and the MMSE step writes v - v_mean and
its estimate into two others. After the first chunk a sweep allocates per
chunk only the payload bit array, its raw generator words and a few
transient chunk-sized arrays (an fwht intermediate, the slicer's scaled
estimates, the level lookup). The payload bits are those of
rng.integers(0, 2), read by analysis._uniform_ints two to a 64-bit PCG64
word instead of one bounded draw per bit. The buffers matter because a
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
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import analysis
from .analysis import (
    _uniform_ints,
    clipping_variance_discrete,
    dcr_amplitude_pmf,
    hcm_amplitude_pmf,
    hcm_drive_peak,
    qfunc,
)
from .channel import DEFAULT_GAMMA, check_taps, load_impulse_response, propagate
from .equalization import (
    MAX_MATRIX_ORDER,
    MmseWeights,
    interference_matrix,
    interleaver_search,
    load_permutation,
    mmse_apply,
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
    prepend_cyclic_prefix,
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

BER_CSV_HEADER = ("avg_power_w", "symbols", "bit_errors", "ber", "ci95", "analytical_ber")
ANALYZE_CSV_HEADER = ("avg_power_w", "analytical_ber", "snr")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scheme, link and sweep. Building one checks it (ConfigError).

    The link is an LED clipped at p_max, unit-sum FIR taps h behind a
    cyclic prefix of at least len(h) - 1 samples, and AWGN of variance
    sigma2_n (W^2) times the pulse-shaping penalty gamma.

    dcr-hcm calibrates its chip pmf on calib_symbols frames of N chips, so its
    set-up grows with N: with the default 20,000 frames, `hcmlink analyze` of
    one power takes 2.5 s at N = 2^14 and 11 s at N = 2^16, at 63-64 MiB peak
    RSS (2-core Xeon, 1 BLAS thread).
    """

    scheme: str
    n: int = 128
    m: int = 2
    p_max: float = 1e-4
    power_grid: np.ndarray = field(default_factory=lambda: np.array([5e-5]))
    sigma2_n: float = 4e-12
    gamma: float = DEFAULT_GAMMA
    h: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    cp_len: int = 0
    target_errors: int = 200
    max_symbols: int = 40_000
    master_seed: int = 1
    equalizer: str = "slicer"  # "slicer" or "mmse"
    interleaver: str = "none"  # "none", "search" or a permutation file path
    interleaver_budget: int = 2000
    dco_headroom: float = analysis.DCO_HEADROOM_FACTOR
    calib_symbols: int = 20_000

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.n < 4 or self.n & (self.n - 1) or self.n > 1 << MAX_ORDER_LOG2:
            raise ConfigError(
                f"n must be a power of two in [4, {1 << MAX_ORDER_LOG2}], got {self.n}")
        object.__setattr__(self, "h", check_taps(self.h, unit_sum=True))
        if not self.p_max > 0:
            raise ConfigError(f"p_max must be positive, got {self.p_max!r}")
        if not 0 <= self.sigma2_n < math.inf:
            raise ConfigError(f"sigma2_n must be finite and >= 0, got {self.sigma2_n!r}")
        if not self.gamma >= 1.0:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma!r}")
        if self.cp_len < self.h.size - 1:
            raise ConfigError(
                f"cyclic prefix {self.cp_len} too short for {self.h.size}-tap channel")
        grid = np.asarray(self.power_grid, dtype=np.float64)
        if not np.all(np.isfinite(grid)):
            raise ConfigError("power grid values must be finite")
        if grid.size and (np.any(grid <= 0) or np.any(grid > self.p_max)):
            raise ConfigError("power grid values must lie in (0, p_max]")
        if self.target_errors < 100:
            raise ConfigError("target_errors must be >= 100 for a meaningful CI")
        if self.max_symbols < 1:
            raise ConfigError("max_symbols must be >= 1")
        if self.calib_symbols < 1:
            raise ConfigError(f"calib_symbols must be >= 1, got {self.calib_symbols}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.cp_len >= self.n:
            raise ConfigError("cp_len must be in [0, n)")
        if self.equalizer not in ("slicer", "mmse"):
            raise ConfigError(f"equalizer must be slicer or mmse, got {self.equalizer!r}")
        if self.equalizer == "mmse" and self.sigma2_n == 0:
            # u[0] has zero prior variance, so without noise the decoded-vector
            # covariance has rank N-1 on every channel and cannot be inverted
            raise ConfigError("mmse equalization needs noise_std_w > 0")
        if self.n > MAX_MATRIX_ORDER and (self.equalizer == "mmse"
                                          or self.interleaver == "search"):
            raise ConfigError(
                f"mmse and the interleaver search support n <= {MAX_MATRIX_ORDER}, got {self.n}")
        _SCHEMES[self.scheme].check(self)


@dataclass(frozen=True)
class BerPoint:
    """One power point's set-up: drive, MMSE weights and the analytic curve."""

    avg_power: float
    p: float  # the scheme's drive amplitude
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
            if len(parts) != 3:
                raise ConfigError(f"grid spec {text!r} must be {prefix}start:stop:count")
            return builder(float(parts[0]), float(parts[1]), int(parts[2]))
    if not text:
        return np.array([])
    return np.array([float(v) for v in text.split(",")])


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
    "gamma": ("gamma", float),
    "taps": ("h", lambda text: check_taps([float(v) for v in text.split(",")], "taps")),
    "taps_file": ("h", load_impulse_response),
    "cp_len": ("cp_len", int),
    "power_grid_w": ("power_grid", _parse_grid),
    "target_errors": ("target_errors", int),
    "max_symbols": ("max_symbols", int),
    "master_seed": ("master_seed", int),
    "equalizer": ("equalizer", str),
    "interleaver": ("interleaver", str),
    "interleaver_budget": ("interleaver_budget", int),
    "dco_headroom": ("dco_headroom", float),
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
    if "taps" in raw and "taps_file" in raw:
        raise ConfigError("give either taps or taps_file, not both")
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
    if not (math.isfinite(cfg.dco_headroom) and cfg.dco_headroom > 0):
        raise ConfigError(f"dco_headroom must be finite and > 0, got {cfg.dco_headroom!r}")
    # the bias is the average power, so a point at p_max leaves no AC headroom
    if np.any(np.asarray(cfg.power_grid, dtype=np.float64) >= cfg.p_max):
        raise ConfigError(f"dco-ofdm power grid values must lie below p_max={cfg.p_max:g}")


def _dcr_pmf(ctx: "_SweepContext"):
    cfg, rng = ctx.cfg, ctx.calib_rng
    if rng is None:
        rng = _stream(cfg.master_seed, 1, 0)
    return dcr_amplitude_pmf(cfg.n, cfg.m, cfg.calib_symbols, rng)


def _aco_unit_mean(ctx: "_SweepContext") -> float:
    cfg, rng = ctx.cfg, ctx.calib_rng
    if rng is None:
        rng = _stream(cfg.master_seed, 1, 1)
    bits = _uniform_ints(rng, 2, (4096, ctx.bits_per_symbol))
    raw = aco_time_samples(qam_symbols(bits, cfg.m), cfg.n)
    return float(np.maximum(raw, 0.0).mean())


def _dco_scale(ctx: "_SweepContext", avg: float) -> float:
    # the bias is the average; the AC std uses the clipping headroom
    cfg = ctx.cfg
    sigma_x = min(avg, cfg.p_max - avg) / cfg.dco_headroom
    return sigma_x / analysis.dco_time_std(cfg.n)


def _hcm_snr(ctx: "_SweepContext", avg: float) -> float:
    cfg = ctx.cfg
    p = ctx.scheme.drive(ctx, avg)
    sigma2_clip = clipping_variance_discrete(ctx.calib, p, cfg.n, cfg.p_max)
    return analysis.hcm_snr(cfg.m, cfg.n, p, cfg.sigma2_n, sigma2_clip, cfg.gamma)


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


def _hcm_rx(ctx: "_SweepContext", point: BerPoint, y: np.ndarray) -> np.ndarray:
    n, p, work, k = ctx.cfg.n, point.p, ctx.work, len(y)
    if ctx.perm is not None:
        y = deinterleave(y, ctx.perm, out=work.levels[:k])
    v = decode_samples(y, p, out=work.chips[:k])
    if point.weights is not None:
        est = mmse_apply(point.weights, v, p, out=(work.levels[:k], work.tx[:k, :n]))[:, 1:]
    else:
        est = v[:, 1:]
        est *= n / p
    return slice_levels(est, ctx.cfg.m, out=(work.idx[:k], work.bits[:k]))[1]


def _aco_tx(ctx: "_SweepContext", point: BerPoint, bits: np.ndarray) -> np.ndarray:
    raw = aco_time_samples(qam_symbols(bits, ctx.cfg.m), ctx.cfg.n)
    return prepend_cyclic_prefix(point.p * np.maximum(raw, 0.0), ctx.cfg.cp_len)


def _dco_tx(ctx: "_SweepContext", point: BerPoint, bits: np.ndarray) -> np.ndarray:
    raw = dco_time_samples(qam_symbols(bits, ctx.cfg.m), ctx.cfg.n)
    return prepend_cyclic_prefix(point.p * raw + point.avg_power, ctx.cfg.cp_len)


@dataclass(frozen=True)
class _Scheme:
    """Everything the harness knows about one scheme.

    The fields call modem, channel, equalization and analysis functions
    through this module's globals at call time, never through stored
    function objects, so a wrapper installed on a module attribute sees
    every call.
    """

    check: Callable  # (cfg): PAM/QAM order and scheme limits; raises ConfigError
    data_count: Callable  # (n): PAM levels or QAM symbols per symbol
    calibrate: Callable  # (ctx): chip pmf, ACO unit mean or None
    drive: Callable  # (ctx, avg): unclipped peak (HCM family) or waveform scale (OFDM)
    snr: Callable  # (ctx, avg): squared Q-argument of the dominant error event
    ber: Callable  # (snr, m): analytic bit error rate
    tx: Callable  # (ctx, point, bits): transmit samples, cyclic prefix included;
    # a C-contiguous float64 array that propagate then uses as scratch
    rx: Callable  # (ctx, point, payload): bit decisions
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
    rx=_hcm_rx,
    peak_snr_factor=4.0,
)

_SCHEMES = {
    "hcm": _HCM,
    "dcr-hcm": replace(
        _HCM,
        calibrate=_dcr_pmf,
        drive=lambda ctx, avg: avg * ctx.cfg.n / ctx.calib.mean(),
        tx=lambda ctx, point, bits: _hcm_tx(ctx, point, bits, reduce_dc=True),
    ),
    "aco-ofdm": _Scheme(
        check=_check_ofdm,
        data_count=lambda n: aco_data_count(n),
        calibrate=_aco_unit_mean,
        drive=lambda ctx, avg: avg / ctx.calib,
        snr=lambda ctx, avg: 3.0 * analysis.aco_es_snr(
            avg, ctx.cfg.n, ctx.cfg.p_max, ctx.cfg.sigma2_n, ctx.cfg.gamma) / (ctx.cfg.m - 1.0),
        ber=lambda snr, m: analysis.pam_ber(snr, math.isqrt(m)),  # Gray QAM: PAM per axis
        tx=_aco_tx,
        rx=lambda ctx, point, y: qam_bits(aco_extract(y, ctx.gains) / point.p, ctx.cfg.m),
    ),
    "dco-ofdm": _Scheme(
        check=_check_dco,
        data_count=lambda n: dco_data_count(n),
        calibrate=lambda ctx: None,
        drive=_dco_scale,
        snr=lambda ctx, avg: 3.0 * analysis.dco_es_snr(
            avg, ctx.cfg.n, ctx.cfg.p_max, ctx.cfg.sigma2_n, ctx.cfg.gamma,
            ctx.cfg.dco_headroom) / (ctx.cfg.m - 1.0),
        ber=lambda snr, m: analysis.pam_ber(snr, math.isqrt(m)),  # Gray QAM: PAM per axis
        tx=_dco_tx,
        rx=lambda ctx, point, y: qam_bits(dco_extract(y, ctx.gains) / point.p, ctx.cfg.m),
    ),
}
SCHEMES = tuple(_SCHEMES)


class _ChunkBuffers:
    """A sweep's work arrays for the chunk pipeline, CHUNK_SYMBOLS rows each.

    levels holds the PAM levels, then the interleaved chips, then the
    deinterleaved payload, then v - v_mean; chips holds the chips, then the
    decoded vectors v; tx and rx hold the framed samples (tx is propagate's
    scratch, then the MMSE estimate); idx and bits receive the slicer's
    decisions. A shorter last chunk uses [:k].
    OFDM chunks write only rx; np.empty commits no memory to the others.
    """

    def __init__(self, cfg: ExperimentConfig):
        rows, n = CHUNK_SYMBOLS, cfg.n
        self.levels = np.empty((rows, n))
        self.chips = np.empty((rows, n))
        self.tx = np.empty((rows, n + cfg.cp_len))
        self.rx = np.empty((rows, n + cfg.cp_len))
        self.idx = np.empty((rows, n - 1), dtype=np.int64)
        self.bits = np.empty((rows, n - 1, int(math.log2(cfg.m))), dtype=np.int64)


class _SweepContext:
    """Per-sweep precomputation shared by all power points; the channel is cfg.h."""

    def __init__(self, cfg: ExperimentConfig, calib_rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.scheme = _SCHEMES[cfg.scheme]
        self.bits_per_symbol = self.scheme.data_count(cfg.n) * int(math.log2(cfg.m))
        self.perm = self._resolve_interleaver()
        self.calib_rng = calib_rng  # None: the scheme's reserved calibration stream

    @cached_property
    def work(self) -> _ChunkBuffers:
        """The sweep's chunk buffers, allocated on its first chunk."""
        return _ChunkBuffers(self.cfg)

    @cached_property
    def calib(self):
        """The scheme's calibration, built on first use (an OFDM SNR scan never uses it)."""
        return self.scheme.calibrate(self)

    @cached_property
    def interference(self) -> np.ndarray:
        """Interference matrix of the interleaved taps, read by every point's MMSE weights."""
        perm = self.perm if self.perm is not None else np.arange(self.cfg.n)
        return interference_matrix(perm, self.cfg.h)

    @cached_property
    def gains(self):
        """One-tap subcarrier gains, built on first use (only the OFDM receivers read them)."""
        return one_tap_gains(self.cfg.h, self.cfg.n)

    def _resolve_interleaver(self):
        cfg = self.cfg
        if cfg.interleaver == "none":
            return None
        if cfg.interleaver == "search":
            return interleaver_search(cfg.h, cfg.n, budget=cfg.interleaver_budget,
                                      rng=_stream(cfg.master_seed, 2, 0))[0]
        return load_permutation(cfg.interleaver, cfg.n)


def _mmse_analytic(weights: MmseWeights, m: int) -> tuple[float, float]:
    # Gaussian approximation on the per-component residual error
    err = np.sqrt(np.maximum(weights.error_diag[1:], 1e-300))
    half_dist = 0.5 / (m - 1)
    prefactor = 2.0 * (m - 1) / (m * math.log2(m))
    ber = prefactor * float(np.mean(qfunc(half_dist / err)))
    snr = float((half_dist / err.mean()) ** 2)
    return min(ber, 0.5), snr


def _point_setup(ctx: _SweepContext, avg_power: float) -> BerPoint:
    cfg = ctx.cfg
    p = ctx.scheme.drive(ctx, avg_power)
    weights = None
    if cfg.equalizer == "mmse":
        weights = mmse_weights(ctx.interference, p, cfg.gamma * cfg.sigma2_n, cfg.m)
        analytic, snr = _mmse_analytic(weights, cfg.m)
    else:
        snr = ctx.scheme.snr(ctx, avg_power)
        analytic = ctx.scheme.ber(snr, cfg.m)
    return BerPoint(avg_power=avg_power, p=p, weights=weights, analytical_ber=analytic, snr=snr)


def _run_chunk(ctx: _SweepContext, point: BerPoint, rng: np.random.Generator,
               k: int) -> int:
    """One chunk of k symbols: tx, propagate, drop the prefix, rx; returns its bit errors."""
    bits = _uniform_ints(rng, 2, (k, ctx.bits_per_symbol))
    tx = ctx.scheme.tx(ctx, point, bits)
    cfg = ctx.cfg
    y = propagate(tx, cfg.h, cfg.p_max, cfg.gamma * cfg.sigma2_n, rng,
                  out=ctx.work.rx[:k])[:, cfg.cp_len:]
    bits_hat = ctx.scheme.rx(ctx, point, y)
    return int(np.count_nonzero(bits_hat.reshape(k, -1) != bits))


def _chunk_sizes(max_symbols: int) -> list:
    full, rem = divmod(max_symbols, CHUNK_SYMBOLS)
    return [CHUNK_SYMBOLS] * full + ([rem] if rem else [])


def run_point(cfg: ExperimentConfig, avg_power: float, power_index: int = 0,
              ctx: _SweepContext | None = None) -> BerRecord:
    """Monte-Carlo one power point until target_errors or max_symbols.

    Chunk j draws from the stream keyed (0, power_index, j); the chunks run
    in index order and the point stops after the first one that brings the
    bit errors to target_errors. avg_power is checked like a value of cfg's
    power grid.
    """
    replace(cfg, power_grid=np.array([avg_power]))  # the new config checks avg_power
    ctx = ctx or _SweepContext(cfg)
    point = _point_setup(ctx, avg_power)
    errors = symbols = 0
    for j, k in enumerate(_chunk_sizes(cfg.max_symbols)):
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
    """Run every grid point; returns BerRecords in grid order."""
    ctx = _SweepContext(cfg)
    return [
        run_point(cfg, float(p), i, ctx)
        for i, p in enumerate(np.asarray(cfg.power_grid, dtype=np.float64))
    ]


def analyze(cfg: ExperimentConfig) -> list:
    """Analytical curve only, no Monte-Carlo: one BerPoint per grid value; the points
    keep no MMSE weights."""
    ctx = _SweepContext(cfg)
    return [replace(_point_setup(ctx, float(p)), weights=None)
            for p in np.asarray(cfg.power_grid, dtype=np.float64)]


def achievable_snr(scheme: str, p_max: float, sigma2_n: float, *, n: int, m: int,
                   gamma: float) -> AchievableSnr:
    """Scan average power over (0, p_max] and return the best per-point SNR.

    The grid is log-spaced from p_max/100 with 200 points, so p_max must be
    finite (DomainError); m is the PAM or QAM order, checked like a config's.
    The per-point SNR is the squared Q-argument of the scheme's analytic BER,
    times the scheme's peak_snr_factor: hcm and dcr-hcm report 4x that, the
    squared ratio of the PAM level spacing to the noise std, which for m = 2
    is the peak SNR (the decision distance is half the unipolar grid's peak).
    The dcr-hcm chip pmf is a Monte-Carlo estimate over 30,000 frames drawn
    from np.random.default_rng(0x5EED); dco-ofdm uses the headroom factor
    analysis.DCO_HEADROOM_FACTOR.
    """
    if scheme not in _SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    cfg = ExperimentConfig(scheme=scheme, n=n, m=m, p_max=p_max, power_grid=np.array([]),
                           sigma2_n=sigma2_n, gamma=gamma, calib_symbols=30_000)
    if math.isinf(p_max):  # a valid config, an unclipped LED, but no grid to scan
        raise DomainError("the scan over (0, p_max] needs a finite p_max")
    ctx = _SweepContext(cfg, np.random.default_rng(0x5EED))
    grid = np.geomspace(p_max * 1e-2, p_max, 200)
    factor = ctx.scheme.peak_snr_factor
    snrs = np.array([factor * ctx.scheme.snr(ctx, float(a)) for a in grid])
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
