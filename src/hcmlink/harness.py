"""Deterministic Monte-Carlo BER engine and sweep runner.

Reproducibility model: a sweep runs a fixed schedule of 256-symbol
chunks, and chunk j draws all of its randomness from an independent stream
seeded by (master_seed, 0, j): the payload bits, then the standard normals.
Every power still running reads those draws (common random numbers), so
the points of a curve are paired. Each power applies its stopping rule
(target_errors or max_symbols) after each chunk, so a row depends only on
the config, the seed and the power, not on the grid around it. The DCR
chip pmf and the interleaver search draw from the reserved stream keys
(1, 0) and (2, 0), so they never collide with trial streams.

An ExperimentConfig holds the link and the sweep and checks both when it is
built, so every config the engine sees is valid. Each scheme is one entry
of the table _SCHEMES: its order check, bits per symbol, calibration, drive
mapping, analytic SNR (OFDM's through its per-symbol SNR, which no QAM
order changes) and BER, unit waveform and transmit stage, and a
receiver: its linear part into decision units (the PAM slicer's or QAM
slicer's folded form, the level index less half a step), the rest of it,
which depends on the drive (finish), a decision that slices the estimates
to bits, and the analytic column that models it. The entries call other
modules through this module's globals at call time, never stored function
objects, so a wrapper on a module attribute sees every call. dco-ofdm is
aco-ofdm's entry with its own layout, drive, SNR and bias. ACO's zero clip
commutes with a positive drive: the powers that share a block's estimate
take it on the unit waveform, and propagate's LED limiter makes it for the
others.

Each receiver is one entry too: _SCHEMES holds the slicers', and _MMSE
hcm's and dcr-hcm's with the Wiener filter's chunk stages and analytic
column. _receiver looks a config's entry up by scheme and equalizer (a
pair with no entry is a config error); past it the engine names no scheme
and no equalizer.

Analytic columns: analyze, sweep and a lone run_point score their whole
power grid in one pass of _points, which calls the entry's drive once, on
the array, and its column. The slicer's column calls snr and ber once
each, on the array. MMSE's builds one filter per power, when that point is
taken: analyze drops it before the next, one O(N) filter at a time, and a
sweep, which runs its powers side by side, when it returns.

Chunk path: the LED limiter is the link's one nonlinearity, and every
receiver is linear after it (the fwht decode, the Wiener filter, the
deinterleaver, the FFT with its one-tap equalizer). So _estimates works in
the units of one reference drive, where the receiver's linear part gives
the slicer's folded form. A power at which every row of a block clips
runs the whole link, scaled to those units: one propagate and one
receiver transform, the cost of a lone power. Two or more powers that
leave some row unclipped share one linear estimate: the block's unit
waveform goes once through propagate, at the reference drive with an
unclipped LED and the noise, and once through the receiver's linear part,
and so do its standard normals. Each of them then costs one scaled add of
the two, the limiter's excess through the taps and the receiver on the
rows from the first to the last that clip at its drive (none if no row
does), and the decision. The MMSE receiver's linear part is the
identity: it shares the received samples, and as its Wiener filter
depends on the drive, the FFT, filter, inverse FFT, deinterleaver and
decode run per power (finish).

Chunk buffers: a sweep owns one _ChunkBuffers, allocated on its first
chunk: the chunk's payload bits, one byte each, and one row block of at
most analysis.CALIB_BLOCK_CHIPS framed samples for each other array, so
past N = 256 the float arrays stop growing with N (whole-chunk arrays and
int64 bits took 1 GiB at N = 2**16). _run_chunk draws all the bits, then
runs the blocks: each draws its normals and builds its unit waveform once,
then scores every power from them. Every stage writes into the buffers
through its `out=` arguments, some into contiguous arrays laid over a
buffer that the block is done with (_rows). After the first chunk a sweep
allocates per block only transient arrays (the raw generator words,
bit-group values, an fwht intermediate, each row's peak, numpy's ufunc
buffers). The payload bits are those of rng.integers(0, 2), read by
analysis._uniform_ints two to a 64-bit PCG64 word instead of one bounded
draw per bit. The buffers matter because a chunk array at N=128 is 256
KiB, above glibc's initial mmap threshold of 128 KiB: without the buffers
each chunk allocated about ten of them, each mapped fresh from the kernel
and page-faulted in unless a block of 4 MiB or more had been freed earlier
in the process, so a sweep's speed hung on what the process had freed.

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
from functools import cached_property, partial
from itertools import repeat
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
from .channel import GAMMA, check_taps, fir, propagate
from .equalization import (
    MAX_MATRIX_ORDER,
    MmseWeights,
    interleaver_search,
    load_permutation,
    mmse_weights,
)
from .errors import ConfigError, DomainError
from .hadamard import MAX_ORDER_LOG2, fwht
from .modem_hcm import (
    _check_pam_order,
    decode_samples,
    deinterleave,
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
    qam_fold,
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
    rejected with the rest. The noise std is 0 or lies in that range too, so
    a nonzero noise variance is never subnormal. In that range the closed
    forms' squared amplitudes and the Gaussian tails' z quotients stay finite
    at every order, so analysis carries no guard against their overflow.

    dcr-hcm calibrates its chip pmf on calib_symbols frames of N chips, so its
    set-up grows as calib_symbols N log N, in the memory of one calibration
    block. A chunk's float arrays stop growing past N = 256, and its payload
    takes a byte a bit (see _ChunkBuffers), so a simulate's memory stops
    growing with N there too; a lone power runs the whole link, one
    transform a block. The MMSE receiver adds, per power, the O(N^2) error
    diagonal of equalization.mmse_weights.
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
        if not (self.sigma2_n == 0 or MIN_POWER_W**2 <= self.sigma2_n <= MAX_POWER_W**2):
            raise ConfigError(f"sigma2_n must be finite and >= 0: 0, or the square of a noise "
                              f"std in [{MIN_POWER_W:g}, {MAX_POWER_W:g}] W, got "
                              f"{self.sigma2_n!r}")
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
        if self.equalizer not in _RECEIVERS:
            raise ConfigError(f"equalizer must be slicer or mmse, got {self.equalizer!r}")
        if self.equalizer == "mmse" and self.sigma2_n == 0:
            # without noise the MMSE filter is 0/0 at a channel null
            raise ConfigError("mmse equalization needs noise_std_w > 0")
        if self.n > MAX_MATRIX_ORDER and self.interleaver == "search":
            raise ConfigError(
                f"the interleaver search supports n <= {MAX_MATRIX_ORDER}, got {self.n}")
        _receiver(self).check(self)
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
    """Parse the key = value experiment format (one key per line, # comments).

    A key may appear once in the text; an override replaces the text's value.
    """
    raw, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        raw[key], lines[key] = value, lineno
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
    if cfg.interleaver != "none":
        raise ConfigError("interleaving applies to hcm/dcr-hcm only")


def _check_dco(cfg: ExperimentConfig):
    _check_ofdm(cfg)
    # the bias is the average power, so a point at p_max leaves no AC headroom
    if np.any(np.asarray(cfg.power_grid) >= cfg.p_max):
        raise ConfigError(f"dco-ofdm power grid values must lie below p_max={cfg.p_max:g}")


def _dcr_pmf(ctx: "_SweepContext"):
    cfg, seed = ctx.cfg, ctx.calib_seed
    rng = _stream(cfg.master_seed, 1, 0) if seed is None else np.random.default_rng(seed)
    return dcr_amplitude_pmf(cfg.n, cfg.m, cfg.calib_symbols, rng)


def _hcm_snr(ctx: "_SweepContext", avg):
    cfg = ctx.cfg
    p = ctx.scheme.drive(ctx, avg)
    sigma2_clip = clipping_variance_discrete(ctx.calib, p, cfg.n, cfg.p_max)
    return analysis.hcm_snr(cfg.m, cfg.n, p, cfg.noise_var, sigma2_clip)


def _rows(buf: np.ndarray, r: int, width: int, dtype=np.float64) -> np.ndarray:
    """A C-contiguous (r, width) array of dtype laid over the start of buffer buf."""
    size = r * width * np.dtype(dtype).itemsize // buf.itemsize
    return buf.reshape(-1)[:size].view(dtype).reshape(r, width)


def _hcm_unit(ctx: "_SweepContext", bits: np.ndarray, reduce_dc: bool = False) -> np.ndarray:
    cfg, work, gathers, k = ctx.cfg, ctx.work, ctx.gathers, len(bits)
    levels = levels_from_bits(bits, cfg.m, cfg.n, out=work.levels[:k])
    chips = encode_levels(levels, out=(work.unit if gathers is None else work.chips)[:k])
    if reduce_dc:
        chips -= chips.min(axis=-1, keepdims=True)
    if gathers is not None:  # interleave
        chips = np.take(chips, gathers[0], axis=-1, out=work.unit[:k], mode="clip")
    return chips


def _deinterleaved(ctx: "_SweepContext", y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y deinterleaved into out, which may not overlap it; y itself with no interleaver."""
    return y if ctx.gathers is None else np.take(y, ctx.gathers[1], axis=-1, out=out, mode="clip")


def _hcm_received(ctx: "_SweepContext", y: np.ndarray, offset: float, buf: np.ndarray):
    """The data components of decode_samples(deinterleaved y, offset), copied to the
    start of buffer buf; tx is the decode's scratch."""
    out, v = _rows(buf, len(y), ctx.cfg.n - 1), _rows(ctx.work.tx, len(y), ctx.cfg.n)
    np.copyto(out, decode_samples(_deinterleaved(ctx, y, v), offset, out=v)[:, 1:])
    return out


def _hcm_whole(ctx: "_SweepContext", received: np.ndarray) -> np.ndarray:
    # at the reference drive N (m - 1) the decoded data components, offset by
    # the drive N (m - 2), are (m - 1) u - 1/2, the slicer's folded form
    return _hcm_received(ctx, received, ctx.cfg.n * (ctx.cfg.m - 2.0), ctx.work.levels)


def _hcm_share(ctx: "_SweepContext", received: np.ndarray, z: np.ndarray) -> tuple:
    cfg, work = ctx.cfg, ctx.work
    shared = _hcm_received(ctx, received, cfg.n * (cfg.m - 2.0), work.chips)
    noise = _hcm_received(ctx, z, 0.0, work.levels)
    return shared, noise, _rows(work.normals, len(z), cfg.n - 1)


def _hcm_excess(ctx: "_SweepContext", payload: np.ndarray) -> np.ndarray:
    cfg = ctx.cfg
    out = _rows(ctx.work.tx, len(payload), cfg.n)  # the framed excess has been through the taps
    # decode_samples without its offset: B y / N, here times m - 1
    v = fwht(_deinterleaved(ctx, payload, out), out=out)
    v *= (cfg.m - 1.0) / cfg.n
    return v[:, 1:]


def _mmse_share(ctx: "_SweepContext", received: np.ndarray, z: np.ndarray) -> tuple:
    # the drive-dependent filter comes after the sum (finish)
    shared = ctx.work.chips[:len(received)]
    np.copyto(shared, received)
    return shared, z, ctx.work.levels[:len(received)]


def _mmse_finish(ctx: "_SweepContext", point: BerPoint, est: np.ndarray) -> np.ndarray:
    # the Wiener filter on the received chips, then the slicer's whole receiver; the
    # filter has read the sum in levels when the estimates overwrite it
    r, n = len(est), ctx.cfg.n
    spec = np.fft.rfft(est, out=ctx.work.spec[:r])
    spec *= point.weights.spectrum
    return _hcm_whole(ctx, np.fft.irfft(spec, n, out=_rows(ctx.work.rx, r, n)))


def _ofdm_unit(ctx: "_SweepContext", bits: np.ndarray, time_samples: Callable) -> np.ndarray:
    work, k = ctx.work, len(bits)
    symbols = qam_symbols(bits, ctx.cfg.m, out=work.symbols[:k])
    return time_samples(symbols, ctx.cfg.n, out=(work.spec[:k], work.unit[:k]))


def _ofdm_tx(ctx: "_SweepContext", p: float, bias, unit: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    cp = ctx.cfg.cp_len
    x = np.multiply(unit, p, out=out[:, cp:])
    if bias is not None:  # DCO rides on a bias; ACO's zero clip is the LED limiter's
        x += bias
    out[:, :cp] = out[:, ctx.cfg.n:]
    return out


def _qam_snr(es, m: int):
    """Square M-QAM's squared Q-argument per axis, 3 Es / (M - 1), at symbol SNR es."""
    return 3.0 * es / (m - 1.0)


def _ofdm_whole(ctx: "_SweepContext", received: np.ndarray, extract: Callable) -> np.ndarray:
    work, r = ctx.work, len(received)
    gains, offset = ctx.qam_gains
    est = extract(received, gains, out=(work.spec[:r], work.symbols[:r]))
    est += offset
    return est


def _ofdm_share(ctx: "_SweepContext", received: np.ndarray, z: np.ndarray,
                extract: Callable) -> tuple:
    work, r, count = ctx.work, len(received), ctx.decision_shape[0]
    shared = _ofdm_whole(ctx, received, extract)
    # the FFT has read the normals before their estimate overwrites them
    noise = extract(z, ctx.qam_gains[0],
                    out=(work.spec[:r], _rows(work.normals, r, count, np.complex128)))
    return shared, noise, _rows(work.tx, r, count, np.complex128)


def _ofdm_excess(ctx: "_SweepContext", payload: np.ndarray, extract: Callable) -> np.ndarray:
    work, r = ctx.work, len(payload)
    return extract(payload, ctx.qam_gains[0], out=(
        work.spec[:r], _rows(work.rx, r, ctx.decision_shape[0], np.complex128)))


def _slicer_column(ctx: "_SweepContext", grid: np.ndarray, drives: list):
    snr = ctx.scheme.snr(ctx, grid)
    return map(BerPoint, grid.tolist(), drives, repeat(None),
               ctx.scheme.ber(snr, ctx.cfg.m).tolist(), snr.tolist())


@dataclass(frozen=True)
class _Scheme:
    """Everything the harness knows about one scheme and receiver (module docstring)."""

    check: Callable  # (cfg): PAM/QAM order and scheme limits; raises ConfigError
    data_count: Callable  # (n): PAM levels or QAM symbols per symbol
    calibrate: Callable  # (ctx): chip pmf or None
    # drive, snr and ber take a scalar or an array (of powers; ber of SNRs)
    drive: Callable  # (ctx, avg): unclipped peak (HCM family) or waveform scale (OFDM)
    snr: Callable  # (ctx, avg): squared Q-argument of the dominant error event
    # (cfg, avg): OFDM's per-symbol SNR, which its snr scales by the QAM order alone, so
    # one scan serves every order; None for the HCM family, whose chip pmf depends on m
    es_snr: Callable | None
    ber: Callable  # (snr, m): analytic bit error rate
    unit: Callable  # (ctx, bits): the waveform at unit drive, in the chunk buffer unit;
    # the LED input at drive p is unit * (p * gain(n)), plus the average power if biased
    # (ACO's before its zero clip)
    gain: Callable  # (n): 1 / n for the HCM family, 1 for OFDM
    reference: Callable  # (cfg): the drive of the shared estimate, at which the receiver
    # gives the slicer's folded form: N (m - 1) for the HCM family, 1 for OFDM
    tx: Callable  # (ctx, p, bias or None, unit, out): the LED input at drive p plus
    # bias, cyclic prefix included, in out, a C-contiguous float64 array
    whole: Callable  # (ctx, received): a whole link's payload received in the units of
    # the reference drive through the receiver's linear part, in a buffer the unit
    # waveform and the normals do not use (MMSE's linear part is the identity)
    share: Callable  # (ctx, received, z): the payload received at the reference drive
    # and the block's standard normals through the receiver's linear part: (shared,
    # noise, sum), the sum a C-contiguous scratch of their shape
    excess: Callable  # (ctx, payload): the payload of unit minus its clip to a drive's
    # limiter edges, after the taps, through that linear part, times reference * gain
    finish: Callable  # (ctx, point, sum): the rest of the receiver, which depends on the
    # drive (MMSE's Wiener filter, deinterleaver and decode; the slicers' identity)
    decide: Callable  # (estimates, m, out): their bits, written to the pair out = (indices,
    # bits); the estimates, in the folded form, serve as scratch
    # (ctx, grid, drives): each power's BerPoint in grid order, lazily; the slicers'
    # calls snr and ber once each on the grid, MMSE's builds a filter a point
    column: Callable = _slicer_column
    biased: bool = False  # the LED input rides on the average power (DCO)
    # the LED's zero clip commutes with a positive drive (ACO), so the powers that share
    # take it on the unit waveform
    zero_clip: bool = False
    peak_snr_factor: float = 1.0  # achievable_snr reports this times snr


_HCM = _Scheme(
    check=lambda cfg: _check_pam_order(cfg.m),
    data_count=lambda n: n - 1,
    calibrate=lambda ctx: hcm_amplitude_pmf(ctx.cfg.n, ctx.cfg.m),
    # the per-symbol chip mean is exactly (n-1)/2 for every frame
    drive=lambda ctx, avg: hcm_drive_peak(avg, ctx.cfg.n),
    snr=_hcm_snr,
    es_snr=None,
    ber=lambda snr, m: analysis.pam_ber(snr, m),
    unit=_hcm_unit,
    gain=lambda n: 1.0 / n,
    reference=lambda cfg: cfg.n * (cfg.m - 1.0),
    tx=lambda ctx, p, bias, unit, out: frame_chips(unit, p, ctx.cfg.cp_len, out=out),
    whole=_hcm_whole,
    share=_hcm_share,
    excess=_hcm_excess,
    finish=lambda ctx, point, est: est,
    decide=lambda est, m, out: slice_levels(est, m, out=out)[1],
    peak_snr_factor=4.0,
)

_ACO = _Scheme(
    check=_check_ofdm,
    data_count=lambda n: aco_data_count(n),
    calibrate=lambda ctx: None,
    drive=lambda ctx, avg: analysis.aco_scale(avg, ctx.cfg.n),
    snr=lambda ctx, avg: _qam_snr(ctx.scheme.es_snr(ctx.cfg, avg), ctx.cfg.m),
    es_snr=lambda cfg, avg: analysis.aco_es_snr(avg, cfg.n, cfg.p_max, cfg.noise_var),
    ber=lambda snr, m: analysis.pam_ber(snr, math.isqrt(m)),  # Gray QAM: PAM per axis
    unit=lambda ctx, bits: _ofdm_unit(ctx, bits, aco_time_samples),
    gain=lambda n: 1.0,
    reference=lambda cfg: 1.0,
    tx=_ofdm_tx,
    whole=lambda ctx, received: _ofdm_whole(ctx, received, aco_extract),
    share=lambda ctx, received, z: _ofdm_share(ctx, received, z, aco_extract),
    excess=lambda ctx, payload: _ofdm_excess(ctx, payload, aco_extract),
    finish=lambda ctx, point, est: est,
    decide=lambda est, m, out: qam_bits(est, m, out=out),
    zero_clip=True,
)

_SCHEMES = {
    "hcm": _HCM,
    "dcr-hcm": replace(
        _HCM,
        calibrate=_dcr_pmf,
        drive=lambda ctx, avg: avg * ctx.cfg.n / ctx.calib.mean(),
        unit=lambda ctx, bits: _hcm_unit(ctx, bits, reduce_dc=True),
    ),
    "aco-ofdm": _ACO,
    "dco-ofdm": replace(
        _ACO,
        check=_check_dco,
        data_count=lambda n: dco_data_count(n),
        drive=lambda ctx, avg: analysis.dco_scale(avg, ctx.cfg.n, ctx.cfg.p_max),
        es_snr=lambda cfg, avg: analysis.dco_es_snr(avg, cfg.n, cfg.p_max, cfg.noise_var),
        unit=lambda ctx, bits: _ofdm_unit(ctx, bits, dco_time_samples),
        whole=lambda ctx, received: _ofdm_whole(ctx, received, dco_extract),
        share=lambda ctx, received, z: _ofdm_share(ctx, received, z, dco_extract),
        excess=lambda ctx, payload: _ofdm_excess(ctx, payload, dco_extract),
        biased=True,
        zero_clip=False,
    ),
}
SCHEMES = tuple(_SCHEMES)
# the HCM family with the MMSE receiver (module docstring); ExperimentConfig has
# checked that there is noise, which the filter divides by
_MMSE = {name: replace(
    _SCHEMES[name],
    whole=lambda ctx, received: received,
    share=_mmse_share,
    # the framed excess has been through the taps
    excess=lambda ctx, payload: np.multiply(payload, ctx.cfg.m - 1.0,
                                            out=_rows(ctx.work.tx, len(payload), ctx.cfg.n)),
    finish=_mmse_finish,
    column=lambda ctx, grid, drives: map(partial(_mmse_point, ctx), grid.tolist(), drives),
) for name in ("hcm", "dcr-hcm")}
_RECEIVERS = {"slicer": _SCHEMES, "mmse": _MMSE}


def _receiver(cfg: ExperimentConfig) -> _Scheme:
    """cfg's entry: its scheme's, with the receiver its equalizer names; ConfigError if
    the equalizer has none for the scheme."""
    entries = _RECEIVERS[cfg.equalizer]
    if cfg.scheme not in entries:
        raise ConfigError(f"{cfg.equalizer} equalization applies to {'/'.join(entries)} only")
    return entries[cfg.scheme]


class _ChunkBuffers:
    """A sweep's work arrays for the chunk pipeline: the chunk's payload bits
    (uint8, CHUNK_SYMBOLS rows) and one row block of everything else.

    A block holds at most analysis.CALIB_BLOCK_CHIPS framed samples: 256
    rows up to N = 256 without a prefix, one at N = 2**16. unit holds the
    block's waveform at unit drive and normals its standard normals; tx is
    propagate's scratch, then each power's framed excess, and rx the
    received samples, then the excess after the taps; each is then reused
    for that excess's estimate. HCM: levels and chips hold the PAM levels
    and the chips before the interleaver, then a whole-link power's
    estimates (slicer, in levels), then the block's noise and shared
    estimates (slicer) or the MMSE sum and the shared samples; the slicer
    sums each power over the normals. OFDM: symbols holds the QAM symbols
    sent, then a whole-link power's estimate or the shared one; the noise
    estimate replaces the normals, and tx holds each power's sum. spec
    holds the half spectra. So each
    scheme writes the buffers it wrote before the estimate was shared, and
    no others. idx and bits receive the decisions, an index and its bits
    for each PAM level or QAM symbol. The bits are uint8; the indices stay
    intp, as np.take would convert any other index dtype to a new intp
    array. A shorter block uses [:k]. np.empty commits no memory to the
    arrays a scheme never writes.
    """

    def __init__(self, cfg: ExperimentConfig, decision_shape: tuple):
        n, width = cfg.n, cfg.n + cfg.cp_len
        rows = min(CHUNK_SYMBOLS, max(1, analysis.CALIB_BLOCK_CHIPS // width))
        self.payload = np.empty((CHUNK_SYMBOLS, math.prod(decision_shape)), dtype=np.uint8)
        self.unit = np.empty((rows, n))
        self.normals = np.empty((rows, width))
        self.levels = np.empty((rows, n))
        self.chips = np.empty((rows, n))
        self.tx = np.empty((rows, width))
        self.rx = np.empty((rows, width))
        self.spec = np.empty((rows, n // 2 + 1), dtype=np.complex128)
        self.idx = np.empty((rows, decision_shape[0]), dtype=np.intp)
        self.bits = np.empty((rows, *decision_shape), dtype=np.uint8)

    @cached_property
    def symbols(self) -> np.ndarray:
        # allocated on first use: HCM sweeps never read it
        return np.empty(self.idx.shape, dtype=np.complex128)


class _SweepContext:
    """Per-sweep precomputation shared by all power points; the channel is cfg.h.

    scheme is cfg's entry, looked up once (_receiver). Every value beyond it
    and the sizes is built on its first read. perm is read only by gathers,
    which the HCM chunk stages read, and by the MMSE entry's analytic column,
    so a slicer's analyze never searches; calib_seed (None: the reserved
    stream) only by _dcr_pmf, which seeds its generator then, so no other
    scheme builds one.
    """

    def __init__(self, cfg: ExperimentConfig, calib_seed: int | None = None):
        self.cfg = cfg
        self.scheme = _receiver(cfg)
        self.decision_shape = self.scheme.data_count(cfg.n), int(math.log2(cfg.m))
        self.bits_per_symbol = math.prod(self.decision_shape)
        self.calib_seed = calib_seed

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
    def qam_gains(self) -> tuple:
        """The channel spectrum over qam_fold's scale and the fold's offset on both axes:
        the one-tap equalizer against those gains, plus the offset, gives the QAM
        slicer's folded form (OFDM reads it)."""
        scale, offset = qam_fold(self.cfg.m)
        return self.gains / scale, offset * (1 + 1j)

    @cached_property
    def records(self) -> Iterator[BerRecord]:
        """The grid's records, from one chunk-major pass on first read; each run_point
        of a sweep takes the next."""
        return iter(_records(self))

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

    @cached_property
    def gathers(self):
        """The indices that interleave and deinterleave gather through, or None: perm's
        inverse and perm, each the public function of arange(N), which checks perm
        once a sweep, not once a row block."""
        if self.perm is None:
            return None
        ramp = np.arange(self.cfg.n)
        return interleave(ramp, self.perm), deinterleave(ramp, self.perm)


def _points(ctx: _SweepContext, grid) -> Iterator[BerPoint]:
    """Each power of grid's BerPoint, in grid order: drive, MMSE filter, analytic BER, SNR.

    The entry's drive is called once, on the whole grid, and so are the
    slicer's snr and ber, in its column; they are elementwise, so each
    power's values are those of a grid of it alone. MMSE's column builds a
    point's filter when the point is taken: a caller that drops each point
    first holds one at a time.
    """
    grid = np.asarray(grid, dtype=np.float64)
    return ctx.scheme.column(ctx, grid, ctx.scheme.drive(ctx, grid).tolist())


def _mmse_point(ctx: _SweepContext, avg_power: float, p: float) -> BerPoint:
    """A power's point under MMSE: its filter for drive p, and the BER and SNR of the
    Gaussian approximation on the filter's per-component residual error."""
    cfg = ctx.cfg
    perm = ctx.perm if ctx.perm is not None else np.arange(cfg.n)
    weights = mmse_weights(ctx.gains, perm, p, cfg.noise_var, cfg.m)
    err = np.sqrt(np.maximum(weights.error_diag[1:], 1e-300))
    half_dist = 0.5 / (cfg.m - 1)
    ber = float(np.mean(analysis.pam_ber((half_dist / err) ** 2, cfg.m)))
    return BerPoint(avg_power, p, weights, ber, float((half_dist / err.mean()) ** 2))


def _estimates(ctx: _SweepContext, points: list, unit: np.ndarray,
               normals: np.ndarray) -> Iterator[tuple]:
    """(index in points, estimates) of each power of one row block, in the slicer's
    folded form; each estimate is overwritten by the next.

    The LED limiter is the link's one nonlinearity, so at drive p the
    receiver's estimate is est(h * s) + (sigma / p) est(z) - est(h * e_p) / p,
    with s the unit waveform (ACO's zero-clipped; the LED input is p s plus
    any bias, which reaches no data), z the block's standard normals and e_p
    the limiter's excess at drive p. All of it is in the units where the
    reference drive P gives the folded form, so the whole link at drive p
    is the LED's output scaled by P / p, P gain clip(s, edges / (p gain)),
    sent through propagate with an unclipped LED and the noise scaled by P
    / p, and through the receiver's linear part (whole): the parent of
    every other form, one transform a power. A power whose every row clips
    runs it, and so does every power when fewer than two are left. The
    others share: the block sends s once through propagate at drive P and
    the receiver, and z once through the receiver (share): shared =
    est(P h * s + sigma z), noise = est(z). Such a power then costs one
    scaled add, shared + sigma (P / p - 1) noise, and, only if some row's
    peak (or trough, with a bias) crosses the limiter at drive p, the excess
    of the rows from the first to the last that do, unit - clip(unit, edges
    / (p gain)), through the taps and the receiver (excess); the rows
    between carry a zero excess, which transforms to exact zeros. The rest
    of the receiver, which depends on the drive (MMSE), runs last (finish).
    The whole-link powers come first, as the shared estimate takes over the
    normals' buffer.
    """
    cfg, scheme, work = ctx.cfg, ctx.scheme, ctx.work
    r, cp, n, ref = len(unit), cfg.cp_len, cfg.n, scheme.reference(cfg)
    sigma, gain = math.sqrt(cfg.noise_var), scheme.gain(n)
    # fmax and fmin skip max and min's NaN handling: the waveform is finite
    peak = np.fmax.reduce(unit, axis=-1)
    trough = np.fmin.reduce(unit, axis=-1) if scheme.biased else None
    limits = []
    for point in points:
        # the limiter's edges in unit-drive terms: the LED input is unit * drive + bias
        drive, bias = point.p * gain, point.avg_power if scheme.biased else 0.0
        floor, ceiling = -bias / drive, (cfg.p_max - bias) / drive
        clips = peak > ceiling
        if trough is not None:
            clips |= trough < floor
        limits.append((floor, ceiling, clips))
    shared = [i for i, (_, _, clips) in enumerate(limits) if not clips.all()]
    if len(shared) < 2:  # one power would pay two shared transforms for its one
        shared = []
    for i in (i for i in range(len(points)) if i not in shared):
        point, scale = points[i], ref / points[i].p
        x = scheme.tx(ctx, ref, point.avg_power * scale if scheme.biased else None, unit,
                      work.tx[:r])
        received = propagate(x, cfg.h, cfg.p_max * scale, cfg.noise_var * scale * scale,
                             normals, out=work.rx[:r])
        yield i, scheme.finish(ctx, point, scheme.whole(ctx, received[:, cp:]))
    if not shared:
        return
    if scheme.zero_clip:
        np.maximum(unit, 0.0, out=unit)
    # at the reference drive every row rides on its own trough, if biased, so the
    # unclipped LED's zero edge clips nothing
    x = scheme.tx(ctx, ref, None if trough is None else -ref * trough[:, None], unit,
                  work.tx[:r])
    received = propagate(x, cfg.h, np.inf, cfg.noise_var, normals, out=work.rx[:r])
    common, noise, est = scheme.share(ctx, received[:, cp:], normals[:, cp:])
    for i in shared:
        floor, ceiling, clips = limits[i]
        rows = np.flatnonzero(clips)
        if rows.size:  # the excess first: the sum may take the buffers it passes through
            lo, hi = int(rows[0]), int(rows[-1]) + 1
            framed = work.tx[lo:hi]
            excess = np.clip(unit[lo:hi], floor, ceiling, out=framed[:, cp:])
            np.subtract(unit[lo:hi], excess, out=excess)
            framed[:, :cp] = framed[:, n:]
            excess = scheme.excess(ctx, fir(framed, cfg.h, work.rx[lo:hi])[:, cp:])
        np.multiply(noise, sigma * (ref / points[i].p - 1.0), out=est)
        est += common
        if rows.size:
            est[lo:hi] -= excess
        yield i, scheme.finish(ctx, points[i], est)


def _run_chunk(ctx: _SweepContext, points: list, rng: np.random.Generator, k: int) -> list:
    """One chunk of k symbols at every power of points; returns each one's bit errors.

    The chunk draws its payload bits, then, one row block of the chunk
    buffers at a time, the block's standard normals. It builds the block's
    unit waveform once and scores every power from it (_estimates), then
    decides. All the bits are drawn before any noise, and both in row order,
    so the blocks read the stream as one pass over the chunk would:
    consecutive draws of bits, or of normals, equal one draw of them all.
    """
    cfg, work, scheme = ctx.cfg, ctx.work, ctx.scheme
    blocks = np.split(work.payload[:k], range(len(work.tx), k, len(work.tx)))
    for sent in blocks:  # block by block: no transient holds the chunk's raw words
        _uniform_ints(rng, 2, sent.shape, out=sent)
    errors = [0] * len(points)
    for sent in blocks:
        r = len(sent)
        normals = rng.standard_normal(out=work.normals[:r])
        unit = scheme.unit(ctx, sent)
        for i, est in _estimates(ctx, points, unit, normals):
            decided = scheme.decide(est, cfg.m, (work.idx[:r], work.bits[:r]))
            errors[i] += int(np.count_nonzero(decided.reshape(r, -1) != sent))
    return errors


def _records(ctx: _SweepContext) -> list:
    """Monte-Carlo every power of the grid, chunk-major; returns BerRecords in grid order.

    Chunk j of every power draws from the stream keyed (0, j), once
    (_run_chunk). A power runs until the first chunk that brings its bit
    errors to target_errors, or to max_symbols.
    """
    cfg = ctx.cfg
    points = list(_points(ctx, cfg.power_grid))
    errors, symbols = [0] * len(points), [0] * len(points)
    live = range(len(points))  # the powers still running
    # a lazy schedule: a huge max_symbols costs nothing beyond the chunks run
    for j, start in enumerate(range(0, cfg.max_symbols, CHUNK_SYMBOLS)):
        if not live:
            break
        k = min(CHUNK_SYMBOLS, cfg.max_symbols - start)
        counts = _run_chunk(ctx, [points[i] for i in live], _stream(cfg.master_seed, 0, j), k)
        for i, count in zip(live, counts):
            errors[i] += count
            symbols[i] += k
        live = [i for i in live if errors[i] < cfg.target_errors]
    records = []
    for point, n_sym, n_err in zip(points, symbols, errors):
        bits = n_sym * ctx.bits_per_symbol  # every power runs its first chunk
        ber = n_err / bits
        # the Wald interval, or with no errors the one-sided 95% bound (rule of three)
        ci = 1.96 * math.sqrt(ber * (1.0 - ber) / bits) if n_err else 3.0 / bits
        records.append(BerRecord(point.avg_power, n_sym, n_err, ber, point.analytical_ber, ci))
    return records


def run_point(cfg: ExperimentConfig, avg_power: float,
              ctx: _SweepContext | None = None) -> BerRecord:
    """Monte-Carlo one power point until target_errors or max_symbols.

    Without a context this is a sweep of one power: avg_power is checked like
    a value of cfg's power grid, and the record is that power's row of any
    sweep of cfg. A sweep passes its context and its grid's values in order:
    the first call runs the context's one chunk-major pass (_records), and
    each call returns the next record.
    """
    ctx = ctx or _SweepContext(replace(cfg, power_grid=np.array([avg_power])))
    return next(ctx.records)


def sweep(cfg: ExperimentConfig) -> list:
    """Run every grid point; returns BerRecords in grid order.

    The powers run side by side, chunk by chunk: chunk j's bits, normals
    and unit waveform serve every power still running (_run_chunk). A row
    depends only on the config, the seed and its power, not on the grid
    around it. The drives and analytic column are one pass of _points over
    the grid; under MMSE each power's filter is held until the sweep returns.
    """
    ctx = _SweepContext(cfg)
    return [run_point(cfg, p, ctx) for p in np.asarray(cfg.power_grid, dtype=np.float64).tolist()]


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
                    _points(_SweepContext(cfg), cfg.power_grid)))


def snr_configs(schemes, p_max: float, sigma2_n: float, *, n: int, orders) -> list:
    """The configs achievable_snr scans, one per scheme of schemes and order of orders
    in that order: the link at n, p_max and sigma2_n, an empty power grid and 30,000
    calibration frames.

    Building them checks every scheme, order, p_max and sigma2_n as a
    config's (ConfigError; an unknown scheme is a DomainError): p_max lies
    in [MIN_POWER_W, MAX_POWER_W], where no squared amplitude of the scan
    overflows.
    """
    for scheme in schemes:
        if scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {scheme!r}")
    return [ExperimentConfig(scheme=scheme, n=n, m=m, p_max=p_max, power_grid=np.array([]),
                             sigma2_n=sigma2_n, calib_symbols=30_000)
            for scheme in schemes for m in orders]


def achievable_snr(configs) -> list:
    """Scan average power over (0, p_max] and return each config's best per-point SNR.

    Each config's grid is log-spaced from p_max/100 with 200 points, scored
    in array passes; the configs of one p_max share it. The HCM family scans
    each config, as its chip pmf depends on m. An OFDM scheme's per-symbol
    SNR depends on the link alone (n, p_max, sigma2_n), so it is scanned
    once per scheme and link, and each QAM order scales it by 3 / (M - 1)
    (_qam_snr): the same floats, and so the same best power, as the order's
    own scan. Nothing is kept after the call. The grid's low end may fall
    below MIN_POWER_W: the Gaussian z quotients depend only on the ratio of
    a power to p_max, at most 100 here, so they stay finite.

    max_snr is the squared Q-argument of the scheme's analytic BER times its
    peak_snr_factor: 4x for hcm and dcr-hcm, the squared ratio of the PAM
    level spacing to the noise std, which for m = 2 is the peak SNR (the
    decision distance is half the unipolar grid's peak), and 1x for the
    OFDM schemes.
    The noise variance is channel.GAMMA * sigma2_n, as in a config. The
    dcr-hcm chip pmf is a Monte-Carlo estimate over calib_symbols frames
    drawn from np.random.default_rng(0x5EED); dco-ofdm's AC std is its
    headroom over the constant analysis.DCO_HEADROOM_FACTOR.
    """
    grids = {p: np.geomspace(p * 1e-2, p, 200) for p in {cfg.p_max for cfg in configs}}
    es_scans, rows = {}, []
    for cfg in configs:
        ctx, grid = _SweepContext(cfg, calib_seed=0x5EED), grids[cfg.p_max]
        scheme = ctx.scheme
        if scheme.es_snr is None:
            snrs = scheme.snr(ctx, grid)
        else:
            link = cfg.scheme, cfg.n, cfg.p_max, cfg.sigma2_n
            if link not in es_scans:
                es_scans[link] = scheme.es_snr(cfg, grid)
            snrs = _qam_snr(es_scans[link], cfg.m)
        snrs = scheme.peak_snr_factor * snrs
        best = int(np.argmax(snrs))
        rows.append(AchievableSnr(
            spectral_efficiency=ctx.bits_per_symbol / cfg.n,
            max_snr=float(snrs[best]),
            best_avg_power=float(grid[best]),
        ))
    return rows


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
