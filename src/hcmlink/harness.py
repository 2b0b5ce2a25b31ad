"""Deterministic Monte-Carlo BER engine and sweep runner.

Reproducibility model: every power point gets a fixed schedule of
256-symbol chunks, and chunk j of point i draws all of its randomness from
an independent stream seeded by (master_seed, 0, i, j). Chunks are always
accounted in index order and the stopping rule (target_errors or
max_symbols) is evaluated on that ordered prefix, so results are
bit-identical for any thread count. Calibration samples (DCR chip pmf, ACO
waveform mean, interleaver search) use reserved stream keys (1, *) and
(2, *) so they never collide with trial streams.

The average-power axis is the nominal drive average, i.e. the mean optical
power of the waveform before the peak-power limiter. This is the
conventional x-axis for clipping-distortion curves and keeps high-power
operating points meaningful for schemes whose post-clip average saturates
(ACO-OFDM cannot exceed p_max/2 after the limiter).
"""

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .analysis import (
    AmplitudePmf,
    clipping_variance_discrete,
    dcr_amplitude_pmf,
    hcm_amplitude_pmf,
    hcm_drive_peak,
    qfunc,
)
from .channel import DEFAULT_GAMMA, LinkConfig, load_impulse_response, propagate
from .equalization import (
    MmseWeights,
    channel_matrix,
    interleaver_search,
    load_permutation,
    mmse_weights,
)
from .errors import ConfigError, RangeError
from .hadamard import sylvester
from .modem_hcm import (
    deframe,
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

CHUNK_SYMBOLS = 256  # symbols per RNG stream; fixed so threading cannot change results
SCHEMES = ("hcm", "dcr-hcm", "aco-ofdm", "dco-ofdm")

BER_CSV_HEADER = ("avg_power_w", "symbols", "bit_errors", "ber", "ci95", "analytical_ber")
ANALYZE_CSV_HEADER = ("avg_power_w", "analytical_ber", "snr")


@dataclass(frozen=True)
class ExperimentConfig:
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
    label: str = ""


@dataclass(frozen=True)
class BerRecord:
    avg_power: float
    symbols_run: int
    bit_errors: int
    ber: float
    analytical_ber: float
    ci_95: float


@dataclass(frozen=True)
class DrivePoint:
    peak: float = 0.0  # unclipped peak P (HCM family)
    scale: float = 0.0  # waveform amplitude scale (OFDM)
    dc_bias: float = 0.0  # DCO only


_CONFIG_KEYS = {
    "scheme": str,
    "n": int,
    "m": int,
    "p_max_w": float,
    "noise_std_w": float,
    "gamma": float,
    "taps": str,
    "taps_file": str,
    "cp_len": int,
    "power_grid_w": str,
    "target_errors": int,
    "max_symbols": int,
    "master_seed": int,
    "equalizer": str,
    "interleaver": str,
    "interleaver_budget": int,
    "dco_headroom": float,
    "calib_symbols": int,
    "label": str,
}


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

    def take(key, default=None):
        if key not in raw:
            return default
        try:
            return _CONFIG_KEYS[key](raw[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw[key]!r}") from exc

    scheme = take("scheme")
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if "taps" in raw and "taps_file" in raw:
        raise ConfigError("give either taps or taps_file, not both")
    if "taps_file" in raw:
        h = load_impulse_response(raw["taps_file"])
    elif "taps" in raw:
        h = np.array([float(v) for v in raw["taps"].split(",")])
    else:
        h = np.array([1.0])

    noise_std = take("noise_std_w", 2e-6)
    if not noise_std >= 0:
        raise ConfigError(f"noise_std_w must be >= 0, got {noise_std!r}")
    cfg = ExperimentConfig(
        scheme=scheme,
        n=take("n", 128),
        m=take("m", 2),
        p_max=take("p_max_w", 1e-4),
        power_grid=_parse_grid(take("power_grid_w", "5e-5")),
        sigma2_n=noise_std * noise_std,
        gamma=take("gamma", DEFAULT_GAMMA),
        h=h,
        cp_len=take("cp_len", 0),
        target_errors=take("target_errors", 200),
        max_symbols=take("max_symbols", 40_000),
        master_seed=take("master_seed", 1),
        equalizer=take("equalizer", "slicer"),
        interleaver=take("interleaver", "none"),
        interleaver_budget=take("interleaver_budget", 2000),
        dco_headroom=take("dco_headroom", analysis.DCO_HEADROOM_FACTOR),
        calib_symbols=take("calib_symbols", 20_000),
        label=take("label", ""),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig):
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    if cfg.n < 4 or cfg.n & (cfg.n - 1):
        raise ConfigError(f"n must be a power of two >= 4, got {cfg.n}")
    if cfg.p_max <= 0:
        raise ConfigError("p_max_w must be positive")
    grid = np.asarray(cfg.power_grid, dtype=np.float64)
    if not np.all(np.isfinite(grid)):
        raise ConfigError("power grid values must be finite")
    if grid.size and (np.any(grid <= 0) or np.any(grid > cfg.p_max)):
        raise ConfigError("power grid values must lie in (0, p_max]")
    if cfg.target_errors < 100:
        raise ConfigError("target_errors must be >= 100 for a meaningful CI")
    if cfg.max_symbols < 1:
        raise ConfigError("max_symbols must be >= 1")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {cfg.master_seed}")
    if cfg.cp_len < 0 or cfg.cp_len >= cfg.n:
        raise ConfigError("cp_len must be in [0, n)")
    if cfg.equalizer not in ("slicer", "mmse"):
        raise ConfigError(f"equalizer must be slicer or mmse, got {cfg.equalizer!r}")
    if cfg.equalizer == "mmse" and cfg.scheme not in ("hcm", "dcr-hcm"):
        raise ConfigError("mmse equalization applies to hcm/dcr-hcm only")
    if cfg.scheme in ("hcm", "dcr-hcm"):
        if cfg.m < 2 or cfg.m & (cfg.m - 1):
            raise ConfigError(f"PAM order must be a power of two >= 2, got {cfg.m}")
    else:
        side = int(round(math.sqrt(cfg.m)))
        if cfg.m < 4 or side * side != cfg.m:
            raise ConfigError(f"QAM order must be a square power of two, got {cfg.m}")
    if cfg.interleaver != "none" and cfg.scheme not in ("hcm", "dcr-hcm"):
        raise ConfigError("interleaving applies to hcm/dcr-hcm only")


def _stream(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))


class _SweepContext:
    """Per-sweep precomputation shared by all power points."""

    def __init__(self, cfg: ExperimentConfig):
        validate_config(cfg)
        self.cfg = cfg
        n = cfg.n
        self.hadamard = sylvester(int(math.log2(n)))
        self.perm = self._resolve_interleaver()
        self.gains = one_tap_gains(cfg.h, n)
        if cfg.scheme == "hcm":
            self.chip_pmf = hcm_amplitude_pmf(n, cfg.m)
        elif cfg.scheme == "dcr-hcm":
            self.chip_pmf = dcr_amplitude_pmf(
                n, cfg.m, cfg.calib_symbols, _stream(cfg.master_seed, 1, 0)
            )
        else:
            self.chip_pmf = None
        if cfg.scheme == "aco-ofdm":
            rng = _stream(cfg.master_seed, 1, 1)
            bits = rng.integers(0, 2, size=(4096, aco_data_count(n) * int(math.log2(cfg.m))))
            raw = aco_time_samples(qam_symbols(bits, cfg.m), n)
            self.aco_unit_mean = float(np.maximum(raw, 0.0).mean())
        else:
            self.aco_unit_mean = None
        if cfg.equalizer == "mmse":
            self.g = channel_matrix(cfg.h, n)
        else:
            self.g = None

    def _resolve_interleaver(self):
        cfg = self.cfg
        if cfg.interleaver == "none":
            return None
        if cfg.interleaver == "search":
            g = channel_matrix(cfg.h, cfg.n)
            return interleaver_search(
                g, self.hadamard, cfg.interleaver_budget, _stream(cfg.master_seed, 2, 0)
            )
        return load_permutation(cfg.interleaver, cfg.n)


@dataclass(frozen=True)
class _PointSetup:
    drive: DrivePoint
    link: LinkConfig
    weights: MmseWeights | None
    analytic: float
    snr: float


def average_power_to_drive(cfg: ExperimentConfig, target_avg: float,
                           ctx: "_SweepContext | None" = None) -> DrivePoint:
    """Translate a nominal average optical power into drive parameters."""
    if target_avg <= 0:
        raise RangeError(f"average power must be positive, got {target_avg}")
    ctx = ctx or _SweepContext(cfg)
    n = cfg.n
    if cfg.scheme == "hcm":
        # per-symbol chip mean is exactly (n-1)/2 for every frame
        return DrivePoint(peak=hcm_drive_peak(target_avg, n))
    if cfg.scheme == "dcr-hcm":
        return DrivePoint(peak=target_avg * n / ctx.chip_pmf.mean())
    if cfg.scheme == "aco-ofdm":
        return DrivePoint(scale=target_avg / ctx.aco_unit_mean)
    # dco-ofdm: the bias is the average; AC std uses the clipping headroom
    if target_avg >= cfg.p_max:
        raise RangeError(
            f"dco-ofdm average must be below p_max={cfg.p_max:g}, got {target_avg:g}"
        )
    sigma_x = min(target_avg, cfg.p_max - target_avg) / cfg.dco_headroom
    scale = sigma_x / analysis.dco_time_std(n)
    return DrivePoint(scale=scale, dc_bias=target_avg)


def _mmse_analytic(weights: MmseWeights, m: int) -> tuple[float, float]:
    # Gaussian approximation on the per-component residual error
    err = np.sqrt(np.maximum(weights.error_diag[1:], 1e-300))
    half_dist = 0.5 / (m - 1)
    prefactor = 2.0 * (m - 1) / (m * math.log2(m))
    ber = prefactor * float(np.mean(qfunc(half_dist / err)))
    snr = float((half_dist / err.mean()) ** 2)
    return min(ber, 0.5), snr


def _point_setup(cfg: ExperimentConfig, ctx: _SweepContext, avg_power: float) -> _PointSetup:
    drive = average_power_to_drive(cfg, avg_power, ctx)
    link = LinkConfig(
        p=drive.peak if cfg.scheme in ("hcm", "dcr-hcm") else drive.scale,
        p_max=cfg.p_max,
        sigma2_n=cfg.sigma2_n,
        gamma=cfg.gamma,
        h=cfg.h,
        cp_len=cfg.cp_len,
    )
    weights = None
    if cfg.scheme in ("hcm", "dcr-hcm"):
        sigma2_clip = clipping_variance_discrete(ctx.chip_pmf, drive.peak, cfg.n, cfg.p_max)
        if cfg.equalizer == "mmse":
            perm = ctx.perm if ctx.perm is not None else np.arange(cfg.n)
            weights = mmse_weights(
                ctx.hadamard, perm, ctx.g, drive.peak, cfg.gamma * cfg.sigma2_n, cfg.m
            )
            analytic, snr = _mmse_analytic(weights, cfg.m)
        else:
            snr = analysis.hcm_snr(cfg.m, cfg.n, drive.peak, cfg.sigma2_n, sigma2_clip, cfg.gamma)
            analytic = analysis.hcm_analytical_ber(
                cfg.m, cfg.n, drive.peak, cfg.sigma2_n, sigma2_clip, cfg.gamma
            )
    elif cfg.scheme == "aco-ofdm":
        es = analysis.aco_es_snr(avg_power, cfg.n, cfg.p_max, cfg.sigma2_n, cfg.gamma)
        snr = 3.0 * es / (cfg.m - 1.0)
        analytic = analysis.qam_ber_from_es(es, cfg.m)
    else:
        es = analysis.dco_es_snr(
            avg_power, cfg.n, cfg.p_max, cfg.sigma2_n, cfg.gamma, cfg.dco_headroom
        )
        snr = 3.0 * es / (cfg.m - 1.0)
        analytic = analysis.qam_ber_from_es(es, cfg.m) if es > 0 else 0.5
    return _PointSetup(drive=drive, link=link, weights=weights, analytic=analytic, snr=snr)


def _bits_per_symbol(cfg: ExperimentConfig) -> int:
    if cfg.scheme in ("hcm", "dcr-hcm"):
        return (cfg.n - 1) * int(math.log2(cfg.m))
    if cfg.scheme == "aco-ofdm":
        return aco_data_count(cfg.n) * int(math.log2(cfg.m))
    return dco_data_count(cfg.n) * int(math.log2(cfg.m))


def _run_chunk(cfg: ExperimentConfig, ctx: _SweepContext, point: _PointSetup,
               rng: np.random.Generator, k: int) -> tuple[int, int]:
    nbits = k * _bits_per_symbol(cfg)
    n, m, cp = cfg.n, cfg.m, cfg.cp_len
    if cfg.scheme in ("hcm", "dcr-hcm"):
        p = point.drive.peak
        bits = rng.integers(0, 2, size=(k, nbits // k), dtype=np.int64)
        levels = levels_from_bits(bits, m, n)
        chips = encode_levels(levels)
        if cfg.scheme == "dcr-hcm":
            chips -= chips.min(axis=-1, keepdims=True)
        if ctx.perm is not None:
            chips = interleave(chips, ctx.perm)
        tx = frame_chips(chips, p, cp)
        y = deframe(propagate(tx, point.link, rng), cp)
        if ctx.perm is not None:
            y = deinterleave(y, ctx.perm)
        v = decode_samples(y, p)
        if point.weights is not None:
            w = point.weights.w
            v_mean = np.full(n, p / (2.0 * n))
            v_mean[0] = 0.0
            est = 0.5 + (v - v_mean) @ w.T
            est = est[:, 1:]
        else:
            est = v[:, 1:] * (n / p)
        _, bits_hat = slice_levels(est, m)
        errors = int(np.count_nonzero(bits_hat.reshape(k, -1) != bits))
        return errors, nbits

    bits = rng.integers(0, 2, size=(k, nbits // k), dtype=np.int64)
    symbols = qam_symbols(bits, m)
    if cfg.scheme == "aco-ofdm":
        raw = aco_time_samples(symbols, n)
        tx = prepend_cyclic_prefix(point.drive.scale * np.maximum(raw, 0.0), cp)
        y = deframe(propagate(tx, point.link, rng), cp)
        est = aco_extract(y, ctx.gains) / point.drive.scale
    else:
        raw = dco_time_samples(symbols, n)
        tx = prepend_cyclic_prefix(point.drive.scale * raw + point.drive.dc_bias, cp)
        y = deframe(propagate(tx, point.link, rng), cp)
        est = dco_extract(y, ctx.gains) / point.drive.scale
    bits_hat = qam_bits(est, m)
    errors = int(np.count_nonzero(bits_hat != bits))
    return errors, nbits


def _chunk_sizes(max_symbols: int) -> list:
    full, rem = divmod(max_symbols, CHUNK_SYMBOLS)
    return [CHUNK_SYMBOLS] * full + ([rem] if rem else [])


def run_point(cfg: ExperimentConfig, avg_power: float, power_index: int = 0,
              threads: int = 1, ctx: _SweepContext | None = None) -> BerRecord:
    """Monte-Carlo one power point until target_errors or max_symbols.

    Identical results for any `threads`: chunk j always uses the stream
    keyed (0, power_index, j) and the stopping rule is applied to chunks in
    index order.
    """
    ctx = ctx or _SweepContext(cfg)
    point = _point_setup(cfg, ctx, avg_power)
    sizes = _chunk_sizes(cfg.max_symbols)

    def job(j):
        rng = _stream(cfg.master_seed, 0, power_index, j)
        return _run_chunk(cfg, ctx, point, rng, sizes[j])

    errors = bits = symbols = 0

    def absorb(j, out) -> bool:
        nonlocal errors, bits, symbols
        errors += out[0]
        bits += out[1]
        symbols += sizes[j]
        return errors >= cfg.target_errors

    if threads <= 1:
        for j in range(len(sizes)):
            if absorb(j, job(j)):
                break
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            start = 0
            stopped = False
            while start < len(sizes) and not stopped:
                wave = range(start, min(start + threads, len(sizes)))
                for j, out in zip(wave, pool.map(job, wave)):
                    if absorb(j, out):
                        stopped = True
                        break
                start += threads

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
        analytical_ber=point.analytic,
        ci_95=ci,
    )


def sweep(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Run every grid point; returns BerRecords in grid order."""
    ctx = _SweepContext(cfg)
    return [
        run_point(cfg, float(p), i, threads, ctx)
        for i, p in enumerate(np.asarray(cfg.power_grid, dtype=np.float64))
    ]


def analyze(cfg: ExperimentConfig) -> list:
    """Analytical curve only: one BerPoint per grid value, no Monte-Carlo."""
    ctx = _SweepContext(cfg)
    points = []
    for p in np.asarray(cfg.power_grid, dtype=np.float64):
        setup = _point_setup(cfg, ctx, float(p))
        points.append(analysis.BerPoint(avg_power=float(p), analytical_ber=setup.analytic,
                                        snr=setup.snr))
    return points


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
