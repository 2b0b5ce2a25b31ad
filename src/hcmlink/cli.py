"""Command-line interface.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures. All outputs are CSV on stdout unless --out is given.
"""

import argparse
import contextlib
import sys

import numpy as np

from . import analysis, harness
from .errors import ConfigError, DomainError


def _read_config(args) -> harness.ExperimentConfig:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # missing, a directory, not text
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return harness.parse_config(text, overrides)


def _numbers(items, parse, flag: str) -> list:
    """Each item of a list flag parsed by parse; ConfigError naming the flag on a bad one."""
    try:
        return [parse(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"bad number in {flag}: {exc}") from exc


def _output(args):
    """Context manager for the output: the --out file, closed on exit, or stdout."""
    return open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)


def _cmd_simulate(args) -> int:
    cfg = _read_config(args)
    records = harness.sweep(cfg)
    with _output(args) as out:
        harness.write_ber_csv(records, out)
    return 0


def _cmd_analyze(args) -> int:
    cfg = _read_config(args)
    points = harness.analyze(cfg)
    with _output(args) as out:
        harness.write_analyze_csv(points, out)
    return 0


def _cmd_pmf(args) -> int:
    if args.dcr:
        rng = np.random.default_rng(args.seed)
        pmf = analysis.dcr_amplitude_pmf(args.n, args.m, args.symbols, rng)
    else:
        pmf = analysis.hcm_amplitude_pmf(args.n, args.m)
    with _output(args) as out:
        out.write("amplitude,probability\n")
        for a, p in zip(pmf.support, pmf.probs):
            out.write(f"{a:.10g},{p:.12g}\n")
    return 0


def _cmd_eta(args) -> int:
    lo, _, hi = args.n_range.partition(":")
    n_lo, n_hi = _numbers((lo, hi or lo), int, "--n-range")
    if n_lo > n_hi:
        raise ConfigError(f"--n-range low {n_lo} is above high {n_hi}")
    orders = []
    while n_lo <= n_hi:  # every order is checked before the first is computed
        analysis._check_power_of_two(n_lo)
        orders.append(n_lo)
        n_lo *= 2
    rng = np.random.default_rng(args.seed)
    rows = [(n, analysis.dcr_energy_efficiency(n, args.m, args.trials, rng)) for n in orders]
    with _output(args) as out:
        out.write("n,m,trials,eta\n")
        for n, eta in rows:
            out.write(f"{n},{args.m},{args.trials},{eta:.6g}\n")
    return 0


def _cmd_snr(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",")]
    m_list = _numbers(args.m_list.split(","), int, "--m-list")
    sigma2 = harness._noise_variance(args.noise_std_w)
    rows = [
        (scheme, m, harness.achievable_snr(scheme, args.p_max_w, sigma2, n=args.n, m=m))
        for scheme in schemes
        for m in m_list
    ]
    with _output(args) as out:
        out.write("scheme,m,spectral_efficiency,max_snr,best_avg_power_w\n")
        for scheme, m, res in rows:
            out.write(
                f"{scheme},{m},{res.spectral_efficiency:.6g},"
                f"{res.max_snr:.6g},{res.best_avg_power:.6g}\n"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcmlink",
        description="Hadamard coded modulation link simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo BER sweep from a config file")
    sim.add_argument("config")
    sim.add_argument("--out", help="output CSV path (default stdout)")
    sim.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="analytical BER curve for a config file")
    ana.add_argument("config")
    ana.add_argument("--out")
    ana.add_argument("--set", action="append", metavar="KEY=VALUE")
    ana.set_defaults(func=_cmd_analyze)

    pmf = sub.add_parser("pmf", help="chip amplitude pmf (analytic, or Monte-Carlo with --dcr)")
    pmf.add_argument("--n", type=int, required=True)
    pmf.add_argument("--m", type=int, default=2)
    pmf.add_argument("--dcr", action="store_true")
    pmf.add_argument("--symbols", type=int, default=20_000)
    pmf.add_argument("--seed", type=int, default=1)
    pmf.add_argument("--out")
    pmf.set_defaults(func=_cmd_pmf)

    eta = sub.add_parser("eta", help="DCR-HCM energy efficiency over a range of orders")
    eta.add_argument("--n-range", required=True, metavar="LO:HI",
                     help="powers of two, e.g. 16:256")
    eta.add_argument("--m", type=int, default=2)
    eta.add_argument("--trials", type=int, default=20_000)
    eta.add_argument("--seed", type=int, default=1)
    eta.add_argument("--out")
    eta.set_defaults(func=_cmd_eta)

    snr = sub.add_parser("snr", help="maximum achievable SNR vs spectral efficiency")
    snr.add_argument("--schemes", default="hcm,dcr-hcm",
                     help="comma separated; OFDM schemes need --m-list of QAM orders")
    snr.add_argument("--m-list", default="2", help="PAM/QAM orders, comma separated")
    snr.add_argument("--n", type=int, default=128)
    snr.add_argument("--p-max-w", type=float, default=harness.ExperimentConfig.p_max)
    snr.add_argument("--noise-std-w", type=float, default=5e-7)
    snr.add_argument("--out")
    snr.set_defaults(func=_cmd_snr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
