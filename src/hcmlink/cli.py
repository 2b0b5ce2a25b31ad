"""Command-line interface.

Exit codes: 0 on success, 2 for configuration problems and argparse usage
errors, 3 for runtime failures. All outputs are CSV on stdout unless --out
is given; every command checks its cheap arguments, then opens --out, then
does its work. main builds the sub-parser of the invoked command only
(0.17 ms, against 0.98 ms for all five on a 2-core Xeon), and all five for
the top-level help or a missing or unknown command.
"""

import argparse
import contextlib
import sys

import numpy as np

from . import analysis, harness
from .errors import ConfigError, DomainError
from .modem_hcm import _check_pam_order


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
    with _output(args) as out:  # an unwritable --out fails before the sweep
        harness.write_ber_csv(harness.sweep(cfg), out)
    return 0


def _cmd_analyze(args) -> int:
    cfg = _read_config(args)
    with _output(args) as out:
        harness.write_analyze_csv(harness.analyze(cfg), out)
    return 0


def _check_seed(seed: int):
    # a config's rule for master_seed; numpy's seeding would fail at run time
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def _cmd_pmf(args) -> int:
    _check_pam_order(args.m)  # a config's rule, though the pmf formulas take any m >= 2
    analysis._check_power_of_two(args.n)
    if args.dcr:  # the Monte-Carlo pmf's arguments
        if args.symbols < 1:
            raise ConfigError(f"need at least one symbol, got {args.symbols}")
        _check_seed(args.seed)
    with _output(args) as out:
        if args.dcr:
            rng = np.random.default_rng(args.seed)
            pmf = analysis.dcr_amplitude_pmf(args.n, args.m, args.symbols, rng)
        else:
            pmf = analysis.hcm_amplitude_pmf(args.n, args.m)
        out.write("amplitude,probability\n")
        for a, p in zip(pmf.support, pmf.probs):
            out.write(f"{a:.10g},{p:.12g}\n")
    return 0


def _cmd_eta(args) -> int:
    _check_pam_order(args.m)
    lo, _, hi = args.n_range.partition(":")
    n_lo, n_hi = _numbers((lo, hi or lo), int, "--n-range")
    if n_lo > n_hi:
        raise ConfigError(f"--n-range low {n_lo} is above high {n_hi}")
    orders = []
    while n_lo <= n_hi:  # every order is checked before the first is computed
        analysis._check_power_of_two(n_lo)
        orders.append(n_lo)
        n_lo *= 2
    if args.trials < 10_000:  # dcr_energy_efficiency's floor
        raise ConfigError(f"--trials must be at least 10000, got {args.trials}")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    with _output(args) as out:
        rows = [(n, analysis.dcr_energy_efficiency(n, args.m, args.trials, rng)) for n in orders]
        out.write("n,m,trials,eta\n")
        for n, eta in rows:
            out.write(f"{n},{args.m},{args.trials},{eta:.6g}\n")
    return 0


def _cmd_snr(args) -> int:
    m_list = _numbers(args.m_list.split(","), int, "--m-list")
    sigma2 = harness._noise_variance(args.noise_std_w)
    pairs = [(s.strip(), m) for s in args.schemes.split(",") for m in m_list]
    for scheme, m in pairs:  # every name and order is checked before the first scan
        harness.ExperimentConfig(scheme=scheme, n=args.n, m=m, p_max=args.p_max_w,
                                 power_grid=(), sigma2_n=sigma2)
    harness._check_scan_peak(args.p_max_w)
    with _output(args) as out:
        rows = [(scheme, m, harness.achievable_snr(scheme, args.p_max_w, sigma2, n=args.n, m=m))
                for scheme, m in pairs]
        out.write("scheme,m,spectral_efficiency,max_snr,best_avg_power_w\n")
        for scheme, m, res in rows:
            out.write(
                f"{scheme},{m},{res.spectral_efficiency:.6g},"
                f"{res.max_snr:.6g},{res.best_avg_power:.6g}\n"
            )
    return 0


_CONFIG_ARGS = (
    ("config", {}),
    ("--set", {"action": "append", "metavar": "KEY=VALUE",
               "help": "override a config key (repeatable)"}),
)

# command -> (function, help, the arguments it takes besides --out)
_COMMANDS = {
    "simulate": (_cmd_simulate, "Monte-Carlo BER sweep from a config file", _CONFIG_ARGS),
    "analyze": (_cmd_analyze, "analytical BER curve for a config file", _CONFIG_ARGS),
    "pmf": (_cmd_pmf, "chip amplitude pmf (analytic, or Monte-Carlo with --dcr)", (
        ("--n", {"type": int, "required": True}),
        ("--m", {"type": int, "default": 2}),
        ("--dcr", {"action": "store_true"}),
        ("--symbols", {"type": int, "default": 20_000}),
        ("--seed", {"type": int, "default": 1}),
    )),
    "eta": (_cmd_eta, "DCR-HCM energy efficiency over a range of orders", (
        ("--n-range", {"required": True, "metavar": "LO:HI",
                       "help": "powers of two, e.g. 16:256"}),
        ("--m", {"type": int, "default": 2}),
        ("--trials", {"type": int, "default": 20_000}),
        ("--seed", {"type": int, "default": 1}),
    )),
    "snr": (_cmd_snr, "maximum achievable SNR vs spectral efficiency", (
        ("--schemes", {"default": "hcm,dcr-hcm",
                       "help": "comma separated; OFDM schemes need --m-list of QAM orders"}),
        ("--m-list", {"default": "2", "help": "PAM/QAM orders, comma separated"}),
        ("--n", {"type": int, "default": 128}),
        ("--p-max-w", {"type": float, "default": harness.ExperimentConfig.p_max}),
        ("--noise-std-w", {"type": float, "default": 5e-7}),
    )),
}


def _parser(names) -> argparse.ArgumentParser:
    """The hcmlink parser with the sub-parsers of the named commands only."""
    parser = argparse.ArgumentParser(
        prog="hcmlink",
        # names every command, however few sub-parsers are built
        usage=f"%(prog)s [-h] {{{','.join(_COMMANDS)}}} ...",
        description="Hadamard coded modulation link simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, prog="hcmlink")
    for name in names:
        func, help_, arguments = _COMMANDS[name]
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--out", help="output CSV path (default stdout)")
        for flag, kwargs in arguments:
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # all five for the top-level help and a missing or unknown command
    args = _parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS).parse_args(argv)
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
