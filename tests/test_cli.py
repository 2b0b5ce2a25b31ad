"""Exit codes and output shape of every CLI command on tiny inputs."""

import argparse
import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcmlink import cli
from hcmlink.hadamard import MAX_ORDER_LOG2
from hcmlink.harness import MAX_POWER_W, MIN_POWER_W

CONFIG = """
scheme = dcr-hcm
n = 16
power_grid_w = 2e-5,6e-5
noise_std_w = 4e-6
max_symbols = 300
target_errors = 100
calib_symbols = 1000
"""


SRC = Path(__file__).resolve().parents[1] / "src"
# a config whose interleaver is the search, the one way into it
SEARCH_CONF = str(SRC.parent / "bench" / "configs" / "dispersive-mmse.dcr-hcm.conf")

# runs cli.main on its arguments with every scipy import failing, then
# prints the scipy modules that did load
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from hcmlink import cli
code = cli.main(sys.argv[1:])
print(sorted(k for k, v in sys.modules.items() if v and k.split(".")[0] == "scipy"),
      file=sys.stderr)
sys.exit(code)
"""


def src_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a fresh interpreter."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_analyze(tmp_path, capsys):
    path = tmp_path / "tiny.conf"
    path.write_text(CONFIG)
    code, lines, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert lines[0] == "avg_power_w,analytical_ber,snr"
    assert len(lines) == 3


def test_simulate_to_file(tmp_path, capsys):
    path = tmp_path / "tiny.conf"
    path.write_text(CONFIG)
    out = tmp_path / "ber.csv"
    code, lines, _ = run(capsys, "simulate", str(path), "--out", str(out), "--set", "m=4")
    assert code == 0 and lines == []
    rows = out.read_text().splitlines()
    assert rows[0] == "avg_power_w,symbols,bit_errors,ber,ci95,analytical_ber"
    assert len(rows) == 3


POWER_RANGE = f"in [{MIN_POWER_W:g}, {MAX_POWER_W:g}] W"


@pytest.mark.parametrize("command, work, argv, bad, message", [
    ("simulate", "harness.sweep", ["{conf}"], ["--set", "n=3"], "power of two"),
    ("analyze", "harness.analyze", ["{conf}"], ["--set", "n=3"], "power of two"),
    ("pmf", "analysis.hcm_amplitude_pmf", ["--n", "8"], ["--n", "12"], "power of two"),
    ("pmf", "analysis.dcr_amplitude_pmf", ["--n", "8", "--dcr"], ["--symbols", "0"],
     "at least one symbol"),
    ("eta", "analysis.dcr_energy_efficiency", ["--n-range", "4:8"], ["--trials", "5"],
     "--trials must be at least 10000"),
    # the second pair's order is checked before the first pair's scan
    ("snr", "harness.achievable_snr", [], ["--m-list", "2,3"], "power of two m >= 2"),
    # the range of p_max is a cheap argument too
    ("snr", "harness.achievable_snr", [], ["--p-max-w", "inf"],
     "p_max must be positive and finite"),
    ("snr", "harness.achievable_snr", [], ["--p-max-w", "1e300"], POWER_RANGE),
    # a negative seed is checked like a config's master_seed, not by numpy's seeding
    ("pmf", "analysis.dcr_amplitude_pmf", ["--n", "16", "--dcr", "--symbols", "10"],
     ["--seed", "-1"], "--seed must be >= 0"),
    ("eta", "analysis.dcr_energy_efficiency", ["--n-range", "4:8"], ["--seed", "-1"],
     "--seed must be >= 0"),
], ids=["simulate-sweep", "analyze-analyze", "pmf", "pmf-dcr", "eta", "snr", "snr-p-max-inf",
        "snr-p-max-1e300", "pmf-dcr-negative-seed", "eta-negative-seed"])
def test_unwritable_out_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command, work,
                                                argv, bad, message):
    # --out is opened once the arguments or the config are checked, before the work
    def never(*args, **kwargs):
        raise RuntimeError(f"{work} ran")
    module, name = work.split(".")
    monkeypatch.setattr(getattr(cli, module), name, never)
    path = tmp_path / "tiny.conf"
    path.write_text(CONFIG)
    argv = [command, *(a.format(conf=path) for a in argv)]
    out = tmp_path / "missing" / "x.csv"
    code, lines, err = run(capsys, *argv, "--out", str(out))
    assert code == 3
    assert lines == [] and "No such file or directory" in err
    # a bad value still exits 2 without creating the file
    out = tmp_path / "x.csv"
    code, lines, err = run(capsys, *argv, *bad, "--out", str(out))
    assert code == 2
    assert lines == [] and message in err and not out.exists()


@pytest.mark.parametrize("extra", [[], ["--dcr", "--symbols", "500"]])
def test_pmf(capsys, extra):
    code, lines, _ = run(capsys, "pmf", "--n", "8", *extra)
    assert code == 0
    assert lines[0] == "amplitude,probability"
    assert sum(float(line.split(",")[1]) for line in lines[1:]) == pytest.approx(1.0)


def test_eta(capsys):
    code, lines, _ = run(capsys, "eta", "--n-range", "4:8", "--trials", "10000")
    assert code == 0
    assert lines[0] == "n,m,trials,eta"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8"]


@pytest.mark.parametrize("argv", [
    ["pmf", "--n", "8", "--m", "4"],
    ["eta", "--n-range", "4:8", "--trials", "10000"],
    ["snr", "--n", "16", "--schemes", "hcm,aco-ofdm", "--m-list", "4"],
], ids=["pmf", "eta", "snr"])
def test_out_file_holds_what_stdout_shows(tmp_path, capsys, argv):
    assert cli.main(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == shown.encode()


@pytest.mark.parametrize("argv, code", [(["pmf", "--n", "8"], 0), (["snr", "--p-max-w", "inf"], 2)])
def test_module_entry_exits_with_the_code_of_main(argv, code):
    # python -m hcmlink passes main's return value to sys.exit
    done = subprocess.run([sys.executable, "-m", "hcmlink", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    if code:
        assert done.stdout == "" and "p_max must be positive and finite" in done.stderr
    else:
        assert done.stdout.startswith("amplitude,probability\n") and done.stderr == ""


@pytest.mark.parametrize("scheme", ["scheme = aco-ofdm", "scheme = dco-ofdm"])
def test_analyze_without_noise_or_clipping(tmp_path, capsys, scheme):
    # no noise: an infinite SNR where nothing clips, not a division by zero
    path = tmp_path / "clean.conf"
    path.write_text(f"{scheme}\nm = 4\nnoise_std_w = 0\np_max_w = 1\npower_grid_w = 1e-5\n")
    code, lines, _ = run(capsys, "analyze", str(path))
    assert code == 0
    if scheme.endswith("aco-ofdm"):
        assert lines == ["avg_power_w,analytical_ber,snr", "1e-05,0,inf"]
    else:  # the Gaussian tails beyond DCO's 6-sigma headroom always clip a little
        snr = float(lines[1].split(",")[2])
        assert 0 < snr < math.inf


@pytest.mark.parametrize("scheme, row", [
    ("aco-ofdm", "1e-15,0.4999999997,6.490893912e-19"),
    ("dco-ofdm", "1e-15,0.5,5.830308861e-21"),
], ids=["aco-ofdm", "dco-ofdm"])
def test_analyze_far_below_a_huge_peak_does_not_warn(tmp_path, capsys, scheme, row):
    # the smallest power under the largest peak: the peak lies about 1e18 std
    # above the waveform, and the Gaussian tail's unguarded z quotient and
    # squares stay finite, with no RuntimeWarning (an error in this suite)
    path = tmp_path / "dim.conf"
    path.write_text(f"scheme = {scheme}\nm = 4\np_max_w = {MAX_POWER_W!r}\n"
                    f"power_grid_w = {MIN_POWER_W!r}\n")
    code, lines, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert lines == ["avg_power_w,analytical_ber,snr", row]


@pytest.mark.parametrize("extra", [
    [],
    ["--schemes", "aco-ofdm,dco-ofdm", "--m-list", "4,16"],
])
def test_snr(capsys, extra):
    code, lines, _ = run(capsys, "snr", "--n", "16", *extra)
    assert code == 0
    assert lines[0] == "scheme,m,spectral_efficiency,max_snr,best_avg_power_w"
    assert len(lines) == (5 if extra else 3)


@pytest.mark.parametrize("n, schemes, m", [
    (16, "hcm,dcr-hcm,aco-ofdm,dco-ofdm", "4"),
    # the largest order; dcr-hcm's 30,000 calibration frames would take minutes there
    (1 << MAX_ORDER_LOG2, "hcm", "2"),
    (1 << MAX_ORDER_LOG2, "aco-ofdm,dco-ofdm", "4"),
])
def test_snr_at_the_largest_p_max(capsys, n, schemes, m):
    # p_max = MAX_POWER_W with a noise std of 1 kW: every square of the scan stays finite
    code, lines, _ = run(capsys, "snr", "--p-max-w", f"{MAX_POWER_W:g}", "--noise-std-w", "1e3",
                         "--n", str(n), "--schemes", schemes, "--m-list", m)
    assert code == 0
    assert len(lines) == 2 + schemes.count(",")
    assert not any("nan" in line or "inf" in line for line in lines)


@pytest.mark.parametrize("std, code", [("1e-160", 2), (f"{0.5 * MIN_POWER_W!r}", 2), ("1e4", 2),
                                       (f"{MIN_POWER_W!r}", 0)])
def test_snr_noise_std_outside_the_power_range_exits_2(capsys, std, code):
    # a nonzero noise std lies in [MIN_POWER_W, MAX_POWER_W] like every power:
    # 1e-160 W, a subnormal variance of 1.2e-320 W^2, printed inf for every
    # scheme at p_max = MAX_POWER_W; in the range the best SNRs stay finite
    got, lines, err = run(capsys, "snr", "--p-max-w", f"{MAX_POWER_W:g}", "--n", "16",
                          "--noise-std-w", std,
                          "--schemes", "hcm,dcr-hcm,aco-ofdm", "--m-list", "4")
    assert got == code
    if code:
        assert lines == [] and f"noise std in [{MIN_POWER_W:g}, {MAX_POWER_W:g}] W" in err
    else:
        assert len(lines) == 4 and not any("inf" in line or "nan" in line for line in lines)


@pytest.mark.parametrize("power, code", [(MIN_POWER_W, 0), (MAX_POWER_W, 0), (1e160, 2),
                                         (1e-16, 2)])
def test_analyze_power_grid_bound(tmp_path, capsys, power, code):
    # the grid lies in [MIN_POWER_W, p_max], here up to MAX_POWER_W
    path = tmp_path / "bound.conf"
    path.write_text(f"scheme = hcm\nn = 16\np_max_w = {MAX_POWER_W!r}\nnoise_std_w = 0\n"
                    f"power_grid_w = {power!r}\n")
    out = tmp_path / "out.csv"
    got, lines, err = run(capsys, "analyze", str(path), "--out", str(out))
    assert got == code and lines == []
    if code:
        assert f"[{MIN_POWER_W:g} W, p_max]" in err and not out.exists()
    else:  # noiseless: unclipped at 1 fW, clipped at the peak
        want = "1e-15,0,inf" if power == MIN_POWER_W else "1000,0.07206351741,2.133333333"
        assert out.read_text().splitlines()[1:] == [want]


@pytest.mark.parametrize("scheme, n", [
    ("hcm", 4), ("hcm", 1024), ("dcr-hcm", 4), ("dcr-hcm", 64), ("aco-ofdm", 4),
    ("aco-ofdm", 1024), ("dco-ofdm", 4), ("dco-ofdm", 1024),
])
def test_analyze_and_snr_at_the_corners_of_the_power_range(tmp_path, capsys, scheme, n):
    # both ends of the grid under both ends of p_max, without noise and at
    # a 1 kW noise std: no warning (an error in this suite) and no NaN, so
    # no square or Gaussian z quotient needs an overflow guard in the range.
    # snr's dcr-hcm calibration draws 30,000 frames: 1.1 s at n = 1024
    path = tmp_path / "corner.conf"
    for p_max in (MIN_POWER_W, MAX_POWER_W):
        # dco-ofdm's bias must lie below p_max; at MIN_POWER_W no power does
        top = math.nextafter(p_max, 0.0) if scheme == "dco-ofdm" else p_max
        grid = sorted({g for g in (MIN_POWER_W, top) if MIN_POWER_W <= g <= top})
        for noise in ("0", "1e3"):
            path.write_text(f"scheme = {scheme}\nn = {n}\nm = 4\np_max_w = {p_max!r}\n"
                            f"power_grid_w = {','.join(map(repr, grid)) or '1e-15'}\n"
                            f"noise_std_w = {noise}\ncalib_symbols = 200\n")
            code, lines, err = run(capsys, "analyze", str(path))
            if not grid:
                assert code == 2 and "below p_max" in err
            else:
                assert code == 0 and err == "" and len(lines) == 1 + len(grid)
                assert not any("nan" in line for line in lines)
            code, lines, err = run(capsys, "snr", "--schemes", scheme, "--m-list", "4",
                                   "--n", str(n), "--p-max-w", repr(p_max), "--noise-std-w", noise)
            assert code == 0 and err == "" and len(lines) == 2 and "nan" not in lines[1]


@pytest.mark.parametrize("argv", [
    ["eta", "--n-range", "12:12"],
    ["eta", "--n-range", "0:4"],
    ["pmf", "--n", "12", "--dcr"],
    ["pmf", "--n", "12"],
])
def test_non_power_of_two_n_exits_2(capsys, argv):
    code, lines, err = run(capsys, *argv)
    assert code == 2
    assert lines == [] and "power of two" in err


def test_eta_checks_every_order_before_computing_any(capsys, monkeypatch):
    def computed(*args):
        raise AssertionError("an order was computed before the range was checked")
    monkeypatch.setattr(cli.analysis, "dcr_energy_efficiency", computed)
    code, lines, err = run(capsys, "eta", "--n-range", f"4:{2 << MAX_ORDER_LOG2}",
                           "--trials", "10000")
    assert code == 2
    assert lines == [] and "power of two" in err


@pytest.mark.parametrize("key", ["gamma", "dco_headroom", "taps_file", "nosie_std_w"])
def test_unknown_config_key_exits_2(tmp_path, capsys, key):
    # the pulse-shaping penalty and the DCO headroom are constants, and taps
    # come only from the taps key: naming any of them is a misspelt key
    path = tmp_path / "tiny.conf"
    path.write_text(f"{CONFIG}{key} = 1.5\n")
    for command in ("simulate", "analyze"):
        code, lines, err = run(capsys, command, str(path))
        assert code == 2
        assert lines == [] and f"unknown key {key!r}" in err
        code, lines, err = run(capsys, command, SEARCH_CONF, "--set", f"{key}=1.5")
        assert code == 2
        assert lines == [] and f"unknown override key {key!r}" in err


def test_snr_has_no_gamma_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["snr", "--gamma", "1.5"])
    assert exc.value.code == 2 and "unrecognized arguments: --gamma" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0\n1\nx\n3\n", "0 1 2.5 3\n", f"0 1 2 {2**64}\n"],
                         ids=["word", "fraction", "beyond-int64"])
def test_unreadable_permutation_file_exits_2(tmp_path, capsys, text):
    perm = tmp_path / "perm.txt"
    perm.write_text(text)
    path = tmp_path / "perm.conf"
    path.write_text(f"scheme = hcm\nn = 4\ninterleaver = {perm}\n")
    code, lines, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert lines == [] and f"cannot read permutation {perm}" in err


def test_interleaver_search_is_not_a_command(capsys):
    # the search runs only from a config's interleaver = search
    with pytest.raises(SystemExit) as exc:
        cli.main(["interleaver-search", "--n", "16"])
    assert exc.value.code == 2 and "invalid choice: 'interleaver-search'" in capsys.readouterr().err


def test_runtime_error_without_message_names_its_type(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError()
    monkeypatch.setattr(cli.analysis, "hcm_amplitude_pmf", exhausted)
    code, lines, err = run(capsys, "pmf", "--n", "8")
    assert code == 3
    assert lines == [] and err == "error: MemoryError\n"


def test_eta_reversed_range_exits_2(capsys):
    code, lines, err = run(capsys, "eta", "--n-range", "16:8")
    assert code == 2
    assert lines == [] and "above high" in err


@pytest.mark.parametrize("argv, message", [
    (["pmf", "--n", "16", "--dcr", "--m", "1"], "m >= 2"),
    (["eta", "--n-range", "16:16", "--m", "1"], "m >= 2"),
    (["pmf", "--n", "16", "--dcr", "--symbols", "0"], "at least one symbol"),
    (["pmf", "--n", "16", "--dcr", "--symbols", "-5"], "at least one symbol"),
    (["analyze", SEARCH_CONF, "--set", "n=0"], "power of two"),
    # above the largest supported order, rejected before any matrix is built
    (["analyze", SEARCH_CONF, "--set", f"n={2 << MAX_ORDER_LOG2}"], "power of two"),
    # taps that are not finite, negative or all zero: no NaN objective
    (["analyze", SEARCH_CONF, "--set", "taps=-0.5,1.5"], "non-negative taps"),
    (["analyze", SEARCH_CONF, "--set", "taps=nan,1"], "non-negative taps"),
    (["analyze", SEARCH_CONF, "--set", "taps=0,0"], "positive sum"),
    # a bad number in a list is a config error that names the flag or key
    (["analyze", SEARCH_CONF, "--set", "taps=0.5,x"], "bad value for 'taps'"),
    (["snr", "--m-list", "4,x"], "bad number in --m-list"),
    (["eta", "--n-range", "4:x"], "bad number in --n-range"),
    # a config path that is a directory is unreadable, a config problem
    (["analyze", str(SRC)], "cannot read config"),
    # a negative std is rejected like a config's, not squared into a valid variance
    (["snr", "--noise-std-w=-5e-7"], "noise_std_w must be >= 0"),
    # above the largest supported order, rejected before any frame is drawn
    (["pmf", "--n", str(2 << MAX_ORDER_LOG2)], "power of two"),
    (["pmf", "--n", str(2 << MAX_ORDER_LOG2), "--dcr", "--symbols", "1"], "power of two"),
    (["eta", "--n-range", f"{2 << MAX_ORDER_LOG2}:{2 << MAX_ORDER_LOG2}"], "power of two"),
    # an infinite std gives no finite SNR to scan for
    (["snr", "--noise-std-w", "inf"], "sigma2_n must be finite"),
    # a peak outside the physical range [MIN_POWER_W, MAX_POWER_W]
    (["snr", "--p-max-w", "inf"], "p_max must be positive and finite"),
    (["snr", "--p-max-w", "1e300"], POWER_RANGE),
    (["snr", "--p-max-w", "1e-16", "--schemes", "hcm"], POWER_RANGE),
    # the PAM order a config would reject, though the pmf formulas take any m >= 2
    (["pmf", "--n", "16", "--m", "3", "--dcr", "--symbols", "200"], "power of two m >= 2"),
    (["eta", "--n-range", "4:8", "--m", "3"], "power of two m >= 2"),
    # a negative seed, which numpy's seeding would reject with exit 3
    (["pmf", "--n", "16", "--dcr", "--symbols", "10", "--seed", "-1"], "--seed must be >= 0"),
    (["eta", "--n-range", "4:8", "--seed", "-1"], "--seed must be >= 0"),
])
def test_degenerate_input_exits_2(capsys, argv, message):
    code, lines, err = run(capsys, *argv)
    assert code == 2
    assert lines == [] and message in err


@pytest.mark.parametrize("argv", [
    ["simulate", "{conf}"],
    ["analyze", "{conf}"],
    ["pmf", "--n", "16", "--m", "4"],
    ["pmf", "--n", "16", "--dcr", "--symbols", "500"],
    ["eta", "--n-range", "4:8", "--trials", "10000"],
    ["snr", "--schemes", "hcm,dcr-hcm,aco-ofdm,dco-ofdm", "--m-list", "4"],
], ids=["simulate", "analyze", "pmf", "pmf-dcr", "eta", "snr"])
def test_every_command_runs_without_scipy(tmp_path, argv):
    # the package needs numpy only: scipy is a test dependency
    conf = tmp_path / "tiny.conf"
    conf.write_text(CONFIG)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY,
                           *(a.format(conf=conf) for a in argv)],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
    assert done.stderr.splitlines()[-1] == "[]"


COMMANDS = ["simulate", "analyze", "pmf", "eta", "snr"]
USAGE = "usage: hcmlink [-h] {simulate,analyze,pmf,eta,snr} ..."


@pytest.mark.parametrize("argv, want", [
    (["simulate", "a.conf", "--set", "n=16", "--set", "m=4", "--ou", "x.csv"],
     {"config": "a.conf", "set": ["n=16", "m=4"], "out": "x.csv"}),
    (["analyze", "a.conf", "--se", "n=16"], {"config": "a.conf", "set": ["n=16"], "out": None}),
    (["pmf", "--n", "8", "--dc"],
     {"n": 8, "m": 2, "dcr": True, "symbols": 20_000, "seed": 1, "out": None}),
    (["eta", "--n-r", "4:8", "--tr", "10000"],
     {"n_range": "4:8", "m": 2, "trials": 10_000, "seed": 1, "out": None}),
    (["snr", "--noise", "1e-6", "--m-list", "4,16"],
     {"schemes": "hcm,dcr-hcm", "m_list": "4,16", "n": 128, "p_max_w": 1e-4,
      "noise_std_w": 1e-6, "out": None}),
], ids=COMMANDS)
def test_one_command_parser_parses_as_all_five(argv, want):
    # defaults, a repeated --set and abbreviated long options, as the full tree reads them
    one = cli._parser(argv[:1]).parse_args(argv)
    assert one == cli._parser(cli._COMMANDS).parse_args(argv)
    assert vars(one) == {"cmd": argv[0], "func": cli._COMMANDS[argv[0]][0], **want}


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{USAGE}\n")
    helps = [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")]
    assert helps == [
        ["simulate", "Monte-Carlo BER sweep from a config file"],
        ["analyze", "analytical BER curve for a config file"],
        ["pmf", "chip amplitude pmf (analytic, or Monte-Carlo with --dcr)"],
        ["eta", "DCR-HCM energy efficiency over a range of orders"],
        ["snr", "maximum achievable SNR vs spectral efficiency"],
    ]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: hcmlink {command} [-h]")


@pytest.mark.parametrize("argv, lines", [
    ([], [USAGE, "hcmlink: error: the following arguments are required: cmd"]),
    (["foo"], [USAGE, "hcmlink: error: argument cmd: invalid choice: 'foo'"]),
    (["analyze"], ["usage: hcmlink analyze [-h] [--out OUT] [--set KEY=VALUE] config",
                   "hcmlink analyze: error: the following arguments are required: config"]),
    # a one-command build still names every command in the top-level usage
    (["snr", "--gamma", "1.5"], [USAGE, "hcmlink: error: unrecognized arguments: --gamma 1.5"]),
], ids=["no-command", "unknown", "analyze-no-config", "unrecognized"])
def test_usage_errors_exit_2(capsys, monkeypatch, argv, lines):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == lines[0] and err[1].startswith(lines[1])


@pytest.mark.parametrize("argv, built", [
    (["simulate", "/nonexistent/x.conf"], ["simulate"]),
    (["analyze", "/nonexistent/x.conf"], ["analyze"]),
    (["pmf", "--n", "12"], ["pmf"]),
    (["eta", "--n-range", "12:12"], ["eta"]),
    (["snr", "--schemes", "foo"], ["snr"]),
    ([], COMMANDS),
    (["--help"], COMMANDS),
    (["foo"], COMMANDS),
], ids=[*COMMANDS, "no-command", "help", "unknown"])
def test_main_builds_only_the_invoked_commands_parser(capsys, monkeypatch, argv, built):
    names = []
    real = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return real(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    assert names == built
