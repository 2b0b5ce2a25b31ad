"""Exit codes and output shape of every CLI command on tiny inputs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcmlink import cli
from hcmlink.hadamard import MAX_ORDER_LOG2
from hcmlink.harness import MAX_POWER_W

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
    ("aco-ofdm", "1e-150,0.5,6.490893912e-289"),
    ("dco-ofdm", "1e-150,0.5,5.830308861e-291"),
], ids=["aco-ofdm", "dco-ofdm"])
def test_analyze_far_below_a_huge_peak_does_not_warn(tmp_path, capsys, scheme, row):
    # the peak lies about 1e458 std above the waveform: the Gaussian tail's
    # z quotient overflowed with a RuntimeWarning, an error in this suite
    path = tmp_path / "dim.conf"
    path.write_text(f"scheme = {scheme}\nm = 4\np_max_w = 1e308\npower_grid_w = 1e-150\n")
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
    # p_max = MAX_POWER_W with a noise std of 1e140 W: every square of the scan stays finite
    code, lines, _ = run(capsys, "snr", "--p-max-w", f"{MAX_POWER_W:g}", "--noise-std-w", "1e140",
                         "--n", str(n), "--schemes", schemes, "--m-list", m)
    assert code == 0
    assert len(lines) == 2 + schemes.count(",")
    assert not any("nan" in line or "inf" in line for line in lines)


def test_snr_beyond_every_float_is_inf(capsys):
    # at p_max = MAX_POWER_W and the default noise the best SNRs pass 1e307:
    # inf, and no overflow warning when 4x them gives hcm's peak SNR
    code, lines, _ = run(capsys, "snr", "--p-max-w", f"{MAX_POWER_W:g}", "--n", "16",
                         "--schemes", "hcm,dcr-hcm,aco-ofdm", "--m-list", "4")
    assert code == 0
    assert [line.split(",")[3] for line in lines[1:]] == ["inf"] * 3


@pytest.mark.parametrize("power, code", [(MAX_POWER_W, 0), (1e160, 2)])
def test_analyze_power_grid_bound(tmp_path, capsys, power, code):
    # the grid's bound is the scan's: 1e160 W would square to inf and print NaN
    path = tmp_path / "huge.conf"
    path.write_text(f"scheme = hcm\nn = 16\np_max_w = inf\npower_grid_w = {power:g}\n")
    got, lines, err = run(capsys, "analyze", str(path))
    assert got == code
    if code:
        assert lines == [] and f"at most {MAX_POWER_W:g} W" in err
    else:
        assert lines[1:] == ["1e+150,0,inf"]


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
    # an infinite std or peak gives no finite SNR to scan for
    (["snr", "--noise-std-w", "inf"], "sigma2_n must be finite"),
    (["snr", "--p-max-w", "inf"], "needs a finite p_max"),
    # a finite peak whose squares overflow: no NaN table, no overflow warning
    (["snr", "--p-max-w", "1e300"], f"p_max <= {MAX_POWER_W:g}"),
    (["snr", "--p-max-w", "1e160", "--schemes", "hcm"], f"p_max <= {MAX_POWER_W:g}"),
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY,
                           *(a.format(conf=conf) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
    assert done.stderr.splitlines()[-1] == "[]"
