"""Exit codes and output shape of every CLI command on tiny inputs."""

import numpy as np
import pytest

from hcmlink import cli, equalization
from hcmlink.equalization import MAX_MATRIX_ORDER
from hcmlink.hadamard import MAX_ORDER_LOG2

CONFIG = """
scheme = dcr-hcm
n = 16
power_grid_w = 2e-5,6e-5
noise_std_w = 4e-6
max_symbols = 300
target_errors = 100
calib_symbols = 1000
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


def test_interleaver_search(capsys):
    code, lines, err = run(capsys, "interleaver-search", "--taps", "0.5,0.3,0.2", "--n", "16",
                           "--budget", "20")
    assert code == 0
    assert sorted(int(v) for v in lines) == list(range(16))
    assert err.startswith("objective:")


def test_interleaver_search_above_the_size_limit_fails_first(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("interference_matrix called")
    monkeypatch.setattr(equalization, "interference_matrix", fail)
    n = str(2 * MAX_MATRIX_ORDER)
    code, lines, err = run(capsys, "interleaver-search", "--taps", "0.5,0.3,0.2", "--n", n)
    assert code == 2 and lines == []
    assert f"n <= {MAX_MATRIX_ORDER}" in err


def test_interleaver_search_prints_the_objectives_it_searched(capsys, monkeypatch):
    # two matrices, the identity's and the start's, built by the search itself;
    # the printed objectives are the ones it tracked
    real = equalization.interference_matrix
    calls = []

    def counted(perm, h):
        calls.append(perm.size)
        return real(perm, h)
    for module in (cli, equalization):  # every binding the command could call
        if hasattr(module, "interference_matrix"):
            monkeypatch.setattr(module, "interference_matrix", counted)
    taps = [0.5, 0.3, 0.2]
    code, lines, err = run(capsys, "interleaver-search", "--taps", "0.5,0.3,0.2", "--n", "64",
                           "--budget", "200")
    assert code == 0 and calls == [64, 64]
    identity, found = (equalization.interference_spread(real(perm, taps))
                       for perm in (np.arange(64), np.array([int(v) for v in lines])))
    assert err == f"objective: identity={identity:.6g} found={found:.6g}\n"


def test_interleaver_search_out_file_matches_stdout(tmp_path, capsys):
    argv = ["interleaver-search", "--taps", "0.5,0.3,0.2", "--n", "16", "--budget", "20"]
    code, lines, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "perm.txt"
    code, out_lines, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out_lines == []
    assert path.read_text() == "".join(f"{line}\n" for line in lines)


def test_interleaver_search_taps_follow_the_config_rule(tmp_path, capsys):
    # taps off a unit sum by more than 1e-9 exit 2, as a config's taps do,
    # rather than being searched unnormalized
    message = "must sum to 1, got 10.0"
    code, lines, err = run(capsys, "interleaver-search", "--taps", "5,3,2", "--n", "16")
    assert code == 2 and lines == [] and message in err
    path = tmp_path / "taps.conf"
    path.write_text("scheme = dcr-hcm\nn = 16\ntaps = 5,3,2\ncp_len = 2\n")
    code, lines, err = run(capsys, "analyze", str(path))
    assert code == 2 and lines == [] and message in err
    # unit-sum taps search as before: the same permutation as from a file
    taps_file = tmp_path / "taps.txt"
    taps_file.write_text("0.5 0.3 0.2\n")
    argv = ["interleaver-search", "--n", "16", "--budget", "20"]
    _, from_flag, _ = run(capsys, *argv, "--taps", "0.5,0.3,0.2")
    _, from_file, _ = run(capsys, *argv, "--taps-file", str(taps_file))
    assert from_flag == from_file and sorted(map(int, from_flag)) == list(range(16))


@pytest.mark.parametrize("scheme", ["scheme = aco-ofdm", "scheme = dco-ofdm\ndco_headroom = 40"])
def test_analyze_without_noise_or_clipping(tmp_path, capsys, scheme):
    # neither noise nor clipping distortion: an infinite SNR, not a division by zero
    path = tmp_path / "clean.conf"
    path.write_text(f"{scheme}\nm = 4\nnoise_std_w = 0\np_max_w = 1\npower_grid_w = 1e-5\n")
    code, lines, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert lines == ["avg_power_w,analytical_ber,snr", "1e-05,0,inf"]


@pytest.mark.parametrize("extra", [
    [],
    ["--schemes", "aco-ofdm,dco-ofdm", "--m-list", "4,16"],
])
def test_snr(capsys, extra):
    code, lines, _ = run(capsys, "snr", "--n", "16", *extra)
    assert code == 0
    assert lines[0] == "scheme,m,spectral_efficiency,max_snr,best_avg_power_w"
    assert len(lines) == (5 if extra else 3)


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
    (["interleaver-search", "--taps", "0.5,0.5", "--n", "0"], "power of two"),
    # above the largest supported order, rejected before any matrix is built
    (["interleaver-search", "--taps", "0.5,0.5", "--n", str(2 << MAX_ORDER_LOG2)], "power of two"),
    # taps that are not finite, negative or all zero: no NaN objective
    (["interleaver-search", "--taps=-0.5,1.5", "--n", "16"], "non-negative taps"),
    (["interleaver-search", "--taps", "nan,1", "--n", "16"], "non-negative taps"),
    (["interleaver-search", "--taps", "0,0", "--n", "16"], "positive sum"),
    # a bad number in a list flag is a config error that names the flag
    (["interleaver-search", "--taps", "0.5,x", "--n", "16"], "bad number in --taps"),
    (["snr", "--m-list", "4,x"], "bad number in --m-list"),
    (["eta", "--n-range", "4:x"], "bad number in --n-range"),
    (["snr", "--gamma", "0.5"], "gamma must be >= 1"),
    # a negative std is rejected like a config's, not squared into a valid variance
    (["snr", "--noise-std-w=-5e-7"], "noise_std_w must be >= 0"),
    # above the largest supported order, rejected before any frame is drawn
    (["pmf", "--n", str(2 << MAX_ORDER_LOG2)], "power of two"),
    (["pmf", "--n", str(2 << MAX_ORDER_LOG2), "--dcr", "--symbols", "1"], "power of two"),
    (["eta", "--n-range", f"{2 << MAX_ORDER_LOG2}:{2 << MAX_ORDER_LOG2}"], "power of two"),
    # an infinite std or peak gives no finite SNR to scan for
    (["snr", "--noise-std-w", "inf"], "sigma2_n must be finite"),
    (["snr", "--p-max-w", "inf"], "needs a finite p_max"),
])
def test_degenerate_input_exits_2(capsys, argv, message):
    code, lines, err = run(capsys, *argv)
    assert code == 2
    assert lines == [] and message in err
