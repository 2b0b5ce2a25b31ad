"""Exit codes and output shape of every CLI command on tiny inputs."""

import pytest

from hcmlink import cli

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
