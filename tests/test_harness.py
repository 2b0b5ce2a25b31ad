import numpy as np
import pytest

from hcmlink import cli, harness
from hcmlink.errors import ConfigError

BASE = """
p_max_w = 1e-4
noise_std_w = 2e-6
power_grid_w = 5e-5
"""


def _config(**keys) -> str:
    return "scheme = hcm\n" + BASE + "".join(f"{k} = {v}\n" for k, v in keys.items())


THREAD_CONFIGS = {
    "hcm-n32": """
        scheme = hcm
        n = 32
        power_grid_w = 1e-5,6.3e-5
        noise_std_w = 4e-6
        max_symbols = 1000
        target_errors = 100
        master_seed = 7
    """,
    "dcr-hcm-n32": """
        scheme = dcr-hcm
        n = 32
        power_grid_w = 1e-5,2.5e-5,4e-5
        noise_std_w = 4e-6
        max_symbols = 1000
        target_errors = 100
        calib_symbols = 2000
        master_seed = 7
    """,
    "dcr-hcm-n16-mmse-search": """
        scheme = dcr-hcm
        n = 16
        taps = 0.5,0.3,0.2
        cp_len = 2
        interleaver = search
        interleaver_budget = 50
        equalizer = mmse
        power_grid_w = 1e-5,4e-5,6.3e-5
        noise_std_w = 4e-6
        max_symbols = 1000
        target_errors = 100
        calib_symbols = 2000
        master_seed = 7
    """,
    "aco-ofdm-n32": """
        scheme = aco-ofdm
        n = 32
        m = 4
        power_grid_w = 5e-6,3e-5
        noise_std_w = 4e-6
        max_symbols = 1000
        target_errors = 100
        master_seed = 7
    """,
    "dco-ofdm-n16-taps": """
        scheme = dco-ofdm
        n = 16
        m = 4
        taps = 0.7,0.3
        cp_len = 1
        power_grid_w = 5e-6,5e-5
        noise_std_w = 2e-6
        max_symbols = 1000
        target_errors = 100
        master_seed = 7
    """,
}


@pytest.mark.parametrize("name", sorted(THREAD_CONFIGS))
def test_sweep_identical_for_any_thread_count(name):
    cfg = harness.parse_config(THREAD_CONFIGS[name])
    records = [harness.sweep(cfg, threads=t) for t in (1, 2, 3)]
    assert records[0] == records[1] == records[2]
    # one point stops on target_errors and one runs past its first chunk, so
    # both the stopping rule and chunks spread over thread waves are compared
    symbols = [r.symbols_run for r in records[0]]
    assert min(symbols) < cfg.max_symbols
    assert max(symbols) > harness.CHUNK_SYMBOLS


@pytest.mark.parametrize("name", sorted(THREAD_CONFIGS))
def test_cli_simulate_identical_for_any_thread_count(tmp_path, capsys, name):
    path = tmp_path / f"{name}.conf"
    path.write_text(THREAD_CONFIGS[name])
    outputs = []
    for threads in ("1", "2", "3"):
        assert cli.main(["simulate", str(path), "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("avg_power_w,symbols,")
    assert outputs[0] == outputs[1] == outputs[2]


def test_negative_noise_std_rejected():
    with pytest.raises(ConfigError, match="noise_std_w"):
        harness.parse_config(_config(noise_std_w="-1e-6"))


def test_non_finite_power_grid_rejected():
    with pytest.raises(ConfigError, match="finite"):
        harness.parse_config(_config(power_grid_w="5e-5,nan"))


def test_negative_master_seed_rejected():
    with pytest.raises(ConfigError, match="master_seed"):
        harness.parse_config(_config(master_seed="-1"))


@pytest.mark.parametrize("key, value", [
    ("noise_std_w", "-1"),
    ("power_grid_w", "nan"),
    ("master_seed", "-1"),
])
def test_cli_exits_2_on_bad_value(tmp_path, capsys, key, value):
    path = tmp_path / "bad.conf"
    path.write_text(_config())
    assert cli.main(["simulate", str(path), "--set", f"{key}={value}"]) == 2
    assert "config error" in capsys.readouterr().err


def test_dco_grid_at_p_max_rejected(tmp_path, capsys):
    text = "scheme = dco-ofdm\nm = 4\npower_grid_w = 5e-5,1e-4\n"
    with pytest.raises(ConfigError, match="below p_max"):
        harness.parse_config(text)
    harness.parse_config(text.replace("1e-4", "9.9e-5"))
    path = tmp_path / "dco.conf"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert cli.main(["simulate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "p_max" in captured.err


@pytest.mark.parametrize("scheme, avg_power", [("dco-ofdm", 1e-4), ("hcm", 0.0), ("aco-ofdm", 2e-4)])
def test_run_point_checks_its_power(scheme, avg_power):
    cfg = harness.parse_config(f"scheme = {scheme}\nm = 4\n")
    with pytest.raises(ConfigError, match="p_max"):
        harness.run_point(cfg, avg_power)


def test_mmse_with_zero_noise_rejected(tmp_path, capsys):
    text = _config(equalizer="mmse", noise_std_w="0")
    with pytest.raises(ConfigError, match="noise_std_w > 0"):
        harness.parse_config(text)
    harness.parse_config(_config(equalizer="mmse", noise_std_w="1e-9"))
    path = tmp_path / "mmse.conf"
    path.write_text(text)
    assert cli.main(["simulate", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("scheme, m", [
    ("dco-ofdm", 36),  # square, but its side 6 is not a power of two
    ("aco-ofdm", 8),
    ("aco-ofdm", 2),
    ("hcm", 3),
    ("dcr-hcm", 6),
])
def test_bad_order_rejected(tmp_path, capsys, scheme, m):
    text = f"scheme = {scheme}\nm = {m}\n"
    with pytest.raises(ConfigError, match="order"):
        harness.parse_config(text)
    path = tmp_path / "bad.conf"
    path.write_text(text)
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["--schemes", "aco-ofdm", "--m-list", "2"],
    ["--schemes", "dco-ofdm", "--m-list", "4,36"],
    ["--schemes", "hcm", "--m-list", "3", "--n", "16"],
    ["--schemes", "hcm,qam", "--n", "16"],
])
def test_snr_exits_2_on_bad_scheme_or_order(capsys, args):
    assert cli.main(["snr", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err


def test_achievable_snr_scans_the_point_snr():
    # the scan maximum is the best per-point SNR over the log grid, 4x for HCM
    cfg = harness.ExperimentConfig(scheme="hcm", n=16, p_max=1e-4, sigma2_n=1e-12)
    ctx = harness._SweepContext(cfg)
    grid = np.geomspace(1e-6, 1e-4, 50)
    want = max(4.0 * ctx.scheme.snr(ctx, float(a)) for a in grid)
    got = harness.achievable_snr("hcm", 1e-4, 1e-12, n=16, grid_points=50)
    assert got.max_snr == want
    assert got.spectral_efficiency == 15 / 16
