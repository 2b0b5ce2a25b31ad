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
