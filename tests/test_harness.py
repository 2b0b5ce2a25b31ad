import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcmlink import cli, equalization, harness
from hcmlink.channel import DEFAULT_GAMMA, propagate
from hcmlink.equalization import MAX_MATRIX_ORDER
from hcmlink.errors import ConfigError

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

BASE = """
p_max_w = 1e-4
noise_std_w = 2e-6
power_grid_w = 5e-5
"""


def _config(**keys) -> str:
    return "scheme = hcm\n" + BASE + "".join(f"{k} = {v}\n" for k, v in keys.items())


SWEEP_CONFIGS = {
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


# simulate's CSV rows for each config, pinned byte for byte: a record is fixed
# by the per-chunk streams (0, i, j) and the chunk order, so an engine change
# that keeps both keeps these rows
SWEEP_CSV_ROWS = {
    "aco-ofdm-n32": [
        "5e-06,512,183,0.02233886719,0.003200264306,0.0219967833",
        "3e-05,1000,0,0,0.0001875,0.0001542479023",
    ],
    "dco-ofdm-n16-taps": [
        "5e-06,256,1364,0.3805803571,0.01589599591,0.3427603387",
        "5e-05,1000,123,0.008785714286,0.001545839384,2.567315772e-05",
    ],
    "dcr-hcm-n16-mmse-search": [
        "1e-05,256,994,0.2588541667,0.01385383066,0.1152302646",
        "4e-05,512,106,0.01380208333,0.002609334908,0.008888556066",
        "6.3e-05,768,103,0.008940972222,0.001718984519,0.0003949052321",
    ],
    "dcr-hcm-n32": [
        "1e-05,256,1105,0.1392389113,0.007616875629,0.1374096264",
        "2.5e-05,1000,97,0.003129032258,0.0006217269866,0.003165959737",
        "4e-05,1000,0,0,9.677419355e-05,6.393863287e-06",
    ],
    "hcm-n32": [
        "1e-05,256,2654,0.3344254032,0.0103801407,0.3391714736",
        "6.3e-05,1000,131,0.004225806452,0.0007221218046,0.004495294259",
    ],
}


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_simulate_output_is_frozen(tmp_path, capsys, name):
    path = tmp_path / f"{name}.conf"
    path.write_text(SWEEP_CONFIGS[name])
    assert cli.main(["simulate", str(path)]) == 0
    header = "avg_power_w,symbols,bit_errors,ber,ci95,analytical_ber"
    assert capsys.readouterr().out.split("\r\n") == [header, *SWEEP_CSV_ROWS[name], ""]
    # one point stops on target_errors and one runs past its first chunk, so
    # both the stopping rule and the order of several chunks are pinned
    cfg = harness.parse_config(SWEEP_CONFIGS[name])
    symbols = [int(row.split(",")[1]) for row in SWEEP_CSV_ROWS[name]]
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
    ("noise_std_w", "inf"),
    ("power_grid_w", "nan"),
    ("master_seed", "-1"),
    ("taps", "0.5,x"),
    ("taps", "nan,1"),
    ("taps", "0,0"),
    ("power_grid_w", "lin:1e-5:x:3"),
])
def test_cli_exits_2_on_bad_value(tmp_path, capsys, key, value):
    path = tmp_path / "bad.conf"
    path.write_text(_config())
    assert cli.main(["simulate", str(path), "--set", f"{key}={value}"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("gamma", "0.5", "gamma must be >= 1"),
    ("gamma", "nan", "gamma must be >= 1"),
    ("p_max_w", "nan", "p_max must be positive"),
    ("taps", "0.5,0.3", "sum to 1, got 0.8"),
    ("cp_len", "0", "too short for 3-tap channel"),
    ("calib_symbols", "0", "calib_symbols must be >= 1"),
])
def test_bad_link_fails_before_any_work(tmp_path, capsys, monkeypatch, key, value, message):
    # the link is checked with the config, not at the first point after the search
    searches = []
    monkeypatch.setattr(harness, "interleaver_search", lambda *a, **k: searches.append(a))
    text = _config(**{"taps": "0.5,0.3,0.2", "cp_len": 2, "interleaver": "search", key: value})
    with pytest.raises(ConfigError, match=message):
        harness.parse_config(text)
    path = tmp_path / "bad.conf"
    path.write_text(text)
    for command in ("simulate", "analyze"):
        assert cli.main([command, str(path)]) == 2
        assert message in capsys.readouterr().err
    assert searches == []


@pytest.mark.parametrize("link, message", [
    ({"h": [0.5, 0.4]}, "sum to 1"),
    ({"p_max": float("nan")}, "p_max must be positive"),
    ({"h": [0.5, 0.3, 0.2], "cp_len": 0}, "cyclic prefix 0 too short"),
])
def test_building_a_config_checks_its_link(link, message):
    with pytest.raises(ConfigError, match=message):
        harness.ExperimentConfig(scheme="hcm", **link)


def test_chunk_noise_variance_includes_gamma(monkeypatch):
    # each chunk's propagate call gets the config's taps and peak, and the
    # noise variance sigma2_n inflated by the pulse-shaping penalty gamma
    calls = []

    def recorded(samples, h, p_max, noise_var, rng, out=None):
        calls.append((h, p_max, noise_var))
        return propagate(samples, h, p_max, noise_var, rng, out=out)

    monkeypatch.setattr(harness, "propagate", recorded)
    cfg = harness.parse_config(_config(gamma="1.5", taps="0.5,0.5", cp_len="1",
                                       max_symbols="300", target_errors="1000000"))
    harness.sweep(cfg)
    assert len(calls) == 2
    for h, p_max, noise_var in calls:
        assert h is cfg.h and p_max == 1e-4
        assert noise_var == 1.5 * 2e-6**2


@pytest.mark.parametrize("headroom", ["0", "-6", "nan"])
def test_bad_dco_headroom_rejected(capsys, headroom):
    # at 0 analyze divided by zero (exit 3), at -6 simulate ran to a wrong
    # BER, and at nan analyze printed nan rows
    path = BENCH_CONFIGS / "awgn-ofdm.dco-ofdm.conf"
    with pytest.raises(ConfigError, match="dco_headroom"):
        harness.parse_config(path.read_text(), {"dco_headroom": headroom})
    for command in ("simulate", "analyze"):
        assert cli.main([command, str(path), "--set", f"dco_headroom={headroom}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "dco_headroom" in captured.err


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


@settings(max_examples=60)
@given(scheme=st.sampled_from(harness.SCHEMES), k=st.integers(2, 8), data=st.data())
def test_noiseless_round_trip_returns_the_bits(scheme, k, data):
    # bits -> tx -> propagate without noise or clipping -> drop the prefix -> rx
    n = 1 << k
    hcm = scheme in ("hcm", "dcr-hcm")
    m = data.draw(st.sampled_from([2, 4, 8, 16] if hcm else [4, 16, 64]))
    # OFDM equalizes any channel with one tap per subcarrier; a dominant
    # first tap keeps every subcarrier gain away from zero
    taps = [1.0] if hcm else [1.0, *data.draw(st.lists(st.floats(0.0, 0.3), max_size=3))]
    cp_len = data.draw(st.integers(len(taps) - 1, n - 1))
    h = np.array(taps) / sum(taps)
    cfg = harness.ExperimentConfig(scheme=scheme, n=n, m=m, p_max=1.0, sigma2_n=0.0, h=h,
                                   cp_len=cp_len, calib_symbols=200)
    ctx = harness._SweepContext(cfg)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if hcm:
        ctx.perm = rng.permutation(n)
    avg = 4e-5  # every scheme's peak stays far below p_max
    point = harness.BerPoint(avg_power=avg, p=ctx.scheme.drive(ctx, avg), weights=None,
                             analytical_ber=0.0, snr=0.0)
    bits = rng.integers(0, 2, size=(8, ctx.bits_per_symbol))
    y = propagate(ctx.scheme.tx(ctx, point, bits), cfg.h, cfg.p_max, 0.0, rng)[:, cp_len:]
    assert np.array_equal(ctx.scheme.rx(ctx, point, y).reshape(8, -1), bits)


def test_achievable_snr_scans_the_point_snr():
    # the scan maximum is the best per-point SNR over the log grid, 4x for HCM
    cfg = harness.ExperimentConfig(scheme="hcm", n=16, p_max=1e-4, sigma2_n=1e-12)
    ctx = harness._SweepContext(cfg)
    grid = np.geomspace(1e-6, 1e-4, 200)
    want = max(4.0 * ctx.scheme.snr(ctx, float(a)) for a in grid)
    got = harness.achievable_snr("hcm", 1e-4, 1e-12, n=16, m=cfg.m, gamma=cfg.gamma)
    assert got.max_snr == want
    assert got.spectral_efficiency == 15 / 16


@pytest.mark.parametrize("keys", [{"equalizer": "mmse"}, {"interleaver": "search"}])
def test_matrix_work_above_the_size_limit_fails_first(tmp_path, capsys, monkeypatch, keys):
    # MMSE and the search build N x N matrices: the config stops them at twice
    # the limit, before the first one is built
    def fail(*args, **kwargs):
        raise AssertionError("interference_matrix called")
    monkeypatch.setattr(harness, "interference_matrix", fail)
    monkeypatch.setattr(equalization, "interference_matrix", fail)
    text = _config(n=2 * MAX_MATRIX_ORDER, **keys)
    with pytest.raises(ConfigError, match=f"n <= {MAX_MATRIX_ORDER}"):
        harness.parse_config(text)
    path = tmp_path / "big.conf"
    path.write_text(text)
    for command in ("simulate", "analyze"):
        assert cli.main([command, str(path)]) == 2
        assert f"n <= {MAX_MATRIX_ORDER}" in capsys.readouterr().err


def test_searched_interleaver_beats_identity_under_mmse():
    # what the interleaver search buys on a dispersive link: the MMSE BER
    # falls about fourfold, well outside both 95 % intervals
    text = ("scheme = dcr-hcm\n" + BASE + "n = 128\ntaps = 0.5,0.3,0.2\ncp_len = 2\n"
            "equalizer = mmse\ntarget_errors = 400\nmaster_seed = 1\n")
    (plain,) = harness.sweep(harness.parse_config(text))
    (searched,) = harness.sweep(harness.parse_config(text + "interleaver = search\n"))
    assert searched.ber + searched.ci_95 < plain.ber - plain.ci_95


def test_context_builds_only_what_its_scheme_reads(monkeypatch):
    calls = {"one_tap_gains": 0, "interference_matrix": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    # the weights of all three points share one interference matrix
    harness.analyze(harness.parse_config(SWEEP_CONFIGS["dcr-hcm-n16-mmse-search"]))
    assert calls == {"one_tap_gains": 0, "interference_matrix": 1}
    harness.achievable_snr("hcm", 1e-4, 1e-12, n=16, m=2, gamma=DEFAULT_GAMMA)
    assert calls == {"one_tap_gains": 0, "interference_matrix": 1}
    # an OFDM receiver reads the one-tap gains, built once per sweep
    harness.sweep(harness.parse_config(SWEEP_CONFIGS["aco-ofdm-n32"]))
    assert calls == {"one_tap_gains": 1, "interference_matrix": 1}


@pytest.mark.parametrize("stem, limit", [
    ("awgn-hcm.hcm", 3.0),
    ("awgn-hcm.dcr-hcm", 3.0),
    ("dispersive-mmse.dcr-hcm", 3.0),
])
def test_warmed_hcm_chunk_allocates_few_chunk_arrays(stem, limit):
    # a chunk runs through the sweep's buffers: what it allocates at its
    # peak, in 256 x N float64 arrays, is the bit array plus a few temporaries
    cfg = harness.parse_config((BENCH_CONFIGS / f"{stem}.conf").read_text())
    ctx = harness._SweepContext(cfg)
    point = harness._point_setup(ctx, float(cfg.power_grid[-1]))

    def chunk(j):
        harness._run_chunk(ctx, point, harness._stream(1, 0, 0, j), harness.CHUNK_SYMBOLS)

    chunk(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chunk(1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= limit * harness.CHUNK_SYMBOLS * cfg.n * 8


def test_analyze_keeps_no_mmse_weights():
    # the CSV needs each point's analytic values only: once analyze returns,
    # none of its N x N weights, nor the interference matrix, is held
    n = 512
    cfg = harness.parse_config((BENCH_CONFIGS / "dispersive-mmse.dcr-hcm.conf").read_text(),
                               {"n": str(n), "interleaver": "none"})
    assert cfg.power_grid.size == 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = harness.analyze(cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [p.weights for p in points] == [None] * 4
    assert held < n * n * 8
