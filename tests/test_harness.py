import gc
import io
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gray_oracle
import link_oracle
from hcmlink import analysis, cli, equalization, harness
from hcmlink.channel import GAMMA, propagate
from hcmlink.equalization import MAX_MATRIX_ORDER
from hcmlink.errors import ConfigError
from hcmlink.hadamard import MAX_ORDER_LOG2
from hcmlink.modem_hcm import (
    decode_samples,
    deinterleave,
    encode_levels,
    frame_chips,
    interleave,
    levels_from_bits,
)
from hcmlink.modem_ofdm import (
    aco_extract,
    aco_time_samples,
    dco_extract,
    dco_time_samples,
    qam_fold,
    qam_symbols,
)

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

BASE = {"p_max_w": "1e-4", "noise_std_w": "2e-6", "power_grid_w": "5e-5"}


def _config(**keys) -> str:
    """An hcm config text: BASE's keys, each replaced by a key of keys, then the rest."""
    return "scheme = hcm\n" + "".join(f"{k} = {v}\n" for k, v in {**BASE, **keys}.items())


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
# by the per-chunk streams (0, j), which every power shares, and the chunk
# order, so an engine change that keeps both keeps these rows
SWEEP_CSV_ROWS = {
    "aco-ofdm-n32": [
        "5e-06,512,174,0.02124023438,0.00312233003,0.0219967833",
        "3e-05,1000,0,0,0.0001875,0.0001542479023",
    ],
    "dco-ofdm-n16-taps": [
        "5e-06,256,1403,0.3914620536,0.01597940993,0.3427603387",
        "5e-05,1000,121,0.008642857143,0.001533330558,2.567315772e-05",
    ],
    "dcr-hcm-n16-mmse-search": [
        "1e-05,256,974,0.2536458333,0.01376184957,0.1152302646",
        "4e-05,512,136,0.01770833333,0.002949745419,0.008888556066",
        "6.3e-05,768,122,0.01059027778,0.001869268099,0.0003949052321",
    ],
    "dcr-hcm-n32": [
        "1e-05,256,1049,0.1321824597,0.007451717262,0.1374096264",
        "2.5e-05,1000,94,0.003032258065,0.0006120668488,0.003165959737",
        "4e-05,1000,0,0,9.677419355e-05,6.393863287e-06",
    ],
    "hcm-n32": [
        "1e-05,256,2647,0.3335433468,0.01037330952,0.3391714736",
        "6.3e-05,1000,127,0.004096774194,0.0007110576407,0.004495294259",
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


# analyze runs the sweep configs and these edge cases: no noise (an infinite
# SNR where nothing clips), an unclipped LED (the *-p-max-inf configs, at the
# largest peak, MAX_POWER_W, which their waveforms never reach) and a DCO
# bias just below p_max
ANALYZE_CONFIGS = {
    **SWEEP_CONFIGS,
    "hcm-n32-noiseless": """
        scheme = hcm
        n = 32
        power_grid_w = 1e-5,6.3e-5,1e-4
        noise_std_w = 0
    """,
    "dcr-hcm-n32-noiseless": """
        scheme = dcr-hcm
        n = 32
        power_grid_w = 1e-5,4e-5,1e-4
        noise_std_w = 0
        calib_symbols = 2000
    """,
    "hcm-n32-p-max-inf": """
        scheme = hcm
        n = 32
        p_max_w = 1e3
        power_grid_w = 1e-5,1
        noise_std_w = 4e-6
    """,
    "aco-ofdm-p-max-inf": """
        scheme = aco-ofdm
        m = 4
        p_max_w = 1e3
        power_grid_w = 1e-5,1e-3
        noise_std_w = 1e-6
    """,
    "dco-ofdm-p-max-inf": """
        scheme = dco-ofdm
        n = 16
        m = 4
        p_max_w = 1e3
        power_grid_w = 1e-5
        noise_std_w = 1e-6
    """,
    "dco-ofdm-below-p-max": """
        scheme = dco-ofdm
        n = 16
        m = 16
        power_grid_w = 5e-5,9.9e-5,9.999999999999999e-05
        noise_std_w = 2e-6
    """,
}

# analyze's CSV rows for each config, pinned byte for byte
ANALYZE_CSV_ROWS = {
    "aco-ofdm-n32": ["5e-06,0.0219967833,4.056808695", "3e-05,0.0001542479023,13.01809303"],
    "aco-ofdm-p-max-inf": ["1e-05,1.030107955e-58,259.6357565", "0.001,0,2596357.565"],
    "dco-ofdm-below-p-max": [
        "5e-05,0.02630558044,3.27954873",
        "9.9e-05,0.3641653865,0.001311819494",
        "0.0001,0.375,2.409431881e-31",
    ],
    "dco-ofdm-n16-taps": ["5e-06,0.3427603387,0.1639774367", "5e-05,2.567315772e-05,16.39774365"],
    "dco-ofdm-p-max-inf": ["1e-05,0.05264137268,2.623638987"],
    "dcr-hcm-n16-mmse-search": [
        "1e-05,0.1152302646,1.4370195",
        "4e-05,0.008888556066,5.767279498",
        "6.3e-05,0.0003949052321,12.23313379",
    ],
    "dcr-hcm-n32": [
        "1e-05,0.1374096264,1.192532812",
        "2.5e-05,0.003165959737,7.453330075",
        "4e-05,6.393863287e-06,19.0419322",
    ],
    "dcr-hcm-n32-noiseless": [
        "1e-05,0,inf",
        "4e-05,0,7661.158339",
        "0.0001,0.09469026257,1.7224302",
    ],
    "hcm-n32": ["1e-05,0.3391714736,0.1719971448", "6.3e-05,0.004495294259,6.824695456"],
    "hcm-n32-noiseless": [
        "1e-05,0,inf",
        "6.3e-05,0,24897.74394",
        "0.0001,0.07538138751,2.064516129",
    ],
    "hcm-n32-p-max-inf": ["1e-05,0.3391714736,0.1719971448", "1,0,1719971448"],
}


@pytest.mark.parametrize("name", sorted(ANALYZE_CONFIGS))
def test_analyze_output_is_frozen(tmp_path, capsys, name):
    path = tmp_path / f"{name}.conf"
    path.write_text(ANALYZE_CONFIGS[name])
    assert cli.main(["analyze", str(path)]) == 0
    header = "avg_power_w,analytical_ber,snr"
    assert capsys.readouterr().out.split("\r\n") == [header, *ANALYZE_CSV_ROWS[name], ""]


# snr's rows with its defaults (hcm and dcr-hcm, m = 2, N = 128) and with the
# OFDM baselines, pinned byte for byte
SNR_ROWS = {
    (): [
        "hcm,2,0.992188,635.654,7.9341e-05",
        "dcr-hcm,2,0.992188,3275.46,4.24757e-05",
    ],
    ("--schemes", "aco-ofdm,dco-ofdm", "--m-list", "4,16"): [
        "aco-ofdm,4,0.5,1277.77,1.18953e-05",
        "aco-ofdm,16,1,255.554,1.18953e-05",
        "dco-ofdm,4,0.984375,232.7,4.99451e-05",
        "dco-ofdm,16,1.96875,46.54,4.99451e-05",
    ],
}


@pytest.mark.parametrize("args", list(SNR_ROWS), ids=["defaults", "ofdm"])
def test_snr_output_is_frozen(capsys, args):
    assert cli.main(["snr", *args]) == 0
    header = "scheme,m,spectral_efficiency,max_snr,best_avg_power_w"
    assert capsys.readouterr().out.splitlines() == [header, *SNR_ROWS[args]]


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
    # an empty grid printed a header-only CSV with exit 0
    ("power_grid_w", ""),
    ("power_grid_w", "lin:1e-5:2e-5:0"),
    # checked whatever the interleaver: this config never searches
    ("interleaver_budget", "-5"),
])
def test_cli_exits_2_on_bad_value(tmp_path, capsys, key, value):
    path = tmp_path / "bad.conf"
    path.write_text(_config())
    assert cli.main(["simulate", str(path), "--set", f"{key}={value}"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("p_max_w", "nan", "p_max must be positive"),
    # every power lies in [MIN_POWER_W, MAX_POWER_W], 1 fW to 1 kW
    ("p_max_w", "inf", "p_max must be positive and finite, in [1e-15, 1000] W, got inf"),
    ("p_max_w", "1e4", "in [1e-15, 1000] W, got 10000.0"),
    ("p_max_w", "1e-16", "in [1e-15, 1000] W, got 1e-16"),
    ("taps", "0.5,0.3", "sum to 1, got 0.8"),
    ("cp_len", "0", "too short for 3-tap channel"),
    ("calib_symbols", "0", "calib_symbols must be >= 1"),
    ("interleaver_budget", "0", "interleaver_budget must be >= 1"),
    ("interleaver", "/nonexistent/perm.txt", "cannot read permutation"),
])
def test_bad_link_fails_before_any_work(tmp_path, capsys, monkeypatch, key, value, message):
    # the link is checked with the config, not at the first point after the search
    searches = []
    monkeypatch.setattr(harness, "interleaver_search", lambda *a, **k: searches.append(a))
    text = _config(**{"taps": "0.5,0.3,0.2", "cp_len": 2, "interleaver": "search", key: value})
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.parse_config(text)
    path = tmp_path / "bad.conf"
    path.write_text(text)
    for command in ("simulate", "analyze"):
        assert cli.main([command, str(path)]) == 2
        assert message in capsys.readouterr().err
    assert searches == []


@pytest.mark.parametrize("text, message", [
    ("0\n1\nx\n3\n", "cannot read permutation"),
    ("0 1 2\n", "permutation length 3 != expected 4"),
    ("0 1 1 3\n", "is not a permutation of 0..3"),
])
def test_bad_permutation_file_fails_the_config(tmp_path, capsys, monkeypatch, text, message):
    # the file is read with the config, before any calibration or search
    work = []
    for fn in ("dcr_amplitude_pmf", "interleaver_search"):
        monkeypatch.setattr(harness, fn, lambda *a, _fn=fn, **k: work.append(_fn))
    perm = tmp_path / "perm.txt"
    perm.write_text(text)
    config = ("scheme = dcr-hcm\nn = 4\ntaps = 0.5,0.3,0.2\ncp_len = 2\n"
              f"equalizer = mmse\ninterleaver = {perm}\n")
    with pytest.raises(ConfigError, match=message):
        harness.parse_config(config)
    path = tmp_path / "perm.conf"
    path.write_text(config)
    for command in ("simulate", "analyze"):
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    assert work == []


@pytest.mark.parametrize("scheme", ["aco-ofdm", "dco-ofdm"])
def test_ofdm_rejects_an_interleaver_file_without_reading_it(tmp_path, monkeypatch, scheme):
    reads = []
    monkeypatch.setattr(harness, "load_permutation", lambda *a: reads.append(a))
    perm = tmp_path / "perm.txt"
    perm.write_text("0 1 2 3\n")
    with pytest.raises(ConfigError, match="interleaving applies to hcm/dcr-hcm only"):
        harness.parse_config(f"scheme = {scheme}\nm = 4\nn = 4\ninterleaver = {perm}\n")
    assert reads == []


@pytest.mark.parametrize("link, message", [
    ({"h": [0.5, 0.4]}, "sum to 1"),
    ({"p_max": float("nan")}, "p_max must be positive"),
    ({"h": [0.5, 0.3, 0.2], "cp_len": 0}, "cyclic prefix 0 too short"),
])
def test_building_a_config_checks_its_link(link, message):
    with pytest.raises(ConfigError, match=message):
        harness.ExperimentConfig(scheme="hcm", **link)


def test_chunk_noise_variance_includes_gamma(monkeypatch):
    # each row block's propagate call gets the config's taps, and the noise
    # variance sigma2_n inflated by the constant pulse-shaping penalty; a lone
    # power runs the whole link in the units of the reference drive, so the
    # LED's peak and the noise std scale by that drive over the power's
    calls = []

    def recorded(samples, h, p_max, noise_var, normals, out=None):
        calls.append((h, p_max, noise_var))
        return propagate(samples, h, p_max, noise_var, normals, out=out)

    monkeypatch.setattr(harness, "propagate", recorded)
    cfg = harness.parse_config(_config(taps="0.5,0.5", cp_len="1",
                                       max_symbols="300", target_errors="1000000"))
    ctx = harness._SweepContext(cfg)
    (point,) = harness._points(ctx, cfg.power_grid)
    scale = ctx.scheme.reference(cfg) / point.p
    harness.sweep(cfg)
    assert len(calls) == 2
    for h, p_max, noise_var in calls:
        assert h is cfg.h and p_max == cfg.p_max * scale
        assert noise_var == cfg.noise_var * scale * scale
    assert cfg.noise_var == GAMMA * 2e-6**2 == 1.21 * 2e-6**2


def test_dco_grid_that_overflows_the_snr_rejected(tmp_path, capsys):
    # at the fixed headroom factor 6, biases at both ends of the power range
    # analyze without overflow at every order
    for n in (4, 65536):
        text = f"scheme = dco-ofdm\nm = 4\np_max_w = 1e3\nn = {n}\npower_grid_w = 1e-15,999\n"
        (point, top) = harness.analyze(harness.parse_config(text))
        assert np.isfinite([point.snr, top.snr, point.analytical_ber, top.analytical_ber]).all()
        path = tmp_path / "dco.conf"
        path.write_text(text)
        assert cli.main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "nan" not in captured.out and "inf" not in captured.out


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


def test_huge_max_symbols_runs_only_the_chunks_it_needs():
    # the chunk schedule is made as the chunks run: a max_symbols whose list
    # of chunk sizes would not fit in memory stops where a config capped at
    # the chunks it ran stops, with the same streams and the same record
    keys = {"noise_std_w": "1.2e-6", "target_errors": "100"}
    cfg = harness.parse_config(_config(**keys, max_symbols=10**15))
    tracemalloc.start()
    try:
        (record,) = harness.sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert harness.CHUNK_SYMBOLS < record.symbols_run < 20 * harness.CHUNK_SYMBOLS
    assert record.bit_errors >= 100
    capped = harness.parse_config(_config(**keys, max_symbols=record.symbols_run))
    assert harness.sweep(capped) == [record]
    # the sweep's chunk buffers and one chunk's temporaries: a few MiB at N = 128
    assert peak < 16 << 20


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
    # bits -> unit waveform -> the whole link at one power (propagate
    # without noise, nothing clips) -> decide
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
    bits = rng.integers(0, 2, size=(8, ctx.bits_per_symbol)).astype(np.uint8)
    unit = ctx.scheme.unit(ctx, bits)
    normals = rng.standard_normal((8, n + cp_len))
    ((_, est),) = harness._estimates(ctx, [point], unit, normals)
    # the slicers' folded forms: (m - 1) u - 1/2, or per QAM axis scale x + offset
    scale, offset = (m - 1.0, -0.5) if hcm else qam_fold(m)
    est = (est - offset * (1 if hcm else 1 + 1j)) / scale
    # the estimates are in decision units: the sent PAM levels (after the
    # deinterleaver) or QAM symbols (after the one-tap equalizer), up to the
    # rounding of the length-n transforms, at most 2.7e-14 over 20,000 draws
    sent = levels_from_bits(bits, m, n)[:, 1:] if hcm else qam_symbols(bits, m)
    assert np.abs(est - sent).max() < 1e-13
    est = est * scale + offset * (1 if hcm else 1 + 1j)
    bits_hat = ctx.scheme.decide(est, m, (ctx.work.idx[:8], ctx.work.bits[:8]))
    assert np.array_equal(bits_hat.reshape(8, -1), bits)


def test_achievable_snr_scans_the_point_snr():
    # the scan maximum is the best per-point SNR over the log grid, 4x for HCM
    cfg = harness.ExperimentConfig(scheme="hcm", n=16, p_max=1e-4, sigma2_n=1e-12)
    ctx = harness._SweepContext(cfg)
    grid = np.geomspace(1e-6, 1e-4, 200)
    want = max(4.0 * ctx.scheme.snr(ctx, float(a)) for a in grid)
    got = harness.achievable_snr("hcm", 1e-4, 1e-12, n=16, m=cfg.m)
    assert got.max_snr == want
    assert got.spectral_efficiency == 15 / 16


@pytest.mark.parametrize("sigma2_n", [0.0, 2.5e-13])
@pytest.mark.parametrize("scheme, m", [("hcm", 2), ("dcr-hcm", 4), ("aco-ofdm", 16),
                                       ("dco-ofdm", 4)])
def test_array_scan_is_the_per_power_scan(scheme, m, sigma2_n):
    # one array pass over the scan grid gives each power's own values; the
    # grid ends at p_max, where dco-ofdm has no headroom and scores 0
    cfg = harness.ExperimentConfig(scheme=scheme, n=64, m=m, p_max=1e-4, sigma2_n=sigma2_n,
                                   calib_symbols=2000)
    ctx = harness._SweepContext(cfg)
    grid = np.geomspace(1e-6, 1e-4, 200)
    snrs = ctx.scheme.snr(ctx, grid)
    each = np.array([ctx.scheme.snr(ctx, float(a)) for a in grid])
    if scheme == "dcr-hcm":  # a row of a block may sum its terms in another order
        assert np.array_equal(np.isfinite(snrs), np.isfinite(each))
        finite = np.isfinite(each)
        np.testing.assert_array_max_ulp(snrs[finite], each[finite], maxulp=4)
    else:
        assert np.array_equal(snrs, each)
    assert np.array_equal(ctx.scheme.drive(ctx, grid), [ctx.scheme.drive(ctx, a) for a in grid])
    assert np.array_equal(ctx.scheme.ber(snrs, m), [ctx.scheme.ber(s, m) for s in snrs])
    assert (scheme == "dco-ofdm") == (snrs[-1] == 0.0)
    # no negative SNR: without noise, a far ACO tail whose terms cancel
    # once made one, and its BER a math domain error
    assert np.all(snrs >= 0)


@pytest.mark.parametrize("scheme", ["hcm", "dcr-hcm"])
def test_hcm_family_scan_holds_one_block(scheme):
    # the 200-power scan at N = 2**14 forms its (power, chip) terms one block
    # of CALIB_BLOCK_CHIPS at a time: 4 support vectors for hcm, not 200
    cfg = harness.ExperimentConfig(scheme=scheme, n=1 << 14, p_max=1e-4, sigma2_n=2.5e-13,
                                   calib_symbols=100)
    ctx = harness._SweepContext(cfg)
    block = analysis.CALIB_BLOCK_CHIPS * 8
    assert 200 * ctx.calib.support.size * 8 > 1.5 * block  # the whole scan would not fit
    grid = np.geomspace(1e-6, 1e-4, 200)
    tracemalloc.start()
    try:
        snrs = ctx.scheme.snr(ctx, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * block
    assert np.all(snrs > 0)


@pytest.mark.parametrize("scheme", ["aco-ofdm", "dco-ofdm"])
def test_huge_finite_p_max_analyzes_like_an_unclipped_led(tmp_path, capsys, scheme):
    # a cap at MAX_POWER_W, 4e7 std or more above a 1e-5 W waveform, has
    # tail probability 0, so its clipping variance is 0, not NaN: ACO's SNR
    # is that of no clipping at all, DCO's that of its zero clip alone
    n, avg, noise_var = 128, 1e-5, GAMMA * 1e-12
    path = tmp_path / "far.conf"
    path.write_text(f"scheme = {scheme}\nm = 4\nnoise_std_w = 1e-6\n"
                    f"power_grid_w = {avg}\np_max_w = {harness.MAX_POWER_W!r}\n")
    assert cli.main(["analyze", str(path)]) == 0
    snr = float(capsys.readouterr().out.split()[1].split(",")[2])
    if scheme == "aco-ofdm":
        scale = analysis.aco_scale(avg, n)
        es_snr = scale * scale / (4.0 * n * noise_var)
    else:
        scale = analysis.dco_scale(avg, n, harness.MAX_POWER_W)
        std = analysis.dco_ac_std(avg, harness.MAX_POWER_W)
        es_snr = scale * scale / (n * (noise_var + analysis._tail_var(avg, std, 0.0, -1.0)))
    assert snr == pytest.approx(es_snr, rel=1e-9)  # 3 Es / (M - 1) is Es at M = 4


def test_search_above_the_size_limit_fails_first(tmp_path, capsys, monkeypatch):
    # the search builds N x N matrices: the config stops it at twice the
    # limit, before the first one is built
    def fail(*args, **kwargs):
        raise AssertionError("interference_matrix called")
    monkeypatch.setattr(equalization, "interference_matrix", fail)
    text = _config(n=2 * MAX_MATRIX_ORDER, interleaver="search")
    with pytest.raises(ConfigError, match=f"n <= {MAX_MATRIX_ORDER}"):
        harness.parse_config(text)
    path = tmp_path / "big.conf"
    path.write_text(text)
    for command in ("simulate", "analyze"):
        assert cli.main([command, str(path)]) == 2
        assert f"n <= {MAX_MATRIX_ORDER}" in capsys.readouterr().err


def test_mmse_runs_above_the_search_size_limit(tmp_path, capsys):
    # MMSE holds no N x N array: 256 symbols at twice the search's limit
    path = tmp_path / "mmse.conf"
    path.write_text(_config(n=2 * MAX_MATRIX_ORDER, taps="0.5,0.3,0.2", cp_len=2,
                            equalizer="mmse", max_symbols=256))
    assert cli.main(["simulate", str(path)]) == 0
    captured = capsys.readouterr()
    header, row = captured.out.splitlines()
    assert header.startswith("avg_power_w,symbols") and captured.err == ""
    assert row.split(",")[:2] == ["5e-05", "256"]


def test_searched_interleaver_beats_identity_under_mmse():
    # what the interleaver search buys on a dispersive link: the MMSE BER
    # falls about fourfold, well outside both 95 % intervals
    text = _config(n=128, taps="0.5,0.3,0.2", cp_len=2, equalizer="mmse", target_errors=400,
                   master_seed=1).replace("scheme = hcm", "scheme = dcr-hcm")
    (plain,) = harness.sweep(harness.parse_config(text))
    (searched,) = harness.sweep(harness.parse_config(text + "interleaver = search\n"))
    assert searched.ber + searched.ci_95 < plain.ber - plain.ci_95


def test_context_builds_only_what_its_scheme_reads(monkeypatch):
    # one channel spectrum per sweep, read by every point's MMSE filter and by
    # the OFDM one-tap receivers; no interference matrix outside the search
    calls = {"one_tap_gains": 0, "interference_matrix": 0}
    for module, name in ((harness, "one_tap_gains"), (equalization, "interference_matrix")):
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    mmse = harness.parse_config(SWEEP_CONFIGS["dcr-hcm-n16-mmse-search"],
                                {"interleaver": "none"})
    harness.analyze(mmse)
    assert calls == {"one_tap_gains": 1, "interference_matrix": 0}
    harness.sweep(mmse)
    assert calls == {"one_tap_gains": 2, "interference_matrix": 0}
    harness.achievable_snr("hcm", 1e-4, 1e-12, n=16, m=2)
    harness.sweep(harness.parse_config(SWEEP_CONFIGS["hcm-n32"]))
    assert calls == {"one_tap_gains": 2, "interference_matrix": 0}
    harness.sweep(harness.parse_config(SWEEP_CONFIGS["aco-ofdm-n32"]))
    assert calls == {"one_tap_gains": 3, "interference_matrix": 0}


@pytest.mark.parametrize("name, counts", [
    # calls of (dcr_amplitude_pmf, hcm_amplitude_pmf, interleaver_search)
    # under analyze, sweep and achievable_snr: a calibration or search is
    # built at most once per context, and only where a printed value reads
    # it; the OFDM schemes calibrate nothing, and the slicer's analytic values
    # never read the interleaver; a name "<config>/<key>=<value>" overrides one key
    ("hcm-n32", [(0, 1, 0)] * 3),
    ("dcr-hcm-n32", [(1, 0, 0)] * 3),
    ("aco-ofdm-n32", [(0, 0, 0)] * 3),
    ("dco-ofdm-n16-taps", [(0, 0, 0)] * 3),
    ("dcr-hcm-n16-mmse-search", [(1, 0, 1), (1, 0, 1), (1, 0, 0)]),
    ("dcr-hcm-n16-mmse-search/equalizer=slicer", [(1, 0, 0), (1, 0, 1), (1, 0, 0)]),
])
def test_setup_builds_only_what_each_command_reads(monkeypatch, name, counts):
    calls = {}

    def counting(key, real):
        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)
        return counted
    names = ("dcr_amplitude_pmf", "hcm_amplitude_pmf", "interleaver_search")
    for fn in names:
        monkeypatch.setattr(harness, fn, counting(fn, getattr(harness, fn)))
    base, _, override = name.partition("/")
    overrides = dict([override.split("=")]) if override else None
    cfg = harness.parse_config(SWEEP_CONFIGS[base], overrides)
    commands = (harness.analyze, harness.sweep, lambda cfg: harness.achievable_snr(
        cfg.scheme, cfg.p_max, cfg.sigma2_n, n=cfg.n, m=cfg.m))
    for command, want in zip(commands, counts):
        calls.clear()
        command(cfg)
        assert tuple(calls.get(fn, 0) for fn in names) == want


@pytest.mark.parametrize("stem, limit", [
    ("awgn-hcm.hcm", 1.3),
    ("awgn-hcm.dcr-hcm", 1.3),
    ("dispersive-mmse.dcr-hcm", 1.55),
    ("awgn-ofdm.aco-ofdm", 0.55),
    ("awgn-ofdm.dco-ofdm", 1.05),
])
def test_warmed_hcm_chunk_allocates_few_chunk_arrays(stem, limit):
    # a chunk of any scheme runs through the sweep's buffers: what it
    # allocates at its peak, in 256 x N float64 arrays, is a few temporaries,
    # one a full array for the HCM family (numpy 2.4: 1.25 for hcm, 1.52 for
    # MMSE, 0.52 for aco and 0.99 for dco; with int64 bits, drawn and decided,
    # it was 2.24, 2.51, 1.02 and 2.96)
    cfg = harness.parse_config((BENCH_CONFIGS / f"{stem}.conf").read_text())
    ctx = harness._SweepContext(cfg)
    point = next(harness._points(ctx, [float(cfg.power_grid[-1])]))

    def chunk(j):
        harness._run_chunk(ctx, [point], harness._stream(1, 0, 0, j), harness.CHUNK_SYMBOLS)

    chunk(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chunk(1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= limit * harness.CHUNK_SYMBOLS * cfg.n * 8


@pytest.mark.parametrize("stem, avg_power", [("awgn-hcm.hcm", 9e-5),
                                             ("awgn-ofdm.dco-ofdm", 5e-5)])
def test_warmed_chunk_at_the_largest_order_allocates_a_few_rows(stem, avg_power):
    # at N = 2**16 a row block is one symbol, so a warmed chunk allocates a
    # few rows whatever its length: 8 symbols peak at 3.0 rows of N float64
    # for hcm and 2.0 for dco (numpy 2.4), where whole-chunk arrays took 25
    # and 24; the drive is the closed form, so no exact pmf is built
    cfg = harness.parse_config((BENCH_CONFIGS / f"{stem}.conf").read_text(),
                               {"n": str(1 << MAX_ORDER_LOG2)})
    ctx = harness._SweepContext(cfg)
    point = harness.BerPoint(avg_power, ctx.scheme.drive(ctx, avg_power), None, 0.0, 0.0)
    harness._run_chunk(ctx, [point], harness._stream(1, 0, 0, 0), 8)
    assert len(ctx.work.tx) == 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        harness._run_chunk(ctx, [point], harness._stream(1, 0, 0, 1), 8)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * cfg.n * 8


BLOCKED_CHUNKS = {
    # scheme, m, taps, cp_len, equalizer, interleaved, power (W), noise std (W)
    "hcm-flat": ("hcm", 4, [1.0], 0, "slicer", False, 7e-5, 2e-6),
    "hcm-taps": ("hcm", 2, [0.5, 0.3, 0.2], 2, "slicer", False, 7e-5, 2e-6),
    "hcm-taps-interleaver": ("hcm", 2, [0.5, 0.3, 0.2], 2, "slicer", True, 7e-5, 2e-6),
    "dcr-hcm-flat": ("dcr-hcm", 4, [1.0], 0, "slicer", False, 7e-5, 2e-6),
    "dcr-hcm-taps": ("dcr-hcm", 2, [0.5, 0.3, 0.2], 2, "slicer", False, 7e-5, 2e-6),
    "hcm-mmse-interleaver": ("hcm", 2, [0.5, 0.3, 0.2], 2, "mmse", True, 7e-5, 4e-6),
    "dcr-hcm-mmse": ("dcr-hcm", 4, [0.5, 0.3, 0.2], 2, "mmse", False, 7e-5, 2e-6),
    "dcr-hcm-mmse-interleaver": ("dcr-hcm", 4, [0.5, 0.3, 0.2], 2, "mmse", True, 7e-5, 2e-6),
    "aco-ofdm-flat": ("aco-ofdm", 16, [1.0], 0, "slicer", False, 1e-5, 3e-6),
    "aco-ofdm-taps": ("aco-ofdm", 16, [0.5, 0.3, 0.2], 2, "slicer", False, 1e-5, 1e-6),
    "dco-ofdm-flat": ("dco-ofdm", 16, [1.0], 0, "slicer", False, 1e-5, 4e-7),
    "dco-ofdm-taps": ("dco-ofdm", 16, [0.5, 0.3, 0.2], 2, "slicer", False, 1e-5, 4e-7),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_CHUNKS))
def test_row_blocks_count_the_errors_of_one_block(tmp_path, monkeypatch, case):
    # a 256-symbol chunk run in row blocks of 70, 70, 70 and 46 symbols reads
    # the stream as the one-block chunk does and counts the same bit errors
    scheme, m, taps, cp_len, equalizer, interleaved, power, noise = BLOCKED_CHUNKS[case]
    n, interleaver = 64, "none"
    if interleaved:
        interleaver = tmp_path / "perm.txt"
        interleaver.write_text("\n".join(map(str, np.random.default_rng(3).permutation(n))))
    cfg = harness.ExperimentConfig(scheme=scheme, n=n, m=m, p_max=1e-4, sigma2_n=noise ** 2,
                                   h=np.array(taps), cp_len=cp_len, equalizer=equalizer,
                                   interleaver=str(interleaver), calib_symbols=2000)
    ctx = harness._SweepContext(cfg)
    point = next(harness._points(ctx, [power]))
    counts, states = [], []
    for rows in (harness.CHUNK_SYMBOLS, 70):
        monkeypatch.setattr(analysis, "CALIB_BLOCK_CHIPS", rows * (n + cp_len))
        ctx.__dict__.pop("work", None)  # the next chunk builds buffers of the new rows
        rng = harness._stream(5, 0, 0, 0)
        counts += harness._run_chunk(ctx, [point], rng, harness.CHUNK_SYMBOLS)
        states.append(rng.bit_generator.state)
        assert len(ctx.work.tx) == rows
    assert counts[0] == counts[1]
    assert states[0] == states[1]
    assert 0 < counts[0] < harness.CHUNK_SYMBOLS * ctx.bits_per_symbol // 4


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("taps, cp_len", [([1.0], 0), ([0.7, 0.3], 1)])
@pytest.mark.parametrize("m", [4, 16, 64])
@pytest.mark.parametrize("scheme", ["aco-ofdm", "dco-ofdm"])
def test_ofdm_chunk_counts_the_errors_of_the_unfolded_receiver(monkeypatch, scheme, m, taps,
                                                               cp_len, seed):
    # the receiver multiplies the data bins once by c / H_k and scales by the
    # drive in the per-power sum; on the samples that propagate returns for
    # the drive's LED input and the block's normals, it counts the errors of
    # the FFT, the division by H_k, the factor c and the division by p done
    # one after another
    normals = []

    def recorded(*args, **kwargs):
        normals.append(args[4].copy())
        return propagate(*args, **kwargs)

    # a noise variance that leaves 3-15 % of the bits wrong
    noise = (1e-10 if scheme == "aco-ofdm" else 1e-12) * 3 / (m - 1)
    cfg = harness.ExperimentConfig(scheme=scheme, n=64, m=m, p_max=1e-4, sigma2_n=noise,
                                   h=np.array(taps), cp_len=cp_len)
    ctx = harness._SweepContext(cfg)
    point = next(harness._points(ctx, [1e-5]))
    stream = (seed, 0, 0, 0)
    monkeypatch.setattr(harness, "propagate", recorded)
    (errors,) = harness._run_chunk(ctx, [point], harness._stream(*stream), 256)
    (z,) = normals
    bits = analysis._uniform_ints(harness._stream(*stream), 2, (256, ctx.bits_per_symbol))
    step, c = (2, 2.0) if scheme == "aco-ofdm" else (1, 1.0)
    spectrum = np.zeros((256, cfg.n // 2 + 1), dtype=np.complex128)
    spectrum[:, 1:cfg.n // 2:step] = qam_symbols(bits, m)
    x = point.p * np.fft.irfft(spectrum, cfg.n) + (point.avg_power if step == 1 else 0.0)
    y = propagate(np.hstack([x[:, cfg.n - cp_len:], x]), cfg.h, cfg.p_max, cfg.noise_var,
                  z)[:, cp_len:]
    data = slice(1, cfg.n // 2, step)
    symbols = c * (np.fft.rfft(y)[:, data] / ctx.gains[data]) / point.p
    want = np.count_nonzero(gray_oracle.qam_bits(symbols, m) != bits)
    assert errors == want
    assert 0 < errors < bits.size // 4


def _hcm_chunk_matches_the_paper_link(tmp_path, scheme, m, n, taps, cp_len, interleaved,
                                      equalizer="slicer"):
    """The chunk of _run_chunk against tests/link_oracle.py's dense link, on the same
    stream; at 7e-5 W the drive clips the largest chips of both schemes, and the
    noise, or the taps' interference, leaves some bits wrong."""
    perm, interleaver = None, "none"
    if interleaved:
        perm = np.random.default_rng(n + m).permutation(n)
        interleaver = tmp_path / "perm.txt"
        interleaver.write_text("\n".join(map(str, perm)))
    cfg = harness.ExperimentConfig(scheme=scheme, n=n, m=m, p_max=1e-4,
                                   sigma2_n=3e-11 / (m - 1) ** 2,
                                   h=np.array(taps), cp_len=cp_len, interleaver=str(interleaver),
                                   equalizer=equalizer, calib_symbols=2000)
    ctx = harness._SweepContext(cfg)
    point = next(harness._points(ctx, [7e-5]))
    k = harness.CHUNK_SYMBOLS
    (errors,) = harness._run_chunk(ctx, [point], harness._stream(5, 0, 0, 0), k)
    want, est = link_oracle.hcm_chunk(
        harness._stream(5, 0, 0, 0), k, n=n, m=m, p=point.p, p_max=cfg.p_max,
        noise_var=cfg.noise_var, taps=taps, cp_len=cp_len, perm=perm,
        reduce_dc=scheme == "dcr-hcm", mmse=equalizer == "mmse")
    assert errors == want
    assert 0 < errors < k * (n - 1) * int(np.log2(m)) // 2  # 0.2-32 % of the bits
    # no estimate lies so near a decision boundary that rounding could move it
    offset = est * (m - 1) - 0.5
    assert np.min(np.abs(offset - np.round(offset))) > 1e-9


@pytest.mark.parametrize("interleaved", [False, True], ids=["no-interleaver", "interleaver"])
@pytest.mark.parametrize("taps, cp_len", [([1.0], 0), ([0.5, 0.3, 0.2], 2)],
                         ids=["flat", "taps"])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("scheme", ["hcm", "dcr-hcm"])
def test_hcm_chunk_counts_the_errors_of_the_paper_link(tmp_path, scheme, m, n, taps, cp_len,
                                                        interleaved):
    # the slicer chunk against the oracle's dense decode
    _hcm_chunk_matches_the_paper_link(tmp_path, scheme, m, n, taps, cp_len, interleaved)


@pytest.mark.parametrize("interleaved", [False, True], ids=["no-interleaver", "interleaver"])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("scheme", ["hcm", "dcr-hcm"])
def test_mmse_chunk_counts_the_errors_of_the_paper_link(tmp_path, scheme, m, n, interleaved):
    # the MMSE chunk on taps .5,.3,.2 against the oracle's N x N linear MMSE
    # solve on the received chips
    _hcm_chunk_matches_the_paper_link(tmp_path, scheme, m, n, [0.5, 0.3, 0.2], 2, interleaved,
                                      equalizer="mmse")


@pytest.mark.parametrize("taps, cp_len", [([1.0], 0), ([0.5, 0.3, 0.2], 2)],
                         ids=["flat", "taps"])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("m", [4, 16])
@pytest.mark.parametrize("scheme", ["aco-ofdm", "dco-ofdm"])
def test_ofdm_chunk_counts_the_errors_of_the_paper_link(scheme, m, n, taps, cp_len):
    # the OFDM chunk, from the same stream, against tests/link_oracle.py's
    # DFT-matrix link, whose only zero clip is the LED's; the noise, a
    # variance that leaves a few percent of the bits wrong, does that here too
    noise = (1e-10 if scheme == "aco-ofdm" else 1e-12) * 3 / (m - 1)
    cfg = harness.ExperimentConfig(scheme=scheme, n=n, m=m, p_max=1e-4, sigma2_n=noise,
                                   h=np.array(taps), cp_len=cp_len)
    ctx = harness._SweepContext(cfg)
    point = next(harness._points(ctx, [1e-5]))
    k = harness.CHUNK_SYMBOLS
    (errors,) = harness._run_chunk(ctx, [point], harness._stream(5, 0, 0, 0), k)
    want, est = link_oracle.ofdm_chunk(
        harness._stream(5, 0, 0, 0), k, scheme=scheme, n=n, m=m, p=point.p,
        avg_power=point.avg_power, p_max=cfg.p_max, noise_var=cfg.noise_var, taps=taps,
        cp_len=cp_len)
    assert errors == want
    assert 0 < errors < k * ctx.bits_per_symbol // 2
    # no I or Q value lies so near a decision boundary that rounding could move it
    side = int(np.sqrt(m))
    boundaries = np.arange(2 - side, side - 1, 2) / np.sqrt(2.0 * (m - 1) / 3.0)
    values = np.concatenate([est.real.ravel(), est.imag.ravel()])
    assert np.min(np.abs(values[:, None] - boundaries)) > 1e-9


def _full_path_estimates(ctx, point, bits, normals):
    """One power's estimates the way the link runs them, from the public stages: the
    LED input at drive p, propagate with the limiter and the noise, the receiver at
    drive p; in the chunk's decision units (the slicer's folded (m - 1) u - 1/2)."""
    cfg, n, m, cp = ctx.cfg, ctx.cfg.n, ctx.cfg.m, ctx.cfg.cp_len
    if cfg.scheme in ("aco-ofdm", "dco-ofdm"):
        aco = cfg.scheme == "aco-ofdm"
        x = (aco_time_samples if aco else dco_time_samples)(qam_symbols(bits, m), n)
        x = point.p * x + (0.0 if aco else point.avg_power)
        y = propagate(np.hstack([x[:, n - cp:], x]), cfg.h, cfg.p_max, cfg.noise_var,
                      normals)[:, cp:]
        scale, offset = qam_fold(m)
        return (aco_extract if aco else dco_extract)(y, point.p * ctx.gains) * scale + offset * (
            1 + 1j)
    chips = encode_levels(levels_from_bits(bits, m, n))
    if cfg.scheme == "dcr-hcm":
        chips -= chips.min(axis=-1, keepdims=True)
    if ctx.perm is not None:
        chips = interleave(chips, ctx.perm)
    y = propagate(frame_chips(chips, point.p, cp), cfg.h, cfg.p_max, cfg.noise_var,
                  normals)[:, cp:]
    if point.weights is not None:
        y = np.fft.irfft(np.fft.rfft(y) * point.weights.spectrum, n)
    if ctx.perm is not None:
        y = deinterleave(y, ctx.perm)
    v = decode_samples(y, point.p) * (n / point.p)
    return v[:, 1:] * (m - 1) - 0.5


# scheme, m, drive factors of a power that clips no row, one that clips some
# and one that clips every row, equalizer, interleaved: each HCM receiver, and
# the OFDM one
SPLIT_CASES = [
    *[(scheme, m, factors, equalizer, interleaved)
      for scheme, m, factors in (("hcm", 4, (0.5, 1.5, 2.0)), ("dcr-hcm", 2, (0.5, 1.0, 2.0)))
      for equalizer in ("slicer", "mmse") for interleaved in (False, True)],
    ("aco-ofdm", 16, (0.2, 0.5, 1.0), "slicer", False),
    ("dco-ofdm", 16, (1.0, 2.0, 4.0), "slicer", False),
]


@pytest.mark.parametrize("taps, cp_len", [([1.0], 0), ([0.5, 0.3, 0.2], 2)],
                         ids=["flat", "taps"])
@pytest.mark.parametrize("scheme, m, factors, equalizer, interleaved", SPLIT_CASES,
                         ids=[f"{c[0]}-{c[3]}{'-interleaver' * c[4]}" for c in SPLIT_CASES])
def test_split_estimate_is_the_full_paths(tmp_path, scheme, m, factors, equalizer,
                                           interleaved, taps, cp_len):
    # each power's estimate equals the one the whole link gives at that drive,
    # to 1e-12 of the level spacing: from the block's shared terms at a drive
    # that clips no row, and with its own limiter excess at one that clips
    # some; a drive that clips every row runs the whole link itself
    n, k, interleaver = 32, 40, "none"
    if interleaved:
        interleaver = tmp_path / "perm.txt"
        interleaver.write_text("\n".join(map(str, np.random.default_rng(4).permutation(n))))
    cfg = harness.ExperimentConfig(scheme=scheme, n=n, m=m, p_max=1e-4, sigma2_n=4e-12,
                                   h=np.array(taps), cp_len=cp_len, equalizer=equalizer,
                                   interleaver=str(interleaver), calib_symbols=2000)
    ctx = harness._SweepContext(cfg)
    avg = 5e-5
    points = []
    for factor in factors:
        p = factor * float(ctx.scheme.drive(ctx, avg))
        points.append(harness._mmse_point(ctx, avg, p) if equalizer == "mmse"
                      else harness.BerPoint(avg, p, None, 0.0, 0.0))
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=(k, ctx.bits_per_symbol)).astype(np.uint8)
    normals = rng.standard_normal((k, n + cp_len))
    unit = ctx.scheme.unit(ctx, bits)
    split = {i: est.copy() for i, est in harness._estimates(ctx, points, unit, normals)}
    assert sorted(split) == [0, 1, 2]
    clipped = []
    for i, point in enumerate(points):
        want = _full_path_estimates(ctx, point, bits, normals)
        # the level spacing is 1 in the slicers' folded units
        assert np.abs(split[i] - want).max() <= 1e-12
        x = ctx.scheme.tx(ctx, point.p, point.avg_power if ctx.scheme.biased else None, unit,
                          np.empty((k, n + cp_len)))
        # ACO's zero clip commutes with the drive: only the peak limit clips its rows
        below = x < 0 if ctx.scheme.biased else False
        clipped.append(int(np.count_nonzero(np.any((x > cfg.p_max) | below, axis=1))))
    assert clipped[0] == 0 and 0 < clipped[1] < k and clipped[2] == k


def test_a_power_that_clips_no_row_transforms_no_excess(monkeypatch):
    # per row block: the shared estimate takes one propagate call, and the
    # limiter's excess one fir call at a power where some rows clip, none at
    # one where no row does; a power whose every row clips, or the one power
    # left to share, runs the whole link in a propagate call of its own
    calls = []
    real_fir, real_propagate = harness.fir, harness.propagate

    def fir(x, h, out):
        calls.append("fir")
        return real_fir(x, h, out)

    def propagate(*args, **kwargs):
        calls.append("propagate")
        return real_propagate(*args, **kwargs)

    monkeypatch.setattr(harness, "fir", fir)
    monkeypatch.setattr(harness, "propagate", propagate)
    cfg = harness.parse_config(SWEEP_CONFIGS["hcm-n32"],
                               {"max_symbols": "512", "target_errors": "1000000"})
    ctx = harness._SweepContext(cfg)
    # in the two chunks' blocks of 256 rows: none, 46 and 51, and every row clip
    low, mid, high = harness._points(ctx, [2e-5, 7e-5, 1e-4])
    for points, propagates, firs in (([low], 1, 0), ([high], 1, 0), ([low, high], 2, 0),
                                     ([low, mid], 1, 1), ([low, mid, high], 2, 1)):
        calls.clear()
        for j in range(2):
            harness._run_chunk(ctx, points, harness._stream(1, 0, j), harness.CHUNK_SYMBOLS)
        assert (calls.count("propagate"), calls.count("fir")) == (2 * propagates, 2 * firs)


def test_analyze_keeps_no_mmse_weights():
    # the CSV needs each point's analytic values only: once analyze returns,
    # no point holds its drive or MMSE filter, and no N x N array is held
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
    assert [(p.p, p.weights) for p in points] == [(None, None)] * 4
    assert held < n * n * 8


# the grid pass's cases: each scheme, a dispersive slicer and MMSE at small N
GRID_CASES = ["hcm-n32", "dcr-hcm-n32", "aco-ofdm-n32", "dco-ofdm-n16-taps",
              "dcr-hcm-n16-mmse-search/equalizer=slicer", "dcr-hcm-n16-mmse-search"]


def _grid_config(name: str, grid: str) -> harness.ExperimentConfig:
    """A SWEEP_CONFIGS entry ("<config>/<key>=<value>" overrides a key) on another power
    grid, one symbol a point."""
    base, _, override = name.partition("/")
    overrides = dict([override.split("=")]) if override else {}
    return harness.parse_config(SWEEP_CONFIGS[base],
                                {**overrides, "power_grid_w": grid, "max_symbols": "1"})


def _csv_rows(write, rows) -> list:
    out = io.StringIO()
    write(rows, out)
    return out.getvalue().split("\r\n")[1:-1]


@pytest.mark.parametrize("name", GRID_CASES)
def test_grid_pass_scores_each_power_as_a_config_of_its_own(name):
    # one array pass over 50 powers, from where noise sets the BER to where
    # clipping does (DCO stops below p_max, where it has no headroom), prints
    # each power's analytic values as a config of that power alone; the
    # common chunk streams give each power the whole simulate row of a grid
    # of its own, and run_point alone returns that row
    top = "9.9e-5" if name.startswith("dco") else "1e-4"
    cfg = _grid_config(name, f"log:1e-7:{top}:50")
    analyzed = _csv_rows(harness.write_analyze_csv, harness.analyze(cfg))
    swept = _csv_rows(harness.write_ber_csv, harness.sweep(cfg))
    bers = [float(row.split(",")[1]) for row in analyzed]
    if cfg.equalizer == "slicer":  # the MMSE approximation models no clipping
        assert min(bers) < min(bers[0], bers[-1])  # the curve falls, then rises
    for i, avg in enumerate(cfg.power_grid.tolist()):
        one = _grid_config(name, repr(avg))
        assert _csv_rows(harness.write_analyze_csv, harness.analyze(one)) == [analyzed[i]]
        (alone,) = _csv_rows(harness.write_ber_csv, harness.sweep(one))
        assert alone == swept[i]
        assert alone.split(",")[-1] == analyzed[i].split(",")[1]
        assert _csv_rows(harness.write_ber_csv, [harness.run_point(cfg, avg)]) == [swept[i]]


def test_sweep_draws_each_chunk_once_for_every_power(monkeypatch):
    # common random numbers: chunk j of every power reads the one stream keyed
    # (0, j), drawn once for the powers still running, and builds its unit
    # waveform once (one row block here), not once a power
    keys, encodes = [], []
    real_stream, real_encode = harness._stream, harness.encode_levels

    def stream(master_seed, *key):
        keys.append((master_seed, *key))
        return real_stream(master_seed, *key)

    def encode(*args, **kwargs):
        encodes.append(1)
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(harness, "_stream", stream)
    monkeypatch.setattr(harness, "encode_levels", encode)
    cfg = harness.parse_config(SWEEP_CONFIGS["hcm-n32"],
                               {"power_grid_w": "1e-5,2e-5,4e-5,6.3e-5"})
    symbols = [record.symbols_run for record in harness.sweep(cfg)]
    chunks = -(-max(symbols) // harness.CHUNK_SYMBOLS)
    assert min(symbols) == harness.CHUNK_SYMBOLS and max(symbols) == cfg.max_symbols
    assert keys == [(7, 0, j) for j in range(chunks)] and chunks == 4
    assert len(encodes) == chunks


@pytest.mark.parametrize("size", [1, 4, 50])
@pytest.mark.parametrize("name, snr", [("hcm-n32", "hcm_snr"), ("dcr-hcm-n32", "hcm_snr"),
                                       ("aco-ofdm-n32", "aco_es_snr"),
                                       ("dco-ofdm-n16-taps", "dco_es_snr")])
def test_slicer_grid_calls_each_closed_form_once(monkeypatch, name, snr, size):
    # analyze and sweep score the whole grid in one call of the scheme's SNR
    # and one of its BER, however many powers it holds
    calls = {}
    names = ("hcm_snr", "aco_es_snr", "dco_es_snr", "pam_ber")
    for fn in names:
        def counted(*args, _name=fn, _real=getattr(analysis, fn), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(analysis, fn, counted)
    cfg = _grid_config(name, f"log:1e-6:5e-5:{size}")
    for command in (harness.analyze, harness.sweep):
        calls.clear()
        assert len(command(cfg)) == size
        assert calls == {snr: 1, "pam_ber": 1}


@pytest.mark.parametrize("command", [harness.analyze, harness.sweep],
                         ids=["analyze", "simulate"])
def test_mmse_holds_one_filter_at_a_time(monkeypatch, command):
    # one filter per power. analyze leaves none over from an earlier power when
    # the next is built, so a long grid at large N holds one O(N) filter at a
    # time; a sweep runs its powers side by side, so it holds at most one a
    # power. Either frees every filter when it returns
    live, alive_at_build = [], []
    real = harness.mmse_weights

    def tracked(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in live))
        weights = real(*args, **kwargs)
        live.append(weakref.ref(weights))
        return weights

    monkeypatch.setattr(harness, "mmse_weights", tracked)
    command(_grid_config("dcr-hcm-n16-mmse-search", "log:1e-6:1e-4:20"))
    assert alive_at_build == ([0] * 20 if command is harness.analyze else list(range(20)))
    assert all(ref() is None for ref in live)


@pytest.mark.parametrize("name", GRID_CASES)
def test_finished_commands_free_their_context(monkeypatch, name):
    # a context's points hold no reference back to it, so a sweep's chunk
    # buffers and filters go when it returns, not at the collector's next run
    contexts = []

    class Tracked(harness._SweepContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(harness, "_SweepContext", Tracked)
    cfg = _grid_config(name, "log:1e-6:5e-5:3")
    gc.disable()
    try:
        harness.sweep(cfg)
        harness.analyze(cfg)
        harness.run_point(cfg, 2e-5)
        assert len(contexts) == 3 and all(ref() is None for ref in contexts)
    finally:
        gc.enable()
