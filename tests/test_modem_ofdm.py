import gray_oracle
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcmlink import modem_ofdm
from hcmlink.errors import ConfigError
from hcmlink.modem_ofdm import (
    aco_data_count,
    aco_extract,
    aco_time_samples,
    dco_data_count,
    dco_extract,
    dco_time_samples,
    one_tap_gains,
    qam_bits,
    qam_symbols,
)


class TestQam:
    def test_qpsk_zero_bits_first_quadrant(self):
        symbols = qam_symbols(np.array([0, 0]), 4)
        assert symbols[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_16qam_constellation(self):
        bits = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).reshape(-1)
        pts = qam_symbols(bits, 16)
        levels = np.array([-3, -1, 1, 3]) / np.sqrt(10)
        assert np.allclose(np.sort(np.unique(np.round(pts.real, 12))), levels)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0)
        assert len(np.unique(np.round(pts, 9))) == 16

    def test_roundtrip_many_blocks(self):
        rng = np.random.default_rng(0)
        for m in (4, 16, 64):
            bits = rng.integers(0, 2, size=10_000 * int(np.log2(m)))
            assert np.array_equal(qam_bits(qam_symbols(bits, m), m).reshape(-1), bits)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_tables_match_bitwise_mapping(self, m):
        rng = np.random.default_rng(m)
        bits = rng.integers(0, 2, size=(20, 30 * int(np.log2(m))))
        symbols = qam_symbols(bits, m)
        assert np.array_equal(symbols, gray_oracle.qam_symbols(bits, m))
        # noisy symbols, exact decision ties on both axes and points far outside the grid
        noisy = symbols + rng.normal(scale=0.4, size=symbols.shape) * (1 + 1j)
        noisy[0, :3] = [0.0, 5.0 - 5.0j, 1j / np.sqrt(2.0 * (m - 1) / 3.0) * 2]
        got = qam_bits(noisy, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, gray_oracle.qam_bits(noisy, m))

    def test_rejects_non_square_order(self):
        with pytest.raises(ConfigError):
            qam_symbols(np.zeros(3, dtype=int), 8)
        with pytest.raises(ConfigError):
            qam_symbols(np.zeros(1, dtype=int), 2)


class TestAco:
    def test_zero_frame_gives_zero_samples(self):
        raw = aco_time_samples(np.zeros(aco_data_count(16), dtype=complex), 16)
        assert_allclose(np.maximum(raw, 0.0), 0.0)

    def test_antisymmetry_before_clipping(self):
        rng = np.random.default_rng(1)
        n = 16
        bits = rng.integers(0, 2, size=aco_data_count(n) * 4)
        raw = aco_time_samples(qam_symbols(bits, 16), n)
        assert np.abs(raw[: n // 2] + raw[n // 2 :]).max() < 1e-12
        assert np.maximum(raw, 0.0).min() >= 0.0

    def test_noiseless_roundtrip_including_factor_two(self):
        rng = np.random.default_rng(2)
        n = 64
        bits = rng.integers(0, 2, size=aco_data_count(n) * 4)
        symbols = qam_symbols(bits, 16)
        tx = np.maximum(aco_time_samples(symbols, n), 0.0)
        rec = aco_extract(tx, one_tap_gains([1.0], n))
        assert np.abs(rec - symbols).max() < 1e-10
        assert np.array_equal(qam_bits(rec, 16), bits)

    def test_one_tap_equalizer_inverts_dispersion(self):
        rng = np.random.default_rng(3)
        n, h = 32, np.array([0.5, 0.3, 0.2])
        bits = rng.integers(0, 2, size=aco_data_count(n) * 2)
        symbols = qam_symbols(bits, 4)
        tx = np.maximum(aco_time_samples(symbols, n), 0.0)
        # cyclic channel (what a sufficient cyclic prefix produces)
        rx = sum(tap * np.roll(tx, ell) for ell, tap in enumerate(h))
        rec = aco_extract(rx, one_tap_gains(h, n))
        assert np.abs(rec - symbols).max() < 1e-10

    def test_wrong_frame_size(self):
        with pytest.raises(ConfigError):
            aco_time_samples(np.zeros(5, dtype=complex), 16)


class TestDco:
    def test_zero_frame_gives_flat_bias(self):
        raw = dco_time_samples(np.zeros(7, dtype=complex), 16) + 2.5
        assert_allclose(np.maximum(raw, 0.0), 2.5)

    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(4)
        n = 32
        bits = rng.integers(0, 2, size=dco_data_count(n) * 2)
        symbols = qam_symbols(bits, 4)
        # bias large enough to avoid clipping
        tx = np.maximum(dco_time_samples(symbols, n) + 10.0, 0.0)
        rec = dco_extract(tx, one_tap_gains([1.0], n))
        assert np.abs(rec - symbols).max() < 1e-9
        assert np.array_equal(qam_bits(rec, 4), bits)

    def test_parseval_on_ac_waveform(self):
        rng = np.random.default_rng(5)
        n = 32
        bits = rng.integers(0, 2, size=dco_data_count(n) * 2)
        symbols = qam_symbols(bits, 4)
        t = dco_time_samples(symbols, n)
        # unitary-form Parseval: N * sum |t|^2 equals the two-sided subcarrier energy
        time_energy = np.sum(t * t)
        freq_energy = 2.0 * np.sum(np.abs(symbols) ** 2) / n
        assert time_energy == pytest.approx(freq_energy, rel=1e-12)


def test_spectral_efficiency_parity_at_n128():
    n = 128
    hcm_bits = (n - 1) * 1  # OOK
    aco_bits = aco_data_count(n) * 4  # 16-QAM
    dco_bits = dco_data_count(n) * 2  # QPSK
    assert hcm_bits / n == pytest.approx(1.0, abs=0.01)
    assert aco_bits / n == 1.0
    assert dco_bits / n == pytest.approx(1.0, abs=0.02)


def test_aco_large_n_is_gaussian_like():
    # sample kurtosis of the unclipped waveform near 3 supports the
    # Gaussian clipping-noise model
    rng = np.random.default_rng(6)
    n, frames = 1024, 10_000
    bits = rng.integers(0, 2, size=(frames, aco_data_count(n) * 4))
    t = aco_time_samples(qam_symbols(bits, 16), n).reshape(-1)
    kurt = np.mean(t**4) / np.mean(t**2) ** 2
    assert 2.5 < kurt < 3.5


@pytest.mark.parametrize("form", ["qam_bits", "aco_time_samples", "dco_time_samples",
                                  "aco_extract", "dco_extract"])
def test_allocating_form_is_the_out_form_on_its_own_buffers(form):
    # the allocating call runs the out= lines on buffers it makes and leaves its
    # input as it was, although qam_bits(out=) uses its symbols as scratch
    rng = np.random.default_rng(7)
    n, frames = 32, 5
    k = aco_data_count(n) if form.startswith("aco") else dco_data_count(n)
    symbols = qam_symbols(rng.integers(0, 2, size=(frames, k * 4)), 16)
    # the out= forms must write every bin of the spectrum buffer, data or not
    spectrum = np.full((frames, n // 2 + 1), np.nan, np.complex128)
    if form == "qam_bits":
        noise = rng.normal(scale=0.3, size=(2, frames, k))
        given = symbols + noise[0] + 1j * noise[1]  # off the grid
        given[0, :2] = 0.0  # a decision tie on both axes
        args, out = (16,), (np.empty((frames, k), np.int64), np.empty((frames, k, 4), np.int64))
    elif form.endswith("time_samples"):
        given, args, out = symbols, (n,), (spectrum, np.empty((frames, n)))
    else:
        given, args = rng.normal(size=(frames, n)), (one_tap_gains([0.5, 0.3, 0.2], n),)
        out = spectrum, np.empty((frames, k), np.complex128)
    kept = given.copy()
    transform = getattr(modem_ofdm, form)
    got = transform(given, *args)
    want = transform(given.copy(), *args, out=out)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(given, kept)
