import itertools

import gray_oracle
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import hadamard as scipy_hadamard

from hcmlink import harness
from hcmlink.errors import ConfigError, SizeError
from hcmlink.modem_hcm import (
    decode_samples,
    deinterleave,
    encode_levels,
    frame_chips,
    interleave,
    levels_from_bits,
    slice_levels,
)
from hcmlink.modem_ofdm import qam_symbols


def dense_encode(levels):
    # oracle: x = H u + (1 - H)(1 - u) with the dense 0/1 matrix
    h = (scipy_hadamard(levels.shape[-1]) + 1) // 2
    return h @ levels + (1 - h) @ (1 - levels)


def all_binary_frames(n):
    frames = np.zeros((2 ** (n - 1), n))
    for i, bits in enumerate(itertools.product([0.0, 1.0], repeat=n - 1)):
        frames[i, 1:] = bits
    return frames


def dcr_transmit(bits, n, m=2, p=None):
    """Transmit samples of the harness's dcr-hcm and hcm pipelines for bit rows."""
    out = []
    for scheme in ("dcr-hcm", "hcm"):
        cfg = harness.ExperimentConfig(scheme=scheme, n=n, m=m, calib_symbols=1000)
        ctx = harness._SweepContext(cfg)
        point = next(harness._points(ctx, [5e-5]))
        out.append(ctx.scheme.tx(ctx, point, ctx.scheme.unit(ctx, bits)) * (n / point.p))
    return out


class TestPamMap:
    def test_all_zero_bits(self):
        levels = levels_from_bits(np.zeros(7, dtype=int), 2, 8)
        assert levels.tolist() == [0.0] * 8

    def test_all_one_bits(self):
        levels = levels_from_bits(np.ones(7, dtype=int), 2, 8)
        assert levels.tolist() == [0.0] + [1.0] * 7

    def test_gray_map_m4(self):
        # per-entry Gray table: 00->0, 01->1, 11->2, 10->3
        bits = np.array([1, 1, 0, 1, 1, 0])
        assert_allclose(levels_from_bits(bits, 4, 4), [0.0, 2 / 3, 1 / 3, 1.0])

    def test_wrong_bit_count(self):
        with pytest.raises(SizeError, match="expected 7 bits"):
            levels_from_bits(np.zeros(6, dtype=int), 2, 8)

    def test_bad_order(self):
        with pytest.raises(ConfigError):
            levels_from_bits(np.zeros(7, dtype=int), 3, 8)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_gray_tables_match_bitwise_mapping(m):
    rng = np.random.default_rng(20 + m)
    n, b = 32, int(np.log2(m))
    bits = rng.integers(0, 2, size=(50, (n - 1) * b))
    assert np.array_equal(levels_from_bits(bits, m, n), gray_oracle.levels_from_bits(bits, m, n))
    estimates = rng.uniform(-0.3, 1.3, size=(50, n - 1))
    estimates[0, :m] = np.arange(m) / (m - 1) + 0.5 / (m - 1)  # exact ties
    idx, sliced = slice_levels(estimates, m)
    want_idx, want_bits = gray_oracle.slice_levels(estimates, m)
    assert np.array_equal(idx, want_idx) and np.array_equal(sliced, want_bits)
    assert sliced.dtype == want_bits.dtype and sliced.shape == (50, n - 1, b)


@pytest.mark.parametrize("m", [2, 16, 512])
def test_uint8_bits_map_like_int64_bits(m):
    # the harness draws one byte per bit: groups of up to 8 bits sum in uint8,
    # longer ones (m = 512, or QAM-1024's 10 bits a symbol) in a wider dtype
    bits = np.random.default_rng(m).integers(0, 2, size=(6, 31 * int(np.log2(m))))
    levels = levels_from_bits(bits.astype(np.uint8), m, 32)
    assert np.array_equal(levels, gray_oracle.levels_from_bits(bits, m, 32))
    qam = bits[:, :10 * (bits.shape[1] // 10)]
    assert np.array_equal(qam_symbols(qam.astype(np.uint8), 1024), qam_symbols(qam, 1024))


@pytest.mark.parametrize("m", [2, 4])
def test_stages_into_out_match_allocating_calls(m):
    # each stage writes the returned values into out, views of larger buffers included
    rng = np.random.default_rng(30 + m)
    n, rows, cp, p = 16, 8, 3, 0.7
    bits = rng.integers(0, 2, size=(rows, (n - 1) * int(np.log2(m))))
    levels = levels_from_bits(bits, m, n)
    buf = np.full((rows, n + 5), np.nan)
    assert np.array_equal(levels_from_bits(bits, m, n, out=buf[:, 2:n + 2]), levels)
    chips = encode_levels(levels)
    out = np.empty_like(levels)
    assert encode_levels(levels, out=out) is out and np.array_equal(out, chips)
    in_place = levels.copy()
    assert np.array_equal(encode_levels(in_place, out=in_place), chips)
    framed = np.empty((rows, n + cp))
    assert np.array_equal(frame_chips(chips, p, cp, out=framed), frame_chips(chips, p, cp))
    perm = rng.permutation(n)
    assert np.array_equal(interleave(chips, perm, out=out), interleave(chips, perm))
    y = framed[:, cp:]
    assert np.array_equal(deinterleave(y, perm, out=out), deinterleave(y, perm))
    assert np.array_equal(decode_samples(y, p, out=out), decode_samples(y, p))
    est = out[:, 1:] * (n / p)
    b = int(np.log2(m))
    slices = (np.empty((rows, n - 1), np.int64), np.empty((rows, n - 1, b), np.int64))
    got = slice_levels(est, m, out=slices)
    assert got[0] is slices[0] and got[1] is slices[1]
    for a, b in zip(got, slice_levels(est, m)):
        assert np.array_equal(a, b)


class TestEncode:
    def test_all_zero_frame(self):
        chips = encode_levels(levels_from_bits(np.zeros(3, dtype=int), 2, 4))
        assert chips.tolist() == [0.0, 2.0, 2.0, 2.0]

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for m in (2, 4, 16):
            for _ in range(20):
                u = np.zeros(8)
                u[1:] = rng.integers(0, m, 7) / (m - 1)
                assert_allclose(encode_levels(u), dense_encode(u), atol=1e-12)

    def test_range_and_papr_all_ones(self):
        u = np.array([0.0, 1.0, 1.0, 1.0])
        chips = encode_levels(levels_from_bits(np.ones(3, dtype=int), 2, 4))
        assert_allclose(chips, dense_encode(u))
        assert np.all(chips >= 0) and np.all(chips <= 4)
        assert chips.max() / chips.mean() <= 2 + 1e-12

    def test_papr_bound_exhaustive_n8(self):
        chips = encode_levels(all_binary_frames(8))
        papr = chips.max(axis=1) / chips.mean(axis=1)
        assert np.all(papr <= 2 + 1e-9)
        # the per-symbol chip mean is exactly (n-1)/2 for every frame
        assert_allclose(chips.mean(axis=1), 3.5)


class TestDcrReduce:
    def test_already_zero_min(self):
        # the all-zero frame has a zero chip, so DC reduction leaves it as is
        reduced, plain = dcr_transmit(np.zeros((1, 3), dtype=np.int64), 4)
        assert_allclose(plain, [[0, 2, 2, 2]])
        assert_allclose(reduced, plain)

    def test_basic_reduction(self):
        # the transmitted dcr-hcm symbol is the hcm symbol minus its minimum chip
        bits = np.array(list(itertools.product([0, 1], repeat=7)), dtype=np.int64)
        reduced, plain = dcr_transmit(bits, 8)
        assert_allclose(reduced, plain - plain.min(axis=1, keepdims=True), atol=1e-12)
        assert np.all(np.abs(reduced.min(axis=1)) < 1e-12)
        assert np.any(plain.min(axis=1) > 0)

    def test_energy_drop_three_sevenths_exists_at_n8(self):
        # some symbol loses exactly 3/7 of its transmitted energy: the mean
        # is always 3.5, so it suffices to find a frame with min chip 2
        chips = encode_levels(all_binary_frames(8))
        mins = chips.min(axis=1)
        assert np.any(mins == 2.0)
        sym = chips[mins == 2.0][0]
        reduced = sym - sym.min()
        assert reduced.mean() / sym.mean() == pytest.approx(3 / 7)


class TestDecode:
    def test_noiseless_roundtrip_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = np.zeros(8)
            u[1:] = rng.integers(0, 2, 7)
            x = encode_levels(u)
            v = decode_samples(x * (1.0 / 8), 1.0)
            assert np.abs(v - u / 8).max() < 1e-12

    def test_dc_shift_moves_only_component_zero(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=16)
        v0 = decode_samples(y, 1.0)
        v1 = decode_samples(y + 0.7, 1.0)
        assert np.abs(v1[1:] - v0[1:]).max() < 1e-12
        assert v1[0] != v0[0]

    def test_dcr_roundtrip_recovers_data_components(self):
        rng = np.random.default_rng(3)
        p = 2.5
        u = np.zeros(16)
        u[1:] = rng.integers(0, 4, 15) / 3
        x = encode_levels(u)
        v = decode_samples((x - x.min()) * (p / 16), p)
        assert np.abs(v[1:] - (p / 16) * u[1:]).max() < 1e-12


class TestSlice:
    def test_noiseless_bit_recovery(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=30)
        v = decode_samples(encode_levels(levels_from_bits(bits, 4, 16)) / 16, 1.0)
        _, sliced = slice_levels(v[1:] * 16, 4)
        assert np.array_equal(sliced.reshape(-1), bits)

    def test_threshold_and_tiebreak(self):
        n, p = 4, 1.0
        v = np.array([0.0, 0.49, 0.51, 0.5]) * (p / n)
        idx, bits = slice_levels(v[1:] * (n / p), 2)
        # 0.49 -> 0, 0.51 -> 1, exact 0.5 -> lower level
        assert idx.tolist() == [0, 1, 0]
        assert bits.reshape(-1).tolist() == [0, 1, 0]

    def test_slice_levels_clips_out_of_range(self):
        idx, _ = slice_levels(np.array([-0.3, 1.4]), 2)
        assert idx.tolist() == [0, 1]


class TestFraming:
    def test_zero_prefix_is_scaling_only(self):
        samples = frame_chips(np.array([1.0, 2, 3, 4]), 2.0, 0)
        assert_allclose(samples, np.array([1.0, 2, 3, 4]) / 2)

    def test_prefix_copies_tail(self):
        samples = frame_chips(np.array([1.0, 2, 3, 4]), 4.0, 2)
        assert_allclose(samples, [3, 4, 1, 2, 3, 4])
        assert_allclose(samples[2:], [1, 2, 3, 4])

    def test_prefix_must_be_shorter_than_symbol(self):
        with pytest.raises(ConfigError):
            frame_chips(np.zeros(4), 1.0, 4)

    def test_cyclic_convolution_equivalence(self):
        # FIR over the framed signal equals cyclic convolution of the payload
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 4, size=8)
        h = np.array([0.5, 0.3, 0.2])
        cp = 4
        tx = frame_chips(x, 8.0, cp)
        fir = np.convolve(tx, h)[: tx.size]
        got = fir[cp:]
        want = np.zeros(8)
        for ell, tap in enumerate(h):  # direct cyclic-convolution oracle
            want += tap * np.roll(x, ell)
        assert_allclose(got, want, atol=1e-12)


class TestInterleaving:
    def test_example_permutation(self):
        perm = np.array([2, 0, 3, 1])  # 0->2, 1->0, 2->3, 3->1
        out = interleave(np.array([10.0, 20, 30, 40]), perm)
        assert out.tolist() == [20, 40, 10, 30]

    def test_roundtrip_random_permutation(self):
        rng = np.random.default_rng(6)
        perm = rng.permutation(32)
        x = rng.normal(size=32)
        assert_allclose(deinterleave(interleave(x, perm), perm), x)

    def test_identity_is_noop(self):
        x = np.arange(8.0)
        assert_allclose(interleave(x, np.arange(8)), x)

    def test_non_permutation_rejected(self):
        with pytest.raises(ConfigError):
            interleave(np.zeros(4), np.array([0, 1, 1, 3]))
