import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcmlink.channel import LinkConfig, propagate
from hcmlink.equalization import (
    channel_matrix,
    interference_matrix,
    interference_spread,
    interleaver_search,
    load_permutation,
    mmse_apply,
    mmse_weights,
    pam_level_variance,
    save_permutation,
)
from hcmlink.errors import ConfigError, DomainError
from hcmlink.hadamard import cyclic_shift, sylvester
from hcmlink.modem_hcm import decode_samples, deframe, encode_levels, frame_chips, slice_levels


def random_frames(rng, count, n, m=2):
    levels = np.zeros((count, n))
    levels[:, 1:] = rng.integers(0, m, size=(count, n - 1)) / (m - 1)
    return levels


def received_vectors(rng, levels, g, p, sigma2, perm=None):
    """Simulate decode-domain observations through the matrix channel model."""
    n = levels.shape[-1]
    chips = encode_levels(levels)
    if perm is not None:
        tx = np.empty_like(chips)
        tx[..., perm] = chips
    else:
        tx = chips
    y = (p / n) * tx @ g.g.T + rng.normal(0.0, np.sqrt(sigma2), size=chips.shape)
    if perm is not None:
        y = y[..., perm]
    return decode_samples(y, p)


class TestChannelMatrix:
    def test_single_tap_is_identity(self):
        assert_allclose(channel_matrix([1.0], 4).g, np.eye(4))

    def test_two_tap_layout(self):
        g = channel_matrix([0.5, 0.5], 4).g
        assert_allclose(g @ np.array([1.0, 0, 0, 0]), [0.5, 0.5, 0, 0])
        assert_allclose(np.diag(g), 0.5)

    def test_matches_shift_sum_oracle(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0.1, 1.0, 3)
        h /= h.sum()
        g = channel_matrix(h, 8).g
        x = rng.normal(size=8)
        want = sum(tap * cyclic_shift(x, ell) for ell, tap in enumerate(h))
        assert_allclose(g @ x, want)

    def test_matches_sample_path_simulator(self):
        # ties the matrix model to the framed FIR channel
        rng = np.random.default_rng(1)
        n, cp = 16, 4
        h = np.array([0.4, 0.3, 0.3])
        g = channel_matrix(h, n).g
        link = LinkConfig(p=1.0, p_max=np.inf, sigma2_n=0.0, h=h, cp_len=cp)
        chips = rng.uniform(0, n, size=n)
        payload = deframe(propagate(frame_chips(chips, 1.0, cp), link, rng), cp)
        assert_allclose(payload, g @ (chips / n), atol=1e-12)

    def test_too_many_taps(self):
        with pytest.raises(ConfigError):
            channel_matrix(np.full(5, 0.2), 4)


class TestMmseWeights:
    def test_level_variance(self):
        assert pam_level_variance(2) == pytest.approx(0.25)
        assert pam_level_variance(4) == pytest.approx(5 / 36)

    def test_identity_channel_reduces_to_scaled_identity(self):
        n, p, sigma2 = 8, 2.0, 1e-3
        had = sylvester(3)
        w = mmse_weights(had, np.arange(n), channel_matrix([1.0], n), p, sigma2)
        off = w.w - np.diag(np.diag(w.w))
        assert np.abs(off).max() < 1e-12
        # diagonal gain matches the scalar Wiener solution
        var_u = 0.25
        scale = p / n
        want = scale * var_u / (scale * scale * var_u + sigma2 / n)
        assert_allclose(np.diag(w.w)[1:], want)
        assert w.w[0, 0] == 0.0
        # closed-form error: (n-1) identical scalar residuals
        resid = var_u - scale * var_u * want
        assert w.lmmse == pytest.approx((n - 1) * resid, rel=1e-12)

    def test_recovers_data_as_noise_vanishes(self):
        rng = np.random.default_rng(2)
        n, p = 16, 1.0
        had = sylvester(4)
        w = mmse_weights(had, np.arange(n), channel_matrix([1.0], n), p, 1e-15)
        u = random_frames(rng, 1, n)[0]
        v = decode_samples(encode_levels(u) * (p / n), p)
        assert np.abs(mmse_apply(w, v, p) - u).max() < 1e-6

    def test_normal_equations_residual(self):
        n, p, sigma2 = 16, 1.0, 4e-4
        had = sylvester(4)
        g = channel_matrix([0.5, 0.3, 0.2], n)
        var_u = 0.25
        mat = interference_matrix(had, np.arange(n), g)
        d = np.ones(n)
        d[0] = 0.0
        c_uv = var_u * (p / n) * (d[:, None] * mat.T)
        cov_v = (p / n) ** 2 * var_u * ((mat * d) @ mat.T) + (sigma2 / n) * np.eye(n)
        w = mmse_weights(had, np.arange(n), g, p, sigma2)
        resid = np.linalg.norm(w.w @ cov_v - c_uv) / np.linalg.norm(c_uv)
        assert resid < 1e-8

    def test_lmmse_matches_empirical_mse(self):
        rng = np.random.default_rng(3)
        n, p, sigma2 = 16, 1.0, 2e-4
        had = sylvester(4)
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(had, np.arange(n), g, p, sigma2)
        levels = random_frames(rng, 200_000, n)
        v = received_vectors(rng, levels, g, p, sigma2)
        err = mmse_apply(w, v, p) - levels
        empirical = np.sum(err * err, axis=1).mean()
        assert empirical == pytest.approx(w.lmmse, rel=0.03)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(4)
        n, p, sigma2 = 16, 1.0, 2e-4
        had = sylvester(4)
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(had, np.arange(n), g, p, sigma2)
        levels = random_frames(rng, 100_000, n)
        v = received_vectors(rng, levels, g, p, sigma2)
        base_err = mmse_apply(w, v, p) - levels
        base_mse = np.sum(base_err * base_err, axis=1).mean()
        norm_w = np.linalg.norm(w.w)
        for _ in range(100):
            delta = rng.normal(size=w.w.shape)
            delta *= 0.01 * norm_w / np.linalg.norm(delta)
            err = base_err + (v - _v_mean(p, n)) @ delta.T
            mse = np.sum(err * err, axis=1).mean()
            assert base_mse <= mse


def _v_mean(p, n):
    vm = np.full(n, p / (2.0 * n))
    vm[0] = 0.0
    return vm


class TestMmseEstimate:
    def test_noiseless_roundtrip_after_slicing(self):
        rng = np.random.default_rng(5)
        n, p = 16, 1.0
        had = sylvester(4)
        w = mmse_weights(had, np.arange(n), channel_matrix([1.0], n), p, 1e-9)
        u = random_frames(rng, 1, n)[0]
        v = decode_samples(encode_levels(u) * (p / n), p)
        idx, _ = slice_levels(mmse_apply(w, v, p)[1:], 2)
        assert_allclose(idx, u[1:])

    def test_centered_observation_gives_prior_mean(self):
        n, p = 8, 1.0
        had = sylvester(3)
        w = mmse_weights(had, np.arange(n), channel_matrix([1.0], n), p, 1e-3)
        est = mmse_apply(w, _v_mean(p, n), p)
        assert_allclose(est[1:], 0.5)
        assert est[0] == 0.0

    def test_equivalent_to_plain_slicer_on_clean_channel(self):
        # identity channel, binary levels: the Wiener shrinkage never moves
        # an estimate across the half threshold
        rng = np.random.default_rng(6)
        n, p, sigma2 = 16, 1.0, 3e-4
        had = sylvester(4)
        g = channel_matrix([1.0], n)
        w = mmse_weights(had, np.arange(n), g, p, sigma2)
        levels = random_frames(rng, 2000, n)
        v = received_vectors(rng, levels, g, p, sigma2)
        est_mmse = mmse_apply(w, v, p)[..., 1:]
        idx_mmse, _ = slice_levels(est_mmse, 2)
        idx_plain, _ = slice_levels(v[..., 1:] * (n / p), 2)
        assert np.array_equal(idx_mmse, idx_plain)

    def test_mmse_beats_plain_slicing_on_dispersive_channel(self):
        rng = np.random.default_rng(7)
        n, p, sigma2 = 8, 1.0, 2e-4
        had = sylvester(3)
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(had, np.arange(n), g, p, sigma2)
        levels = random_frames(rng, 30_000, n)
        v = received_vectors(rng, levels, g, p, sigma2)
        idx_truth = (levels[:, 1:] > 0.5).astype(int)
        idx_mmse, _ = slice_levels(mmse_apply(w, v, p)[..., 1:], 2)
        idx_plain, _ = slice_levels(v[..., 1:] * (n / p), 2)
        ber_mmse = np.mean(idx_mmse != idx_truth)
        ber_plain = np.mean(idx_plain != idx_truth)
        assert ber_mmse < ber_plain


class TestInterleaverSearch:
    def test_identity_channel_returns_identity(self):
        had = sylvester(3)
        g = channel_matrix([1.0], 8)
        perm = interleaver_search(g, had, 50, np.random.default_rng(0))
        assert np.array_equal(perm, np.arange(8))

    def test_exhaustive_matches_brute_force_n4(self):
        had = sylvester(2)
        g = channel_matrix([0.5, 0.5], 4)
        best_j = min(
            interference_spread(interference_matrix(had, np.array(p), g))
            for p in itertools.permutations(range(4))
        )
        perm = interleaver_search(g, had, 30, np.random.default_rng(1))
        got = interference_spread(interference_matrix(had, perm, g))
        assert got == pytest.approx(best_j, abs=1e-15)

    def test_never_worse_than_identity_n128(self):
        had = sylvester(7)
        g = channel_matrix([0.5, 0.3, 0.2], 128)
        perm = interleaver_search(g, had, 300, np.random.default_rng(2))
        j_pi = interference_spread(interference_matrix(had, perm, g))
        j_id = interference_spread(interference_matrix(had, np.arange(128), g))
        assert j_pi <= j_id

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            interleaver_search(channel_matrix([1.0], 8), sylvester(3), 0,
                               np.random.default_rng(0))


class TestPermutationFiles:
    def test_roundtrip(self, tmp_path):
        perm = np.random.default_rng(3).permutation(16)
        path = tmp_path / "perm.txt"
        save_permutation(perm, path)
        assert np.array_equal(load_permutation(path, 16), perm)

    def test_rejects_non_bijection(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\n1\n3\n")
        with pytest.raises(ConfigError):
            load_permutation(path)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ConfigError):
            load_permutation(path, 4)
