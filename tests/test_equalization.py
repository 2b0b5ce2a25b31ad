import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hcmlink.channel import propagate
from hcmlink.equalization import (
    _objective,
    _search,
    _SwapScorer,
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
from hcmlink.hadamard import fwht
from hcmlink.harness import _stream
from hcmlink.modem_hcm import decode_samples, encode_levels, frame_chips, slice_levels


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
    y = (p / n) * tx @ g.T + rng.normal(0.0, np.sqrt(sigma2), size=chips.shape)
    if perm is not None:
        y = y[..., perm]
    return decode_samples(y, p)


class TestChannelMatrix:
    def test_single_tap_is_identity(self):
        assert_allclose(channel_matrix([1.0], 4), np.eye(4))

    def test_two_tap_layout(self):
        g = channel_matrix([0.5, 0.5], 4)
        assert_allclose(g @ np.array([1.0, 0, 0, 0]), [0.5, 0.5, 0, 0])
        assert_allclose(np.diag(g), 0.5)

    def test_matches_shift_sum_oracle(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0.1, 1.0, 3)
        h /= h.sum()
        g = channel_matrix(h, 8)
        x = rng.normal(size=8)
        want = sum(tap * np.roll(x, ell) for ell, tap in enumerate(h))
        assert_allclose(g @ x, want)

    def test_matches_sample_path_simulator(self):
        # ties the matrix model to the framed FIR channel
        rng = np.random.default_rng(1)
        n, cp = 16, 4
        h = np.array([0.4, 0.3, 0.3])
        g = channel_matrix(h, n)
        chips = rng.uniform(0, n, size=n)
        payload = propagate(frame_chips(chips, 1.0, cp), h, np.inf, 0.0, rng)[cp:]
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
        mat = interference_matrix(np.arange(n), channel_matrix([1.0], n))
        w = mmse_weights(mat, p, sigma2)
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
        assert w.error_diag.sum() == pytest.approx((n - 1) * resid, rel=1e-12)

    def test_recovers_data_as_noise_vanishes(self):
        rng = np.random.default_rng(2)
        n, p = 16, 1.0
        mat = interference_matrix(np.arange(n), channel_matrix([1.0], n))
        w = mmse_weights(mat, p, 1e-15)
        u = random_frames(rng, 1, n)[0]
        v = decode_samples(encode_levels(u) * (p / n), p)
        assert np.abs(mmse_apply(w, v, p) - u).max() < 1e-6

    def test_normal_equations_residual(self):
        n, p, sigma2 = 16, 1.0, 4e-4
        g = channel_matrix([0.5, 0.3, 0.2], n)
        var_u = 0.25
        mat = interference_matrix(np.arange(n), g)
        d = np.ones(n)
        d[0] = 0.0
        c_uv = var_u * (p / n) * (d[:, None] * mat.T)
        cov_v = (p / n) ** 2 * var_u * ((mat * d) @ mat.T) + (sigma2 / n) * np.eye(n)
        w = mmse_weights(interference_matrix(np.arange(n), g), p, sigma2)
        resid = np.linalg.norm(w.w @ cov_v - c_uv) / np.linalg.norm(c_uv)
        assert resid < 1e-8

    def test_lmmse_matches_empirical_mse(self):
        rng = np.random.default_rng(3)
        n, p, sigma2 = 16, 1.0, 2e-4
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(interference_matrix(np.arange(n), g), p, sigma2)
        levels = random_frames(rng, 200_000, n)
        v = received_vectors(rng, levels, g, p, sigma2)
        err = mmse_apply(w, v, p) - levels
        empirical = np.sum(err * err, axis=1).mean()
        assert empirical == pytest.approx(w.error_diag.sum(), rel=0.03)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(4)
        n, p, sigma2 = 16, 1.0, 2e-4
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(interference_matrix(np.arange(n), g), p, sigma2)
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
        mat = interference_matrix(np.arange(n), channel_matrix([1.0], n))
        w = mmse_weights(mat, p, 1e-9)
        u = random_frames(rng, 1, n)[0]
        v = decode_samples(encode_levels(u) * (p / n), p)
        idx, _ = slice_levels(mmse_apply(w, v, p)[1:], 2)
        assert_allclose(idx, u[1:])

    def test_centered_observation_gives_prior_mean(self):
        n, p = 8, 1.0
        mat = interference_matrix(np.arange(n), channel_matrix([1.0], n))
        w = mmse_weights(mat, p, 1e-3)
        est = mmse_apply(w, _v_mean(p, n), p)
        assert_allclose(est[1:], 0.5)
        assert est[0] == 0.0

    def test_out_pair_matches_allocating_call(self):
        # the chunk pipeline passes a strided view of its framed-sample buffer
        rng = np.random.default_rng(8)
        n, p, sigma2 = 32, 1.0, 2e-4
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(interference_matrix(rng.permutation(n), g), p, sigma2)
        v = received_vectors(rng, random_frames(rng, 256, n), g, p, sigma2)
        want = mmse_apply(w, v, p)
        u_mean = np.full(n, 0.5)
        u_mean[0] = 0.0
        assert np.array_equal(want, u_mean + (v - _v_mean(p, n)) @ w.w.T)
        centred, framed = np.empty_like(v), np.full((256, n + 2), np.nan)
        got = mmse_apply(w, v, p, out=(centred, framed[:, :n]))
        assert np.shares_memory(got, framed) and np.array_equal(got, want)
        assert np.array_equal(centred, v - _v_mean(p, n))

    def test_equivalent_to_plain_slicer_on_clean_channel(self):
        # identity channel, binary levels: the Wiener shrinkage never moves
        # an estimate across the half threshold
        rng = np.random.default_rng(6)
        n, p, sigma2 = 16, 1.0, 3e-4
        g = channel_matrix([1.0], n)
        w = mmse_weights(interference_matrix(np.arange(n), g), p, sigma2)
        levels = random_frames(rng, 2000, n)
        v = received_vectors(rng, levels, g, p, sigma2)
        est_mmse = mmse_apply(w, v, p)[..., 1:]
        idx_mmse, _ = slice_levels(est_mmse, 2)
        idx_plain, _ = slice_levels(v[..., 1:] * (n / p), 2)
        assert np.array_equal(idx_mmse, idx_plain)

    def test_mmse_beats_plain_slicing_on_dispersive_channel(self):
        rng = np.random.default_rng(7)
        n, p, sigma2 = 8, 1.0, 2e-4
        g = channel_matrix([0.5, 0.3, 0.2], n)
        w = mmse_weights(interference_matrix(np.arange(n), g), p, sigma2)
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
        g = channel_matrix([1.0], 8)
        perm = interleaver_search(g, budget=50, rng=np.random.default_rng(0))
        assert np.array_equal(perm, np.arange(8))

    def test_exhaustive_matches_brute_force_n4(self):
        g = channel_matrix([0.5, 0.5], 4)
        best_j = min(
            interference_spread(interference_matrix(np.array(p), g))
            for p in itertools.permutations(range(4))
        )
        perm = interleaver_search(g, budget=30, rng=np.random.default_rng(1))
        got = interference_spread(interference_matrix(perm, g))
        assert got == pytest.approx(best_j, abs=1e-15)

    def test_never_worse_than_identity_n128(self):
        g = channel_matrix([0.5, 0.3, 0.2], 128)
        perm = interleaver_search(g, budget=300, rng=np.random.default_rng(2))
        j_pi = interference_spread(interference_matrix(perm, g))
        j_id = interference_spread(interference_matrix(np.arange(128), g))
        assert j_pi <= j_id

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            interleaver_search(channel_matrix([1.0], 8), budget=0, rng=np.random.default_rng(0))


def _reference_search(g, budget, rng):
    """The annealing search with every swap evaluated in full (N > 8)."""
    n = g.shape[0]
    identity = np.arange(n)
    best = identity
    best_j = _objective(identity, g)
    if best_j == 0.0:
        return identity
    perm = rng.permutation(n)
    cur_j = _objective(perm, g)
    if cur_j < best_j:
        best, best_j = perm.copy(), cur_j
    t0 = 0.5 * max(best_j, 1e-300)
    decay = (1e-3) ** (1.0 / budget)
    temp = t0
    for _ in range(budget):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            temp *= decay
            continue
        cand = perm.copy()
        cand[i], cand[j] = cand[j], cand[i]
        cand_j = _objective(cand, g)
        if cand_j < cur_j or rng.random() < math.exp(min((cur_j - cand_j) / temp, 0.0)):
            perm, cur_j = cand, cand_j
            if cur_j < best_j:
                best, best_j = perm.copy(), cur_j
        temp *= decay
    return best


def _rank_two_search(g, budget, rng):
    """Frozen copy of the annealing loop that scored each swap with
    np.stack, fwht and np.var; the search must match it bit for bit.
    Returns the permutation and its tracked objective (N > 8)."""
    n = g.shape[0]

    def swap_terms(perm, i, j):
        pi, pj = perm[i], perm[j]
        g_e = g[:, pj] - g[:, pi]
        gt_e = g[pj, :] - g[pi, :]
        unit = np.zeros(perm.size)
        unit[i], unit[j] = 1.0, -1.0
        a, b, d = fwht(np.stack([g_e[perm], gt_e[perm], unit]))
        return a, d, b + (g_e[pj] - g_e[pi]) * d

    def swapped_spread(mat, energy, terms):
        a, d, b = terms
        md, mb = (mat @ np.stack([d, b], axis=1)).T
        energy = (energy + (2.0 / n) * (a * md + d * mb)
                  + (a * a * (d @ d) + 2.0 * (d @ b) * a * d + (b @ b) * d * d) / (n * n))
        diag = np.diag(mat) + d * (a + b) / n
        return float((energy - diag * diag).var())

    best = np.arange(n)
    best_j = _objective(best, g)
    if best_j == 0.0:
        return best, best_j
    perm = rng.permutation(n)
    mat = interference_matrix(perm, g)
    energy = np.einsum("ij,ij->i", mat, mat)
    cur_j = interference_spread(mat)
    if cur_j < best_j:
        best, best_j = perm.copy(), cur_j
    decay = (1e-3) ** (1.0 / budget)
    temp = 0.5 * max(best_j, 1e-300)
    for _ in range(budget):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            temp *= decay
            continue
        terms = swap_terms(perm, i, j)
        cand_j = swapped_spread(mat, energy, terms)
        if cand_j < cur_j or rng.random() < math.exp(min((cur_j - cand_j) / temp, 0.0)):
            perm[i], perm[j] = perm[j], perm[i]
            a, d, b = terms
            mat += np.stack([a, d], axis=1) @ (np.stack([d, b]) / n)
            energy = np.einsum("ij,ij->i", mat, mat)
            cur_j = cand_j
            if cur_j < best_j:
                best, best_j = perm.copy(), cur_j
        temp *= decay
    return best, best_j


class TestRankTwoSwap:
    @settings(max_examples=40)
    @given(k=st.integers(4, 9), taps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_update_matches_full_evaluation(self, k, taps, seed, data):
        n = 1 << k
        g = channel_matrix(taps, n)
        perm = np.random.default_rng(seed).permutation(n)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda v: v != i))
        swaps = _SwapScorer(g, perm.copy())
        spread = swaps.score(i, j)
        swaps.accept(i, j)
        swapped = perm.copy()
        swapped[i], swapped[j] = perm[j], perm[i]
        want = interference_matrix(swapped, g)
        mat = swaps.mat
        assert np.array_equal(swaps.perm, swapped)
        assert np.array_equal(swaps.gt, g[np.ix_(swapped, swapped)])
        assert np.array_equal(swaps.energy, np.einsum("ij,ij->i", mat, mat))
        assert np.abs(mat - want).max() <= 1e-12 * np.abs(want).max()
        assert spread == pytest.approx(interference_spread(want), rel=1e-9)

    @pytest.mark.parametrize("n, budget", [(16, 500), (64, 500), (128, 500), (512, 100)])
    @pytest.mark.parametrize("taps", [[0.5, 0.3, 0.2], [0.7, 0.3], [0.4, 0.3, 0.2, 0.1]])
    def test_bit_identical_to_rank_two_loop(self, taps, n, budget):
        # taps 0.7,0.3 give exactly tied candidates, so any last-ulp change
        # in a score would show up as another branch taken
        g = channel_matrix(taps, n)
        for seed in range(1, 6):
            perm, tracked = _search(g, budget, _stream(seed, 2, 0))
            want_perm, want_tracked = _rank_two_search(g, budget, _stream(seed, 2, 0))
            assert np.array_equal(perm, want_perm)
            assert tracked == want_tracked

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_same_permutation_as_full_evaluation(self, seed):
        g = channel_matrix([0.5, 0.3, 0.2], 128)
        got = interleaver_search(g, budget=500, rng=_stream(seed, 2, 0))
        want = _reference_search(g, 500, _stream(seed, 2, 0))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_objective_close_to_full_evaluation_with_ties(self, seed):
        # taps 0.7,0.3 give exactly tied objectives, where the two searches
        # may branch differently
        g = channel_matrix([0.7, 0.3], 128)
        got = _objective(interleaver_search(g, budget=500, rng=_stream(seed, 2, 0)), g)
        want = _objective(_reference_search(g, 500, _stream(seed, 2, 0)), g)
        assert got == pytest.approx(want, rel=0.01)

    def test_tracked_objective_n512(self):
        # N = 512: the Hadamard products all go through fwht
        g = channel_matrix([0.5, 0.3, 0.2], 512)
        perm, tracked = _search(g, 20, np.random.default_rng(3))
        assert sorted(perm) == list(range(512))
        assert tracked == pytest.approx(_objective(perm, g), rel=1e-9)


class TestPermutationFiles:
    def test_roundtrip(self, tmp_path):
        perm = np.random.default_rng(3).permutation(16)
        path = tmp_path / "perm.txt"
        with open(path, "w") as fh:
            save_permutation(perm, fh)
        assert path.read_text() == "".join(f"{i}\n" for i in perm)
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
