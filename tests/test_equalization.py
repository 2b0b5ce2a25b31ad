import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import circulant

from hcmlink import equalization
from hcmlink.channel import propagate
from hcmlink.equalization import (
    DIAG_BLOCK,
    MAX_MATRIX_ORDER,
    _xor_spread,
    interference_matrix,
    interference_spread,
    interleaver_search,
    load_permutation,
    mmse_weights,
    pam_level_variance,
)
from hcmlink.errors import ConfigError, DomainError
from hcmlink.hadamard import fwht
from hcmlink.harness import _stream
from hcmlink.modem_hcm import (
    decode_samples,
    deinterleave,
    encode_levels,
    frame_chips,
    interleave,
    slice_levels,
)


def random_frames(rng, count, n, m=2):
    levels = np.zeros((count, n))
    levels[:, 1:] = rng.integers(0, m, size=(count, n - 1)) / (m - 1)
    return levels


def circulant_channel(h, n):
    """The N x N channel matrix G[i, j] = h[(i - j) mod N] of the frozen matrix oracles."""
    col = np.zeros(n)
    col[: len(h)] = h
    return circulant(col)


def matrix_interference(perm, g):
    """M = (1/N) B Pi^T G Pi B from the channel matrix g, as the search once built it."""
    return fwht(fwht(g[np.ix_(perm, perm)].T).T) / g.shape[0]


def matrix_objective(perm, g):
    return interference_spread(matrix_interference(perm, g))


def objective(perm, h):
    return interference_spread(interference_matrix(perm, h))


TAP_SETS = ([0.5, 0.3, 0.2], [0.7, 0.3], [0.4, 0.3, 0.2, 0.1])


def received_samples(rng, levels, h, p, sigma2, perm=None):
    """Received chips of the frames levels through the matrix channel model, with noise."""
    n = levels.shape[-1]
    chips = encode_levels(levels)
    if perm is not None:
        chips = interleave(chips, perm)
    return (p / n) * chips @ circulant_channel(h, n).T + rng.normal(
        0.0, np.sqrt(sigma2), size=chips.shape)


def decoded(y, p, perm=None):
    """The decoded vector v of the received chips y."""
    return decode_samples(y if perm is None else deinterleave(y, perm), p)


def dense_mmse(perm, h, p, sigma2, m=2):
    """Oracle: the dense LMMSE weights W for u_hat = u_mean + W (v - v_mean) on the
    decoded vector, solved from the N x N covariance of v, and their error diagonal.

    With M = interference_matrix(perm, h), v = (P/2N) M (2u - 1) + P/2N + noise of
    covariance (sigma2/N) I, and u[0] = 0 excluded from the prior.
    """
    mat = interference_matrix(perm, h)
    n = mat.shape[0]
    var_u = pam_level_variance(m)
    d = np.ones(n)
    d[0] = 0.0
    scale = p / n
    c_uv = var_u * scale * (d[:, None] * mat.T)
    cov_v = (scale * scale * var_u) * ((mat * d[None, :]) @ mat.T)
    cov_v[np.diag_indices(n)] += sigma2 / n
    w = np.linalg.solve(cov_v, c_uv.T).T
    return w, var_u * d - np.einsum("ij,ij->i", w, c_uv)


def _v_mean(p, n):
    vm = np.full(n, p / (2.0 * n))
    vm[0] = 0.0
    return vm


def dense_estimate(w, v, p):
    """The oracle's estimate u_mean + W (v - v_mean)."""
    n = w.shape[0]
    u_mean = np.full(n, 0.5)
    u_mean[0] = 0.0
    return u_mean + (v - _v_mean(p, n)) @ w.T


def filtered_estimate(weights, y, p, perm=None):
    """The MMSE receiver's level estimates, as the harness forms them: the slicer's
    v N / p on the Wiener-filtered chips (component 0 carries no data)."""
    n = y.shape[-1]
    return decoded(np.fft.irfft(np.fft.rfft(y) * weights.spectrum, n), p, perm) * (n / p)


def filter_for(h, n, p, sigma2, perm=None, m=2):
    perm = np.arange(n) if perm is None else perm
    return mmse_weights(np.fft.rfft(h, n), perm, p, sigma2, m)


class TestInterferenceMatrix:
    def test_matches_sample_path_simulator(self):
        # ties M to the interleaved, framed FIR channel: without noise or
        # clipping the decoded vector is (P/2N) M (2u - 1) + P/2N
        rng = np.random.default_rng(1)
        p, cp = 3.0, 4
        for n, taps in itertools.product(
                (16, 64), ([0.4, 0.3, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1])):
            perm = rng.permutation(n)
            u = random_frames(rng, 32, n)
            tx = frame_chips(interleave(encode_levels(u), perm), p, cp)
            y = propagate(tx, np.array(taps), np.inf, 0.0, rng.standard_normal(tx.shape))[:, cp:]
            v = decode_samples(deinterleave(y, perm), p)
            want = (p / (2 * n)) * ((2 * u - 1) @ interference_matrix(perm, taps).T + 1.0)
            assert np.abs(v - want).max() <= 1e-13 * p / n, (n, taps)

    def test_too_many_taps(self):
        with pytest.raises(ConfigError):
            interference_matrix(np.arange(4), np.full(5, 0.2))


class TestMmseWeights:
    """The dense oracle's properties; TestWienerFilter ties the filter to it."""

    def test_level_variance(self):
        assert pam_level_variance(2) == pytest.approx(0.25)
        assert pam_level_variance(4) == pytest.approx(5 / 36)

    def test_identity_channel_reduces_to_scaled_identity(self):
        n, p, sigma2 = 8, 2.0, 1e-3
        w, error_diag = dense_mmse(np.arange(n), [1.0], p, sigma2)
        off = w - np.diag(np.diag(w))
        assert np.abs(off).max() < 1e-12
        # diagonal gain matches the scalar Wiener solution
        var_u = 0.25
        scale = p / n
        want = scale * var_u / (scale * scale * var_u + sigma2 / n)
        assert_allclose(np.diag(w)[1:], want)
        assert w[0, 0] == 0.0
        # closed-form error: (n-1) identical scalar residuals
        resid = var_u - scale * var_u * want
        assert error_diag.sum() == pytest.approx((n - 1) * resid, rel=1e-12)
        # the filter: the same gain, on every bin, in level units
        got = filter_for([1.0], n, p, sigma2)
        assert_allclose(got.spectrum, want * scale, rtol=1e-14)
        assert_allclose(got.error_diag, error_diag, rtol=1e-14, atol=0)

    def test_recovers_data_as_noise_vanishes(self):
        rng = np.random.default_rng(2)
        n, p = 16, 1.0
        weights = filter_for([1.0], n, p, 1e-15)
        u = random_frames(rng, 1, n)
        est = filtered_estimate(weights, encode_levels(u) * (p / n), p)
        assert np.abs(est[:, 1:] - u[:, 1:]).max() < 1e-6

    def test_normal_equations_residual(self):
        n, p, sigma2 = 16, 1.0, 4e-4
        h = [0.5, 0.3, 0.2]
        var_u = 0.25
        mat = interference_matrix(np.arange(n), h)
        d = np.ones(n)
        d[0] = 0.0
        c_uv = var_u * (p / n) * (d[:, None] * mat.T)
        cov_v = (p / n) ** 2 * var_u * ((mat * d) @ mat.T) + (sigma2 / n) * np.eye(n)
        w = dense_mmse(np.arange(n), h, p, sigma2)[0]
        resid = np.linalg.norm(w @ cov_v - c_uv) / np.linalg.norm(c_uv)
        assert resid < 1e-8

    def test_lmmse_matches_empirical_mse(self):
        rng = np.random.default_rng(3)
        n, p, sigma2 = 16, 1.0, 2e-4
        h = [0.5, 0.3, 0.2]
        w, error_diag = dense_mmse(np.arange(n), h, p, sigma2)
        levels = random_frames(rng, 200_000, n)
        v = decoded(received_samples(rng, levels, h, p, sigma2), p)
        err = dense_estimate(w, v, p) - levels
        empirical = np.sum(err * err, axis=1).mean()
        assert empirical == pytest.approx(error_diag.sum(), rel=0.03)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(4)
        n, p, sigma2 = 16, 1.0, 2e-4
        h = [0.5, 0.3, 0.2]
        w = dense_mmse(np.arange(n), h, p, sigma2)[0]
        levels = random_frames(rng, 100_000, n)
        v = decoded(received_samples(rng, levels, h, p, sigma2), p)
        base_err = dense_estimate(w, v, p) - levels
        base_mse = np.sum(base_err * base_err, axis=1).mean()
        norm_w = np.linalg.norm(w)
        centred = v - _v_mean(p, n)
        for _ in range(100):
            delta = rng.normal(size=w.shape)
            delta *= 0.01 * norm_w / np.linalg.norm(delta)
            err = base_err + centred @ delta.T
            mse = np.sum(err * err, axis=1).mean()
            assert base_mse <= mse


class TestMmseEstimate:
    def test_noiseless_roundtrip_after_slicing(self):
        rng = np.random.default_rng(5)
        n, p = 16, 1.0
        weights = filter_for([1.0], n, p, 1e-9)
        u = random_frames(rng, 1, n)
        est = filtered_estimate(weights, encode_levels(u) * (p / n), p)
        idx, _ = slice_levels(est[:, 1:], 2)
        assert_allclose(idx, u[:, 1:])

    def test_centered_observation_gives_prior_mean(self):
        # a constant received symbol, such as the mean or a per-symbol DC
        # shift, reaches component 0 only: every data level reads the prior mean
        n, p = 8, 1.0
        perm = np.random.default_rng(9).permutation(n)
        weights = filter_for([0.5, 0.3, 0.2], n, p, 1e-3, perm)
        y = np.full((3, n), [[p * (n - 1) / (2 * n)], [0.0], [5.0]])
        est = filtered_estimate(weights, y, p, perm)
        assert_allclose(est[:, 1:], 0.5, rtol=1e-14)

    def test_equivalent_to_plain_slicer_on_clean_channel(self):
        # identity channel, binary levels: the Wiener shrinkage never moves
        # an estimate across the half threshold
        rng = np.random.default_rng(6)
        n, p, sigma2 = 16, 1.0, 3e-4
        h = [1.0]
        levels = random_frames(rng, 2000, n)
        y = received_samples(rng, levels, h, p, sigma2)
        idx_mmse, _ = slice_levels(filtered_estimate(filter_for(h, n, p, sigma2), y, p)[:, 1:], 2)
        idx_plain, _ = slice_levels(decoded(y, p)[:, 1:] * (n / p), 2)
        assert np.array_equal(idx_mmse, idx_plain)

    def test_mmse_beats_plain_slicing_on_dispersive_channel(self):
        rng = np.random.default_rng(7)
        n, p, sigma2 = 8, 1.0, 2e-4
        h = [0.5, 0.3, 0.2]
        levels = random_frames(rng, 30_000, n)
        y = received_samples(rng, levels, h, p, sigma2)
        idx_truth = (levels[:, 1:] > 0.5).astype(int)
        idx_mmse, _ = slice_levels(filtered_estimate(filter_for(h, n, p, sigma2), y, p)[:, 1:], 2)
        idx_plain, _ = slice_levels(decoded(y, p)[:, 1:] * (n / p), 2)
        ber_mmse = np.mean(idx_mmse != idx_truth)
        ber_plain = np.mean(idx_plain != idx_truth)
        assert ber_mmse < ber_plain


class TestWienerFilter:
    @pytest.mark.parametrize("n", [16, 128, 1024])
    @pytest.mark.parametrize("taps, m", [(TAP_SETS[0], 2), (TAP_SETS[1], 4), (TAP_SETS[2], 2)])
    def test_matches_dense_oracle(self, taps, m, n):
        # estimates and error diagonal, at a noise-limited and an ISI-limited
        # drive. The oracle's error is var_u minus a nearly equal term, so it
        # rounds at var_u's scale (1.9e-11 of max(e) at N = 1,024 against a
        # per-component FFT form, which the filter's e meets to 1.3e-12)
        rng = np.random.default_rng(n + m)
        perm, sigma2 = rng.permutation(n), 4e-12
        for p in (2e-5 * n, 2e-3 * n):
            w, error_diag = dense_mmse(perm, taps, p, sigma2, m)
            weights = mmse_weights(np.fft.rfft(taps, n), perm, p, sigma2, m)
            y = received_samples(rng, random_frames(rng, 64, n, m), taps, p, sigma2, perm)
            want = dense_estimate(w, decoded(y, p, perm), p)[:, 1:]
            got = filtered_estimate(weights, y, p, perm)[:, 1:]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), p
            error = np.abs(weights.error_diag - error_diag).max()
            assert error <= 1e-12 * pam_level_variance(m), p
            assert weights.error_diag[0] == 0.0 and np.all(weights.error_diag[1:] > 0)

    @pytest.mark.parametrize("taps", TAP_SETS)
    def test_total_error_does_not_depend_on_the_permutation(self, taps):
        # the search's premise: components 1..N-1 of fwht(r) sum to
        # N r[0] - sum(r), with r[0] = N k[0] and sum(r) = N sum(k)
        n, p, sigma2 = 256, 1e-4 * 256 / 128, 4e-12
        rng = np.random.default_rng(10)
        gains = np.fft.rfft(taps, n)
        totals = [mmse_weights(gains, perm, p, sigma2).error_diag.sum()
                  for perm in [np.arange(n)] + [rng.permutation(n) for _ in range(5)]]
        assert np.ptp(totals) <= 1e-10 * totals[0]

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
    def test_mean_error_is_the_trace_identity(self, n):
        # sum(fwht(r)) = N r[0] = N^2 k[0] and fwht(r)[0] = sum(r) = N sum(k) = N S[0],
        # so the mean over components 1..N-1 needs no O(N^2) gather
        taps, m, p, sigma2 = [0.5, 0.3, 0.2], 4, 1e-4 * n / 128, 4e-12
        gains = np.fft.rfft(taps, n)
        var_u = pam_level_variance(m)
        spectrum = var_u * sigma2 / (p * p * var_u * np.abs(gains) ** 2 + n * sigma2)
        k = np.fft.irfft(spectrum, n)
        want = (n * n * k[0] - n * spectrum[0]) / (n - 1)
        for perm in (np.arange(n), np.random.default_rng(n).permutation(n)):
            got = mmse_weights(gains, perm, p, sigma2, m).error_diag[1:].mean()
            assert abs(got - want) <= 1e-12 * want

    def test_holds_no_square_matrix(self):
        # the error diagonal runs in blocks of DIAG_BLOCK terms: O(N) memory,
        # where the dense path held several N x N arrays (128 MiB each at 4,096)
        n = 4096
        gains = np.fft.rfft([0.5, 0.3, 0.2], n)
        perm = np.random.default_rng(11).permutation(n)
        tracemalloc.start()
        try:
            weights = mmse_weights(gains, perm, 1e-4 * n / 128, 4e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * DIAG_BLOCK * 8 + 16 * n * 8
        assert np.all(weights.error_diag[1:] > 0)


class TestInterleaverSearch:
    def test_identity_channel_returns_identity(self):
        perm = interleaver_search([1.0], 8, budget=50, rng=np.random.default_rng(0))[0]
        assert np.array_equal(perm, np.arange(8))

    def test_never_worse_than_identity_n128(self):
        h = [0.5, 0.3, 0.2]
        perm, j_id, j_pi = interleaver_search(h, 128, budget=300, rng=np.random.default_rng(2))
        assert j_id == interference_spread(interference_matrix(np.arange(128), h))
        assert j_pi == pytest.approx(interference_spread(interference_matrix(perm, h)), rel=1e-9)
        assert j_pi <= j_id

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            interleaver_search([1.0], 8, budget=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("n, error, message", [
        (2 * MAX_MATRIX_ORDER, ConfigError, f"n <= {MAX_MATRIX_ORDER}"),
        (12, DomainError, "power of two"),
    ])
    def test_size_is_checked_before_any_matrix(self, monkeypatch, n, error, message):
        def fail(*args, **kwargs):
            raise AssertionError("interference_matrix called")
        monkeypatch.setattr(equalization, "interference_matrix", fail)
        with pytest.raises(error, match=message):
            interleaver_search([0.5, 0.3, 0.2], n, budget=10, rng=np.random.default_rng(0))


def _reference_search(g, budget, rng):
    """The annealing search with every swap evaluated in full."""
    n = g.shape[0]
    identity = np.arange(n)
    best = identity
    best_j = matrix_objective(identity, g)
    if best_j == 0.0:
        return identity
    perm = rng.permutation(n)
    cur_j = matrix_objective(perm, g)
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
        cand_j = matrix_objective(cand, g)
        if cand_j < cur_j or rng.random() < math.exp(min((cur_j - cand_j) / temp, 0.0)):
            perm, cur_j = cand, cand_j
            if cur_j < best_j:
                best, best_j = perm.copy(), cur_j
        temp *= decay
    return best


def _rank_two_search(g, budget, rng):
    """Frozen copy of the annealing loop that kept M and scored each swap
    by its rank-2 update; the search must branch as it does wherever no two
    candidates tie (TIED, TIED_SEEDS). Returns the permutation and its
    tracked objective."""
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
    best_j = matrix_objective(best, g)
    if best_j == 0.0:
        return best, best_j
    perm = rng.permutation(n)
    mat = matrix_interference(perm, g)
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


# Cases where the rank-two loop meets exactly tied decisions, a swap that
# leaves the objective unchanged, in some of seeds 1-5. A tie goes to whichever
# side the last ulp lands on, and the accepting side draws one uniform less,
# so there the two searches may walk apart. Value: the tolerance on the full
# objective, against the worst of the five seeds as measured: 0.141 and 0.036
# at N = 16, 1.7e-3 at 64.
TIED = {((0.7, 0.3), 16): 0.25, ((0.7, 0.3), 64): 0.01, ((0.5, 0.3, 0.2), 16): 0.25}

# Single seeds of otherwise matching cases where such a tie parts the walks.
# Taps 0.7,0.3, N = 128, seed 4, step 170: the rank-two loop rounds the
# candidate 2 ulps below the current objective and accepts without a draw,
# while the scorer computes the two equal and draws. No ordering tried of the
# score's terms matches both this seed and seed 1 of the same case. The full
# objective ends 1.9e-4 above the full-evaluation search's.
TIED_SEEDS = {((0.7, 0.3), 128, 4): 0.01}


class TestRankTwoSwap:
    @settings(max_examples=60)
    @given(k=st.integers(2, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_xor_spread_matches_full_evaluation(self, k, seed, data):
        # up to six taps, so that their lags wrap around N = 4 and 8
        n = 1 << k
        taps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=min(n, 6)))
        perm = np.random.default_rng(seed).permutation(n)
        got = _xor_spread(taps, n)(perm, np.argsort(perm))
        mat = interference_matrix(perm, taps)
        want = interference_spread(mat)
        # both are a variance of E - diag^2, whose terms round at the scale of
        # M's row energies E: a few ulps of that scale times the spread's root
        # (3e-11 relative on taps 1,1,1,0.98 at N = 4, where the rows nearly agree)
        scale = np.einsum("ij,ij->i", mat, mat).max()
        assert abs(got - want) <= 1e-12 * want + 1e-14 * scale * math.sqrt(want)

    @pytest.mark.parametrize("n, budget", [(16, 500), (64, 500), (128, 500), (512, 100)])
    @pytest.mark.parametrize("taps", [[0.5, 0.3, 0.2], [0.7, 0.3], [0.4, 0.3, 0.2, 0.1]])
    def test_bit_identical_to_rank_two_loop(self, taps, n, budget):
        # without ties: the same permutation as the rank-two loop, and the
        # tracked objective to rounding; with ties (TIED, TIED_SEEDS): an
        # objective as good as full evaluation's, within the tolerance
        g = circulant_channel(taps, n)
        for seed in range(1, 6):
            tol = TIED.get((tuple(taps), n), TIED_SEEDS.get((tuple(taps), n, seed)))
            perm, _, tracked = interleaver_search(taps, n, budget=budget, rng=_stream(seed, 2, 0))
            if tol is None:
                want_perm, want_tracked = _rank_two_search(g, budget, _stream(seed, 2, 0))
                assert np.array_equal(perm, want_perm)
                assert tracked == pytest.approx(want_tracked, rel=1e-12, abs=0)
            else:
                want = matrix_objective(_reference_search(g, budget, _stream(seed, 2, 0)), g)
                assert objective(perm, taps) == pytest.approx(want, rel=tol)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_same_permutation_as_full_evaluation(self, seed):
        h = [0.5, 0.3, 0.2]
        got = interleaver_search(h, 128, budget=500, rng=_stream(seed, 2, 0))[0]
        want = _reference_search(circulant_channel(h, 128), 500, _stream(seed, 2, 0))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_objective_close_to_full_evaluation_with_ties(self, seed):
        # taps 0.7,0.3 give exactly tied objectives, where the two searches
        # may branch differently
        h = [0.7, 0.3]
        got = objective(interleaver_search(h, 128, budget=500, rng=_stream(seed, 2, 0))[0], h)
        g = circulant_channel(h, 128)
        want = objective(_reference_search(g, 500, _stream(seed, 2, 0)), h)
        assert got == pytest.approx(want, rel=0.01)

    def test_tracked_objective_n512(self):
        # N = 512: the Hadamard products all go through fwht
        h = [0.5, 0.3, 0.2]
        perm, _, tracked = interleaver_search(h, 512, budget=20, rng=np.random.default_rng(3))
        assert sorted(perm) == list(range(512))
        assert tracked == pytest.approx(objective(perm, h), rel=1e-9)

    @pytest.mark.parametrize("n, digest", [
        (1024, "9c095a7d37f2ff2c79a66cba9b2f5f825a8746c3ca25fab977905dbfb2a9a08b"),
        (2048, "ddabeb347e407c3f685d561c7cab8dc72247eac47b11fc23937cb4cc61cf28d8"),
    ])
    def test_large_search_keeps_its_permutation(self, n, digest):
        # the SHA-256 of the permutation the rank-two loop found (5.8 s and 36 s)
        perm = interleaver_search([0.5, 0.3, 0.2], n, budget=2000, rng=_stream(1, 2, 0))[0]
        assert hashlib.sha256(perm.astype(np.int64).tobytes()).hexdigest() == digest

    def test_search_holds_no_channel_matrix(self):
        # M plus the transients of building it: about 4 N x N float64 arrays;
        # keeping G, or a permuted copy of it, would add one array each
        n = 1024
        tracemalloc.start()
        try:
            interleaver_search([0.5, 0.3, 0.2], n, budget=200, rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * n * n * 8

    def test_steps_allocate_no_square_matrix(self, monkeypatch):
        # each evaluation, the start's and every step's, allocates a few
        # (lags x N) arrays, O(lags N), and the search holds O(N) between them
        n, taps = 1024, [0.5, 0.3, 0.2]
        step_peaks, held = [], []

        def traced(h, size):
            spread = _xor_spread(h, size)

            def measured(perm, inv):
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                value = spread(perm, inv)
                step_peaks.append(tracemalloc.get_traced_memory()[1] - held[-1])
                return value
            return measured
        monkeypatch.setattr(equalization, "_xor_spread", traced)
        tracemalloc.start()
        try:
            interleaver_search(taps, n, budget=200, rng=np.random.default_rng(2))
        finally:
            tracemalloc.stop()
        lags = 2 * len(taps) - 1
        assert len(step_peaks) > 150
        assert max(step_peaks) < 6 * lags * n * 8
        assert max(held) - held[0] < 8 * n * 8

    @pytest.mark.parametrize("budget", [1, 50, 400])
    def test_one_interference_matrix_per_scorer(self, monkeypatch, budget):
        # the identity only, whatever the budget: _xor_spread scores the rest
        calls = []

        def counted(perm, h):
            calls.append(perm.size)
            return interference_matrix(perm, h)
        monkeypatch.setattr(equalization, "interference_matrix", counted)
        interleaver_search([0.5, 0.3, 0.2], 64, budget=budget, rng=np.random.default_rng(4))
        assert calls == [64]

    @pytest.mark.parametrize("n", [16, 64, 128, 512])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_raw_pairs_are_the_draws_of_integers(self, n, seed):
        # a PCG64 subclass takes the rng.integers path with the same stream;
        # these seeds start the loop with and without a buffered half-word
        class Subclassed(np.random.PCG64):
            pass
        raw = _stream(seed, 2, 0)
        drawn = np.random.Generator(Subclassed(np.random.SeedSequence(seed, spawn_key=(2, 0))))
        got = interleaver_search([0.5, 0.3, 0.2], n, budget=300, rng=raw)[0]
        want = interleaver_search([0.5, 0.3, 0.2], n, budget=300, rng=drawn)[0]
        assert np.array_equal(got, want)
        state = drawn.bit_generator.state
        state["bit_generator"] = "PCG64"
        np.testing.assert_equal(raw.bit_generator.state, state)

    def test_raw_pairs_meet_both_buffer_states(self):
        buffered = set()
        for n, seed in itertools.product([16, 64, 128, 512], range(1, 6)):
            rng = _stream(seed, 2, 0)
            rng.permutation(n)
            buffered.add(rng.bit_generator.state["has_uint32"])
        assert buffered == {0, 1}


class TestPermutationFiles:
    def test_roundtrip(self, tmp_path):
        perm = np.random.default_rng(3).permutation(16)
        path = tmp_path / "perm.txt"
        path.write_text("".join(f"{i}\n" for i in perm))
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
