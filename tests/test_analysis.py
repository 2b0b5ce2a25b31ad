import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import comb, erfc, ndtr
from scipy.stats import norm

from hcmlink import analysis, harness
from hcmlink.analysis import (
    clipping_variance_discrete,
    clipping_variance_gaussian,
    dcr_amplitude_pmf,
    dcr_energy_efficiency,
    hcm_amplitude_pmf,
    hcm_snr,
    pam_ber,
    qfunc,
)
from hcmlink.channel import GAMMA
from hcmlink.errors import DomainError
from hcmlink.hadamard import MAX_ORDER_LOG2
from hcmlink.harness import _SCHEMES, MAX_POWER_W, achievable_snr
from hcmlink.modem_hcm import encode_levels
from hcmlink.modem_ofdm import aco_data_count, aco_time_samples, qam_symbols


def extended_binomial(m: int, n: int) -> list:
    """Oracle: coefficients of (1 + x + ... + x**(m-1))**n by repeated convolution."""
    if m < 2 or n < 0:
        raise DomainError(f"need m >= 2 and n >= 0, got m={m}, n={n}")
    row = [1]
    for _ in range(n):
        new = [0] * (len(row) + m - 1)
        for j, c in enumerate(row):
            for k in range(m):
                new[j + k] += c
        row = new
    return row


def dcr_chip_pmf_exact(n: int, m: int) -> tuple:
    """Oracle: (pmf, frame_var), the exact DC-reduced chip pmf over k/(m-1) and the
    variance over frames of a frame's mean chip, by enumerating every data frame;
    only viable for small n."""
    analysis._check_power_of_two(n)
    analysis._check_order(m)
    frames = m ** (n - 1)
    if frames > 1 << 20:
        raise DomainError(f"{frames} frames is too many for exhaustive enumeration")
    idx = np.arange(frames)
    digits = np.zeros((frames, n))
    for pos in range(n - 1):
        digits[:, pos + 1] = (idx // m**pos) % m
    chips = encode_levels(digits / (m - 1))
    grid = np.rint((chips - chips.min(axis=-1, keepdims=True)) * (m - 1)).astype(np.int64)
    probs = np.bincount(grid.reshape(-1)) / grid.size
    pmf = analysis.AmplitudePmf(support=np.arange(probs.size) / (m - 1), probs=probs)
    return pmf, float(np.var(grid.mean(axis=-1) / (m - 1)))


def dcr_energy_efficiency_exact(n: int, m: int) -> float:
    """Oracle: exact eta = E{chip} / E{DC-reduced chip} from the exact DC-reduced pmf."""
    return (n - 1) / 2.0 / dcr_chip_pmf_exact(n, m)[0].mean()


class TestExtendedBinomial:
    def test_binary_reduces_to_binomial_row(self):
        assert extended_binomial(2, 5) == [1, 5, 10, 10, 5, 1]

    def test_ternary_square(self):
        assert extended_binomial(3, 2) == [1, 2, 3, 2, 1]

    def test_row_sums_to_m_power_n(self):
        assert sum(extended_binomial(3, 4)) == 81
        assert sum(extended_binomial(16, 8)) == 16**8

    def test_rows_are_symmetric(self):
        for m, n in ((2, 9), (4, 5), (16, 3)):
            row = extended_binomial(m, n)
            assert row == row[::-1]
            assert len(row) == n * (m - 1) + 1

    def test_matches_exact_binomial_up_to_64(self):
        for n in (1, 7, 32, 64):
            want = [int(comb(n, k, exact=True)) for k in range(n + 1)]
            assert extended_binomial(2, n) == want

    def test_domain(self):
        with pytest.raises(DomainError):
            extended_binomial(1, 4)


@pytest.mark.parametrize("m, n", [(2, 127), (4, 127), (8, 63), (3, 50), (16, 255), (4, 1023)])
def test_miller_recurrence_equals_extended_binomial(m, n):
    assert list(analysis._window_power_row(m, n)) == extended_binomial(m, n)


@pytest.mark.parametrize("n, m", [(8, 2), (64, 4), (64, 3), (128, 8)])
def test_windowed_row_floats_equal_full_row(n, m):
    # the pmf divides each coefficient as the row is generated; the floats
    # equal those of dividing the whole exact row, held at once
    denom = m ** (n - 1)
    row = list(analysis._window_power_row(m, n - 1))
    assert row == extended_binomial(m, n - 1)
    assert hcm_amplitude_pmf(n, m).probs.tolist() == [c / denom for c in row]


def test_pmf_row_memory_stays_windowed():
    # the whole row at N = 2**12, M = 8 holds about 36 MiB of big integers;
    # the window holds M of them, and the float pmf is 224 KiB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pmf = hcm_amplitude_pmf(1 << 12, 8)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert pmf.probs.size == 4095 * 7 + 1
    assert peak < 2 << 20


@pytest.mark.parametrize("n, m", [(128, 4), (64, 8), (16, 16)])
def test_multilevel_pmf_bit_identical_to_extended_binomial(n, m):
    denom = m ** (n - 1)
    want = np.array([c / denom for c in extended_binomial(m, n - 1)])
    pmf = hcm_amplitude_pmf(n, m)
    assert np.array_equal(pmf.probs, want)
    assert np.array_equal(pmf.support, np.arange(want.size) / (m - 1))


@pytest.mark.parametrize("n", [1 << k for k in range(1, 13)])
def test_binary_pmf_bit_identical_to_extended_binomial(n):
    denom = 2 ** (n - 1)
    want = np.array([c / denom for c in extended_binomial(2, n - 1)])
    pmf = hcm_amplitude_pmf(n, 2)
    assert np.array_equal(pmf.probs, want)
    assert np.array_equal(pmf.support, np.arange(n, dtype=np.float64))


def test_binary_pmf_at_max_order():
    n = 1 << MAX_ORDER_LOG2
    pmf = hcm_amplitude_pmf(n, 2)
    assert pmf.probs.size == n
    assert abs(pmf.probs.sum() - 1.0) <= 1e-12
    assert pmf.mean() == pytest.approx((n - 1) / 2, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda rng: dcr_amplitude_pmf(16, 1, 100, rng),
    lambda rng: dcr_amplitude_pmf(16, 2, 0, rng),
    lambda rng: dcr_amplitude_pmf(16, 2, -5, rng),
    lambda rng: dcr_energy_efficiency(16, 1, 10_000, rng),
    lambda rng: dcr_energy_efficiency_exact(4, 1),
    lambda rng: hcm_amplitude_pmf(16, 1),
])
def test_degenerate_order_or_sample_count_rejected(call):
    with pytest.raises(DomainError):
        call(np.random.default_rng(0))


class TestAmplitudePmf:
    def test_binary_small_order(self):
        # with u[0] pinned, each chip is a sum of n-1 fair binary terms
        pmf = hcm_amplitude_pmf(4, 2)
        assert pmf.support.tolist() == [0, 1, 2, 3]
        assert_allclose(pmf.probs, np.array([1, 3, 3, 1]) / 8)

    def test_probs_sum_to_one_and_mean(self):
        for n, m in ((8, 2), (32, 4), (16, 16)):
            pmf = hcm_amplitude_pmf(n, m)
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert pmf.mean() == pytest.approx((n - 1) / 2, rel=1e-12)

    def test_matches_exhaustive_chip_histogram(self):
        # enumerate all 2^7 binary frames of order 8 and histogram the chips
        import itertools

        frames = np.zeros((128, 8))
        for i, bits in enumerate(itertools.product([0.0, 1.0], repeat=7)):
            frames[i, 1:] = bits
        chips = encode_levels(frames).astype(int).reshape(-1)
        hist = np.bincount(chips, minlength=8) / chips.size
        pmf = hcm_amplitude_pmf(8, 2)
        assert_allclose(hist[: pmf.probs.size], pmf.probs, atol=1e-12)

    def test_monte_carlo_tv_distance_n128(self):
        rng = np.random.default_rng(0)
        pmf = hcm_amplitude_pmf(128, 2)
        levels = np.zeros((8192, 128))
        levels[:, 1:] = rng.integers(0, 2, size=(8192, 127))
        chips = encode_levels(levels).astype(int).reshape(-1)
        hist = np.bincount(chips, minlength=pmf.probs.size) / chips.size
        tv = 0.5 * np.abs(hist[: pmf.probs.size] - pmf.probs).sum()
        assert tv < 0.02  # ~1e6 chips

    @pytest.mark.parametrize("n", [0, 1, 12, 48])
    def test_non_power_of_two_order_rejected(self, n):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="power of two"):
            hcm_amplitude_pmf(n, 2)
        with pytest.raises(DomainError, match="power of two"):
            dcr_amplitude_pmf(n, 2, 100, rng)
        with pytest.raises(DomainError, match="power of two"):
            dcr_energy_efficiency(n, 2, 10_000, rng)
        with pytest.raises(DomainError, match="power of two"):
            dcr_energy_efficiency_exact(n, 2)

    def test_dcr_pmf_is_shifted_down(self):
        rng = np.random.default_rng(1)
        plain = hcm_amplitude_pmf(64, 2)
        reduced = dcr_amplitude_pmf(64, 2, 4000, rng)
        assert reduced.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert reduced.mean() < plain.mean()
        assert reduced.support[0] == 0.0


def _float_dcr_pmf(n, m, symbols, rng):
    """DCR chip pmf through float levels, encode_levels and rounding."""
    counts = np.zeros((n - 1) * (m - 1) + 1, dtype=np.int64)
    done = 0
    while done < symbols:
        k = min(4096, symbols - done)
        levels = np.zeros((k, n))
        levels[:, 1:] = rng.integers(0, m, size=(k, n - 1)) / (m - 1)
        chips = encode_levels(levels)
        reduced = chips - chips.min(axis=-1, keepdims=True)
        grid = np.rint(reduced * (m - 1)).astype(np.int64).reshape(-1)
        counts += np.bincount(grid, minlength=counts.size)
        done += k
    last = int(np.max(np.nonzero(counts)))
    return np.arange(last + 1) / (m - 1), counts[: last + 1] / counts.sum()


@pytest.mark.parametrize("n, m, symbols", [
    (128, 2, 20_000), (128, 4, 20_000), (16, 8, 5000), (64, 16, 9000), (1024, 2, 8192),
    # symbols not a multiple of a block (512 at n=128), and fewer than one block
    (128, 2, analysis.CALIB_BLOCK_CHIPS // 128 * 3 + 77), (256, 4, 100),
    # (m-1) N >= 2**24: drawn and transformed in float64, counted on an intp grid
    # (0.6-0.8 s with the oracle, at a 640 MiB tracemalloc peak and 750 MiB
    # peak RSS: both count 2**24 grid points)
    (2, 1 << 24, 2000),
])
def test_dcr_pmf_equals_float_pipeline(n, m, symbols):
    pmf = dcr_amplitude_pmf(n, m, symbols, np.random.default_rng(11))
    support, probs = _float_dcr_pmf(n, m, symbols, np.random.default_rng(11))
    assert np.array_equal(pmf.support, support)
    assert np.array_equal(pmf.probs, probs)


def _draw_pair(seed: int, buffered: bool):
    """Two generators in the same state; buffered leaves a half-word in PCG64's buffer."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        rng.integers(0, 2, size=3 if buffered else 4)
    assert pair[0].bit_generator.state["has_uint32"] == buffered
    return pair


# out targets of _uniform_ints: None allocates, a dtype a buffer of it, "view"
# the float32 columns [:, 1:] of a wider buffer, as the DCR calibration draws
OUT_TARGETS = [None, np.float32, np.int32, np.uint8, "view"]


def _assert_same_draw(want_rng, got_rng, m, shape, target=None):
    want = want_rng.integers(0, m, size=shape)
    if target is None:
        out = None
    elif target == "view":
        wide = np.full(shape[:-1] + (shape[-1] + 1,), -1.0, dtype=np.float32)
        out = wide[..., 1:]
    else:
        out = np.empty(shape, dtype=target)
    got = analysis._uniform_ints(got_rng, m, shape, out=out)
    if out is None:
        assert got.dtype == want.dtype == np.int64
    else:
        assert got is out
        want = want.astype(out.dtype)  # the cast of copyto(casting="unsafe")
    if target == "view":
        assert np.all(wide[..., 0] == -1.0)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
    # later draws of either width see the same stream
    assert np.array_equal(got_rng.integers(0, 7, size=5), want_rng.integers(0, 7, size=5))
    assert np.array_equal(got_rng.standard_normal(3), want_rng.standard_normal(3))


@pytest.mark.parametrize("m", [2, 4, 16, 256, 1 << 32])
@pytest.mark.parametrize("shape", [(4, 6), (3, 5), (7,), (1,), (0,), (0, 5)])
@pytest.mark.parametrize("buffered", [False, True])
def test_uniform_ints_reads_the_words_of_integers(m, shape, buffered):
    for target in OUT_TARGETS:
        _assert_same_draw(*_draw_pair(21, buffered), m, shape, target)


def test_uniform_ints_over_many_calls():
    want, got = np.random.default_rng(22), np.random.default_rng(22)
    for shape in [(5,), (256, 127), (3, 3), (0,), (1,), (2, 2)]:
        _assert_same_draw(want, got, 2, shape)


@pytest.mark.parametrize("m", [1, 3, 6, 2 << 32])
@pytest.mark.parametrize("buffered", [False, True])
def test_uniform_ints_falls_back_for_other_m(m, buffered):
    for target in OUT_TARGETS:
        _assert_same_draw(*_draw_pair(23, buffered), m, (3, 5), target)


@pytest.mark.parametrize("m", [2, 3])
def test_uniform_ints_falls_back_for_other_generators(m):
    for target in OUT_TARGETS:
        want, got = (np.random.Generator(np.random.MT19937(24)) for _ in range(2))
        _assert_same_draw(want, got, m, (3, 5), target)


@pytest.mark.parametrize("n, m, symbols", [(16, 3, 3000), (32, 2, 1000)])
def test_dcr_pmf_of_fallback_draws_equals_float_pipeline(n, m, symbols):
    # m = 3 and an MT19937 stream take rng.integers in place of raw words
    rng = np.random.Generator(np.random.MT19937(11))
    pmf = dcr_amplitude_pmf(n, m, symbols, rng)
    support, probs = _float_dcr_pmf(n, m, symbols, np.random.Generator(np.random.MT19937(11)))
    assert np.array_equal(pmf.support, support)
    assert np.array_equal(pmf.probs, probs)


class TestClippingVarianceDiscrete:
    def test_no_clipping_when_peak_within_limiter(self):
        pmf = hcm_amplitude_pmf(16, 2)
        assert clipping_variance_discrete(pmf, 1.0, 16, 1.0) == 0.0

    def test_hand_evaluated_four_term_sum(self):
        # n=4, m=2, p=1.5, p_max=1: chip amplitudes k*p/4 for k=0..3 with
        # probabilities [1,3,3,1]/8; only k=3 exceeds the limiter:
        # (3*1.5/4 - 1)^2 * 1/8 = 0.125^2 / 8 = 0.001953125
        pmf = hcm_amplitude_pmf(4, 2)
        got = clipping_variance_discrete(pmf, 1.5, 4, 1.0)
        assert got == pytest.approx(0.001953125, rel=1e-12)

    def test_non_increasing_in_p_max_and_vanishes(self):
        pmf = hcm_amplitude_pmf(32, 2)
        p = 2.0
        caps = np.linspace(0.2, 2.1, 12)
        vals = [clipping_variance_discrete(pmf, p, 32, c) for c in caps]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0  # cap above the maximum amplitude

    def test_matches_monte_carlo_distortion(self):
        rng = np.random.default_rng(2)
        n, p, p_max = 128, 2.0, 1.0
        pmf = hcm_amplitude_pmf(n, 2)
        want = clipping_variance_discrete(pmf, p, n, p_max)
        levels = np.zeros((20_000, n))
        levels[:, 1:] = rng.integers(0, 2, size=(20_000, n - 1))
        amps = encode_levels(levels) * (p / n)
        got = np.mean(np.minimum(amps - p_max, 0.0) ** 2 + np.maximum(amps - p_max, 0.0) ** 2) \
            - np.mean(np.minimum(amps - p_max, 0.0) ** 2)
        got = np.mean(np.maximum(amps - p_max, 0.0) ** 2)
        assert got == pytest.approx(want, rel=0.05)


class TestClippingVarianceGaussian:
    def test_half_gaussian_second_moment(self):
        # zero mean, unit variance, the cap at the largest peak, 1000 std away:
        # the lower clip removes exactly half of the second moment
        assert clipping_variance_gaussian(0.0, 1.0, MAX_POWER_W) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("p_max", [math.inf, math.nan])
    def test_cap_must_be_finite(self, p_max):
        # an infinite edge reads inf times a zero tail: outside the domain
        with pytest.raises(DomainError, match="need a finite p_max"):
            clipping_variance_gaussian(0.0, 1.0, p_max)

    def test_symmetric_caps_split_evenly(self):
        v = clipping_variance_gaussian(1.0, 0.3, 2.0)
        lower = analysis._tail_var(1.0, math.sqrt(0.3), 0.0, side=-1.0)
        upper = analysis._tail_var(1.0, math.sqrt(0.3), 2.0, side=1.0)
        assert lower == pytest.approx(upper, rel=1e-12)
        assert v == pytest.approx(lower + upper, rel=1e-12)

    @pytest.mark.parametrize("std", [1e-6, 0.3, 7.0])
    def test_tail_variances_match_scipy_ndtr(self, std):
        # E[(X - edge)^2 ; X beyond edge] = std^2 g(t), t the edge's distance
        # beyond the mean in std, against an oracle that sums only positive
        # terms: with the edge on the mean's side (t <= 0) the formula
        # (1 + t^2) Phi(-t) - t phi(t) on scipy's ndtr, and beyond it
        # phi(t) int_0^inf u^2 exp(-t u - u^2 / 2) du by adaptive quadrature,
        # which holds to 1e-12 of the value itself at every distance
        def want(mean, edge, side):
            t = side * (edge - mean) / std
            if t <= 0:
                g = (1 + t * t) * ndtr(-t) - t * analysis._phi(t)
            else:
                tail, _ = quad(lambda u: u * u * math.exp(-t * u - 0.5 * u * u), 0.0, np.inf,
                               epsabs=0.0, epsrel=1e-13, limit=200)
                g = analysis._phi(t) * tail
            return std * std * float(g)

        def check(got, want):
            if want < 1e-300:  # subnormal products carry no relative precision
                assert got < 1e-300
            else:
                assert abs(got - want) <= 1e-12 * want

        for z in np.linspace(-38.0, 38.0, 761):
            got = analysis._tail_var(-z * std, std, 0.0, side=-1.0)
            check(got, want(-z * std, 0.0, -1.0))
            got = analysis._tail_var(0.5, std, 0.5 + z * std, side=1.0)
            check(got, want(0.5, 0.5 + z * std, 1.0))

    def test_far_tail_variances_are_one_array_pass(self):
        # an array of edges scores as each edge alone, on both sides of the switch
        # from the direct form to the quadrature
        edges = np.linspace(-10.0, 40.0, 101)
        got = analysis._tail_var(0.0, 1.0, edges, side=1.0)
        assert got.shape == edges.shape
        assert got.tolist() == [analysis._tail_var(0.0, 1.0, e, side=1.0) for e in edges]

    @pytest.mark.parametrize(
        "mean,var,p_max", [(0.2, 1.3, 1.7), (-0.5, 0.04, 0.5), (2.0, 4.0, 2.5)]
    )
    def test_matches_adaptive_quadrature(self, mean, var, p_max):
        std = math.sqrt(var)

        def pdf(x):
            return norm.pdf(x, mean, std)

        lower, _ = quad(lambda x: x * x * pdf(x), -np.inf, 0.0)
        upper, _ = quad(lambda x: (x - p_max) ** 2 * pdf(x), p_max, np.inf)
        want = lower + upper
        assert clipping_variance_gaussian(mean, var, p_max) == pytest.approx(want, rel=1e-8)


class TestAnalyticalBer:
    def test_qfunc_at_three(self):
        assert qfunc(3.0) == pytest.approx(1.3499e-3, rel=1e-4)

    @pytest.mark.parametrize("x", [
        3.0,
        np.float64(-1.5),
        np.array(37.0),
        np.concatenate([np.linspace(-40.0, 40.0, 8001), [-np.inf, np.inf]]),
        np.linspace(-6.0, 38.0, 12).reshape(3, 4),
        np.array([]),
    ], ids=["scalar", "np-scalar", "0-d", "1-d", "2-d", "empty"])
    def test_qfunc_matches_scipy_erfc(self, x):
        # math.erfc applied elementwise, held to scipy's erfc to 1e-12 relative
        got = qfunc(x)
        want = 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))
        assert type(got) is type(want)
        assert got.dtype == np.float64 and np.shape(got) == np.shape(x)
        got, want = np.atleast_1d(got), np.atleast_1d(want)
        kept = want >= 1e-300
        assert_allclose(got[kept], want[kept], rtol=1e-12, atol=0)
        # below that both are subnormal or zero
        assert np.all(got[~kept] < 1e-300)

    def test_binary_form_and_q_argument(self):
        # pick (p, sigma) so the decision Q-argument is exactly 3
        n, gamma = 128, 1.21
        sigma2 = 1e-12
        p = 3.0 * 2.0 * math.sqrt(n * gamma * sigma2)
        assert hcm_snr(2, n, p, gamma * sigma2, 0.0) == pytest.approx(9.0, rel=1e-12)
        assert pam_ber(hcm_snr(2, n, p, gamma * sigma2, 0.0), 2) == pytest.approx(
            float(qfunc(3.0)), rel=1e-12
        )

    def test_peak_snr_is_four_times_decision_snr(self):
        # achievable_snr reports 4x the squared Q-argument for hcm
        res = achievable_snr("hcm", 1e-4, 1e-12, n=64, m=2)
        p = analysis.hcm_drive_peak(res.best_avg_power, 64)
        clip = clipping_variance_discrete(hcm_amplitude_pmf(64, 2), p, 64, 1e-4)
        want = 4 * hcm_snr(2, 64, p, GAMMA * 1e-12, clip)
        assert res.max_snr == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m, noise_std", [(4, 0.5e-6), (8, 0.2e-6)])
    def test_mpam_ber_matches_monte_carlo(self, m, noise_std):
        # flat channel, no clipping: the decision distance is half the level
        # spacing p/(N(M-1)); the factor 3/(M^2-1) read 8x (M=4) and 50x
        # (M=8) below the simulated BER
        cfg = harness.parse_config(
            f"scheme = hcm\nm = {m}\np_max_w = 1\npower_grid_w = 4e-5\n"
            f"noise_std_w = {noise_std}\nmax_symbols = 1024\ntarget_errors = 1000000\n")
        (rec,) = harness.sweep(cfg)
        assert rec.bit_errors > 1000
        assert abs(rec.ber - rec.analytical_ber) <= 3 * rec.ci_95

    def test_aco_ber_matches_monte_carlo(self):
        # noise-limited QAM-4 points: the simulated drive is the analytic
        # column's aco_scale, and where the p_max clip is far below the noise
        # the two BERs agree within the Monte-Carlo interval (seed 1: within
        # 0.94 and 0.02 ci95, over 2,304 and 24,576 symbols)
        cfg = harness.parse_config(
            "scheme = aco-ofdm\nm = 4\np_max_w = 1e-4\npower_grid_w = 3e-6,4e-6\n"
            "noise_std_w = 2e-6\nmax_symbols = 100000\ntarget_errors = 1000\n")
        sigma_x = analysis.aco_scale(cfg.power_grid, cfg.n) * analysis.aco_time_std(cfg.n)
        # the p_max clip of the zero-mean waveform, as aco_es_snr models it
        clip = analysis._tail_var(0.0, sigma_x, cfg.p_max, side=1.0)
        assert np.all(clip < 0.01 * cfg.noise_var)
        for rec in harness.sweep(cfg):
            assert 200 <= rec.bit_errors and rec.symbols_run < cfg.max_symbols
            assert abs(rec.ber - rec.analytical_ber) <= 3 * rec.ci_95

    def test_monotonicity(self):
        powers = np.linspace(1e-5, 1e-4, 20)
        bers = [pam_ber(hcm_snr(2, 128, p, GAMMA * 4e-12, 0.0), 2) for p in powers]
        assert all(a > b for a, b in zip(bers, bers[1:]))
        clips = np.linspace(0.0, 1e-11, 10)
        bers = [pam_ber(hcm_snr(2, 128, 5e-5, GAMMA * 4e-12, c), 2) for c in clips]
        assert all(a < b for a, b in zip(bers, bers[1:]))

    def test_ber_is_prefactor_times_q_of_root_snr(self):
        # Gray M-PAM: 2(M-1)/(M log2 M); Gray square QAM: 4(sqrt M - 1)/(sqrt M log2 M)
        assert pam_ber(9.0, 2) == pytest.approx(float(qfunc(3.0)), rel=1e-15)
        assert pam_ber(9.0, 4) == pytest.approx(0.75 * float(qfunc(3.0)), rel=1e-15)
        ofdm_ber = _SCHEMES["aco-ofdm"].ber
        assert ofdm_ber(9.0, 4) == pytest.approx(float(qfunc(3.0)), rel=1e-15)
        assert ofdm_ber(9.0, 16) == pytest.approx(0.75 * float(qfunc(3.0)), rel=1e-15)
        assert pam_ber(0.0, 2) == ofdm_ber(0.0, 4) == 0.5
        assert pam_ber(math.inf, 2) == ofdm_ber(math.inf, 16) == 0.0

    @pytest.mark.parametrize("scheme", ["aco-ofdm", "dco-ofdm"])
    def test_qam_ber_is_pam_ber_per_axis(self, scheme):
        # the Gray square-QAM formula as its own oracle: both prefactors are
        # the same rational, so they round to the same double
        def qam_ber(snr, m_qam):
            side = math.sqrt(m_qam)
            ber = 4.0 * (side - 1.0) / (side * math.log2(m_qam)) * float(qfunc(math.sqrt(snr)))
            return min(ber, 0.5)

        snrs = [0.0, math.inf, *np.geomspace(1e-3, 1e3, 2000).tolist()]
        for m in (4, 16, 64, 256, 1024, 4096):
            got = [_SCHEMES[scheme].ber(snr, m) for snr in snrs]
            assert got == [qam_ber(snr, m) for snr in snrs]

    def test_ber_approaches_half_at_zero_snr(self):
        ber = pam_ber(hcm_snr(2, 128, 1e-9, GAMMA * 4e-12, 0.0), 2)
        assert ber <= 0.5
        assert ber == pytest.approx(0.5, rel=1e-3)


def _aco_unit_mean_whole(n: int, m: int, frames: int, seed: int) -> float:
    """Oracle: the mean of the zero-clipped unit ACO waveform over one whole-array
    draw and transform of frames random frames."""
    shape = (frames, aco_data_count(n) * int(math.log2(m)))
    bits = np.random.default_rng(seed).integers(0, 2, shape)
    raw = aco_time_samples(qam_symbols(bits, m), n)
    return float(np.maximum(raw, 0.0).mean())


@pytest.mark.parametrize("n, low, high", [(16, 1.8e-2, 2.5e-2), (128, -3e-3, 0.0)])
def test_aco_gaussian_unit_mean_bias(n, low, high):
    # aco_scale assumes the Gaussian mean of the zero-clipped waveform; for
    # QAM-4 it is 2.15 % above the exact mean at N = 16 (the mean of all 256
    # frames) and about 0.15 % below it at N = 128; over 16,384 frames the
    # Monte-Carlo ratio's std was 0.08 % (N = 16) and 0.02 % (N = 128) across
    # eight seeds, so each band holds 4 or more of those stds either side
    gaussian = 1.0 / analysis.aco_scale(1.0, n)
    for seed in (1, 2, 3):
        bias = gaussian / _aco_unit_mean_whole(n, 4, 1 << 14, seed) - 1.0
        assert low < bias < high


class TestEnergyEfficiency:
    def test_exhaustive_n8_exact_value(self):
        assert dcr_energy_efficiency_exact(8, 2) == pytest.approx(1.75, rel=1e-12)

    def test_monte_carlo_agrees_with_exhaustive(self):
        rng = np.random.default_rng(3)
        eta = dcr_energy_efficiency(8, 2, 100_000, rng)
        assert eta == pytest.approx(1.75, rel=0.01)

    def test_degenerate_order_two(self):
        # both binary frames at n=2 contain a zero chip, so eta = 1 exactly
        assert dcr_energy_efficiency_exact(2, 2) == pytest.approx(1.0)
        # with more levels the minimum is usually positive
        assert dcr_energy_efficiency_exact(2, 4) > 1.0

    def test_trials_precondition(self):
        with pytest.raises(DomainError):
            dcr_energy_efficiency(8, 2, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("n, m", [(16, 2), (8, 4)])
    def test_monte_carlo_pmf_agrees_with_exhaustive(self, n, m):
        # every frame enumerated: 2**15 and 4**7 of them. Over seeds 0-299 at
        # 20,000 frames the total-variation distance reached at most 0.0037
        # (N = 16, m = 2) and 0.0059 (N = 8, m = 4), so the bound is 0.01
        exact, frame_var = dcr_chip_pmf_exact(n, m)
        symbols = 20_000
        for seed in (1, 2, 3):
            pmf = dcr_amplitude_pmf(n, m, symbols, np.random.default_rng(seed))
            # the mean chip, within 3 standard errors of the mean over 20,000 frames
            assert abs(pmf.mean() - exact.mean()) < 3.0 * math.sqrt(frame_var / symbols)
            assert pmf.support.size <= exact.support.size
            assert np.array_equal(pmf.support, exact.support[:pmf.support.size])
            probs = np.zeros(exact.probs.size)
            probs[:pmf.probs.size] = pmf.probs
            assert 0.5 * np.abs(probs - exact.probs).sum() < 0.01

    @pytest.mark.parametrize("n, m, edges, tol", [(16, 2, (7.0, 5.0), 0.05),
                                                  (8, 4, (3.5, 3.1), 0.1)])
    def test_monte_carlo_pmf_upper_tail_clips_like_exhaustive(self, n, m, edges, tol):
        # the drives clip the chips above each edge: at N = 16, m = 2 the top
        # chip (4.7 % of them) or the top two (25.6 %); at N = 8, m = 4 the top
        # chip (2.4 %) or every one above 3 (10.3 %). The TV bound above lets a
        # pmf move 40 % of a 2.4 % top mass; over seeds 0-299 at 20,000 frames
        # the clipping variance erred by at most 2.8 % and 2.0 % (N = 16), and
        # 6.9 % and 5.9 % (N = 8), so the bounds are 5 % and 10 %
        p_max = 1e-4
        drives = n * p_max / np.array(edges)
        want = clipping_variance_discrete(dcr_chip_pmf_exact(n, m)[0], drives, n, p_max)
        for seed in (1, 2, 3):
            pmf = dcr_amplitude_pmf(n, m, 20_000, np.random.default_rng(seed))
            got = clipping_variance_discrete(pmf, drives, n, p_max)
            assert np.all(np.abs(got / want - 1) < tol)


class TestAchievableSnr:
    def test_no_clip_regime_peaks_at_grid_boundary(self):
        # cap the scan at half the limiter: clipping never engages and the
        # SNR is monotone in power, so the optimum sits on the boundary
        res = achievable_snr("hcm", 1e-4, 4e-12, n=64, m=2)
        grid_capped = np.geomspace(1e-6, 5e-5, 50)
        pmf = hcm_amplitude_pmf(64, 2)
        snrs = [
            4 * hcm_snr(2, 64, analysis.hcm_drive_peak(a, 64), GAMMA * 4e-12,
                        clipping_variance_discrete(pmf, analysis.hcm_drive_peak(a, 64), 64, 1e-4))
            for a in grid_capped
        ]
        assert int(np.argmax(snrs)) == len(grid_capped) - 1
        assert res.max_snr >= snrs[-1]  # the full scan may clip a little and do better

    def test_dcr_dominates_hcm(self):
        s2 = (0.5e-6) ** 2
        hcm = achievable_snr("hcm", 1e-4, s2, n=64, m=2)
        dcr = achievable_snr("dcr-hcm", 1e-4, s2, n=64, m=2)
        assert dcr.max_snr >= hcm.max_snr

    def test_grid_scan_close_to_fine_scan(self):
        s2 = (0.5e-6) ** 2
        coarse = achievable_snr("aco-ofdm", 1e-4, s2, n=128, m=16)
        # the same per-point SNR on a 2,000-point grid
        cfg = harness.ExperimentConfig(scheme="aco-ofdm", n=128, m=16, p_max=1e-4, sigma2_n=s2)
        ctx = harness._SweepContext(cfg)
        fine_grid = np.geomspace(1e-6, 1e-4, 2000)
        fine = np.array([ctx.scheme.snr(ctx, float(a)) for a in fine_grid])
        assert coarse.max_snr == pytest.approx(fine.max(), rel=0.01)
        # optimum within one coarse grid step of the refined optimum
        step = np.log(1e2) / 199  # log spacing of the 200-point coarse grid
        best = fine_grid[int(np.argmax(fine))]
        assert abs(np.log(coarse.best_avg_power) - np.log(best)) <= step

    def test_unknown_scheme(self):
        with pytest.raises(DomainError):
            achievable_snr("qam", 1e-4, 1e-12, n=128, m=2)
