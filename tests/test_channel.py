import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hcmlink.channel import (
    LinkConfig,
    check_taps,
    clip,
    load_impulse_response,
    propagate,
)
from hcmlink.errors import ConfigError
from hcmlink.modem_hcm import encode_levels, frame_chips


def test_clip_examples():
    assert clip(np.array([-1.0, 0.5, 2.0]), 1.0).tolist() == [0.0, 0.5, 1.0]
    x = np.array([0.0, 0.4, 1.0])
    assert_allclose(clip(x, 1.0), x)


def test_clip_never_moves_samples_away_from_midpoint():
    rng = np.random.default_rng(0)
    p_max = 0.8
    s = rng.normal(0.4, 2.0, size=1000)
    c = clip(s, p_max)
    assert np.all(np.abs(c - p_max / 2) <= np.abs(s - p_max / 2) + 1e-15)


def test_hcm_never_clips_below_half_peak_drive():
    # PAPR 2: with the drive peak at p_max no chip exceeds the limiter
    rng = np.random.default_rng(1)
    n, p_max = 64, 1.0
    levels = np.zeros((10_000, n))
    levels[:, 1:] = rng.integers(0, 2, size=(10_000, n - 1))
    samples = encode_levels(levels) * (p_max / n)  # average power = p_max/2 scale
    assert samples.max() <= p_max
    assert_allclose(clip(samples, p_max), samples)


def test_propagate_identity_channel_noise_free():
    cfg = LinkConfig(p_max=10.0, sigma2_n=0.0, h=[1.0])
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 5, size=32)
    assert_allclose(propagate(x, cfg, rng), x)


def test_propagate_steady_state_of_unit_sum_taps():
    cfg = LinkConfig(p_max=10.0, sigma2_n=0.0, h=[0.5, 0.3, 0.2], cp_len=2)
    rng = np.random.default_rng(3)
    out = propagate(np.full(16, 3.0), cfg, rng)
    assert_allclose(out[2:], 3.0)  # after the taps fill, sum(h) = 1 holds the level


def test_propagate_noise_variance_includes_gamma():
    sigma2, gamma = 2.5e-4, 1.21
    cfg = LinkConfig(p_max=1.0, sigma2_n=sigma2, gamma=gamma, h=[1.0])
    rng = np.random.default_rng(4)
    out = propagate(np.zeros(1_000_000), cfg, rng)
    assert out.var() == pytest.approx(sigma2 * gamma, rel=0.01)


def test_propagate_checks_prefix_against_taps():
    cfg = LinkConfig(p_max=1.0, sigma2_n=0.0, h=[0.5, 0.3, 0.2], cp_len=1)
    with pytest.raises(ConfigError):
        propagate(np.zeros(8), cfg, np.random.default_rng(0))


def test_propagate_matches_cyclic_convolution_after_deframe():
    rng = np.random.default_rng(5)
    n, cp = 16, 4
    h = np.array([0.4, 0.3, 0.3])
    cfg = LinkConfig(p_max=np.inf, sigma2_n=0.0, h=h, cp_len=cp)
    chips = rng.uniform(0, n, size=n)
    tx = frame_chips(chips, 1.0, cp)
    payload = propagate(tx, cfg, rng)[cp:]
    want = sum(tap * np.roll(chips / n, ell) for ell, tap in enumerate(h))
    assert_allclose(payload, want, atol=1e-12)


def _normal_propagate(samples, cfg, rng):
    """Clip, FIR, then noise from rng.normal(0, std): the reference for the noise draws."""
    x = np.clip(samples, 0.0, cfg.p_max)
    out = cfg.h[0] * x
    for ell in range(1, cfg.h.size):
        out[..., ell:] += cfg.h[ell] * x[..., :-ell]
    return out + rng.normal(0.0, np.sqrt(cfg.sigma2_n * cfg.gamma), size=out.shape)


@pytest.mark.parametrize("h, cp", [([1.0], 0), ([0.5, 0.3, 0.2], 2)])
def test_propagate_into_out_matches_allocating_call(h, cp):
    cfg = LinkConfig(p_max=0.8, sigma2_n=1e-3, h=h, cp_len=cp)
    samples = np.random.default_rng(9).uniform(-0.2, 1.0, size=(64, 16 + cp))
    keep = samples.copy()
    want = _normal_propagate(samples, cfg, np.random.default_rng(10))
    assert np.array_equal(propagate(samples, cfg, np.random.default_rng(10)), want)
    assert np.array_equal(samples, keep)  # the allocating form works on a copy
    out = np.empty_like(samples)
    assert propagate(samples, cfg, np.random.default_rng(10), out=out) is out
    assert np.array_equal(out, want)


def test_linkconfig_validates_taps():
    with pytest.raises(ConfigError):
        LinkConfig(p_max=1.0, sigma2_n=0.0, h=[0.5, 0.4])
    with pytest.raises(ConfigError):
        LinkConfig(p_max=1.0, sigma2_n=0.0, h=[1.5, -0.5])


@pytest.mark.parametrize("taps", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0], [-0.5, 1.5], [],
                                  [[1.0]]])
def test_bad_taps_rejected_everywhere(tmp_path, taps):
    # abs(nan - 1) > 1e-9 is False, so a sum test alone lets nan,1 through
    with pytest.raises(ConfigError):
        check_taps(taps)
    with pytest.raises(ConfigError):
        LinkConfig(p_max=1.0, sigma2_n=0.0, h=taps)
    path = tmp_path / "taps.txt"
    path.write_text(" ".join(str(v) for v in np.ravel(taps)) + "\n")
    if np.size(taps) > 1:
        with pytest.raises(ConfigError):
            load_impulse_response(path)


def test_load_impulse_response_normalizes_with_warning(tmp_path, caplog):
    path = tmp_path / "taps.txt"
    path.write_text("0.8 0.6 0.6\n")
    with caplog.at_level(logging.WARNING):
        h = load_impulse_response(path)
    assert h.sum() == pytest.approx(1.0)
    assert_allclose(h, [0.4, 0.3, 0.3])
    assert any("renormalizing" in r.message for r in caplog.records)


def test_load_impulse_response_accepts_normalized(tmp_path, caplog):
    path = tmp_path / "taps.txt"
    path.write_text("0.5\n0.3\n0.2\n")
    with caplog.at_level(logging.WARNING):
        h = load_impulse_response(path)
    assert not caplog.records
    assert_allclose(h, [0.5, 0.3, 0.2])
