"""The claims of arXiv 1406.2897's abstract as Monte-Carlo gates.

Every point runs harness.run_point on one shared link: N = 128, p_max
1e-4 W, noise std 1 uW (sigma2_n = 1e-12 W^2), a flat channel, 200 target
errors, at most 20,000 symbols and master seed 1. A claim holds when the
two 95 % intervals do not overlap; a point with no errors counts with its
rule-of-three bound, which run_point reports as ci_95. The numbers in the
docstrings are those of the seed-1 runs, ber ± ci_95.

DCR-HCM's energy efficiency eta, which grows with N, is gated on the
values `hcmlink eta` prints at its defaults. The abstract's other two
claims are gated elsewhere: the small PAPR by
tests/test_modem_hcm.py::TestEncode::test_papr_bound_exhaustive_n8, and
that interleaving makes HCM resist ISI on dispersive links by
tests/test_harness.py::test_searched_interleaver_beats_identity_under_mmse.
A point that moves across its rival is a regression of the program, not of
these tests.
"""

import numpy as np

from hcmlink import analysis, harness


def _point(scheme: str, m: int, avg_power: float) -> harness.BerRecord:
    cfg = harness.ExperimentConfig(scheme=scheme, n=128, m=m, p_max=1e-4,
                                   power_grid=np.array([avg_power]), sigma2_n=1e-12,
                                   target_errors=200, max_symbols=20_000, master_seed=1)
    return harness.run_point(cfg, avg_power)


def _clearly_below(a: harness.BerRecord, b: harness.BerRecord) -> bool:
    return a.ber + a.ci_95 < b.ber - b.ci_95


def test_hcm_beats_ofdm_at_high_illumination():
    """At 9e-5 W, 90 % of p_max, and about 1 bit per chip: hcm m = 2
    (127/128 bit per chip) has BER 1.02e-5 ± 3.9e-6, dco-ofdm QAM-4 (63/64)
    0.064 ± 0.003 and aco-ofdm QAM-16 (1) 0.30 ± 0.005."""
    hcm = _point("hcm", 2, 9e-5)
    assert _clearly_below(hcm, _point("dco-ofdm", 4, 9e-5))
    assert _clearly_below(hcm, _point("aco-ofdm", 16, 9e-5))


def test_dcr_hcm_beats_hcm_for_dimmer_lighting():
    """At 1e-5 W, 10 % of p_max, and m = 2: dcr-hcm has BER
    2.9e-4 ± 4.1e-5 and hcm 0.210 ± 0.004."""
    assert _clearly_below(_point("dcr-hcm", 2, 1e-5), _point("hcm", 2, 1e-5))


def test_dcr_energy_efficiency_grows_with_n():
    """At `hcmlink eta --n-range 4:1024`'s defaults (m = 2, 20,000 trials,
    one generator seeded 1 for all orders) eta runs 1.50, 1.74, 2.12, 2.64,
    3.35, 4.31, 5.62, 7.40, 9.83: each step is at least 0.23, far above the
    Monte-Carlo error of a 20,000-frame mean. The exact value at N = 8 is
    gated by tests/test_analysis.py::TestEnergyEfficiency."""
    rng = np.random.default_rng(1)
    etas = [analysis.dcr_energy_efficiency(1 << k, 2, 20_000, rng) for k in range(2, 11)]
    assert all(a < b for a, b in zip(etas, etas[1:]))
