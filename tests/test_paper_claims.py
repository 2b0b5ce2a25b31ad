"""The claims of arXiv 1406.2897's abstract as Monte-Carlo gates.

Every point runs harness.run_point on one shared link: N = 128, p_max
1e-4 W, noise std 1 uW (sigma2_n = 1e-12 W^2), a flat channel, 200 target
errors, at most 20,000 symbols and master seed 1. A claim holds when the
two 95 % intervals do not overlap; a point with no errors counts with its
rule-of-three bound, which run_point reports as ci_95. The numbers in the
docstrings are those of the seed-1 runs, ber ± ci_95.

The abstract's other two claims are gated elsewhere: the small PAPR by
tests/test_modem_hcm.py::TestEncode::test_papr_bound_exhaustive_n8, and
that interleaving makes HCM resist ISI on dispersive links by
tests/test_harness.py::test_searched_interleaver_beats_identity_under_mmse.
A point that moves across its rival is a regression of the program, not of
these tests.
"""

import numpy as np

from hcmlink import harness


def _point(scheme: str, m: int, avg_power: float) -> harness.BerRecord:
    cfg = harness.ExperimentConfig(scheme=scheme, n=128, m=m, p_max=1e-4,
                                   power_grid=np.array([avg_power]), sigma2_n=1e-12,
                                   target_errors=200, max_symbols=20_000, master_seed=1)
    return harness.run_point(cfg, avg_power)


def _clearly_below(a: harness.BerRecord, b: harness.BerRecord) -> bool:
    return a.ber + a.ci_95 < b.ber - b.ci_95


def test_hcm_beats_ofdm_at_high_illumination():
    """At 9e-5 W, 90 % of p_max, and about 1 bit per chip: hcm m = 2
    (127/128 bit per chip) has BER 1.38e-5 ± 4.6e-6, dco-ofdm QAM-4 (63/64)
    0.062 ± 0.003 and aco-ofdm QAM-16 (1) 0.30 ± 0.005."""
    hcm = _point("hcm", 2, 9e-5)
    assert _clearly_below(hcm, _point("dco-ofdm", 4, 9e-5))
    assert _clearly_below(hcm, _point("aco-ofdm", 16, 9e-5))


def test_dcr_hcm_beats_hcm_for_dimmer_lighting():
    """At 1e-5 W, 10 % of p_max, and m = 2: dcr-hcm has BER
    2.5e-4 ± 3.4e-5 and hcm 0.207 ± 0.004."""
    assert _clearly_below(_point("dcr-hcm", 2, 1e-5), _point("hcm", 2, 1e-5))
