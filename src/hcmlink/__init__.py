"""Hadamard coded modulation link toolkit.

Physical-layer simulation and analysis for HCM and DC-reduced HCM over
peak-power-limited intensity-modulated channels, with ACO-OFDM and DCO-OFDM
baselines, closed-form BER/clipping analysis, MMSE equalization for
dispersive links and a deterministic Monte-Carlo harness.
"""

from .analysis import (
    AmplitudePmf,
    clipping_variance_discrete,
    clipping_variance_gaussian,
    dcr_amplitude_pmf,
    dcr_energy_efficiency,
    hcm_amplitude_pmf,
    qfunc,
)
from .channel import propagate
from .equalization import (
    MmseWeights,
    interleaver_search,
    load_permutation,
    mmse_weights,
)
from .errors import ConfigError, DomainError, SizeError
from .hadamard import fwht
from .harness import BerRecord, ExperimentConfig, achievable_snr, parse_config, run_point, sweep
from .modem_hcm import deinterleave, interleave

__version__ = "0.1.0"
