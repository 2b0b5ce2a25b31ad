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
    dcr_energy_efficiency_exact,
    extended_binomial,
    hcm_amplitude_pmf,
    hcm_analytical_ber,
    qfunc,
)
from .channel import LinkConfig, clip, illuminance_to_power, load_impulse_response, propagate
from .equalization import (
    ChannelMatrix,
    MmseWeights,
    channel_matrix,
    interleaver_search,
    load_permutation,
    mmse_apply,
    mmse_weights,
    save_permutation,
)
from .errors import ConfigError, DomainError, FramingError, RangeError, SizeError
from .hadamard import BinaryHadamard, cyclic_shift, fwht, sylvester
from .harness import BerRecord, ExperimentConfig, achievable_snr, parse_config, run_point, sweep
from .modem_hcm import deframe, deinterleave, interleave

__version__ = "0.1.0"
