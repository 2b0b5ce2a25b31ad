"""ACO-OFDM and DCO-OFDM baseline modems.

ACO-OFDM loads Gray-labeled square QAM onto the odd subcarriers with
Hermitian symmetry; the real IFFT output is antisymmetric between the two
symbol halves so zeroing negative samples costs exactly a factor 2 on the
data subcarriers, undone at the receiver. DCO-OFDM loads subcarriers
1..N/2-1 and rides on a DC bias. Both use a one-tap zero-forcing equalizer
against the known channel frequency response.

Bit layout per QAM symbol: the first log2(M)/2 bits select the I level and
the rest the Q level, each MSB-first with Gray labels ordered so that the
all-zeros group maps to the most positive amplitude (00 -> (1+1j)/sqrt(2)
for QPSK).
"""

from functools import lru_cache

import numpy as np

from .errors import ConfigError, SizeError
from .modem_hcm import _gray_tables, _group_values


def _check_qam_order(m_qam: int):
    side = int(round(np.sqrt(m_qam)))
    if m_qam < 4 or side * side != m_qam or side & (side - 1):
        raise ConfigError(f"QAM order must be an even power of two >= 4, got {m_qam}")
    return side


@lru_cache(maxsize=None)
def _qam_tables(m_qam: int) -> tuple[np.ndarray, np.ndarray]:
    """(symbol of each bit-group value, bits of each pair index I * side + Q)."""
    side = _check_qam_order(m_qam)
    half = side.bit_length() - 1
    index, gray_bits = _gray_tables(half)
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    values = np.arange(m_qam)
    i_amp = (side - 1 - 2 * index[values >> half]) / norm
    q_amp = (side - 1 - 2 * index[values & (side - 1)]) / norm
    symbols = i_amp + 1j * q_amp
    bits = np.concatenate([np.repeat(gray_bits, side, axis=0),
                           np.tile(gray_bits, (side, 1))], axis=1)
    symbols.setflags(write=False)
    bits.setflags(write=False)
    return symbols, bits


def qam_symbols(bits: np.ndarray, m_qam: int) -> np.ndarray:
    """Map bit groups (..., k*log2(m)) to k unit-energy QAM symbols."""
    symbols = _qam_tables(m_qam)[0]
    bits = np.asarray(bits)
    bps = int(np.log2(m_qam))
    if bits.shape[-1] % bps:
        raise SizeError(f"bit count must be a multiple of {bps}")
    return symbols[_group_values(bits.reshape(*bits.shape[:-1], -1, bps))]


def qam_bits(symbols: np.ndarray, m_qam: int) -> np.ndarray:
    """Slice QAM symbols per axis (nearest level, ties to the lower index)."""
    side = _check_qam_order(m_qam)
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    symbols = np.asarray(symbols)

    def axis_index(x):
        idx_f = (side - 1 - x * norm) / 2.0
        return np.clip(np.ceil(idx_f - 0.5), 0, side - 1).astype(np.int64)

    pairs = axis_index(symbols.real) * side + axis_index(symbols.imag)
    return _qam_tables(m_qam)[1][pairs].reshape(*symbols.shape[:-1], -1)


def aco_data_count(n_fft: int) -> int:
    return n_fft // 4


def dco_data_count(n_fft: int) -> int:
    return n_fft // 2 - 1


def aco_time_samples(symbols: np.ndarray, n_fft: int) -> np.ndarray:
    """Real IFFT output with data on odd subcarriers (before any clipping)."""
    symbols = np.asarray(symbols)
    if symbols.shape[-1] != aco_data_count(n_fft):
        raise ConfigError(
            f"ACO frame must carry {aco_data_count(n_fft)} symbols, got {symbols.shape[-1]}"
        )
    half = np.zeros((*symbols.shape[:-1], n_fft // 2 + 1), dtype=np.complex128)
    half[..., 1 : n_fft // 2 : 2] = symbols
    return np.fft.irfft(half, n_fft, axis=-1)


def dco_time_samples(symbols: np.ndarray, n_fft: int) -> np.ndarray:
    """Real IFFT output with data on subcarriers 1..n_fft/2-1 (zero-mean AC)."""
    symbols = np.asarray(symbols)
    if symbols.shape[-1] != dco_data_count(n_fft):
        raise ConfigError(
            f"DCO frame must carry {dco_data_count(n_fft)} symbols, got {symbols.shape[-1]}"
        )
    half = np.zeros((*symbols.shape[:-1], n_fft // 2 + 1), dtype=np.complex128)
    half[..., 1 : n_fft // 2] = symbols
    return np.fft.irfft(half, n_fft, axis=-1)


def one_tap_gains(h: np.ndarray, n_fft: int) -> np.ndarray:
    """Channel frequency response on the non-negative subcarriers."""
    return np.fft.rfft(np.asarray(h, dtype=np.float64), n_fft)


def aco_extract(payload: np.ndarray, channel_gains: np.ndarray) -> np.ndarray:
    """FFT, one-tap ZF equalization, odd-subcarrier pick, clip-attenuation undo."""
    payload = np.asarray(payload, dtype=np.float64)
    n_fft = payload.shape[-1]
    spectrum = np.fft.rfft(payload, axis=-1)
    data = spectrum[..., 1 : n_fft // 2 : 2]
    gains = np.asarray(channel_gains)[1 : n_fft // 2 : 2]
    return 2.0 * data / gains


def dco_extract(payload: np.ndarray, channel_gains: np.ndarray) -> np.ndarray:
    """FFT and one-tap ZF equalization on subcarriers 1..n_fft/2-1."""
    payload = np.asarray(payload, dtype=np.float64)
    n_fft = payload.shape[-1]
    spectrum = np.fft.rfft(payload, axis=-1)
    data = spectrum[..., 1 : n_fft // 2]
    gains = np.asarray(channel_gains)[1 : n_fft // 2]
    return data / gains
