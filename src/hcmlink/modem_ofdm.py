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

import numpy as np

from .errors import ConfigError, SizeError
from .modem_hcm import _bits_to_ints, _gray_to_index, _index_to_gray, _ints_to_bits


def _check_qam_order(m_qam: int):
    side = int(round(np.sqrt(m_qam)))
    if m_qam < 4 or side * side != m_qam or side & (side - 1):
        raise ConfigError(f"QAM order must be an even power of two >= 4, got {m_qam}")
    return side


def qam_symbols(bits: np.ndarray, m_qam: int) -> np.ndarray:
    """Map bit groups (..., k*log2(m)) to k unit-energy QAM symbols."""
    side = _check_qam_order(m_qam)
    bits = np.asarray(bits)
    bps = int(np.log2(m_qam))
    half = bps // 2
    if bits.shape[-1] % bps:
        raise SizeError(f"bit count must be a multiple of {bps}")
    groups = bits.reshape(*bits.shape[:-1], -1, bps)
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    i_idx = _gray_to_index(_bits_to_ints(groups[..., :half]), half)
    q_idx = _gray_to_index(_bits_to_ints(groups[..., half:]), half)
    i_amp = (side - 1 - 2 * i_idx) / norm
    q_amp = (side - 1 - 2 * q_idx) / norm
    return i_amp + 1j * q_amp


def qam_bits(symbols: np.ndarray, m_qam: int) -> np.ndarray:
    """Slice QAM symbols per axis (nearest level, ties to the lower index)."""
    side = _check_qam_order(m_qam)
    half = int(np.log2(side))
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    symbols = np.asarray(symbols)

    def axis_bits(x):
        idx_f = (side - 1 - x * norm) / 2.0
        idx = np.clip(np.ceil(idx_f - 0.5), 0, side - 1).astype(np.int64)
        return _ints_to_bits(_index_to_gray(idx), half)

    i_bits = axis_bits(symbols.real)
    q_bits = axis_bits(symbols.imag)
    out = np.concatenate([i_bits, q_bits], axis=-1)
    return out.reshape(*symbols.shape[:-1], -1)


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
